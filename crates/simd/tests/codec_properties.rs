//! Property-based tests of the record-once / replay-many trace codec:
//! arbitrary instruction sequences must survive encode → decode
//! bit-identically — every field of every instruction, every overhead
//! run, in order — including value-id wraparound past the 0 sentinel
//! and maximal address deltas. The chunked container must decode
//! bit-identically to the unsegmented encoding at *any* chunk budget
//! (down to one record per chunk), and its digests must catch any
//! single-byte mutation. In-memory recordings are chunked the same
//! way, and must replay identically through every path at any chunk
//! budget, with prediction state carried across every chunk edge.

use proptest::prelude::*;
use swan_simd::trace::replay_chunked_batches_with;
use swan_simd::trace::{advance_value_id, next_value_id, OP_COUNT};
use swan_simd::{
    replay_chunked, Class, EncodedTrace, Op, RecordSink, SpillSink, TraceInstr, TraceSink,
};

/// One sink event, so replay can be compared call for call.
#[derive(Clone, Debug, PartialEq)]
enum Event {
    Instr(TraceInstr),
    Overhead(Op, Class, u32, u64),
}

#[derive(Default)]
struct EventLog(Vec<Event>);

impl TraceSink for EventLog {
    fn on_instr(&mut self, ins: &TraceInstr) {
        self.0.push(Event::Instr(*ins));
    }
    fn on_overhead(&mut self, op: Op, class: Class, first_id: u32, n: u64) {
        self.0.push(Event::Overhead(op, class, first_id, n));
    }
}

/// Feed a sequence of events into a sink.
fn feed(events: &[Event], sink: &mut dyn TraceSink) {
    for e in events {
        match e {
            Event::Instr(ins) => sink.on_instr(ins),
            Event::Overhead(op, class, first, n) => sink.on_overhead(*op, *class, *first, *n),
        }
    }
}

/// Encode a sequence and replay it back into an event log.
fn roundtrip(events: &[Event]) -> (EncodedTrace, Vec<Event>) {
    let mut rec = RecordSink::new();
    feed(events, &mut rec);
    let enc = rec.finish();
    let mut log = EventLog::default();
    enc.replay_into(&mut log);
    (enc, log.0)
}

/// Build one event from raw random draws. `id` is the would-be
/// sequential destination; the event may or may not follow it,
/// depending on the draws. Returns the event and the id the tracer
/// bookkeeping would hold afterwards.
fn event_from(seed: u64, addr_seed: u64, id: u32) -> (Event, u32) {
    let op = Op::ALL[(seed % OP_COUNT as u64) as usize];
    let class = Class::ALL[((seed >> 8) % Class::ALL.len() as u64) as usize];
    let kind = (seed >> 16) % 8;
    if kind == 0 {
        // Overhead run; occasionally long enough to cross a wrap.
        let n = match (seed >> 24) % 3 {
            0 => (seed >> 32) % 7,
            1 => (seed >> 32) % 100_000,
            _ => u32::MAX as u64 + (seed >> 48),
        };
        let first = if (seed >> 20) & 1 == 0 {
            id
        } else {
            (seed >> 28) as u32
        };
        let next = if first == 0 {
            id
        } else {
            advance_value_id(first, n)
        };
        return (Event::Overhead(op, class, first, n), next);
    }
    // Instruction: dst follows the sequential prediction most of the
    // time (as the tracer emits), explicit otherwise — including 0 and
    // values straddling the u32::MAX wrap.
    let dst = match (seed >> 20) % 5 {
        0..=2 => id,
        3 => (seed >> 28) as u32,
        _ => u32::MAX - ((seed >> 28) as u32 % 3),
    };
    let nsrc = ((seed >> 40) % 5) as u8;
    let mut srcs = [0u32; 4];
    for (i, s) in srcs.iter_mut().enumerate().take(nsrc as usize) {
        // Mix of recent producers, untracked (0), and far ids.
        *s = match (seed >> (44 + 4 * i)) % 4 {
            0 => dst.wrapping_sub(1 + i as u32),
            1 => 0,
            2 => (addr_seed >> (8 * i)) as u32,
            _ => u32::MAX - (i as u32),
        };
    }
    let mem = if op.is_load() || op.is_store() || (seed >> 60) & 1 == 1 {
        // Address draws cover the virtual arenas, the pools, tiny
        // addresses, and maximal-delta extremes.
        let addr = match addr_seed % 6 {
            0 => 0xF000_0000_0000_0000 + (addr_seed >> 8) % (1 << 30),
            1 => 0xFFFE_0000_0000_0000 + (addr_seed >> 8) % (1 << 20),
            2 => 0xFFFF_F000_0000_0000 + (addr_seed >> 8) % 4096,
            3 => addr_seed >> 8,
            4 => 0,
            _ => u64::MAX - (addr_seed >> 32),
        };
        Some(swan_simd::trace::MemRef {
            addr,
            bytes: 1 + ((addr_seed >> 16) % 64) as u32,
        })
    } else {
        None
    };
    let ins = TraceInstr {
        op,
        class,
        dst,
        srcs,
        nsrc,
        mem,
    };
    (Event::Instr(ins), next_value_id(dst))
}

/// Events from raw draws with every overhead run cut below `max_run`
/// instructions: the sink path expands runs one call per instruction,
/// so they must stay short enough to materialize.
fn short_run_events(seeds: &[u64], addr_seeds: &[u64], max_run: u64) -> Vec<Event> {
    let mut id = 1u32;
    let mut events = Vec::with_capacity(seeds.len());
    for (s, a) in seeds.iter().zip(addr_seeds) {
        let (e, next) = event_from(*s, *a, id);
        if let Event::Overhead(op, class, first, n) = e {
            let n = n % max_run;
            let next = if first == 0 {
                id
            } else {
                advance_value_id(first, n)
            };
            events.push(Event::Overhead(op, class, first, n));
            id = next;
        } else {
            events.push(e);
            id = next;
        }
    }
    events
}

/// Longest record the encoder emits: three tag bytes, a 32-bit id,
/// four 64-bit source deltas, a 64-bit address delta and a 32-bit
/// access size, all as varints.
const MAX_RECORD_BYTES: usize = 3 + 5 + 4 * 10 + 10 + 5;

/// Record `events` into in-memory chunks of `budget` bytes and check
/// every replay of the result against the live stream: the sink path,
/// the batch path at tiny arena sizes, and the container round trip.
/// Also checks the chunk shapes: each chunk but the last reached the
/// budget, and none passed it by more than the record that crossed it.
fn check_chunked_recording(events: &[Event], budget: usize) -> EncodedTrace {
    let mut rec = RecordSink::with_chunk_budget(budget);
    feed(events, &mut rec);
    let enc = rec.finish();

    let lens: Vec<usize> = enc.chunk_lens().collect();
    assert!(
        lens.iter().all(|&l| l > 0 && l < budget + MAX_RECORD_BYTES),
        "{lens:?}"
    );
    if let Some((_, sealed)) = lens.split_last() {
        assert!(
            sealed.iter().all(|&l| l >= budget),
            "{lens:?} at budget {budget}"
        );
    }

    let mut log = EventLog::default();
    enc.replay_into(&mut log);
    assert_eq!(&log.0, events, "sink replay across chunk edges");

    let mut expanded = swan_simd::VecSink::default();
    feed(events, &mut expanded);
    for cap in [1usize, 2, 7, 8192] {
        let mut collected = Vec::new();
        let mut largest = 0usize;
        enc.replay_batches_with(cap, |b| {
            largest = largest.max(b.len());
            collected.extend_from_slice(b);
        });
        assert!(largest <= cap);
        assert_eq!(collected, expanded.instrs, "batch replay at capacity {cap}");
    }

    let (summary, bytes) = enc
        .write_chunked(budget, Vec::new())
        .expect("Vec writer cannot fail");
    let mut from_container = EventLog::default();
    let decoded = replay_chunked(&bytes[..], &mut from_container).expect("well-formed stream");
    assert_eq!(&from_container.0, events, "container replay");
    assert_eq!(decoded, summary);
    assert_eq!(summary.payload_bytes, enc.encoded_bytes() as u64);
    assert_eq!(summary.records, enc.record_count());
    assert_eq!(summary.instrs, enc.instr_count());
    enc
}

/// The encoded bytes of a recording, whatever its in-memory chunking:
/// its container form at one fixed budget.
fn container_bytes(enc: &EncodedTrace) -> Vec<u8> {
    enc.write_chunked(1 << 20, Vec::new())
        .expect("Vec writer cannot fail")
        .1
}

/// An overhead run that ends exactly on a chunk edge, longer than one
/// batch, followed by records whose ids and addresses are predicted
/// from state carried over the edge.
#[test]
fn overhead_run_sealing_a_chunk_carries_prediction_over_the_edge() {
    let load = |dst: u32, addr: u64| {
        Event::Instr(TraceInstr {
            op: Op::SLoad,
            class: Class::SInt,
            dst,
            srcs: [dst - 1, 0, 0, 0],
            nsrc: 1,
            mem: Some(swan_simd::trace::MemRef { addr, bytes: 8 }),
        })
    };
    let run = 100u64;
    let mut events = vec![load(1, 0x1000), load(2, 0x1008)];
    events.push(Event::Overhead(Op::SAlu, Class::SInt, 3, run));
    let after = advance_value_id(3, run);
    for i in 0..5u32 {
        events.push(load(after + i, 0x1010 + 8 * i as u64));
    }
    // The budget is the encoded size up to and including the run, so
    // the run's record is the one that seals the first chunk.
    let mut prefix = RecordSink::new();
    feed(&events[..3], &mut prefix);
    let budget = prefix.encoded_bytes();

    let enc = check_chunked_recording(&events, budget);
    let lens: Vec<usize> = enc.chunk_lens().collect();
    assert_eq!(lens[0], budget, "the run ends exactly on the chunk edge");
    assert!(lens.len() >= 2, "{lens:?}");
    let unchunked = check_chunked_recording(&events, 1 << 16);
    assert_eq!(container_bytes(&enc), container_bytes(&unchunked));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// In-memory chunking is invisible: for arbitrary streams at
    /// budgets from one record per chunk upward, every replay equals
    /// the live stream and the encoded bytes equal those of the
    /// default single-budget recording.
    #[test]
    fn chunked_in_memory_recordings_replay_identically(
        seeds in proptest::collection::vec(any::<u64>(), 0..150),
        addr_seeds in proptest::collection::vec(any::<u64>(), 150),
        budget_seed in 0usize..5,
    ) {
        let budget = [1usize, 3, 16, 61, 1 << 16][budget_seed];
        let events = short_run_events(&seeds, &addr_seeds, 40);
        let enc = check_chunked_recording(&events, budget);
        if budget == 1 {
            prop_assert_eq!(enc.chunk_lens().count() as u64, enc.record_count());
        }
        let (reference, _) = roundtrip(&events);
        prop_assert_eq!(container_bytes(&enc), container_bytes(&reference));
    }

    #[test]
    fn arbitrary_sequences_roundtrip_bit_identically(
        seeds in proptest::collection::vec(any::<u64>(), 0..200),
        addr_seeds in proptest::collection::vec(any::<u64>(), 200),
    ) {
        let mut id = 1u32;
        let mut events = Vec::with_capacity(seeds.len());
        for (s, a) in seeds.iter().zip(&addr_seeds) {
            let (e, next) = event_from(*s, *a, id);
            events.push(e);
            id = next;
        }
        let (enc, replayed) = roundtrip(&events);
        prop_assert_eq!(&replayed, &events, "replay must equal the live stream");
        let instrs: u64 = events
            .iter()
            .map(|e| match e {
                Event::Instr(_) => 1,
                Event::Overhead(_, _, _, n) => *n,
            })
            .sum();
        prop_assert_eq!(enc.instr_count(), instrs);
        prop_assert_eq!(enc.record_count(), events.len() as u64);
    }

    #[test]
    fn wraparound_sequences_roundtrip(
        start_off in 0u32..8,
        len in 1usize..64,
        op_seed: u64,
    ) {
        // A dense sequential run whose ids cross u32::MAX and skip the
        // 0 sentinel, with each instruction naming its predecessor —
        // the dataflow-edge shape the tracer actually emits at wrap.
        let mut id = u32::MAX - start_off;
        let mut prev = 0u32;
        let mut events = Vec::new();
        for i in 0..len {
            let op = Op::ALL[((op_seed >> (i % 56)) % OP_COUNT as u64) as usize];
            let mut srcs = [0u32; 4];
            srcs[0] = prev;
            events.push(Event::Instr(TraceInstr {
                op,
                class: Class::ALL[i % Class::ALL.len()],
                dst: id,
                srcs,
                nsrc: 1,
                mem: None,
            }));
            prev = id;
            id = next_value_id(id);
        }
        let (_, replayed) = roundtrip(&events);
        prop_assert_eq!(&replayed, &events);
        // The run really wrapped (or was about to): ids stay nonzero.
        for e in &replayed {
            if let Event::Instr(i) = e {
                prop_assert_ne!(i.dst, 0);
            }
        }
    }

    #[test]
    fn max_delta_address_jumps_roundtrip(
        addrs in proptest::collection::vec(any::<u64>(), 1..64),
        bytes_seed: u32,
    ) {
        // Every access through one op: consecutive deltas take any
        // value in [0, u64::MAX], exercising the full zigzag range.
        let mut id = 1u32;
        let mut events = Vec::new();
        for &addr in &addrs {
            events.push(Event::Instr(TraceInstr {
                op: Op::SLoad,
                class: Class::SInt,
                dst: id,
                srcs: [0; 4],
                nsrc: 0,
                mem: Some(swan_simd::trace::MemRef {
                    addr,
                    bytes: 1 + bytes_seed % 128,
                }),
            }));
            id = next_value_id(id);
        }
        let (_, replayed) = roundtrip(&events);
        prop_assert_eq!(&replayed, &events);
    }

    /// Chunked round-trip: the segmented container decodes
    /// bit-identically to the unsegmented encoding for arbitrary
    /// sequences at arbitrary chunk budgets — including budget 1,
    /// which forces one record per chunk.
    #[test]
    fn chunked_roundtrips_match_unsegmented_at_any_budget(
        seeds in proptest::collection::vec(any::<u64>(), 0..120),
        addr_seeds in proptest::collection::vec(any::<u64>(), 120),
        budget_seed in 0usize..4,
    ) {
        let budget = [1usize, 7, 300, 1 << 16][budget_seed];
        let mut id = 1u32;
        let mut events = Vec::with_capacity(seeds.len());
        for (s, a) in seeds.iter().zip(&addr_seeds) {
            let (e, next) = event_from(*s, *a, id);
            events.push(e);
            id = next;
        }
        let (enc, from_memory) = roundtrip(&events);

        let mut spill = SpillSink::new(Vec::new(), budget);
        feed(&events, &mut spill);
        let (summary, bytes) = spill.finish().expect("Vec writer cannot fail");
        let mut log = EventLog::default();
        let decoded = replay_chunked(&bytes[..], &mut log).expect("well-formed stream");

        prop_assert_eq!(&log.0, &events, "chunked replay must equal the live stream");
        prop_assert_eq!(&log.0, &from_memory, "chunked replay must equal in-memory replay");
        prop_assert_eq!(decoded, summary, "decoder and encoder agree on the summary");
        prop_assert_eq!(summary.instrs, enc.instr_count());
        prop_assert_eq!(summary.records, enc.record_count());
        prop_assert_eq!(summary.payload_bytes, enc.encoded_bytes() as u64);
        if budget == 1 {
            prop_assert_eq!(summary.chunks, enc.record_count(), "one record per chunk");
        }
    }

    /// Integrity: any single-byte mutation anywhere in a chunked
    /// container — payload, framing, header, trailer — is detected
    /// (some field mutations surface as structural errors rather than
    /// digest mismatches; all of them must refuse to decode). The
    /// mutated byte is XORed with a nonzero value so the stream really
    /// changed.
    #[test]
    fn chunk_digests_detect_any_single_byte_mutation(
        seeds in proptest::collection::vec(any::<u64>(), 1..80),
        addr_seeds in proptest::collection::vec(any::<u64>(), 80),
        pos_seed: u64,
        flip in 1u8..=255,
    ) {
        let mut id = 1u32;
        let mut events = Vec::with_capacity(seeds.len());
        for (s, a) in seeds.iter().zip(&addr_seeds) {
            let (e, next) = event_from(*s, *a, id);
            events.push(e);
            id = next;
        }
        let mut spill = SpillSink::new(Vec::new(), 64);
        feed(&events, &mut spill);
        let (_, mut bytes) = spill.finish().expect("Vec writer cannot fail");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        let mut log = EventLog::default();
        prop_assert!(
            replay_chunked(&bytes[..], &mut log).is_err(),
            "flipping byte {pos} by {flip:#04x} must be detected"
        );
    }

    /// Double-buffered batch replay (decoder thread + arena recycling)
    /// must equal the single-buffered sink path instruction for
    /// instruction — for arbitrary sequences, at arbitrary chunk
    /// budgets (including one record per chunk, where every batch
    /// handoff crosses a chunk boundary) and arbitrary batch arena
    /// capacities (including one instruction per batch).
    #[test]
    fn double_buffered_batch_replay_matches_sink_replay(
        seeds in proptest::collection::vec(any::<u64>(), 0..120),
        addr_seeds in proptest::collection::vec(any::<u64>(), 120),
        budget_seed in 0usize..4,
        cap_seed in 0usize..3,
    ) {
        let budget = [1usize, 7, 300, 1 << 16][budget_seed];
        let cap = [1usize, 33, 8192][cap_seed];
        let events = short_run_events(&seeds, &addr_seeds, 5000);
        let mut spill = SpillSink::new(Vec::new(), budget);
        feed(&events, &mut spill);
        let (summary, bytes) = spill.finish().expect("Vec writer cannot fail");

        // Single-buffered reference: the sink path with the default
        // on_overhead expansion materializes every instruction.
        let mut sink = swan_simd::VecSink::default();
        let sink_summary = replay_chunked(&bytes[..], &mut sink).expect("well-formed stream");

        // Double-buffered batch path.
        let mut collected = Vec::new();
        let batch_summary =
            replay_chunked_batches_with(&bytes[..], cap, |b| collected.extend_from_slice(b))
                .expect("well-formed stream");

        prop_assert_eq!(&collected, &sink.instrs, "batch stream != sink stream");
        prop_assert_eq!(batch_summary, sink_summary.clone());
        prop_assert_eq!(sink_summary, summary);
    }
}
