//! Reference job of the Swan benchmark: a fixed amount of work that no
//! change to the program touches, timed beside every workload so the
//! benchmark can divide the host's speed out of its timings.
//!
//! Usage: `perfbench-ref`
//!
//! Each of THREADS threads steps a small simulator of its own: an 8-way
//! set-associative cache with LRU replacement over 1 MiB of tags and a
//! table of two-bit branch counters, driven by a seeded mix of
//! sequential and random addresses. That is the kind of work the
//! simulator's core models do (tag tables about the size of the host's
//! L2, data-dependent branches), so a busy host slows both alike. The
//! job runs REPEATS times; prints `checksum C` (the same on every run
//! and thread) and `wall_ns T...`, each time until the last thread
//! finished.

use std::time::Instant;

const SETS: usize = 1 << 14;
const WAYS: usize = 8;
const PREDICTORS: usize = 1 << 14;
const STEPS: u64 = 5_000_000;
const SPAN_BITS: u32 = 24;
const REPEATS: usize = 5;
const SEED: u64 = 0x5157_414e;
/// One thread per vCPU of the two-vCPU machine the workloads are sized
/// for: they all keep two threads busy.
const THREADS: usize = 2;

fn job() -> u64 {
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut ages = vec![0u8; SETS * WAYS];
    let mut counters = vec![1u8; PREDICTORS];
    let (mut x, mut seq) = (SEED, 0u64);
    let (mut hits, mut mispredicts) = (0u64, 0u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = if x & 3 == 0 {
            seq = seq.wrapping_add(64);
            seq & ((1 << SPAN_BITS) - 1)
        } else {
            (x >> 8) & ((1 << SPAN_BITS) - 1)
        };
        let line = addr >> 6;
        let set = (line as usize & (SETS - 1)) * WAYS;
        let ways = &mut tags[set..set + WAYS];
        let age = &mut ages[set..set + WAYS];
        let hit = match ways.iter().position(|&t| t == line) {
            Some(w) => {
                hits += 1;
                w
            }
            None => {
                let w = (0..WAYS).max_by_key(|&w| age[w]).unwrap_or(0);
                ways[w] = line;
                w
            }
        };
        for (w, a) in age.iter_mut().enumerate() {
            *a = if w == hit { 0 } else { a.saturating_add(1) };
        }
        let p = &mut counters[(addr as usize >> 3) & (PREDICTORS - 1)];
        let taken = (x >> 40) & 7 != 0;
        if (*p >= 2) != taken {
            mispredicts += 1;
        }
        *p = if taken {
            (*p + 1).min(3)
        } else {
            p.saturating_sub(1)
        };
    }
    hits.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ mispredicts
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: perfbench-ref");
        std::process::exit(2);
    }
    let mut sums = Vec::new();
    let mut walls = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..THREADS).map(|_| s.spawn(job)).collect();
            sums.extend(hs.into_iter().map(|h| h.join().expect("reference thread")));
        });
        walls.push(t.elapsed().as_nanos().to_string());
    }
    if sums.iter().any(|&c| c != sums[0]) {
        eprintln!("reference threads disagree: {sums:?}");
        std::process::exit(1);
    }
    println!("checksum {}", sums[0]);
    println!("wall_ns {}", walls.join(" "));
}
