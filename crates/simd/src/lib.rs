//! # swan-simd — instrumented Neon-style vector engine
//!
//! This crate is the functional "fake Arm Neon library" of the Swan
//! reproduction. It provides:
//!
//! * [`Vreg`]: a vector register value whose lane count is set at run time
//!   by a [`Width`] of 128, 256, 512 or 1024 bits — the widths studied in
//!   the paper's scalability analysis (Figure 5a).
//! * A Neon-flavoured intrinsic surface (interleaving loads/stores,
//!   saturating/widening/narrowing arithmetic, permutes, reductions,
//!   crypto extensions) implemented functionally in portable Rust.
//! * [`scalar::Tr`]: tracked scalar values so that the scalar portion of a
//!   kernel (address math, control flow, reduction epilogues) is captured
//!   with the same fidelity.
//! * [`trace`]: a per-thread dynamic-instruction tracer. Every intrinsic
//!   call emits exactly one dynamic instruction carrying its operation
//!   tag, instruction class, destination/source value ids (dataflow
//!   edges) and memory reference. The resulting trace is consumed by
//!   `swan-uarch`'s trace-driven core model, mirroring the paper's
//!   DynamoRIO → Ramulator pipeline.
//!
//! ## Example
//!
//! ```
//! use swan_simd::{trace, Vreg, Width};
//!
//! let sess = trace::Session::begin(trace::Mode::Count);
//! let a: Vec<u8> = (0..64).collect();
//! let mut out = vec![0u8; 64];
//! let w = Width::W128;
//! let mut off = 0;
//! while off < a.len() {
//!     let v = Vreg::<u8>::load(w, &a, off);
//!     let doubled = v.sat_add(v);
//!     doubled.store(&mut out, off);
//!     off += w.lanes::<u8>();
//! }
//! let data = sess.finish();
//! assert_eq!(data.class_count(trace::Class::VLoad), 4);
//! assert_eq!(out[10], 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod elem;
pub mod scalar;
pub mod trace;
pub mod vreg;
pub mod width;

pub use elem::{Elem, Half};
pub use scalar::Tr;
pub use trace::{
    replay_chunked, replay_chunked_batches, session_width, stream_into, stream_into_at,
    BufferRegistry, ChunkedSummary, Class, CodecError, DecodedBatch, EncodedTrace, HashSink, Mode,
    Op, RecordSink, Session, SpillSink, TeeRecord, TraceData, TraceInstr, TraceSink, VecSink,
};
pub use vreg::Vreg;
pub use width::Width;
