//! # swan-core — benchmark harness for the Swan suite
//!
//! Defines the [`Kernel`] abstraction the 59 Swan kernels implement,
//! the measurement [`runner`] that records a kernel's instruction
//! stream once and replays it into the `swan-uarch` timing models, the
//! [`campaign`] module that expands the paper's measurement matrix
//! into a flat [`Scenario`] plan and executes it through one
//! [`Campaign::execute`] (sharded across threads at scenario-group
//! granularity, optionally store-backed, journaled or sharded across
//! processes), and the [`report`]
//! generators that regenerate every table and figure of the paper
//! from a kernel inventory.
//!
//! Operational layers ride along: the [`tracestore`] caches recorded
//! instruction streams on disk, the [`checkpoint`] journal makes
//! campaigns crash-safe and shardable, the [`perf`] probe measures
//! the replay engine itself, and the [`profile`] module attributes a
//! run's wall clock across pipeline phases with zero steady-state
//! allocation and bit-identical results profiling on or off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod checkpoint;
pub mod golden;
pub mod kernel;
pub mod perf;
pub mod profile;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod tracestore;

pub use campaign::{aggregate, execution_groups, plan, Campaign, CampaignRun, KernelFailure};
pub use checkpoint::{
    group_key_string, CampaignJournal, JournalStats, Resume, CHECKPOINT_FORMAT_VERSION,
};
pub use golden::GoldenEntry;
pub use kernel::{
    AutoObstacle, AutoOutcome, Impl, Kernel, KernelMeta, Library, Pattern, Runnable, Scale, VsNeon,
};
pub use perf::{find, gate, parse_bench_json, probe, BenchRow, GateOutcome, PerfReport};
pub use profile::{Phase, PhaseSample, ProfileReport, ProfileScope};
pub use runner::{
    measure, measure_recorded, record, record_group, verify_kernel, GroupRecording, Measurement,
    WarmingSink,
};
pub use scenario::{filter_plan, Scenario, ScenarioFilter};
pub use tracestore::{inventory_digest, StoreStats, TraceStore};
