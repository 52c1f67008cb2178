//! Suite-level measurement campaign: plan → execute → aggregate.
//!
//! [`plan`] expands a kernel inventory into the paper's full scenario
//! matrix — 59 kernels × {Scalar, Auto, Neon} × vector widths ×
//! {Prime, Gold, Silver, Figure 5(b) sweep} — as a flat, canonically
//! ordered list of [`Scenario`] descriptors. The one executor,
//! [`Campaign::execute`], shards *scenarios* across `std::thread`
//! workers: scenarios sharing one instruction stream (same kernel,
//! implementation, width — [`Scenario::stream_id`]) are measured from
//! a *single* functional execution, recorded through the trace codec
//! while it warms the members' core models, then replayed once, timed,
//! into those models, so the shard unit is a stream group, far finer
//! than a whole kernel. Members whose cores differ only in clock and
//! energy ([`swan_uarch::CoreConfig::same_timing`]: Gold and the
//! Figure 5(b) `4W-2V` baseline against Prime) share one model. An
//! Auto group whose kernel declares that its Auto build runs the
//! Scalar or Neon code ([`KernelMeta::auto_stream`]) is a second
//! group of an identical stream: when its twin group is measured by
//! the same call, it copies the twin's measurements instead of
//! executing. So the emulator runs each distinct stream only once per
//! call. [`aggregate`] folds per-scenario [`Measurement`]s back into
//! [`KernelResults`]/[`SuiteResults`], so every `report::fig*/tab*`
//! generator consumes the same shapes as before.
//!
//! Per-scenario results depend only on the scenario itself (the tracer
//! is thread-local, addresses are virtualized), so serial, sharded,
//! store-backed, journaled and plan-permuted executions are
//! bit-identical — enforced by `tests/streaming_equivalence.rs`.

use crate::checkpoint::CampaignJournal;
use crate::kernel::{Impl, Kernel, KernelMeta, Scale};
use crate::report::{KernelResults, SuiteResults, FIG5_KERNELS};
use crate::runner::{
    measure_warmed, record_warmed, width_factor, GroupCores, GroupRecording, Measurement,
};
use crate::scenario::Scenario;
use crate::tracestore::TraceStore;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use swan_simd::Width;
use swan_uarch::{CoreConfig, CoreId};

/// Run `work(i)` for `i in 0..n` across up to `workers` scoped
/// threads (1 = inline on the caller), returning the results in index
/// order. Workers pull indices from a shared counter, so shard
/// assignment is dynamic but the output order is deterministic.
/// `work` must not panic (wrap fallible work in `catch_unwind`); a
/// panicking closure would poison the slot mutex and abort the scope.
/// The one worker pool of the crate: campaign groups and the Figure 6
/// sweep points both run on it.
pub(crate) fn shard_indexed<T: Send>(
    n: usize,
    workers: usize,
    work: impl Fn(usize) -> T + Send + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(work).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = work(i);
                slots.lock().expect("shard worker panicked")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("shard worker panicked")
        .into_iter()
        .map(|r| r.expect("every index processed"))
        .collect()
}

// =====================================================================
// Plan
// =====================================================================

/// Whether a kernel is one of the paper's eight Figure 5
/// representatives (which additionally sweep widths and core configs).
fn is_fig5_representative(meta: &KernelMeta) -> bool {
    FIG5_KERNELS
        .iter()
        .any(|&(l, n)| meta.library.info().symbol == l && meta.name == n)
}

/// Expand the paper's matrix for one kernel, in canonical order:
/// Scalar@128 on the three Figure 4 cores, Auto@128 on Prime,
/// Neon@128 on the three cores, then (representatives only) Neon@128
/// across the Figure 5(b) sweep and Neon at the wider widths on Prime.
fn plan_kernel(kernel: usize, meta: &KernelMeta, scale: Scale, seed: u64) -> Vec<Scenario> {
    let kernel_id = meta.id();
    let mut out = Vec::new();
    let mut push = |imp: Impl, width: Width, core: CoreId| {
        out.push(Scenario {
            kernel,
            kernel_id: kernel_id.clone(),
            imp,
            width,
            core,
            scale,
            seed,
        });
    };
    for core in CoreId::BASE {
        push(Impl::Scalar, Width::W128, core);
    }
    push(Impl::Auto, Width::W128, CoreId::Prime);
    for core in CoreId::BASE {
        push(Impl::Neon, Width::W128, core);
    }
    if is_fig5_representative(meta) {
        for core in CoreId::FIG5B {
            push(Impl::Neon, Width::W128, core);
        }
        for width in [Width::W256, Width::W512, Width::W1024] {
            push(Impl::Neon, width, CoreId::Prime);
        }
    }
    out
}

/// Expand a kernel inventory into the paper's complete scenario
/// matrix, flat and canonically ordered (kernels in inventory order,
/// each kernel's scenarios in `plan_kernel` order). The plan is a
/// pure function of the inventory, scale, and seed — deterministic and
/// duplicate-free (`crates/core/tests/plan_properties.rs`).
pub fn plan(kernels: &[Box<dyn Kernel>], scale: Scale, seed: u64) -> Vec<Scenario> {
    kernels
        .iter()
        .enumerate()
        .flat_map(|(i, k)| plan_kernel(i, &k.meta(), scale, seed))
        .collect()
}

// =====================================================================
// Execute
// =====================================================================

/// Partition a plan into execution groups: scenarios sharing one
/// instruction stream (`Scenario::stream_key`), grouped in order of
/// first appearance, each group's members in plan order. One group is
/// the unit of work a campaign worker executes (one recorded
/// execution replayed to the group's cores) — and the unit the
/// checkpoint journal persists and the campaign server deduplicates,
/// which is why the grouping itself is public API: anything that
/// schedules, caches, or subscribes to campaign work at group
/// granularity must agree on these exact index sets.
pub fn execution_groups(plan: &[Scenario]) -> Vec<Vec<usize>> {
    let mut order: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<(usize, Impl, Width, u64, u64), usize> = HashMap::new();
    for (i, sc) in plan.iter().enumerate() {
        match by_key.entry(sc.stream_key()) {
            std::collections::hash_map::Entry::Occupied(e) => order[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(order.len());
                order.push(vec![i]);
            }
        }
    }
    order
}

fn group_progress(plan: &[Scenario], group: &[usize]) -> String {
    let sc = &plan[group[0]];
    format!(
        "measuring {} [{} core{}]",
        sc.stream_id(),
        group.len(),
        if group.len() == 1 { "" } else { "s" }
    )
}

/// Scatter per-group results back into plan order. An empty member
/// list for a group (a failed group) leaves that group's plan slots
/// `None`; otherwise every slot is filled exactly once by its group.
pub(crate) fn scatter_groups<T>(
    plan_len: usize,
    groups: &[Vec<usize>],
    per_group: Vec<Vec<T>>,
) -> Vec<Option<T>> {
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(plan_len).collect();
    for (group, items) in groups.iter().zip(per_group) {
        for (&i, item) in group.iter().zip(items) {
            out[i] = Some(item);
        }
    }
    out
}

/// How a plan is executed: the only settable values of the one
/// executor, [`Campaign::execute`]. `Campaign::default()` is a serial
/// run with no trace store, no journal and no shard.
#[derive(Clone, Copy, Debug, Default)]
pub struct Campaign<'a> {
    /// Worker threads scenario groups are sharded across (0 and 1
    /// both run serially on the calling thread).
    pub threads: usize,
    /// Persistent trace store consulted before each group's functional
    /// execution: a verified hit replays from disk with no execution, a
    /// miss records into the store for every later run. Cold-store,
    /// warm-store and store-disabled runs are bit-identical.
    pub store: Option<&'a TraceStore>,
    /// Checkpoint journal: groups it already holds are loaded instead
    /// of simulated, and every executed group is persisted the moment
    /// it completes, so a kill at any instant loses at most the groups
    /// in flight. Write failures are logged, never fatal.
    pub journal: Option<&'a CampaignJournal>,
    /// `Some((i, of))` simulates only the groups whose *canonical*
    /// group index `g` satisfies `g % of == i`; the rest are skipped.
    /// Indexing by canonical group — not by position in the remaining
    /// work — keeps worker shards disjoint and jointly complete even
    /// when workers start at different times against a partially
    /// filled journal.
    pub shard: Option<(usize, usize)>,
}

/// Outcome of [`Campaign::execute`]: plan-order measurements plus the
/// resume/shard accounting.
#[derive(Debug)]
pub struct CampaignRun {
    /// One slot per plan scenario; `Some` for every scenario whose
    /// group was resumed from the journal or executed by this run,
    /// `None` for failed groups and groups left to other shards.
    pub measurements: Vec<Option<Measurement>>,
    /// One failure per group whose measurement panicked.
    pub failures: Vec<KernelFailure>,
    /// Total scenario groups in the plan.
    pub total_groups: usize,
    /// Groups loaded from the journal (zero functional re-executions).
    pub resumed_groups: usize,
    /// Groups measured by this run, including the twinned ones.
    pub executed_groups: usize,
    /// Of `executed_groups`, the Auto groups measured from their twin
    /// (see [`Campaign::execute`]) without an execution of their own.
    pub twinned_groups: usize,
    /// Member scenarios of the groups this run drove that were
    /// measured from another member's timing-equivalent core model
    /// ([`swan_uarch::CoreConfig::same_timing`]) instead of their own.
    pub shared_cores: usize,
    /// Groups left to other workers' shards.
    pub skipped_groups: usize,
}

impl CampaignRun {
    /// The plan-order measurements of a run that measured every
    /// scenario.
    ///
    /// # Panics
    ///
    /// Panics naming every failed group if any group failed, or if a
    /// shard left scenarios unmeasured.
    pub fn complete(self) -> Vec<Measurement> {
        assert!(
            self.failures.is_empty(),
            "{}",
            failure_summary("campaign groups", &self.failures)
        );
        self.measurements
            .into_iter()
            .map(|m| m.expect("no failures and no shard, so every scenario measured"))
            .collect()
    }
}

impl Campaign<'_> {
    /// Execute every scenario of `plan`, returning one slot per
    /// scenario in plan order. Each group not resumed from the journal
    /// or left to another shard is recorded once while it warms one core
    /// model per distinct timing among its members, then replayed once,
    /// timed, into those models (see [`crate::runner`]) — unless it is
    /// an Auto group whose twin this call also measures. Members whose
    /// cores share their timing ([`swan_uarch::CoreConfig::same_timing`])
    /// take one model's cycles and statistics with their own `seconds`
    /// and energy, counted in [`CampaignRun::shared_cores`]. A kernel
    /// whose Auto build runs the code of another implementation
    /// declares it ([`KernelMeta::auto_stream`]); its Auto@128 stream
    /// is then byte-identical to that twin's 128-bit stream, and the
    /// width factor is 1.0 for both, so each member of the Auto group
    /// copies the twin group's [`Measurement`] for the same core. That holds
    /// when the twin group (same kernel, scale and seed) covers every
    /// member core and is executed or resumed by this call; otherwise,
    /// as in an `impl=auto`-only plan or a shard without the twin, the
    /// Auto group runs its own stream. So every distinct stream
    /// executes once. A twinned group is journaled like an executed
    /// one, and fails, naming its twin, when its twin fails.
    ///
    /// A panicking group becomes one [`KernelFailure`] and never
    /// poisons its siblings. Results are bit-identical for every thread
    /// count, store state, journal state and plan order. `progress`
    /// receives one status line per group that executes, from whichever
    /// worker picks it up.
    pub fn execute(
        &self,
        kernels: &[Box<dyn Kernel>],
        plan: &[Scenario],
        progress: impl Fn(&str) + Sync,
    ) -> CampaignRun {
        if let Some((i, of)) = self.shard {
            assert!(of > 0 && i < of, "worker shard must be i/of with i < of");
        }
        let groups = execution_groups(plan);
        let mut per_group: Vec<Vec<Measurement>> = vec![Vec::new(); groups.len()];
        let mut work: Vec<usize> = Vec::new();
        let mut resumed_groups = 0usize;
        let mut skipped_groups = 0usize;
        for (gi, group) in groups.iter().enumerate() {
            if let Some(ms) = self.journal.and_then(|j| j.load_group(plan, group)) {
                per_group[gi] = ms;
                resumed_groups += 1;
            } else if self.shard.is_none_or(|(i, of)| gi % of == i) {
                work.push(gi);
            } else {
                skipped_groups += 1;
            }
        }
        let twin = auto_twins(kernels, plan, &groups, &work, &per_group);
        let driven: Vec<usize> = work
            .iter()
            .copied()
            .filter(|&gi| twin[gi].is_none())
            .collect();
        let driven_groups: Vec<&[usize]> = driven.iter().map(|&gi| groups[gi].as_slice()).collect();
        let shared_cores = AtomicUsize::new(0);
        let results = drive_groups(
            kernels,
            plan,
            &driven_groups,
            self.threads,
            self.store,
            &progress,
            |rec, cores, group| {
                let sc = &plan[group[0]];
                let shared = cores.shared();
                let ms = measure_warmed(rec, cores, width_factor(sc.imp, sc.width));
                self.journal_group(plan, group, &ms);
                shared_cores.fetch_add(shared, Ordering::Relaxed);
                ms
            },
        );
        let mut failed: Vec<Option<KernelFailure>> = vec![None; groups.len()];
        for (&gi, r) in driven.iter().zip(results) {
            match r {
                Ok(ms) => per_group[gi] = ms,
                Err(f) => failed[gi] = Some(f),
            }
        }
        let mut twinned_groups = 0usize;
        for &gi in &work {
            let Some(tg) = twin[gi] else { continue };
            let sc = &plan[groups[gi][0]];
            if let Some(f) = &failed[tg] {
                failed[gi] = Some(KernelFailure {
                    id: sc.kernel_id.clone(),
                    message: format!(
                        "{}: measured from its twin {}, which failed: {}",
                        sc.stream_id(),
                        plan[groups[tg][0]].stream_id(),
                        f.message
                    ),
                });
                continue;
            }
            let ms: Vec<Measurement> = groups[gi]
                .iter()
                .map(|&i| {
                    let at = groups[tg]
                        .iter()
                        .position(|&j| plan[j].core == plan[i].core)
                        .expect("a twin covers every member core");
                    per_group[tg][at].clone()
                })
                .collect();
            self.journal_group(plan, &groups[gi], &ms);
            per_group[gi] = ms;
            twinned_groups += 1;
        }
        let failures: Vec<KernelFailure> =
            work.iter().filter_map(|&gi| failed[gi].take()).collect();
        CampaignRun {
            measurements: scatter_groups(plan.len(), &groups, per_group),
            total_groups: groups.len(),
            resumed_groups,
            executed_groups: work.len() - failures.len(),
            twinned_groups,
            shared_cores: shared_cores.into_inner(),
            skipped_groups,
            failures,
        }
    }

    /// Persist one measured group in the journal, if there is one.
    /// A write failure is logged, never fatal.
    fn journal_group(&self, plan: &[Scenario], group: &[usize], ms: &[Measurement]) {
        if let Some(journal) = self.journal {
            if let Err(e) = journal.record_group(plan, group, ms) {
                eprintln!(
                    "checkpoint: cannot journal {} ({e}); the group's \
                     result is kept but will re-simulate after a restart",
                    plan[group[0]].stream_id()
                );
            }
        }
    }
}

/// For each group, the group it copies its measurements from instead
/// of executing: `Some(twin)` for a `work` group that runs a kernel's
/// Auto@128 stream when the kernel declares the implementation Auto
/// runs ([`KernelMeta::auto_stream`]) and that implementation's W128
/// group, at the same scale and seed, is also in `work` or already
/// measured in `per_group` (resumed) and covers every member core.
fn auto_twins(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    groups: &[Vec<usize>],
    work: &[usize],
    per_group: &[Vec<Measurement>],
) -> Vec<Option<usize>> {
    let resumed = (0..groups.len()).filter(|&gi| !per_group[gi].is_empty());
    let measured: HashMap<_, usize> = resumed
        .chain(work.iter().copied())
        .map(|gi| (plan[groups[gi][0]].stream_key(), gi))
        .collect();
    let mut twin = vec![None; groups.len()];
    for &gi in work {
        let sc = &plan[groups[gi][0]];
        if sc.imp != Impl::Auto || sc.width != Width::W128 {
            continue;
        }
        let declared = kernels[sc.kernel].meta().auto_stream;
        let Some(imp) = declared.filter(|&imp| imp != Impl::Auto) else {
            continue;
        };
        let key = Scenario { imp, ..sc.clone() }.stream_key();
        twin[gi] = measured.get(&key).copied().filter(|&tg| {
            groups[gi]
                .iter()
                .all(|&i| groups[tg].iter().any(|&j| plan[j].core == plan[i].core))
        });
    }
    twin
}

/// The group driver shared by [`Campaign::execute`] and
/// [`crate::golden::collect`]: for each group of `work`, sharded across
/// `threads` workers, report progress, obtain the group's recording
/// (consulting `store`) together with the members' core models (one
/// per distinct timing, see [`crate::runner`]), warmed on its stream,
/// and hand both to `body`, which runs the timed pass.
/// A panic anywhere in a group becomes a [`KernelFailure`] naming the
/// group's stream (shard workers must not panic). Results come back in
/// `work` order.
pub(crate) fn drive_groups<T: Send>(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    work: &[&[usize]],
    threads: usize,
    store: Option<&TraceStore>,
    progress: &(dyn Fn(&str) + Sync),
    body: impl Fn(GroupRecording, GroupCores, &[usize]) -> Vec<T> + Sync,
) -> Vec<Result<Vec<T>, KernelFailure>> {
    shard_indexed(work.len(), threads, |wi| {
        let group = work[wi];
        let sc = &plan[group[0]];
        progress(&group_progress(plan, group));
        catch_unwind(AssertUnwindSafe(|| {
            let kernel = kernels[sc.kernel].as_ref();
            let cfgs: Vec<CoreConfig> = group.iter().map(|&i| plan[i].core.config()).collect();
            let (rec, cores) =
                record_warmed(kernel, sc.imp, sc.width, sc.scale, sc.seed, store, &cfgs);
            body(rec, cores, group)
        }))
        .map_err(|p| KernelFailure {
            id: sc.kernel_id.clone(),
            message: format!("{}: {}", sc.stream_id(), panic_message(&*p)),
        })
    })
}

/// The text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The panic message of a form that promises a complete result
/// ([`CampaignRun::complete`], [`crate::report::fig6`]) but got
/// `failures`: one entry per failure, naming it.
pub(crate) fn failure_summary(what: &str, failures: &[KernelFailure]) -> String {
    let named: Vec<String> = failures
        .iter()
        .map(|f| format!("{}: {}", f.id, f.message))
        .collect();
    format!("{what} panicked: {named:?}")
}

// =====================================================================
// Aggregate
// =====================================================================

/// Fold one kernel's per-scenario measurements back into the
/// [`KernelResults`] shape the report generators consume. `None` when
/// any required scenario is missing from the plan or unmeasured (a
/// failed group, or a filtered subset plan).
fn aggregate_kernel(
    meta: KernelMeta,
    plan: &[Scenario],
    measurements: &[Option<Measurement>],
    indices: &[usize],
) -> Option<KernelResults> {
    let find = |imp: Impl, width: Width, core: CoreId| -> Option<Measurement> {
        indices
            .iter()
            .find(|&&i| {
                let sc = &plan[i];
                sc.imp == imp && sc.width == width && sc.core == core
            })
            .and_then(|&i| measurements[i].clone())
    };
    let neon = find(Impl::Neon, Width::W128, CoreId::Prime)?;
    let widths = if is_fig5_representative(&meta) {
        Some([
            neon.clone(),
            find(Impl::Neon, Width::W256, CoreId::Prime)?,
            find(Impl::Neon, Width::W512, CoreId::Prime)?,
            find(Impl::Neon, Width::W1024, CoreId::Prime)?,
        ])
    } else {
        None
    };
    let sweep = if is_fig5_representative(&meta) {
        let mut s = Vec::with_capacity(6);
        for core in CoreId::FIG5B {
            s.push(find(Impl::Neon, Width::W128, core)?);
        }
        Some(<[Measurement; 6]>::try_from(s).expect("6 sweep configs"))
    } else {
        None
    };
    Some(KernelResults {
        scalar: find(Impl::Scalar, Width::W128, CoreId::Prime)?,
        auto: find(Impl::Auto, Width::W128, CoreId::Prime)?,
        scalar_gold: find(Impl::Scalar, Width::W128, CoreId::Gold)?,
        neon_gold: find(Impl::Neon, Width::W128, CoreId::Gold)?,
        scalar_silver: find(Impl::Scalar, Width::W128, CoreId::Silver)?,
        neon_silver: find(Impl::Neon, Width::W128, CoreId::Silver)?,
        neon,
        widths,
        sweep,
        meta,
    })
}

/// Fold per-scenario measurements back into [`SuiteResults`]: one
/// [`KernelResults`] per inventory kernel whose matrix is complete, in
/// inventory order. Kernels with missing or unmeasured scenarios
/// (failed groups, filtered subset plans) are skipped.
pub fn aggregate(
    kernels: &[Box<dyn Kernel>],
    plan: &[Scenario],
    measurements: &[Option<Measurement>],
    scale: Scale,
) -> SuiteResults {
    assert_eq!(plan.len(), measurements.len());
    let mut by_kernel: Vec<Vec<usize>> = vec![Vec::new(); kernels.len()];
    for (i, sc) in plan.iter().enumerate() {
        by_kernel[sc.kernel].push(i);
    }
    let out = kernels
        .iter()
        .enumerate()
        .filter_map(|(ki, k)| aggregate_kernel(k.meta(), plan, measurements, &by_kernel[ki]))
        .collect();
    SuiteResults {
        kernels: out,
        scale,
    }
}

/// A kernel whose measurement panicked during a campaign.
#[derive(Clone, Debug)]
pub struct KernelFailure {
    /// `LIB.kernel` identifier of the failed kernel.
    pub id: String,
    /// The panic payload, stringified (prefixed with the panicking
    /// scenario stream's id).
    pub message: String,
}
