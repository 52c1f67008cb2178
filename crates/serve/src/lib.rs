//! # swan-serve — campaign-as-a-service
//!
//! A long-running daemon that answers scenario-subset queries over the
//! Swan campaign matrix. Requests are [`swan_core::ScenarioFilter`]
//! strings (the `swan-report --only` syntax) arriving one per line;
//! each expands through the same `plan → execution_groups` path the
//! batch runner uses and is answered from three tiers:
//!
//! 1. a bounded in-memory [`ResultCache`] keyed exactly like the
//!    checkpoint journal ([`swan_core::group_key_string`]),
//! 2. the persistent trace store (warm replay skips functional
//!    re-execution but re-simulates, so results stay bit-identical),
//! 3. fresh execution on a bounded work queue drained by a fixed
//!    worker pool.
//!
//! Concurrent requests that overlap on a scenario group *deduplicate*:
//! the first resolver enqueues the group, later resolvers subscribe to
//! the same in-flight cell, and all of them receive the one result.
//! The cardinal invariant is byte-identity — every row a query streams
//! back is rendered by [`swan_core::report::scenario_row`], the same
//! formatter `swan-report --only` uses, so served output diffs clean
//! against a batch run of the same filter regardless of tier, arrival
//! order, or concurrency.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod protocol;
mod queue;

pub use cache::{CacheStats, ResultCache};
pub use protocol::{parse_request, parse_spec, Request};
pub use queue::{BoundedQueue, Gate};

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use std::time::Instant;

use swan_core::profile::{Phase, ProfileScope};
use swan_core::report::{scenario_row, scenario_row_header};
use swan_core::{
    execution_groups, filter_plan, group_key_string, inventory_digest, plan, Campaign, Kernel,
    Measurement, Scale, Scenario, ScenarioFilter, TraceStore,
};

/// Which answer tier satisfied one scenario group of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Answered from the in-memory result cache.
    Cache,
    /// Joined another request's in-flight execution of the same group.
    Shared,
    /// This request enqueued the group for execution (the worker may
    /// still replay functionally from the trace store — tier 2 — but
    /// simulation ran on this request's behalf).
    Fresh,
}

impl Tier {
    /// Lowercase protocol name of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Cache => "cache",
            Tier::Shared => "shared",
            Tier::Fresh => "fresh",
        }
    }
}

/// Construction parameters of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Input-size scale the served plan is built at.
    pub scale: Scale,
    /// Campaign seed the served plan is built with.
    pub seed: u64,
    /// Worker threads draining the execution queue.
    pub workers: usize,
    /// Capacity of the execution queue; resolvers pushing past it
    /// block (backpressure) rather than queueing unboundedly.
    pub queue_cap: usize,
    /// Maximum scenario-group results the cache retains.
    pub cache_groups: usize,
    /// Maximum request handlers running concurrently in
    /// [`Server::serve_lines`].
    pub max_requests: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            scale: Scale::quick(),
            seed: 42,
            workers: 2,
            queue_cap: 256,
            cache_groups: 4096,
            max_requests: 32,
        }
    }
}

/// What one completed group resolves to: its measurements in group
/// order, or the first failure message.
type GroupOutcome = Result<Arc<Vec<Measurement>>, String>;

/// The rendezvous between the one worker executing a group and every
/// request waiting on it.
#[derive(Debug, Default)]
struct GroupCell {
    outcome: Mutex<Option<GroupOutcome>>,
    done: Condvar,
}

impl GroupCell {
    fn complete(&self, outcome: GroupOutcome) {
        let mut slot = self.outcome.lock().expect("cell poisoned");
        *slot = Some(outcome);
        self.done.notify_all();
    }

    fn wait(&self) -> GroupOutcome {
        let mut slot = self.outcome.lock().expect("cell poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.done.wait(slot).expect("cell poisoned");
        }
    }
}

/// One unit of queued work: a scenario group to execute, the cache key
/// identifying it, and the cell its waiters watch.
struct GroupJob {
    key: String,
    scenarios: Vec<Scenario>,
    cell: Arc<GroupCell>,
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    rows: AtomicU64,
    groups: AtomicU64,
    cache_groups: AtomicU64,
    shared_groups: AtomicU64,
    fresh_groups: AtomicU64,
    failed_groups: AtomicU64,
    // Cumulative wall nanoseconds requests spent obtaining group
    // results, per answer tier — the daemon's per-tier latency
    // accounting (always on: one clock pair per group is noise next
    // to the result it waits for). Failed groups charge the tier that
    // arbitrated them.
    cache_wait_ns: AtomicU64,
    shared_wait_ns: AtomicU64,
    fresh_wait_ns: AtomicU64,
}

struct Inner {
    kernels: Vec<Box<dyn Kernel>>,
    plan: Vec<Scenario>,
    scale: Scale,
    seed: u64,
    inventory: u64,
    store: Option<Arc<TraceStore>>,
    queue: BoundedQueue<GroupJob>,
    inflight: Mutex<HashMap<String, Arc<GroupCell>>>,
    cache: ResultCache,
    counters: Counters,
}

/// How a request obtains one group's result after arbitration.
enum Ticket {
    /// The cache already held it.
    Ready(Arc<Vec<Measurement>>),
    /// Wait on an in-flight (shared or freshly enqueued) execution.
    Wait(Arc<GroupCell>),
}

/// Per-request outcome summary of [`Server::query_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Scenarios the filter union selected.
    pub scenarios: usize,
    /// Execution groups those scenarios collapse into.
    pub groups: usize,
    /// Groups answered from the result cache.
    pub cached: usize,
    /// Groups joined from another request's in-flight execution.
    pub shared: usize,
    /// Groups this request enqueued for execution.
    pub fresh: usize,
    /// Groups whose execution failed.
    pub failures: usize,
}

/// Everything [`Server::query`] returns once a request completes.
#[derive(Clone, Debug)]
pub struct QueryReply {
    /// The selected scenarios, in plan order.
    pub plan: Vec<Scenario>,
    /// One measurement per selected scenario (plan order); `None` for
    /// scenarios in a failed group.
    pub measurements: Vec<Option<Measurement>>,
    /// Tier and failure accounting for the request.
    pub stats: QueryStats,
    /// `stream_id: message` for each failed group.
    pub failures: Vec<String>,
}

/// One event streamed back while a query resolves, in plan-group
/// order. Lifetimes borrow from the query's selected plan and the
/// group's (possibly shared) measurement allocation.
#[derive(Debug)]
pub enum QueryEvent<'a> {
    /// The request parsed and matched; resolution is starting.
    Begin {
        /// Scenarios the filter union selected.
        scenarios: usize,
        /// Execution groups those scenarios collapse into.
        groups: usize,
    },
    /// One group completed: its scenarios paired with their
    /// measurements, in group order.
    Group {
        /// Shared instruction-stream id of the group.
        stream_id: String,
        /// Which tier answered it for this request.
        tier: Tier,
        /// `(scenario, measurement)` pairs, group order.
        rows: &'a [(&'a Scenario, &'a Measurement)],
    },
    /// One group's execution failed; its scenarios have no rows.
    GroupFailed {
        /// Shared instruction-stream id of the group.
        stream_id: String,
        /// Kernel id and panic payload of the first failure.
        message: String,
    },
}

/// The campaign server: a fixed worker pool, a bounded execution
/// queue, an in-flight dedup registry, and a bounded result cache over
/// one kernel inventory's scenario plan.
///
/// Dropping the server closes the queue and joins the workers;
/// already-accepted work drains first so no waiter hangs.
pub struct Server {
    inner: Arc<Inner>,
    config: ServerConfig,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.config)
            .field("plan_len", &self.inner.plan.len())
            .field("store", &self.inner.store.is_some())
            .finish()
    }
}

impl Server {
    /// Build the scenario plan for `kernels` at the configured scale
    /// and seed, then start the worker pool. `store` enables the warm
    /// trace-replay tier for every execution the workers run.
    pub fn new(
        kernels: Vec<Box<dyn Kernel>>,
        store: Option<Arc<TraceStore>>,
        config: ServerConfig,
    ) -> Server {
        let plan = plan(&kernels, config.scale, config.seed);
        let inventory = inventory_digest(&kernels);
        let inner = Arc::new(Inner {
            kernels,
            plan,
            scale: config.scale,
            seed: config.seed,
            inventory,
            store,
            queue: BoundedQueue::new(config.queue_cap),
            inflight: Mutex::new(HashMap::new()),
            cache: ResultCache::new(config.cache_groups),
            counters: Counters::default(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("swan-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            inner,
            config,
            workers,
        }
    }

    /// The server's construction parameters.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of scenarios in the full served plan.
    pub fn plan_len(&self) -> usize {
        self.inner.plan.len()
    }

    /// Number of execution groups in the full served plan.
    pub fn total_groups(&self) -> usize {
        execution_groups(&self.inner.plan).len()
    }

    /// Resolve a filter union, streaming [`QueryEvent`]s to `sink` in
    /// plan-group order as groups complete. All groups are arbitrated
    /// (cache / join / enqueue) up front so misses execute
    /// concurrently; emission is then head-of-line ordered, which is
    /// what makes streamed output byte-comparable to a batch run.
    pub fn query_with(
        &self,
        filters: &[ScenarioFilter],
        mut sink: impl FnMut(QueryEvent<'_>),
    ) -> Result<QueryReply, String> {
        let inner = &self.inner;
        let selected = filter_plan(&inner.plan, filters);
        if selected.is_empty() {
            inner.counters.errors.fetch_add(1, Ordering::Relaxed);
            return Err("filters match no scenarios (try `swan-report --list-scenarios`)".into());
        }
        let groups = execution_groups(&selected);
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        inner
            .counters
            .groups
            .fetch_add(groups.len() as u64, Ordering::Relaxed);
        sink(QueryEvent::Begin {
            scenarios: selected.len(),
            groups: groups.len(),
        });

        let tickets: Vec<(Ticket, Tier)> = groups
            .iter()
            .map(|group| {
                let key =
                    group_key_string(&selected, group, inner.scale, inner.seed, inner.inventory);
                self.resolve(key, &selected, group)
            })
            .collect();

        let mut stats = QueryStats {
            scenarios: selected.len(),
            groups: groups.len(),
            ..QueryStats::default()
        };
        let mut measurements: Vec<Option<Measurement>> = vec![None; selected.len()];
        let mut failures = Vec::new();
        for (group, (ticket, tier)) in groups.iter().zip(tickets) {
            let stream_id = selected[group[0]].stream_id();
            match tier {
                Tier::Cache => stats.cached += 1,
                Tier::Shared => stats.shared += 1,
                Tier::Fresh => stats.fresh += 1,
            }
            // Per-tier latency: how long this request waited for the
            // group's result, charged to the tier that answered it —
            // also mirrored into the campaign profile layer when
            // `swan_core::profile` is enabled.
            let (phase, wait_slot) = match tier {
                Tier::Cache => (Phase::ServeCache, &inner.counters.cache_wait_ns),
                Tier::Shared => (Phase::ServeShared, &inner.counters.shared_wait_ns),
                Tier::Fresh => (Phase::ServeFresh, &inner.counters.fresh_wait_ns),
            };
            let waited = Instant::now();
            let outcome = {
                let _span = ProfileScope::enter(phase);
                match ticket {
                    Ticket::Ready(ms) => Ok(ms),
                    Ticket::Wait(cell) => cell.wait(),
                }
            };
            wait_slot.fetch_add(waited.elapsed().as_nanos() as u64, Ordering::Relaxed);
            match outcome {
                Ok(ms) => {
                    debug_assert_eq!(ms.len(), group.len(), "group result arity");
                    let rows: Vec<(&Scenario, &Measurement)> = group
                        .iter()
                        .zip(ms.iter())
                        .map(|(&i, m)| (&selected[i], m))
                        .collect();
                    sink(QueryEvent::Group {
                        stream_id,
                        tier,
                        rows: &rows,
                    });
                    inner
                        .counters
                        .rows
                        .fetch_add(group.len() as u64, Ordering::Relaxed);
                    for (&i, m) in group.iter().zip(ms.iter()) {
                        measurements[i] = Some(m.clone());
                    }
                }
                Err(message) => {
                    stats.failures += 1;
                    failures.push(format!("{stream_id}: {message}"));
                    sink(QueryEvent::GroupFailed { stream_id, message });
                }
            }
        }
        let c = &inner.counters;
        c.cache_groups
            .fetch_add(stats.cached as u64, Ordering::Relaxed);
        c.shared_groups
            .fetch_add(stats.shared as u64, Ordering::Relaxed);
        c.fresh_groups
            .fetch_add(stats.fresh as u64, Ordering::Relaxed);
        c.failed_groups
            .fetch_add(stats.failures as u64, Ordering::Relaxed);
        Ok(QueryReply {
            plan: selected,
            measurements,
            stats,
            failures,
        })
    }

    /// Resolve a filter union and collect the reply (no streaming).
    pub fn query(&self, filters: &[ScenarioFilter]) -> Result<QueryReply, String> {
        self.query_with(filters, |_| {})
    }

    /// Arbitrate one group under the in-flight lock: cache hit, join
    /// an in-flight cell, or register a new cell and enqueue the job.
    /// The arbitration order (cache, then in-flight, then create)
    /// together with the worker's completion order (cache insert
    /// *before* in-flight removal) guarantees a group never executes
    /// twice for overlapping requests. The queue push happens after
    /// the lock drops — it may block on backpressure, and workers need
    /// that same lock to complete.
    fn resolve(&self, key: String, selected: &[Scenario], group: &[usize]) -> (Ticket, Tier) {
        let inner = &self.inner;
        let mut job = None;
        let resolved = {
            let mut inflight = inner.inflight.lock().expect("inflight poisoned");
            if let Some(ms) = inner.cache.get(&key) {
                (Ticket::Ready(ms), Tier::Cache)
            } else if let Some(cell) = inflight.get(&key) {
                (Ticket::Wait(cell.clone()), Tier::Shared)
            } else {
                let cell = Arc::new(GroupCell::default());
                inflight.insert(key.clone(), cell.clone());
                job = Some(GroupJob {
                    key,
                    scenarios: group.iter().map(|&i| selected[i].clone()).collect(),
                    cell: cell.clone(),
                });
                (Ticket::Wait(cell), Tier::Fresh)
            }
        };
        if let Some(job) = job {
            let (key, cell) = (job.key.clone(), job.cell.clone());
            if !inner.queue.push(job) {
                inner
                    .inflight
                    .lock()
                    .expect("inflight poisoned")
                    .remove(&key);
                cell.complete(Err("server is shutting down".into()));
            }
        }
        resolved
    }

    /// Run a line-protocol session: read requests from `reader`, spawn
    /// a handler per query (at most `max_requests` concurrent), stream
    /// response lines to `writer`. Returns after `quit` or EOF, once
    /// every in-flight handler has finished, ending with one final
    /// `serve:` stats line. A line longer than [`MAX_REQUEST_LINE`] is
    /// answered with an `error` line (counted in `errors=`) and skipped.
    ///
    /// Response lines, all prefixed with the request id:
    ///
    /// ```text
    /// <id> begin scenarios=N groups=G
    /// <id> group <stream_id> tier=<cache|shared|fresh> scenarios=K
    /// <id> row <scenario row, byte-identical to `swan-report --only`>
    /// <id> end scenarios=N groups=G cache=A shared=B fresh=C failures=F
    /// <id> error <message>
    /// ```
    pub fn serve_lines(
        &self,
        mut reader: impl BufRead,
        writer: impl Write + Send,
    ) -> io::Result<()> {
        let out = Out {
            writer: Mutex::new(writer),
        };
        let gate = Gate::new(self.config.max_requests);
        let mut auto_id: u64 = 0;
        let mut read_err = None;
        std::thread::scope(|scope| {
            let mut buf = Vec::new();
            loop {
                let line = match read_request_line(&mut reader, &mut buf) {
                    Ok(Some(true)) => match std::str::from_utf8(&buf) {
                        Ok(line) => line,
                        Err(e) => {
                            read_err = Some(io::Error::new(io::ErrorKind::InvalidData, e));
                            break;
                        }
                    },
                    Ok(Some(false)) => {
                        auto_id += 1;
                        self.inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                        let _ = out.line(&format!(
                            "q{auto_id} error request line exceeds {MAX_REQUEST_LINE} bytes"
                        ));
                        continue;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        read_err = Some(e);
                        break;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                match parse_request(line) {
                    Request::Quit => break,
                    Request::Stats => {
                        let _ = out.line(&self.stats_line());
                    }
                    Request::Query { id, spec } => {
                        auto_id += 1;
                        let id = id.map_or_else(|| format!("q{auto_id}"), str::to_owned);
                        match parse_spec(spec) {
                            Ok(filters) => {
                                gate.acquire();
                                let (gate, out) = (&gate, &out);
                                scope.spawn(move || {
                                    self.handle_query(&id, &filters, out);
                                    gate.release();
                                });
                            }
                            Err(e) => {
                                self.inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                                let _ = out.line(&format!("{id} error {e}"));
                            }
                        }
                    }
                }
            }
        });
        out.line(&self.stats_line())?;
        match read_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn handle_query<W: Write>(&self, id: &str, filters: &[ScenarioFilter], out: &Out<W>) {
        let result = self.query_with(filters, |event| {
            let _ = match event {
                QueryEvent::Begin { scenarios, groups } => {
                    out.line(&format!("{id} begin scenarios={scenarios} groups={groups}"))
                }
                QueryEvent::Group {
                    stream_id,
                    tier,
                    rows,
                } => {
                    // One write per group keeps a group's lines
                    // contiguous under concurrent handlers.
                    let mut block = format!(
                        "{id} group {stream_id} tier={} scenarios={}\n",
                        tier.name(),
                        rows.len()
                    );
                    for (sc, m) in rows {
                        block.push_str(&format!("{id} row {}\n", scenario_row(sc, m)));
                    }
                    out.block(&block)
                }
                QueryEvent::GroupFailed { stream_id, message } => out.line(&format!(
                    "{id} group-failed {stream_id} {}",
                    message.replace('\n', " ")
                )),
            };
        });
        let _ = match result {
            Ok(reply) => out.line(&format!(
                "{id} end scenarios={} groups={} cache={} shared={} fresh={} failures={}",
                reply.stats.scenarios,
                reply.stats.groups,
                reply.stats.cached,
                reply.stats.shared,
                reply.stats.fresh,
                reply.stats.failures
            )),
            Err(e) => out.line(&format!("{id} error {e}")),
        };
    }

    /// One greppable `serve:` line of lifetime counters — requests,
    /// per-tier group counts, per-tier cumulative wait latency
    /// (`*_ns`), cache occupancy, queue peak, and trace store activity
    /// (zeros when no store is attached).
    pub fn stats_line(&self) -> String {
        let c = &self.inner.counters;
        let cs = self.inner.cache.stats();
        let (store_hits, store_misses) = self.inner.store.as_ref().map_or((0, 0), |s| {
            let st = s.stats();
            (st.hits, st.misses)
        });
        format!(
            "serve: requests={} errors={} rows={} groups={} cache_hits={} shared={} fresh={} \
             failed={} cache_ns={} shared_ns={} fresh_ns={} cache_entries={} cache_evictions={} \
             queue_peak={} store_hits={} store_misses={}",
            c.requests.load(Ordering::Relaxed),
            c.errors.load(Ordering::Relaxed),
            c.rows.load(Ordering::Relaxed),
            c.groups.load(Ordering::Relaxed),
            c.cache_groups.load(Ordering::Relaxed),
            c.shared_groups.load(Ordering::Relaxed),
            c.fresh_groups.load(Ordering::Relaxed),
            c.failed_groups.load(Ordering::Relaxed),
            c.cache_wait_ns.load(Ordering::Relaxed),
            c.shared_wait_ns.load(Ordering::Relaxed),
            c.fresh_wait_ns.load(Ordering::Relaxed),
            self.inner.cache.len(),
            cs.evictions,
            self.inner.queue.peak(),
            store_hits,
            store_misses,
        )
    }

    /// The header + rule lines batch `--only` output starts with —
    /// re-exported here so serve-side consumers can reconstruct the
    /// exact batch table from streamed rows.
    pub fn row_header() -> String {
        scenario_row_header()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.inner.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Execute queued groups until the queue closes and drains. Completion
/// order is load-bearing: cache insert, then in-flight removal, then
/// cell completion — so between arbitration and completion a group is
/// always findable in exactly one of cache or in-flight registry, and
/// never executes twice. The worker never holds the cache lock while
/// taking the in-flight lock or vice versa.
fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        let campaign = Campaign {
            store: inner.store.as_deref(),
            ..Campaign::default()
        };
        let run = campaign.execute(&inner.kernels, &job.scenarios, |_| {});
        let outcome: GroupOutcome = match run.failures.first() {
            Some(f) => Err(format!("{}: {}", f.id, f.message)),
            None => Ok(Arc::new(run.complete())),
        };
        if let Ok(ms) = &outcome {
            inner.cache.insert(job.key.clone(), ms.clone());
        }
        inner
            .inflight
            .lock()
            .expect("inflight poisoned")
            .remove(&job.key);
        job.cell.complete(outcome);
    }
}

/// Longest request line [`Server::serve_lines`] accepts, in bytes
/// (line terminator excluded). A longer line is answered with one
/// `error` line and skipped through its newline without being
/// buffered, so a client that never sends a newline cannot grow its
/// session's memory without bound.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Read one request line into `buf`, without its `\n` or `\r\n`
/// terminator. `Ok(Some(true))` is a line within [`MAX_REQUEST_LINE`];
/// `Ok(Some(false))` an oversized line, consumed through its newline
/// but never held beyond the cap; `Ok(None)` end of input.
fn read_request_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<Option<bool>> {
    buf.clear();
    let mut fits = true;
    let mut read_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        read_any = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if fits && buf.len() + take > MAX_REQUEST_LINE + usize::from(newline.is_some()) {
            fits = false;
            buf.clear();
        }
        if fits {
            buf.extend_from_slice(&chunk[..take]);
        }
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(read_any.then_some(fits))
}

/// A shared line-oriented writer: one lock per line (or per group
/// block), flushed eagerly so pipe-mode clients see rows as they
/// complete.
struct Out<W: Write> {
    writer: Mutex<W>,
}

impl<W: Write> Out<W> {
    fn line(&self, s: &str) -> io::Result<()> {
        let mut w = self.writer.lock().expect("writer poisoned");
        writeln!(w, "{s}")?;
        w.flush()
    }

    fn block(&self, s: &str) -> io::Result<()> {
        let mut w = self.writer.lock().expect("writer poisoned");
        w.write_all(s.as_bytes())?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_are_protocol_stable() {
        assert_eq!(Tier::Cache.name(), "cache");
        assert_eq!(Tier::Shared.name(), "shared");
        assert_eq!(Tier::Fresh.name(), "fresh");
    }

    #[test]
    fn group_cell_rendezvous() {
        let cell = Arc::new(GroupCell::default());
        let waiter = {
            let cell = cell.clone();
            std::thread::spawn(move || cell.wait())
        };
        cell.complete(Ok(Arc::new(Vec::new())));
        assert!(waiter.join().expect("waiter").is_ok());
        // Late waiters see the stored outcome immediately.
        assert!(cell.wait().is_ok());
    }
}
