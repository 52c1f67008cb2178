//! Served queries must be indistinguishable from batch runs: every
//! row `swan-serve` streams back is byte-identical to what
//! `swan-report --only` prints for the same filter — cold cache, warm
//! cache, and under concurrent duplicate queries — and overlapping
//! requests deduplicate to exactly one measurement per scenario group
//! (counted directly with a counting kernel, which a subprocess
//! boundary cannot observe).

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use swan::prelude::*;
use swan_core::Runnable;
use swan_serve::{Server, ServerConfig};

const SEED: u64 = 7;

/// The equivalence subset: a two-clause union, so the server's
/// `;`-spec exercises the same filter union two `--only` flags form.
const CLAUSE_A: &str = "lib=ZL,impl=neon";
const CLAUSE_B: &str = "lib=SK,impl=neon";

fn scale_arg() -> String {
    format!("{}", Scale::test().0)
}

/// Batch reference: `swan-report --only` rows (header and rule
/// stripped), the bytes every served answer must reproduce.
fn batch_rows() -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_swan-report"))
        .args(["--scale", &scale_arg(), "--seed", "7", "--threads", "2"])
        .args(["--only", CLAUSE_A, "--only", CLAUSE_B])
        .output()
        .expect("spawn swan-report");
    assert!(
        out.status.success(),
        "batch reference failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 batch output");
    stdout.lines().skip(2).map(str::to_owned).collect()
}

struct ServeSession {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ServeSession {
    fn spawn() -> ServeSession {
        let mut child = Command::new(env!("CARGO_BIN_EXE_swan-serve"))
            .args(["--scale", &scale_arg(), "--seed", "7", "--workers", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn swan-serve");
        let stdin = child.stdin.take().expect("serve stdin");
        let stdout = BufReader::new(child.stdout.take().expect("serve stdout"));
        ServeSession {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
    }

    /// Read response lines until `<id> end ...`, returning every line
    /// of the query's response (its `end` line last). Lines belonging
    /// to other in-flight queries are passed through to `spill`.
    fn read_until_end(&mut self, id: &str, spill: &mut Vec<String>) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.stdout.read_line(&mut line).expect("read response");
            assert!(n > 0, "server closed stream before `{id} end`");
            let line = line.trim_end_matches('\n').to_string();
            if let Some(rest) = line.strip_prefix(&format!("{id} ")) {
                let is_end = rest.starts_with("end ");
                assert!(!rest.starts_with("error"), "query {id} failed: {line}");
                lines.push(line);
                if is_end {
                    return lines;
                }
            } else {
                spill.push(line);
            }
        }
    }

    fn quit(mut self) {
        self.send("quit");
        drop(self.stdin);
        let mut rest = String::new();
        use std::io::Read;
        self.stdout.read_to_string(&mut rest).expect("drain output");
        assert!(
            rest.lines().any(|l| l.starts_with("serve: requests=")),
            "session must end with a serve: stats line, got:\n{rest}"
        );
        let status = self.child.wait().expect("wait serve");
        assert!(status.success(), "swan-serve exited with {status}");
    }
}

/// `"<id> row <bytes>"` → `<bytes>`, dropping non-row lines.
fn row_bytes(id: &str, lines: &[String]) -> Vec<String> {
    let prefix = format!("{id} row ");
    lines
        .iter()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(str::to_owned)
        .collect()
}

/// `cache=A shared=B fresh=C ...` → the named field of an `end` line.
fn end_field(end_line: &str, name: &str) -> usize {
    end_line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("no {name}= in `{end_line}`"))
        .parse()
        .unwrap_or_else(|_| panic!("bad {name}= in `{end_line}`"))
}

/// Cold-cache then warm-cache queries over the served pipe must both
/// reproduce the batch rows byte for byte, and the warm pass must be
/// answered entirely from the result cache (fresh=0).
#[test]
fn served_rows_byte_identical_to_batch_cold_and_warm() {
    let reference = batch_rows();
    assert!(!reference.is_empty(), "batch reference must print rows");

    let mut session = ServeSession::spawn();
    let mut spill = Vec::new();
    session.send(&format!("cold|{CLAUSE_A};{CLAUSE_B}"));
    let cold = session.read_until_end("cold", &mut spill);
    session.send(&format!("warm|{CLAUSE_A};{CLAUSE_B}"));
    let warm = session.read_until_end("warm", &mut spill);
    session.quit();
    assert!(spill.is_empty(), "unexpected interleaved lines: {spill:?}");

    assert_eq!(
        row_bytes("cold", &cold),
        reference,
        "cold served rows must be byte-identical to the batch run"
    );
    assert_eq!(
        row_bytes("warm", &warm),
        reference,
        "warm served rows must be byte-identical to the batch run"
    );

    let cold_end = cold.last().expect("cold end line");
    let warm_end = warm.last().expect("warm end line");
    let groups = end_field(cold_end, "groups");
    assert!(groups > 0);
    assert_eq!(end_field(cold_end, "fresh"), groups, "cold run executes");
    assert_eq!(end_field(warm_end, "cache"), groups, "warm run is cached");
    assert_eq!(end_field(warm_end, "fresh"), 0, "warm run executes nothing");
    assert_eq!(end_field(cold_end, "failures"), 0);
    assert_eq!(end_field(warm_end, "failures"), 0);
}

/// N identical queries issued back to back on one session: every one
/// must stream the byte-identical batch rows, and across all of them
/// each scenario group is *enqueued for execution* exactly once — the
/// rest are answered from the cache or by joining the in-flight run.
#[test]
fn concurrent_duplicate_queries_share_one_execution() {
    const DUPES: usize = 4;
    let reference = batch_rows();

    let mut session = ServeSession::spawn();
    for i in 0..DUPES {
        session.send(&format!("d{i}|{CLAUSE_A};{CLAUSE_B}"));
    }
    let mut per_query: Vec<Vec<String>> = (0..DUPES).map(|_| Vec::new()).collect();
    let mut spill: Vec<String> = Vec::new();
    for i in 0..DUPES {
        // Claim lines spilled while reading earlier ids, then read on.
        let id = format!("d{i}");
        let (mine, rest): (Vec<String>, Vec<String>) = spill
            .drain(..)
            .partition(|l| l.starts_with(&format!("{id} ")));
        per_query[i] = mine;
        spill = rest;
        if per_query[i]
            .last()
            .is_none_or(|l| !l.starts_with(&format!("{id} end ")))
        {
            per_query[i].extend(session.read_until_end(&id, &mut spill));
        }
    }
    session.quit();

    let mut fresh_total = 0;
    let mut groups = 0;
    for (i, lines) in per_query.iter().enumerate() {
        let id = format!("d{i}");
        assert_eq!(
            row_bytes(&id, lines),
            reference,
            "duplicate query {id} must stream the batch rows byte-identically"
        );
        let end = lines.last().expect("end line");
        groups = end_field(end, "groups");
        fresh_total += end_field(end, "fresh");
        assert_eq!(end_field(end, "failures"), 0);
    }
    assert_eq!(
        fresh_total, groups,
        "across {DUPES} duplicate queries every group must be enqueued exactly once"
    );
}

/// A kernel wrapper counting functional executions across instances
/// (same shape as the checkpoint_resume counting harness).
struct CountingKernel {
    inner: Box<dyn Kernel>,
    runs: Arc<AtomicUsize>,
}

struct CountingRunnable {
    inner: Box<dyn Runnable>,
    runs: Arc<AtomicUsize>,
}

impl Kernel for CountingKernel {
    fn meta(&self) -> KernelMeta {
        self.inner.meta()
    }
    fn instantiate(&self, scale: Scale, seed: u64) -> Box<dyn Runnable> {
        Box::new(CountingRunnable {
            inner: self.inner.instantiate(scale, seed),
            runs: self.runs.clone(),
        })
    }
}

impl Runnable for CountingRunnable {
    fn run(&mut self, imp: Impl, w: Width) {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.inner.run(imp, w);
    }
    fn output(&self) -> Vec<f64> {
        self.inner.output()
    }
    fn work_ops(&self) -> u64 {
        self.inner.work_ops()
    }
}

/// The dedup guarantee, counted directly: many threads querying the
/// same plan through one in-process [`Server`] measure each scenario
/// group exactly once (with no store, that is two functional
/// executions: the warm and the timed pass), and every thread's
/// measurements equal a fresh serial campaign's bitwise.
#[test]
fn overlapping_queries_execute_each_group_once() {
    let runs = Arc::new(AtomicUsize::new(0));
    let kernels: Vec<Box<dyn Kernel>> = swan::suite()
        .into_iter()
        .take(2)
        .map(|inner| {
            Box::new(CountingKernel {
                inner,
                runs: runs.clone(),
            }) as Box<dyn Kernel>
        })
        .collect();

    // Serial batch reference over the same (plain) kernel subset: the
    // Measurement values every served reply must equal bitwise.
    let plain: Vec<Box<dyn Kernel>> = swan::suite().into_iter().take(2).collect();
    let plan = swan_core::plan(&plain, Scale::test(), SEED);
    let serial = Campaign::default()
        .execute(&plain, &plan, |_| {})
        .complete();

    let server = Server::new(
        kernels,
        None,
        ServerConfig {
            scale: Scale::test(),
            seed: SEED,
            workers: 4,
            ..ServerConfig::default()
        },
    );
    let total_groups = server.total_groups();
    assert!(total_groups > 1, "subset must span several groups");

    // Empty filter list = the full plan (the `*` query): maximal
    // overlap between the duplicate requests.
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| scope.spawn(|| server.query(&[]).expect("query")))
            .collect();
        for handle in handles {
            let reply = handle.join().expect("query thread");
            assert_eq!(reply.stats.failures, 0);
            assert_eq!(reply.plan.len(), plan.len());
            for ((sc, got), want) in reply.plan.iter().zip(&reply.measurements).zip(&serial) {
                assert_eq!(
                    got.as_ref(),
                    Some(want),
                    "{}: served measurement must equal fresh serial bitwise",
                    sc.id()
                );
            }
        }
    });

    assert_eq!(
        runs.load(Ordering::SeqCst),
        2 * total_groups,
        "6 overlapping full-plan queries must measure each group exactly \
         once: two functional executions (warm and timed pass, no store)"
    );
}

/// Protocol-level errors: a malformed filter and a no-match filter
/// both answer with an `error` line (and never crash the session).
#[test]
fn malformed_and_empty_queries_answer_with_errors() {
    let kernels: Vec<Box<dyn Kernel>> = swan::suite().into_iter().take(1).collect();
    let server = Server::new(
        kernels,
        None,
        ServerConfig {
            scale: Scale::test(),
            seed: SEED,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let input = "bad|cpu=prime\nnone|kernel=no_such_kernel\nstats\nquit\n";
    let mut out = Vec::new();
    server
        .serve_lines(std::io::Cursor::new(input), &mut out)
        .expect("serve session");
    let text = String::from_utf8(out).expect("utf8 output");
    assert!(
        text.lines().any(|l| l.starts_with("bad error ")),
        "malformed filter must answer with an error line:\n{text}"
    );
    assert!(
        text.lines().any(|l| l.starts_with("none error ")),
        "no-match filter must answer with an error line:\n{text}"
    );
    assert_eq!(
        text.lines()
            .filter(|l| l.starts_with("serve: requests="))
            .count(),
        2,
        "one stats line for the `stats` command, one at session end:\n{text}"
    );
}

/// A request line longer than `MAX_REQUEST_LINE` answers with one
/// `error` line, counts in `errors=`, and is skipped through its
/// newline without desynchronizing the session: the valid query that
/// follows on the same reader is still answered.
#[test]
fn oversized_request_line_is_refused_and_the_session_continues() {
    let kernels: Vec<Box<dyn Kernel>> = swan::suite().into_iter().take(1).collect();
    let server = Server::new(
        kernels,
        None,
        ServerConfig {
            scale: Scale::test(),
            seed: SEED,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let oversized = format!("big|kernel={}", "x".repeat(swan_serve::MAX_REQUEST_LINE));
    let input = format!("{oversized}\nok|impl=scalar\nquit\n");
    // A small read buffer makes the oversized line span many refills.
    let reader = std::io::BufReader::with_capacity(1024, input.as_bytes());
    let mut out = Vec::new();
    server.serve_lines(reader, &mut out).expect("serve session");
    let text = String::from_utf8(out).expect("utf8 output");
    let errors: Vec<&str> = text.lines().filter(|l| l.contains(" error ")).collect();
    assert_eq!(errors.len(), 1, "exactly one error line:\n{text}");
    assert!(errors[0].contains("exceeds"), "{}", errors[0]);
    assert!(
        text.lines().any(|l| l.starts_with("ok row ")) && text.contains("ok end "),
        "the query after the oversized line must be answered:\n{text}"
    );
    assert!(text.contains("errors=1 "), "counted in errors=:\n{text}");
}
