#!/usr/bin/env python3
"""Swan benchmark: three workloads against the release binaries.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds
`swan-report`, `swan-serve`, the traced pass and the reference job
(`perfbench/traced`) in release mode, runs the workload, checks every
output against the pins in `perfbench/pinned.json` and
`perfbench/pinned_rows.txt`, and prints one JSON object as the last
line of stdout. `--trace 0` times the untraced job, scaled by the
host's speed on the reference job, and reports the end-to-end
metrics; `--trace 1` runs the in-process traced pass and reports the
per-layer metrics. See
`perfbench/README.md` for what each workload and metric is for.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
PINS = json.loads((HERE / "pinned.json").read_text())
ONLY_TEXT = (HERE / "pinned_rows.txt").read_text()
ROWS = harness.parse_rows(ONLY_TEXT)
ROW_HEADER = "".join(ONLY_TEXT.splitlines(keepends=True)[:2])
GROUPS = harness.plan_groups(ROWS)

# The first line `swan-report` prints once its campaign is done.
FIRST_RESULT = b"=== Figure 1"
# Serve session k of a run asks in order `seed * SESSION_ORDERS + k`,
# so runs with different seeds never share an order.
SESSION_ORDERS = 1000
# Query a cold program answers during set-up: the LW library, about a
# quarter second, long enough that process start-up jitter is noise.
WARMUP_LIB = "LW"
SERVE_IN_FLIGHT = 2
# The host's speed changes under the benchmark: on a shared two-vCPU
# KVM guest (Intel Xeon) the same job's wall and CPU time fell by 40-47%
# between a busy and a calm hour with no change to the code. So a run
# also times the reference job (`perfbench-ref`, code no
# change to the program touches) before set-up and after each timed
# step, and scales every timing by REFERENCE_S over the median of all
# its reference rounds: timings read in seconds of a host on which the
# reference job takes REFERENCE_S, its time on that guest when calm.
# The host's speed also wanders by about 10% from one second to the
# next; pooling every round of a run, rather than pairing each step
# with the references beside it, keeps that wander out of the scale.
REFERENCE_S = 0.15
REFERENCE_CHECKSUM = "5736500598392040871"
# Metrics the host factor scales: times multiply, rates divide.
HOST_TIMED = {"wall_s", "cpu_s", "setup_s", "fresh_p50_ms", "fresh_p95_ms"}
HOST_RATES = {"sim_mips"}
# No single step may hang a run, which must end within 180 s.
STEP_TIMEOUT_S = 150
MIB = 1024 * 1024


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Ctx:
    """Paths and binaries of one run, plus its check tally."""

    def __init__(self, target, work):
        self.work = work
        self.report = target / "release" / "swan-report"
        self.serve = target / "release" / "swan-serve"
        self.traced = target / "release" / "perfbench-traced"
        self.ref = target / "release" / "perfbench-ref"
        self.refs = []
        self.counters = target / "perfbench-counters"
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")
        return ok

    def reference(self):
        """Run the reference job, check its checksum, and keep its
        timed rounds."""
        proc = subprocess.run([str(self.ref)], capture_output=True, text=True,
                              timeout=STEP_TIMEOUT_S)
        out = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
        if not self.check(proc.returncode == 0 and out.get("checksum") == REFERENCE_CHECKSUM,
                          f"reference job: exit {proc.returncode}, output {out}"):
            raise RuntimeError("the reference job failed, so no timing can be scaled")
        self.refs += [int(t) / 1e9 for t in out["wall_ns"].split()]

    def begin(self):
        """The run's first reference. Just after an idle spell the
        reference job reads up to twice as slow for about a second, so
        a first run of it is thrown away."""
        self.reference()
        self.refs.clear()
        self.reference()

    def fresh_dir(self, name):
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def reap(proc):
    """Wait for `proc` and return (exit code, CPU seconds, peak RSS MiB)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def run_report(ctx, args, out_path):
    """Run `swan-report` once, saving stdout to `out_path`. Returns
    wall, CPU, peak RSS, exit code, stdout bytes, stderr text, and the
    time the first campaign result line appeared."""
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [str(ctx.report), *args], stdout=subprocess.PIPE, stderr=err, cwd=ctx.work
        )
        first = None
        try:
            for line in proc.stdout:
                if first is None and line.startswith(FIRST_RESULT):
                    first = time.perf_counter() - t0
                out.write(line)
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            code, cpu, rss = reap(proc)
        wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "cpu": cpu,
        "rss": rss,
        "code": code,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_text(errors="replace"),
        "first": first,
    }


def only_output(lib):
    """The exact `swan-report --only lib=LIB` stdout the pins imply."""
    return ROW_HEADER + "".join(r + "\n" for sid, r in ROWS.items() if sid.startswith(lib + "."))


# ---------------------------------------------------------------------------
# Workloads (tracing off)
# ---------------------------------------------------------------------------


def reps_until(ctx, seconds, start, job):
    """Run `job` until `seconds` have passed since `start`, when the
    run's set-up began (at least once), timing the reference job after
    each, and return the per-repetition results."""
    out = []
    while not out or time.perf_counter() - start < seconds:
        out.append(job(len(out)))
        ctx.reference()
    return out


def host_scaled(ctx, metrics):
    """`metrics` with every timing scaled to the reference host."""
    factor = REFERENCE_S / statistics.median(ctx.refs)
    log(harness.timing_line("reference job", statistics.median(ctx.refs), "s", len(ctx.refs)))
    log(f"host factor {factor:.4f}; timings before scaling:")
    out = {}
    for name, (value, unit) in metrics.items():
        if name in HOST_TIMED | HOST_RATES:
            log(f"  {name:<38} {value:>16.6g} {unit}")
        scale = factor if name in HOST_TIMED else 1 / factor if name in HOST_RATES else 1
        out[name] = (value * scale, unit)
    return out


def report_setup(ctx, n):
    """Cold start to first answer of the batch CLI: a small `--only`
    query, `n` times."""
    times = []
    expect = only_output(WARMUP_LIB).encode()
    for i in range(n):
        r = run_report(
            ctx,
            ["--quick", "--threads", "2", "--only", f"lib={WARMUP_LIB}"],
            ctx.work / f"setup{i}.out",
        )
        ctx.check(r["code"] == 0 and r["stdout"] == expect, f"set-up query {i} output")
        times.append(r["wall"])
    return times


def batch_metrics(ctx, workload, setup, reps, disk):
    """End-to-end metrics of a batch workload from its set-up times and
    its repetitions."""
    steps = PINS["model_steps"][workload]
    walls = [r["wall"] for r in reps]
    firsts = [r["first"] for r in reps if r["first"] is not None]
    ctx.check(len(firsts) == len(reps), "every job printed its campaign results")
    first_ms = statistics.median(firsts) * 1e3 if firsts else float("nan")
    log(harness.timing_line("setup_s", statistics.median(setup), "s", len(setup)))
    log(harness.timing_line("wall_s", statistics.median(walls), "s", len(walls)))
    log(harness.timing_line("time to first result", first_ms, "ms", len(firsts)))
    log("  one request per batch job: fresh_p50_ms and fresh_p95_ms are its time to first result")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in reps), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["rss"] for r in reps), "MiB"),
        "disk_mb": (statistics.median(disk) / MIB, "MiB"),
        "sim_mips": (statistics.median(steps / w / 1e6 for w in walls), "Msteps/s"),
        "fresh_p50_ms": (first_ms, "ms"),
        "fresh_p95_ms": (first_ms, "ms"),
    }


def report_all_t2(ctx, seed, seconds):
    """The paper reproduction at machine width, no store, no journal."""
    start = time.perf_counter()
    ctx.begin()
    setup = report_setup(ctx, 7)
    ctx.reference()
    disk = []

    def job(i):
        out = ctx.work / f"job{i}.out"
        r = run_report(ctx, ["--quick", "--threads", "2", "all"], out)
        ctx.check(
            r["code"] == 0 and harness.digest_matches(r["stdout"], PINS["report_all_sha256"]),
            f"report_all_t2 job {i}: stdout differs from the pinned digest",
        )
        disk.append(out.stat().st_size)
        return r

    reps = reps_until(ctx, seconds, start, job)
    return batch_metrics(ctx, "report_all_t2", setup, reps, disk)


# glibc raises its mmap threshold each time a large block is freed, and
# what the daemon's heap then keeps depends on which groups happened to
# overlap: its peak moved between 92 and 170 MiB over sessions of the
# same requests. Pinned at glibc's default of 128 KiB, large blocks go
# back to the kernel when freed and the peak is the live peak (80 MiB).
# Only the untimed session that measures peak memory runs pinned; the
# timed sessions run under the allocator's defaults, as users run it.
PINNED_MMAP_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")


class Daemon:
    """A `swan-serve --pipe` process driven line by line. Everything it
    prints is kept in a transcript file, as a client would save it."""

    def __init__(self, ctx, name, env=None):
        self.err = open(ctx.work / f"{name}.err", "wb")
        self.transcript = open(ctx.work / f"{name}.out", "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(ctx.serve), "--quick", "--workers", "2", "--pipe"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.err,
            cwd=ctx.work,
            env=env,
        )
        self.fd = self.proc.stdout.fileno()
        self.buf = b""
        self.eof = False

    def send(self, text):
        self.proc.stdin.write(text.encode())
        self.proc.stdin.flush()

    def lines(self, timeout):
        """Block until output arrives; return (arrival time, lines)."""
        ready, _, _ = select.select([self.fd], [], [], timeout)
        if not ready:
            raise TimeoutError("swan-serve stopped answering")
        data = os.read(self.fd, 1 << 16)
        now = time.perf_counter()
        self.eof = not data
        self.transcript.write(data)
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        return now, [d.decode() for d in done]

    def _reap(self):
        code, cpu, rss = reap(self.proc)
        for f in (self.proc.stdin, self.proc.stdout, self.err, self.transcript):
            f.close()
        return code, cpu, rss

    def abort(self):
        self.proc.kill()
        self._reap()

    def finish(self):
        """Quit and drain: returns (exit code, CPU s, peak RSS MiB,
        transcript bytes, the lines after `quit`)."""
        tail = []
        try:
            self.send("quit\n")
            self.proc.stdin.close()
            while not self.eof:
                tail += self.lines(STEP_TIMEOUT_S)[1]
        except BaseException:
            self.proc.kill()
            raise
        finally:
            code, cpu, rss = self._reap()
        return code, cpu, rss, Path(self.transcript.name).stat().st_size, tail


def serve_setup(ctx, n):
    """Cold start to first answer of the daemon, `n` times."""
    times = []
    want = harness.parse_rows(only_output(WARMUP_LIB))
    for i in range(n):
        d = Daemon(ctx, f"setup{i}")
        d.send(f"s|lib={WARMUP_LIB}\n")
        rows, took = {}, None
        while took is None and not d.eof:
            now, lines = d.lines(STEP_TIMEOUT_S)
            for line in lines:
                if line.startswith("s row "):
                    row = line[len("s row "):]
                    rows[row.split()[0]] = row
                elif line.startswith("s end ") or line.startswith("s error "):
                    took = now - d.t0
        code, _, _, _, _ = d.finish()
        ctx.check(code == 0 and rows == want and took is not None, f"serve set-up query {i}")
        times.append(took if took is not None else float("nan"))
    return times


def drive(ctx, daemon, requests):
    """Closed loop with SERVE_IN_FLIGHT requests outstanding. Returns
    per-request (request, tier, latency s)."""
    answered = set()
    inflight = {}
    done = []
    i = 0
    while i < len(requests) or inflight:
        while i < len(requests) and len(inflight) < SERVE_IN_FLIGHT:
            r = requests[i]
            if r.kind == "cache" and not r.covers <= answered:
                break
            batch = [r, requests[i + 1]] if r.pair else [r]
            if r.pair and inflight:
                break
            now = time.perf_counter()
            daemon.send("".join(f"{q.rid}|{q.spec}\n" for q in batch))
            for q in batch:
                inflight[q.rid] = (q, now, {})
            i += len(batch)
        if not inflight:
            raise RuntimeError(f"serve mix stalled at request {i}")
        now, lines = daemon.lines(STEP_TIMEOUT_S)
        if daemon.eof:
            raise RuntimeError("swan-serve exited mid-session")
        for line in lines:
            rid, kind, rest = (line.split(" ", 2) + ["", ""])[:3]
            if rid not in inflight:
                continue
            q, sent, rows = inflight[rid]
            if kind == "row":
                rows[rest.split()[0]] = rest
            elif kind in ("end", "error"):
                del inflight[rid]
                end = harness.parse_end(line)
                ok = (
                    end is not None
                    and end["failures"] == 0
                    and end["scenarios"] == len(q.scenarios)
                    and sorted(rows) == sorted(q.scenarios)
                    and all(rows[s] == ROWS[s] for s in q.scenarios)
                )
                ctx.check(ok, f"serve {rid} ({q.spec}): rows or counts differ from the pins")
                tier = harness.classify_tier(end) if end else "failed"
                answered |= q.covers
                done.append((q, tier, now - sent))
    return done


def serve_session(ctx, requests, tiers, name, env=None):
    """One cold daemon answering the whole mix; returns its wall, CPU,
    peak RSS, transcript size and fresh-tier latencies (ms), and counts
    the tiers that answered into `tiers`."""
    d = Daemon(ctx, name, env)
    t0 = time.perf_counter()
    try:
        done = drive(ctx, d, requests)
    except BaseException:
        d.abort()
        raise
    code, cpu, rss, transcript, tail = d.finish()
    wall = time.perf_counter() - t0
    stats = dict(f.partition("=")[::2] for f in (tail[-1].split()[1:] if tail else []))
    ctx.check(
        code == 0 and stats.get("fresh") == str(len(GROUPS)) and stats.get("errors") == "0",
        f"{name}: daemon ended with code {code}, stats {stats}",
    )
    for _, tier, _ in done:
        tiers[tier] = tiers.get(tier, 0) + 1
    fresh = [lat * 1e3 for _, tier, lat in done if tier == "fresh"]
    return {"wall": wall, "cpu": cpu, "rss": rss, "disk": transcript, "fresh": fresh}


def serve_mix(ctx, seed, seconds):
    """Cold daemons answering the seeded fresh/shared/cache mix, one
    session per repetition, each with its own order drawn from the
    seed. Which groups happen to run side by side on the two workers
    moves one session's fresh-tier tail, so the percentiles pool the
    sessions. Peak memory comes from one more session, untimed, with the
    mmap threshold pinned."""
    start = time.perf_counter()
    ctx.begin()
    setup = serve_setup(ctx, 7)
    ctx.reference()
    steps = PINS["model_steps"]["serve_mix"]
    tiers = {}

    def job(i):
        requests = harness.serve_requests(GROUPS, seed * SESSION_ORDERS + i)
        return serve_session(ctx, requests, tiers, f"serve{i}")

    sessions = reps_until(ctx, seconds, start, job)
    walls = [s["wall"] for s in sessions]
    fresh = [lat for s in sessions for lat in s["fresh"]]
    log(f"serve tiers over {len(sessions)} sessions: {tiers}")
    log("peak RSS of the timed sessions, allocator defaults (not reported): "
        + " ".join(f"{s['rss']:.1f}" for s in sessions) + " MiB")
    order = seed * SESSION_ORDERS + len(sessions)
    rss = serve_session(ctx, harness.serve_requests(GROUPS, order), {}, "rss",
                        PINNED_MMAP_ENV)["rss"]
    log(harness.timing_line("setup_s", statistics.median(setup), "s", len(setup)))
    log(harness.timing_line("wall_s", statistics.median(walls), "s", len(walls)))
    p50 = harness.percentile(fresh, 0.50)
    p95 = harness.percentile(fresh, 0.95)
    log(harness.timing_line("fresh_p50_ms", p50, "ms", len(fresh)))
    log(harness.timing_line("fresh_p95_ms", p95, "ms", len(fresh)))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(s["cpu"] for s in sessions), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "disk_mb": (statistics.median(s["disk"] for s in sessions) / MIB, "MiB"),
        "sim_mips": (statistics.median(steps / w / 1e6 for w in walls), "Msteps/s"),
        "fresh_p50_ms": (p50, "ms"),
        "fresh_p95_ms": (p95, "ms"),
    }


WORKLOADS = {
    "report_all_t2": report_all_t2,
    "serve_mix": serve_mix,
}


# ---------------------------------------------------------------------------
# Traced pass (tracing on)
# ---------------------------------------------------------------------------

# The program's own `swan-report --profile --threads 1` job printed
# beside the traced pass, per workload, with the pins its stdout must
# match. serve_mix's fresh work is the whole plan as `--only` rows.
PROFILE_JOBS = {
    "report_all_t2": (["all"], "report_all_sha256"),
    "serve_mix": (["--only", "impl=scalar", "--only", "impl=auto", "--only", "impl=neon"], None),
}

# Layers of the traced pass, each the sum of the top-level calls timed
# in it. The warm and timed replay passes are split: model stepping is
# uarch, the decode between batches is simd.
LAYERS = {
    "simd": ["exec", "record", "decode", "warm_pass", "timed_pass"],
    "campaign": ["plan", "aggregate"],
    "report": ["render", "fig6"],
    "tracestore": ["store_record", "store_commit", "store_lookup", "store_decode",
                   "exposed_store"],
    "checkpoint": ["checkpoint_write", "checkpoint_load"],
    "serve": ["serve_fresh", "serve_cache", "serve_star"],
    "runner": ["runner_record", "runner_measure"],
}
KINDS = ["prime", "gold", "silver", "sweep"]


def parse_traced(text):
    counts, ns, samples, groups, checks, wall = {}, {}, {}, {}, (0, 0), None
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        f = rest.split()
        if kind == "count":
            counts[f[0]] = int(f[1])
        elif kind == "ns":
            ns[f[0]] = int(f[1])
        elif kind == "samples":
            samples[f[0]] = [float(x) for x in f[1:]]
        elif kind == "group":
            groups[f[0]] = int(f[1])
        elif kind == "checks":
            checks = (int(f[0]), int(f[1]))
        elif kind == "wall_ns":
            wall = int(f[0])
    return counts, ns, samples, groups, checks, wall


def workload_counts(workload, c):
    """The exact counters of `workload`'s job, from the traced pass."""
    steps = c["plan_timed_steps"]
    execs = {
        "report_all_t2": c["plan_groups"] + c["fig6_execs"],
        "serve_mix": c["serve_fresh_groups"],
    }[workload]
    if workload == "report_all_t2":
        steps += c["fig6_instrs"]
    return {
        "simd.instrs": c["plan_instrs"],
        "simd.functional_execs": execs,
        "simd.encoded_bytes_per_instr": c["encoded_bytes"] / c["plan_instrs"],
        "uarch.model_steps": steps,
        "tracestore.lookup_bytes_per_hit": c["store_bytes_read"] / c["store_hits"],
        "tracestore.bytes_per_instr": c["store_bytes_written"] / c["plan_instrs"],
        "checkpoint.bytes_per_group": c["journal_bytes"] / c["journal_groups"],
        "campaign.groups": c["plan_groups"],
        "report.fig6_instrs": c["fig6_instrs"],
        "serve.fresh_groups": c["serve_fresh_groups"],
    }


def code_key(ctx):
    """Identity of the code under test: the three built binaries."""
    blobs = b"".join(p.read_bytes() for p in (ctx.report, ctx.serve, ctx.traced))
    return harness.digest(blobs)[:16]


def check_repeat(ctx, workload, seed, exact):
    """Exact counters must repeat across traced runs of the same code:
    the first run of a build records them, later runs compare."""
    ctx.counters.mkdir(parents=True, exist_ok=True)
    path = ctx.counters / f"{code_key(ctx)}-{workload}-{seed}.json"
    if path.exists():
        before = json.loads(path.read_text())
        ctx.check(before == exact, f"exact counters differ from an earlier traced run: "
                                   f"{ {k: (before.get(k), v) for k, v in exact.items() if before.get(k) != v} }")
    else:
        path.write_text(json.dumps(exact, sort_keys=True))


def profile_side_by_side(ctx, workload, ns):
    """Run the program's own profiler over the same job and print its
    phase totals beside the traced pass's outside timings (no gate)."""
    args, pin = PROFILE_JOBS[workload]
    prof = ctx.work / "profile.json"
    r = run_report(ctx, ["--quick", "--threads", "1", "--profile", "--profile-json", str(prof),
                         *args], ctx.work / "profile.out")
    ok = r["code"] == 0 and (
        harness.digest_matches(r["stdout"], PINS[pin]) if pin else r["stdout"].decode() == ONLY_TEXT
    )
    ctx.check(ok, f"profiled {workload} job: stdout differs from the pins")
    phases = {p["id"]: p["self_ns"] for p in json.loads(prof.read_text())["phases"]} if ok else {}
    # The traced pass splits decode from warm and timed stepping only on
    # its sampled groups; over every group it has the runner's measure.
    steps = ("decode", "warm", "timed")
    if all(k in phases for k in steps):
        phases["decode+warm+timed"] = sum(phases.pop(k) for k in steps)
    outside = {
        "record": ns["runner_record"],
        "decode+warm+timed": ns["runner_measure"],
        "store_lookup": ns["store_lookup"],
        "store_commit": ns["store_commit"],
        "checkpoint_write": ns["checkpoint_write"],
        "checkpoint_load": ns["checkpoint_load"],
        "fig6 (whole)": ns["fig6"],
    }
    log(f"program profile of the {workload} job at --threads 1 ({r['wall']:.2f} s wall) "
        "beside the traced pass's outside timing of the same layer calls (a job that "
        "draws Figure 6 counts its record/decode/warm/timed in the program's phases):")
    log(f"  {'phase':<18}{'program ms':>12}{'traced ms':>12}")
    for name in sorted(set(phases) | set(outside)):
        prog = f"{phases[name] / 1e6:12.1f}" if name in phases else f"{'-':>12}"
        out = f"{outside[name] / 1e6:12.1f}" if name in outside else f"{'-':>12}"
        log(f"  {name:<18}{prog}{out}")


def traced(ctx, workload, seed):
    """The in-process traced pass plus its checks; per-layer metrics."""
    work = ctx.work / "traced"
    proc = subprocess.run(
        [str(ctx.traced), "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"traced pass exited with code {proc.returncode}")
    c, ns, samples, groups, (made, failed), wall_ns = parse_traced(proc.stdout)
    ctx.attempted += made
    ctx.failed += failed
    rows = (work / "rows.txt").read_text()
    ctx.check(rows == "".join(r + "\n" for r in ROWS.values()), "traced rows differ from the pins")
    report = (work / "report.txt").read_bytes()
    ctx.check(harness.digest_matches(report, PINS["store_tokens_sha256"]),
              "traced report differs from the pinned digest")
    ctx.check(harness.digest_matches(report + (work / "fig6.txt").read_bytes(),
                                     PINS["report_all_sha256"]),
              "traced report with Figure 6 differs from the pinned digest")

    exact = workload_counts(workload, c)
    for name, want in PINS["counts"].items():
        ctx.check(exact[name] == want, f"{name} = {exact[name]}, pinned {want}")
    ctx.check(exact["uarch.model_steps"] == PINS["model_steps"][workload],
              f"uarch.model_steps = {exact['uarch.model_steps']}, "
              f"pinned {PINS['model_steps'][workload]}")
    ctx.check(exact["simd.functional_execs"] == PINS["functional_execs"][workload],
              f"simd.functional_execs = {exact['simd.functional_execs']}, "
              f"pinned {PINS['functional_execs'][workload]}")
    check_repeat(ctx, workload, seed, exact)

    layer_ns = {layer: sum(ns[k] for k in keys) for layer, keys in LAYERS.items()}
    layer_ns["uarch"] = ns["warm_model"] + sum(ns[f"timed_model.{k}"] for k in KINDS)
    layer_ns["simd"] -= layer_ns["uarch"]
    share = sum(layer_ns.values()) / wall_ns
    ctx.check(share <= 1.0, f"attributed share {share:.4f} exceeds the traced wall")
    log(f"traced pass: {wall_ns / 1e9:.2f} s wall, {share:.1%} attributed")
    log(f"per-layer record + warm + timed {ns['copy_sampled'] / 1e9:.3f} s vs swan_core::runner "
        f"{ns['runner_sampled'] / 1e9:.3f} s over the same {c['sampled_model_groups']} groups "
        f"({ns['copy_sampled'] / ns['runner_sampled']:.3f}x)")
    for layer, t in layer_ns.items():
        log(f"  {layer:<11} {t / 1e9:8.3f} s  {t / wall_ns:6.1%}")
    slowest = sorted(groups.items(), key=lambda kv: -kv[1])[:10]
    log("ten slowest groups (record + warm + timed, in memory, one thread):")
    for name, t in slowest:
        log(f"  {t / 1e6:9.1f} ms  {name}")
    log(harness.timing_line("serve.cache_p50_us", harness.percentile(samples["cache_us"], 0.5),
                            "us", len(samples["cache_us"])))
    log(harness.timing_line("serve.cache_p99_us", harness.percentile(samples["cache_us"], 0.99),
                            "us", len(samples["cache_us"])))
    log(harness.timing_line("serve.star_ms_p50", harness.percentile(samples["star_ms"], 0.5),
                            "ms", len(samples["star_ms"])))
    profile_side_by_side(ctx, workload, ns)

    n = c["plan_instrs"]
    m = {
        "simd.exec_ns_per_instr": (ns["exec"] / n, "ns"),
        "simd.encode_ns_per_instr": ((ns["record"] - ns["exec"]) / n, "ns"),
        "simd.decode_ns_per_instr": (ns["decode"] / n, "ns"),
        "uarch.warm_ns_per_step": (ns["warm_model"] / c["sampled_warm_steps"], "ns"),
        "tracestore.lookup_ms_per_hit": (ns["store_lookup"] / 1e6 / c["store_hits"], "ms"),
        "tracestore.replay_decode_ns_per_instr": (ns["store_decode"] / c["sampled_instrs"], "ns"),
        "tracestore.exposed_decode_ms":
            ((ns["exposed_store"] - ns["exposed_mem"]) / 1e6 / c["sampled_groups"], "ms"),
        "tracestore.commit_ms_per_entry": (ns["store_commit"] / 1e6 / c["store_inserts"], "ms"),
        "tracestore.hit_ratio": (c["store_hits"] / (c["store_hits"] + c["store_misses"]), "ratio"),
        "checkpoint.write_us_per_group": (ns["checkpoint_write"] / 1e3 / c["journal_groups"], "us"),
        "checkpoint.load_us_per_group": (ns["checkpoint_load"] / 1e3 / c["journal_groups"], "us"),
        "campaign.plan_ms": (ns["plan"] / 1e6, "ms"),
        "campaign.aggregate_ms": (ns["aggregate"] / 1e6, "ms"),
        "campaign.slowest_group_ms": (slowest[0][1] / 1e6, "ms"),
        "report.render_ms": (ns["render"] / 1e6, "ms"),
        "report.fig6_s": (ns["fig6"] / 1e9, "s"),
        "serve.cache_p50_us": (harness.percentile(samples["cache_us"], 0.5), "us"),
        "serve.cache_p99_us": (harness.percentile(samples["cache_us"], 0.99), "us"),
        "serve.star_ms_p50": (harness.percentile(samples["star_ms"], 0.5), "ms"),
        "trace.wall_s": (wall_ns / 1e9, "s"),
        "trace.runner_s": ((ns["runner_record"] + ns["runner_measure"]) / 1e9, "s"),
        "trace.attributed_share": (share, "ratio"),
    }
    for k in KINDS:
        m[f"uarch.timed_ns_per_step.{k}"] = (ns[f"timed_model.{k}"] / c[f"steps.{k}"], "ns")
    units = {"simd.encoded_bytes_per_instr": "B", "tracestore.lookup_bytes_per_hit": "B",
             "tracestore.bytes_per_instr": "B", "checkpoint.bytes_per_group": "B"}
    for name, v in exact.items():
        m[name] = (v, units.get(name, "count"))
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build(root, target):
    """Release-build both binaries, the traced pass and the reference
    job from source."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for extra in (["--bin", "swan-report", "--bin", "swan-serve"],
                  ["--manifest-path", str(HERE / "traced" / "Cargo.toml")]):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *extra],
                       cwd=root, env=env, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        log(f"error: {root} is not a Swan source checkout (no Cargo.toml / crates/)")
        sys.exit(2)
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else root / target
    try:
        build(root, target)
    except subprocess.CalledProcessError as e:
        log(f"error: build failed: {e}")
        sys.exit(2)

    work = root / ".perfbench-work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(target, work)
    try:
        if args.trace:
            metrics = traced(ctx, args.workload, args.seed)
        else:
            metrics = host_scaled(ctx, WORKLOADS[args.workload](ctx, args.seed, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        log(f"{name:<40} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
