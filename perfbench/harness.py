"""Pure helpers of the Swan benchmark: percentiles that refuse thin
tails, the serve `end`-line tier classifier, output digests, and the
seeded serve request mix. No process is started here, so the tests in
`perfbench/tests` exercise all of it directly."""

import hashlib
import math
import random
import re
from dataclasses import dataclass, field

# A percentile is reported only with at least this many samples beyond
# it; a p99 over 201 samples (two beyond it) drifted 16% between two
# sets of runs of the same code.
MIN_BEYOND = 10

# The serve mix's cache tier: every group GROUP_REPEATS times, every
# library LIB_REPEATS times and the full plan STAR_REPEATS times, 930
# repeats in all, about the thousand cached answers the mix is meant
# to carry beside its 201 fresh ones.
GROUP_REPEATS = 4
LIB_REPEATS = 8
STAR_REPEATS = 30
# Groups asked twice at once for the shared tier: a few, because each
# pair runs with nothing else in flight.
SHARED_PAIRS = 5


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q):
    """Nearest-rank `q`-quantile (0 < q < 1) of `values`.

    Raises TooFewSamples unless at least MIN_BEYOND samples lie beyond
    the chosen rank, so the median needs 20 samples and p95 200."""
    if not 0 < q < 1:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(values)
    rank = math.ceil(q * n)
    beyond = n - rank
    if n == 0 or beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def timing_line(name, value, unit, n):
    """One human line per reported timing, always with its sample count."""
    return f"{name} = {value:.6g} {unit} (n={n})"


_END = re.compile(
    r"^(?P<id>\S+) end scenarios=(?P<scenarios>\d+) groups=(?P<groups>\d+) "
    r"cache=(?P<cache>\d+) shared=(?P<shared>\d+) fresh=(?P<fresh>\d+) "
    r"failures=(?P<failures>\d+)$"
)


def parse_end(line):
    """Fields of a `swan-serve` `end` line as ints (plus `id`), or None."""
    m = _END.match(line)
    if m is None:
        return None
    return {k: (v if k == "id" else int(v)) for k, v in m.groupdict().items()}


def classify_tier(end):
    """The tier that answered a request: `fresh` if it executed any
    group, else `shared` if it joined another request's execution,
    else `cache`."""
    if end["fresh"] > 0:
        return "fresh"
    if end["shared"] > 0:
        return "shared"
    return "cache"


def digest(data):
    """SHA-256 hex digest of program output bytes."""
    return hashlib.sha256(data).hexdigest()


def digest_matches(data, pinned):
    """Whether output bytes hash to the digest the benchmark pins."""
    return digest(data) == pinned


# ---------------------------------------------------------------------------
# The plan as the pinned `swan-report --only` rows describe it
# ---------------------------------------------------------------------------


def parse_rows(text):
    """Scenario id -> row, in plan order, from `--only` output (the two
    header lines are skipped when present)."""
    rows = {}
    for line in text.splitlines():
        if not line or line.startswith("Scenario ") or line.startswith("---"):
            continue
        rows[line.split()[0]] = line
    return rows


@dataclass
class Group:
    """One execution group: scenarios sharing one instruction stream."""

    stream_id: str
    lib: str
    instrs: int
    scenarios: list = field(default_factory=list)

    @property
    def spec(self):
        """A filter selecting exactly this group."""
        kernel, imp, width = self.stream_id.split("/")
        return f"kernel={kernel.lower()},impl={imp.lower()},width={width}"


def plan_groups(rows):
    """Execution groups in order of first appearance, like
    `swan_core::execution_groups`."""
    groups = {}
    for sid, row in rows.items():
        stream = sid.rsplit("/", 1)[0]
        if stream not in groups:
            groups[stream] = Group(stream, sid.split(".", 1)[0], int(row.split()[1]))
        groups[stream].scenarios.append(sid)
    return list(groups.values())


# ---------------------------------------------------------------------------
# The serve_mix request sequence
# ---------------------------------------------------------------------------


@dataclass
class Request:
    """One query of the serve mix.

    `kind` is what the request is meant to exercise: `fresh` (first ask
    of a group), `shared` (the second of a duplicated in-flight pair)
    or `cache` (a repeat). `covers` are the group indices the spec
    selects and `scenarios` their scenario ids. A repeat is sent only
    once every group it covers has been answered, so it reaches a warm
    cache; `pair` marks the first of two requests written together
    while nothing else is in flight."""

    rid: str
    spec: str
    kind: str
    covers: frozenset
    scenarios: list
    pair: bool = False


def serve_requests(groups, seed):
    """The seeded serve mix: every group once as a single-group filter
    (fresh tier), SHARED_PAIRS of them asked twice at once (shared
    tier), and cache-tier repeats: every group GROUP_REPEATS times,
    every library (`lib=`) LIB_REPEATS times and the full plan (`*`)
    STAR_REPEATS times, each placed after every group it covers was
    asked. The two groups with the longest streams are asked at once,
    so every session holds both recordings together: the daemon's
    worst-case memory, where otherwise its peak would depend on which
    groups happened to overlap. The seed draws the order only, so every
    seed asks for the same rows."""
    rng = random.Random(seed)
    n = len(groups)
    heavy = sorted(range(n), key=lambda gi: -groups[gi].instrs)[:2]
    order = [gi for gi in range(n) if gi not in heavy]
    rng.shuffle(order)
    order.insert(rng.randrange(len(order) + 1), heavy[0])
    m = len(order)
    pos = {g: k for k, g in enumerate(order)}
    pos[heavy[1]] = pos[heavy[0]]
    paired = set(rng.sample([k for k in range(m) if k != pos[heavy[0]]], SHARED_PAIRS))
    libs = {}
    for gi, g in enumerate(groups):
        libs.setdefault(g.lib, []).append(gi)

    repeats = [(g.spec, frozenset([gi])) for gi, g in enumerate(groups)] * GROUP_REPEATS
    repeats += [(f"lib={lib}", frozenset(gs)) for lib, gs in sorted(libs.items())] * LIB_REPEATS
    repeats += [("*", frozenset(range(n)))] * STAR_REPEATS
    after = [[] for _ in range(m + 1)]
    for spec, covers in repeats:
        earliest = max(pos[gi] for gi in covers) + 1
        after[rng.randint(earliest, m)].append((spec, covers))
    for slot in after:
        rng.shuffle(slot)

    def add(spec, kind, covers, pair=False):
        scenarios = [s for gi in sorted(covers) for s in groups[gi].scenarios]
        out.append(Request(f"r{len(out):04d}", spec, kind, covers, scenarios, pair))

    out = []
    for k, gi in enumerate(order):
        one = frozenset([gi])
        if gi == heavy[0]:
            add(groups[gi].spec, "fresh", one, pair=True)
            add(groups[heavy[1]].spec, "fresh", frozenset([heavy[1]]))
        elif k in paired:
            add(groups[gi].spec, "fresh", one, pair=True)
            add(groups[gi].spec, "shared", one)
        else:
            add(groups[gi].spec, "fresh", one)
        for spec, covers in after[k + 1]:
            add(spec, "cache", covers)
    return out
