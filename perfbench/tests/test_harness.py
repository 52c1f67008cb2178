"""Tests of the benchmark's pure helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import random
import sys
import unittest
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
import harness  # noqa: E402

ROWS = harness.parse_rows((HERE / "pinned_rows.txt").read_text())
GROUPS = harness.plan_groups(ROWS)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        random.Random(1).shuffle(values)
        self.assertEqual(harness.percentile(values, 0.5), 50)
        self.assertEqual(harness.percentile(values, 0.9), 90)

    def test_refuses_fewer_than_ten_beyond(self):
        self.assertEqual(harness.percentile(list(range(20)), 0.5), 9)
        with self.assertRaises(harness.TooFewSamples):
            harness.percentile(list(range(19)), 0.5)
        self.assertEqual(harness.percentile(list(range(200)), 0.95), 189)
        with self.assertRaises(harness.TooFewSamples):
            harness.percentile(list(range(199)), 0.95)
        with self.assertRaises(harness.TooFewSamples):
            harness.percentile(list(range(201)), 0.99)
        with self.assertRaises(harness.TooFewSamples):
            harness.percentile([], 0.5)

    def test_rejects_quantile_outside_unit_interval(self):
        for q in (0, 1, 1.5):
            with self.assertRaises(ValueError):
                harness.percentile(list(range(100)), q)

    def test_timing_line_carries_sample_count(self):
        self.assertEqual(harness.timing_line("wall_s", 1.5, "s", 7), "wall_s = 1.5 s (n=7)")


class TierTest(unittest.TestCase):
    def end(self, cache, shared, fresh):
        line = (f"r0001 end scenarios=3 groups={cache + shared + fresh} "
                f"cache={cache} shared={shared} fresh={fresh} failures=0")
        return harness.parse_end(line)

    def test_fresh_wins_over_shared_and_cache(self):
        self.assertEqual(harness.classify_tier(self.end(1, 1, 1)), "fresh")
        self.assertEqual(harness.classify_tier(self.end(0, 0, 1)), "fresh")

    def test_shared_wins_over_cache(self):
        self.assertEqual(harness.classify_tier(self.end(2, 1, 0)), "shared")

    def test_otherwise_cache(self):
        self.assertEqual(harness.classify_tier(self.end(3, 0, 0)), "cache")

    def test_parse_end(self):
        end = harness.parse_end(
            "q7 end scenarios=485 groups=201 cache=200 shared=0 fresh=1 failures=0")
        self.assertEqual(end["id"], "q7")
        self.assertEqual((end["scenarios"], end["groups"], end["fresh"]), (485, 201, 1))
        self.assertIsNone(harness.parse_end("q7 row ZL.adler32/Scalar/w128/prime 1 2"))
        self.assertIsNone(harness.parse_end("q7 error invalid filter"))


class DigestTest(unittest.TestCase):
    def test_matches_only_identical_bytes(self):
        out = b"=== Table 2 ===\nrow 1\n"
        pinned = harness.digest(out)
        self.assertTrue(harness.digest_matches(out, pinned))
        self.assertFalse(harness.digest_matches(out.replace(b"1", b"2"), pinned))
        self.assertFalse(harness.digest_matches(out + b"\n", pinned))

    def test_pinned_rows_describe_the_plan(self):
        self.assertEqual(len(ROWS), 485)
        self.assertEqual(len(GROUPS), 201)
        self.assertTrue(all(sid == row.split()[0] for sid, row in ROWS.items()))


class ServeMixTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        a = harness.serve_requests(GROUPS, 7)
        b = harness.serve_requests(GROUPS, 7)
        self.assertEqual([(r.spec, r.kind) for r in a], [(r.spec, r.kind) for r in b])

    def test_seed_changes_order_not_content(self):
        a = harness.serve_requests(GROUPS, 1)
        b = harness.serve_requests(GROUPS, 2)
        self.assertNotEqual([r.spec for r in a], [r.spec for r in b])
        cache = lambda rs: Counter(r.spec for r in rs if r.kind == "cache")  # noqa: E731
        self.assertEqual(cache(a), cache(b))

    def test_every_group_fresh_once_and_repeats_follow_it(self):
        for seed in range(20):
            reqs = harness.serve_requests(GROUPS, seed)
            asked = set()
            for i, r in enumerate(reqs):
                if r.kind == "fresh":
                    self.assertEqual(len(r.covers), 1)
                    self.assertFalse(r.covers & asked)
                    asked |= r.covers
                elif r.kind == "shared":
                    self.assertTrue(reqs[i - 1].pair)
                    self.assertEqual(reqs[i - 1].spec, r.spec)
                else:
                    self.assertLessEqual(r.covers, asked)
            self.assertEqual(len(asked), len(GROUPS))
            kinds = Counter(r.kind for r in reqs)
            self.assertEqual(kinds, {"fresh": 201, "shared": 5, "cache": 930})

    def test_two_longest_streams_are_asked_together(self):
        longest = sorted(GROUPS, key=lambda g: -g.instrs)[:2]
        for seed in range(20):
            reqs = harness.serve_requests(GROUPS, seed)
            together = [(a.spec, b.spec) for a, b in zip(reqs, reqs[1:])
                        if a.pair and a.kind == b.kind == "fresh"]
            self.assertEqual(together, [(longest[0].spec, longest[1].spec)])

    def test_group_spec_selects_its_scenarios(self):
        kernels = {g.stream_id.split("/")[0].lower() for g in GROUPS}
        for g in GROUPS:
            kernel, imp, width = g.stream_id.split("/")
            self.assertEqual(g.spec, f"kernel={kernel.lower()},impl={imp.lower()},width={width}")
            self.assertTrue(all(s.startswith(g.stream_id + "/") for s in g.scenarios))
            # `kernel=` matches by substring: no other kernel id may contain it.
            self.assertEqual([k for k in kernels if kernel.lower() in k], [kernel.lower()])


if __name__ == "__main__":
    unittest.main()
