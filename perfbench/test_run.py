#!/usr/bin/env python3
"""Tests of the benchmark's own code: python3 perfbench/test_run.py"""

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class StatisticsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_tail_needs_eleven_samples(self):
        self.assertIsNone(run.tail([1.0] * 10))
        t = run.tail([float(x) for x in range(1, 12)])
        self.assertEqual(t, {"percentile": 9, "value": 1.0, "samples": 11})

    def test_tail_known_inputs(self):
        self.assertEqual(run.tail([float(x) for x in range(20, 0, -1)]),
                         {"percentile": 50, "value": 10.0, "samples": 20})
        self.assertEqual(run.tail([float(x) for x in range(1, 111)]),
                         {"percentile": 90, "value": 99.0, "samples": 110})

    def test_tail_is_the_highest_percentile_with_ten_beyond(self):
        for n in range(11, 400):
            values = [float(x) for x in range(n)]
            t = run.tail(values)
            self.assertGreaterEqual(sum(v > t["value"] for v in values), 10)
            # One percentile higher leaves fewer than ten samples beyond.
            rank = math.ceil((t["percentile"] + 1) * n / 100)
            self.assertLess(n - rank, 10, n)


class SelfTimeTest(unittest.TestCase):
    def span(self, id, parent, start, end):
        return {"id": id, "parent": parent, "pair_of": 0, "name": str(id),
                "start_ns": start, "end_ns": end}

    def test_self_time_subtracts_covered_part_once(self):
        spans = [
            self.span(1, 0, 0, 100),
            self.span(2, 1, 10, 30),
            self.span(3, 1, 20, 50),  # overlaps span 2
            self.span(4, 1, 90, 120),  # runs past its parent
            self.span(5, 2, 12, 28),  # a grandchild: covered by span 2
        ]
        own = run.self_times(spans)
        self.assertEqual(own[1], 100 - 40 - 10)
        self.assertEqual(own[2], 20 - 16)
        self.assertEqual(own[3], 30)
        self.assertEqual(own[5], 16)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([self.span(7, 0, 5, 9)]), {7: 4})


class DigestCheckTest(unittest.TestCase):
    def test_one_byte_change_is_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            doc = Path(d) / "bench_fig16_speedup.json"
            text = json.dumps({"schema": "sprof.bench_report/1",
                               "figure": "figure-16-speedup", "rows": [1.25]})
            doc.write_text(text)
            expected = {doc.name: run.sha256(doc)}
            self.assertEqual(run.check_documents(d, expected), (1, []))

            doc.write_text(text.replace("1.25", "1.26"))
            attempted, failures = run.check_documents(d, expected)
            self.assertEqual(attempted, 1)
            self.assertEqual(failures,
                             ["bench_fig16_speedup.json: digest mismatch"])

    def test_missing_and_unexpected_documents_fail(self):
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "extra.json").write_text("{}")
            _, failures = run.check_documents(d, {"fig.json": "0" * 64})
            self.assertEqual(failures, ["fig.json: missing",
                                        "extra.json: unexpected document"])

    def test_shipped_digests_cover_every_figure(self):
        table = run.load_digests()
        self.assertGreaterEqual(len(table["offsets"]), 2)
        for docs in table["offsets"].values():
            self.assertEqual(len(docs), 11)
        self.assertIn(str(table["held_back"]), table["offsets"])

    def test_every_seed_selects_a_shipped_offset(self):
        table = run.load_digests()
        for seed in range(100):
            self.assertIn(str(run.repro_offset(seed, table)), table["offsets"])


class PredictionsTest(unittest.TestCase):
    def test_every_per_layer_metric_has_a_prediction(self):
        here = Path(__file__).resolve().parent
        bench = json.loads((here.parent / "BENCHMARK.json").read_text())
        layers = json.loads((here / "layers.json").read_text())
        names = [m["name"] for m in bench["per_layer"]]
        self.assertLessEqual(set(layers["metrics"]), set(names))
        used = {n.split(".")[0] for n in names}
        self.assertEqual(set(layers["modules"]), used)
        workloads = {w["name"] for w in bench["workloads"]}
        for name in names:
            p = run.prediction(name, layers)
            for key in ("on", "unchanged_on", "small_on"):
                self.assertLessEqual(set(p.get(key, [])), workloads, name)

    def test_a_metric_entry_overrides_its_module(self):
        layers = {"modules": {"stream": {"moves": ["wall_s"]}},
                  "metrics": {"stream.write_s": {"moves": ["setup_s"]}}}
        self.assertEqual(run.prediction("stream.decode_s", layers),
                         {"moves": ["wall_s"]})
        self.assertEqual(run.prediction("stream.write_s", layers),
                         {"moves": ["setup_s"]})


if __name__ == "__main__":
    unittest.main()
