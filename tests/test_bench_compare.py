#!/usr/bin/env python3
"""Pins the gating rules of tools/bench_compare.py.

The tier-1 bench oracle (bench/CMakeLists.txt) takes its verdict from that
script, so its rules are tested here on BENCH_*.json fixtures built in a
temporary directory. Run directly: python3 tests/test_bench_compare.py
"""
import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree clean under ctest
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_compare  # noqa: E402


def bench_doc(ticks=100, wall_ms=2.5, label="ring-16"):
    return {
        "experiment": "E0",
        "env": {"compiler": "cc", "build": "release", "hardware_threads": 4,
                "quick": True},
        "tables": {
            "runs": {"caption": "fixture",
                     "columns": ["workload", "ticks", "wall_ms"],
                     "rows": [[label, ticks, wall_ms], ["ring-32", 200, 5.0]]},
        },
    }


class BenchCompareRules(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.baseline = Path(tmp.name) / "baseline"
        self.fresh = Path(tmp.name) / "fresh"
        self.baseline.mkdir()
        self.fresh.mkdir()

    def put(self, directory, name, doc):
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")

    def run_compare(self, *extra):
        argv = ["bench_compare.py", "--baseline", str(self.baseline),
                "--fresh", str(self.fresh), *extra]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bench_compare.main(argv)
        return code, out.getvalue() + err.getvalue()

    def test_identical_tables_pass(self):
        self.put(self.baseline, "BENCH_E0.json", bench_doc())
        self.put(self.fresh, "BENCH_E0.json", bench_doc())
        self.assertEqual(self.run_compare()[0], 0)

    def test_env_block_is_ignored(self):
        fresh = bench_doc()
        fresh["env"] = {"compiler": "other", "hardware_threads": 64}
        self.put(self.baseline, "BENCH_E0.json", bench_doc())
        self.put(self.fresh, "BENCH_E0.json", fresh)
        self.assertEqual(self.run_compare()[0], 0)

    def test_any_numeric_drift_fails_at_tol_zero(self):
        self.put(self.baseline, "BENCH_E0.json", bench_doc(ticks=100))
        self.put(self.fresh, "BENCH_E0.json", bench_doc(ticks=101))
        code, text = self.run_compare()
        self.assertEqual(code, 1)
        self.assertIn("row 0 [ticks]", text)

    def test_string_cell_must_match(self):
        self.put(self.baseline, "BENCH_E0.json", bench_doc(label="ring-16"))
        self.put(self.fresh, "BENCH_E0.json", bench_doc(label="ring-17"))
        self.assertEqual(self.run_compare()[0], 1)

    def test_skip_column_never_gates(self):
        self.put(self.baseline, "BENCH_E0.json", bench_doc(wall_ms=2.5))
        self.put(self.fresh, "BENCH_E0.json", bench_doc(wall_ms=9000.0))
        self.assertEqual(self.run_compare("--tol-col", "wall_ms=skip")[0], 0)
        self.assertEqual(self.run_compare()[0], 1)

    def test_column_tolerance_applies_to_that_column_only(self):
        self.put(self.baseline, "BENCH_E0.json", bench_doc(ticks=100,
                                                           wall_ms=2.0))
        # wall_ms within 50 %, ticks 1 % off: only the ticks cell fails.
        self.put(self.fresh, "BENCH_E0.json", bench_doc(ticks=101,
                                                        wall_ms=3.0))
        code, text = self.run_compare("--tol-col", "wall_ms=0.5")
        self.assertEqual(code, 1)
        self.assertIn("[ticks]", text)
        self.assertNotIn("[wall_ms]", text)
        # Beyond the column's band it fails too.
        self.put(self.fresh, "BENCH_E0.json", bench_doc(wall_ms=4.5))
        code, text = self.run_compare("--tol-col", "wall_ms=0.5")
        self.assertEqual(code, 1)
        self.assertIn("[wall_ms]", text)

    def test_baseline_without_fresh_twin_fails(self):
        self.put(self.baseline, "BENCH_E0.json", bench_doc())
        self.put(self.baseline, "BENCH_E1.json", bench_doc())
        self.put(self.fresh, "BENCH_E0.json", bench_doc())
        code, text = self.run_compare()
        self.assertEqual(code, 1)
        self.assertIn("BENCH_E1.json: missing", text)

    def test_fresh_without_baseline_is_informational(self):
        self.put(self.baseline, "BENCH_E0.json", bench_doc())
        self.put(self.fresh, "BENCH_E0.json", bench_doc())
        self.put(self.fresh, "BENCH_E9.json", bench_doc(ticks=1))
        code, text = self.run_compare()
        self.assertEqual(code, 0)
        self.assertIn("note: BENCH_E9.json has no baseline", text)

    def test_row_count_change_fails(self):
        fresh = bench_doc()
        fresh["tables"]["runs"]["rows"].pop()
        self.put(self.baseline, "BENCH_E0.json", bench_doc())
        self.put(self.fresh, "BENCH_E0.json", fresh)
        self.assertEqual(self.run_compare()[0], 1)


if __name__ == "__main__":
    unittest.main()
