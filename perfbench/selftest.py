"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks the span arithmetic on a synthetic span tree, that the tracer's
wrappers reach names imported into other modules and come off again, and
that a case disagreeing with its reference is counted as failed.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# (name, start, end, parent slot, case, slot) in closing order:
#   cli.main [0, 10] -> spectral.x [1, 4], roots.y [5, 9] -> qmono.z [6, 8]
SPANS = [
    ("spectral.x", 1.0, 4.0, 0, 7, 1),
    ("qmono.z", 6.0, 8.0, 2, 7, 3),
    ("roots.y", 5.0, 9.0, 0, 7, 2),
    ("cli.main", 0.0, 10.0, -1, 7, 0),
]


class SpanArithmetic(unittest.TestCase):
    def test_self_time_per_layer(self):
        got = tracing.layer_self(SPANS)
        self.assertEqual(got, {"cli": 3.0, "spectral": 3.0, "roots": 2.0, "qmono": 2.0, "ultra": 0.0})
        self.assertEqual(sum(got.values()), 10.0)

    def test_group_time_counts_nested_spans_once(self):
        self.assertEqual(tracing.group_time(SPANS, {"roots.y", "qmono.z"}), 4.0)
        self.assertEqual(tracing.group_time(SPANS, {"qmono.z"}), 2.0)

    def test_child_cover(self):
        self.assertAlmostEqual(tracing.covered_share(SPANS, "cli.main"), 0.7)
        self.assertIsNone(tracing.covered_share(SPANS, "ultra.none"))


class TracerInstall(unittest.TestCase):
    def test_wraps_imported_names_and_restores_them(self):
        from qheun import cli, roots, spectral, ultra

        original = spectral.spectral_polynomial
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module in (spectral, cli, roots, ultra):
                self.assertIsNot(module.spectral_polynomial, original)
            p = cases.derive(dict(zip(spectral.HeunParams._FIELD_NAMES, cases.FIXTURES["p3"])))
            tracer.case = "p3"
            ultra.multiplicity_prefactors(p, ultra.classify(p))
            spectral.spectral_polynomial(p).coefficient_values(1e-3, 1, 1)
        finally:
            tracer.uninstall()
        for module in (spectral, cli, roots, ultra):
            self.assertIs(module.spectral_polynomial, original)
        names = [s[0] for s in tracer.spans]
        self.assertIn("spectral.coefficients_exact", names)
        self.assertIn("spectral.image", names)
        self.assertIn("ultra.classify", names)
        self.assertTrue(all(s[4] == "p3" for s in tracer.spans))


class ReferenceMismatch(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.reference = json.loads((HERE / "reference.json").read_text())

    def _fail_frac(self, workload, corrupt):
        reference = copy.deepcopy(self.reference)
        spec = reference[workload]
        cheapest = min((s for s in spec["strata"]), key=lambda s: s["entries"][0]["cost_s"])
        entry = cheapest["entries"][0]
        corrupt(entry)
        spec["strata"] = [{"name": cheapest["name"], "entries": [entry]}]
        (HERE.parent / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE.parent / ".perfbench") as tmp:
            case_list = cases.build(workload, reference, 1, Path(tmp))
            stats = run.Stats()
            run.run_pass(workload, case_list, stats)
        return stats.failed / len(stats.times)

    def test_unchanged_reference_passes(self):
        self.assertEqual(self._fail_frac("oracle-exact", lambda e: None), 0)

    def test_digest_mismatch_fails(self):
        self.assertGreater(self._fail_frac("oracle-exact", lambda e: e.update(digest="0" * 64)), 0)

    def test_event_count_mismatch_fails(self):
        def corrupt(e):
            e["events"] = dict(e["events"], **{"exact-zero": e["events"].get("exact-zero", 0) + 1})

        self.assertGreater(self._fail_frac("oracle-exact", corrupt), 0)

    def test_root_mismatch_fails(self):
        def corrupt(e):
            # the 20th significant digit moves by more than one unit
            e["roots"][0] = str(Fraction(e["roots"][0]) * (1 + Fraction(3, 10 ** 19)))

        self.assertGreater(self._fail_frac("roots-certified", corrupt), 0)

    def test_selection_is_seeded(self):
        strata = self.reference["roots-certified"]["strata"]
        a = cases.select(strata, random.Random(5))
        self.assertEqual(a, cases.select(strata, random.Random(5)))
        self.assertEqual(len(a), sum(len(cases.groups(s["entries"])) for s in strata))

    def test_groups_pair_only_like_attempts(self):
        entries = [{"attempts": [512]}, {"attempts": [512]}, {"attempts": [512]},
                   {"attempts": [512, 1024]}, {"attempts": [512, 1024]}]
        self.assertEqual([len(g) for g in cases.groups(entries)], [2, 1, 2])


if __name__ == "__main__":
    unittest.main()
