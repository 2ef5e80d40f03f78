"""Time-to-certified-roots benchmark of qheun.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Workloads (see perfbench/README.md for why each exists):

  verify-small     ``qheun verify`` in process on p1-p4 and sampled N <= 4 sets
  oracle-exact     the exact-recursion oracle battery, no numerics
  roots-certified  numeric image, isolation, refinement and residual, with
                   the exact polynomials built during set-up

One client runs the seed's cases one after another in whole passes until
``--seconds`` are used up.  Every case is checked against
perfbench/reference.json.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` runs one traced pass and one untraced pass of the same cases
and reports the per-layer metrics.  The last line of stdout is the result
as JSON.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run sets up at least SETUP_REPS times and for at least SETUP_MIN_S
#: seconds; setup_s is the median.  A set-up of verify-small takes ~40 ms.
SETUP_REPS = 5
SETUP_MIN_S = 1.0
#: Median time of ``calibrate`` on the reference machine (2-core Intel Xeon
#: container, Python 3.11.7).  Each set-up and each case is scaled by
#: CAL_REF_S over the mean of the calibrations right before and after it;
#: see ``calibrate``.
CAL_REF_S = 0.044


def calibrate() -> float:
    """Time a fixed Fraction-and-dict kernel, like the exact layers' inner
    loops.  On a shared host the speed of the same code drifts by 20% over
    tens of seconds (other tenants on the cores and caches); this kernel,
    run between cases and around every set-up, measures that drift so the
    timings can be scaled to the reference speed."""
    from fractions import Fraction

    start = time.perf_counter()
    acc, x = {}, Fraction(1, 3)
    for i in range(4000):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        acc[(i % 97, i % 5)] = acc.get((i % 97, i % 5), 0) + x.numerator % 1009
    return time.perf_counter() - start


def import_program() -> None:
    """Import qheun (every layer) from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "qheun" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qheun package under {src}")
    sys.path.insert(0, str(src))
    import qheun.cli

    if Path(qheun.cli.__file__).resolve().parent != (src / "qheun").resolve():
        raise SystemExit(f"perfbench: imported qheun from {qheun.cli.__file__}, not {src}")
    sys.path.insert(0, str(HERE))


def setup(args, reference, tmp) -> tuple[list, float]:
    """Import qheun afresh and build the seed's cases; return them and the
    time taken.  Dependencies such as mpmath stay imported."""
    import cases

    for name in [m for m in sys.modules if m == "qheun" or m.startswith("qheun.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("qheun.cli")
    importlib.reload(cases)
    case_list = cases.build(args.workload, reference, args.seed, tmp)
    return case_list, time.perf_counter() - start


class Stats:
    """Per-case results of one or more passes."""

    def __init__(self):
        self.times: list[float] = []
        #: per case, the mean calibration time before and after it
        self.speeds: list[float] = []
        self.outcomes: list = []
        self.failures: dict[str, int] = {}

    def scaled_times(self) -> list[float]:
        return [t * CAL_REF_S / c for t, c in zip(self.times, self.speeds)]

    def add(self, seconds, outcome, failure):
        self.times.append(seconds)
        self.outcomes.append(outcome)
        if failure:
            self.failures[failure] = self.failures.get(failure, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_pass(workload, case_list, stats: Stats, tracer=None, calibrated=False) -> float:
    """Run every case once; return the wall time of the pass.  When
    ``calibrated``, ``calibrate`` runs before every case and after the last
    (inside the pass time), and ``stats.speeds`` gets each case's share.
    Each case starts from a collected heap, so the cyclic collector's work
    inside a case does not depend on the garbage of the case before it."""
    import cases

    runner = cases.RUNNERS[workload]
    calibrations = []
    start = time.perf_counter()
    for case in case_list:
        gc.collect()
        if calibrated:
            calibrations.append(calibrate())
        if tracer is not None:
            tracer.case = case["id"]
        t0 = time.perf_counter()
        try:
            out = runner(case)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = cases.Outcome(error=f"{type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        stats.add(dt, out, cases.check(case, out))
    if calibrated:
        calibrations.append(calibrate())
        stats.speeds.extend((a + b) / 2 for a, b in zip(calibrations, calibrations[1:]))
    return time.perf_counter() - start


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(args, reference, tmp) -> tuple[Stats, dict]:
    setups, scaled_setups, case_list = [], [], None
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_MIN_S:
        case_list = None  # each set-up starts without the previous one's cases
        gc.collect()
        before = calibrate()
        case_list, seconds = setup(args, reference, tmp)
        after = calibrate()
        setups.append(seconds)
        scaled_setups.append(seconds * CAL_REF_S * 2 / (before + after))
    stats = Stats()
    start = time.perf_counter()
    while True:
        last = run_pass(args.workload, case_list, stats, calibrated=True)
        # another whole pass only if it ends nearer to --seconds than stopping
        if time.perf_counter() - start + last / 2 >= args.seconds:
            break
    measured = time.perf_counter() - start
    n = len(stats.times)
    times = stats.scaled_times()
    scale = CAL_REF_S / statistics.median(stats.speeds)
    setup_s = statistics.median(setups)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(statistics.median(scaled_setups), "s"),
        "cases_per_s": metric(n / sum(times), "1/s"),
        "case_p50_s": metric(statistics.median(times), "s"),
        "first_try_frac": metric(sum(o.first_try_ok for o in stats.outcomes) / n, "ratio"),
        "peak_rss_mb": metric(rss_kb / 1024, "MB"),
    }
    print(f"perfbench: {args.workload} seed={args.seed}: {len(case_list)} cases per pass, "
          f"{n} run, {n // len(case_list)} passes in {measured:.1f} s")
    print(f"perfbench: unscaled setup_s={setup_s!r} cases_per_s={n / sum(stats.times)!r} "
          f"case_p50_s={statistics.median(stats.times)!r}; median speed scale {scale!r}")
    return stats, metrics


def _hooks(case_bits: dict):
    def exact(tracer, args, result):
        polys, events = result
        tracer.counts["spectral.terms"] += sum(len(c) for c in polys[-1].coeffs)
        tracer.counts["spectral.cancel_events"] += len(events)

    def image(tracer, args, result):
        tracer.counts["spectral.image_terms"] += sum(len(c) for c in args[0].coeffs)

    def solved(tracer, args, result):
        case_bits[tracer.case] = max(case_bits.get(tracer.case, 0), result[1])

    return {"spectral.coefficients_exact": exact, "spectral.image": image,
            "roots.find_spectral_roots": solved}


def traced_run(args, reference, tmp) -> tuple[Stats, dict]:
    import cases
    import tracing

    case_bits: dict = {}
    tracer = tracing.Tracer()
    tracer.install(_hooks(case_bits))
    try:
        tracer.case = "setup"
        case_list = cases.build(args.workload, reference, args.seed, tmp)
        stats = Stats()
        traced_s = run_pass(args.workload, case_list, stats, tracer)
    finally:
        tracer.uninstall()
    plain_s = run_pass(args.workload, case_list, Stats())
    spans = tracer.spans
    n = len(case_list)

    def per_case_time(*names):
        return metric(tracing.group_time(spans, set(names)) / n, "s")

    def per_case_count(key):
        return metric(tracer.counts.get(key, 0) / n, "count")

    calls = sum(1 for s in spans if s[0] == "spectral.coefficients_exact")
    returned = sum(o.returned for o in stats.outcomes)
    certified = sum(o.certified for o in stats.outcomes)
    cover = tracing.covered_share(spans, "cli.main")
    metrics = {f"{layer}.self_s": metric(t / n, "s") for layer, t in tracing.layer_self(spans).items()}
    metrics.update({
        "trace.overhead_s": metric((traced_s - plain_s) / n, "s"),
        "trace.overhead_frac": metric((traced_s - plain_s) / plain_s, "ratio"),
        "cli.main_s": per_case_time("cli.main"),
        "cli.main_child_cover": metric(cover if cover is not None else 0.0, "ratio"),
        "spectral.coefficients_exact_s": per_case_time("spectral.coefficients_exact"),
        "spectral.exact_calls_per_case": metric(calls / n, "count"),
        "spectral.terms": per_case_count("spectral.terms"),
        "spectral.cancel_events": per_case_count("spectral.cancel_events"),
        "spectral.image_s": per_case_time("spectral.image"),
        "spectral.image_terms": per_case_count("spectral.image_terms"),
        "spectral.residual_s": per_case_time("spectral.coefficients_numeric", "spectral.residual_check"),
        "qmono.reduce_s": per_case_time("qmono.reduce"),
        "qmono.compare_s": per_case_time("qmono.equiv_sim", "qmono.equiv_approx", "qmono.ultradiscretize"),
        "ultra.tilde_cN1_s": per_case_time("ultra.tilde_cN1"),
        "ultra.leading_recursion_s": per_case_time("ultra.leading_recursion"),
        "ultra.collision_check_s": per_case_time("ultra.collision_check"),
        "ultra.multiplicity_prefactors_s": per_case_time("ultra.multiplicity_prefactors"),
        "roots.find_real_roots_s": per_case_time("roots.find_real_roots"),
        "roots.estimate_exponents_s": per_case_time("roots.estimate_exponents"),
        "roots.match_predictions_s": per_case_time("roots.match_predictions"),
        "roots.bits_final": metric(sum(case_bits.get(c["id"], 0) for c in case_list) / n, "bits"),
        "roots.sturm_escalations": per_case_count("roots.find_real_roots.raised.PrecisionError"),
        "roots.client_retries": metric(sum(len(o.attempts) - 1 for o in stats.outcomes
                                           if o.attempts) / n, "count"),
        "roots.certified_ratio": metric(certified / returned if returned else 0.0, "ratio"),
    })
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
    out.write_text(json.dumps({"spans": spans, "counts": tracer.counts}))
    print(f"perfbench: {args.workload} seed={args.seed}: traced {n} cases, "
          f"{len(spans)} spans written to {out.relative_to(ROOT)}")
    return stats, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify-small", "oracle-exact", "roots-certified"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    reference = json.loads((HERE / "reference.json").read_text())
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench"))
    try:
        if args.trace:
            stats, metrics = traced_run(args, reference, tmp)
        else:
            stats, metrics = timed_run(args, reference, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for reason, count in sorted(stats.failures.items()):
        print(f"perfbench: FAILED x{count}: {reason}")
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']!r} {m['unit']}")
    attempted = len(stats.times)
    print(json.dumps({"correct": stats.failed == 0, "attempted": attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
