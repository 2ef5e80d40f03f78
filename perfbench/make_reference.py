"""Draw the case pools and write the committed reference, perfbench/reference.json.

    python3 perfbench/make_reference.py

Parameter sets come from ``qheun.sampling.sample_params`` with a fixed pool
seed per stratum, plus the fixtures p1-p4.  Each candidate runs once per q
(or q pair) with the same runner the benchmark uses; its outputs become the
reference.  The only reason to drop a candidate is cost: one with a case
slower than CASE_COST_CAP_S is recorded under ``excluded`` and never runs in
the benchmark.  A candidate whose case fails stays in its pool, with the
failure recorded as ``error``, so that the benchmark counts it.  Entries of
a stratum are sorted by a deterministic cost key (squared bits of every
attempt, then the number of terms of c_{N+1}), so that ``cases.groups`` pairs
entries of similar cost.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
from qheun import spectral  # noqa: E402
from qheun.sampling import sample_params  # noqa: E402

#: A single case slower than this would take most of a run.
CASE_COST_CAP_S = 15.0

#: workload -> [(regime, N, pool size)].  The largest N of each workload has
#: one entry per stratum, which every seed runs: its cases differ in cost by
#: up to 4x between draws (retries), more than seeded pairs could even out.
DESIGN = {
    "verify-small": [(r, n, 1 if n == 4 else 2) for r in ("R31", "R32", "R33") for n in (1, 2, 3, 4)],
    "oracle-exact": [(r, n, k) for r in ("R31", "R32", "R33") for n, k in ((4, 4), (6, 12), (8, 1))],
    "roots-certified": [(r, n, k) for r in ("R31", "R32", "R33") for n, k in ((4, 2), (6, 1))],
}


def _qs(workload):
    if workload == "verify-small":
        return [list(qp) for qp in cases.VERIFY_QPAIRS]
    if workload == "roots-certified":
        return list(cases.ROOTS_QS)
    return [None]


def _run_one(workload, p, regime, q, tmp: Path):
    case = {"id": 0, "p": p, "N": p.N, "regime": regime}
    if workload == "verify-small":
        case.update(path=tmp / "case.params", out=tmp / "out", qs=q)
        cases.write_params(p, case["path"])
    elif workload == "roots-certified":
        case.update(qv=Fraction(q), epoly=spectral.spectral_polynomial(p))
    start = time.perf_counter()
    try:
        out = cases.RUNNERS[workload](case)
    except Exception as exc:  # the reason is recorded, the pool goes on
        out = cases.Outcome(error=f"{type(exc).__name__}: {exc}")
    cost = time.perf_counter() - start
    entry = {"params": cases.params_dict(p), "regime": regime, "N": p.N,
             "cost_s": round(cost, 3),
             "terms": sum(len(c) for c in spectral.spectral_polynomial(p).coeffs)}
    if workload == "oracle-exact":
        entry.update(digest=out.digest, events=out.events)
    else:
        entry.update({"qs" if workload == "verify-small" else "q": q},
                     roots=out.roots, attempts=out.attempts, first_try_ok=out.first_try_ok)
    if out.error:
        entry["error"] = out.error
        print(f"{workload} {regime} N={p.N} q={q}: FAILS: {out.error}", flush=True)
    too_slow = f"case took {cost:.1f} s > {CASE_COST_CAP_S} s" if cost > CASE_COST_CAP_S else None
    return entry, too_slow


def _cost_key(entry):
    return (sum(b * b for b in entry.get("attempts", ())), entry["terms"])


def build_workload(workload: str, tmp: Path) -> dict:
    design = DESIGN[workload]
    qs = _qs(workload)
    strata, excluded = [], []
    if workload == "verify-small":
        for name, raw in cases.FIXTURES.items():
            p = cases.derive(dict(zip(spectral.HeunParams._FIELD_NAMES, raw)))
            for q in qs:
                entry, _ = _run_one(workload, p, name, q, tmp)
                strata.append({"name": f"{name} q={q}", "entries": [entry]})
    for regime, N, size in design:
        rng = random.Random(f"pool:{workload}:{regime}:{N}")
        per_q = {i: [] for i in range(len(qs))}
        while len(per_q[0]) < size:
            p = sample_params(regime, rng, N=N)
            results = [_run_one(workload, p, regime, q, tmp) for q in qs]
            too_slow = [f"q={q}: {why}" for q, (_, why) in zip(qs, results) if why]
            if too_slow:
                excluded.append({"params": cases.params_dict(p), "regime": regime,
                                 "N": N, "reason": "; ".join(too_slow)})
                print(f"{workload} {regime} N={N}: excluded: {too_slow}", flush=True)
                continue
            for i, (entry, _) in enumerate(results):
                per_q[i].append(entry)
            print(f"{workload} {regime} N={N}: "
                  + " ".join(f"{e['cost_s']:.2f}s" for e, _ in results), flush=True)
        for i, q in enumerate(qs):
            strata.append({"name": f"{regime} N={N}" + (f" q={q}" if q else ""),
                           "entries": sorted(per_q[i], key=_cost_key)})
    return {"strata": strata, "excluded": excluded}


def main() -> int:
    (HERE.parent / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent / ".perfbench") as tmp:
        reference = {w: build_workload(w, Path(tmp)) for w in cases.RUNNERS}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
