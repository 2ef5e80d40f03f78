"""Cases of the three workloads: how each one runs, and how its output is
checked against the committed reference.

Every function reaches qheun through module attributes at call time
(``ultra.classify(...)``), so the wrappers of a traced run see each call.

A case is a dict built from one reference entry (``params`` as strings,
``regime``, ``N`` and the workload's own fields) plus ``id``.  ``run_*``
returns an ``Outcome``; ``check`` compares it with the entry.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath

from qheun import cli, qmono, roots, spectral, ultra

#: A root is certified when the equation residual is at most this.
TOL_RESIDUAL = mpmath.mpf(10) ** -30
BASE_BITS = 512
MAX_BITS = 4096
#: Roots must agree with the reference to this many significant digits.
REF_DIGITS = 20

#: The fixtures p1-p4 of tests/conftest.py (h1 h2 l1 l2 alpha1 alpha2 beta t1 t2).
FIXTURES = {
    "p1": ("-5", "1", "0", "1", "0", "1/2", "1/2", "1", "1"),
    "p2": ("0", "1", "1", "4", "0", "-1/2", "1/2", "1", "1"),
    "p3": ("0", "1", "1", "3", "0", "1/2", "1/2", "1", "1"),
    "p4": ("-1", "0", "8", "10", "1", "0", "-10", "1", "1"),
}

VERIFY_QPAIRS = (("1/1000", "1/10000"), ("1/100000", "1/1000000"))
ROOTS_QS = ("1/1000", "1/1000000")


@dataclass
class Outcome:
    """What one case produced.  ``error`` names why it failed, if it did."""

    error: str | None = None
    first_try_ok: bool = True
    attempts: list[int] = field(default_factory=list)
    roots: list[str] = field(default_factory=list)
    returned: int = 0
    certified: int = 0
    digest: str | None = None
    events: dict[str, int] = field(default_factory=dict)


def params_dict(p) -> dict[str, str]:
    return {k: str(v) for k, v in p.raw().items()}


def derive(params: dict[str, str]):
    return spectral.derive(**{k: Fraction(v) for k, v in params.items()})


def fmt(x) -> str:
    with mpmath.workprec(160):
        return mpmath.nstr(x, 40)


def poly_digest(ep) -> str:
    """sha256 over every term of an EPoly, in a canonical order."""
    h = hashlib.sha256()
    m = ep.denom_monomial
    h.update(f"den {m.qexp} {m.t1pow} {m.t2pow} {m.coeff} {list(map(str, ep.denom_factors))}\n".encode())
    for j, c in enumerate(ep.coeffs):
        for t in sorted(c.terms, key=lambda t: (t.qexp, t.t1pow, t.t2pow)):
            h.update(f"{j} {t.qexp} {t.t1pow} {t.t2pow} {t.coeff}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# oracle-exact: the acceptance criteria 5 and 6 battery, no numerics
# ---------------------------------------------------------------------------


def run_oracle(case) -> Outcome:
    p, regime = case["p"], case["regime"]
    tag = ultra.classify(p)
    if tag.regime != regime:
        return Outcome(error=f"classified {tag.regime}, expected {regime}")
    ultra.predict_roots(p, tag)
    polys, events = spectral.coefficients_exact(p)
    exact = polys[-1]
    til = ultra.tilde_cN1(p, tag)
    cmp = qmono.equiv_sim if regime == ultra.R33 else qmono.equiv_approx
    for j in range(p.N + 2):
        if not cmp(exact.reduced_coefficient(j), til.reduced_coefficient(j)):
            return Outcome(error=f"limit-product oracle fails at E^{j}")
    ultra.leading_recursion(p, tag)  # raises CancellationError on failure
    if regime != ultra.R33:
        if ultra.collision_check(p, p.N + 1, tag):
            return Outcome(error="collision_check reports a collision")
        if any(e.kind == qmono.SIGN_CONFLICT for e in events):
            return Outcome(error="sign conflict in the exact recursion")
        for m, ep in enumerate(polys):
            for j in range(m + 1):
                qmono.ultradiscretize(ep.reduced_coefficient(j))
    return Outcome(digest=poly_digest(exact), events=dict(Counter(e.kind for e in events)))


# ---------------------------------------------------------------------------
# roots-certified: numeric image, isolation, refinement, residual, retry
# ---------------------------------------------------------------------------


def run_roots(case) -> Outcome:
    """Solve until every root's residual is certified, doubling the bits
    after each uncertified answer, as a user needing the answer would."""
    p, q, ep = case["p"], case["qv"], case["epoly"]
    preds = ultra.predict_roots(p, ultra.classify(p))
    out = Outcome()
    bits = BASE_BITS
    while True:
        found, used = roots.find_spectral_roots(p, q, bits, epoly=ep, predictions=preds)
        out.attempts.append(used)
        residuals = [
            spectral.residual_check(p, spectral.coefficients_numeric(p, r, q, used))
            for r in found
        ]
        out.returned += len(found)
        good = sum(1 for r in residuals if r <= TOL_RESIDUAL)
        out.certified += good
        if good == len(found):
            break
        if len(out.attempts) == 1:
            out.first_try_ok = False
        if 2 * used > MAX_BITS:
            out.error = f"no certified roots at {used} bits"
            break
        bits = 2 * used
    out.roots = [fmt(r) for r in found]
    if len(found) != p.N + 1:
        out.error = out.error or f"{len(found)} roots for degree {p.N + 1}"
    return out


# ---------------------------------------------------------------------------
# verify-small: the CLI verify command, in process
# ---------------------------------------------------------------------------


def write_params(p, path: Path) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in params_dict(p).items()))


def run_verify(case) -> Outcome:
    """``qheun verify`` on the case's parameter file and q pair; rerun at
    twice the bits while it exits 3 with an uncertified residual."""
    out_dir = case["out"]
    csv_path = out_dir / "roots.csv"
    out = Outcome()
    bits = BASE_BITS
    while True:
        csv_path.unlink(missing_ok=True)
        argv = ["verify", "--params", str(case["path"]),
                "--q", case["qs"][0], "--q", case["qs"][1],
                "--bits", str(bits), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        out.attempts.append(bits)
        rows = []
        if csv_path.exists():
            with csv_path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
        residuals = [mpmath.mpf(r["residual"]) for r in rows if r["residual"]]
        out.returned += len(residuals)
        good = sum(1 for r in residuals if r <= TOL_RESIDUAL)
        out.certified += good
        uncertified = good < len(residuals)
        if code == cli.EXIT_VERIFY_FAILED and uncertified and 2 * bits <= MAX_BITS:
            if len(out.attempts) == 1:
                out.first_try_ok = False
            bits *= 2
            continue
        if uncertified and len(out.attempts) == 1:
            out.first_try_ok = False
        break
    out.roots = [r["root_value"] for r in rows]
    if code != cli.EXIT_OK:
        out.error = f"verify exit code {code} at {bits} bits"
    elif len(rows) != case["N"] + 1 or uncertified:
        out.error = f"{len(rows)} rows, {good} certified, for degree {case['N'] + 1}"
    return out


RUNNERS = {"verify-small": run_verify, "oracle-exact": run_oracle, "roots-certified": run_roots}


# ---------------------------------------------------------------------------
# reference check and case selection
# ---------------------------------------------------------------------------


def same_root(got: str, want: str) -> bool:
    a, b = Fraction(got), Fraction(want)
    return abs(a - b) <= abs(b) * Fraction(1, 10 ** REF_DIGITS)


def check(case, out: Outcome) -> str | None:
    """The first disagreement between ``out`` and the reference entry."""
    if out.error:
        return out.error
    ref = case["ref"]
    if "digest" in ref:
        if out.digest != ref["digest"]:
            return "c_{N+1} differs from the reference digest"
        if out.events != ref["events"]:
            return f"event counts {out.events} differ from {ref['events']}"
        return None
    if len(out.roots) != len(ref["roots"]):
        return f"{len(out.roots)} roots, reference has {len(ref['roots'])}"
    for got, want in zip(sorted(out.roots, key=Fraction), sorted(ref["roots"], key=Fraction)):
        if not same_root(got, want):
            return f"root {got} differs from the reference {want}"
    return None


def groups(entries) -> list[list[dict]]:
    """Consecutive pairs of entries that needed the same solve attempts; an
    entry without such a neighbour is a group of its own.  Entries are stored
    sorted by reference cost, so a pair holds two cases of similar cost."""
    out, i = [], 0
    while i < len(entries):
        pair = i + 1 < len(entries) and entries[i].get("attempts") == entries[i + 1].get("attempts")
        out.append(entries[i:i + 2 if pair else i + 1])
        i += len(out[-1])
    return out


def select(strata, rng: random.Random) -> list[dict]:
    """The seed's cases: one entry of every group of every stratum, in a
    shuffled order.  Each seed thus runs the same mix of costs and retries."""
    chosen = [rng.choice(g) for stratum in strata for g in groups(stratum["entries"])]
    rng.shuffle(chosen)
    return chosen


def build(workload: str, reference: dict, seed: int, tmp: Path) -> list[dict]:
    """The seed's cases, ready to run: parameters derived, parameter files
    written (verify-small) and exact polynomials built (roots-certified)."""
    picked = select(reference[workload]["strata"], random.Random(f"{workload}:{seed}"))
    cases, epolys = [], {}
    for i, entry in enumerate(picked):
        case = {"id": i, "ref": entry, "N": entry["N"], "regime": entry["regime"],
                "p": derive(entry["params"])}
        if workload == "verify-small":
            case["path"] = tmp / f"case{i}.params"
            case["out"] = tmp / f"out{i}"
            case["qs"] = entry["qs"]
            write_params(case["p"], case["path"])
        elif workload == "roots-certified":
            case["qv"] = Fraction(entry["q"])
            key = tuple(sorted(entry["params"].items()))
            if key not in epolys:
                epolys[key] = spectral.spectral_polynomial(case["p"])
            case["epoly"] = epolys[key]
        cases.append(case)
    return cases
