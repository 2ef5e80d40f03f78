"""Command-line front end.

Subcommands
    analyze   parameter validation, derived quantities, regime classification
    predict   ultradiscrete root predictions (with multiplicity refinement)
    roots     numerical roots at each requested q (+ log-log plot data CSV)
    verify    predictions vs numerics end to end, roots.csv report
    sweep     regime/prediction scan along one parameter axis
    selftest  the acceptance criteria of qheun.acceptance, one PASS or
              FAIL line each

Each subcommand accepts only the options it reads; `qheun <subcommand>
--help` lists them.

Exit codes: 0 success, 1 usage/parse/validation, 2 unclassifiable/excluded
parameters, 3 verification failure.

Parameter files are flat UTF-8 key=value lines (keys h1 h2 l1 l2 alpha1
alpha2 beta t1 t2, each once, values rational strings like -5, 1/2, 2.5);
'#' starts a comment, and a leading byte-order mark is skipped.  --q and
sweep's --from, --to and --step take negative rationals such as -11/2 as
their own arguments.  All numeric CSV cells are printed with 40 significant
digits, so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from .errors import (
    CancellationError,
    DegenerateSPolyError,
    ExcludedCaseError,
    MatchingError,
    ParameterError,
    PrecisionError,
    QHeunError,
    RegimeError,
)
from .qmono import EVAL_MIN_BITS, to_mpf
from .spectral import (
    HeunParams,
    _power_residuals,
    coefficients_numeric,
    derive,
    residual_check,
    spectral_polynomial,  # noqa: F401 -- perfbench/tracing.py wraps it here; selftest.py checks it
)
from .ultra import (
    BALANCED,
    boundary_proximity,
    classify,
    multiplicity_prefactors,
    predict_roots,
)
from .roots import estimate_exponents, find_spectral_roots, match_predictions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNCLASSIFIED = 2
EXIT_VERIFY_FAILED = 3

#: smallest q at which the default 1% prefactor tolerance is meaningful
#: (subleading corrections scale like a positive power of q)
PREFACTOR_GATE_QMAX = Fraction(1, 10 ** 5)


class UsageError(QHeunError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    """Fixed 40-significant-digit decimal formatting for CSV stability."""
    with mpmath.workprec(160):
        return mpmath.nstr(to_mpf(x), 40)


def load_params(path: str) -> HeunParams:
    """Parse a key=value parameter file; report errors with line numbers."""
    values: dict[str, Fraction] = {}
    try:
        # utf-8-sig drops a leading byte-order mark, as some editors write one
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in HeunParams._FIELD_NAMES:
            raise UsageError(
                f"{path}:{lineno}: unknown key {key!r} (expected one of "
                f"{', '.join(HeunParams._FIELD_NAMES)})"
            )
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            col = raw.index(val, raw.index("=") + 1) + 1  # an empty value: just past the =
            raise UsageError(
                f"{path}:{lineno}:{col}: invalid rational {val!r}"
            ) from exc
    missing = [k for k in HeunParams._FIELD_NAMES if k not in values]
    if missing:
        raise UsageError(f"{path}: missing keys: {', '.join(missing)}")
    return derive(**values)


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid rational {what} value {text!r}") from exc


def _parse_bits(text: str) -> int:
    try:
        bits = int(text)
    except ValueError as exc:
        raise UsageError(f"--bits must be an integer, got {text!r}") from exc
    if bits < EVAL_MIN_BITS:
        raise UsageError(f"--bits must be at least {EVAL_MIN_BITS}, got {bits}")
    return bits


def _parse_tolerance(text: str, source: str) -> float:
    try:
        tol = float(text)
    except ValueError as exc:
        raise UsageError(f"{source} must be a number, got {text!r}") from exc
    if not (math.isfinite(tol) and tol >= 0):
        raise UsageError(f"{source} must be finite and nonnegative, got {text!r}")
    return tol


def _parse_q(text: str) -> Fraction:
    q = _parse_rational(text, "q")
    if not 0 < q < 1:
        raise UsageError(f"q must lie in (0,1), got {text}")
    return q


def _q_pair(args) -> tuple[Fraction, Fraction]:
    """(larger, smaller) q for slope estimation; a lone q gets q/10."""
    qs = sorted({_parse_q(t) for t in (args.q or ["1/1000", "1/10000"])})
    if len(qs) == 1:
        qs = [qs[0] / 10, qs[0]]
    return qs[-1], qs[0]


def _write_rows(fh, rows: list[list[str]]) -> None:
    """CSV rows to a file or stdout, quoted as the CSV files quote them."""
    csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_out(args, name: str, header: list[str], rows: list[list[str]]) -> None:
    """With --out, the CSV file ``name`` in that directory (made if absent),
    and a line saying so; without it, nothing."""
    if not args.out:
        return
    path = Path(args.out) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            _write_rows(fh, [header, *rows])
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    p = load_params(args.params)
    tag = classify(p)
    line = f"lambda1={p.lambda1} N={p.N} " + tag.describe()
    print(line)
    if tag.detail:
        print(f"detail: {tag.detail}")
    if tag.classified():
        for w in boundary_proximity(p, tag):
            print(f"warning: {w}")
        return EXIT_OK
    return EXIT_UNCLASSIFIED


def _prediction_rows(p: HeunParams, tag) -> tuple[list[list[str]], list]:
    preds = predict_roots(p, tag)
    refined = multiplicity_prefactors(p, tag, predictions=preds)
    rows = [
        [
            "+" if e.sign > 0 else "-",
            str(e.d),
            e.prefactor,
            str(e.multiplicity),
            "yes" if e.sharp else "no",
        ]
        for e in preds
    ]
    return rows, refined


def cmd_predict(args) -> int:
    p = load_params(args.params)
    tag = classify(p)
    print(f"lambda1={p.lambda1} N={p.N} " + tag.describe())
    if not tag.classified():
        print(f"detail: {tag.detail}")
        return EXIT_UNCLASSIFIED
    rows, refined = _prediction_rows(p, tag)
    print("sign  q_exponent  prefactor  multiplicity  sharp")
    for r in rows:
        print("  ".join(r))
    if refined:
        print(
            "refined balanced prefactors: "
            + ", ".join(_fmt(v) for v in refined)
        )
    _write_out(args, "predictions.csv",
               ["sign", "q_exponent", "prefactor", "multiplicity", "sharp"], rows)
    return EXIT_OK


def cmd_roots(args) -> int:
    p = load_params(args.params)
    tag = classify(p)
    preds = predict_roots(p, tag) if tag.classified() else None
    qs = sorted({_parse_q(t) for t in (args.q or ["1/1000"])}, reverse=True)
    rows = []
    for q in qs:
        roots, bits_used = find_spectral_roots(p, q, args.bits, predictions=preds)
        print(f"q={q} (bits={bits_used}):")
        with mpmath.workprec(64):
            lq10 = mpmath.log10(to_mpf(q))
        # index ascending by magnitude: E_1 is the smallest root
        for k, r in enumerate(sorted(roots, key=abs), start=1):
            print(f"  E_{k} = {_fmt(r)}")
            with mpmath.workprec(64):
                l10 = mpmath.log10(abs(r))
            rows.append(
                [
                    _fmt(lq10),
                    str(k),
                    "+" if r > 0 else "-",
                    _fmt(l10),
                    _fmt(r),
                ]
            )
    _write_out(args, "rootcurves.csv",
               ["log10_q", "index", "sign", "log10_abs_root", "root_value"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    p = load_params(args.params)
    tag = classify(p)
    print(f"lambda1={p.lambda1} N={p.N} " + tag.describe())
    if not tag.classified():
        print(f"detail: {tag.detail}")
        return EXIT_UNCLASSIFIED
    q1, q2 = _q_pair(args)
    preds = predict_roots(p, tag)
    estimates = estimate_exponents(p, q1, q2, args.bits, predictions=preds)
    report = match_predictions(
        estimates,
        preds,
        tol_exponent=args.tol_exponent,
        t1=p.t1,
        t2=p.t2,
    )

    # one line per failed gate, printed only when verification fails
    failures = []
    rows = []
    worst_res = mpmath.mpf(0)
    for k, row in enumerate(report.rows, start=1):
        est, pred = row.estimate, row.prediction
        if est is None or pred is None:
            failures.append(
                f"root {k} unmatched: "
                + ("no prediction for it" if pred is None else "no root for its prediction")
            )
            rows.append(
                [str(k), str(q2)] + [""] * 6 + ["unmatched"]
            )
            continue
        if not row.exponent_ok:
            failures.append(
                f"root {k} exponent: error {_fmt(row.d_error)} > {args.tol_exponent}"
            )
        sol = coefficients_numeric(p, est.value, q2, args.bits)
        res = residual_check(p, sol)
        worst_res = max(worst_res, res)
        if res > args.tol_residual:
            failures.append(
                f"root {k} residual: {_fmt(res)} > {args.tol_residual}"
                f" at power m = {_power_residuals(p, sol).index(res)}"
            )
        rows.append(
            [
                str(k),
                str(q2),
                _fmt(est.value),
                _fmt(est.est_exponent),
                str(pred.d),
                "+" if pred.sign > 0 else "-",
                _fmt(row.prefactor_ratio),
                _fmt(row.d_error),
                _fmt(res),
            ]
        )

    # balanced multiple roots: compare |root / q^d| = |ratio| * sqrt(t1*t2)
    # with the s-roots, which carry t1, t2 and come from a truncated run of
    # the recursion (meaningful once q is small enough that subleading
    # corrections sit below the tolerance)
    refined = multiplicity_prefactors(p, tag, predictions=preds)
    if refined:
        if q2 <= PREFACTOR_GATE_QMAX:
            with mpmath.workprec(args.bits):
                balanced = mpmath.sqrt(to_mpf(p.t1) * to_mpf(p.t2))
                got = sorted(
                    (abs(r.prefactor_ratio * balanced)
                     for r in report.rows
                     if r.estimate is not None and r.prediction is not None
                     and r.prediction.prefactor == BALANCED),
                )
                want = sorted(abs(v) for v in refined)
                if len(got) != len(want):
                    failures.append(
                        f"prefactor: {len(got)} balanced roots for {len(want)} s-roots"
                    )
                else:
                    for g, w in zip(got, want):
                        if abs(g / w - 1) > args.tol_prefactor:
                            failures.append(
                                f"prefactor: |root / q^d| = {_fmt(g)} against s-root"
                                f" {_fmt(w)}, off by more than {args.tol_prefactor}"
                            )
        else:
            print(
                "note: balanced-pair prefactors reported but not gated "
                f"(smallest q = {q2} > {PREFACTOR_GATE_QMAX})"
            )

    _write_rows(sys.stdout, rows)
    if refined:
        print(
            "refined balanced prefactors: "
            + ", ".join(_fmt(v) for v in refined)
        )
    print(f"worst residual: {_fmt(worst_res)} (threshold {args.tol_residual})")
    _write_out(args, "roots.csv",
               ["index", "q", "root_value", "est_exponent", "pred_exponent", "pred_sign",
                "prefactor_ratio", "abs_exponent_err", "residual"], rows)
    ok = not failures
    for line in failures:
        print("failed: " + line)
    print("verification " + ("PASSED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


#: alpha2 shift per unit increase of the swept axis that keeps N (and,
#: except for an alpha1 sweep, lambda1) fixed
_COMPENSATION = {"h1": 1, "h2": 1, "l1": -1, "l2": -1, "beta": -1, "alpha1": 1}


def _sweep_point(packed):
    raw, axis, value, compensate, do_verify, bits = packed
    raw = dict(raw)
    base_val = Fraction(raw[axis])
    raw[axis] = value
    comp_txt = ""
    if compensate == "alpha2" and axis in _COMPENSATION:
        a2 = Fraction(raw["alpha2"]) + _COMPENSATION[axis] * (value - base_val)
        raw["alpha2"] = a2
        comp_txt = str(a2)
    try:
        p = derive(**raw)
    except ParameterError as exc:
        return [str(value), comp_txt, "Invalid", "", "", "", "", str(exc), ""]
    tag = classify(p)
    base = [str(value), comp_txt, tag.regime, tag.subcase or "",
            "" if tag.K is None else str(tag.K),
            "" if tag.m is None else str(tag.m)]
    if not tag.classified():
        return base + ["", tag.detail, ""]
    preds = predict_roots(p, tag)
    pred_txt = ";".join(e.describe() for e in preds)
    verified = ""
    if do_verify:
        try:
            ests = estimate_exponents(p, Fraction(1, 1000), Fraction(1, 10000), bits, predictions=preds)
            rep = match_predictions(ests, preds, t1=p.t1, t2=p.t2)
            verified = "yes" if rep.ok else "no"
        except QHeunError as exc:
            verified = f"error: {exc}"
    return base + [pred_txt, "", verified]


def cmd_sweep(args) -> int:
    p = load_params(args.params)
    if args.axis not in HeunParams._FIELD_NAMES:
        raise UsageError(f"--axis must be one of {', '.join(HeunParams._FIELD_NAMES)}")
    lo = _parse_rational(getattr(args, "from"), "--from")
    hi = _parse_rational(args.to, "--to")
    step = _parse_rational(args.step, "--step")
    if step <= 0:
        raise UsageError("--step must be positive")
    if lo > hi:
        raise UsageError(f"--from {lo} lies above --to {hi}")
    if args.jobs < 0:
        raise UsageError(f"--jobs must be nonnegative, got {args.jobs}")
    grid = []
    v = lo
    while v <= hi:
        grid.append(v)
        v += step
    raw = {k: str(val) for k, val in p.raw().items()}
    jobs = [
        (tuple(raw.items()), args.axis, v, args.compensate, args.verify, args.bits)
        for v in grid
    ]
    # a pool starts all its workers at once: no more of them than points
    workers = min(args.jobs or min(8, os.cpu_count() or 1), len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, jobs))
    else:
        rows = [_sweep_point(j) for j in jobs]
    header = [args.axis, "alpha2_compensated", "regime", "subcase", "K", "m",
              "predicted", "reason", "verified"]
    _write_rows(sys.stdout, [header, *rows])
    _write_out(args, "sweep.csv", header, rows)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import acceptance

    failed = False
    for description, criterion in acceptance.CRITERIA:
        try:
            criterion()
        except Exception as exc:  # report, keep going
            failed = True
            print(f"FAIL {description} ({type(exc).__name__}: {exc})")
        else:
            print(f"PASS {description}")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once."""
    parser = _Parser(prog="qheun", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(sp, names):
        if "params" in names:
            sp.add_argument("--params", required=True, help="key=value parameter file")
        if "q" in names:
            sp.add_argument("--q", action="append", metavar="RATIONAL",
                            help="q value in (0,1), e.g. 1/1000 (repeatable)")
        if "bits" in names:
            sp.add_argument("--bits", type=_parse_bits, default=512,
                            help=f"working precision in bits, at least {EVAL_MIN_BITS} (default 512)")
        if "tol" in names:
            for name, default in (("exponent", 0.05), ("prefactor", 0.01), ("residual", 1e-30)):
                option = f"--tol-{name}"
                sp.add_argument(option, default=default, dest=f"tol_{name}",
                                type=functools.partial(_parse_tolerance, source=option))
        if "out" in names:
            sp.add_argument("--out", help="directory for CSV output")

    subcommands = (
        ("analyze", "classify parameters", cmd_analyze, ("params",)),
        ("predict", "ultradiscrete root predictions", cmd_predict, ("params", "out")),
        ("roots", "numerical roots at fixed q", cmd_roots, ("params", "q", "bits", "out")),
        ("verify", "verify predictions against numerics", cmd_verify,
         ("params", "q", "bits", "tol", "out")),
        ("sweep", "scan one parameter axis", cmd_sweep, ("params", "bits", "out")),
        ("selftest", "run the acceptance criteria", cmd_selftest, ()),
    )
    parsers = {}
    for name, help_text, func, options in subcommands:
        sp = parsers[name] = sub.add_parser(name, help=help_text)
        add_options(sp, options)
        sp.set_defaults(func=func)

    sp = parsers["sweep"]
    sp.add_argument("--axis", required=True, help="parameter to sweep")
    sp.add_argument("--from", required=True, help="start value (rational)")
    sp.add_argument("--to", required=True, help="end value (rational)")
    sp.add_argument("--step", required=True, help="step (rational, > 0)")
    sp.add_argument("--verify", action="store_true",
                    help="run the exponent check at each grid point")
    sp.add_argument("--compensate", choices=("none", "alpha2"), default="none",
                    help="adjust alpha2 along the sweep so that N stays "
                         "fixed (a bare sweep of any parameter entering "
                         "lambda1 leaves N non-integer at most grid points)")
    sp.add_argument("--jobs", type=int, default=0,
                    help="parallel workers, at most one per grid point "
                         "(0 = auto, 1 = serial)")

    return parser


#: the options whose value may be a negative rational
_RATIONAL_OPTIONS = ("--q", "--from", "--to", "--step")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with ``--from -11/2`` as ``--from=-11/2``: argparse takes a
    value that starts with '-' for an option unless it is a plain integer
    or decimal, so a negative fraction given as its own argument would
    leave the option without one."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_attach_negative_values(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExcludedCaseError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCLASSIFIED
    except (MatchingError, PrecisionError, CancellationError, DegenerateSPolyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
