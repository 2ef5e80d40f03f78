import csv
import hashlib
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from qheun import acceptance, cli, roots
from qheun.cli import _build_parser, main
from qheun.errors import (
    CancellationError,
    DegenerateSPolyError,
    ExcludedCaseError,
    MatchingError,
    PrecisionError,
    RegimeError,
)
from qheun.sampling import sample_params

P1 = """
h1 = -5
h2 = 1
l1 = 0
l2 = 1
alpha1 = 0
alpha2 = 1/2
beta = 1/2
t1 = 1
t2 = 1
"""

P2 = """
h1 = 0
h2 = 1
l1 = 1
l2 = 4
alpha1 = 0
alpha2 = -1/2
beta = 1/2
t1 = 1
t2 = 1
"""

P3 = """
h1 = 0
h2 = 1
l1 = 1
l2 = 3
alpha1 = 0
alpha2 = 1/2
beta = 1/2
t1 = 1
t2 = 1
"""

P4 = """
h1 = -1
h2 = 0
l1 = 8
l2 = 10
alpha1 = 1
alpha2 = 0
beta = -10
t1 = 1
t2 = 1
"""

# a sampled R32 set whose roots refined to 2^-(bits//2) failed the residual
# gate at 512 bits (worst residual 1.75e-20)
R32_N3 = """
h1 = -4
h2 = -1
l1 = 1/3
l2 = 17/2
alpha1 = -2
alpha2 = -19/3
beta = -3/2
t1 = 1
t2 = 2
"""


def _write(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body).strip() + "\n")
    return str(path)


@pytest.fixture()
def p1_file(tmp_path):
    return _write(tmp_path, "p1.params", P1)


@pytest.fixture()
def p3_file(tmp_path):
    return _write(tmp_path, "p3.params", P3)


def test_analyze_p1(p1_file, capsys):
    assert main(["analyze", "--params", p1_file]) == 0
    out = capsys.readouterr().out
    assert "lambda1=-2 N=2 regime=R31 subcase=i" in out


def test_analyze_p3_reports_k(p3_file, capsys):
    assert main(["analyze", "--params", p3_file]) == 0
    assert "regime=R33 K=1" in capsys.readouterr().out


def test_analyze_beta_excluded_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "bad.params", P1.replace("beta = 1/2", "beta = 1"))
    assert main(["analyze", "--params", path]) == 1
    assert "beta" in capsys.readouterr().err


def test_analyze_boundary_params_exit_2(tmp_path, capsys):
    body = """
    h1 = -6
    h2 = 1
    l1 = 3
    l2 = 4
    alpha1 = 0
    alpha2 = -3
    beta = -3
    t1 = 1
    t2 = 1
    """
    path = _write(tmp_path, "excl.params", body)
    assert main(["analyze", "--params", path]) == 2
    assert "boundary case" in capsys.readouterr().out


# one set per regime within 1/4 (ultra.BOUNDARY_WARNING_DISTANCE) of a
# boundary, each of another check of ultra.boundary_proximity: R31 of
# 1+h2-l2-beta against 0, R32 of l1-l2-beta against its set, and R33 of
# 1+h2-l2-beta against an odd integer, where its two root families collide
_NEAR_BOUNDARY = [
    ("R31", P1.replace("alpha2 = 1/2", "alpha2 = 1/8").replace("beta = 1/2", "beta = 7/8"),
     "1+h2-l2-beta = 1/8 is within 1/4 of boundary 0"),
    ("R32", P2.replace("l1 = 1", "l1 = 9/4").replace("alpha2 = -1/2", "alpha2 = -7/4"),
     "l1-l2-beta = -9/4 is within 1/4 of boundary -2"),
    ("R33", P3.replace("alpha2 = 1/2", "alpha2 = 3/4").replace("beta = 1/2", "beta = 1/4"),
     "1+h2-l2-beta = -5/4 is within 1/4 of boundary -1"),
    # -2 = -2N is both an end of R33's range and an integer inside it: one warning
    ("R33", P3.replace("alpha2 = 1/2", "alpha2 = 1/4").replace("beta = 1/2", "beta = 3/4"),
     "1+h2-l2-beta = -7/4 is within 1/4 of boundary -2"),
]
_NEAR_BOUNDARY_IDS = ["R31", "R32", "R33", "R33-at-minus-2N"]


@pytest.mark.parametrize("regime,body,warning", _NEAR_BOUNDARY, ids=_NEAR_BOUNDARY_IDS)
def test_analyze_warns_near_a_boundary(tmp_path, capsys, regime, body, warning):
    path = _write(tmp_path, "near.params", body)
    assert main(["analyze", "--params", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert f"regime={regime}" in out[0]
    assert [line for line in out if line.startswith("warning")] == [f"warning: {warning}"]


@pytest.mark.parametrize("body", [P1, P2, P3, P4], ids=["P1", "P2", "P3", "P4"])
def test_analyze_warns_of_no_boundary_on_the_fixtures(tmp_path, capsys, body):
    path = _write(tmp_path, "p.params", body)
    assert main(["analyze", "--params", path]) == 0
    assert "warning" not in capsys.readouterr().out


# N = 0 sets: c_1 has the one root -C_1/B_1, led by a single t1 term (the
# h1 term in R31, the l1 term in R32), so every classified one is subcase i
# and sharp.  R31 at 2h2-l1-l2-beta = -9/4, R32 at l1-l2-beta = 1
_N0 = [
    ("R31", "h1 = -13/4\nh2 = -9/4\nl1 = 0\nl2 = 1/2\nalpha1 = 0\nalpha2 = -5/4\nbeta = -11/4\nt1 = 2\nt2 = 3"),
    ("R32", "h1 = -4\nh2 = -3\nl1 = 0\nl2 = 1/2\nalpha1 = 0\nalpha2 = -4\nbeta = -3/2\nt1 = 2\nt2 = 3"),
]


@pytest.mark.parametrize("regime,body", _N0, ids=["R31", "R32"])
def test_an_n0_set_is_subcase_i_sharp_and_near_no_boundary(tmp_path, capsys, regime, body):
    path = _write(tmp_path, "n0.params", body)
    assert main(["analyze", "--params", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"lambda1=0 N=0 regime={regime} subcase=i"
    assert not [line for line in out if line.startswith("warning")]
    assert main(["predict", "--params", path]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 1 and rows[0].split("  ")[2:] == ["t1", "1", "yes"]


def test_predict_on_an_excluded_set_prints_the_detail_and_exits_2(tmp_path, capsys):
    body = P1.replace("h1 = -5", "h1 = -6").replace("l1 = 0", "l1 = 3").replace("l2 = 1", "l2 = 4")
    path = _write(tmp_path, "excl.params", body.replace("alpha2 = 1/2", "alpha2 = -3").replace("beta = 1/2", "beta = -3"))
    assert main(["predict", "--params", path]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "lambda1=-2 N=2 regime=Excluded",
        "detail: boundary case: 2h2-l1-l2-beta = -2 lies in the exclusion set {-2,...,-2N}",
    ]


def test_parse_error_reports_line(tmp_path, capsys):
    path = _write(tmp_path, "broken.params", P1.replace("l1 = 0", "l1 = zero"))
    assert main(["analyze", "--params", path]) == 1
    err = capsys.readouterr().err
    assert "broken.params:3" in err


@pytest.mark.parametrize("line,col,val", [("beta = e", 8, "e"), ("beta =", 7, "")], ids=["e", "empty"])
def test_parse_error_points_at_the_value(tmp_path, capsys, line, col, val):
    # the column after the "=": of "e", not of the "e" inside "beta"; of
    # the missing value, not of "beta"
    path = _write(tmp_path, "broken.params", P1.replace("beta = 1/2", line))
    assert main(["analyze", "--params", path]) == 1
    assert capsys.readouterr().err == f"error: {path}:7:{col}: invalid rational {val!r}\n"


def test_missing_key_reported(tmp_path, capsys):
    path = _write(tmp_path, "short.params", "h1 = 0")
    assert main(["analyze", "--params", path]) == 1
    assert "missing keys" in capsys.readouterr().err


def test_duplicate_key_reported(tmp_path, capsys):
    path = _write(tmp_path, "dup.params", P1.replace("h1 = -5", "h1 = -5\nh1 = -4"))
    assert main(["analyze", "--params", path]) == 1
    assert "dup.params:2: duplicate key 'h1'" in capsys.readouterr().err


def test_a_byte_order_mark_is_skipped(p1_file, tmp_path, capsys):
    # some editors save UTF-8 with a leading byte-order mark
    path = tmp_path / "bom.params"
    path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "p1.params").read_bytes())
    assert main(["analyze", "--params", p1_file]) == 0
    plain = capsys.readouterr()
    assert main(["analyze", "--params", str(path)]) == 0
    assert capsys.readouterr() == plain


def test_comments_and_blank_lines_are_skipped(p1_file, tmp_path, capsys):
    path = tmp_path / "commented.params"
    path.write_text("# the P1 set\n\n" + P1.replace("h2 = 1", "h2 = 1  # a comment\n  \n# a line"))
    assert main(["analyze", "--params", p1_file]) == 0
    plain = capsys.readouterr().out
    assert main(["analyze", "--params", str(path)]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize(
    "body,message",
    [(b"h1 -5\n", "{path}:1: expected key=value, got 'h1 -5'"),
     (b"h1 = -5\ngamma = 1\n", "{path}:2: unknown key 'gamma' (expected one of h1, "),
     (None, "cannot read {path}: [Errno 2] No such file or directory"),
     (b"h1 = -5 # \xff\n", "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 10")],
    ids=["no-equals", "unknown-key", "missing", "not-utf8"],
)
def test_a_bad_parameter_file_is_usage_error(tmp_path, capsys, body, message):
    # a file that is not UTF-8 is reported as unreadable, with no traceback
    path = tmp_path / "bad.params"
    if body is not None:
        path.write_bytes(body)
    assert main(["analyze", "--params", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + message.format(path=path)) and captured.out == ""


@pytest.mark.parametrize(
    "argv,message",
    [(["roots", "--q", "1"], "q must lie in (0,1), got 1"),
     (["roots", "--q", "0"], "q must lie in (0,1), got 0"),
     (["sweep", "--axis", "h1", "--from", "0", "--to", "1", "--step", "0"], "--step must be positive"),
     (["sweep", "--axis", "beta", "--from", "1/2", "--to", "0", "--step", "1/8"], "--from 1/2 lies above --to 0"),
     (["sweep", "--axis", "h1", "--from", "-4", "--to", "-11/2", "--step", "1/2"],
      "--from -4 lies above --to -11/2")],
    ids=["q-1", "q-0", "step-0", "from-above-to", "from-above-negative-to"],
)
def test_an_out_of_range_option_is_usage_error(p1_file, capsys, argv, message):
    assert main([argv[0], "--params", p1_file, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "command,qs",
    [("roots", ["-1/1000"]), ("verify", ["1/1000", "-1/10000"])],
    ids=["roots", "verify"],
)
def test_a_negative_q_as_its_own_argument_is_out_of_range(p1_file, capsys, command, qs):
    # argparse takes -1/1000 for an option unless it is attached to --q;
    # as its own argument it is rejected as --q=-1/1000 is
    results = []
    for options in ([arg for q in qs for arg in ("--q", q)], [f"--q={q}" for q in qs]):
        code = main([command, "--params", p1_file, *options])
        results.append((code, capsys.readouterr()))
    assert results[0] == results[1]
    code, captured = results[0]
    assert code == 1 and captured.err == f"error: q must lie in (0,1), got {qs[-1]}\n"


def test_out_naming_a_file_is_an_error(p1_file, tmp_path, capsys):
    # the CSV cannot be written below a regular file; the file is left as it was
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert main(["predict", "--params", p1_file, "--out", str(afile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {afile / 'predictions.csv'}: ") and err.count("\n") == 1
    assert afile.read_text() == "kept\n"


def test_predict_writes_csv(p1_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["predict", "--params", p1_file, "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "sign,q_exponent,prefactor,multiplicity,sharp"
    assert len(lines) == 4


def test_verify_p1_passes_and_is_byte_stable(p1_file, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--params", p1_file, "--out", str(out1)]) == 0
    assert main(["verify", "--params", p1_file, "--out", str(out2)]) == 0
    data1 = (out1 / "roots.csv").read_bytes()
    data2 = (out2 / "roots.csv").read_bytes()
    assert data1 == data2
    lines = data1.decode().splitlines()
    assert lines[0].startswith("index,q,root_value,est_exponent,pred_exponent")
    assert len(lines) == 4  # header + 3 roots


def test_verify_with_a_lone_q_pairs_it_with_q_over_10(p1_file, tmp_path, capsys):
    one, two = tmp_path / "one", tmp_path / "two"
    assert main(["verify", "--params", p1_file, "--q", "1/1000", "--out", str(one)]) == 0
    assert main(["verify", "--params", p1_file, "--q", "1/1000", "--q", "1/10000", "--out", str(two)]) == 0
    assert (one / "roots.csv").read_bytes() == (two / "roots.csv").read_bytes()


def test_verify_certifies_the_roots_at_the_bits_they_were_found_with(tmp_path, capsys):
    path = _write(tmp_path, "r32.params", R32_N3)
    assert main(["verify", "--params", path, "--q", "1/1000", "--q", "1/10000", "--bits", "512"]) == 0
    assert "verification PASSED" in capsys.readouterr().out


def test_verify_detects_forced_failure(p1_file, capsys):
    # an absurd exponent tolerance forces rows out of tolerance
    code = main(["verify", "--params", p1_file, "--tol-exponent", "1e-12"])
    assert code == 3


def test_roots_plot_data(p3_file, tmp_path, capsys):
    out = tmp_path / "rootsout"
    assert main(
        ["roots", "--params", p3_file, "--q", "1/100", "--q", "1/1000",
         "--out", str(out)]
    ) == 0
    lines = (out / "rootcurves.csv").read_text().splitlines()
    assert lines[0] == "log10_q,index,sign,log10_abs_root,root_value"
    assert len(lines) == 5  # two qs x two roots


def test_sweep_takes_negative_rationals_as_their_own_arguments(p1_file, capsys):
    # argparse takes -11/2 for an option unless it is attached to its own;
    # as its own argument it sweeps as --from=-11/2 does, and as the decimal
    # -5.5, which argparse always took for a value
    tail = ["--step", "1/2", "--jobs", "1"]
    outs = []
    for bounds in (["--from", "-11/2", "--to", "-4"], ["--from=-11/2", "--to=-4"],
                   ["--from", "-5.5", "--to", "-4"]):
        assert main(["sweep", "--params", p1_file, "--axis", "h1", *bounds, *tail]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert [line.split(",")[0] for line in outs[0].splitlines()[1:]] == ["-11/2", "-5", "-9/2", "-4"]
    assert main(["sweep", "--params", p1_file, "--axis", "h1", "--from", "-11/2", "--to", "-4",
                 "--step", "-1/2"]) == 1
    assert capsys.readouterr().err == "error: --step must be positive\n"


def test_sweep_l2_crosses_regimes(p1_file, tmp_path, capsys):
    # sweeping l2 through 1+h2-beta = 3/2 (with alpha2 compensation) must
    # record the R31 -> Excluded -> R33 transition rather than aborting
    assert main(
        ["sweep", "--params", p1_file, "--axis", "l2", "--from", "1/2",
         "--to", "5/2", "--step", "1/2", "--compensate", "alpha2",
         "--jobs", "1"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    regimes = [line.split(",")[2] for line in out[1:]]
    assert "R31" in regimes and "Excluded" in regimes and "R33" in regimes


def test_sweep_records_invalid_rows(p1_file, capsys):
    assert main(
        ["sweep", "--params", p1_file, "--axis", "beta", "--from", "1/4",
         "--to", "1/2", "--step", "1/8", "--jobs", "1"]
    ) == 0
    out = capsys.readouterr().out.splitlines()
    regimes = [line.split(",")[2] for line in out[1:]]
    assert regimes == ["Invalid", "Invalid", "R31"]


def test_sweep_stdout_equals_its_csv(p1_file, tmp_path, capsys):
    # the h1 = 1 row's reason holds a comma: stdout quotes it as sweep.csv does
    out = tmp_path / "sweepout"
    assert main(
        ["sweep", "--params", p1_file, "--axis", "h1", "--from", "0", "--to", "1",
         "--step", "1", "--compensate", "alpha2", "--jobs", "1", "--out", str(out)]
    ) == 0
    printed = capsys.readouterr().out
    wrote = f"wrote {out / 'sweep.csv'}\n"
    assert printed.endswith(wrote)
    assert printed[: -len(wrote)] == (out / "sweep.csv").read_text()
    with (out / "sweep.csv").open(newline="") as fh:
        assert [len(row) for row in csv.reader(fh)] == [9, 9, 9]


def test_sweep_parallel_csv_equals_serial(p1_file, tmp_path):
    csvs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(
            ["sweep", "--params", p1_file, "--axis", "t1", "--from", "1",
             "--to", "2", "--step", "1/2", "--verify", "--jobs", jobs,
             "--out", str(out)]
        ) == 0
        csvs.append((out / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert csvs[0].count(b",yes") == 3


def test_sweep_verify_seeds_its_solves(p1_file, monkeypatch, capsys):
    # every verified grid point passes its predictions to the solves
    seen, estimate = [], cli.estimate_exponents

    def recording(*args, **kwargs):
        seen.append(kwargs.get("predictions"))
        return estimate(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_exponents", recording)
    assert main(
        ["sweep", "--params", p1_file, "--axis", "t1", "--from", "1",
         "--to", "2", "--step", "1/2", "--verify", "--jobs", "1"]
    ) == 0
    assert capsys.readouterr().out.count(",yes") == 3
    assert len(seen) == 3 and all(seen)


def test_sweep_verify_records_a_solve_error_in_its_row(p1_file, tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise PrecisionError("the root count is not certified")

    monkeypatch.setattr(cli, "estimate_exponents", failing)
    out = tmp_path / "sweepout"
    assert main(
        ["sweep", "--params", p1_file, "--axis", "t1", "--from", "1",
         "--to", "2", "--step", "1/2", "--verify", "--jobs", "1",
         "--out", str(out)]
    ) == 0
    with (out / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["verified"] for row in rows] == ["error: the root count is not certified"] * 3


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs,workers",
    [("1", None), ("2", 2), ("3", 3), ("64", 3),
     ("0", min(8, os.cpu_count() or 1, 3))],
)
def test_sweep_starts_at_most_one_worker_per_point(p1_file, monkeypatch, capsys, jobs, workers):
    made = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: _SerialPool(made, max_workers))
    assert main(
        ["sweep", "--params", p1_file, "--axis", "beta", "--from", "1/4",
         "--to", "1/2", "--step", "1/8", "--jobs", jobs]
    ) == 0
    assert made == ([] if workers in (None, 1) else [workers])
    regimes = [line.split(",")[2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert regimes == ["Invalid", "Invalid", "R31"]


def test_sweep_negative_jobs_is_usage_error(p1_file, monkeypatch, capsys):
    made = []
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        lambda max_workers: _SerialPool(made, max_workers))
    assert main(
        ["sweep", "--params", p1_file, "--axis", "beta", "--from", "1/4",
         "--to", "1/2", "--step", "1/8", "--jobs", "-5"]
    ) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --jobs must be nonnegative, got -5\n" and captured.out == ""
    assert not made


def test_only_a_multi_worker_sweep_loads_the_process_pool(p1_file):
    # a fresh interpreter: the test process may hold concurrent.futures already
    script = textwrap.dedent("""
        import sys
        from qheun import cli
        params = sys.argv[1]
        for argv in (["analyze"], ["predict"], ["roots"], ["verify"],
                     ["sweep", "--axis", "beta", "--from", "1/4", "--to", "1/2",
                      "--step", "1/8", "--verify", "--jobs", "1"]):
            assert cli.main([*argv[:1], "--params", params, *argv[1:]]) == 0, argv
        print(sorted(name for name in sys.modules
                     if name.startswith("multiprocessing") or name == "concurrent.futures.process"))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script, p1_file], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_usage_error_unknown_axis(p1_file, capsys):
    assert main(
        ["sweep", "--params", p1_file, "--axis", "zeta", "--from", "0",
         "--to", "1", "--step", "1"]
    ) == 1


@pytest.mark.parametrize(
    "bounds,bad",
    [(["--from", "abc", "--to", "1", "--step", "1"], "--from value 'abc'"),
     (["--from", "0", "--to", "1", "--step", "1/0"], "--step value '1/0'")],
)
def test_sweep_invalid_rational_is_usage_error(p1_file, capsys, bounds, bad):
    assert main(["sweep", "--params", p1_file, "--axis", "h1", *bounds]) == 1
    assert capsys.readouterr().err == f"error: invalid rational {bad}\n"


@pytest.mark.parametrize(
    "command,bits,message",
    [("verify", "0", "--bits must be at least 64, got 0"),
     ("roots", "16", "--bits must be at least 64, got 16"),
     ("roots", "abc", "--bits must be an integer, got 'abc'")],
)
def test_bits_below_the_floor_is_usage_error(p1_file, capsys, command, bits, message):
    assert main([command, "--params", p1_file, "--bits", bits]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "option,value,message",
    [("--tol-residual", "nan", "must be finite and nonnegative, got 'nan'"),
     ("--tol-exponent", "inf", "must be finite and nonnegative, got 'inf'"),
     ("--tol-prefactor", "-1", "must be finite and nonnegative, got '-1'"),
     ("--tol-residual", "abc", "must be a number, got 'abc'")],
)
def test_invalid_tolerance_is_usage_error(p1_file, capsys, option, value, message):
    # a nan tolerance would switch its gate off: nan > tol is never true
    assert main(["verify", "--params", p1_file, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {option} {message}\n" and captured.out == ""


def test_verify_excluded_params_exit_2(tmp_path, capsys):
    body = """
    h1 = -6
    h2 = 1
    l1 = 3
    l2 = 4
    alpha1 = 0
    alpha2 = -3
    beta = -3
    t1 = 1
    t2 = 1
    """
    path = _write(tmp_path, "excl.params", body)
    assert main(["verify", "--params", path]) == 2


_ERROR_EXITS = [
    (ExcludedCaseError("no claim here"), 2),
    (RegimeError("not this regime"), 2),
    (MatchingError("the roots do not pair"), 3),
    (PrecisionError("not certified"), 3),
    (CancellationError(2, "B", "step 2 cancelled"), 3),
    (DegenerateSPolyError("the s-polynomial degenerated"), 3),
]


@pytest.mark.parametrize("error,code", _ERROR_EXITS, ids=[type(e).__name__ for e, _ in _ERROR_EXITS])
def test_main_maps_each_error_to_its_exit_code(p1_file, monkeypatch, capsys, error, code):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "estimate_exponents", failing)
    assert main(["verify", "--params", p1_file]) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert "Traceback" not in captured.out + captured.err


def test_verify_names_the_root_whose_count_reaches_the_precision_ceiling(p1_file, monkeypatch, capsys):
    # no certified count succeeds and the ceiling is the base level: the
    # error names the point, q, the bits and the root, and verify exits 3
    monkeypatch.setattr(roots, "MAX_BITS", 512)
    monkeypatch.setattr(roots, "_certified_count", lambda rows, x: None)
    assert main(["verify", "--params", p1_file]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the root count at E = -?\d\S*, q = \S+ is not certified at 512 bits, "
                        r"for root 3 of 3, counted from the largest\n", err), err


def test_verify_p4_ratio_column_shows_refined_magnitudes(tmp_path, capsys):
    path = _write(tmp_path, "p4.params", P4)
    out = tmp_path / "out"
    assert main(["verify", "--params", path, "--out", str(out)]) == 0
    rows = (out / "roots.csv").read_text().splitlines()[1:]
    ratios = sorted(abs(float(r.split(",")[6])) for r in rows)
    golden = sorted([0.618, 0.618, 1.618, 1.618])
    for got, want in zip(ratios, golden):
        assert abs(got / want - 1) < 0.05


@pytest.mark.parametrize("command", ["verify", "predict"])
def test_p4_builds_no_spectral_polynomial(tmp_path, monkeypatch, capsys, command):
    # p4 has balanced double pairs; their s-polynomial comes from a truncated
    # run of the recursion, so no command builds c_{N+1} exactly
    import qheun.roots as roots
    import qheun.spectral as spectral
    import qheun.ultra as ultra

    def refused(*args, **kwargs):
        raise AssertionError("the exact spectral polynomial was built")

    monkeypatch.setattr(spectral, "coefficients_exact", refused)
    for module in (spectral, ultra, cli, roots):
        monkeypatch.setattr(module, "spectral_polynomial", refused)
    path = _write(tmp_path, "p4.params", P4)
    assert main([command, "--params", path]) == 0
    assert "refined balanced prefactors" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [["verify"], ["roots", "--q", "1/1000", "--q", "1/1000000"]], ids=["verify", "roots"]
)
def test_p1_builds_no_spectral_polynomial(p1_file, monkeypatch, capsys, argv):
    # the roots come from the recursion, and no command builds c_{N+1}
    import qheun.spectral as spectral

    def refused(*args, **kwargs):
        raise AssertionError("coefficients_exact called")

    monkeypatch.setattr(spectral, "coefficients_exact", refused)
    assert main([argv[0], "--params", p1_file, *argv[1:]]) == 0


def test_verify_passes_on_an_n12_r31_set_at_512_bits(tmp_path, capsys):
    p = sample_params("R31", random.Random(12), N=12)
    path = _write(tmp_path, "r31.params", "".join(f"{k} = {v}\n" for k, v in p.raw().items()))
    assert main(["verify", "--params", path, "--bits", "512"]) == 0
    assert "verification PASSED" in capsys.readouterr().out


def _verify_passes_at_512_bits(tmp_path, capsys, p, qs):
    path = _write(tmp_path, "sampled.params", "".join(f"{k} = {v}\n" for k, v in p.raw().items()))
    assert main(["verify", "--params", path, "--q", qs[0], "--q", qs[1], "--bits", "512"]) == 0
    out = capsys.readouterr().out
    assert "verification PASSED" in out and "failed:" not in out


_Q_PAIRS = [("1/1000", "1/10000"), ("1/100000", "1/1000000")]


@pytest.mark.parametrize("qs", _Q_PAIRS)
@pytest.mark.parametrize("regime", ["R31", "R32", "R33"])
def test_verify_passes_on_the_n12_sets_at_512_bits(tmp_path, capsys, regime, qs):
    # every root is certified by the first 512-bit answer; R32's set has
    # t1 = 2, t2 = 3 and a balanced pair, gated at the smaller q pair
    _verify_passes_at_512_bits(tmp_path, capsys, sample_params(regime, random.Random(12), N=12), qs)


@pytest.mark.parametrize(
    "regime,qs",
    [("R31", _Q_PAIRS[0]), ("R31", _Q_PAIRS[1]), ("R33", _Q_PAIRS[0]), ("R33", _Q_PAIRS[1]),
     ("R32", _Q_PAIRS[0])],
    ids=["R31-qs0", "R31-qs1", "R33-qs0", "R33-qs1", "R32-qs0"],
)
def test_verify_passes_on_the_n24_sets_at_512_bits(tmp_path, capsys, regime, qs):
    # R32 runs at the larger q pair only: there its balanced pair is reported
    # but not gated, and at the smaller pair its correct roots sit 1-8% off
    # the s-roots, beyond the fixed PREFACTOR_GATE_QMAX threshold
    _verify_passes_at_512_bits(tmp_path, capsys, sample_params(regime, random.Random(12), N=24), qs)


def test_verify_fails_the_n24_r32_set_at_the_smaller_q_pair_on_its_prefactors_only(tmp_path, capsys):
    # the one known failing run: every residual passes and every exponent
    # matches, but the balanced |root / q^d| sit 1-8% off the s-roots at
    # q = 1e-6, since the correction shrinks only as q^(1/6) there and
    # PREFACTOR_GATE_QMAX is a fixed threshold.  ROADMAP item 4 replaces the
    # threshold and must turn this into a passing case
    p = sample_params("R32", random.Random(12), N=24)
    path = _write(tmp_path, "r32.params", "".join(f"{k} = {v}\n" for k, v in p.raw().items()))
    argv = ["verify", "--params", path, "--q", _Q_PAIRS[1][0], "--q", _Q_PAIRS[1][1], "--bits", "512"]
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("failed: ")]
    assert failed and all(line.startswith("failed: prefactor: ") for line in failed)
    worst = next(line for line in lines if line.startswith("worst residual: "))
    assert float(worst.split()[2]) <= float(worst.split()[-1].rstrip(")"))
    # the gate runs at --bits, so each s-root it prints carries all 40
    # digits of the refined s-root it stands for
    refined = next(line for line in lines if line.startswith("refined balanced prefactors: "))
    s_roots = {v.lstrip("-") for v in refined.split(": ", 1)[1].split(", ")}
    assert "2.449489742783178098197284074705891391966" in s_roots
    for line in failed:
        assert line.split(" against s-root ")[1].split(",")[0] in s_roots, line


@pytest.mark.parametrize("regime", ["R31", "R33"])
def test_verify_passes_on_the_n48_sets_at_512_bits(tmp_path, capsys, regime):
    # the rows span thousands of orders of magnitude, so each power's
    # residual sums exact products whose exponents lie far apart
    _verify_passes_at_512_bits(tmp_path, capsys, sample_params(regime, random.Random(12), N=48), _Q_PAIRS[0])


def test_verify_gates_balanced_prefactors_when_t1_t2_is_not_one(tmp_path, capsys):
    # |root / q^d| against the s-roots, which carry sqrt(t1*t2) = sqrt(6);
    # the descriptor ratios alone are 1.618 and 0.618
    body = P4.replace("t1 = 1", "t1 = 2").replace("t2 = 1", "t2 = 3")
    path = _write(tmp_path, "p4t.params", body)
    assert main(["verify", "--params", path, "--q", "1/100000", "--q", "1/1000000"]) == 0
    assert "verification PASSED" in capsys.readouterr().out


def test_verify_names_each_failed_gate(tmp_path, capsys):
    path = _write(tmp_path, "p4.params", P4)
    argv = ["verify", "--params", path, "--q", "1/100000", "--q", "1/1000000"]
    assert main(argv) == 0
    assert "failed:" not in capsys.readouterr().out
    assert main(argv + ["--tol-residual", "1e-300", "--tol-exponent", "1e-9",
                        "--tol-prefactor", "1e-9"]) == 3
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("failed: ")]
    assert lines[-1] == "verification FAILED" and lines[-1 - len(failed):-1] == failed
    assert sum("residual:" in line and "> 1e-300 at power m = " in line for line in failed) == 4
    assert sum("exponent: error" in line and "> 1e-09" in line for line in failed) == 4
    prefactor = [line for line in failed if line.startswith("failed: prefactor: |root / q^d| = ")]
    assert len(prefactor) == 4
    assert all("against s-root 1.618" in line or "against s-root 0.618" in line for line in prefactor)


def test_verify_names_an_unmatched_root(tmp_path, monkeypatch, capsys):
    # with one prediction dropped, one found root has none to match
    original = cli.predict_roots
    monkeypatch.setattr(cli, "predict_roots", lambda p, tag: original(p, tag)[1:])
    path = _write(tmp_path, "p1.params", P1)
    assert main(["verify", "--params", path]) == 3
    out = capsys.readouterr().out
    assert "failed: root 3 unmatched: no prediction for it\n" in out


def test_verify_gates_prefactors_past_a_balanced_prediction_with_no_root(tmp_path, monkeypatch, capsys):
    # with one positive root dropped at a gated q, its balanced prediction
    # is unmatched: the gate skips that row and counts 3 balanced roots
    original = cli.estimate_exponents

    def dropped(*args, **kwargs):
        out = original(*args, **kwargs)
        i = next(i for i, e in enumerate(out) if e.value > 0)
        return out[:i] + out[i + 1:]

    monkeypatch.setattr(cli, "estimate_exponents", dropped)
    path = _write(tmp_path, "p4.params", P4)
    assert main(["verify", "--params", path, "--q", "1/100000", "--q", "1/1000000"]) == 3
    out = capsys.readouterr().out
    assert "failed: root 4 unmatched: no root for its prediction\n" in out
    assert "failed: prefactor: 3 balanced roots for 4 s-roots\n" in out


def test_verify_predicts_the_roots_once(tmp_path, monkeypatch, capsys):
    # the prefactor refinement of p4 reuses the predictions verify made
    import qheun.cli as cli
    import qheun.ultra as ultra

    calls = []
    original = ultra.predict_roots

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ultra, "predict_roots", counting)
    monkeypatch.setattr(cli, "predict_roots", counting)
    path = _write(tmp_path, "p4.params", P4)
    assert main(["verify", "--params", path]) == 0
    assert "refined balanced prefactors" in capsys.readouterr().out
    assert len(calls) == 1


# sha256 of the CSVs written on p1-p4.  The roots and predictions digests
# were recorded before the root refinement was computed from floating
# approximations: the roots must not move by a bit.  The verify digests
# were re-recorded when the refinement target went from 2^-(bits//2) to
# 2^-bits, again when the residual became the per-power residual of the
# twisted series, again when the twist row was chosen relative to its
# row's scale, again when the twisted solve and the residual moved
# from mpf onto Dyadic ints with exact per-power sums, and again when the
# series' rows and the residual's factors became the lower ends of boxes
# built from Box.qpow instead of mpf exp/log values (before that: P1
# 2b4cf8c1...931e, P2 0b25f651...c78b, P3 baca25c2...b234, P4
# 6f36ccfe...6881); each time only the residual column changed.
GOLDEN_CSV_SHA256 = {
    ("verify", "P1"): "61c901bf6695fe9a967e1aa0e70ae69475d2b09ef570ceec3eb006513f539f07",
    ("verify", "P2"): "9e3fac9aa8933583a916594b3ac48aeaaa9da7df25f8600d6dc21000a09ad168",
    ("verify", "P3"): "78a6ab9f22df6025467aeb5481435da6b23b55aecbee043da22acd7e809ca2f1",
    ("verify", "P4"): "e5c79b0fe3e3e46a8006b2f18515ff750a6dea402fb0dc1cda0218e2de656514",
    ("roots", "P1"): "6aff24a2e1359f570c023baf92af23a656599935ae3786e03be5a14bbab5388c",
    ("roots", "P2"): "5ceb7884ea4caaed9cfcdae7c5b186346e7dde3b9fae117628f53e9be2f5195d",
    ("roots", "P3"): "afd3bf7f638eceabb51b930525d5bce82178aea40a14ad699ab172d842162b25",
    ("roots", "P4"): "53a5df06fd45e3d33924e92677278f2307b37b0806e41b404be8c4c71b9be715",
    ("predict", "P1"): "c7a0126af68046ad2bffd32f6abb9070b84b6baff560647568a6ea9a2bdad527",
    ("predict", "P2"): "50af009b09cbb4a2e5d4f4216b4a84151e5eb619cf8c5b12905cc69d5fa4a9ae",
    ("predict", "P3"): "89d07eb628a39852cdcd3d5d7346cb62263bf097741f6313641cdacac9462b5e",
    ("predict", "P4"): "ef3b673245a93fea748f9ca473faea9f096a526461bdf80ac73584e95cc0d25f",
}
GOLDEN_RUNS = {
    "verify": (["--q", "1/1000", "--q", "1/10000"], "roots.csv"),
    "roots": (["--q", "1/1000", "--q", "1/1000000"], "rootcurves.csv"),
    "predict": ([], "predictions.csv"),
}


@pytest.mark.parametrize("command,name", sorted(GOLDEN_CSV_SHA256))
def test_csv_matches_golden_digest(command, name, tmp_path, capsys):
    path = _write(tmp_path, f"{name}.params", globals()[name])
    flags, csv_name = GOLDEN_RUNS[command]
    out = tmp_path / "out"
    assert main([command, "--params", path, *flags, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / csv_name).read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[command, name]


def test_bits_default_to_512_whatever_the_environment(monkeypatch):
    # QHEUN_BITS is no longer read: --bits is the one way to set the precision
    monkeypatch.setenv("QHEUN_BITS", "192")
    assert _build_parser().parse_args(["roots", "--params", "unread.params"]).bits == 512


def test_bits_at_the_floor_is_accepted(p1_file, capsys):
    assert main(["roots", "--params", p1_file, "--bits", "64"]) == 0


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--bits", "256"], ["predict", "--tol-exponent", "0.1"],
     ["roots", "--tol-residual", "1e-20"], ["selftest", "--bits", "256"],
     ["sweep", "--axis", "h1", "--from", "0", "--to", "1", "--step", "1", "--q", "1/10"]],
)
def test_option_the_subcommand_does_not_read_is_usage_error(p1_file, capsys, argv):
    # refused, not silently ignored; selftest reads neither --params nor --bits
    assert main([argv[0], "--params", p1_file, *argv[1:]]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_selftest_passes(monkeypatch, capsys):
    # the CLI wiring only: tests/test_acceptance.py runs the criteria
    descriptions = [d for d, _ in acceptance.CRITERIA]
    monkeypatch.setattr(acceptance, "CRITERIA", [(d, lambda: None) for d in descriptions])
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"PASS {d}" for d in descriptions]


def test_selftest_reports_each_failure_and_keeps_going(monkeypatch, capsys):
    def boom():
        raise AssertionError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", [("a", lambda: None), ("b", boom), ("c", lambda: None)])
    assert main(["selftest"]) == 3
    assert capsys.readouterr().out.splitlines() == ["PASS a", "FAIL b (AssertionError: boom)", "PASS c"]
