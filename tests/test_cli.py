import hashlib
import os
import random
import textwrap

import pytest

from qheun import acceptance, cli
from qheun.cli import _build_parser, main
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


def test_parse_error_reports_line(tmp_path, capsys):
    path = _write(tmp_path, "broken.params", P1.replace("l1 = 0", "l1 = zero"))
    assert main(["analyze", "--params", path]) == 1
    err = capsys.readouterr().err
    assert "broken.params:3" in err


def test_missing_key_reported(tmp_path, capsys):
    path = _write(tmp_path, "short.params", "h1 = 0")
    assert main(["analyze", "--params", path]) == 1
    assert "missing keys" in capsys.readouterr().err


def test_duplicate_key_reported(tmp_path, capsys):
    path = _write(tmp_path, "dup.params", P1.replace("h1 = -5", "h1 = -5\nh1 = -4"))
    assert main(["analyze", "--params", path]) == 1
    assert "dup.params:2: duplicate key 'h1'" in capsys.readouterr().err


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


def test_sweep_empty_range_header_only(p1_file, tmp_path):
    out = tmp_path / "sweepout"
    assert main(
        ["sweep", "--params", p1_file, "--axis", "beta", "--from", "1/2",
         "--to", "0", "--step", "1/8", "--jobs", "1", "--out", str(out)]
    ) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1


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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: _SerialPool(made, max_workers))
    assert main(
        ["sweep", "--params", p1_file, "--axis", "beta", "--from", "1/4",
         "--to", "1/2", "--step", "1/8", "--jobs", jobs]
    ) == 0
    assert made == ([] if workers in (None, 1) else [workers])
    regimes = [line.split(",")[2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert regimes == ["Invalid", "Invalid", "R31"]


def test_sweep_negative_jobs_is_usage_error(p1_file, monkeypatch, capsys):
    made = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: _SerialPool(made, max_workers))
    assert main(
        ["sweep", "--params", p1_file, "--axis", "beta", "--from", "1/4",
         "--to", "1/2", "--step", "1/8", "--jobs", "-5"]
    ) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --jobs must be nonnegative, got -5\n" and captured.out == ""
    assert not made


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


def test_verify_p4_ratio_column_shows_refined_magnitudes(tmp_path, capsys):
    path = _write(tmp_path, "p4.params", P4)
    out = tmp_path / "out"
    assert main(["verify", "--params", path, "--out", str(out)]) == 0
    rows = (out / "roots.csv").read_text().splitlines()[1:]
    ratios = sorted(abs(float(r.split(",")[6])) for r in rows)
    golden = sorted([0.618, 0.618, 1.618, 1.618])
    for got, want in zip(ratios, golden):
        assert abs(got / want - 1) < 0.05


def test_verify_builds_the_spectral_polynomial_once(tmp_path, monkeypatch, capsys):
    # p4 has balanced double pairs, so verify also refines their prefactors;
    # that refinement must reuse the polynomial verify already built
    import qheun.spectral as spectral

    calls = []
    original = spectral.coefficients_exact

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "coefficients_exact", counting)
    path = _write(tmp_path, "p4.params", P4)
    assert main(["verify", "--params", path]) == 0
    assert "refined balanced prefactors" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv", [["verify"], ["roots", "--q", "1/1000", "--q", "1/1000000"]], ids=["verify", "roots"]
)
def test_p1_builds_no_spectral_polynomial(p1_file, monkeypatch, capsys, argv):
    # the roots come from the recursion; c_{N+1} is built only to refine a
    # balanced multiple pair, and p1 has none
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
# 2^-bits, which changed only the residual column.
GOLDEN_CSV_SHA256 = {
    ("verify", "P1"): "e662e60ae6002a3fcdec4b0cb3f83563216bfd35957c2afb815fa4fd26e0a06f",
    ("verify", "P2"): "dae615614340b1ae602965d4ea67e10c7a1c2e5c3a110002faf4de70da7c060c",
    ("verify", "P3"): "dbf147b745d5469783d34a80746e66e23b6b5ac5d901f686165b7b71d1deedd8",
    ("verify", "P4"): "90e6fc3e954528923570b60f36aa0df63d9731d8b26efae6f4e3bac8db93bf03",
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
def test_csv_matches_golden_digest(command, name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QHEUN_BITS", raising=False)
    path = _write(tmp_path, f"{name}.params", globals()[name])
    flags, csv_name = GOLDEN_RUNS[command]
    out = tmp_path / "out"
    assert main([command, "--params", path, *flags, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / csv_name).read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[command, name]


def test_qheun_bits_env_overrides_default(monkeypatch):
    monkeypatch.setenv("QHEUN_BITS", "192")
    args = _build_parser().parse_args(["roots", "--params", "unread.params"])
    assert args.bits == 192


@pytest.mark.parametrize(
    "value,message",
    [("abc", "QHEUN_BITS must be an integer, got 'abc'"),
     ("32", "QHEUN_BITS must be at least 64, got 32")],
)
def test_invalid_qheun_bits_env_is_usage_error(p1_file, monkeypatch, capsys, value, message):
    monkeypatch.setenv("QHEUN_BITS", value)
    assert main(["analyze", "--params", p1_file]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bits_at_the_floor_is_accepted(p1_file, monkeypatch, capsys):
    monkeypatch.setenv("QHEUN_BITS", "64")
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
