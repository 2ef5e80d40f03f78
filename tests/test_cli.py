import textwrap

import pytest

from qheun.cli import main

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


def test_usage_error_unknown_axis(p1_file, capsys):
    assert main(
        ["sweep", "--params", p1_file, "--axis", "zeta", "--from", "0",
         "--to", "1", "--step", "1"]
    ) == 1


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


def test_qheun_bits_env_overrides_default(monkeypatch):
    from qheun.cli import _build_parser

    monkeypatch.setenv("QHEUN_BITS", "192")
    args = _build_parser().parse_args(["selftest"])
    assert args.bits == 192


def test_selftest_passes(capsys):
    assert main(["selftest", "--bits", "256"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out
