"""Acceptance suite: one test per criterion of `qheun.acceptance`, each held to
a time budget.  `pytest tests/test_acceptance.py -v -s` shows the per-criterion
pass lines and timings."""

import dataclasses
import time

import pytest

from qheun import acceptance
from qheun.spectral import derive
from qheun.ultra import classify


def _run(criterion, limit):
    start = time.time()
    criterion()
    elapsed = time.time() - start
    print(f"PASS {criterion.__doc__} ({elapsed:.2f}s)")
    assert elapsed < limit, f"{criterion.__doc__} exceeded the {limit}s budget"


def test_criterion_1_golden_ratio_prefactors():
    _run(acceptance.criterion_1_golden_ratio_prefactors, 5.0)


def test_criterion_2_r31_case_i_exponents():
    _run(acceptance.criterion_2_r31_case_i_exponents, 5.0)


def test_criterion_3_r32_case_i_exponents():
    _run(acceptance.criterion_3_r32_case_i_exponents, 5.0)


def test_criterion_4_switching_regime_exactness():
    _run(acceptance.criterion_4_switching_regime_exactness, 2.0)



def test_criterion_4_gates_sharp_prefactors(monkeypatch):
    # with t1 = 2 and the sharp predictions' prefactor read as t2 = 1, every
    # exponent still matches but every ratio is about 2
    p = derive(**{**acceptance.P3.raw(), "t1": 2})
    preds = [dataclasses.replace(e, prefactor="t2") for e in acceptance.predict_roots(p, classify(p))]
    assert all(e.sharp for e in preds)
    monkeypatch.setattr(acceptance, "P3", p)
    monkeypatch.setattr(acceptance, "predict_roots", lambda p, tag: preds)
    with pytest.raises(AssertionError) as err:
        acceptance.criterion_4_switching_regime_exactness()
    assert "prefactor_ratio" in str(err.traceback[-1].statement)


def test_criterion_5_theorem_oracle_suite():
    _run(acceptance.criterion_5_theorem_oracle_suite, 60.0)


def test_criterion_6_non_cancellation_sufficiency():
    _run(acceptance.criterion_6_non_cancellation_sufficiency, 60.0)


def test_criterion_7_equation_residuals():
    _run(acceptance.criterion_7_equation_residuals, 60.0)


def test_criterion_8_slope_calibration():
    _run(acceptance.criterion_8_slope_calibration, 10.0)
