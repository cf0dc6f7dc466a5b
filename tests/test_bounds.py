import math

import numpy as np
import pytest

from tsustat.bounds import (BernsteinParams, BoundConstants, TailPoint,
                            bernstein_envelope, calibrate_constants, dominates,
                            empirical_log_mgf, hoeffding_bound, log_factor,
                            mixing_sum_logmgf_bound, ustat_tail_bound, bias_offset)
from tsustat.harness import _parse_constants


def test_hoeffding_bound_examples():
    assert hoeffding_bound(0.0, 100, 1.0) == 2.0
    assert hoeffding_bound(1.0, 100, 1.0, c0=1.0) == pytest.approx(2.0 * math.exp(-50.0))
    xs = np.linspace(0, 5, 60)
    vals = [hoeffding_bound(x, 50, 1.0) for x in xs]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-20
    with pytest.raises(ValueError):
        hoeffding_bound(-0.1, 10, 1.0)


def test_mixing_sum_forms():
    limit = 1.0 / log_factor(100)
    assert mixing_sum_logmgf_bound(1e-9, 100, 1.0) == pytest.approx(
        1e-18 * 100 / (1 - 1e-9 * log_factor(100)), rel=1e-9)
    assert mixing_sum_logmgf_bound(0.99 * limit, 100, 1.0) > 0
    with pytest.raises(ValueError):
        mixing_sum_logmgf_bound(limit, 100, 1.0)
    with pytest.raises(ValueError):
        mixing_sum_logmgf_bound(0.0, 100, 1.0)
    with pytest.raises(ValueError):
        log_factor(1)


def test_ustat_tail_bound_basics():
    assert ustat_tail_bound(0.0, 100, 1.0) == 2.0
    assert bias_offset(100, 2.0, c4=1.5) == pytest.approx(0.3)
    xs = np.linspace(0.0, 1.0, 101)
    vals = [ustat_tail_bound(x, 500, 1.0) for x in xs]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_ustat_tail_doubling_t_squares_ratio_in_quadratic_regime():
    # with M x logfactor << M^2 the exponent is linear in T
    x, M, T = 1e-5, 1.0, 1000
    r1 = ustat_tail_bound(x, T, M) / 2.0
    r2 = ustat_tail_bound(x, 2 * T, M) / 2.0
    assert abs(r2 - r1 * r1) < 1e-10


def test_ustat_tail_monotone_in_t_for_moderate_x():
    for x in (0.01, 0.1, 0.5, 1.0):
        vals = [ustat_tail_bound(x, T, 1.0) for T in (10, 20, 50, 100, 400, 1600)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_bias_bound():
    assert bias_offset(4, 1.0) == 0.5
    assert bias_offset(16, 1.0) == pytest.approx(bias_offset(4, 1.0) / 2.0)


def test_bernstein_params_validation():
    with pytest.raises(ValueError):
        BernsteinParams(-1.0, 0.0)


def test_envelope_domain():
    p = BernsteinParams(1.0, 2.0)
    assert bernstein_envelope(p, 0.0) == 0.0
    assert bernstein_envelope(p, 0.25) == pytest.approx(0.0625 / 0.5)
    with pytest.raises(ValueError):
        bernstein_envelope(p, 0.5)


def test_empirical_log_mgf():
    assert empirical_log_mgf([0.0, 0.0, 0.0], 3.0) == 0.0
    v = empirical_log_mgf([-1.0, 1.0], 1.0)
    assert v == pytest.approx(math.log(math.cosh(1.0)))
    with pytest.raises(ValueError):
        empirical_log_mgf([], 1.0)
    with pytest.raises(ValueError):
        empirical_log_mgf([100.0], 10.0)


def test_rademacher_sum_dominated_by_hoeffding_envelope():
    rng = np.random.default_rng(0)
    n = 10
    sums = rng.choice([-1.0, 1.0], size=(200_000, n)).sum(axis=1)
    combined = BernsteinParams(n * 1.0, n * 0.0)  # n summands, as mgf-check adds them
    for eta in np.linspace(0.01, 0.5, 20):
        assert empirical_log_mgf(sums, eta) <= bernstein_envelope(combined, eta)


def test_bound_constants_dict_round_trip():
    c = BoundConstants(c5=2.5, r=3)
    assert _parse_constants(c.to_dict()) == c
    with pytest.raises(ValueError):
        _parse_constants({"c9": 1.0})
    with pytest.raises(ValueError):
        BoundConstants(c0=0.0)


def synthetic_points(c5, c4=0.0, M=1.0):
    pts = []
    for T in (250, 500):
        for x in (0.05, 0.1, 0.2, 0.4):
            x_eff = max(x - c4 * M / math.sqrt(T), 0.0)
            pts.append(TailPoint(x=x, T=T, M=M,
                                 probability=ustat_tail_bound(x_eff, T, M, c5)))
    return pts


@pytest.mark.parametrize("k", [-40, 40, 520])
def test_bounds_and_calibration_read_x_over_m(k):
    """x and M scaled together by 2^k give the same bounds and constants; at
    k = 520, x^2 and M^2 overflow."""
    s = 2.0 ** k
    for x, T in ((0.1, 50), (0.7, 400)):
        assert ustat_tail_bound(s * x, T, s) == ustat_tail_bound(x, T, 1.0)
        assert hoeffding_bound(s * x, T, s) == hoeffding_bound(x, T, 1.0)
    pts = synthetic_points(0.37, c4=1.0)
    scaled = [p._replace(x=s * p.x, M=s * p.M) for p in pts]
    assert (calibrate_constants(scaled, c4=1.0)["constants"]
            == calibrate_constants(pts, c4=1.0)["constants"])


def test_calibration_round_trip():
    result = calibrate_constants(synthetic_points(0.1), c4=0.0)
    assert result["constants"]["c5"] == pytest.approx(0.1, abs=1e-6)
    assert not result["capped"]
    assert result["binding_point"] is not None


def test_calibration_with_offset_round_trip():
    result = calibrate_constants(synthetic_points(0.3, c4=1.0), c4=1.0)
    assert result["constants"]["c5"] == pytest.approx(0.3, abs=1e-6)


def test_calibration_degenerate_all_zero():
    pts = [TailPoint(x=x, T=T, M=1.0, probability=0.0)
           for T in (100, 200) for x in (0.1, 0.2, 0.3)]
    result = calibrate_constants(pts, c4=0.0, cap=123.0)
    assert result["capped"] and result["constants"]["c5"] == 123.0
    assert result["binding_point"] is None


def test_calibration_preconditions():
    pts = synthetic_points(0.1)[:4]
    with pytest.raises(ValueError):
        calibrate_constants(pts, c4=0.0)
    same_t = [TailPoint(x=x, T=100, M=1.0, probability=0.5)
              for x in (0.1, 0.2, 0.3, 0.4, 0.5)]
    with pytest.raises(ValueError):
        calibrate_constants(same_t, c4=0.0)


def test_calibration_result_dominates_training_points():
    pts = synthetic_points(0.37)
    result = calibrate_constants(pts, c4=0.0)
    for p in pts:
        assert dominates(result, p, tol=1e-12)
