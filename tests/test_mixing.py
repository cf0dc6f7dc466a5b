import json
import math

import numpy as np
import pytest

from tsustat.harness import MixingProfileResult
from tsustat.mixing import (MixingProfile, alpha_coeff, beta_coeff,
                            beta_coeff_bruteforce, conditional_phi_coeff,
                            fit_decay_rate, mixing_profile, phi_coeff)
from tsustat.processes import cycle_chain, iid_chain, random_chain, two_state_chain


def eigen_beta(p, n):
    # 2-state symmetric chain: beta(n) = phi(n) = 0.5 |1 - 2p|^n
    return 0.5 * abs(1.0 - 2.0 * p) ** n


def test_iid_chain_all_zero():
    chain = iid_chain([0.3, 0.5, 0.2])
    for n in (1, 2, 5):
        assert beta_coeff(chain, n) == pytest.approx(0.0, abs=1e-15)
        assert phi_coeff(chain, n) == pytest.approx(0.0, abs=1e-15)
        assert alpha_coeff(chain, n) == pytest.approx(0.0, abs=1e-15)


def test_two_state_closed_forms():
    chain = two_state_chain(0.25)
    assert beta_coeff(chain, 1) == pytest.approx(0.25, abs=1e-14)
    assert beta_coeff(chain, 3) == pytest.approx(0.0625, abs=1e-14)
    assert phi_coeff(chain, 1) == pytest.approx(0.25, abs=1e-14)
    for n in range(1, 11):
        assert beta_coeff(chain, n) == pytest.approx(eigen_beta(0.25, n), abs=1e-12)
        assert phi_coeff(chain, n) == pytest.approx(eigen_beta(0.25, n), abs=1e-12)


def test_two_state_alpha_bruteforce_value():
    # sup attained at singleton pair: |P(X0=0, X1=0) - pi_0^2| = 0.125
    chain = two_state_chain(0.25)
    joint = chain.stationary[:, None] * chain.power(1)
    best = 0.0
    for A in ((0,), (1,), (0, 1)):
        for B in ((0,), (1,), (0, 1)):
            pa = chain.stationary[list(A)].sum()
            pb = chain.stationary[list(B)].sum()
            pj = joint[np.ix_(list(A), list(B))].sum()
            best = max(best, abs(pj - pa * pb))
    assert alpha_coeff(chain, 1) == pytest.approx(best, abs=1e-15)
    assert alpha_coeff(chain, 1) == pytest.approx(0.125, abs=1e-15)


def test_cycle_chain_phi_constant():
    chain = cycle_chain(2)
    for n in (1, 2, 7):
        assert phi_coeff(chain, n) == pytest.approx(0.5, abs=1e-15)
        assert beta_coeff(chain, n) == pytest.approx(0.5, abs=1e-15)


def test_ordering_alpha_beta_phi():
    rng = np.random.default_rng(42)
    for _ in range(30):
        chain = random_chain(int(rng.integers(2, 5)), rng)
        for n in range(1, 6):
            a, b, p = alpha_coeff(chain, n), beta_coeff(chain, n), phi_coeff(chain, n)
            assert a <= b <= p


def test_monotone_decay_for_mixing_chains():
    rng = np.random.default_rng(7)
    for _ in range(10):
        chain = random_chain(3, rng)
        for fun in (alpha_coeff, beta_coeff, phi_coeff):
            vals = [fun(chain, n) for n in range(1, 8)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_beta_bruteforce_matches_formula():
    rng = np.random.default_rng(3)
    for s in (2, 3, 4):
        chain = random_chain(s, rng)
        for n in (1, 2, 4):
            assert beta_coeff_bruteforce(chain, n) == pytest.approx(
                beta_coeff(chain, n), abs=1e-12)


def test_lag_validation():
    chain = two_state_chain(0.25)
    for fun in (alpha_coeff, beta_coeff, phi_coeff):
        with pytest.raises(ValueError):
            fun(chain, 0)


def test_fit_decay_rate_exact_geometric():
    values = [0.5 * 0.5 ** n for n in range(1, 7)]
    gamma = fit_decay_rate((list(range(1, 7)), values))
    assert gamma == pytest.approx(math.log(2), abs=1e-10)


def test_fit_decay_rate_from_profile():
    chain = two_state_chain(0.25)
    prof = mixing_profile(chain, "beta", range(1, 9), fit=True)
    assert prof.fitted_gamma == pytest.approx(math.log(2), abs=1e-8)


def test_fit_decay_rate_errors():
    with pytest.raises(ValueError):
        fit_decay_rate(([1, 2], [0.5, 0.25]))
    with pytest.raises(ValueError):
        fit_decay_rate(([1, 2, 3], [0.5, 0.0, 0.1]))
    chain = cycle_chain(2)
    prof = mixing_profile(chain, "beta", range(1, 6))
    with pytest.raises(ValueError):
        fit_decay_rate(prof)


def test_conditional_phi_iid_zero():
    chain = iid_chain([0.4, 0.6])
    assert conditional_phi_coeff(chain, [(0, 1)], 2, 3) == pytest.approx(0.0, abs=1e-14)


def test_conditional_phi_bounded_by_twice_phi():
    rng = np.random.default_rng(12)
    for _ in range(8):
        s = int(rng.integers(2, 5))
        chain = random_chain(s, rng)
        for n in (1, 2, 4):
            cap = 2.0 * phi_coeff(chain, n) + 1e-12
            for state in range(s):
                for j in (1, 2):
                    v = conditional_phi_coeff(chain, [(0, state)], j, n)
                    assert v <= cap


def test_conditional_phi_two_point_conditioning():
    chain = two_state_chain(0.3, 0.2)
    v = conditional_phi_coeff(chain, [(0, 1), (3, 0)], 2, 2)
    assert 0.0 <= v <= 2.0 * phi_coeff(chain, 2) + 1e-12


def test_conditional_phi_horizon_invariant_and_matches_collapse():
    rng = np.random.default_rng(21)
    for _ in range(10):
        s = int(rng.integers(2, 4))
        chain = random_chain(s, rng)
        n = int(rng.integers(1, 4))
        j = int(rng.integers(1, 3))
        cond = [(0, int(rng.integers(s)))]
        exact = conditional_phi_coeff(chain, cond, j, n)
        for h in (1, 2, n + 4):
            lit = conditional_phi_coeff(chain, cond, j, n, horizon=h)
            assert lit == pytest.approx(exact, abs=1e-12)


def test_conditional_phi_errors():
    chain = cycle_chain(3)
    with pytest.raises(ValueError):
        conditional_phi_coeff(chain, [(0, 0), (1, 0)], 1, 1)  # impossible event
    with pytest.raises(ValueError):
        conditional_phi_coeff(chain, [(2, 0), (1, 1)], 1, 1)  # times not increasing
    with pytest.raises(ValueError):
        conditional_phi_coeff(chain, [], 1, 1)


def test_profile_validation_and_serialization():
    with pytest.raises(ValueError):
        MixingProfile(kind="beta", lags=[1, 2], values=[0.5])
    with pytest.raises(ValueError):
        MixingProfile(kind="beta", lags=[1], values=[1.5])
    with pytest.raises(ValueError):  # no code computes a conditional alpha profile
        MixingProfile(kind="conditional_alpha", lags=[1], values=[0.5])
    prof = mixing_profile(two_state_chain(0.25), "phi", [1, 2, 3])
    data = MixingProfileResult(profiles={"phi": prof}).data_dict()["profiles"]["phi"]
    assert data["kind"] == "phi" and len(data["values"]) == 3
    assert json.loads(json.dumps(data)) == data
    lines = MixingProfileResult(profiles={"phi": prof}).csv_files()["mixing_phi.csv"].splitlines()
    assert lines[0] == "lag,value"
    assert lines[1].startswith("1,0.25")
