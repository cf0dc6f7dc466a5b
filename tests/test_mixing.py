import json
import math

import numpy as np
import pytest

from tsustat.harness import ExperimentConfig, file_text, run_experiment
from tsustat.mixing import (alpha_coeff, beta_coeff, conditional_phi_coeff, fit_decay_rate,
                            mixing_profile, phi_coeff)
from tsustat.processes import (FiniteMarkovChain, cycle_chain, iid_chain, random_chain,
                               two_state_chain)

from oracles import (alpha_coeff_bruteforce, beta_coeff_bruteforce, conditional_phi_enumerated,
                     recursive_power)


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


def test_alpha_matches_the_supremum_over_subset_pairs():
    """The subset product's alpha is the literal supremum over all pairs of
    state subsets, on random chains of 2 to 6 states, concentrated rows
    included, and on a periodic chain."""
    rng = np.random.default_rng(34)
    for s in range(2, 7):
        for concentration in (0.3, 1.0, 4.0):
            chain = random_chain(s, rng, concentration)
            for n in (1, 2, 3, 7):
                assert abs(alpha_coeff(chain, n) - alpha_coeff_bruteforce(chain, n)) <= 1e-15
    cycle = cycle_chain(4)
    for n in (1, 2, 3):
        assert abs(alpha_coeff(cycle, n) - alpha_coeff_bruteforce(cycle, n)) <= 1e-15


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
    prof = mixing_profile(chain, "beta", range(1, 9))
    assert prof["fitted_gamma"] == pytest.approx(math.log(2), abs=1e-8)


def test_fit_decay_rate_errors():
    with pytest.raises(ValueError):
        fit_decay_rate(([1, 2], [0.5, 0.25]))
    with pytest.raises(ValueError):
        fit_decay_rate(([1, 2, 3], [0.5, 0.0, 0.1]))
    chain = cycle_chain(2)
    prof = mixing_profile(chain, "beta", range(1, 6))
    with pytest.raises(ValueError):
        fit_decay_rate((prof["lags"], prof["values"]))


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
            lit = conditional_phi_enumerated(chain, cond, j, n, horizon=h)
            assert lit == pytest.approx(exact, abs=1e-12)


def test_conditional_phi_matches_enumeration_at_longer_blocks():
    """Present blocks up to 6 coordinates long, on random chains and on a
    chain whose zero transitions leave some last present states unreachable
    from the conditioning state: the value reads only those states."""
    rng = np.random.default_rng(33)
    sparse = FiniteMarkovChain(np.array([[0.0, 0.5, 0.5], [0.0, 0.2, 0.8], [0.3, 0.0, 0.7]]))
    chains = [random_chain(int(rng.integers(2, 4)), rng) for _ in range(4)] + [sparse]
    for chain in chains:
        for j in range(1, 7):
            for n in (1, 3):
                cond = [(0, int(rng.integers(chain.state_count)))]
                lit = conditional_phi_enumerated(chain, cond, j, n, horizon=2)
                assert conditional_phi_coeff(chain, cond, j, n) == pytest.approx(lit, abs=1e-12)
    # from state 0 the sparse chain's next state is never 0
    assert conditional_phi_coeff(sparse, [(0, 0)], 1, 1) == pytest.approx(
        max(0.5 * np.abs(sparse.power(1)[x] - sparse.power(2)[0]).sum() for x in (1, 2)))


def test_conditional_phi_at_a_long_block_is_phi():
    """A present block of 10^6 coordinates forgets the conditioning: its last
    state follows pi, so the value is phi(n). The atoms are not enumerated."""
    chain = two_state_chain(0.3, 0.1)
    for n in (1, 2, 5):
        assert conditional_phi_coeff(chain, [(0, 0)], 10 ** 6, n) == pytest.approx(
            phi_coeff(chain, n), abs=1e-12)


def test_power_matches_matrix_power_below_200():
    rng = np.random.default_rng(5)
    periodic = FiniteMarkovChain(np.array([[0, 0, 0.5, 0.5], [0, 0, 0.3, 0.7],
                                           [0.4, 0.6, 0, 0], [0.2, 0.8, 0, 0]]))
    for chain in (two_state_chain(0.3, 0.1), random_chain(5, rng), cycle_chain(3), periodic):
        for g in range(200):
            np.testing.assert_allclose(chain.power(g), np.linalg.matrix_power(chain.transition, g),
                                       rtol=0, atol=1e-14)


def test_power_is_the_recursive_definition_bit_for_bit():
    """The loop over n's bits gives the recursion's P^n bit for bit, whether
    the powers are asked for from small n up or from the largest n down, and
    at n = 10^300, past the recursion's reach on a default call stack. The
    oracle is asked for the prefixes of n's bits first, 64 bits apart, so it
    never recurses more than 64 deep."""
    rng = np.random.default_rng(19)
    periodic = [[0, 0, 0.5, 0.5], [0, 0, 0.3, 0.7], [0.4, 0.6, 0, 0], [0.2, 0.8, 0, 0]]
    lags = [*range(200), 10 ** 6, 10 ** 6 + 1, 2 ** 40, 2 ** 40 - 1, 10 ** 30, 10 ** 300]
    for P in (two_state_chain(0.3, 0.1).transition, random_chain(5, rng).transition,
              random_chain(3, rng, 0.2).transition, cycle_chain(3).transition,
              np.array(periodic)):
        memo = {}
        for order in (lags, lags[::-1]):
            chain = FiniteMarkovChain(P)
            for n in order:
                for shift in range(n.bit_length() - 1, 0, -64):
                    recursive_power(P, n >> shift, memo)
                assert np.array_equal(chain.power(n), recursive_power(P, n, memo))


@pytest.mark.parametrize("lag", [10 ** 12, 10 ** 30])
def test_power_stays_stochastic_at_huge_lags(lag):
    """Repeated squaring alone compounds the rounding of the row sums: on this
    chain it read beta, phi and alpha as about 2.3e-6 at lag 10^12 and inf at
    10^30, where the true values are about 0.6^lag."""
    chain = two_state_chain(0.3, 0.1)
    assert np.max(np.abs(chain.power(lag).sum(axis=1) - 1.0)) <= 1e-15
    for coeff in (beta_coeff, phi_coeff, alpha_coeff):
        assert 0.0 <= coeff(chain, lag) <= 1e-15
    cycle = cycle_chain(3)  # periodic: P^lag = P^(lag mod 3), exactly
    assert np.array_equal(cycle.power(lag), cycle.power(lag % 3))


def test_conditional_phi_errors():
    chain = cycle_chain(3)
    with pytest.raises(ValueError):
        conditional_phi_coeff(chain, [(0, 0), (1, 0)], 1, 1)  # impossible event
    with pytest.raises(ValueError):
        conditional_phi_coeff(chain, [(2, 0), (1, 1)], 1, 1)  # times not increasing
    with pytest.raises(ValueError):
        conditional_phi_coeff(chain, [], 1, 1)


def test_profile_validation_and_serialization():
    run = run_experiment(ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "mixing-profile", "seed": 0, "lags": [1, 2, 3],
        "process": {"kind": "markov_chain", "transition": [[0.75, 0.25], [0.25, 0.75]]}}))
    data = run.data["profiles"]["phi"]
    assert data["kind"] == "phi" and len(data["values"]) == 3
    assert json.loads(json.dumps(data)) == data
    table = run.tables["mixing_phi.csv"]
    lines = file_text("mixing_phi.csv", table).splitlines()
    assert lines[0] == "lag,value"
    assert lines[1].startswith("1,0.25")
