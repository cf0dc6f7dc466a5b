"""Telescoping decomposition: residual identity, zero conditional means,
boundedness of the aggregated terms, the exact conditional-mean tables, and
the chain law enumerated over every path."""
import itertools
import math

import numpy as np
import pytest

from tsustat.kernels import table_kernel
from tsustat.processes import (FiniteMarkovChain, ProcessSpec, generate, iid_chain,
                               random_chain, two_state_chain)
from tsustat.ustat import (_chain_law_tables, check_zero_conditional_means, decompose,
                           theta_star, u_statistic)

MATCH = np.array([[0.5, -0.5], [-0.5, 0.5]])


def random_instance(rng, r):
    s = int(rng.integers(2, 5))
    chain = random_chain(s, rng)
    T = int(rng.integers(r + 1, 28))
    kernel = table_kernel(rng.uniform(-2.0, 2.0, size=(s,) * r))
    spec = ProcessSpec(kind="markov_chain", seed=int(rng.integers(1 << 30)), chain=chain)
    return chain, kernel, generate(spec, T), T


@pytest.mark.parametrize("r", [2, 3])
def test_telescoping_residual_fuzz(r):
    rng = np.random.default_rng(100 + r)
    for _ in range(25):
        chain, kernel, path, T = random_instance(rng, r)
        rep = decompose(path, chain, kernel, r)
        assert abs(rep.residual) <= 1e-10 * max(1.0, abs(rep.u_value))
        assert rep.b_term_max_abs <= 2.0 * rep.kernel_bound + 1e-12
        assert len(rep.s_terms) == r


@pytest.mark.parametrize("r", [2, 3])
def test_u_and_theta_star_match_independent_paths(r):
    rng = np.random.default_rng(200 + r)
    chain, kernel, path, T = random_instance(rng, r)
    rep = decompose(path, chain, kernel, r)
    assert rep.u_value == pytest.approx(u_statistic(path, kernel), abs=1e-11)
    assert rep.theta_star == pytest.approx(theta_star(chain, kernel, T, r), abs=1e-11)


def test_iid_chain_degenerate_kernel_kills_last_term():
    # uniform stationary law and the match kernel: conditioning on the first
    # argument already integrates to the unconditional mean, so the last
    # per-order term vanishes pathwise
    chain = iid_chain([0.5, 0.5])
    kernel = table_kernel(MATCH)
    spec = ProcessSpec(kind="markov_chain", seed=17, chain=chain)
    for T in (6, 15):
        rep = decompose(generate(spec, T), chain, kernel, 2)
        assert abs(rep.s_terms[1]) <= 1e-12


@pytest.mark.parametrize("r", [2, 3])
def test_conditional_means_zero_by_enumeration(r):
    rng = np.random.default_rng(300 + r)
    for _ in range(6):
        s = int(rng.integers(2, 5))
        chain = random_chain(s, rng)
        kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(s,) * r))
        T = int(rng.integers(r + 1, 14))
        assert check_zero_conditional_means(chain, kernel, T, r) <= 1e-10


def test_decompose_validation():
    chain = two_state_chain(0.25)
    kernel = table_kernel(MATCH)
    with pytest.raises(ValueError):
        decompose(np.array([0, 1, 2]), chain, kernel, 2)  # state out of range
    with pytest.raises(ValueError):
        decompose(np.array([0, 1]), chain, kernel, 3)  # too short
    with pytest.raises(ValueError):
        decompose(np.zeros(60, dtype=int), chain, table_kernel(np.zeros((2, 2, 2))), 3)


def test_report_serializes():
    chain = two_state_chain(0.25)
    spec = ProcessSpec(kind="markov_chain", seed=4, chain=chain)
    rep = decompose(generate(spec, 12), chain, table_kernel(MATCH), 2)
    d = rep.to_dict()
    assert set(d) == {"order", "length", "s_terms", "u_value", "theta_star",
                      "residual", "b_term_max_abs", "kernel_bound"}
    # the bounds decompose-check applies (residual_ok, p2_ok)
    assert abs(rep.residual) <= 1e-10
    assert rep.b_term_max_abs / (2 * rep.kernel_bound) <= 1 + 1e-12


@pytest.mark.parametrize("r", [2, 3])
def test_conditional_mean_check_catches_a_wrong_power(r, monkeypatch):
    rng = np.random.default_rng(57)
    chain = random_chain(3, rng)
    kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(3,) * r))
    assert check_zero_conditional_means(chain, kernel, 8, r) <= 1e-10
    true_power = chain.power
    monkeypatch.setattr(chain, "power",
                        lambda n: np.eye(3) if n == 3 else true_power(n))
    assert check_zero_conditional_means(chain, kernel, 8, r) > 1e-3


def test_gap_tables_bounded():
    rng = np.random.default_rng(55)
    chain = random_chain(3, rng)
    kernel = table_kernel(rng.uniform(-1.5, 1.5, size=(3, 3, 3)))
    bound = float(np.max(np.abs(kernel.table)))
    E2, E1, E0 = _chain_law_tables(chain, kernel, 8, 3)[1]
    assert E2.shape == (8, 8, 3, 3) and E1.shape == (8, 8, 3) and E0.shape == (8, 8)
    for g1, g2 in [(1, 1), (2, 3), (1, 4)]:
        assert np.max(np.abs(E2[g1, g2])) <= bound + 1e-12
        assert np.max(np.abs(E1[g1, g2])) <= bound + 1e-12
        assert abs(E0[g1, g2]) <= bound + 1e-12


def test_gap_tables_tower_property():
    # averaging the finer conditional over one transition gives the coarser one
    rng = np.random.default_rng(56)
    chain = random_chain(4, rng)
    kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(4, 4, 4)))
    E2, E1, E0 = _chain_law_tables(chain, kernel, 6, 3)[1]
    for g1, g2 in [(1, 2), (3, 1)]:
        np.testing.assert_allclose(
            np.einsum("xy,xy->x", chain.power(g1), E2[g1, g2]), E1[g1, g2], atol=1e-14)
        assert E0[g1, g2] == pytest.approx(float(chain.stationary @ E1[g1, g2]), abs=1e-14)


@pytest.mark.parametrize("s, T", [(2, 12), (3, 7)])
@pytest.mark.parametrize("r", [2, 3])
def test_decomposition_against_the_enumerated_chain_law(r, s, T):
    # every length-T path weighted by pi[s_0] prod P[s_t, s_t+1]: the mean of
    # U is theta_star and every per-order term has mean zero
    rng = np.random.default_rng(1000 * r + 10 * s + T)
    chain = random_chain(s, rng)
    kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(s,) * r))
    P, pi = chain.transition, chain.stationary
    mean_u = 0.0
    mean_s = np.zeros(r)
    for states in itertools.product(range(s), repeat=T):
        p = pi[states[0]] * math.prod(P[a, b] for a, b in zip(states, states[1:]))
        rep = decompose(np.array(states), chain, kernel, r)
        mean_u += p * rep.u_value
        mean_s += p * np.array(rep.s_terms)
    assert mean_u == pytest.approx(theta_star(chain, kernel, T, r), abs=1e-12)
    np.testing.assert_allclose(mean_s, 0.0, atol=1e-12)
