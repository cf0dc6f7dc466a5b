"""Telescoping decomposition: the gap-table evaluator against the tuple
enumerator, residual identity, zero conditional means, boundedness of the
aggregated terms, the exact conditional-mean tables, and the chain law
enumerated over every path."""
import itertools
import json
import math

import numpy as np
import pytest

from tsustat import processes
from tsustat.kernels import mean_kernel, table_kernel
from tsustat.processes import (ProcessSpec, SeriesPath, cycle_chain, generate,
                               generate_batch, iid_chain, random_chain, two_state_chain)
from tsustat.ustat import (_DECOMPOSE_T_CAP, _chain_law_tables, chain_law_bias,
                           check_zero_conditional_means, decompose,
                           theta_independent, theta_star, u_statistic)

MATCH = np.array([[0.5, -0.5], [-0.5, 0.5]])


def enumerated_decompose(states, chain, kernel):
    """The decomposition by one pass over all C(T, r) increasing index tuples,
    reading every level of every tuple from the gap tables: the oracle for
    ``decompose``, which reads the same sums from cumulative sums."""
    states = np.asarray(states)
    T, r, H = states.shape[0], kernel.order, kernel.table
    tables = _chain_law_tables(chain, kernel, T)
    n_tuples = math.comb(T, r)
    idx = np.array(list(itertools.combinations(range(T), r)))
    gaps = tuple(np.diff(idx, axis=1).T)
    x = states[idx]
    levels = [H[tuple(x.T)]]
    for j, E in zip(range(r - 1, -1, -1), tables):
        levels.append(E[gaps + tuple(x[:, :j].T)])
    s_terms, b_max = [], 0.0
    for k in range(1, r + 1):
        terms = (levels[k - 1] - levels[k]) / T ** (k - 1)
        s_terms.append(T ** (k - 1) * math.fsum(terms) / n_tuples)
        m = r - k + 1
        key = np.ravel_multi_index(tuple(idx[:, :m].T), (T,) * m)
        b_max = max(b_max, float(np.max(np.abs(np.bincount(key, weights=terms)))))
    u_value = math.fsum(levels[0]) / n_tuples
    expectation = math.fsum(levels[r]) / n_tuples
    return {"order": r, "length": T, "s_terms": s_terms, "u_value": u_value,
            "theta_star": expectation, "residual": u_value - expectation - math.fsum(s_terms),
            "b_term_max_abs": b_max, "kernel_bound": float(np.max(np.abs(H)))}


def per_path(rep, i):
    """Path i of a stack's ``decompose`` dict, in the one-path form."""
    return {key: value[i].tolist() if key in ("s_terms", "u_value", "residual", "b_term_max_abs")
            else value for key, value in rep.items()}


def assert_reports_agree(got, want, tol=1e-12):
    assert (got["order"], got["length"]) == (want["order"], want["length"])
    for field in ("u_value", "theta_star", "residual", "b_term_max_abs", "kernel_bound"):
        assert abs(got[field] - want[field]) <= tol, (field, got[field], want[field])
    np.testing.assert_allclose(got["s_terms"], want["s_terms"], rtol=0, atol=tol)


@pytest.mark.parametrize("r", [2, 3])
def test_decompose_matches_the_tuple_enumerator(r):
    """Every report field within 1e-12 of the enumerator, for S = 2..4 and
    T from r to 40: random, zero and constant kernels; paths that never visit
    the last state or stay in one state."""
    rng = np.random.default_rng(500 + r)
    for s in (2, 3, 4):
        for T in sorted({r, r + 1, 7, 16, 29, 40}):
            chain = random_chain(s, rng)
            spec = ProcessSpec(kind="markov_chain", seed=int(rng.integers(1 << 30)),
                               chain=chain)
            paths = generate_batch(spec, T, 2)
            paths = np.vstack([paths, np.minimum(paths[:1], s - 2), np.zeros((1, T), int)])
            for H in (rng.uniform(-2.0, 2.0, size=(s,) * r), np.zeros((s,) * r),
                      np.full((s,) * r, -0.7)):
                kernel = table_kernel(H)
                rep = decompose(paths, chain, kernel)
                for i, states in enumerate(paths):
                    assert_reports_agree(per_path(rep, i),
                                         enumerated_decompose(states, chain, kernel))


def test_a_stack_of_paths_gives_the_single_path_reports():
    rng = np.random.default_rng(77)
    for r, s, T in [(2, 3, 25), (3, 4, 18), (3, 2, 3)]:
        chain = random_chain(s, rng)
        kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(s,) * r))
        paths = generate_batch(ProcessSpec(kind="markov_chain", seed=5, chain=chain), T, 4)
        stacked = decompose(paths, chain, kernel)
        assert stacked["s_terms"].shape == (4, r) and stacked["u_value"].shape == (4,)
        assert [per_path(stacked, i) for i in range(4)] == \
            [decompose(states, chain, kernel) for states in paths]
        assert per_path(stacked, 0) == decompose(SeriesPath(states=paths[0]), chain, kernel)
    assert decompose(np.zeros((0, 6), int), chain, kernel)["u_value"].shape == (0,)  # empty


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
        rep = decompose(path, chain, kernel)
        assert abs(rep["residual"]) <= 1e-10 * max(1.0, abs(rep["u_value"]))
        assert rep["b_term_max_abs"] <= 2.0 * rep["kernel_bound"] + 1e-12
        assert len(rep["s_terms"]) == r


@pytest.mark.parametrize("r", [2, 3])
def test_u_and_theta_star_match_independent_paths(r):
    rng = np.random.default_rng(200 + r)
    chain, kernel, path, T = random_instance(rng, r)
    rep = decompose(path, chain, kernel)
    assert rep["u_value"] == pytest.approx(u_statistic(path, kernel), abs=1e-11)
    assert rep["theta_star"] == pytest.approx(theta_star(chain, kernel, T), abs=1e-11)


def test_iid_chain_degenerate_kernel_kills_last_term():
    # uniform stationary law and the match kernel: conditioning on the first
    # argument already integrates to the unconditional mean, so the last
    # per-order term vanishes pathwise
    chain = iid_chain([0.5, 0.5])
    kernel = table_kernel(MATCH)
    spec = ProcessSpec(kind="markov_chain", seed=17, chain=chain)
    for T in (6, 15):
        rep = decompose(generate(spec, T), chain, kernel)
        assert abs(rep["s_terms"][1]) <= 1e-12


@pytest.mark.parametrize("r", [2, 3])
def test_conditional_means_zero_by_enumeration(r):
    rng = np.random.default_rng(300 + r)
    for _ in range(6):
        s = int(rng.integers(2, 5))
        chain = random_chain(s, rng)
        kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(s,) * r))
        T = int(rng.integers(r + 1, 14))
        assert check_zero_conditional_means(chain, kernel, T) <= 1e-10


def test_decompose_validation():
    chain = two_state_chain(0.25)
    kernel = table_kernel(MATCH)
    with pytest.raises(ValueError):
        decompose(np.array([0, 1, 2]), chain, kernel)  # state out of range
    order3 = table_kernel(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        decompose(np.array([0, 1]), chain, order3)  # too short
    with pytest.raises(ValueError):  # above the order-3 cap
        decompose(np.zeros(501, dtype=int), chain, order3)
    with pytest.raises(ValueError):  # above the order-2 cap
        decompose(np.zeros((2, 2001), dtype=int), chain, kernel)
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3, 4), dtype=int), chain, kernel)  # not a path or a stack
    with pytest.raises(ValueError):  # a table over three states on a two-state chain
        decompose(np.zeros(4, dtype=int), chain, table_kernel(np.zeros((3, 3))))
    with pytest.raises(ValueError):
        decompose(np.array([0.0, 1.0, 1.0]), chain, kernel)  # not states


def test_report_serializes():
    chain = two_state_chain(0.25)
    spec = ProcessSpec(kind="markov_chain", seed=4, chain=chain)
    rep = decompose(generate(spec, 12), chain, table_kernel(MATCH))
    assert json.loads(json.dumps(rep)) == rep
    assert set(rep) == {"order", "length", "s_terms", "u_value", "theta_star",
                        "residual", "b_term_max_abs", "kernel_bound"}
    # the bounds decompose-check applies (residual_ok, p2_ok)
    assert abs(rep["residual"]) <= 1e-10
    assert rep["b_term_max_abs"] / (2 * rep["kernel_bound"]) <= 1 + 1e-12


@pytest.mark.parametrize("r", [2, 3])
def test_conditional_mean_check_catches_a_wrong_power(r, monkeypatch):
    rng = np.random.default_rng(57)
    chain = random_chain(3, rng)
    kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(3,) * r))
    assert check_zero_conditional_means(chain, kernel, 8) <= 1e-10
    true_power = chain.power
    monkeypatch.setattr(chain, "power",
                        lambda n: np.eye(3) if n == 3 else true_power(n))
    assert check_zero_conditional_means(chain, kernel, 8) > 1e-3


def test_gap_tables_bounded():
    rng = np.random.default_rng(55)
    chain = random_chain(3, rng)
    kernel = table_kernel(rng.uniform(-1.5, 1.5, size=(3, 3, 3)))
    bound = float(np.max(np.abs(kernel.table)))
    E2, E1, E0 = _chain_law_tables(chain, kernel, 8)
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
    E2, E1, E0 = _chain_law_tables(chain, kernel, 6)
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
    paths = np.array(list(itertools.product(range(s), repeat=T)))
    prob = pi[paths[:, 0]] * np.prod(P[paths[:, :-1], paths[:, 1:]], axis=1)
    rep = decompose(paths, chain, kernel)
    mean_u = prob @ rep["u_value"]
    mean_s = prob @ rep["s_terms"]
    assert mean_u == pytest.approx(theta_star(chain, kernel, T), abs=1e-12)
    np.testing.assert_allclose(mean_s, 0.0, atol=1e-12)


def gap_weighted_mean(chain, kernel, T):
    """Mean of the gap table E_0 over the C(T, r) increasing index tuples of
    a length-T path, whose gaps (g_1, ..., g_{r-1}) occur in T - sum(g) of
    them: theta* by the gap tables, independent of the closed form."""
    E0 = _chain_law_tables(chain, kernel, T)[-1]
    gaps = np.indices(E0.shape)
    count = T - gaps.sum(axis=0)
    used = (gaps > 0).all(axis=0) & (count > 0)
    return math.fsum((count * E0)[used]) / math.comb(T, kernel.order)


@pytest.mark.parametrize("s", [2, 3, 4])
@pytest.mark.parametrize("r", [2, 3])
def test_closed_form_theta_star_matches_the_gap_sum(r, s):
    """The closed form against the gap-weighted mean of E_0, within 1e-12,
    at T from r up to the decomposition cap."""
    rng = np.random.default_rng(400 + 10 * r + s)
    cap = _DECOMPOSE_T_CAP[r]
    for concentration in (0.3, 3.0):
        chain = random_chain(s, rng, concentration)
        kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(s,) * r))
        for T in (r, r + 1, int(rng.integers(r + 2, 60)), int(rng.integers(60, cap)), cap):
            gap_sum = gap_weighted_mean(chain, kernel, T)
            assert theta_star(chain, kernel, T) == pytest.approx(gap_sum, rel=0, abs=1e-12)


@pytest.mark.parametrize("r", [2, 3])
def test_closed_form_bias_on_periodic_and_iid_chains(r):
    """A cycle does not mix, so its Q^g never decay; an iid chain has
    Q = P - 1 pi = 0, so its bias is exactly 0 at any T."""
    rng = np.random.default_rng(450 + r)
    kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(3,) * r))
    cycle = cycle_chain(3)
    for T in (r, 10, 101):
        gap_sum = gap_weighted_mean(cycle, kernel, T)
        assert theta_star(cycle, kernel, T) == pytest.approx(gap_sum, rel=0, abs=1e-12)
    iid = iid_chain([0.25, 0.375, 0.375])
    assert np.array_equal(iid.transition - iid.stationary, np.zeros((3, 3)))
    for T in (r, 10, 10 ** 6):
        assert chain_law_bias(iid, kernel, T) == 0.0


@pytest.mark.parametrize("r", [2, 3])
def test_a_stack_decomposes_as_its_paths_alone(r, monkeypatch):
    """A stack is read in chunks of paths; with chunks of one or a few paths
    or one chunk for all, every report equals the report of its path alone,
    bit for bit."""
    rng = np.random.default_rng(500 + r)
    chain = random_chain(3, rng)
    kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(3,) * r))
    paths = rng.integers(0, 3, size=(7, 25))
    alone = [decompose(path, chain, kernel) for path in paths]
    assert [per_path(decompose(paths, chain, kernel), i) for i in range(7)] == alone
    pair_reads = math.comb(25, 2) * 3 ** (r - 2)
    for budget in (1, 3 * pair_reads):  # chunks of one path, then of three
        monkeypatch.setattr(processes, "BLOCK_VALUES", budget)
        assert [per_path(decompose(paths, chain, kernel), i) for i in range(7)] == alone
    assert decompose(paths[:0], chain, kernel)["s_terms"].shape == (0, r)


def test_every_chain_law_function_rejects_a_raw_array():
    """Only a table kernel fixes a symmetric table and its order. A raw
    non-symmetric array was read symmetrized by the U evaluator but in time
    order by the gap tables, so its decomposition left residuals near 1e-2."""
    rng = np.random.default_rng(27)
    chain = random_chain(3, rng)
    H = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
    path = generate(ProcessSpec(kind="markov_chain", seed=3, chain=chain), 12)
    calls = [lambda k: decompose(path, chain, k), lambda k: theta_star(chain, k, 12),
             lambda k: chain_law_bias(chain, k, 12), lambda k: theta_independent(chain, k),
             lambda k: check_zero_conditional_means(chain, k, 12)]
    for call in calls:
        for kernel in (H, table_kernel(H).table, mean_kernel()):
            with pytest.raises(ValueError, match="needs a table kernel"):
                call(kernel)
    assert abs(decompose(path, chain, table_kernel(H))["residual"]) <= 1e-13
