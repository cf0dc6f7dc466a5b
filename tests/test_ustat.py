import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsustat import ustat
from tsustat.hidim import kendall_matrix, spearman_matrix
from tsustat.kernels import (KernelSpec, mean_kernel, sign_product_kernel,
                             spearman_symmetric_kernel, table_kernel)
from tsustat.processes import (ProcessSpec, SeriesPath, generate_batch, iid_chain,
                               two_state_chain)
from tsustat.ustat import (_count_inversions_batch, _ranks, kendall_tau, kendall_tau_batch,
                           kendall_tau_numerator, spearman_rho, spearman_rho3_batch,
                           theta_independent, theta_star, u_statistic)

from oracles import hoeffding_decoupling_average


def brute_tau_numerator(x, y):
    T = len(x)
    return sum(
        int(np.sign(x[i] - x[j]) * np.sign(y[i] - y[j]))
        for i, j in itertools.combinations(range(T), 2)
    )


def test_u_statistic_mean_kernel():
    assert u_statistic(np.array([1.0, 2.0, 3.0]), mean_kernel(bound=5.0)) == 2.0


def test_u_statistic_constant_kernel():
    k = KernelSpec(order=2, bound=1.0, kind="constant", fn=lambda x, y: 0.7)
    rng = np.random.default_rng(0)
    assert u_statistic(rng.standard_normal(6), k) == pytest.approx(0.7)


def test_u_statistic_sign_product_example():
    path = np.array([[1, 2], [2, 1], [3, 4], [4, 3]], dtype=float)
    assert u_statistic(path, sign_product_kernel()) == pytest.approx(1.0 / 3.0)


def test_u_statistic_guards():
    with pytest.raises(ValueError):
        u_statistic(np.zeros((1, 2)), sign_product_kernel())
    with pytest.raises(ValueError):
        u_statistic(np.zeros(100), KernelSpec(order=4, bound=1.0, kind="zero",
                                              fn=lambda *a: 0.0), max_terms=1000)


def test_u_statistic_invariant_under_time_permutation():
    rng = np.random.default_rng(5)
    path = rng.standard_normal((12, 2))
    k = sign_product_kernel()
    base = u_statistic(path, k)
    for _ in range(5):
        perm = rng.permutation(12)
        assert u_statistic(path[perm], k) == pytest.approx(base, abs=1e-13)


def brute_inversions(row):
    """O(T^2) count of pairs i < j with row[i] > row[j]."""
    row = np.asarray(row, dtype=np.int64)
    return int(np.triu(row[:, None] > row[None, :], k=1).sum())


@pytest.mark.parametrize("T", [1, 2, 3, 255, 256, 257, 1025])
def test_inversion_counter_matches_pair_count(T):
    """Random permutations plus the identity and the reversed row, on both
    sides of the uint8 and uint16 working-dtype boundaries."""
    rng = np.random.default_rng(T)
    rows = np.stack([np.arange(T), np.arange(T)[::-1]]
                    + [rng.permutation(T) for _ in range(6)])
    inv = _count_inversions_batch(rows)
    assert inv.dtype == np.int64
    assert inv.tolist() == [brute_inversions(r) for r in rows]
    assert inv[1] == math.comb(T, 2)


def test_inversion_counter_wide_row_in_closed_form():
    """A row longer than 65536 (uint32 working dtype): shuffled blocks placed in
    reversed value ranges. Every earlier block's values exceed every later
    block's, so the count is the within-block counts plus m_i m_j per block
    pair."""
    rng = np.random.default_rng(17)
    sizes = rng.integers(600, 1200, size=90)
    T = int(sizes.sum())
    assert T > 65536
    tops = T - np.concatenate([[0], np.cumsum(sizes)[:-1]])
    blocks = [top - m + rng.permutation(m) for top, m in zip(tops, sizes)]
    row = np.concatenate(blocks)
    assert np.array_equal(np.sort(row), np.arange(T))
    within = sum(brute_inversions(b) for b in blocks)
    across = (int(sizes.sum()) ** 2 - int((sizes ** 2).sum())) // 2
    assert _count_inversions_batch(np.stack([row, np.arange(T)])).tolist() == [
        within + across, 0]


@pytest.mark.parametrize("rows,T", [(1, 1), (1, 7), (1, 300), (9, 2), (9, 40), (9, 300)])
def test_ranks_invert_the_order_and_flag_ties(rows, T):
    """Ranks are the inverse permutation of the order, the order sorts each
    row, and the tie flag agrees with a count of distinct values, on rows
    with and without rounding ties."""
    rng = np.random.default_rng(rows * 1000 + T)
    data = rng.standard_normal((rows, T))
    data[::2] = np.round(data[::2] * 3)  # ties in every other row, once T allows
    order, ranks, tied = _ranks(data)
    assert order.shape == ranks.shape == data.shape and tied.shape == (rows,)
    for i in range(rows):
        assert np.array_equal(ranks[i][order[i]], np.arange(T))
        assert np.all(np.diff(data[i][order[i]]) >= 0)
        assert tied[i] == (np.unique(data[i]).size < T)
    if T >= 40:  # both kinds of row occur
        assert tied[0] and (rows == 1 or not tied[1])


def test_kendall_tau_monotone_paths():
    t = np.arange(10.0)
    up = np.column_stack([t, 2 * t + 1])
    assert kendall_tau(up) == 1.0
    down = np.column_stack([t, -t])
    assert kendall_tau(down) == -1.0


def test_kendall_tau_matches_bruteforce_fuzz():
    rng = np.random.default_rng(9)
    for _ in range(60):
        T = int(rng.integers(2, 80))
        x = rng.standard_normal(T)
        y = rng.standard_normal(T)
        assert kendall_tau_numerator(x, y) == brute_tau_numerator(x, y)


def test_kendall_tau_with_ties_matches_bruteforce():
    rng = np.random.default_rng(10)
    for _ in range(40):
        T = int(rng.integers(3, 40))
        x = rng.integers(0, 4, size=T).astype(float)
        y = rng.integers(0, 4, size=T).astype(float)
        assert kendall_tau_numerator(x, y) == brute_tau_numerator(x, y)


def test_kendall_tau_batch_matches_scalar():
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((20, 37))
    ys = rng.standard_normal((20, 37))
    taus = kendall_tau_batch(xs, ys)
    for i in range(20):
        assert taus[i] == kendall_tau(np.column_stack([xs[i], ys[i]]))


def test_kendall_tau_batch_with_ties_matches_scalar():
    x = np.array([[0.0, 0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], [3.0, 1.0, 2.0, 0.0]])
    y = np.array([[1.0, 0.0, 2.0, 3.0], [1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0]])
    taus = kendall_tau_batch(x, y)
    for i in range(3):
        assert taus[i] == kendall_tau(np.column_stack([x[i], y[i]]))
    assert taus[0] == pytest.approx(5.0 / 6.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6), T=st.integers(3, 24),
       decimals=st.sampled_from([None, 1, 0]))
def test_batched_rank_kernels_match_enumeration(seed, rows, T, decimals):
    """Both batched rank kernels against the enumerator, ties forced by rounding."""
    rng = np.random.default_rng(seed)
    xy = rng.standard_normal((rows, T, 2))
    if decimals is not None:
        xy = np.round(xy, decimals)
    tau = kendall_tau_batch(xy[:, :, 0], xy[:, :, 1])
    rho3 = spearman_rho3_batch(xy[:, :, 0], xy[:, :, 1])
    for i in range(rows):
        assert tau[i] == u_statistic(xy[i], sign_product_kernel())
        assert rho3[i] == u_statistic(xy[i], spearman_symmetric_kernel())


def test_spearman_rho3_batch_matches_identity_at_larger_T():
    rng = np.random.default_rng(16)
    for T in (40, 80):
        xy = rng.standard_normal((1, T, 2))
        assert spearman_rho3_batch(xy[:, :, 0], xy[:, :, 1])[0] == spearman_rho(xy[0]).rho3
    with pytest.raises(ValueError):
        spearman_rho3_batch(np.zeros((1, 2)), np.zeros((1, 2)))


def test_spearman_monotone():
    t = np.arange(8.0)
    r = spearman_rho(np.column_stack([t, t ** 3]))
    assert r.rho == 1.0 and r.tau == 1.0
    r = spearman_rho(np.column_stack([t, -t]))
    assert r.rho == -1.0


def test_spearman_identity_fuzz():
    rng = np.random.default_rng(12)
    for _ in range(30):
        T = int(rng.integers(5, 40))
        path = rng.standard_normal((T, 2))
        r = spearman_rho(path)
        rhs = (T - 2) / (T + 1) * r.rho3 + 3.0 * r.tau / (T + 1)
        assert abs(r.rho - rhs) <= 1e-12


def test_spearman_rejects_ties_and_short_paths():
    with pytest.raises(ValueError):
        spearman_rho(np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 4.0]]))
    with pytest.raises(ValueError):
        spearman_rho(np.array([[1.0, 2.0], [2.0, 3.0]]))


def test_decoupling_identity_small():
    rng = np.random.default_rng(13)
    k = sign_product_kernel()
    path = rng.standard_normal((4, 2))
    assert hoeffding_decoupling_average(path, k) == pytest.approx(
        kendall_tau(path), abs=1e-14)


def test_decoupling_order3():
    rng = np.random.default_rng(15)
    path = rng.standard_normal((6, 2))
    k = spearman_symmetric_kernel()
    assert hoeffding_decoupling_average(path, k) == pytest.approx(
        u_statistic(path, k), abs=1e-12)


MATCH = np.array([[0.5, -0.5], [-0.5, 0.5]])


def test_theta_star_iid_equals_theta():
    chain = iid_chain([0.3, 0.7])
    k = table_kernel(MATCH)
    for T in (5, 12):
        assert theta_star(chain, k, T, 2) == pytest.approx(
            theta_independent(chain, k, 2), abs=1e-13)


def test_theta_star_constant_kernel():
    chain = two_state_chain(0.25)
    k = table_kernel(np.full((2, 2), 0.4))
    assert theta_star(chain, k, 10, 2) == pytest.approx(0.4, abs=1e-13)
    k3 = table_kernel(np.full((2, 2, 2), -0.2))
    assert theta_star(chain, k3, 8, 3) == pytest.approx(-0.2, abs=1e-13)


def test_theta_independent_examples():
    chain = two_state_chain(0.25)  # uniform stationary distribution
    k = table_kernel(MATCH)
    assert theta_independent(chain, k, 2) == pytest.approx(0.0, abs=1e-15)
    const = table_kernel(np.full((2, 2), 0.3))
    assert theta_independent(chain, const, 2) == pytest.approx(0.3, abs=1e-15)
    assert theta_independent(np.array([0.2, 0.8]), const, 2) == pytest.approx(0.3)


def test_theta_star_matches_the_enumerated_chain_law():
    # the mean of U over all 2^10 paths, each weighted by its chain probability
    chain = two_state_chain(0.25)
    k = table_kernel(MATCH)
    T = 10
    paths = np.array(list(itertools.product(range(2), repeat=T)))
    P, pi = chain.transition, chain.stationary
    prob = pi[paths[:, 0]] * np.prod(P[paths[:, :-1], paths[:, 1:]], axis=1)
    assert prob.sum() == pytest.approx(1.0, abs=1e-14)
    u_vals = [u_statistic(SeriesPath(states=states), k) for states in paths]
    assert prob @ u_vals == pytest.approx(theta_star(chain, k, T, 2), abs=1e-14)


def test_theta_star_guards():
    chain = two_state_chain(0.25)
    k = table_kernel(MATCH)
    with pytest.raises(ValueError):
        theta_star(chain, k, 2001, 2)  # above the order-2 cap
    with pytest.raises(ValueError):
        theta_star(chain, k, 5, 4)


def test_sign_product_time_reversal_consistency():
    # tau of a state-valued path via the table kernel equals the generic path
    chain = two_state_chain(0.25)
    spec = ProcessSpec(kind="markov_chain", seed=77, chain=chain)
    states = generate_batch(spec, 30, 1)[0]
    k = table_kernel(MATCH)
    path = SeriesPath(states=states)
    direct = u_statistic(path, k)
    manual = np.mean([MATCH[states[i], states[j]]
                      for i, j in itertools.combinations(range(30), 2)])
    assert direct == pytest.approx(manual, abs=1e-13)


RANK_EVALUATORS = {
    "kendall_tau_batch": lambda xy: kendall_tau_batch(xy[None, :, 0], xy[None, :, 1]),
    "spearman_rho3_batch": lambda xy: spearman_rho3_batch(xy[None, :, 0], xy[None, :, 1]),
    "kendall_tau_numerator": lambda xy: kendall_tau_numerator(xy[:, 0], xy[:, 1]),
    "kendall_tau": kendall_tau,
    "spearman_rho": spearman_rho,
    "kendall_matrix": kendall_matrix,
    "spearman_matrix": spearman_matrix,
}


@pytest.mark.parametrize("name", list(RANK_EVALUATORS))
def test_rank_evaluators_reject_non_finite_values(name):
    """A NaN, or two equal infinities (whose difference is NaN), in either
    coordinate is a ValueError, not a rank."""
    evaluate = RANK_EVALUATORS[name]
    xy = np.random.default_rng(21).standard_normal((9, 2))
    evaluate(xy)
    for bad in (np.nan, np.inf, -np.inf):
        for col in (0, 1):
            broken = xy.copy()
            broken[[2, 6], col] = bad
            with pytest.raises(ValueError, match="finite"):
                evaluate(broken)


ROW_KINDS = ("plain", "rounded", "signed-zeros", "nextafter", "ulp-run")


def _near_tie_row(rng, T: int, kind: str) -> np.ndarray:
    """One row of T values of the given kind: distinct normals, rounding
    ties, +0.0 and -0.0 mixed in, entries one ulp above others, or a run of
    values within 2^bits ulps of one value, bits = ceil(log2 T) as in the
    rank keys."""
    v = rng.standard_normal(T)
    if kind == "rounded":
        return np.round(2 * v)
    if kind == "signed-zeros":
        v[rng.random(T) < 0.4] = 0.0
        v[rng.random(T) < 0.3] = -0.0
    elif kind == "nextafter":
        i, j = rng.integers(0, T, size=(2, T // 2 + 1))
        v[j] = np.nextafter(v[i], np.inf)
    elif kind == "ulp-run":
        bits = (T - 1).bit_length()
        v = (v[:1].view(np.int64) + rng.integers(0, 1 << bits, size=T)).view(np.float64)
    return v


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 4),
       T=st.sampled_from([2, 3, 4, 5, 8, 9, 16, 17, 32, 33]),
       kinds=st.tuples(st.sampled_from(ROW_KINDS), st.sampled_from(ROW_KINDS)))
def test_key_sort_rank_kernels_match_their_oracles(seed, rows, T, kinds):
    """The key-sort evaluators against pairwise counting and enumeration on
    rows built to put near ties in the keys, at T = 2^k and 2^k + 1, where
    the key's index width changes."""
    rng = np.random.default_rng(seed)
    x = np.stack([_near_tie_row(rng, T, kinds[0]) for _ in range(rows)])
    y = np.stack([_near_tie_row(rng, T, kinds[1]) for _ in range(rows)])
    pairs = math.comb(T, 2)
    tau = kendall_tau_batch(x, y)
    rho3 = spearman_rho3_batch(x, y) if T >= 3 else None
    for i in range(rows):
        xy = np.column_stack([x[i], y[i]])
        assert tau[i] == kendall_tau_numerator(x[i], y[i]) / pairs
        assert tau[i] == brute_tau_numerator(x[i], y[i]) / pairs
        assert tau[i] == u_statistic(xy, sign_product_kernel())
        if rho3 is not None:
            assert rho3[i] == u_statistic(xy, spearman_symmetric_kernel())
    data = np.column_stack([*x, *y])
    data = data[:, data.max(axis=0) > data.min(axis=0)]  # constant columns are rejected
    if T >= 3 and data.shape[1] >= 2:
        km = kendall_matrix(data).matrix
        for j, k in itertools.combinations(range(data.shape[1]), 2):
            assert km[j, k] == kendall_tau_numerator(data[:, j], data[:, k]) / pairs
            assert km[j, k] == brute_tau_numerator(data[:, j], data[:, k]) / pairs


def test_near_ties_take_the_argsort_route(monkeypatch):
    """Two distinct values one ulp apart, 1.0 and the next float (low key
    bits 0 and 1), share their keys' high bits, so their row, and only it,
    takes the argsort route, and is not tied."""
    calls = []

    def recording(name):
        original = getattr(ustat, name)

        def record(*rows):
            calls.append((name, rows[0].shape[0]))
            return original(*rows)
        monkeypatch.setattr(ustat, name, record)

    recording("_argsort_rank_pair")
    recording("_argsort_ranks")
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, 3, 9))
    x[1, 7] = 1.0
    x[1, 4] = np.nextafter(1.0, np.inf)
    tau = kendall_tau_batch(x, y)
    assert ("_argsort_rank_pair", 1) in calls and all(n == 1 for _, n in calls)
    for i in range(3):
        assert tau[i] == u_statistic(np.column_stack([x[i], y[i]]), sign_product_kernel())
    calls.clear()
    order, ranks, tied = _ranks(x)
    assert calls == [("_argsort_ranks", 1)] and not tied.any()
    assert np.array_equal(order[1], np.argsort(x[1]))
    assert np.array_equal(ranks[1][order[1]], np.arange(9))
