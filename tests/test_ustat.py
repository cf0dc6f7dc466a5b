import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsustat import hidim, ustat
from tsustat.hidim import kendall_matrix, spearman_matrix
from tsustat.kernels import (KernelSpec, mean_kernel, sign_product_kernel,
                             spearman_symmetric_kernel, table_kernel)
from tsustat.processes import (ProcessSpec, SeriesPath, generate_batch, iid_chain,
                               two_state_chain)
from tsustat.ustat import (_count_inversions_batch, _ranks, chain_law_bias, kendall_tau,
                           kendall_tau_batch, kendall_tau_numerator, spearman_rho,
                           spearman_rho3_batch, theta_independent, theta_star, u_statistic)

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
    with pytest.raises(ValueError):  # C(1000, 4) > MAX_GENERIC_TERMS, caught before a term
        u_statistic(np.zeros(1000), KernelSpec(order=4, bound=1.0, kind="zero",
                                               fn=lambda *a: 0.0))


def test_u_statistic_invariant_under_time_permutation():
    rng = np.random.default_rng(5)
    path = rng.standard_normal((12, 2))
    k = sign_product_kernel()
    base = u_statistic(path, k)
    for _ in range(5):
        perm = rng.permutation(12)
        assert u_statistic(path[perm], k) == pytest.approx(base, abs=1e-13)


def test_value_paths_read_as_their_arrays():
    """A real-valued SeriesPath, 1-D (kept as one column) or bivariate, gives
    the statistics of its plain array; the decomposition takes states only."""
    rng = np.random.default_rng(61)
    x = rng.uniform(-1.0, 1.0, size=12)
    scalar = SeriesPath(values=x)
    assert scalar.values.shape == (12, 1) and scalar.dimension == 1
    assert u_statistic(scalar, mean_kernel()) == u_statistic(x, mean_kernel())
    xy = rng.standard_normal((12, 2))
    pair = SeriesPath(values=xy)
    assert u_statistic(pair, sign_product_kernel()) == u_statistic(xy, sign_product_kernel())
    assert kendall_tau(pair) == kendall_tau(xy)
    with pytest.raises(ValueError, match="decomposition needs a state path"):
        ustat.decompose(scalar, two_state_chain(0.25), table_kernel(np.eye(2)))


def brute_inversions(row):
    """O(T^2) count of pairs i < j with row[i] > row[j], 2048 leading
    positions at a time so the comparison mask stays small."""
    row = np.asarray(row, dtype=np.int64)
    total = 0
    for a in range(0, row.size, 2048):
        head = row[a:a + 2048]
        total += int(np.triu(head[:, None] > head[None, :], k=1).sum())
        total += int((head[:, None] > row[None, a + 2048:]).sum())
    return total


S = ustat._INVERSION_BLOCK  # width of the blocks the counter compares directly


def reversed_blocks(T):
    """0..T-1 with every aligned block of S positions reversed: each full
    block holds S(S-1)/2 inversions, the most the per-block counts hold."""
    return np.concatenate([np.arange(a, min(a + S, T))[::-1] for a in range(0, T, S)])


@pytest.mark.parametrize("T", [1, 2, 3, S - 1, S, S + 1, 2 * S, 2 * S + 1, 127, 128, 129,
                               255, 256, 257, 1024, 1025, 8192, 8193, 32768, 32769])
def test_inversion_counter_matches_pair_count(T):
    """Random permutations against the pair count, and the identity, the
    reversed row and the row of reversed S-blocks in closed form: on both
    sides of the in-block width, of the first merge level that sorts (T >
    2S), of the first level whose segments outrun one float32 place row
    (T = 8192/8193: 2h = 8192 > ``_PLACE_ROW`` places) and of the uint8 ->
    uint16 and uint16 -> uint32 working-dtype boundaries (keys up to 2n - 1,
    so T = 128/129 and 32768/32769), and at exact powers of two, which take
    no padding."""
    rng = np.random.default_rng(T)
    randoms = [rng.permutation(T) for _ in range(6 if T <= 2048 else 1)]
    rows = np.stack([np.arange(T), np.arange(T)[::-1], reversed_blocks(T)] + randoms)
    inv = _count_inversions_batch(rows)
    assert inv.dtype == np.int64
    assert inv[:3].tolist() == [0, math.comb(T, 2),
                                (T // S) * math.comb(S, 2) + math.comb(T % S, 2)]
    assert inv[3:].tolist() == [brute_inversions(r) for r in randoms]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), T=st.integers(1, 600), n_rows=st.integers(1, 8))
def test_inversion_counter_matches_pair_count_on_any_permutations(data, T, n_rows):
    rows = np.array([data.draw(st.permutations(range(T))) for _ in range(n_rows)])
    assert _count_inversions_batch(rows).tolist() == [brute_inversions(r) for r in rows]


def test_inversion_counter_at_two_to_the_22_within_its_memory():
    """At T = 2^22 (uint32 keys; merge segments up to 2^21 places, 512 float32
    place rows each): the reversed row counts C(T, 2), and the lexicographic
    product p[i K + j] = q[i] K + r[j] of two random permutations of K = 2^11
    counts inv(q) K^2 + K inv(r), with inv(q) and inv(r) from the pair count.
    The counter's traced peak is at most its three (1, 2^22) buffers of 4
    bytes a place (the doubled values, the keys and the float32 place bits)
    plus 1 MiB."""
    T, K = 1 << 22, 1 << 11
    rng = np.random.default_rng(22)
    q, r = rng.permutation(K), rng.permutation(K)
    product = (q[:, None] * K + r[None, :]).ravel()
    reversed_row = np.arange(T)[None, ::-1]
    tracemalloc.start()
    try:
        reversed_count = _count_inversions_batch(reversed_row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reversed_count.tolist() == [math.comb(T, 2)]
    assert peak <= 3 * 4 * T + (1 << 20)
    assert _count_inversions_batch(product[None]).tolist() == [
        brute_inversions(q) * K * K + K * brute_inversions(r)]


def test_inversion_counter_wide_row_in_closed_form():
    """A row longer than 65536 (uint32 keys, sorted merge segments up to 2^16
    wide): shuffled blocks placed in reversed value ranges. Every earlier
    block's values exceed every later block's, so the count is the
    within-block counts plus m_i m_j per block pair."""
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
    """Ranks are the inverse permutation of the order and the order sorts
    each row, on rows with and without rounding ties. These rows hold no near
    tie that is not a tie, so the near-tie flag agrees with a count of
    distinct values; tied rows still sort, though callers must take them
    from ``_tie_exact_counts``."""
    rng = np.random.default_rng(rows * 1000 + T)
    data = rng.standard_normal((rows, T))
    data[::2] = np.round(data[::2] * 3)  # ties in every other row, once T allows
    order, ranks, near = _ranks(data)
    assert order.shape == ranks.shape == data.shape and near.shape == (rows,)
    for i in range(rows):
        assert np.array_equal(ranks[i][order[i]], np.arange(T))
        assert np.all(np.diff(data[i][order[i]]) >= 0)
        assert near[i] == (np.unique(data[i]).size < T)
    if T >= 40:  # both kinds of row occur
        assert near[0] and (rows == 1 or not near[1])


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


@pytest.mark.parametrize("sign", [1, -1])
def test_order3_rank_sums_stay_exact_past_int64(sign):
    """At T = 3.9e6, C(T, 3), the squared rank differences of y = -x and the
    sum of S^x S^y all pass int64; rho3 is still exactly +-1, from the batch
    path and from the tie-exact count."""
    T = 3_900_000
    assert math.comb(T, 3) >= 2 ** 63
    x = np.arange(T, dtype=float)[None]
    assert spearman_rho3_batch(x, sign * x).tolist() == [float(sign)]
    K, W = ustat._tie_exact_counts(x, sign * x)
    assert (int(K[0]), W[0]) == (sign * math.comb(T, 2), sign * 2 * math.comb(T, 3))


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


def test_spearman_takes_ties_and_rejects_short_paths():
    """x = (1, 1, 2), y = (2, 3, 4): the sign sums are S^x = (-1, -1, 2) and
    S^y = (-2, 0, 2), so rho = 3 * 6 / (3 * 8) = 0.75 under sign(0) = 0."""
    r = spearman_rho(np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 4.0]]))
    assert (r.rho, r.rho3, r.tau) == (0.75, 1.0, 2 / 3)
    with pytest.raises(ValueError, match="3 observations"):
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
        assert theta_star(chain, k, T) == pytest.approx(
            theta_independent(chain, k), abs=1e-13)


def test_theta_star_constant_kernel():
    chain = two_state_chain(0.25)
    k = table_kernel(np.full((2, 2), 0.4))
    assert theta_star(chain, k, 10) == pytest.approx(0.4, abs=1e-13)
    k3 = table_kernel(np.full((2, 2, 2), -0.2))
    assert theta_star(chain, k3, 8) == pytest.approx(-0.2, abs=1e-13)


def test_theta_independent_examples():
    chain = two_state_chain(0.25)  # uniform stationary distribution
    k = table_kernel(MATCH)
    assert theta_independent(chain, k) == pytest.approx(0.0, abs=1e-15)
    const = table_kernel(np.full((2, 2), 0.3))
    assert theta_independent(chain, const) == pytest.approx(0.3, abs=1e-15)


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
    assert prob @ u_vals == pytest.approx(theta_star(chain, k, T), abs=1e-14)


def test_theta_star_guards():
    chain = two_state_chain(0.25)
    k = table_kernel(MATCH)
    with pytest.raises(ValueError):
        theta_star(chain, table_kernel(np.zeros((2,) * 4)), 5)  # order 4
    with pytest.raises(ValueError):
        theta_star(chain, k, 1)  # shorter than the order


@pytest.mark.parametrize("T", [2, 3, 17, 2000, 2001, 10 ** 6, 10 ** 30])
def test_theta_star_past_the_decomposition_cap(T):
    """theta_star is a closed form with no T cap. On the two-state chain
    that flips with probability p, Q^g = (1 - 2p)^g (I - 1 pi) for g >= 1,
    and the matching kernel gives <D_pi Q^g, H> = (1 - 2p)^g / 2 and
    theta = 0, so theta* = sum_g (T - g) (1 - 2p)^g / 2 / C(T, 2), summed
    here until its terms underflow."""
    chain = two_state_chain(0.25)
    k = table_kernel(MATCH)
    want = math.fsum((T - g) * 0.5 ** g / 2 for g in range(1, min(T, 1200))) / math.comb(T, 2)
    assert chain_law_bias(chain, k, T) == pytest.approx(want, rel=1e-13, abs=0)
    assert theta_star(chain, k, T) == pytest.approx(want, rel=1e-13, abs=1e-300)


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


KEY_EDGE_EVALUATORS = {
    "kendall_tau_batch": lambda x, y: kendall_tau_batch(x[None], y[None])[0],
    "spearman_rho3_batch": lambda x, y: spearman_rho3_batch(x[None], y[None])[0],
    "kendall_matrix": lambda x, y: kendall_matrix(np.column_stack([x, y])).matrix[0, 1],
}


@pytest.mark.parametrize("name", list(KEY_EDGE_EVALUATORS))
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("index", [0, 5])
@pytest.mark.parametrize("col", [0, 1])
def test_float_keys_reject_non_finite_values_at_any_index(name, bad, index, col):
    """An infinity keeps its bits at index 0 and becomes a NaN once index
    bits are set, and every NaN sorts last; each lands at an end of its
    sorted row, in x or in y, and is a ValueError."""
    xy = np.random.default_rng(31).standard_normal((2, 9))
    xy[col, index] = bad
    with pytest.raises(ValueError, match="finite"):
        KEY_EDGE_EVALUATORS[name](*xy)


def _key_edge_rows(case: str) -> np.ndarray:
    xy = np.random.default_rng(32).standard_normal((2, 9))
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    if case == "signed-zeros":
        xy[0, [1, 6]] = 0.0, -0.0
        xy[1, [0, 6]] = -0.0, 0.0
    elif case == "subnormals":
        xy[0, [0, 3, 6, 8]] = tiny, -tiny, 3 * tiny, 2.5e-310
        xy[1, [2, 4]] = -2 * tiny, 1e-320
    elif case == "max-float":
        xy[0, [0, 8]] = big, -big
        xy[1, [2, 5]] = -big, big
    return xy


@pytest.mark.parametrize("case", ["signed-zeros", "subnormals", "max-float"])
def test_float_keys_at_the_edges_of_the_doubles(case):
    """+0.0 and -0.0 share a key's high bits, so their row is flagged and
    the pair counts as a tie; subnormals (within and beyond 2^bits ulps of
    each other) and +-max float rank like any values. Every evaluator
    equals the pairwise count and the enumeration."""
    x, y = _key_edge_rows(case)
    if case == "signed-zeros":
        assert _ranks(x[None])[2].tolist() == [True]
    pairs = math.comb(9, 2)
    with np.errstate(over="ignore"):  # max - (-max) is inf to the oracles, of the right sign
        K = kendall_tau_numerator(x, y)
        assert K == brute_tau_numerator(x, y)
        rho3 = u_statistic(np.column_stack([x, y]), spearman_symmetric_kernel())
    evaluate = KEY_EDGE_EVALUATORS
    assert evaluate["kendall_tau_batch"](x, y) == evaluate["kendall_matrix"](x, y) == K / pairs
    assert evaluate["spearman_rho3_batch"](x, y) == rho3


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


def sign_sums(v):
    """S_a = sum_b sign(v_a - v_b) per point, by O(T^2) pairwise signs."""
    return np.sign(v[:, None] - v[None, :]).sum(axis=1).astype(np.int64)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 3),
       T=st.sampled_from([2, 3, 5, 17, 33, 40, 41, 300, 2000]),
       kinds=st.tuples(st.sampled_from(ROW_KINDS), st.sampled_from(ROW_KINDS)),
       decimals=st.sampled_from([None, 0, 1, 2]))
def test_tie_exact_counts_match_their_oracles(seed, rows, T, kinds, decimals):
    """The tie-exact counts on rows with rounding ties, +-0.0 (rounding
    makes -0.0 too) and near ties, up to T = 2000: K against pairwise
    counting, W against the enumerator at T <= 40 and, at every T, against
    the pairwise identity W = sum_a S^x_a S^y_a - 2K, S_a = sum_b
    sign(v_a - v_b); the batch evaluators read the same values."""
    rng = np.random.default_rng(seed)
    x, y = (np.stack([_near_tie_row(rng, T, kind) for _ in range(rows)]) for kind in kinds)
    if decimals is not None:
        x, y = np.round(x, decimals), np.round(y, decimals)
    K, W = ustat._tie_exact_counts(x, y)
    assert np.array_equal(kendall_tau_batch(x, y), K / math.comb(T, 2))
    if T >= 3:
        assert np.array_equal(spearman_rho3_batch(x, y), W / (2 * math.comb(T, 3)))
    for i in range(rows):
        assert K[i] == kendall_tau_numerator(x[i], y[i])
        assert W[i] == sign_sums(x[i]) @ sign_sums(y[i]) - 2 * K[i]
        if 3 <= T <= 40:
            assert W[i] / (2 * math.comb(T, 3)) == u_statistic(
                np.column_stack([x[i], y[i]]), spearman_symmetric_kernel())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 2), T=st.integers(3, 40),
       kinds=st.tuples(st.sampled_from(ROW_KINDS), st.sampled_from(ROW_KINDS)))
def test_spearman_with_ties_matches_hoeffding(seed, rows, T, kinds):
    """Spearman's rho on rows with rounding ties, +-0.0 and near ties, T <= 40:
    ``spearman_rho`` against Hoeffding's ((T-2) rho3 + 3 tau) / (T+1), rho3 by
    ``u_statistic`` and tau by ``kendall_tau_numerator``; ``spearman_matrix``
    entries equal to it and to 1 - 6 d2 / (T(T^2-1)) with d2 from pairwise
    sign sums; tie-free pairs bit-identical to d2 from argsort ranks."""
    rng = np.random.default_rng(seed)
    x, y = (np.stack([_near_tie_row(rng, T, kind) for _ in range(rows)]) for kind in kinds)
    n = T * (T * T - 1)

    def tie_free_rho(u, v):
        """1 - 6 d2 / n from argsort ranks, or None when u or v has a tie."""
        if np.unique(u).size < T or np.unique(v).size < T:
            return None
        d2 = int(((np.argsort(np.argsort(u)) - np.argsort(np.argsort(v))) ** 2).sum())
        return 1.0 - 6.0 * d2 / n

    for i in range(rows):
        r = spearman_rho(np.column_stack([x[i], y[i]]))
        assert r.rho3 == u_statistic(np.column_stack([x[i], y[i]]), spearman_symmetric_kernel())
        tau = kendall_tau_numerator(x[i], y[i]) / math.comb(T, 2)
        assert r.tau == tau
        assert abs(r.rho - ((T - 2) * r.rho3 + 3 * tau) / (T + 1)) <= 1e-12
        assert tie_free_rho(x[i], y[i]) in (None, r.rho)
    data = np.column_stack([*x, *y])
    data = data[:, data.max(axis=0) > data.min(axis=0)]  # constant columns are rejected
    if data.shape[1] < 2:
        return
    sm = spearman_matrix(data).matrix
    assert np.all(np.diag(sm) == 1.0)
    for j, k in itertools.combinations(range(data.shape[1]), 2):
        u, v = data[:, j], data[:, k]
        d2 = (n - 3 * int(sign_sums(u) @ sign_sums(v))) / 6
        assert sm[j, k] == sm[k, j] == 1.0 - 6.0 * d2 / n
        assert sm[j, k] == spearman_rho(data[:, [j, k]]).rho
        assert tie_free_rho(u, v) in (None, sm[j, k])


def test_tied_rows_never_reach_the_oracles(monkeypatch):
    """With ``u_statistic`` and ``kendall_tau_numerator`` made to raise,
    tied rows and pairs, Spearman matrix entries included, still evaluate,
    at T = 1000, where one tied row of the order-3 kernel is past the
    enumerator's term cap."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a production rank path called an oracle")
    for module in (ustat, hidim):
        for name in ("u_statistic", "kendall_tau_numerator"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    rng = np.random.default_rng(5)
    x, y = np.round(rng.standard_normal((2, 3, 1000)), 1)
    data = np.column_stack([*x, *y])
    tau = kendall_tau_batch(x, y)
    rho3 = spearman_rho3_batch(x, y)
    scalar = kendall_tau(data[:, [0, 3]])
    km = kendall_matrix(data).matrix
    sm = spearman_matrix(data).matrix
    monkeypatch.undo()
    pairs = math.comb(1000, 2)
    for i in range(3):
        K = kendall_tau_numerator(x[i], y[i])
        assert tau[i] == K / pairs
        assert rho3[i] == (sign_sums(x[i]) @ sign_sums(y[i]) - 2 * K) / (2 * math.comb(1000, 3))
    assert scalar == tau[0]
    n = 1000 * (1000 ** 2 - 1)
    for j, k in itertools.combinations(range(6), 2):
        assert km[j, k] == kendall_tau_numerator(data[:, j], data[:, k]) / pairs
        d2 = (n - 3 * int(sign_sums(data[:, j]) @ sign_sums(data[:, k]))) / 6
        assert sm[j, k] == 1.0 - 6.0 * d2 / n


def test_near_ties_take_the_argsort_route(monkeypatch):
    """Two distinct values one ulp apart, 1.0 and the next float (low key
    bits 0 and 1), share their keys' high bits, so their row, and only it,
    is flagged and takes the argsort route, ``_tie_exact_counts`` (a lexsort
    and a stable argsort per row): one call with that row from
    ``kendall_tau_batch``, none from ``_ranks``, and one with that pair from
    each of ``kendall_matrix`` and ``spearman_matrix``."""
    calls = []
    original = ustat._tie_exact_counts

    def record(x_rows, y_rows):
        calls.append(x_rows.shape[0])
        return original(x_rows, y_rows)
    for module in (ustat, hidim):
        monkeypatch.setattr(module, "_tie_exact_counts", record)
    rng = np.random.default_rng(8)
    x, y = rng.standard_normal((2, 3, 9))
    x[1, 7] = 1.0
    x[1, 4] = np.nextafter(1.0, np.inf)
    tau = kendall_tau_batch(x, y)
    assert calls == [1]
    for i in range(3):
        assert tau[i] == u_statistic(np.column_stack([x[i], y[i]]), sign_product_kernel())
    calls.clear()
    order, ranks, near = _ranks(x)
    assert calls == [] and near.tolist() == [False, True, False]
    for i in (0, 2):
        assert np.array_equal(order[i], np.argsort(x[i]))
        assert np.array_equal(ranks[i][order[i]], np.arange(9))
    pair = np.column_stack([x[1], y[1]])
    estimates = []
    for estimator in (kendall_matrix, spearman_matrix):
        calls.clear()
        estimates.append(estimator(pair).matrix[0, 1])
        assert calls == [1]
    d2 = int(((np.argsort(np.argsort(x[1])) - np.argsort(np.argsort(y[1]))) ** 2).sum())
    assert estimates == [tau[1], 1.0 - 6.0 * d2 / (9 * 80)]
