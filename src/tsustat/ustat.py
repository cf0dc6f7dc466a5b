"""U-statistics over time-ordered data.

The generic evaluator sums the kernel over every index combination with
``math.fsum``; it and the pairwise ``kendall_tau_numerator`` serve as the
slow oracles. Fast paths: Kendall's tau as the inversion count
of a rank permutation, vectorized across whole batches of rows: direct
comparisons within small aligned blocks of positions, then bottom-up merge
levels that sort each aligned segment's keys in place and read the cross
inversions of its two halves from the sorted places, summed by float32
BLAS dots over rows of at most 4096 places. The order-3 symmetric rank kernel comes
from the same counts and integer rank sums through Hoeffding's identity.
Every rank comes from one float sort per coordinate of keys that keep a
value's high bits and put an index in its low bits; rows with a tie or a
near tie take one batched tie-exact count (Knight 1966) on the same counter,
which gives Spearman's rho too. Non-finite values are rejected. Every
along-axis gather and scatter runs on flat indices (``_flat_index``).
Hoeffding's permutation decoupling, a proof device, is checked against
``u_statistic`` by a literal oracle in the tests.

A table kernel is symmetric, so its U-statistic on a state path is a closed
form in the path's occupation counts, in O(T + S^r) for S states, for a
whole stack of paths at once. For paths generated by a finite Markov chain
the module also evaluates, from the chain and a ``table_kernel`` (its table
symmetric, its order fixed; anything else is a ValueError), the chain-law
expectation of the U-statistic (``theta_star``), the product-measure one
(``theta_independent``), their gap (``chain_law_bias``), a closed form at
any T in weighted sums of powers of P - 1 pi, each one block matrix power,
and the telescoping split of U minus its expectation into per-order terms
with exactly zero conditional means (``decompose``). The decomposition and
its conditional-mean check read one set of gap tables: the conditional
means of the kernel given its leading arguments, indexed by time gaps and
conditioning states, summed along their gap axes by cumulative sums, so no
chain-law evaluator enumerates index tuples. ``decompose`` returns one dict
for a path or a stack, per-path values as arrays for a stack, with the
closed-form expectation, so its residual cross-checks the gap tables.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .kernels import KernelSpec, spearman_symmetric_kernel
from .processes import FiniteMarkovChain, SeriesPath, block_replications

MAX_GENERIC_TERMS = 100_000_000


# ---------------------------------------------------------------------------
# generic evaluation
# ---------------------------------------------------------------------------

def _points_of(data) -> list:
    """Rows of a path as kernel arguments: scalars, 1-D vectors, or states."""
    if isinstance(data, SeriesPath):
        if data.states is not None:
            return [int(s) for s in data.states]
        if data.dimension == 1:
            return [float(v) for v in data.values[:, 0]]
        return [data.values[t] for t in range(data.length)]
    arr = np.asarray(data)
    if arr.ndim == 1:
        return list(arr)
    if arr.ndim == 2:
        return [arr[t] for t in range(arr.shape[0])]
    raise ValueError("data must be a SeriesPath, 1-D, or 2-D array")


def u_statistic(data, kernel: KernelSpec) -> float:
    """Average of the kernel over all increasing index tuples of size r; the
    kernel sum is correctly rounded (``math.fsum``). More than
    ``MAX_GENERIC_TERMS`` tuples is a ValueError."""
    points = _points_of(data)
    T, r = len(points), kernel.order
    if T < r:
        raise ValueError(f"path length {T} shorter than kernel order {r}")
    n_terms = math.comb(T, r)
    if n_terms > MAX_GENERIC_TERMS:
        raise ValueError(f"{n_terms} kernel terms exceed the cap of {MAX_GENERIC_TERMS}")
    fn = kernel.fn
    return math.fsum(float(fn(*idx)) for idx in itertools.combinations(points, r)) / n_terms


# ---------------------------------------------------------------------------
# fast rank statistics
# ---------------------------------------------------------------------------

# Width of the aligned position blocks whose inversions the counter counts by
# direct comparison, below its first merge level: a power of two, at most 256
# so its uint8 and uint16 counts cannot overflow. Under merge levels, on
# random permutations (medians of 31 interleaved calls, 2-core x86-64 VM
# with AVX-512, numpy 2.4.6), at 16, 32 and 64: a 262 x 2000 tail-kendall
# block 12.5, 11.9 and 12.6 ms; a 524 x 2000 kendall_matrix chunk 26.6,
# 26.2 and 29.3 ms; 262 x 500 rows 2.7, 2.5 and 2.7 ms; 1000 x 40 rows 1.95,
# 0.79 and 1.11 ms (at T <= 64, 32 leaves no level to sort).
_INVERSION_BLOCK = 32

# Places per row of a merge level's float32 place sum. A row holds at most
# all of 0..4095, which sum to 8,386,560 < 2^24, so every partial sum is an
# integer that float32 holds exactly, in any order of summation. The rows
# take one BLAS dot each (np.vecdot), which stays on the calling thread: a
# matrix-vector product starts OpenBLAS's thread pool, and under two
# replication workers with the BLAS threads unpinned that made a tail-kendall
# run 1.09 s against 0.87 s (2-core VM, medians of 5).
_PLACE_ROW = 4096
_PLACES = np.arange(_PLACE_ROW, dtype=np.float32)


def _count_inversions_batch(rows: np.ndarray) -> np.ndarray:
    """Per-row inversion counts of rows that are permutations of 0..T-1.

    Rows are padded to n = 2^B with the values T..n-1 in order, which adds no
    inversion, and doubled, on the narrowest unsigned dtype that holds
    2n - 1. Every pair of positions i < j is counted at the level h of the
    highest bit in which i and j differ, vectorized across all rows.

    Levels below ``_INVERSION_BLOCK``: ``_count_within_blocks`` compares the
    values inside each aligned block of that many positions directly.

    Merge levels, bottom up: at level h every aligned segment of 2h
    positions has a lower half (position bit h clear) and an upper half. The
    keys 2 value + (position bit h) are distinct, and one in-place sort of
    each segment (numpy's default kind, a SIMD sort where the CPU has one)
    merges its halves. An upper-half key at sorted place k has k - i lower
    keys below it, i the upper keys before it, so the lower values above it
    number h - k + i; over the segment's h upper keys that is
    h^2 + C(h, 2) - (sum of their sorted places). The sum is one BLAS dot
    per row: the position bits go into one float32 buffer, cut into rows of
    w = min(2h, ``_PLACE_ROW``) places, each dotted with the places 0..w-1,
    exact since every partial sum is an integer below 2^24. A
    segment longer than w adds, in int64, each row's offset in the segment
    times its count of upper keys. Each level refills one key buffer from
    the doubled values, so no level reads another's output.

    The top level, h = n/2, needs no sort: the padded row holds exactly
    0..n-1, so an upper-half value v sits at sorted place v.
    """
    rows = np.asarray(rows)
    R, T = rows.shape
    n = 1 << (T - 1).bit_length()
    s = min(_INVERSION_BLOCK, n)
    dtype = np.min_scalar_type(2 * n - 1)
    doubled = np.empty((R, n), dtype=dtype)
    doubled[:, :T] = rows
    doubled[:, T:] = np.arange(T, n, dtype=dtype)
    doubled <<= 1
    inv = _count_within_blocks(doubled, s)
    keys = np.empty_like(doubled)
    bits = np.empty((R, n), dtype=np.float32)
    halves = np.array([[0], [1]], dtype=dtype)  # position bit h of a segment's two halves
    h = s
    while 4 * h <= n:
        m = n // (2 * h)
        np.bitwise_or(doubled.reshape(R, m, 2, h), halves, out=keys.reshape(R, m, 2, h))
        segments = keys.reshape(R, m, 2 * h)
        segments.sort(axis=2)
        np.bitwise_and(segments, dtype.type(1), out=bits.reshape(R, m, 2 * h))
        w = min(2 * h, _PLACE_ROW)
        places = bits.reshape(-1, w)
        upper = np.vecdot(places, _PLACES[:w]).reshape(R, -1).sum(axis=1, dtype=np.int64)
        if w < 2 * h:  # each row's offset in its segment, times its upper keys
            counts = places.sum(axis=1).astype(np.int64).reshape(R, -1)
            upper += counts @ np.tile(np.arange(0, 2 * h, w), m)
        inv += m * (h * h + h * (h - 1) // 2) - upper
        h *= 2
    if h < n:
        inv += h * h + h * (h - 1) // 2 - doubled[:, h:].sum(axis=1, dtype=np.int64) // 2
    return inv


def _count_within_blocks(arr: np.ndarray, s: int) -> np.ndarray:
    """Per-row inversions inside the aligned blocks of ``s`` positions of
    ``arr``, whose values are distinct within each block.

    The values go into one block-major (s, R, n/s) copy, so position i of
    every block is one contiguous slab. Offset d compares the slabs i and
    i + d of all blocks at once; its uint8 sum over i, at most s - 1, adds
    into a uint16 count per block, at most s(s - 1)/2.
    """
    R, n = arr.shape
    slabs = np.ascontiguousarray(arr.reshape(R, n // s, s).transpose(2, 0, 1))
    greater = np.empty(slabs.shape, dtype=bool)
    per_offset = np.empty(slabs.shape[1:], dtype=np.uint8)
    per_block = np.zeros(slabs.shape[1:], dtype=np.uint16)
    for d in range(1, s):
        np.greater(slabs[:s - d], slabs[d:], out=greater[:s - d])
        np.add.reduce(greater[:s - d].view(np.uint8), axis=0, out=per_offset)
        per_block += per_offset
    return per_block.sum(axis=1, dtype=np.int64)


def kendall_tau_numerator(x: np.ndarray, y: np.ndarray) -> int:
    """Concordant-minus-discordant pair count by pairwise signs in O(T^2),
    ties giving 0: the exact oracle of the rank evaluators."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("rank statistics need finite values")
    # every pair is met twice, from each end, in blocks of 64 rows of signs,
    # so no temporary passes about 1 MB at T = 2000 and a check barely
    # raises the peak memory of the process it runs in
    total = sum(int((np.sign(x[a:a + 64, None] - x) * np.sign(y[a:a + 64, None] - y)).sum())
                for a in range(0, x.size, 64))
    return total // 2


def kendall_tau(path) -> float:
    """Kendall's tau: the order-2 sign-product U-statistic of a bivariate path,
    by ``kendall_tau_batch``."""
    xy = _bivariate(path)
    return float(kendall_tau_batch(xy[None, :, 0], xy[None, :, 1])[0])


def _flat_index(index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Flat positions into C-contiguous (R, T) rows of an (R, T) index along
    axis 1: row i's offset i T added, in place where ``out`` is ``index``.
    ``np.take(a, flat)`` is ``np.take_along_axis(a, index, axis=1)`` and
    ``np.put(a, flat, np.arange(T))`` the matching scatter, without the
    broadcast row index of the along-axis forms."""
    return np.add(index, np.arange(0, index.size, index.shape[1]).reshape(-1, 1), out=out)


def _keys(rows: np.ndarray) -> np.ndarray:
    """float64 sort keys of a 2-D batch: a C-ordered copy of the values,
    -0.0 read as +0.0 (``_key_order`` puts an index in the low bits)."""
    return np.add(rows, 0.0, dtype=np.float64, order="C")


def _key_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Put each key's column index in its low ceil(log2 T) bits, through a
    uint64 view, and sort each row in place as floats; return the sorted low
    bits, the row's ordering, as int64, and a per-row flag for near ties.

    Values that share their high bits fill one interval of floats, of one
    sign, so they sort next to each other, and any other two values keep
    their order. A flagged row holds two adjacent sorted keys that share
    their high bits: a tie, or two values within 2^bits ulps. Only in flagged
    rows can the low bits differ from the ordering by value, so those rows
    take ``_tie_exact_counts``. Non-finite values are rejected: an infinity
    with index bits set is a NaN, every NaN sorts last and an infinity at
    index 0 sorts to an end, so only the two ends need a check.
    """
    T = keys.shape[1]
    low = np.uint64((1 << (T - 1).bit_length()) - 1)
    bits = keys.view(np.uint64)
    bits &= ~low
    bits |= np.arange(T, dtype=np.uint64)
    keys.sort(axis=1)
    if not (np.isfinite(keys[:, 0]).all() and np.isfinite(keys[:, -1]).all()):
        raise ValueError("rank statistics need finite values")
    near = ((bits[:, 1:] ^ bits[:, :-1]) <= low).any(axis=1)
    bits &= low
    return bits.view(np.int64), near


def _ranks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ranks, near) of each row of a 2-D array of finite values.

    One float sort of keys per row gives the order: each key holds the
    value's bits above the low ceil(log2 T) and the time index below them.
    ``ranks`` is its inverse, the 0-based ranks. ``near`` flags the rows with
    a tie or a near tie (see ``_key_order``); ``order`` and ``ranks`` are
    exact only where ``near`` is False, so flagged rows must take
    ``_tie_exact_counts``.
    """
    order, near = _key_order(_keys(np.asarray(rows)))
    ranks = np.empty_like(order)
    np.put(ranks, _flat_index(order), np.arange(order.shape[1]))
    return order, ranks, near


def _rank_pair_batch(x_rows: np.ndarray, y_rows: np.ndarray):
    """Inversions of y read in x order, with the orderings and a near-tie mask.

    Returns (inv, y_order, near): ``y_order[i, j]`` is the x-rank of the
    element with y-rank j (the inverse of the y-ranks in x order, with the
    same inversions), so the rank-difference sum d2 of row i is
    sum_j (y_order[i, j] - j)^2. ``near`` flags the rows with a near tie in
    either coordinate, whose values callers take from ``_tie_exact_counts``.

    Each coordinate is one sort of keys (see ``_ranks``): x keys carry the
    time index in their low bits, so the sorted low bits are the x order;
    the y keys, gathered in that order by one flat ``np.take``, carry the
    x-rank, so their sorted low bits are ``y_order``, a permutation in every
    row, flagged or not.
    """
    order, near = _key_order(_keys(x_rows))
    y_order, y_near = _key_order(np.take(_keys(y_rows), _flat_index(order, out=order)))
    del order  # each (R, T) temporary is dropped once read, to keep the peak down
    return _count_inversions_batch(y_order), y_order, near | y_near


def _exact_row_sums(terms: np.ndarray, bound: int) -> np.ndarray:
    """Per-row sums of an int64 (R, T) array whose entries are at most
    ``bound`` in size, exact as Python ints in an object array: int64 sums
    over column chunks short enough not to wrap, added in Python."""
    chunk = max(1, np.iinfo(np.int64).max // max(bound, 1))
    parts = np.add.reduceat(terms, np.arange(0, terms.shape[1], chunk), axis=1)
    out = np.empty(terms.shape[0], dtype=object)
    out[:] = [sum(row) for row in parts.tolist()]
    return out


def _run_starts(step: np.ndarray) -> np.ndarray:
    """First position of the run of equal values holding each position of
    sorted rows, given ``step``, the (R, T-1) mask of the positions whose
    value differs from the one before: the count of strictly smaller values."""
    first = np.pad(step, ((0, 0), (1, 0)), constant_values=True)
    return np.maximum.accumulate(np.where(first, np.arange(first.shape[1]), 0), axis=1)


def _tie_exact_counts(x_rows: np.ndarray, y_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, W) per row of a bivariate batch, exact with ties: K the concordant
    minus discordant pairs, W twice the order-3 rank kernel's sum over all
    triples (that sum may be a half-integer), under sign(0) = 0.

    Knight's (1966) count: in each row ordered by (x, y), the inversions of
    the stable y order are the strictly discordant pairs, and
    K = C(T, 2) - n1 - n2 + n3 - 2 disc, with n1, n2 and n3 the pairs tied in
    x, in y and in both, read from the runs of the sorted rows. The runs also
    give S_a = #{b: v_b < v_a} - #{b: v_b > v_a}, and W = sum_a S^x_a S^y_a - 2K.
    K is int64; W is exact in Python ints (an object array), since the sum
    of S^x S^y reaches T(T^2 - 1)/3, past int64 from T of about 3.03e6.
    """
    T = x_rows.shape[1]
    order = _flat_index(np.lexsort((y_rows, x_rows), axis=1))
    xs, ys = np.take(x_rows, order), np.take(y_rows, order)
    by_y = np.argsort(ys, axis=1, kind="stable")
    y_flat = _flat_index(by_y)
    sorted_y = np.take(ys, y_flat)
    step_x, step_y = xs[:, 1:] != xs[:, :-1], sorted_y[:, 1:] != sorted_y[:, :-1]
    x_less, y_less = _run_starts(step_x), _run_starts(step_y)
    n1, n2, n3 = ((np.arange(T) - start).sum(axis=1) for start in
                  (x_less, y_less, _run_starts(step_x | (ys[:, 1:] != ys[:, :-1]))))
    K = math.comb(T, 2) - n1 - n2 + n3 - 2 * _count_inversions_batch(by_y)
    # a value's greater values are its smaller ones in the row reversed
    sx = x_less - _run_starts(step_x[:, ::-1])[:, ::-1]
    sy = y_less - _run_starts(step_y[:, ::-1])[:, ::-1]
    products = np.take(sx, y_flat) * sy
    return K, _exact_row_sums(products, (T - 1) ** 2) - 2 * K


def kendall_tau_batch(x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
    """Kendall's tau per row for a batch of bivariate paths.

    Rows without a near tie take the batched inversion counter; rows with a
    tie or a near tie in either coordinate take ``_tie_exact_counts``, in one
    call for the batch.
    """
    x_rows, y_rows = np.asarray(x_rows), np.asarray(y_rows)
    T = x_rows.shape[1]
    if T < 2:
        raise ValueError("Kendall's tau needs at least 2 observations")
    inv, _, near = _rank_pair_batch(x_rows, y_rows)
    denom = math.comb(T, 2)
    out = (denom - 2 * inv) / denom
    if near.any():
        out[near] = _tie_exact_counts(x_rows[near], y_rows[near])[0] / denom
    return out


def spearman_rho3_batch(x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
    """Order-3 symmetric rank-kernel U-statistic per row of a bivariate batch.

    Hoeffding's identity rho = ((T-2) rho3 + 3 tau) / (T+1) gives the exact
    integer kernel sum C(T,3) - d2 + 2 inv per row without a near tie, with
    d2 the squared rank differences and inv the discordant pairs, in
    O(T log T). d2 and the sum are Python ints: C(T, 3) passes int64 from T
    of about 3.81e6, d2 from about 3.03e6. Rows with a tie or a near tie
    take ``_tie_exact_counts``, where the kernel's sign(0) = 0 convention
    applies.
    """
    x_rows, y_rows = np.asarray(x_rows), np.asarray(y_rows)
    T = x_rows.shape[1]
    if T < 3:
        raise ValueError("the order-3 rank kernel needs at least 3 observations")
    inv, y_order, near = _rank_pair_batch(x_rows, y_rows)
    d2 = _exact_row_sums((y_order - np.arange(T)) ** 2, (T - 1) ** 2)
    n_terms = math.comb(T, 3)
    out = ((n_terms - d2 + 2 * inv) / n_terms).astype(np.float64)
    if near.any():
        out[near] = _tie_exact_counts(x_rows[near], y_rows[near])[1] / (2 * n_terms)
    return out


def _bivariate(path) -> np.ndarray:
    if isinstance(path, SeriesPath):
        arr = path.values
    else:
        arr = np.asarray(path, dtype=float)
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a bivariate (T x 2) path")
    return arr


class SpearmanResult(NamedTuple):
    rho: float
    rho3: float
    tau: float


def spearman_rho(path) -> SpearmanResult:
    """Spearman's rho of a bivariate path with its U-statistic parts, ties
    scored by sign(0) = 0: ``rho3`` (the order-3 symmetric kernel, by
    enumeration) and ``tau`` (order 2). rho = ((T-2) rho3 + 3 tau) / (T+1)
    comes with tau from one ``_tie_exact_counts`` call, as 1 - 6 d2 / (T(T^2-1))
    with d2 = (T(T^2-1) - 3(W + 2K)) / 6, the squared rank differences if tie-free.
    """
    xy = _bivariate(path)
    T = xy.shape[0]
    if T < 3:
        raise ValueError("Spearman's rho needs at least 3 observations")
    if not np.isfinite(xy).all():
        raise ValueError("rank statistics need finite values")
    K, W = (int(v[0]) for v in _tie_exact_counts(xy[None, :, 0], xy[None, :, 1]))
    n = T * (T * T - 1)
    rho = 1.0 - 6.0 * ((n - 3 * (W + 2 * K)) / 6) / n
    rho3 = u_statistic(path, spearman_symmetric_kernel())
    return SpearmanResult(rho=rho, rho3=rho3, tau=K / math.comb(T, 2))


# ---------------------------------------------------------------------------
# exact chain-law expectations
# ---------------------------------------------------------------------------

def _u_table_path(states: np.ndarray, H: np.ndarray) -> float | np.ndarray:
    """U-statistic of a table kernel on each state path of an (R, T) stack
    from its occupation counts n, in O(T + S^r) per path; a 1-D path is the
    R = 1 case and gives a float, a stack an (R,) array.

    ``table_kernel`` symmetrizes its table, so U = <W, H> / C(T, r), with
    W[a(, b(, c))] the number of increasing index tuples that carry the
    entry's states, spread evenly over its r! arrangements: each index
    contributes the count of its state less the earlier indices in that
    state, W = n_a (n_b - [a=b]) (n_c - [a=c] - [b=c]) / 3! at order 3. The
    weights are float64, so no count wraps, and each is at most C(T, r), so
    W * H is finite wherever M C(T, r) is. The counts of the whole stack are
    one offset ``bincount``; W and W * H are elementwise, in chunks of at
    most ``BLOCK_VALUES`` weights, and each row is reduced by its own
    ``math.fsum``, correctly rounded, so no row depends on the stack it
    came in.
    """
    states = np.asarray(states)
    R, T = (1, states.shape[0]) if states.ndim == 1 else states.shape
    r, s = H.ndim, H.shape[0]
    if T < r:
        raise ValueError(f"path length {T} shorter than kernel order {r}")
    if r > 3:
        raise ValueError("table U-statistics support orders 1..3")
    if states.size and (states.min() < 0 or states.max() >= s):
        raise ValueError("path states out of range for this table")
    offsets = np.arange(0, R * s, s).reshape(-1, 1)
    counts = np.bincount((states.reshape(R, T) + offsets).ravel(), minlength=R * s)
    counts = counts.reshape(R, s).astype(np.float64)
    eye = np.eye(s)
    out = np.empty(R)
    chunk = block_replications(s ** r)
    for start in range(0, R, chunk):
        n = counts[start:start + chunk].reshape((-1, s) + (1,) * (r - 1))
        if r == 1:
            W = n
        elif r == 2:
            W = n * (np.swapaxes(n, 1, 2) - eye) / 2.0
        else:
            nb, nc = np.swapaxes(n, 1, 2), np.swapaxes(n, 1, 3)
            W = n * (nb - eye[:, :, None]) * (nc - eye[:, None, :] - eye) / 6.0
        rows = (W * H).reshape(W.shape[0], -1).tolist()
        out[start:start + chunk] = [math.fsum(row) for row in rows]
    out /= math.comb(T, r)
    return float(out[0]) if states.ndim == 1 else out


def _kernel_table(chain: FiniteMarkovChain, kernel: KernelSpec) -> np.ndarray:
    """The symmetric table of a table kernel over the chain's states."""
    if not isinstance(kernel, KernelSpec) or kernel.table is None:
        raise ValueError("exact chain-law evaluation needs a table kernel")
    if kernel.table.shape[0] != chain.state_count:
        raise ValueError(f"kernel table must have {chain.state_count} states")
    return kernel.table


# Largest T of ``decompose`` and the conditional-mean check, by order. Their
# gap tables hold T^(r-1) S^2 entries and ``decompose`` reads T^2 S^(r-2) of
# them per path: at S = 3 and either cap, on one core, a call builds its
# tables in about 0.1 s and adds 10 ms (order 3) or 25 ms (order 2) per path,
# with a peak of 41 or 96 MB. ``theta_star`` and ``chain_law_bias`` are
# closed forms and take any T.
_DECOMPOSE_T_CAP = {2: 2000, 3: 500}


def _chain_law_table(chain: FiniteMarkovChain, kernel: KernelSpec, T: int) -> np.ndarray:
    """The kernel's table, checked for the exact chain-law evaluators at
    length ``T``: order 2 or 3, and T at least the order."""
    H = _kernel_table(chain, kernel)
    if kernel.order not in (2, 3):
        raise ValueError("exact chain-law evaluation supports orders 2 and 3")
    if T < kernel.order:
        raise ValueError(f"need T >= {kernel.order}")
    return H


def check_chain_law_length(chain: FiniteMarkovChain, kernel: KernelSpec, T: int) -> None:
    """Raise ValueError unless ``decompose`` and the conditional-mean check
    take paths of length ``T`` with this kernel on this chain."""
    _chain_law_table(chain, kernel, T)
    if T > _DECOMPOSE_T_CAP[kernel.order]:
        raise ValueError(f"T={T} beyond the decomposition cap for r={kernel.order}: "
                         f"t_grid values must be <= {_DECOMPOSE_T_CAP[kernel.order]}")


def _chain_law_tables(chain: FiniteMarkovChain, kernel: KernelSpec, T: int) -> list[np.ndarray]:
    """The kernel's gap tables on ``chain.power``, after the order, length
    and cap checks of ``decompose``."""
    check_chain_law_length(chain, kernel, T)
    return _gap_tables(chain, kernel, np.stack([chain.power(g) for g in range(T)]))


def _gap_tables(chain: FiniteMarkovChain, kernel: KernelSpec,
                powers: np.ndarray) -> list[np.ndarray]:
    """Conditional means of the kernel along a stationary chain, by time gaps.

    ``powers[g]`` is P^g for g < T. Returns [E_{r-1}, ..., E_1, E_0], where
    E_j[g_1, ..., g_{r-1}, x_1, ..., x_j] is the mean of h(X_{t_1}, ..., X_{t_r})
    given X_{t_i} = x_i for i <= j, with gaps g_i = t_{i+1} - t_i. Time
    homogeneity makes it depend on the gaps only. Each level averages the one
    above over the law of the next argument, E_j = P^{g_j} E_{j+1}, and
    E_0 = pi E_1.
    """
    H = kernel.table
    r, s, T = H.ndim, H.shape[0], powers.shape[0]
    level = H.reshape((1,) * (r - 1) + H.shape)
    tables = []
    for j in range(r - 1, 0, -1):
        # P^{g_j}[x_j, x_{j+1}] on the g_j axis, broadcast over the other gaps
        # and over x_1, ..., x_{j-1}
        shape = [1] * (r + j - 2) + [s, s]
        shape[j - 1] = T
        level = (powers.reshape(shape) * level).sum(axis=-1)
        tables.append(level)
    tables.append(level @ chain.stationary)
    return [np.broadcast_to(E, (T,) * (r - 1) + E.shape[r - 1:]) for E in tables]


def _ramp_sums(A: np.ndarray, n: int, depth: int) -> np.ndarray:
    """sum_{k=1}^{n} C(n-k, depth-1) A^k for a stack of square matrices
    (..., d, d), in O(d^3 depth^3 log n).

    It is block (depth, 0) of the n-th power of the lower block-bidiagonal
    matrix [[A], [A, I], [0, I, I], ...] of depth + 1 blocks: after k steps
    block 0 holds A^k and block j the sum of block j - 1 over the steps
    before, so depth 1 sums A^1..A^n and depth 2 weights A^k by n - k.
    """
    d = A.shape[-1]
    M = np.zeros(A.shape[:-2] + ((depth + 1) * d,) * 2)
    M[..., :2 * d, :d] = np.concatenate([A, A], axis=-2)
    for j in range(1, depth + 1):
        M[..., j * d:(j + 1) * d, j * d:(j + 1) * d] = np.eye(d)
        if j > 1:
            M[..., j * d:(j + 1) * d, (j - 1) * d:j * d] = np.eye(d)
    return np.linalg.matrix_power(M, n)[..., depth * d:, :d]


def chain_law_bias(chain: FiniteMarkovChain, kernel: KernelSpec, T: int) -> float:
    """theta* - theta: the chain-law expectation of the U-statistic over a
    length-T chain path minus the product-measure one, in closed form at
    any T, O(S^3 log T) at order 2 and O(S^4 log T) at order 3.

    With Q = P - 1 pi, P^g = 1 pi + Q^g for g >= 1, and the 1 pi parts give
    theta, so the bias sums Q-terms only and no two O(1) numbers cancel.
    Order 2: C(T, 2) (theta* - theta) = sum_g (T - g) <D_pi Q^g, H>.
    Order 3, over the gaps g1, g2 >= 1 with weight T - g1 - g2, P^g1 (x) P^g2
    splits into Q^g1 (x) 1 pi, 1 pi (x) Q^g2 and Q^g1 (x) Q^g2. The first two
    weight Q^g by C(T - g, 2), read against H pi and pi H. The third is
    sum_y <D_pi H[:, y, :], G_y>, with G_y the weighted sum of
    Q^g1 E_y Q^g2 and E_y the unit matrix at (y, y): G_y = Q B_y Q, B_y the
    (T - 1 - k)-weighted sum of the upper-right blocks of N_y^k,
    N_y = [[Q, E_y], [0, Q]], whose k-th power holds
    sum_{j<k} Q^j E_y Q^(k-1-j) there. Every weighted sum is one block power
    (``_ramp_sums``), all y in one stack.
    """
    H = _chain_law_table(chain, kernel, T)
    r, pi = kernel.order, chain.stationary
    s = pi.size
    Q = chain.transition - pi
    if r == 2:
        terms = pi[:, None] * _ramp_sums(Q, T, 2) * H
    else:
        # H pi puts pi on z (gap g1 is Q), pi H on x (gap g2 is Q)
        single = _ramp_sums(Q, T, 3) * (H @ pi + np.tensordot(pi, H, 1))
        N = np.zeros((s, 2 * s, 2 * s))
        N[:, :s, :s] = N[:, s:, s:] = Q
        N[np.arange(s), np.arange(s), s + np.arange(s)] = 1.0
        G = Q @ _ramp_sums(N, T - 1, 2)[:, :s, s:] @ Q  # [y, x, z]
        terms = np.concatenate([(pi[:, None] * single).ravel(),
                                (pi[:, None] * H.transpose(1, 0, 2) * G).ravel()])
    return math.fsum(terms.ravel()) / math.comb(T, r)


def theta_star(chain: FiniteMarkovChain, kernel: KernelSpec, T: int) -> float:
    """Exact expectation of the U-statistic over a length-T chain path:
    theta plus ``chain_law_bias``, at any T."""
    return theta_independent(chain, kernel) + chain_law_bias(chain, kernel, T)


def theta_independent(chain: FiniteMarkovChain, kernel: KernelSpec) -> float:
    """Product-measure expectation of the kernel under the stationary
    marginal: one ``einsum`` over the r copies of pi and the table."""
    H = _kernel_table(chain, kernel)
    axes = "abcdefghijklmnopqrstuvwxyz"[:kernel.order]
    return float(np.einsum(",".join(axes) + "," + axes + "->",
                           *[chain.stationary] * kernel.order, H))


# ---------------------------------------------------------------------------
# telescoping decomposition
# ---------------------------------------------------------------------------

def decompose(paths, chain: FiniteMarkovChain, kernel: KernelSpec) -> dict:
    """Split U - E[U] for chain paths into terms with zero conditional means.

    Level k of an index tuple is the mean of h given its first r-k arguments
    (level 0 is h itself, level r the unconditional mean); term k is
    level k-1 minus level k, s_k its mean over the C(T, r) tuples, and the
    b-term of order k sums term k over the tuples sharing their first
    r-k+1 indices, divided by T^(k-1). No tuple is enumerated: every level
    is a gap table, so each sum over trailing indices is a cumulative sum
    of a table along its gap axis, read once per path (see ``_path_sums``).

    Returns one dict: ``order``, ``length``, ``theta_star`` (the closed
    form), ``kernel_bound`` (max |h|) and, per path, ``s_terms`` (s_1..s_r),
    ``u_value``, ``b_term_max_abs`` and ``residual`` = u_value - theta_star
    - fsum(s_terms). The s-terms telescope to u_value minus the gap tables'
    mean of h, so the residual is rounding only if the two evaluators of
    E[U] agree. For one state path (a ``SeriesPath`` or 1-D array) the
    per-path values are floats and ``s_terms`` a list; for an (R, T) stack
    they are (R, r) and (R,) arrays, each path's bit for bit as alone: the
    path-free tables are built once per call and the stack read in chunks.
    """
    states = paths.states if isinstance(paths, SeriesPath) else np.asarray(paths)
    if states is None:
        raise ValueError("decomposition needs a state path")
    if states.ndim not in (1, 2) or not np.issubdtype(states.dtype, np.integer):
        raise ValueError("decomposition needs integer states, one path or an (R, T) stack")
    T = int(states.shape[-1])
    tables = _chain_law_tables(chain, kernel, T)
    if states.size and (states.min() < 0 or states.max() >= chain.state_count):
        raise ValueError("path states out of range for this chain")

    H, r = kernel.table, kernel.order
    expectation = theta_star(chain, kernel, T)
    stack = np.atleast_2d(states)
    sums, b_max = _path_sums(kernel, tables, stack)
    s_terms = sums / math.comb(T, r)
    u_value = _u_table_path(stack, H)
    residual = u_value - expectation - np.array([math.fsum(row) for row in s_terms.tolist()])
    per_path = {"s_terms": s_terms, "u_value": u_value, "residual": residual,
                "b_term_max_abs": b_max}
    if states.ndim == 1:
        per_path = {key: value[0].tolist() for key, value in per_path.items()}
    return {"order": r, "length": T, "theta_star": expectation,
            "kernel_bound": float(np.max(np.abs(H))), **per_path}


def _path_sums(kernel: KernelSpec, tables: list[np.ndarray],
               states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (R, r) sums of term k, k = 1..r, and the (R,) largest |b-term|
    of each path of an (R, T) stack, from tables built once per call.

    With pairs (a, b), a < b, gap g = b - a and rest n = T - 1 - b:

    - Order 2. Term 1 of pair (a, b) is K[g, x_a, x_b] = h - E_1[g, x_a].
      Term 2 summed over b > a is F[T-1-a, x_a], F the cumulative sum of
      E_1 - E_0 over the gap.
    - Order 3, pair (a, b) = (t2, t3). Term 1 is h - E_2[g2, x1, x_{t2}],
      whatever t1; it is read for every x1 and weighted by the number of
      earlier visits to x1, and only visited x1 enter the b-term maximum.
    - Order 3, pair (a, b) = (t1, t2). Term 2 summed over t3 > t2 is
      C2[n, x_{t1}, x_{t2}] - C1[g1, n, x_{t1}], C2 and C1 the cumulative
      sums of E_2 and E_1 over g2.
    - Order 3, index t1. Term 3 summed over t1 < t2 < t3 is F[T-1-t1, x_{t1}],
      F the sum of E_1 - E_0 over g1 + g2 <= T-1-t1, by total gap.

    Each path costs O(T^2 S^(r-2)) reads and sums, gathered for chunks of
    paths whose pair reads fit in ``BLOCK_VALUES``.
    """
    H = kernel.table
    r, s, T = H.ndim, H.shape[0], states.shape[1]
    a, b = np.triu_indices(T, 1)
    gap = b - a
    E1, E0 = tables[-2], tables[-1]
    # term r summed over the trailing indices, by remaining length and state
    gaps = np.indices(E0.shape)
    D = np.where((gaps > 0).all(axis=0)[..., None], E1 - E0[..., None], 0.0)
    total = gaps.sum(axis=0)[..., None] * s + np.arange(s)
    by_total = np.bincount(total.ravel(), weights=D.ravel(), minlength=T * s)
    F = np.cumsum(by_total[:T * s].reshape(T, s), axis=0).ravel()
    F_row = (T - 1 - np.arange(T)) * s
    K_row = gap * s * s
    if r == 2:
        K = (H[None] - E1[:, :, None]).ravel()  # [g, x_a, x_b]
    else:
        E2 = tables[0][0]  # [g2, x1, x2], the same for every g1
        K = (H.transpose(1, 2, 0)[None] - E2.transpose(0, 2, 1)[:, :, None, :])
        K = K.reshape(-1, s)  # row [g2, x2, x3], column x1
        C2 = np.cumsum(np.where(np.arange(T)[:, None, None] > 0, E2, 0.0), axis=0).ravel()
        C1 = np.cumsum(np.where(np.arange(T)[None, :, None] > 0, E1, 0.0), axis=1).ravel()
        rest = T - 1 - b
        C2_row = rest * s * s
        C1_row = (gap * T + rest) * s

    def row_sums(terms: np.ndarray) -> np.ndarray:
        # on a C-contiguous chunk, a sum along axis 1 adds each row in the
        # pairwise order of the row alone, so no row depends on its chunk
        return terms.reshape(len(terms), -1).sum(axis=1)

    R = states.shape[0]
    sums, b_max = np.empty((R, r)), np.empty(R)
    rows = block_replications(a.size * s ** (r - 2))
    for start in range(0, R, rows):
        x = states[start:start + rows]
        pair = np.take(x, a, axis=1)
        pair *= s
        pair += np.take(x, b, axis=1)
        top = np.take(K, K_row + pair, axis=0)
        f = np.take(F, F_row + x)
        chunk_max = np.max(np.abs(f), axis=1) / T ** (r - 1)
        if r == 2:
            chunk_sums = [row_sums(top), row_sums(f)]
        else:
            # visits to each x1 before t2, the first index of the pair
            onehot = np.eye(s, dtype=np.int64)[x]
            weight = np.take(np.cumsum(onehot, axis=1) - onehot, a, axis=1)
            mid = np.take(C2, C2_row + pair) - np.take(C1, C1_row + np.take(x, a, axis=1))
            chunk_sums = [row_sums(weight * top), row_sums(mid), row_sums(f)]
            chunk_max = np.maximum(chunk_max, np.max(np.abs(mid), axis=1, initial=0.0) / T)
            top = np.where(weight > 0, top, 0.0)
        top = top.reshape(len(x), -1)
        b_max[start:start + rows] = np.maximum(chunk_max, np.max(np.abs(top), axis=1, initial=0.0))
        sums[start:start + rows] = np.array(chunk_sums).T
    return sums, b_max


def check_zero_conditional_means(chain: FiniteMarkovChain, kernel: KernelSpec,
                                 T: int) -> float:
    """Largest deviation of the gap tables from the one-step tower property.

    Each aggregated term of ``decompose`` has zero conditional mean given its
    history when every level of the gap tables is the next level averaged
    over the true law of the next argument. ``decompose`` reads tables built
    on ``chain.power``; this rebuilds them from the one-step products
    P, P P, P P P, ... and returns the largest absolute difference, so a
    wrong matrix power shows as a nonzero value (rounding level otherwise).
    """
    tables = _chain_law_tables(chain, kernel, T)
    steps = [np.eye(chain.state_count)]
    for _ in range(1, T):
        steps.append(steps[-1] @ chain.transition)
    rebuilt = _gap_tables(chain, kernel, np.stack(steps))
    return max(float(np.max(np.abs(a - b))) for a, b in zip(tables, rebuilt))
