"""U-statistics over time-ordered data.

The generic evaluator enumerates index combinations in colexicographic order
with compensated summation and serves as the slow oracle. Fast paths:
Kendall's tau as the inversion count of a rank permutation, by a top-down
value-bit partition vectorized across whole batches of rows, Spearman's rho
from exact integer rank sums, and the order-3 symmetric rank kernel from the
same counts through Hoeffding's identity. Every rank comes from one sort of
uint64 keys per coordinate, value bits above and an index below; rows with
near ties take an argsort, and rows with ties the exact oracles. Non-finite
values are rejected. Hoeffding's permutation decoupling, a proof device,
is checked against ``u_statistic`` by a literal oracle in the tests.

For paths generated by a finite Markov chain the module also evaluates the
chain-law expectation of the U-statistic, the product-measure expectation,
and the telescoping split of U minus its expectation into per-order terms
with exactly zero conditional means. All three chain-law evaluators read
one set of gap tables: the conditional means of a table kernel given its
leading arguments, indexed by time gaps and conditioning states. The
decomposition reads its sums over trailing indices as cumulative sums of
those tables along their gap axes, so no chain-law evaluator enumerates
index tuples.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import KernelSpec, spearman_symmetric_kernel
from .processes import FiniteMarkovChain, SeriesPath

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


def _colex_combinations(T: int, r: int):
    """Increasing index tuples ordered by their largest element."""
    if r == 1:
        for t in range(T):
            yield (t,)
        return
    for last in range(r - 1, T):
        for rest in itertools.combinations(range(last), r - 1):
            yield rest + (last,)


class _KahanSum:
    """Compensated accumulator."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, v: float) -> None:
        y = v - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def u_statistic(data, kernel: KernelSpec, max_terms: int = MAX_GENERIC_TERMS) -> float:
    """Average of the kernel over all increasing index tuples of size r."""
    points = _points_of(data)
    T, r = len(points), kernel.order
    if T < r:
        raise ValueError(f"path length {T} shorter than kernel order {r}")
    n_terms = math.comb(T, r)
    if n_terms > max_terms:
        raise ValueError(f"{n_terms} kernel terms exceed the cap of {max_terms}")
    fn = kernel.fn
    acc = _KahanSum()
    for idx in _colex_combinations(T, r):
        acc.add(float(fn(*(points[t] for t in idx))))
    return acc.total / n_terms


# ---------------------------------------------------------------------------
# fast rank statistics
# ---------------------------------------------------------------------------

def _count_inversions_batch(rows: np.ndarray) -> np.ndarray:
    """Per-row inversion counts of rows that are permutations of 0..T-1.

    Top-down value-bit partition: rows are padded to n = 2^B with the values
    T..n-1 in order, which adds no inversion. At the level of bit b every
    aligned value block of 2^(b+1) values sits in a contiguous block of
    positions, in its original order. A one before a zero in bit b is an
    inversion, so the level adds, per block, the positions of its zeros minus
    the positions they would take at the block's front; one ``einsum`` over
    the zero mask sums them for the whole row. Each block holds exactly 2^b
    zeros, so two flat ``compress`` calls then move them stably to the
    block's front, except after the last level. The Python loop runs B times
    regardless of the number of rows, on the narrowest unsigned dtype that
    holds n - 1.
    """
    rows = np.asarray(rows)
    R, T = rows.shape
    inv = np.zeros(R, dtype=np.int64)
    n = 1 << (T - 1).bit_length()
    dtype = np.min_scalar_type(n - 1)
    arr = np.empty((R, n), dtype=dtype)
    arr[:, :T] = rows
    arr[:, T:] = np.arange(T, n, dtype=dtype)
    positions = np.arange(n, dtype=np.int64)
    half = n // 2
    while half:
        zero = (arr & dtype.type(half)) == 0
        m = n // (2 * half)
        # zero positions if every block's zeros led it: m blocks of
        # 0..half-1, plus each block's offset 2 * half * k for k < m
        front = m * (half * (half - 1) // 2) + 2 * half * half * (m * (m - 1) // 2)
        inv += np.einsum("ij,j->i", zero, positions) - front
        if half == 1:  # the last level: nothing reads its partition
            break
        flat, values = zero.ravel(), arr.ravel()
        parted = np.empty((R * m, 2, half), dtype=dtype)
        parted[:, 0] = np.compress(flat, values).reshape(R * m, half)
        parted[:, 1] = np.compress(~flat, values).reshape(R * m, half)
        arr = parted.reshape(R, n)
        half //= 2
    return inv


def kendall_tau_numerator(x: np.ndarray, y: np.ndarray) -> int:
    """Concordant-minus-discordant pair count (exact integer, ties give 0)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    T = x.size
    inv, _, tied = _rank_pair_batch(x[None], y[None])
    if not tied[0]:
        return math.comb(T, 2) - 2 * int(inv[0])
    total = 0
    for a in range(0, T, 512):
        b = min(a + 512, T)
        sx = np.sign(x[a:b, None] - x[None, :])
        sy = np.sign(y[a:b, None] - y[None, :])
        prod = (sx * sy).astype(np.int64)
        keep = np.arange(T)[None, :] > np.arange(a, b)[:, None]
        total += int(prod[keep].sum())
    return total


def kendall_tau(path) -> float:
    """Kendall's tau: the order-2 sign-product U-statistic of a bivariate path.

    O(T log T) inversion counting when both coordinates are tie-free, exact
    O(T^2) pairwise counting otherwise.
    """
    xy = _bivariate(path)
    T = xy.shape[0]
    if T < 2:
        raise ValueError("Kendall's tau needs at least 2 observations")
    return kendall_tau_numerator(xy[:, 0], xy[:, 1]) / math.comb(T, 2)


def _tied_rows(sorted_rows: np.ndarray) -> np.ndarray:
    """Per-row flag: a row, already in sorted order, holds equal entries."""
    return (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)


_SIGN_BIT = np.uint64(1 << 63)
# Keys of finite values lie in [_FINITE_KEYS[0], _FINITE_KEYS[1]) whatever
# their low 52 bits hold; infinities and NaNs sort outside, to either end.
_FINITE_KEYS = (np.uint64(0x0010_0000_0000_0000), np.uint64(0xFFF0_0000_0000_0000))


def _keys(rows: np.ndarray) -> np.ndarray:
    """uint64 sort keys of a 2-D batch of T columns, low ceil(log2 T) bits
    cleared for the index ``_key_order`` puts there.

    A key is the order-preserving bit image of the float64 value: negative
    values get every bit flipped, the others the sign bit set, and -0.0 is
    read as +0.0. Distinct values whose keys differ above the low bits
    compare as their keys do.
    """
    keys = np.add(rows, 0.0, dtype=np.float64, order="C").view(np.uint64)
    flip = (keys.view(np.int64) >> 63).view(np.uint64)  # all ones where negative
    flip |= _SIGN_BIT
    keys ^= flip
    keys &= ~np.uint64((1 << (keys.shape[1] - 1).bit_length()) - 1)
    return keys


def _key_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Put each key's column index in its low bits and sort each row in
    place; return the sorted low bits, the row's ordering, as int64, and a
    per-row flag for near ties.

    A flagged row holds two adjacent sorted keys that share their high bits:
    a tie, or two values within 2^bits ulps. Only in flagged rows can the low
    bits differ from the ordering by value, so those rows take the argsort
    route. Non-finite values are rejected.
    """
    T = keys.shape[1]
    low = np.uint64((1 << (T - 1).bit_length()) - 1)
    keys |= np.arange(T, dtype=np.uint64)
    keys.sort(axis=1)
    lo, hi = _FINITE_KEYS
    if (keys[:, 0] < lo).any() or (keys[:, -1] >= hi).any():
        raise ValueError("rank statistics need finite values")
    near = ((keys[:, 1:] ^ keys[:, :-1]) <= low).any(axis=1)
    keys &= low
    return keys.view(np.int64), near


def _argsort_ranks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_ranks`` by one unstable argsort per row, for the rows it flags."""
    order = np.argsort(rows, axis=1)
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(rows.shape[1]), axis=1)
    return order, ranks, _tied_rows(np.take_along_axis(rows, order, axis=1))


def _ranks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, ranks, tied) of each row of a 2-D array of finite values.

    ``order`` sorts the row and ``ranks`` is its inverse, the 0-based ranks.
    One sort of uint64 keys per row gives the order: each key holds the
    value's bits above the low ceil(log2 T) and the time index below them.
    Rows with a near tie take ``_argsort_ranks``. ``tied`` flags the rows
    holding equal entries; only in those do order and ranks depend on the
    sort, so tie-free results are exact and tied rows must take another path.
    """
    rows = np.asarray(rows)
    order, near = _key_order(_keys(rows))
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(rows.shape[1]), axis=1)
    tied = np.zeros(rows.shape[0], dtype=bool)
    if near.any():
        order[near], ranks[near], tied[near] = _argsort_ranks(rows[near])
    return order, ranks, tied


def _argsort_rank_pair(x_rows: np.ndarray, y_rows: np.ndarray):
    """``_rank_pair_batch`` by argsorts, for the rows it flags; tie-free rows
    have unique orderings and tied rows take the exact fallbacks."""
    order, _, tied = _argsort_ranks(x_rows)
    y_order, _, y_tied = _argsort_ranks(np.take_along_axis(y_rows, order, axis=1))
    return _count_inversions_batch(y_order), y_order, tied | y_tied


def _rank_pair_batch(x_rows: np.ndarray, y_rows: np.ndarray):
    """Inversions of y read in x order, with the orderings and a tie mask.

    Returns (inv, y_order, tied): ``y_order[i, j]`` is the x-rank of the
    element with y-rank j (the inverse of the y-ranks in x order, with the
    same inversions), so the rank-difference sum d2 of row i is
    sum_j (y_order[i, j] - j)^2. ``tied`` marks rows with a tie in either
    coordinate.

    Each coordinate is one sort of uint64 keys (see ``_ranks``): x keys carry
    the time index in their low bits, so the sorted low bits are the x order;
    the y keys, gathered in that order, carry the x-rank, so their sorted
    low bits are ``y_order``. Rows with a near tie in either coordinate take
    ``_argsort_rank_pair``; every row is counted once.
    """
    x_rows = np.asarray(x_rows)
    y_rows = np.asarray(y_rows)
    order, near = _key_order(_keys(x_rows))
    y_order, y_near = _key_order(np.take_along_axis(_keys(y_rows), order, axis=1))
    del order  # each (R, T) temporary is dropped once read, to keep the peak down
    near |= y_near
    if not near.any():
        return _count_inversions_batch(y_order), y_order, near
    inv = np.empty(near.shape, dtype=np.int64)
    tied = np.zeros(near.shape, dtype=bool)
    inv[near], y_order[near], tied[near] = _argsort_rank_pair(x_rows[near], y_rows[near])
    inv[~near] = _count_inversions_batch(y_order[~near])
    return inv, y_order, tied


def kendall_tau_batch(x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
    """Kendall's tau per row for a batch of bivariate paths.

    Rows without ties take the batched inversion counter; rows with a tie in
    either coordinate take the exact ``kendall_tau_numerator``.
    """
    T = np.shape(x_rows)[1]
    if T < 2:
        raise ValueError("Kendall's tau needs at least 2 observations")
    inv, _, tied = _rank_pair_batch(x_rows, y_rows)
    denom = math.comb(T, 2)
    out = (denom - 2 * inv) / denom
    for i in np.flatnonzero(tied):
        out[i] = kendall_tau_numerator(x_rows[i], y_rows[i]) / denom
    return out


def spearman_rho3_batch(x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
    """Order-3 symmetric rank-kernel U-statistic per row of a bivariate batch.

    Hoeffding's identity rho = ((T-2) rho3 + 3 tau) / (T+1) gives the exact
    integer kernel sum C(T,3) - d2 + 2 inv per tie-free row, with d2 the
    squared rank differences and inv the discordant pairs, in O(T log T).
    Rows with a tie take the ``u_statistic`` enumerator, where the kernel's
    sign(0) = 0 convention applies.
    """
    T = np.shape(x_rows)[1]
    if T < 3:
        raise ValueError("the order-3 rank kernel needs at least 3 observations")
    inv, y_order, tied = _rank_pair_batch(x_rows, y_rows)
    d2 = ((y_order - np.arange(T)) ** 2).sum(axis=1)
    n_terms = math.comb(T, 3)
    out = (n_terms - d2 + 2 * inv) / n_terms
    kernel = spearman_symmetric_kernel()
    for i in np.flatnonzero(tied):
        out[i] = u_statistic(np.column_stack([x_rows[i], y_rows[i]]), kernel)
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
    """Spearman's rho of a tie-free bivariate path, with its U-statistic parts.

    ``rho`` comes from exact integer rank sums; ``rho3`` is the order-3
    symmetric-kernel U-statistic and ``tau`` the order-2 one, satisfying
    rho = ((T-2) rho3 + 3 tau) / (T+1).
    """
    xy = _bivariate(path)
    T = xy.shape[0]
    if T < 3:
        raise ValueError("Spearman's rho needs at least 3 observations")
    _, (rx, ry), tied = _ranks(xy.T)
    if tied.any():
        raise ValueError("Spearman's rho is defined here for tie-free paths")
    d2 = int(((rx - ry) ** 2).sum())
    rho = 1.0 - 6.0 * d2 / (T * (T * T - 1))
    rho3 = u_statistic(path, spearman_symmetric_kernel())
    tau = kendall_tau(path)
    return SpearmanResult(rho=rho, rho3=rho3, tau=tau)


# ---------------------------------------------------------------------------
# exact chain-law expectations
# ---------------------------------------------------------------------------

def _tuple_counts(states: np.ndarray, s: int, r: int) -> np.ndarray:
    """N[a(, b(, c))]: how many increasing index tuples of a state path carry
    the states (a(, b(, c))), from one-hot prefix and suffix state counts in
    O(T S^r); a table kernel's U-statistic is <N, H> / C(T, r)."""
    if r > 3:
        raise ValueError("tuple counts support orders 1..3")
    onehot = np.eye(s, dtype=np.int64)[states]
    seen = np.cumsum(onehot, axis=0)
    if r == 1:
        return seen[-1]
    if r == 2:
        return (seen - onehot).T @ onehot
    return np.einsum("ta,tb,tc->abc", seen - onehot, onehot, seen[-1] - seen)


def _kernel_table(kernel: KernelSpec | np.ndarray, state_count: int, r: int) -> np.ndarray:
    if isinstance(kernel, KernelSpec):
        if kernel.table is None:
            raise ValueError("chain-law expectations need a table kernel")
        H = kernel.table
    else:
        H = np.asarray(kernel, dtype=float)
    if H.ndim != r or H.shape != (state_count,) * r:
        raise ValueError(f"kernel table must have shape {(state_count,) * r}")
    return H


# Largest T of the exact chain-law evaluators, by order. The gap tables hold
# T^(r-1) S^2 entries and ``decompose`` reads T^2 S^(r-2) of them per path:
# at S = 3 and either cap, on one core, a call builds its tables in about
# 0.1 s and adds 10 ms (order 3) or 25 ms (order 2) per path, with a peak
# of 41 or 96 MB.
_THETA_STAR_T_CAP = {2: 2000, 3: 500}


def _chain_law_tables(chain: FiniteMarkovChain, kernel: KernelSpec | np.ndarray,
                      T: int, r: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The kernel table and its gap tables on ``chain.power``, after the
    order, length and cap checks the exact chain-law evaluators share."""
    if r not in (2, 3):
        raise ValueError("exact chain-law evaluation supports orders 2 and 3")
    if T < r:
        raise ValueError(f"need T >= {r}")
    if T > _THETA_STAR_T_CAP[r]:
        raise ValueError(f"T={T} beyond the chain-law cap for r={r}")
    H = _kernel_table(kernel, chain.state_count, r)
    powers = np.stack([chain.power(g) for g in range(T)])
    return H, _gap_tables(powers, chain.stationary, H)


def _gap_tables(powers: np.ndarray, pi: np.ndarray, H: np.ndarray) -> list[np.ndarray]:
    """Conditional means of the kernel along a stationary chain, by time gaps.

    ``powers[g]`` is P^g for g < T. Returns [E_{r-1}, ..., E_1, E_0], where
    E_j[g_1, ..., g_{r-1}, x_1, ..., x_j] is the mean of h(X_{t_1}, ..., X_{t_r})
    given X_{t_i} = x_i for i <= j, with gaps g_i = t_{i+1} - t_i. Time
    homogeneity makes it depend on the gaps only. Each level averages the one
    above over the law of the next argument, E_j = P^{g_j} E_{j+1}, and
    E_0 = pi E_1.
    """
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
    tables.append(level @ pi)
    return [np.broadcast_to(E, (T,) * (r - 1) + E.shape[r - 1:]) for E in tables]


def theta_star(chain: FiniteMarkovChain, kernel: KernelSpec | np.ndarray,
               T: int, r: int) -> float:
    """Exact expectation of the U-statistic over a length-T chain path."""
    return _gap_weighted_mean(_chain_law_tables(chain, kernel, T, r)[1][-1], T)


def _gap_weighted_mean(E0: np.ndarray, T: int) -> float:
    """Mean of E_0 over the C(T, r) increasing index tuples of a length-T
    path: the gaps (g_1, ..., g_{r-1}) occur in T - sum(g) of them."""
    gaps = np.indices(E0.shape)
    count = T - gaps.sum(axis=0)
    used = (gaps > 0).all(axis=0) & (count > 0)
    return math.fsum((count * E0)[used]) / math.comb(T, E0.ndim + 1)


def theta_independent(chain_or_pi, kernel: KernelSpec | np.ndarray, r: int) -> float:
    """Product-measure expectation of the kernel under the stationary marginal."""
    if isinstance(chain_or_pi, FiniteMarkovChain):
        pi = chain_or_pi.stationary
    else:
        pi = np.asarray(chain_or_pi, dtype=float)
    H = _kernel_table(kernel, pi.size, r)
    if r == 1:
        return float(pi @ H)
    if r == 2:
        return float(np.einsum("x,y,xy->", pi, pi, H))
    if r == 3:
        return float(np.einsum("x,y,z,xyz->", pi, pi, pi, H))
    raise ValueError("product-measure expectation supports orders 1..3")


# ---------------------------------------------------------------------------
# telescoping decomposition
# ---------------------------------------------------------------------------

@dataclass
class DecompositionReport:
    """Per-path split of U minus its chain-law expectation into order terms.

    ``s_terms[k-1]`` carries the summed difference between conditioning on
    the first r-k+1 and the first r-k arguments; the terms telescope so that
    u_value - expectation - sum(s_terms) vanishes identically.
    """

    order: int
    length: int
    s_terms: list[float]
    u_value: float
    theta_star: float
    residual: float
    b_term_max_abs: float
    kernel_bound: float

    @property
    def b_ratio(self) -> float:
        """b_term_max_abs over twice the kernel bound; 0 for a zero kernel,
        whose b-terms all vanish."""
        return self.b_term_max_abs / (2.0 * self.kernel_bound) if self.kernel_bound else 0.0


def decompose(paths, chain: FiniteMarkovChain, kernel: KernelSpec | np.ndarray,
              r: int | None = None) -> DecompositionReport | list[DecompositionReport]:
    """Split U - E[U] for chain paths into terms with zero conditional means.

    Level k of an index tuple is the mean of h given its first r-k arguments
    (level 0 is h itself, level r the unconditional mean); term k is
    level k-1 minus level k, s_k its mean over the C(T, r) tuples, and the
    b-term of order k sums term k over the tuples sharing their first
    r-k+1 indices, divided by T^(k-1). No tuple is enumerated: every level
    is a gap table, so each sum over trailing indices is a cumulative sum
    of a table along its gap axis, read once per path (see ``_path_sums``).

    ``paths`` is one state path (a ``SeriesPath`` or 1-D array), giving one
    report, or an (R, T) stack of them, giving a list of R reports; the
    tables that do not depend on the path are built once per call.
    """
    states = paths.states if isinstance(paths, SeriesPath) else np.asarray(paths)
    if states is None:
        raise ValueError("decomposition needs a state path")
    if states.ndim not in (1, 2) or not np.issubdtype(states.dtype, np.integer):
        raise ValueError("decomposition needs integer states, one path or an (R, T) stack")
    if r is None:
        r = kernel.order if isinstance(kernel, KernelSpec) else np.asarray(kernel).ndim
    T = int(states.shape[-1])
    H, tables = _chain_law_tables(chain, kernel, T, r)
    if states.size and (states.min() < 0 or states.max() >= chain.state_count):
        raise ValueError("path states out of range for this chain")

    n_tuples = math.comb(T, r)
    expectation = _gap_weighted_mean(tables[-1], T)
    bound = float(np.max(np.abs(H)))
    path_sums = _path_sums(H, tables, T)
    reports = []
    for row in np.atleast_2d(states):
        u_sum, sums, b_max = path_sums(row)
        u_value = u_sum / n_tuples
        s_terms = [v / n_tuples for v in sums]
        reports.append(DecompositionReport(
            order=r, length=T, s_terms=s_terms, u_value=u_value,
            theta_star=expectation,
            residual=u_value - expectation - math.fsum(s_terms),
            b_term_max_abs=b_max, kernel_bound=bound))
    return reports[0] if states.ndim == 1 else reports


def _path_sums(H: np.ndarray, tables: list[np.ndarray], T: int):
    """Build the path-independent tables of ``decompose`` once; return the
    per-path evaluator states -> (sum of h, [sum of term k for k = 1..r],
    largest |b-term|).

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

    Each path costs O(T^2 S^(r-2)) reads and sums.
    """
    r, s = H.ndim, H.shape[0]
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

    def evaluate(x: np.ndarray):
        u_sum = math.fsum((_tuple_counts(x, s, r) * H).ravel())
        pair = x[a] * s + x[b]
        top = K[K_row + pair]
        f = F[F_row + x]
        b_max = float(np.max(np.abs(f))) / T ** (r - 1)
        if r == 2:
            sums = [top.sum(), f.sum()]
        else:
            # visits to each x1 before t2, the first index of the pair
            onehot = np.eye(s, dtype=np.int64)[x]
            weight = (np.cumsum(onehot, axis=0) - onehot)[a]
            mid = C2[C2_row + pair] - C1[C1_row + x[a]]
            sums = [(weight * top).sum(), mid.sum(), f.sum()]
            b_max = max(b_max, float(np.max(np.abs(mid), initial=0.0)) / T)
            top = np.where(weight > 0, top, 0.0)
        b_max = max(b_max, float(np.max(np.abs(top), initial=0.0)))
        return u_sum, [float(v) for v in sums], b_max

    return evaluate


def check_zero_conditional_means(chain: FiniteMarkovChain,
                                 kernel: KernelSpec | np.ndarray,
                                 T: int, r: int) -> float:
    """Largest deviation of the gap tables from the one-step tower property.

    Each aggregated term of ``decompose`` has zero conditional mean given its
    history when every level of the gap tables is the next level averaged
    over the true law of the next argument. ``decompose`` reads tables built
    on ``chain.power``; this rebuilds them from the one-step products
    P, P P, P P P, ... and returns the largest absolute difference, so a
    wrong matrix power shows as a nonzero value (rounding level otherwise).
    """
    H, tables = _chain_law_tables(chain, kernel, T, r)
    steps = [np.eye(chain.state_count)]
    for _ in range(1, T):
        steps.append(steps[-1] @ chain.transition)
    rebuilt = _gap_tables(np.stack(steps), chain.stationary, H)
    return max(float(np.max(np.abs(a - b))) for a, b in zip(tables, rebuilt))
