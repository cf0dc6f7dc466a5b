"""U-statistics over time-ordered data.

The generic evaluator enumerates index combinations in colexicographic order
with compensated summation and serves as the slow oracle. Fast paths:
Kendall's tau via merge-based discordant-pair counting (vectorized across
whole batches of paths), Spearman's rho from exact integer rank sums, and the
order-3 symmetric rank kernel from the same counts through Hoeffding's
identity. Batched paths route rows with ties to the exact oracles.

For paths generated by a finite Markov chain the module also evaluates the
chain-law expectation of the U-statistic, the product-measure expectation,
and the telescoping split of U minus its expectation into per-order terms
with exactly zero conditional means, using exact conditional expectations
derived from the transition matrix.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

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

def _count_inversions_batch(rows: np.ndarray,
                            base: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Per-row inversion counts for rows without internal ties.

    Returns the counts and the stable per-row argsort the ranks come from,
    so callers can read each row in sorted order (tie checks, rank sums)
    without sorting again.

    Bottom-up merge counting: blocks up to ``base`` are handled by brute
    pairwise comparison, then each level merges sorted half-blocks with one
    stable argsort per level, so the Python loop runs only ~log2(T) times
    regardless of the number of rows.
    """
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[None, :]
    R, T = rows.shape
    if T < 2:
        return np.zeros(R, dtype=np.int64), np.zeros((R, T), dtype=np.intp)

    order = np.argsort(rows, axis=1, kind="stable")
    ranks = np.empty((R, T), dtype=np.int32)
    np.put_along_axis(ranks, order, np.arange(T, dtype=np.int32)[None, :], axis=1)

    n = 1
    while n < T:
        n *= 2
    arr = np.full((R, n), T, dtype=np.int32)  # pad rank T sorts after all data
    arr[:, :T] = ranks
    inv = np.zeros(R, dtype=np.int64)

    half = min(base, n)
    if half > 1:
        m = n // half
        a = arr.reshape(R * m, half)
        iu, ju = np.triu_indices(half, k=1)
        cross = (a[:, iu] > a[:, ju]).sum(axis=1, dtype=np.int64)
        inv += cross.reshape(R, m).sum(axis=1)
        a.sort(axis=1)
        arr = a.reshape(R, n)

    while half < n:
        width = 2 * half
        m = n // width
        a = arr.reshape(R * m, width)
        idx = np.argsort(a, axis=1, kind="stable")
        # merged positions of right-half elements; pads tie with pads and the
        # stable sort keeps left pads first, so pad pairs contribute zero
        pos = np.nonzero(idx >= half)[1].reshape(R * m, half)
        cross = half * half + (half * (half - 1)) // 2 - pos.sum(axis=1, dtype=np.int64)
        inv += cross.reshape(R, m).sum(axis=1)
        arr = np.take_along_axis(a, idx, axis=1).reshape(R, n)
        half = width
    return inv, order


def _has_ties(col: np.ndarray) -> bool:
    sorted_col = np.sort(col)
    return bool(np.any(sorted_col[1:] == sorted_col[:-1]))


def kendall_tau_numerator(x: np.ndarray, y: np.ndarray) -> int:
    """Concordant-minus-discordant pair count (exact integer, ties give 0)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    T = x.size
    if _has_ties(x) or _has_ties(y):
        total = 0
        for a in range(0, T, 512):
            b = min(a + 512, T)
            sx = np.sign(x[a:b, None] - x[None, :])
            sy = np.sign(y[a:b, None] - y[None, :])
            prod = (sx * sy).astype(np.int64)
            keep = np.arange(T)[None, :] > np.arange(a, b)[:, None]
            total += int(prod[keep].sum())
        return total
    order = np.argsort(x, kind="stable")
    inv = int(_count_inversions_batch(y[order][None, :])[0][0])
    return math.comb(T, 2) - 2 * inv


def kendall_tau(path) -> float:
    """Kendall's tau: the order-2 sign-product U-statistic of a bivariate path.

    O(T log T) merge counting when both coordinates are tie-free, exact
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


def _rank_pair_batch(x_rows: np.ndarray, y_rows: np.ndarray):
    """Inversions of y read in x order, with the orderings and a tie mask.

    Returns (inv, y_order, tied): ``y_order[i, j]`` is the x-rank of the
    element with y-rank j, so the rank-difference sum d2 of row i is
    sum_j (y_order[i, j] - j)^2. ``tied`` marks rows with a tie in either
    coordinate; it reads both coordinates through the two argsorts already
    taken, so ties cost no extra sort.
    """
    x_rows = np.asarray(x_rows)
    y_rows = np.asarray(y_rows)
    order = np.argsort(x_rows, axis=1, kind="stable")
    tied = _tied_rows(np.take_along_axis(x_rows, order, axis=1))
    permuted = np.take_along_axis(y_rows, order, axis=1)
    inv, y_order = _count_inversions_batch(permuted)
    tied |= _tied_rows(np.take_along_axis(permuted, y_order, axis=1))
    return inv, y_order, tied


def kendall_tau_batch(x_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
    """Kendall's tau per row for a batch of bivariate paths.

    Rows without ties take the batched merge counter; rows with a tie in
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


def _ranks_1based(col: np.ndarray) -> np.ndarray:
    order = np.argsort(col, kind="stable")
    ranks = np.empty(col.size, dtype=np.int64)
    ranks[order] = np.arange(1, col.size + 1)
    return ranks


class SpearmanResult(NamedTuple):
    rho: float
    rho3: float
    tau: float


def spearman_rho(path, max_terms: int = MAX_GENERIC_TERMS) -> SpearmanResult:
    """Spearman's rho of a tie-free bivariate path, with its U-statistic parts.

    ``rho`` comes from exact integer rank sums; ``rho3`` is the order-3
    symmetric-kernel U-statistic and ``tau`` the order-2 one, satisfying
    rho = ((T-2) rho3 + 3 tau) / (T+1).
    """
    xy = _bivariate(path)
    T = xy.shape[0]
    if T < 3:
        raise ValueError("Spearman's rho needs at least 3 observations")
    if _has_ties(xy[:, 0]) or _has_ties(xy[:, 1]):
        raise ValueError("Spearman's rho is defined here for tie-free paths")
    rx = _ranks_1based(xy[:, 0])
    ry = _ranks_1based(xy[:, 1])
    d2 = int(((rx - ry) ** 2).sum())
    rho = 1.0 - 6.0 * d2 / (T * (T * T - 1))
    rho3 = u_statistic(path, spearman_symmetric_kernel(), max_terms=max_terms)
    tau = kendall_tau(path)
    return SpearmanResult(rho=rho, rho3=rho3, tau=tau)


# ---------------------------------------------------------------------------
# permutation decoupling
# ---------------------------------------------------------------------------

def hoeffding_decoupling_average(path, kernel: KernelSpec,
                                 permutations="all") -> float:
    """Average block-mean of the kernel over permuted index orderings.

    Each permutation of 1..T is split into floor(T/r) consecutive blocks of r
    indices; the kernel values over those blocks are averaged, then averaged
    over the supplied permutations. With all T! permutations this equals the
    U-statistic identically.
    """
    points = _points_of(path)
    T, r = len(points), kernel.order
    if T < r:
        raise ValueError(f"path length {T} shorter than kernel order {r}")
    if isinstance(permutations, str):
        if permutations != "all":
            raise ValueError("permutations must be 'all' or an explicit list")
        if T > 8:
            raise ValueError("full permutation enumeration limited to T <= 8")
        perm_iter: Iterable = itertools.permutations(range(T))
    else:
        perm_iter = [tuple(p) for p in permutations]
        for perm in perm_iter:
            if sorted(perm) != list(range(T)):
                raise ValueError(f"{perm} is not a permutation of 0..{T - 1}")

    nblocks = T // r
    fn = kernel.fn
    cache: dict[tuple, float] = {}
    per_perm: list[float] = []
    for perm in perm_iter:
        total = 0.0
        for b in range(nblocks):
            key = tuple(sorted(perm[b * r:(b + 1) * r]))
            v = cache.get(key)
            if v is None:
                v = float(fn(*(points[t] for t in key)))
                cache[key] = v
            total += v
        per_perm.append(total / nblocks)
    if not per_perm:
        raise ValueError("no permutations supplied")
    return math.fsum(per_perm) / len(per_perm)


# ---------------------------------------------------------------------------
# exact chain-law expectations
# ---------------------------------------------------------------------------

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


class ConditionalExpectationOracle:
    """Exact conditional expectations of a table kernel along a chain.

    Values are cached by time-gap tuples, exploiting time homogeneity: the
    expectation of h(X_{t_1}, ..., X_{t_r}) given a prefix of the arguments
    depends on the gaps only.
    """

    def __init__(self, chain: FiniteMarkovChain, kernel: KernelSpec | np.ndarray, r: int):
        if r not in (2, 3):
            raise ValueError("conditional oracles support orders 2 and 3")
        self.chain = chain
        self.r = r
        self.table = _kernel_table(kernel, chain.state_count, r)
        self.bound = float(np.max(np.abs(self.table)))
        self._given1: dict = {}
        self._given2: dict = {}
        self._full: dict = {}

    # order 2: gaps = (g,); order 3: gaps = (g1, g2)

    def given_all_but_last(self, gaps: tuple[int, ...]) -> np.ndarray:
        """E[h | all arguments except the last], indexed by the prefix states.

        Only the final gap matters, so the cache is keyed by it alone.
        """
        key = gaps[-1]
        cache = self._given2 if self.r == 3 else self._given1
        got = cache.get(key)
        if got is not None:
            return got
        if self.r == 2:
            out = (self.chain.power(key) * self.table).sum(axis=1)
        else:
            out = np.einsum("yz,xyz->xy", self.chain.power(key), self.table)
        cache[key] = out
        return out

    def given_first(self, gaps: tuple[int, ...]) -> np.ndarray:
        """E[h | first argument], indexed by the first state."""
        if self.r == 2:
            return self.given_all_but_last(gaps)
        got = self._given1.get(gaps)
        if got is None:
            g1, g2 = gaps
            inner = self.given_all_but_last((g2,))
            got = np.einsum("xy,xy->x", self.chain.power(g1), inner)
            self._given1[gaps] = got
        return got

    def tuple_mean(self, gaps: tuple[int, ...]) -> float:
        """Unconditional E[h(X_{t_1}, ..., X_{t_r})] for the given gaps."""
        got = self._full.get(gaps)
        if got is None:
            got = float(self.chain.stationary @ self.given_first(gaps))
            self._full[gaps] = got
        return got


_THETA_STAR_T_CAP = {2: 120, 3: 40}


def theta_star(chain: FiniteMarkovChain, kernel: KernelSpec | np.ndarray,
               T: int, r: int) -> float:
    """Exact expectation of the U-statistic over a length-T chain path."""
    if r not in (2, 3):
        raise ValueError("exact chain expectations support orders 2 and 3")
    if T < r:
        raise ValueError(f"need T >= {r}")
    if T > _THETA_STAR_T_CAP[r]:
        raise ValueError(f"T={T} beyond the exact-enumeration cap for r={r}")
    oracle = ConditionalExpectationOracle(chain, kernel, r)
    acc = _KahanSum()
    if r == 2:
        for g in range(1, T):
            acc.add((T - g) * oracle.tuple_mean((g,)))
    else:
        for g1 in range(1, T - 1):
            for g2 in range(1, T - g1):
                acc.add((T - g1 - g2) * oracle.tuple_mean((g1, g2)))
    return acc.total / math.comb(T, r)


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

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "length": self.length,
            "s_terms": list(self.s_terms),
            "u_value": self.u_value,
            "theta_star": self.theta_star,
            "residual": self.residual,
            "b_term_max_abs": self.b_term_max_abs,
            "kernel_bound": self.kernel_bound,
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    def telescoping_ok(self, tol: float = 1e-10) -> bool:
        return abs(self.residual) <= tol * max(1.0, abs(self.u_value))

    def b_terms_bounded(self, tol: float = 1e-12) -> bool:
        return self.b_term_max_abs <= 2.0 * self.kernel_bound + tol


def decompose(path, chain: FiniteMarkovChain, kernel: KernelSpec | np.ndarray,
              r: int | None = None) -> DecompositionReport:
    """Split U - E[U] for a chain path into terms with zero conditional means.

    The per-tuple pieces condition on successively shorter argument prefixes;
    outer T^(k-1) and inner T^-(k-1) factors are kept explicit so the
    intermediate quantities can be inspected, even though they cancel.
    """
    states = path.states if isinstance(path, SeriesPath) else np.asarray(path, dtype=np.int64)
    if states is None:
        raise ValueError("decomposition needs a state path")
    if r is None:
        r = kernel.order if isinstance(kernel, KernelSpec) else np.asarray(kernel).ndim
    if r not in (2, 3):
        raise ValueError("decomposition supports orders 2 and 3")
    T = int(states.shape[0])
    if T < r:
        raise ValueError(f"need T >= {r}")
    if T > _THETA_STAR_T_CAP[r]:
        raise ValueError(f"T={T} beyond the exact-enumeration cap for r={r}")
    if states.min() < 0 or states.max() >= chain.state_count:
        raise ValueError("path states out of range for this chain")

    oracle = ConditionalExpectationOracle(chain, kernel, r)
    H = oracle.table
    n_tuples = math.comb(T, r)

    if r == 2:
        u_parts, s1_parts, s2_parts, theta_parts = [], [], [], []
        b_dot = np.zeros(T)  # aggregated last-order terms, indexed by t1
        b_max = 0.0
        for g in range(1, T):
            a = states[: T - g]
            b = states[g:]
            h_vals = H[a, b]
            hat1 = oracle.given_all_but_last((g,))[a]
            theta_g = oracle.tuple_mean((g,))
            u_parts.append(float(h_vals.sum()))
            first_terms = h_vals - hat1
            s1_parts.append(float(first_terms.sum()))
            b_max = max(b_max, float(np.max(np.abs(first_terms))))
            last_terms = (hat1 - theta_g) / T
            s2_parts.append(float(last_terms.sum()))
            b_dot[: T - g] += last_terms
            theta_parts.append((T - g) * theta_g)
        b_max = max(b_max, float(np.max(np.abs(b_dot[: T - 1]))))
        u_value = math.fsum(u_parts) / n_tuples
        s1 = math.fsum(s1_parts) / n_tuples
        s2 = T * math.fsum(s2_parts) / n_tuples
        expectation = math.fsum(theta_parts) / n_tuples
        s_terms = [s1, s2]
    else:
        u_parts, s1_parts, s2_parts, s3_parts, theta_parts = [], [], [], [], []
        b_mid = np.zeros((T, T))  # aggregated middle terms, indexed by (t1, t2)
        b_dot = np.zeros(T)
        b_max = 0.0
        for g1 in range(1, T - 1):
            for g2 in range(1, T - g1):
                idx = np.arange(T - g1 - g2)
                a = states[idx]
                b = states[idx + g1]
                c = states[idx + g1 + g2]
                h_vals = H[a, b, c]
                hat2 = oracle.given_all_but_last((g1, g2))[a, b]
                hat1 = oracle.given_first((g1, g2))[a]
                theta_g = oracle.tuple_mean((g1, g2))
                u_parts.append(float(h_vals.sum()))
                first_terms = h_vals - hat2
                s1_parts.append(float(first_terms.sum()))
                b_max = max(b_max, float(np.max(np.abs(first_terms))))
                mid_terms = (hat2 - hat1) / T
                s2_parts.append(float(mid_terms.sum()))
                b_mid[idx, idx + g1] += mid_terms
                last_terms = (hat1 - theta_g) / (T * T)
                s3_parts.append(float(last_terms.sum()))
                b_dot[idx] += last_terms
                theta_parts.append((T - g1 - g2) * theta_g)
        b_max = max(b_max, float(np.max(np.abs(b_mid))), float(np.max(np.abs(b_dot))))
        u_value = math.fsum(u_parts) / n_tuples
        s1 = math.fsum(s1_parts) / n_tuples
        s2 = T * math.fsum(s2_parts) / n_tuples
        s3 = T * T * math.fsum(s3_parts) / n_tuples
        expectation = math.fsum(theta_parts) / n_tuples
        s_terms = [s1, s2, s3]

    residual = u_value - expectation - math.fsum(s_terms)
    return DecompositionReport(
        order=r,
        length=T,
        s_terms=s_terms,
        u_value=u_value,
        theta_star=expectation,
        residual=residual,
        b_term_max_abs=b_max,
        kernel_bound=oracle.bound,
    )


def check_zero_conditional_means(chain: FiniteMarkovChain,
                                 kernel: KernelSpec | np.ndarray,
                                 T: int, r: int) -> float:
    """Largest absolute conditional mean of any aggregated term, enumerated exactly.

    Conditional on its history prefix every aggregated term integrates to zero
    against the next-state distribution; this verifies that over all gap
    configurations and all conditioning states, returning the worst deviation.
    """
    if r not in (2, 3):
        raise ValueError("supported orders are 2 and 3")
    oracle = ConditionalExpectationOracle(chain, kernel, r)
    H = oracle.table
    pi = chain.stationary
    worst = 0.0

    if r == 2:
        for g in range(1, T):
            hat1 = oracle.given_all_but_last((g,))
            # first-order terms against the conditional law of the last argument
            dev = np.abs((chain.power(g) * H).sum(axis=1) - hat1)
            worst = max(worst, float(dev.max()))
        for t1 in range(T - 1):
            total = 0.0
            for g in range(1, T - t1):
                total += (float(pi @ oracle.given_all_but_last((g,))) -
                          oracle.tuple_mean((g,))) / T
            worst = max(worst, abs(total))
        return worst

    for g2 in range(1, T - 1):
        hat2 = oracle.given_all_but_last((1, g2))
        dev = np.abs(np.einsum("yz,xyz->xy", chain.power(g2), H) - hat2)
        worst = max(worst, float(dev.max()))
    # middle terms against the conditional law of the second argument: the
    # per-(t1, t2) aggregate is a cumulative sum over the last gap
    s = chain.state_count
    mid_diff = np.zeros((T, T, s))  # [g1, g2] -> vector over first states
    dot_diff = np.zeros((T, T))
    for g1 in range(1, T - 1):
        Pg1 = chain.power(g1)
        for g2 in range(1, T - g1):
            hat2 = oracle.given_all_but_last((g1, g2))
            hat1 = oracle.given_first((g1, g2))
            mid_diff[g1, g2] = np.einsum("xy,xy->x", Pg1, hat2) - hat1
            dot_diff[g1, g2] = float(pi @ hat1) - oracle.tuple_mean((g1, g2))
    mid_cum = np.cumsum(mid_diff, axis=1) / T
    dot_cum = np.cumsum(dot_diff, axis=1) / (T * T)
    for t1 in range(T - 2):
        for t2 in range(t1 + 1, T - 1):
            g1 = t2 - t1
            worst = max(worst, float(np.max(np.abs(mid_cum[g1, T - 1 - t2]))))
    for t1 in range(T - 2):
        total = math.fsum(dot_cum[g1, T - 1 - t1 - g1] for g1 in range(1, T - 1 - t1))
        worst = max(worst, abs(total))
    return worst
