"""Rank-correlation matrix estimators for p-dimensional series.

Both estimators read one rank transform per coordinate, ``ustat._ranks``.
Pairwise Kendall entries run through the batched inversion counter, so the
p(p-1)/2 upper triangle fills in a handful of vectorized passes; Spearman
entries come from exact integer rank Gram sums. In both, pairs with a tie or
a near tie take the batched ``ustat._tie_exact_counts``, under sign(0) = 0.
Under a Gaussian copula the population matrices are exact functions of the
correlation matrix R: (2/pi) arcsin R for Kendall and (6/pi) arcsin(R/2) for
Spearman.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .processes import block_replications
from .ustat import _count_inversions_batch, _ranks, _tie_exact_counts

ESTIMATOR_KINDS = ("kendall", "spearman")


@dataclass
class CorrelationMatrixEstimate:
    """A checked rank-correlation matrix: square, symmetric within 1e-12, a
    unit diagonal and entries in [-1, 1]."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("correlation matrix must be square")
        if np.max(np.abs(M - M.T)) > 1e-12:
            raise ValueError("correlation matrix must be symmetric within 1e-12")
        if np.max(np.abs(np.diag(M) - 1.0)) != 0.0:
            raise ValueError("correlation matrix diagonal must be exactly 1")
        if np.max(np.abs(M)) > 1.0 + 1e-12:
            raise ValueError("correlation entries must lie in [-1, 1]")
        self.matrix = M


def _validate_matrix_input(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("matrix estimators need a (T x p) array")
    T, p = data.shape
    if T < 3 or p < 2:
        raise ValueError("matrix estimators need T >= 3 and p >= 2")
    if np.any(data.max(axis=0) == data.min(axis=0)):
        raise ValueError("a coordinate is constant; rank correlations are undefined")
    return data


def _tie_exact_pairs(data: np.ndarray, near: np.ndarray, out: np.ndarray, entry) -> None:
    """Set out[j, k] = out[k, j] = entry(K, W) from ``_tie_exact_counts`` on
    each pair j < k touching a column ``near`` flags (only there can key-sort
    ranks be off), in blocks of ``block_replications(T)`` pairs."""
    js, ks = np.triu_indices(data.shape[1], k=1)
    tie = near[js] | near[ks]
    js, ks = js[tie], ks[tie]
    chunk = block_replications(data.shape[0])
    for start in range(0, js.size, chunk):
        j, k = js[start:start + chunk], ks[start:start + chunk]
        out[j, k] = out[k, j] = entry(*_tie_exact_counts(data.T[j], data.T[k]))


def kendall_matrix(data) -> CorrelationMatrixEstimate:
    """Pairwise Kendall's tau matrix of a (T x p) sample, in blocks of
    ``block_replications(T)`` pairs. A pair (j, k) is counted on the k-ranks
    read in j order, a permutation of 0..T-1, on the narrowest unsigned
    dtype. The pairs (j, j+1..p-1) of one column j are one run of the upper
    triangle, so a block's rows are filled one run at a time, by one
    ``np.take`` of those columns' ranks in j order, cut where the block
    ends. ``_tie_exact_pairs`` then recounts the pairs touching a column
    with a tie or a near tie."""
    data = _validate_matrix_input(data)
    T, p = data.shape
    order, ranks, near = _ranks(data.T)
    ranks = ranks.astype(np.min_scalar_type(T - 1))
    js, ks = np.triu_indices(p, k=1)
    denom = math.comb(T, 2)
    M = np.eye(p)
    chunk = block_replications(T)
    rows = np.empty((min(chunk, js.size), T), dtype=ranks.dtype)
    for start in range(0, js.size, chunk):
        j, k = js[start:start + chunk], ks[start:start + chunk]
        runs = np.flatnonzero(np.diff(j, prepend=-1)).tolist() + [j.size]
        for a, b in zip(runs[:-1], runs[1:]):
            np.take(ranks[k[a]:k[a] + b - a], order[j[a]], axis=1, out=rows[a:b])
        K = denom - 2 * _count_inversions_batch(rows[:j.size])
        M[j, k] = M[k, j] = K / denom
    _tie_exact_pairs(data, near, M, lambda K, W: K / denom)
    return CorrelationMatrixEstimate(M)


def spearman_matrix(data) -> CorrelationMatrixEstimate:
    """Pairwise Spearman's rho matrix, 1 - 6 d2 / (T(T^2-1)) per pair, d2 the
    squared rank differences from the exact integer rank Gram; on the pairs
    ``_tie_exact_pairs`` takes, d2 = (T(T^2-1) - 3(W + 2K)) / 6, Hoeffding's
    identity under sign(0) = 0 (the exact d2 without a tie). The diagonal is 1.

    The Gram adds, as Python ints, int64 products over time chunks short
    enough not to wrap (one chunk below T = 3,024,618, where the sum of the
    squared 0-based ranks passes int64)."""
    data = _validate_matrix_input(data)
    T, p = data.shape
    _, ranks, near = _ranks(data.T)
    n = T * (T * T - 1)
    chunk = np.iinfo(np.int64).max // (T - 1) ** 2
    gram = sum((ranks[:, s:s + chunk] @ ranks[:, s:s + chunk].T).astype(object)
               for s in range(0, T, chunk))
    d2 = 2.0 * ((T - 1) * T * (2 * T - 1) // 6 - gram).astype(float)
    _tie_exact_pairs(data, near, d2, lambda K, W: (n - 3 * (W + 2 * K)) / 6)
    M = 1.0 - 6.0 * d2 / n
    np.fill_diagonal(M, 1.0)
    return CorrelationMatrixEstimate(M)


def population_matrix(R, kind: str) -> np.ndarray:
    """Exact population matrix of a Gaussian copula with correlation matrix R.

    Kendall's tau is (2/pi) arcsin(rho) (Kruskal 1958) and Spearman's rho is
    (6/pi) arcsin(rho/2), entrywise: both are arcsin(s rho) / arcsin(s), with
    s = 1 and 1/2, a form that maps rho = +-1 to exactly +-1.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind '{kind}'")
    s = 1.0 if kind == "kendall" else 0.5
    M = np.arcsin(s * np.asarray(R, dtype=float)) / math.asin(s)
    np.fill_diagonal(M, 1.0)
    return M


def max_norm_deviation(estimate: CorrelationMatrixEstimate, population: np.ndarray) -> float:
    """Largest absolute off-diagonal entrywise difference."""
    if estimate.matrix.shape != np.shape(population):
        raise ValueError("matrix shapes differ")
    diff = np.abs(estimate.matrix - population)
    np.fill_diagonal(diff, 0.0)
    return float(diff.max())
