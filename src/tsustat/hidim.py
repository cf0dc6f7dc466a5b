"""Rank-correlation matrix estimators for p-dimensional series.

Both estimators read one rank transform per coordinate, ``ustat._ranks``.
Pairwise Kendall entries run through the batched inversion counter, so the
p(p-1)/2 upper triangle fills in a handful of vectorized passes; Spearman
entries come from exact integer rank Gram sums. In both, pairs with a tie or
a near tie take the batched ``ustat._tie_exact_counts``, under sign(0) = 0.
Under a Gaussian copula the population matrices are exact functions of the
correlation matrix R: (2/pi) arcsin R for Kendall and (6/pi) arcsin(R/2) for
Spearman.
``scaling_experiment`` measures how the worst entrywise deviation from the
population matrix scales against sqrt(log(Tp)/T) over a (T, p) grid. It
estimates on the copula's latent Gaussian paths: the marginal CDF is
strictly increasing, so the ranks, and every entry, are those of the
uniform-marginal paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .processes import ProcessSpec, block_replications, latent_batch, map_replication_blocks
from .ustat import _count_inversions_batch, _ranks, _tie_exact_counts

ESTIMATOR_KINDS = ("kendall", "spearman")


@dataclass
class CorrelationMatrixEstimate:
    kind: str
    matrix: np.ndarray
    sample_length: int

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind '{self.kind}'")
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
    read in j order, a permutation of 0..T-1, gathered on the narrowest
    unsigned dtype; ``_tie_exact_pairs`` then recounts the pairs touching a
    column with a tie or a near tie."""
    data = _validate_matrix_input(data)
    T, p = data.shape
    order, ranks, near = _ranks(data.T)
    ranks = ranks.astype(np.min_scalar_type(T - 1))
    js, ks = np.triu_indices(p, k=1)
    denom = math.comb(T, 2)
    M = np.eye(p)
    chunk = block_replications(T)
    for start in range(0, js.size, chunk):
        j, k = js[start:start + chunk], ks[start:start + chunk]
        K = denom - 2 * _count_inversions_batch(ranks[k[:, None], order[j]])
        M[j, k] = M[k, j] = K / denom
    _tie_exact_pairs(data, near, M, lambda K, W: K / denom)
    return CorrelationMatrixEstimate(kind="kendall", matrix=M, sample_length=T)


def spearman_matrix(data) -> CorrelationMatrixEstimate:
    """Pairwise Spearman's rho matrix, 1 - 6 d2 / (T(T^2-1)) per pair, d2 the
    squared rank differences from the exact integer rank Gram; on the pairs
    ``_tie_exact_pairs`` takes, d2 = (T(T^2-1) - 3(W + 2K)) / 6, Hoeffding's
    identity under sign(0) = 0 (the exact d2 without a tie). The diagonal is 1."""
    data = _validate_matrix_input(data)
    T, p = data.shape
    _, ranks, near = _ranks(data.T)
    n = T * (T * T - 1)
    d2 = 2.0 * ((T - 1) * T * (2 * T - 1) // 6 - ranks @ ranks.T)  # 0-based rank Gram
    _tie_exact_pairs(data, near, d2, lambda K, W: (n - 3 * (W + 2 * K)) / 6)
    M = 1.0 - 6.0 * d2 / n
    np.fill_diagonal(M, 1.0)
    return CorrelationMatrixEstimate(kind="spearman", matrix=M, sample_length=T)


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


@dataclass
class ScalingCell:
    T: int
    p: int
    replications: int
    median_deviation: float
    q25: float
    q75: float
    ratio_to_rate: float  # median / sqrt(log(Tp) / T)
    slope_defined: bool = True


@dataclass
class ScalingReport:
    kind: str
    cells: list[ScalingCell]
    slopes_by_p: dict[int, float | None]

    def data_dict(self) -> dict:
        return {"experiment": "scaling",
                "report": {"kind": self.kind, "cells": [vars(c) for c in self.cells],
                           "slopes_by_p": {str(k): v for k, v in self.slopes_by_p.items()}}}

    def csv_tables(self) -> dict[str, tuple[list[str], list]]:
        return {"scaling.csv": (["T", "p", "median_dev", "ratio_to_rate"],
                                [(c.T, c.p, c.median_deviation, c.ratio_to_rate)
                                 for c in self.cells])}


def _deviations_block(args, start: int, count: int) -> np.ndarray:
    """Max-norm deviation per T of the grid and replication in
    [start, start + count) of one p, as a (len(t_grid), count) array; each
    path is drawn once, at the largest T, and every T reads its prefix.

    The estimators and ``max_norm_deviation`` are looked up at call time,
    so the wrappers perfbench/spans.py installs on this module are seen.
    """
    spec_p, t_grid, rep_base, kind = args
    pop = population_matrix(spec_p.cross_correlation, kind)
    estimator = kendall_matrix if kind == "kendall" else spearman_matrix
    batch = latent_batch(spec_p, max(t_grid), count, rep_offset=rep_base + start)
    return np.array([[max_norm_deviation(estimator(path[:T]), pop) for path in batch]
                     for T in t_grid])


def check_scaling_inputs(spec: ProcessSpec, t_grid, p_grid, replications: int,
                         kind: str) -> None:
    """Raise ValueError, naming the config field, unless ``scaling_experiment``
    can run these inputs."""
    if spec.kind != "gaussian_copula_vector":
        raise ValueError("scaling experiments use the Gaussian-copula vector process")
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"estimator must be one of {ESTIMATOR_KINDS}")
    # the coordinates are drawn independent at every p
    if not spec.identity_correlation:
        raise ValueError("scaling needs an identity cross_correlation")
    # rank-correlation matrices need three observations and two coordinates
    if not t_grid or not p_grid or min(t_grid) < 3 or min(p_grid) < 2:
        raise ValueError("scaling needs t_grid values >= 3 and p_grid values >= 2")
    if replications < 1:
        raise ValueError("scaling needs replications >= 1")


def scaling_experiment(base_spec: ProcessSpec, t_grid, p_grid, replications: int,
                       kind: str = "kendall", threads: int = 1) -> ScalingReport:
    """Distribution of max-norm deviations over a (T, p) grid.

    The base spec must have an identity cross-sectional correlation, so the
    coordinates are independent and ``population_matrix`` is the identity.
    The estimators read ``latent_batch`` paths, whose ranks are those of
    ``generate_batch``'s uniform paths. Replication seeds are keyed by
    (seed, p-index * 10^6 + replication), so the cells at one p share their
    paths: each is drawn once, at the largest T, and every T of the grid
    reads its prefix. Each p is one job of one ``map_replication_blocks``
    call over ``threads`` workers.
    """
    check_scaling_inputs(base_spec, t_grid, p_grid, replications, kind)
    t_grid = [int(T) for T in t_grid]
    jobs = [(replace(base_spec, dimension=int(p), cross_correlation=np.eye(int(p))),
             t_grid, pi * 1_000_000, kind) for pi, p in enumerate(p_grid)]
    dev_blocks = map_replication_blocks(_deviations_block, jobs, replications,
                                        [max(t_grid) * int(p) for p in p_grid], threads=threads)
    cells = []
    medians: dict[int, list[tuple[int, float]]] = {int(p): [] for p in p_grid}
    for (spec_p, *_), blocks in zip(jobs, dev_blocks):
        p = spec_p.dimension
        for i, T in enumerate(t_grid):
            devs = np.concatenate([block[i] for block in blocks])
            med = float(np.median(devs))
            rate = math.sqrt(math.log(T * p) / T)
            cells.append(ScalingCell(
                T=T, p=p, replications=replications,
                median_deviation=med,
                q25=float(np.quantile(devs, 0.25)),
                q75=float(np.quantile(devs, 0.75)),
                ratio_to_rate=med / rate,
                slope_defined=replications > 1 and len(t_grid) > 1,
            ))
            medians[p].append((T, med))

    slopes: dict[int, float | None] = {}
    for p, pairs in medians.items():
        usable = [(T, m) for T, m in pairs if m > 0]
        if len(usable) >= 2 and replications > 1:
            logT = np.log([T for T, _ in usable])
            logm = np.log([m for _, m in usable])
            slopes[p] = float(np.polyfit(logT, logm, 1)[0])
        else:
            slopes[p] = None
    return ScalingReport(kind=kind, cells=cells, slopes_by_p=slopes)
