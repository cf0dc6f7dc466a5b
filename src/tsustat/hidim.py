"""Rank-correlation matrix estimators for p-dimensional series.

Both estimators read one rank transform per coordinate, ``ustat._ranks``.
Pairwise Kendall entries run through the batched inversion counter, so the
p(p-1)/2 upper triangle fills in a handful of vectorized passes; Spearman
entries come from exact integer rank Gram sums. Under a Gaussian copula the
population matrices are exact functions of the correlation matrix R:
(2/pi) arcsin R for Kendall and (6/pi) arcsin(R/2) for Spearman.
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

from .processes import ProcessSpec, latent_batch, map_replication_blocks
from .ustat import _count_inversions_batch, _ranks, kendall_tau_numerator

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


def kendall_matrix(data, pair_chunk: int = 1024) -> CorrelationMatrixEstimate:
    """Pairwise Kendall's tau matrix of a (T x p) sample. A tie-free pair (j, k)
    is counted on the k-ranks read in j order, a permutation of 0..T-1."""
    data = _validate_matrix_input(data)
    T, p = data.shape
    order, ranks, tied = _ranks(data.T)
    js, ks = np.triu_indices(p, k=1)
    clean = ~(tied[js] | tied[ks])
    denom = math.comb(T, 2)
    M = np.eye(p)
    cj, ck = js[clean], ks[clean]
    for start in range(0, cj.size, pair_chunk):
        j, k = cj[start:start + pair_chunk], ck[start:start + pair_chunk]
        inv = _count_inversions_batch(ranks[k[:, None], order[j]])
        M[j, k] = M[k, j] = (denom - 2 * inv) / denom
    for j, k in zip(js[~clean], ks[~clean]):
        M[j, k] = M[k, j] = kendall_tau_numerator(data[:, j], data[:, k]) / denom
    return CorrelationMatrixEstimate(kind="kendall", matrix=M, sample_length=T)


def spearman_matrix(data) -> CorrelationMatrixEstimate:
    """Pairwise Spearman's rho matrix from exact integer rank sums (no ties)."""
    data = _validate_matrix_input(data)
    T, p = data.shape
    _, ranks0, tied = _ranks(data.T)
    if tied.any():
        raise ValueError(f"coordinate {np.argmax(tied)} has ties; Spearman entries are undefined")
    ranks = ranks0 + 1  # 1..T
    gram = ranks @ ranks.T
    sum_sq = T * (T + 1) * (2 * T + 1) // 6
    d2 = 2 * (sum_sq - gram)  # sum of squared rank differences per pair
    M = 1.0 - 6.0 * d2 / (T * (T * T - 1))
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

    def csv_files(self) -> dict[str, str]:
        lines = ["T,p,median_dev,ratio_to_rate"]
        for c in self.cells:
            lines.append(f"{c.T},{c.p},{c.median_deviation:.17g},{c.ratio_to_rate:.17g}")
        return {"scaling.csv": "\n".join(lines) + "\n"}


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
    if not t_grid or not p_grid:
        raise ValueError("grids must be non-empty")
    if replications < 1:
        raise ValueError("need at least one replication")
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind '{kind}'")
    if base_spec.kind != "gaussian_copula_vector":
        raise ValueError("scaling experiments use the Gaussian-copula vector process")
    if not base_spec.identity_correlation:
        raise ValueError("scaling experiments need an identity cross_correlation")

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
