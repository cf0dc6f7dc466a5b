"""Rank-correlation matrix estimators for p-dimensional series.

Pairwise Kendall entries share one rank transform per coordinate and run
through the batched inversion counter, so the p(p-1)/2 upper triangle fills
in a handful of vectorized passes. Spearman entries come from exact integer
rank Gram sums. ``scaling_experiment`` measures how the worst entrywise
deviation from a population matrix scales against sqrt(log(Tp)/T) over a
(T, p) grid.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .processes import ProcessSpec, _rep_rng, correlation_factor, generate_batch
from .ustat import _count_inversions_batch, _has_ties, kendall_tau_numerator

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

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass
class PopulationMatrix:
    kind: str
    matrix: np.ndarray
    provenance: str
    standard_error: np.ndarray | None = None
    oracle_draws: int | None = None

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def matrix_to_csv(matrix: np.ndarray, fh) -> None:
    """Dense CSV with 17 significant digits per entry."""
    for row in np.asarray(matrix, dtype=float):
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def matrix_to_json(est: CorrelationMatrixEstimate | PopulationMatrix) -> str:
    payload = {"kind": est.kind, "matrix": est.matrix.tolist()}
    if isinstance(est, CorrelationMatrixEstimate):
        payload["sample_length"] = est.sample_length
    else:
        payload["provenance"] = est.provenance
        payload["oracle_draws"] = est.oracle_draws
        if est.standard_error is not None:
            payload["standard_error"] = est.standard_error.tolist()
    return json.dumps(payload, sort_keys=True)


def _column_ranks(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column stable orderings and 0-based ranks."""
    order = np.argsort(data, axis=0, kind="stable")
    ranks = np.empty(data.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(data.shape[0])[:, None], axis=0)
    return order, ranks


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
    tied = np.array([_has_ties(data[:, j]) for j in range(p)])
    order, ranks = _column_ranks(data)
    js, ks = np.triu_indices(p, k=1)
    clean = ~(tied[js] | tied[ks])
    denom = math.comb(T, 2)
    M = np.eye(p)
    cj, ck = js[clean], ks[clean]
    for start in range(0, cj.size, pair_chunk):
        j, k = cj[start:start + pair_chunk], ck[start:start + pair_chunk]
        inv = _count_inversions_batch(ranks[order[:, j], k].T)
        M[j, k] = M[k, j] = (denom - 2 * inv) / denom
    for j, k in zip(js[~clean], ks[~clean]):
        M[j, k] = M[k, j] = kendall_tau_numerator(data[:, j], data[:, k]) / denom
    return CorrelationMatrixEstimate(kind="kendall", matrix=M, sample_length=T)


def spearman_matrix(data) -> CorrelationMatrixEstimate:
    """Pairwise Spearman's rho matrix from exact integer rank sums (no ties)."""
    data = _validate_matrix_input(data)
    T, p = data.shape
    for j in range(p):
        if _has_ties(data[:, j]):
            raise ValueError(f"coordinate {j} has ties; Spearman entries are undefined")
    _, ranks0 = _column_ranks(data)
    ranks = ranks0 + 1  # 1..T
    gram = ranks.T @ ranks
    sum_sq = T * (T + 1) * (2 * T + 1) // 6
    d2 = 2 * (sum_sq - gram)  # sum of squared rank differences per pair
    M = 1.0 - 6.0 * d2 / (T * (T * T - 1))
    np.fill_diagonal(M, 1.0)
    return CorrelationMatrixEstimate(kind="spearman", matrix=M, sample_length=T)


def independent_population(p: int, kind: str) -> PopulationMatrix:
    """Exact population matrix when all coordinates are independent."""
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind '{kind}'")
    return PopulationMatrix(kind=kind, matrix=np.eye(p),
                            provenance="exact: independent coordinates")


def population_matrix_oracle(spec: ProcessSpec, kind: str, oracle_draws: int,
                             batches: int = 10) -> PopulationMatrix:
    """Population matrix under temporal independence, by iid simulation.

    Draws ``oracle_draws`` independent vectors from the stationary
    cross-sectional marginal of the process, applies the estimator, and
    reports a per-entry Monte Carlo standard error from batch splits.
    """
    if spec.kind != "gaussian_copula_vector":
        raise ValueError("the iid oracle needs a samplable cross-sectional marginal")
    if oracle_draws < 10_000:
        raise ValueError("population oracle needs at least 10^4 draws")
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind '{kind}'")
    p = spec.dimension
    L = correlation_factor(spec.cross_correlation)
    rng = _rep_rng(spec.seed, 0)
    estimate = np.zeros((p, p))
    batch_mats = []
    per_batch = oracle_draws // batches
    fn = kendall_matrix if kind == "kendall" else spearman_matrix
    for _ in range(batches):
        draws = ndtr(rng.standard_normal((per_batch, p)) @ L.T)
        batch_mats.append(fn(draws).matrix)
    stacked = np.stack(batch_mats)
    estimate = stacked.mean(axis=0)
    np.fill_diagonal(estimate, 1.0)
    se = stacked.std(axis=0, ddof=1) / math.sqrt(batches)
    return PopulationMatrix(
        kind=kind, matrix=estimate,
        provenance=f"iid draws from the stationary cross-sectional marginal "
                   f"({batches} x {per_batch} draws)",
        standard_error=se, oracle_draws=per_batch * batches,
    )


def max_norm_deviation(estimate: CorrelationMatrixEstimate,
                       population: PopulationMatrix) -> float:
    """Largest absolute off-diagonal entrywise difference."""
    if estimate.kind != population.kind:
        raise ValueError("estimator kinds differ")
    if estimate.matrix.shape != population.matrix.shape:
        raise ValueError("matrix shapes differ")
    diff = np.abs(estimate.matrix - population.matrix)
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "cells": [vars(c) for c in self.cells],
                "slopes_by_p": {str(k): v for k, v in self.slopes_by_p.items()},
            },
            sort_keys=True,
        )


def scaling_experiment(base_spec: ProcessSpec, t_grid, p_grid, replications: int,
                       kind: str = "kendall", rep_chunk: int = 8) -> ScalingReport:
    """Distribution of max-norm deviations over a (T, p) grid.

    The population matrix is the exact identity (the base spec must have an
    identity cross-sectional correlation, making coordinates independent).
    Replication seeds are keyed by (seed, p-index * 10^6 + replication), so
    cells at the same p reuse nothing across T.
    """
    if not t_grid or not p_grid:
        raise ValueError("grids must be non-empty")
    if replications < 1:
        raise ValueError("need at least one replication")
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind '{kind}'")
    if base_spec.kind != "gaussian_copula_vector":
        raise ValueError("scaling experiments use the Gaussian-copula vector process")
    estimator = kendall_matrix if kind == "kendall" else spearman_matrix

    cells = []
    medians: dict[int, list[tuple[int, float]]] = {int(p): [] for p in p_grid}
    for pi, p in enumerate(p_grid):
        p = int(p)
        spec_p = replace(base_spec, dimension=p, cross_correlation=np.eye(p))
        pop = independent_population(p, kind)
        for T in t_grid:
            T = int(T)
            devs = np.empty(replications)
            done = 0
            while done < replications:
                n = min(rep_chunk, replications - done)
                batch = generate_batch(spec_p, T, n, rep_offset=pi * 1_000_000 + done)
                for i in range(n):
                    est = estimator(batch[i])
                    devs[done + i] = max_norm_deviation(est, pop)
                done += n
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
