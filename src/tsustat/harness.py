"""Experiment engine: seeded Monte Carlo runs driven by JSON configs.

Configs are versioned and fail closed: unknown fields anywhere in the file
are rejected. Replications are split into fixed-size blocks; each replication
draws from its own counter-based stream keyed by (seed, replication index),
and blocks are reduced in index order, so results are identical for any
worker count.

Outputs: ``config.json`` (exact input snapshot), ``result.json`` with a
``data`` block (byte-stable across reruns) and a ``meta`` block (wall clock),
plus plot-ready CSV files per experiment.
"""
from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from .bounds import (BernsteinParams, BoundConstants, CalibrationResult, TailPoint,
                     bernstein_envelope, calibrate_constants, combine_bernstein_params,
                     empirical_log_mgf, ustat_tail_bound, bias_offset)
from .hidim import ScalingReport, scaling_experiment
from .kernels import (KernelSpec, load_table_kernel, mean_kernel, sign_product_kernel,
                      spearman_symmetric_kernel, table_kernel)
from .mixing import MixingProfile, conditional_phi_coeff, mixing_profile
from .processes import (FiniteMarkovChain, ProcessSpec, _rep_rng, correlation_factor,
                        generate_batch)
from .ustat import (check_zero_conditional_means, decompose, kendall_tau_batch,
                    spearman_rho3_batch, theta_independent)

SCHEMA_VERSION = 1
DEFAULT_BUDGET = 1e12
DEFAULT_BLOCK = 2048

EXPERIMENTS = ("simulate", "tail", "scaling", "bias-curve", "decompose-check",
               "mixing-profile", "mgf-check")


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 2)."""


class BudgetError(RuntimeError):
    """Estimated work exceeds the configured budget (CLI exit code 3)."""


class CheckFailure(RuntimeError):
    """A property check did not hold (CLI exit code 4)."""


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing fields in {where}: {sorted(missing)}")


def parse_process(d: dict, seed: int) -> ProcessSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("process must be an object with a 'kind'")
    kind = d["kind"]
    try:
        if kind == "iid":
            _require_keys(d, {"kind"}, {"kind"}, "process")
            return ProcessSpec(kind="iid", seed=seed)
        if kind == "ar1":
            _require_keys(d, {"kind", "coefficient"}, {"kind", "coefficient"}, "process")
            return ProcessSpec(kind="ar1", seed=seed, ar_coefficient=float(d["coefficient"]))
        if kind == "m_dependent":
            _require_keys(d, {"kind", "window"}, {"kind", "window"}, "process")
            return ProcessSpec(kind="m_dependent", seed=seed, window=int(d["window"]))
        if kind == "markov_chain":
            _require_keys(d, {"kind", "transition", "state_values"}, {"kind", "transition"},
                          "process")
            chain = FiniteMarkovChain(np.asarray(d["transition"], dtype=float),
                                      state_values=d.get("state_values"))
            return ProcessSpec(kind="markov_chain", seed=seed, chain=chain)
        if kind == "gaussian_copula_vector":
            _require_keys(d, {"kind", "dimension", "temporal_coefficient", "cross_correlation"},
                          {"kind", "dimension", "temporal_coefficient"}, "process")
            p = int(d["dimension"])
            R = _parse_correlation(d.get("cross_correlation", {"kind": "identity"}), p)
            return ProcessSpec(kind="gaussian_copula_vector", seed=seed, dimension=p,
                               temporal_coefficient=float(d["temporal_coefficient"]),
                               cross_correlation=R)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown process kind '{kind}'")


def _parse_correlation(d: dict, p: int) -> np.ndarray:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("cross_correlation must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "identity":
        _require_keys(d, {"kind"}, {"kind"}, "cross_correlation")
        return np.eye(p)
    if kind == "equicorrelation":
        _require_keys(d, {"kind", "rho"}, {"kind", "rho"}, "cross_correlation")
        rho = float(d["rho"])
        return np.full((p, p), rho) + (1.0 - rho) * np.eye(p)
    if kind == "explicit":
        _require_keys(d, {"kind", "matrix"}, {"kind", "matrix"}, "cross_correlation")
        return np.asarray(d["matrix"], dtype=float)
    raise ConfigError(f"unknown cross_correlation kind '{kind}'")


def parse_kernel(d: dict) -> KernelSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("kernel must be an object with a 'kind'")
    kind = d["kind"]
    try:
        if kind == "sign_product":
            _require_keys(d, {"kind"}, {"kind"}, "kernel")
            return sign_product_kernel()
        if kind == "spearman_sym":
            _require_keys(d, {"kind"}, {"kind"}, "kernel")
            return spearman_symmetric_kernel()
        if kind == "mean":
            _require_keys(d, {"kind", "bound"}, {"kind"}, "kernel")
            return mean_kernel(bound=float(d.get("bound", 1.0)))
        if kind == "table":
            _require_keys(d, {"kind", "entries", "path", "order", "state_count"},
                          {"kind", "order", "state_count"}, "kernel")
            order = int(d["order"])
            s = int(d["state_count"])
            if "path" in d:
                return load_table_kernel(d["path"], order=order, state_count=s)
            if "entries" not in d:
                raise ConfigError("table kernel needs 'entries' or 'path'")
            entries = {tuple(int(i) for i in key): float(v) for key, v in d["entries"]}
            return table_kernel(entries, order=order, state_count=s)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown kernel kind '{kind}'")


_COMMON_KEYS = {"schema_version", "experiment", "seed", "out_dir", "budget", "threads"}
_EXPERIMENT_KEYS: dict[str, tuple[set[str], set[str]]] = {
    # experiment -> (extra allowed keys, extra required keys)
    "simulate": ({"process", "length"}, {"process", "length"}),
    "tail": ({"process", "kernel", "t_grid", "x_grid", "replications", "constants",
              "theta"}, {"process", "kernel", "t_grid", "x_grid", "replications"}),
    "scaling": ({"process", "t_grid", "p_grid", "replications", "estimator"},
                {"process", "t_grid", "p_grid", "replications"}),
    "bias-curve": ({"process", "kernel", "t_grid", "order"},
                   {"process", "kernel", "t_grid", "order"}),
    "decompose-check": ({"process", "kernel", "t_grid", "order", "replications"},
                        {"process", "kernel", "t_grid", "order", "replications"}),
    "mixing-profile": ({"process", "lags", "conditional"}, {"process", "lags"}),
    "mgf-check": ({"summands", "distribution", "scale", "summand_sigma", "summand_kappa",
                   "eta_points", "eta_max", "samples"},
                  {"summands", "distribution", "eta_points", "samples"}),
}


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    raw: dict
    process: ProcessSpec | None = None
    kernel: KernelSpec | None = None
    constants: BoundConstants = field(default_factory=BoundConstants)
    t_grid: list[int] = field(default_factory=list)
    p_grid: list[int] = field(default_factory=list)
    x_grid: list[float] = field(default_factory=list)
    lags: list[int] = field(default_factory=list)
    replications: int = 0
    length: int = 0
    order: int = 2
    estimator: str = "kendall"
    theta_mode: str = "auto"
    theta_draws: int = 1_000_000
    budget: float = DEFAULT_BUDGET
    threads: int = 1
    out_dir: str | None = None
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
        experiment = raw.get("experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
        allowed, required = _EXPERIMENT_KEYS[experiment]
        _require_keys(raw, _COMMON_KEYS | allowed, {"experiment", "seed"} | required, "config")
        seed = raw["seed"]
        if not isinstance(seed, int):
            raise ConfigError("seed must be an integer (no entropy-sourced defaults)")

        cfg = cls(experiment=experiment, seed=seed, raw=raw)
        cfg.budget = float(raw.get("budget", DEFAULT_BUDGET))
        cfg.threads = int(raw.get("threads", 1))
        cfg.out_dir = raw.get("out_dir")
        if "process" in raw:
            cfg.process = parse_process(raw["process"], seed)
        if "kernel" in raw:
            cfg.kernel = parse_kernel(raw["kernel"])
        if "constants" in raw:
            try:
                base = BoundConstants().to_dict()
                base.update(raw["constants"])
                cfg.constants = BoundConstants.from_dict(base)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        for key, attr in (("t_grid", "t_grid"), ("p_grid", "p_grid"), ("lags", "lags")):
            if key in raw:
                vals = [int(v) for v in raw[key]]
                if not vals:
                    raise ConfigError(f"{key} must be non-empty")
                setattr(cfg, attr, vals)
        if "x_grid" in raw:
            cfg.x_grid = [float(v) for v in raw["x_grid"]]
            if not cfg.x_grid or any(v < 0 for v in cfg.x_grid):
                raise ConfigError("x_grid must be non-empty and non-negative")
        if "replications" in raw:
            cfg.replications = int(raw["replications"])
            if cfg.replications < 0:
                raise ConfigError("replications must be >= 0")
        if "length" in raw:
            cfg.length = int(raw["length"])
        if "order" in raw:
            cfg.order = int(raw["order"])
        if "estimator" in raw:
            cfg.estimator = str(raw["estimator"])
        if "theta" in raw:
            t = raw["theta"]
            _require_keys(t, {"mode", "draws"}, {"mode"}, "theta")
            cfg.theta_mode = t["mode"]
            if cfg.theta_mode not in ("auto", "mc", "exact-zero"):
                raise ConfigError("theta.mode must be auto, mc, or exact-zero")
            cfg.theta_draws = int(t.get("draws", cfg.theta_draws))
        for key in ("summands", "distribution", "scale", "summand_sigma", "summand_kappa",
                    "eta_points", "eta_max", "samples", "conditional"):
            if key in raw:
                cfg.extra[key] = raw[key]
        return cfg

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


# ---------------------------------------------------------------------------
# deterministic block-parallel mapping
# ---------------------------------------------------------------------------

def _run_block(payload):
    fn, args, start, count = payload
    return fn(args, start, count)


def map_replication_blocks(total: int, fn: Callable, args: tuple, threads: int = 1,
                           block: int = DEFAULT_BLOCK) -> list:
    """Apply fn(args, start, count) over fixed blocks of replication indices.

    Blocks are independent of the worker count and results are concatenated
    in block order, so the output is scheduler-independent.
    """
    payloads = [(fn, args, start, min(block, total - start))
                for start in range(0, total, block)]
    if threads <= 1 or len(payloads) <= 1:
        return [_run_block(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_run_block, payloads))


# ---------------------------------------------------------------------------
# tail experiment
# ---------------------------------------------------------------------------

def _kernel_desc(kernel: KernelSpec) -> dict:
    """Picklable description of a kernel, for process-pool workers."""
    return {"kind": kernel.kind, "order": kernel.order, "bound": kernel.bound,
            "table": kernel.table}


def _kernel_from_desc(desc: dict) -> KernelSpec:
    kind = desc["kind"]
    if kind == "sign_product":
        return sign_product_kernel()
    if kind == "spearman_sym":
        return spearman_symmetric_kernel()
    if kind == "mean":
        return mean_kernel(bound=desc["bound"])
    if kind == "table":
        return table_kernel(desc["table"])
    raise ConfigError(f"kernel kind '{kind}' cannot run in worker processes")


def _kernel_values(kernel: KernelSpec, samples: np.ndarray) -> np.ndarray:
    """Kernel values over (n, r, d) draws; a draw outside the kernel's bound
    is a configuration error, not a crash."""
    if kernel.sample_fn is None:
        raise ConfigError(f"kernel kind '{kernel.kind}' has no vectorized evaluator")
    try:
        return kernel.sample_fn(samples)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _u_values_block(args, start: int, count: int) -> np.ndarray:
    """U-statistic per replication for replications [start, start + count)."""
    spec, T, desc = args
    kernel = _kernel_from_desc(desc)
    batch = generate_batch(spec, T, count, rep_offset=start)
    if kernel.kind == "table":
        return np.array([_u_table_path(states, kernel.table) for states in batch])
    if kernel.kind == "mean":
        if batch.ndim != 3 or batch.shape[2] != 1:
            raise ConfigError("mean kernel needs a scalar process")
        return _kernel_values(kernel, batch.reshape(-1, 1, 1)).reshape(count, T).mean(axis=1)
    # sign_product or spearman_sym, the rank kernels _kernel_from_desc builds
    if batch.ndim != 3 or batch.shape[2] != 2:
        raise ConfigError(f"{kernel.kind} needs a bivariate process")
    rank_u = kendall_tau_batch if kernel.kind == "sign_product" else spearman_rho3_batch
    return rank_u(batch[:, :, 0], batch[:, :, 1])


def _path_cost(kernel: KernelSpec, T: int) -> float:
    """Work units of the evaluator ``_u_values_block`` runs on one length-T path."""
    if kernel.kind in ("sign_product", "spearman_sym"):
        return T * math.log2(max(T, 2))  # merge counting over ranks
    if kernel.kind == "mean":
        return float(T)
    if kernel.kind == "table":
        return float(T * kernel.table.shape[0] ** kernel.order)  # tuple counts
    return float(math.comb(T, kernel.order))  # generic enumeration


def _u_table_path(states: np.ndarray, H: np.ndarray) -> float:
    """U-statistic of a table kernel on a state path, from exact tuple counts.

    N[a, b(, c)] counts the increasing index tuples whose states are
    (a, b(, c)); one-hot prefix and suffix state counts give it in O(T S^r),
    and U = <N, H> / C(T, r).
    """
    T = states.shape[0]
    r = H.ndim
    if T < r:
        raise ValueError(f"path length {T} shorter than kernel order {r}")
    if r > 3:
        raise ValueError("table-path evaluation supports orders 1..3")
    onehot = np.zeros((T, H.shape[0]), dtype=np.int64)
    onehot[np.arange(T), states] = 1
    seen = np.cumsum(onehot, axis=0)
    if r == 1:
        N = seen[-1]
    elif r == 2:
        N = (seen - onehot).T @ onehot
    else:
        N = np.einsum("ta,tb,tc->abc", seen - onehot, onehot, seen[-1] - seen)
    return math.fsum((N * H).ravel()) / math.comb(T, r)


def _oracle_samples(cfg: ExperimentConfig) -> np.ndarray:
    """(draws, r, d) iid draws of r points from the stationary marginal."""
    spec, r = cfg.process, cfg.kernel.order
    draws = cfg.theta_draws
    rng = _rep_rng(cfg.seed, 2 ** 32)  # oracle stream, disjoint from replication streams
    if spec.kind == "gaussian_copula_vector":
        p = spec.dimension
        L = correlation_factor(spec.cross_correlation)
        return ndtr(rng.standard_normal((draws, r, p)) @ L.T)
    if spec.kind in ("iid", "ar1", "m_dependent"):
        samples = rng.standard_normal((draws, r, 1))
        if spec.kind == "ar1":
            samples = samples * math.sqrt(1.0 / (1.0 - spec.ar_coefficient ** 2))
        return samples
    raise ConfigError("no independent-sampling oracle for this process")


def _estimate_theta(cfg: ExperimentConfig) -> tuple[float, float, str]:
    """(theta, standard error, mode used) for the configured process/kernel."""
    spec, kernel = cfg.process, cfg.kernel
    if cfg.theta_mode == "exact-zero":
        return 0.0, 0.0, "exact-zero"
    if cfg.theta_mode == "auto":
        if spec.kind == "markov_chain" and kernel.kind == "table":
            return (theta_independent(spec.chain, kernel, kernel.order), 0.0, "exact-chain")
        if (spec.kind == "gaussian_copula_vector" and kernel.kind == "sign_product"
                and np.array_equal(spec.cross_correlation, np.eye(spec.dimension))):
            # independent continuous coordinates: the sign product integrates to zero
            return 0.0, 0.0, "exact-independent"
    # iid oracle on the stationary cross-sectional marginal
    samples = _oracle_samples(cfg)
    dim = kernel.point_dim or 1
    if samples.shape[2] != dim:
        raise ConfigError(f"kernel '{kernel.kind}' needs {dim}-dimensional "
                          f"points, process emits {samples.shape[2]}")
    vals = _kernel_values(kernel, samples)
    theta = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return theta, se, "mc"


@dataclass
class TailCurve:
    T: int
    x: list[float]
    counts: list[int]
    empirical: list[float]
    stderr: list[float]
    bound: list[float]


@dataclass
class TailExperiment:
    config_snapshot: dict
    theta: float
    theta_se: float
    theta_mode: str
    replications: int
    kernel_bound: float
    curves: list[TailCurve]
    calibration: CalibrationResult | None = None
    runtime: dict = field(default_factory=dict)

    def data_dict(self) -> dict:
        out = {
            "experiment": "tail",
            "theta": self.theta,
            "theta_se": self.theta_se,
            "theta_mode": self.theta_mode,
            "replications": self.replications,
            "kernel_bound": self.kernel_bound,
            "curves": [vars(c) for c in self.curves],
        }
        if self.calibration is not None:
            cal = self.calibration
            out["calibration"] = {
                "constants": cal.constants.to_dict(),
                "capped": cal.capped,
                "used_points": cal.used_points,
                "binding_point": None if cal.binding_point is None
                                 else cal.binding_point._asdict(),
            }
        return out

    def csv_files(self) -> dict[str, str]:
        out = {}
        for c in self.curves:
            lines = ["x,empirical,stderr,bound"]
            for i, x in enumerate(c.x):
                emp = f"{c.empirical[i]:.17g}" if self.replications else ""
                se = f"{c.stderr[i]:.17g}" if self.replications else ""
                lines.append(f"{x:.17g},{emp},{se},{c.bound[i]:.17g}")
            out[f"tail_T{c.T}.csv"] = "\n".join(lines) + "\n"
        return out

    def tail_points(self, t_values: Sequence[int] | None = None) -> list[TailPoint]:
        chosen = set(t_values) if t_values is not None else None
        pts = []
        for c in self.curves:
            if chosen is not None and c.T not in chosen:
                continue
            for x, p in zip(c.x, c.empirical):
                pts.append(TailPoint(x=x, T=c.T, M=self.kernel_bound, probability=p))
        return pts


def estimate_tail_budget(cfg: ExperimentConfig) -> float:
    """Work units of the tail run: replications times the per-path cost of
    the evaluator the kernel kind selects."""
    return cfg.replications * math.fsum(_path_cost(cfg.kernel, T) for T in cfg.t_grid)


def run_tail_experiment(cfg: ExperimentConfig) -> TailExperiment:
    if cfg.experiment != "tail":
        raise ConfigError("config is not a tail experiment")
    t0 = time.time()
    cost = estimate_tail_budget(cfg)
    if cost > cfg.budget:
        raise BudgetError(f"estimated {cost:.3g} work units exceed budget {cfg.budget:.3g}")
    theta, theta_se, mode = _estimate_theta(cfg)
    if mode == "mc" and len(cfg.x_grid) > 1:
        min_step = min(b - a for a, b in zip(sorted(cfg.x_grid), sorted(cfg.x_grid)[1:]))
        if theta_se > 0.1 * min_step:
            raise ConfigError(
                f"oracle precision insufficient: se {theta_se:.3g} > 10% of x step {min_step:.3g}")
    M = cfg.kernel.bound
    cc = cfg.constants
    curves = []
    for T in cfg.t_grid:
        xs = list(cfg.x_grid)
        offset = bias_offset(T, M, cc.c4)
        bound_vals = [ustat_tail_bound(max(x - offset, 0.0), T, M, cc.c5) for x in xs]
        if cfg.replications == 0:
            curves.append(TailCurve(T=T, x=xs, counts=[0] * len(xs), empirical=[],
                                    stderr=[], bound=bound_vals))
            continue
        blocks = map_replication_blocks(cfg.replications, _u_values_block,
                                        (cfg.process, T, _kernel_desc(cfg.kernel)),
                                        threads=cfg.threads)
        u_vals = np.concatenate(blocks)
        dev = np.abs(u_vals - theta)
        counts = [int((dev >= x).sum()) for x in xs]
        n = cfg.replications
        emp = [c / n for c in counts]
        se = [math.sqrt(p * (1.0 - p) / n) for p in emp]
        curves.append(TailCurve(T=T, x=xs, counts=counts, empirical=emp,
                                stderr=se, bound=bound_vals))
    return TailExperiment(
        config_snapshot=cfg.raw, theta=theta, theta_se=theta_se, theta_mode=mode,
        replications=cfg.replications, kernel_bound=M, curves=curves,
        runtime={"wall_seconds": time.time() - t0},
    )


def calibrate_from_tail(exp: TailExperiment, train_t: Sequence[int],
                        c4: float | None = None) -> CalibrationResult:
    """Calibrate bound constants on the curves of the training T values."""
    constants = BoundConstants.from_dict(dict(
        BoundConstants().to_dict(),
        **{k: v for k, v in exp.config_snapshot.get("constants", {}).items()}))
    use_c4 = constants.c4 if c4 is None else c4
    pts = exp.tail_points(train_t)
    if not pts:
        raise ConfigError(f"no tail curves at T in {sorted(train_t)}")
    result = calibrate_constants(pts, c4=use_c4, base=constants)
    exp.calibration = result
    return result


# ---------------------------------------------------------------------------
# bias curve
# ---------------------------------------------------------------------------

@dataclass
class BiasReport:
    config_snapshot: dict
    rows: list[dict]  # T, bias, sqrt_t_scaled
    loglog_slope: float | None
    runtime: dict = field(default_factory=dict)

    def data_dict(self) -> dict:
        return {"experiment": "bias-curve", "rows": self.rows,
                "loglog_slope": self.loglog_slope}

    def csv_files(self) -> dict[str, str]:
        lines = ["T,bias,sqrt_t_scaled"]
        for row in self.rows:
            lines.append(f"{row['T']},{row['bias']:.17g},{row['sqrt_t_scaled']:.17g}")
        return {"bias.csv": "\n".join(lines) + "\n"}


def run_bias_curve(cfg: ExperimentConfig) -> BiasReport:
    from .ustat import theta_star  # local import keeps module load light
    if cfg.experiment != "bias-curve":
        raise ConfigError("config is not a bias-curve experiment")
    if cfg.process.kind != "markov_chain" or cfg.kernel.kind != "table":
        raise ConfigError("bias curves need a finite chain and a table kernel")
    t0 = time.time()
    chain = cfg.process.chain
    theta = theta_independent(chain, cfg.kernel, cfg.order)
    rows = []
    for T in cfg.t_grid:
        star = theta_star(chain, cfg.kernel, T, cfg.order)
        bias = abs(star - theta)
        rows.append({"T": T, "bias": bias, "sqrt_t_scaled": bias * math.sqrt(T)})
    slope = None
    usable = [(r["T"], r["sqrt_t_scaled"]) for r in rows if r["sqrt_t_scaled"] > 0]
    if len(usable) >= 2:
        slope = float(np.polyfit(np.log([t for t, _ in usable]),
                                 np.log([v for _, v in usable]), 1)[0])
    return BiasReport(config_snapshot=cfg.raw, rows=rows, loglog_slope=slope,
                      runtime={"wall_seconds": time.time() - t0})


# ---------------------------------------------------------------------------
# decomposition check
# ---------------------------------------------------------------------------

@dataclass
class DecomposeCheckReport:
    config_snapshot: dict
    replications: int
    max_residual: float
    max_b_ratio: float
    conditional_mean_dev: float
    residual_ok: bool
    p1_ok: bool
    p2_ok: bool
    runtime: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.residual_ok and self.p1_ok and self.p2_ok

    def data_dict(self) -> dict:
        return {"experiment": "decompose-check", "replications": self.replications,
                "max_residual": self.max_residual, "max_b_ratio": self.max_b_ratio,
                "conditional_mean_dev": self.conditional_mean_dev,
                "residual_ok": self.residual_ok, "p1_ok": self.p1_ok, "p2_ok": self.p2_ok}

    def csv_files(self) -> dict[str, str]:
        return {}


def run_decompose_check(cfg: ExperimentConfig) -> DecomposeCheckReport:
    if cfg.experiment != "decompose-check":
        raise ConfigError("config is not a decompose-check experiment")
    if cfg.process.kind != "markov_chain" or cfg.kernel.kind != "table":
        raise ConfigError("decomposition checks need a finite chain and a table kernel")
    if cfg.order not in (2, 3):
        raise ConfigError("decomposition order must be 2 or 3")
    t0 = time.time()
    chain = cfg.process.chain
    cost = cfg.replications * math.fsum(math.comb(T, cfg.order) for T in cfg.t_grid)
    if cost > cfg.budget:
        raise BudgetError(f"estimated {cost:.3g} kernel evaluations exceed budget {cfg.budget:.3g}")
    max_residual = 0.0
    max_ratio = 0.0
    for T in cfg.t_grid:
        paths = generate_batch(cfg.process, T, cfg.replications)
        for states in paths:
            rep = decompose(states, chain, cfg.kernel, cfg.order)
            max_residual = max(max_residual, abs(rep.residual))
            max_ratio = max(max_ratio, rep.b_term_max_abs / (2.0 * rep.kernel_bound))
    p1_dev = max(check_zero_conditional_means(chain, cfg.kernel, T, cfg.order)
                 for T in cfg.t_grid)
    return DecomposeCheckReport(
        config_snapshot=cfg.raw, replications=cfg.replications,
        max_residual=max_residual, max_b_ratio=max_ratio, conditional_mean_dev=p1_dev,
        residual_ok=max_residual <= 1e-10, p1_ok=p1_dev <= 1e-10,
        p2_ok=max_ratio <= 1.0 + 1e-12,
        runtime={"wall_seconds": time.time() - t0},
    )


# ---------------------------------------------------------------------------
# mixing profile
# ---------------------------------------------------------------------------

@dataclass
class MixingProfileResult:
    config_snapshot: dict
    profiles: dict[str, MixingProfile]
    runtime: dict = field(default_factory=dict)

    def data_dict(self) -> dict:
        return {"experiment": "mixing-profile",
                "profiles": {k: json.loads(v.to_json()) for k, v in self.profiles.items()}}

    def csv_files(self) -> dict[str, str]:
        out = {}
        for kind, prof in self.profiles.items():
            lines = ["lag,value"]
            for lag, v in zip(prof.lags, prof.values):
                lines.append(f"{lag},{v:.17g}")
            out[f"mixing_{kind}.csv"] = "\n".join(lines) + "\n"
        return out


def run_mixing_profile(cfg: ExperimentConfig) -> MixingProfileResult:
    if cfg.experiment != "mixing-profile":
        raise ConfigError("config is not a mixing-profile experiment")
    if cfg.process.kind != "markov_chain":
        raise ConfigError("mixing profiles need a finite chain")
    t0 = time.time()
    chain = cfg.process.chain
    profiles = {}
    for kind in ("alpha", "beta", "phi"):
        profiles[kind] = mixing_profile(chain, kind, cfg.lags, fit=True)
    cond = cfg.extra.get("conditional")
    if cond is not None:
        _require_keys(cond, {"conditioning", "block_len"}, {"conditioning", "block_len"},
                      "conditional")
        conditioning = [(int(t), int(s)) for t, s in cond["conditioning"]]
        values = [conditional_phi_coeff(chain, conditioning, int(cond["block_len"]), n)
                  for n in cfg.lags]
        profiles["conditional_phi"] = MixingProfile(
            kind="conditional_phi", lags=list(cfg.lags), values=values,
            conditioning=conditioning)
    return MixingProfileResult(config_snapshot=cfg.raw, profiles=profiles,
                               runtime={"wall_seconds": time.time() - t0})


# ---------------------------------------------------------------------------
# log-MGF dominance check
# ---------------------------------------------------------------------------

@dataclass
class MgfCheckReport:
    config_snapshot: dict
    eta: list[float]
    empirical: list[float]
    envelope: list[float]
    per_summand_ok: bool
    dominance_ok: bool
    runtime: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.per_summand_ok and self.dominance_ok

    def data_dict(self) -> dict:
        return {"experiment": "mgf-check", "eta": self.eta, "empirical": self.empirical,
                "envelope": self.envelope, "per_summand_ok": self.per_summand_ok,
                "dominance_ok": self.dominance_ok}

    def csv_files(self) -> dict[str, str]:
        lines = ["eta,empirical,envelope"]
        for e, emp, env in zip(self.eta, self.empirical, self.envelope):
            lines.append(f"{e:.17g},{emp:.17g},{env:.17g}")
        return {"mgf.csv": "\n".join(lines) + "\n"}


def _summand_log_mgf(distribution: str, scale: float, eta: float) -> float:
    """Closed-form log-MGF of one centered bounded summand."""
    z = scale * eta
    if distribution == "rademacher":
        return math.log(math.cosh(z))
    if distribution == "uniform":
        if z == 0:
            return 0.0
        return math.log(math.sinh(z) / z)
    raise ConfigError(f"unknown summand distribution '{distribution}'")


def run_mgf_check(cfg: ExperimentConfig) -> MgfCheckReport:
    if cfg.experiment != "mgf-check":
        raise ConfigError("config is not an mgf-check experiment")
    t0 = time.time()
    n = int(cfg.extra["summands"])
    dist = cfg.extra["distribution"]
    scale = float(cfg.extra.get("scale", 1.0))
    sigma_i = float(cfg.extra.get("summand_sigma", scale))
    kappa_i = float(cfg.extra.get("summand_kappa", 0.0))
    points = int(cfg.extra["eta_points"])
    samples = int(cfg.extra["samples"])
    if n < 1 or points < 1 or samples < 1:
        raise ConfigError("summands, eta_points, and samples must be positive")

    combined = combine_bernstein_params([BernsteinParams(sigma_i, kappa_i)] * n)
    if combined.kappa > 0:
        eta_max = 0.99 / combined.kappa
    else:
        if "eta_max" not in cfg.extra:
            raise ConfigError("eta_max is required when the combined kappa is zero")
        eta_max = float(cfg.extra["eta_max"])
    etas = [eta_max * (i + 1) / points for i in range(points)]

    per = BernsteinParams(sigma_i, kappa_i)
    per_ok = all(
        _summand_log_mgf(dist, scale, e) <= bernstein_envelope(per, e) + 1e-12
        for e in etas
    )
    rng = _rep_rng(cfg.seed, 0)
    if dist == "rademacher":
        draws = scale * rng.choice([-1.0, 1.0], size=(samples, n))
    elif dist == "uniform":
        draws = scale * rng.uniform(-1.0, 1.0, size=(samples, n))
    else:
        raise ConfigError(f"unknown summand distribution '{dist}'")
    sums = draws.sum(axis=1)
    empirical = [empirical_log_mgf(sums, e) for e in etas]
    envelope = [bernstein_envelope(combined, e) for e in etas]
    dominance = all(emp <= env + 1e-12 for emp, env in zip(empirical, envelope))
    return MgfCheckReport(config_snapshot=cfg.raw, eta=etas, empirical=empirical,
                          envelope=envelope, per_summand_ok=per_ok, dominance_ok=dominance,
                          runtime={"wall_seconds": time.time() - t0})


# ---------------------------------------------------------------------------
# scaling wrapper and output emission
# ---------------------------------------------------------------------------

@dataclass
class ScalingResult:
    config_snapshot: dict
    report: ScalingReport
    runtime: dict = field(default_factory=dict)

    def data_dict(self) -> dict:
        return {"experiment": "scaling", "report": json.loads(self.report.to_json())}

    def csv_files(self) -> dict[str, str]:
        lines = ["T,p,median_dev,ratio_to_rate"]
        for c in self.report.cells:
            lines.append(f"{c.T},{c.p},{c.median_deviation:.17g},{c.ratio_to_rate:.17g}")
        return {"scaling.csv": "\n".join(lines) + "\n"}


def estimate_scaling_budget(cfg: ExperimentConfig) -> float:
    return cfg.replications * math.fsum(
        math.comb(T, 2) * p * (p - 1) / 2 for T in cfg.t_grid for p in cfg.p_grid)


def run_scaling(cfg: ExperimentConfig) -> ScalingResult:
    if cfg.experiment != "scaling":
        raise ConfigError("config is not a scaling experiment")
    if cfg.process.kind != "gaussian_copula_vector":
        raise ConfigError("scaling experiments use the Gaussian-copula vector process")
    cost = estimate_scaling_budget(cfg)
    if cost > cfg.budget:
        raise BudgetError(f"estimated {cost:.3g} kernel evaluations exceed budget {cfg.budget:.3g}")
    t0 = time.time()
    report = scaling_experiment(cfg.process, cfg.t_grid, cfg.p_grid, cfg.replications,
                                kind=cfg.estimator)
    return ScalingResult(config_snapshot=cfg.raw, report=report,
                         runtime={"wall_seconds": time.time() - t0})


def emit_outputs(result, out_dir: str) -> list[str]:
    """Write config.json, result.json, and per-figure CSVs; overwrite idempotently."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _write(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc
        written.append(path)

    _write("config.json", json.dumps(result.config_snapshot, sort_keys=True, indent=2) + "\n")
    payload = {"meta": result.runtime, "data": result.data_dict()}
    _write("result.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for name, text in result.csv_files().items():
        _write(name, text)
    return written
