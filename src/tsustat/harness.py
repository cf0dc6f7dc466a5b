"""Experiment engine: seeded Monte Carlo runs driven by JSON configs.

Configs are versioned and fail closed: unknown fields anywhere in the file
are rejected. ``tail``, ``scaling`` and ``decompose-check`` each make one
``processes.map_replication_blocks`` call, one job per T value or (T, p)
cell; each replication draws from its own counter-based stream keyed by
(seed, replication index), and blocks are reduced in index order, so results
are identical for any worker count.

Every experiment but ``simulate`` runs through ``run_experiment``, which
looks the experiment up in ``RUNNERS``, checks its work estimate against the
budget and times the body. Outputs: ``config.json`` (exact input snapshot),
``result.json`` with a ``data`` block (byte-stable across reruns) and a
``meta`` block (wall clock), plus plot-ready CSV files per experiment.

The rank kernels (``sign_product``, ``spearman_sym``) and their Monte Carlo
theta oracle read the copula's latent Gaussian values, which have the same
ranks as its uniform marginals; only the ``mean`` kernel and ``simulate``
map them to uniforms, so rank runs never import scipy.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bounds import (BernsteinParams, BoundConstants, CalibrationResult, TailPoint,
                     bernstein_envelope, calibrate_constants, combine_bernstein_params,
                     empirical_log_mgf, ustat_tail_bound, bias_offset)
from .hidim import ESTIMATOR_KINDS, ScalingReport, scaling_experiment
from .kernels import (KernelSpec, load_table_kernel, mean_kernel, sign_product_kernel,
                      spearman_symmetric_kernel, table_kernel)
from .mixing import MixingProfile, conditional_phi_coeff, mixing_profile
from .processes import (FiniteMarkovChain, ProcessSpec, _rep_rng, correlation_factor,
                        generate_batch, latent_batch, map_replication_blocks,
                        uniform_marginals)
from .ustat import (_THETA_STAR_T_CAP, check_zero_conditional_means, decompose,
                    kendall_tau_batch, spearman_rho3_batch, theta_independent)

SCHEMA_VERSION = 1
DEFAULT_BUDGET = 1e12
RANK_KERNELS = ("sign_product", "spearman_sym")  # functions of the ranks of their points


class ConfigError(ValueError):
    """Invalid or unknown configuration content (CLI exit code 2)."""


class BudgetError(RuntimeError):
    """Estimated work exceeds the configured budget (CLI exit code 3)."""


class CheckFailure(RuntimeError):
    """A property check did not hold (CLI exit code 4)."""


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


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
            _require_keys(d, {"kind", "transition"}, {"kind", "transition"}, "process")
            chain = FiniteMarkovChain(np.asarray(d["transition"], dtype=float))
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
    except (ValueError, TypeError, OSError) as exc:
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
EXPERIMENTS = tuple(_EXPERIMENT_KEYS)


def _parse_constants(d: dict) -> BoundConstants:
    """Bound constants from a config's ``constants`` object; absent ones default to 1."""
    try:
        return BoundConstants.from_dict(dict(BoundConstants().to_dict(), **d))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


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
            cfg.constants = _parse_constants(raw["constants"])
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
            if cfg.theta_draws < 2:
                raise ConfigError("theta.draws must be >= 2 for a standard error")
        cfg._check_inputs()
        return cfg

    def _check_inputs(self) -> None:
        """Experiment-specific checks, made before any work estimate or work."""
        e, process, kernel = self.experiment, self.process, self.kernel
        chain = process is not None and process.kind == "markov_chain"
        if e in ("bias-curve", "decompose-check"):
            if not (chain and kernel.kind == "table"):
                raise ConfigError(f"{e} needs a finite chain and a table kernel")
            if self.order not in (2, 3) or self.order != kernel.order:
                raise ConfigError(f"{e} order must be 2 or 3, the table kernel's order")
            if max(self.t_grid) > _THETA_STAR_T_CAP[self.order]:  # exact enumeration's cap
                raise ConfigError(f"{e} t_grid values must be <= {_THETA_STAR_T_CAP[self.order]}")
        if e == "mixing-profile" and not chain:
            raise ConfigError("mixing profiles need a finite chain")
        if e == "mixing-profile" and min(self.lags) < 1:
            raise ConfigError("lags must be >= 1")
        if e == "scaling":
            if process.kind != "gaussian_copula_vector":
                raise ConfigError("scaling experiments use the Gaussian-copula vector process")
            if self.estimator not in ESTIMATOR_KINDS:
                raise ConfigError(f"estimator must be one of {ESTIMATOR_KINDS}")
            # scaling_experiment draws independent coordinates at every p
            if not process.identity_correlation:
                raise ConfigError("scaling needs an identity cross_correlation")
            # rank-correlation matrices need three observations and two coordinates
            if min(self.t_grid) < 3 or min(self.p_grid) < 2:
                raise ConfigError("scaling needs t_grid values >= 3 and p_grid values >= 2")
            if self.replications < 1:
                raise ConfigError("scaling needs replications >= 1")
        if e == "simulate" and self.length < 1:
            raise ConfigError("simulate needs length >= 1")
        if kernel is not None:
            # the tail bound's log factor needs T >= 2 as well
            low = max(kernel.order, 2)
            if min(self.t_grid) < low:
                raise ConfigError(f"t_grid values must be >= {low} for a "
                                  f"'{kernel.kind}' kernel of order {kernel.order}")
            # each kernel family reads one kind of path; check it before any is drawn
            if kernel.kind == "table":
                states = kernel.table.shape[0]
                if not chain or process.chain.state_count != states:
                    raise ConfigError(f"a table kernel over {states} states needs a "
                                      f"markov_chain process with {states} states")
            elif kernel.kind in RANK_KERNELS:
                if process.kind != "gaussian_copula_vector" or process.dimension != 2:
                    raise ConfigError(f"{kernel.kind} needs a bivariate "
                                      f"gaussian_copula_vector process")
            elif chain or (process.kind == "gaussian_copula_vector" and process.dimension != 1):
                raise ConfigError("mean kernel needs a scalar real process")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# tail experiment
# ---------------------------------------------------------------------------

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
    """U-statistic per replication for replications [start, start + count).

    The kernel arrives as its config object, which pickles for pool workers;
    ``parse_kernel`` builds it in whichever process runs the block. The
    config check has matched kernel and process, and the rank kernels read
    the latent copula paths.
    """
    spec, T, kernel_cfg = args
    kernel = parse_kernel(kernel_cfg)
    if kernel.kind in RANK_KERNELS:
        latent = latent_batch(spec, T, count, rep_offset=start)
        rank_u = kendall_tau_batch if kernel.kind == "sign_product" else spearman_rho3_batch
        return rank_u(latent[:, :, 0], latent[:, :, 1])
    batch = generate_batch(spec, T, count, rep_offset=start)
    if kernel.kind == "table":
        return np.array([_u_table_path(states, kernel.table) for states in batch])
    return _kernel_values(kernel, batch.reshape(-1, 1, 1)).reshape(count, T).mean(axis=1)


def _path_cost(kernel: KernelSpec, T: int) -> float:
    """Work units of the evaluator ``_u_values_block`` runs on one length-T path."""
    if kernel.kind in RANK_KERNELS:
        return T * math.log2(max(T, 2))  # inversion counting over ranks
    if kernel.kind == "mean":
        return float(T)
    return float(T * kernel.table.shape[0] ** kernel.order)  # table: tuple counts


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
    """(draws, r, d) iid draws of r points from the stationary marginal.

    For the copula, rank kernels get the latent normals (same ranks, so the
    same kernel values) and only the ``mean`` kernel gets the uniforms.
    """
    spec, r = cfg.process, cfg.kernel.order
    draws = cfg.theta_draws
    rng = _rep_rng(cfg.seed, 2 ** 32)  # oracle stream, disjoint from replication streams
    if spec.kind == "gaussian_copula_vector":
        latent = rng.standard_normal((draws, r, spec.dimension))
        if not spec.identity_correlation:
            latent = latent @ correlation_factor(spec.cross_correlation).T
        return latent if cfg.kernel.kind in RANK_KERNELS else uniform_marginals(latent)
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
                and spec.identity_correlation):
            # independent continuous coordinates: the sign product integrates to zero
            return 0.0, 0.0, "exact-independent"
    # iid oracle on the stationary cross-sectional marginal
    vals = _kernel_values(kernel, _oracle_samples(cfg))
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
    theta: float
    theta_se: float
    theta_mode: str
    replications: int
    kernel_bound: float
    curves: list[TailCurve]
    constants: BoundConstants  # the ones the bound curves were computed with
    calibration: CalibrationResult | None = None

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
            # the data block's calibration predates slack; calibration.json carries it
            out["calibration"] = {k: v for k, v in self.calibration.to_dict().items()
                                  if k != "slack"}
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


def _run_tail(cfg: ExperimentConfig) -> TailExperiment:
    theta, theta_se, mode = _estimate_theta(cfg)
    if mode == "mc" and len(cfg.x_grid) > 1:
        min_step = min(b - a for a, b in zip(sorted(cfg.x_grid), sorted(cfg.x_grid)[1:]))
        if theta_se > 0.1 * min_step:
            raise ConfigError(
                f"oracle precision insufficient: se {theta_se:.3g} > 10% of x step {min_step:.3g}")
    M = cfg.kernel.bound
    cc = cfg.constants
    # one job per T; called by its module-level name, which perfbench/spans.py wraps
    jobs = [(cfg.process, T, cfg.raw["kernel"]) for T in cfg.t_grid]
    u_blocks = map_replication_blocks(_u_values_block, jobs, cfg.replications,
                                      threads=cfg.threads)
    curves = []
    for T, blocks in zip(cfg.t_grid, u_blocks):
        xs = list(cfg.x_grid)
        offset = bias_offset(T, M, cc.c4)
        bound_vals = [ustat_tail_bound(max(x - offset, 0.0), T, M, cc.c5) for x in xs]
        if cfg.replications == 0:
            curves.append(TailCurve(T=T, x=xs, counts=[0] * len(xs), empirical=[],
                                    stderr=[], bound=bound_vals))
            continue
        u_vals = np.concatenate(blocks)
        dev = np.abs(u_vals - theta)
        counts = [int((dev >= x).sum()) for x in xs]
        n = cfg.replications
        emp = [c / n for c in counts]
        se = [math.sqrt(p * (1.0 - p) / n) for p in emp]
        curves.append(TailCurve(T=T, x=xs, counts=counts, empirical=emp,
                                stderr=se, bound=bound_vals))
    return TailExperiment(theta=theta, theta_se=theta_se, theta_mode=mode,
                          replications=cfg.replications, kernel_bound=M, curves=curves,
                          constants=cc)


def calibrate_from_tail(exp: TailExperiment, train_t: Sequence[int],
                        c4: float | None = None) -> CalibrationResult:
    """Calibrate bound constants on the curves of the training T values,
    starting from the run's constants; ``c4`` defaults to the run's c4."""
    pts = exp.tail_points(train_t)
    if not pts:
        raise ConfigError(f"no tail curves at T in {sorted(train_t)}")
    try:
        result = calibrate_constants(pts, c4=exp.constants.c4 if c4 is None else c4,
                                     base=exp.constants)
    except ValueError as exc:
        raise ConfigError(f"cannot calibrate: {exc}") from exc
    exp.calibration = result
    return result


def load_tail_result(result_dir: str) -> TailExperiment:
    """The tail experiment ``emit_outputs`` wrote to ``result_dir``, with the
    bound constants from its ``config.json``."""
    payload = _read_json(os.path.join(result_dir, "result.json"))
    config = _read_json(os.path.join(result_dir, "config.json"))
    try:
        data = payload["data"]
        if data["experiment"] != "tail":
            raise ConfigError("calibrate needs the result of a tail experiment")
        return TailExperiment(
            theta=data["theta"], theta_se=data["theta_se"], theta_mode=data["theta_mode"],
            replications=data["replications"], kernel_bound=data["kernel_bound"],
            curves=[TailCurve(**c) for c in data["curves"]],
            constants=_parse_constants(config.get("constants", {})))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed tail run in {result_dir}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# bias curve
# ---------------------------------------------------------------------------

@dataclass
class BiasReport:
    rows: list[dict]  # T, bias, sqrt_t_scaled
    loglog_slope: float | None

    def data_dict(self) -> dict:
        return {"experiment": "bias-curve", **asdict(self)}

    def csv_files(self) -> dict[str, str]:
        lines = ["T,bias,sqrt_t_scaled"]
        for row in self.rows:
            lines.append(f"{row['T']},{row['bias']:.17g},{row['sqrt_t_scaled']:.17g}")
        return {"bias.csv": "\n".join(lines) + "\n"}


def _run_bias_curve(cfg: ExperimentConfig) -> BiasReport:
    from .ustat import theta_star  # at call time: perfbench/spans.py wraps ustat's name
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
    return BiasReport(rows=rows, loglog_slope=slope)


# ---------------------------------------------------------------------------
# decomposition check
# ---------------------------------------------------------------------------

@dataclass
class DecomposeCheckReport:
    replications: int
    max_residual: float
    max_b_ratio: float
    conditional_mean_dev: float
    residual_ok: bool
    p1_ok: bool
    p2_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.residual_ok and self.p1_ok and self.p2_ok

    def data_dict(self) -> dict:
        return {"experiment": "decompose-check", **asdict(self)}

    def csv_files(self) -> dict[str, str]:
        return {}


def estimate_decompose_budget(cfg: ExperimentConfig) -> float:
    return cfg.replications * math.fsum(math.comb(T, cfg.order) for T in cfg.t_grid)


def _decompose_block(args, start: int, count: int) -> np.ndarray:
    """(|residual|, b-term max over twice the kernel bound) per replication
    for replications [start, start + count). The kernel arrives as its table,
    which pickles for pool workers."""
    spec, T, table, order = args
    paths = generate_batch(spec, T, count, rep_offset=start)
    out = np.empty((count, 2))
    for i, states in enumerate(paths):
        rep = decompose(states, spec.chain, table, order)
        out[i] = abs(rep.residual), rep.b_term_max_abs / (2.0 * rep.kernel_bound)
    return out


def _run_decompose_check(cfg: ExperimentConfig) -> DecomposeCheckReport:
    chain = cfg.process.chain
    jobs = [(cfg.process, T, cfg.kernel.table, cfg.order) for T in cfg.t_grid]
    blocks = map_replication_blocks(_decompose_block, jobs, cfg.replications,
                                    threads=cfg.threads)
    per_path = np.concatenate([np.empty((0, 2))] + [b for job in blocks for b in job])
    max_residual, max_ratio = per_path.max(axis=0, initial=0.0).tolist()
    p1_dev = max(check_zero_conditional_means(chain, cfg.kernel, T, cfg.order)
                 for T in cfg.t_grid)
    return DecomposeCheckReport(
        replications=cfg.replications,
        max_residual=max_residual, max_b_ratio=max_ratio, conditional_mean_dev=p1_dev,
        residual_ok=max_residual <= 1e-10, p1_ok=p1_dev <= 1e-10,
        p2_ok=max_ratio <= 1.0 + 1e-12,
    )


# ---------------------------------------------------------------------------
# mixing profile
# ---------------------------------------------------------------------------

@dataclass
class MixingProfileResult:
    profiles: dict[str, MixingProfile]

    def data_dict(self) -> dict:
        return {"experiment": "mixing-profile",
                "profiles": {k: asdict(v) for k, v in self.profiles.items()}}

    def csv_files(self) -> dict[str, str]:
        out = {}
        for kind, prof in self.profiles.items():
            lines = ["lag,value"]
            for lag, v in zip(prof.lags, prof.values):
                lines.append(f"{lag},{v:.17g}")
            out[f"mixing_{kind}.csv"] = "\n".join(lines) + "\n"
        return out


def _run_mixing_profile(cfg: ExperimentConfig) -> MixingProfileResult:
    chain = cfg.process.chain
    profiles = {}
    for kind in ("alpha", "beta", "phi"):
        profiles[kind] = mixing_profile(chain, kind, cfg.lags, fit=True)
    cond = cfg.raw.get("conditional")
    if cond is not None:
        _require_keys(cond, {"conditioning", "block_len"}, {"conditioning", "block_len"},
                      "conditional")
        try:
            conditioning = [(int(t), int(s)) for t, s in cond["conditioning"]]
            values = [conditional_phi_coeff(chain, conditioning, int(cond["block_len"]), n)
                      for n in cfg.lags]
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"conditional: {exc}") from exc
        profiles["conditional_phi"] = MixingProfile(
            kind="conditional_phi", lags=list(cfg.lags), values=values,
            conditioning=conditioning)
    return MixingProfileResult(profiles=profiles)


# ---------------------------------------------------------------------------
# log-MGF dominance check
# ---------------------------------------------------------------------------

@dataclass
class MgfCheckReport:
    eta: list[float]
    empirical: list[float]
    envelope: list[float]
    per_summand_ok: bool
    dominance_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.per_summand_ok and self.dominance_ok

    def data_dict(self) -> dict:
        return {"experiment": "mgf-check", **asdict(self)}

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


def _run_mgf_check(cfg: ExperimentConfig) -> MgfCheckReport:
    raw = cfg.raw
    dist = raw["distribution"]
    try:
        n = int(raw["summands"])
        scale = float(raw.get("scale", 1.0))
        per = BernsteinParams(float(raw.get("summand_sigma", scale)),
                              float(raw.get("summand_kappa", 0.0)))
        points = int(raw["eta_points"])
        samples = int(raw["samples"])
        eta_max = float(raw["eta_max"]) if "eta_max" in raw else None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"mgf-check: {exc}") from exc
    if n < 1 or points < 1 or samples < 1:
        raise ConfigError("summands, eta_points, and samples must be positive")

    combined = combine_bernstein_params([per] * n)
    if combined.kappa > 0:
        eta_max = 0.99 / combined.kappa
    elif eta_max is None:
        raise ConfigError("eta_max is required when the combined kappa is zero")
    etas = [eta_max * (i + 1) / points for i in range(points)]

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
    return MgfCheckReport(eta=etas, empirical=empirical, envelope=envelope,
                          per_summand_ok=per_ok, dominance_ok=dominance)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def estimate_scaling_budget(cfg: ExperimentConfig) -> float:
    """Work units of the scaling run: per replication and (T, p) cell, T log2 T
    per Kendall pair (inversion counting over ranks) or T p^2 for the Spearman
    rank Gram."""
    kendall = cfg.estimator == "kendall"
    return cfg.replications * math.fsum(p * (p - 1) / 2 * T * math.log2(T) if kendall
                                        else T * p * p for T in cfg.t_grid for p in cfg.p_grid)


def _run_scaling(cfg: ExperimentConfig) -> ScalingReport:
    return scaling_experiment(cfg.process, cfg.t_grid, cfg.p_grid, cfg.replications,
                              kind=cfg.estimator, threads=cfg.threads)


# ---------------------------------------------------------------------------
# the one runner and output emission
# ---------------------------------------------------------------------------

# experiment -> (body, work estimate checked against the budget before the body
# runs, or None). ``simulate`` writes a path, not a result, and is not here.
RUNNERS: dict[str, tuple[Callable, Callable | None]] = {
    "tail": (_run_tail, estimate_tail_budget),
    "scaling": (_run_scaling, estimate_scaling_budget),
    "bias-curve": (_run_bias_curve, None),
    "decompose-check": (_run_decompose_check, estimate_decompose_budget),
    "mixing-profile": (_run_mixing_profile, None),
    "mgf-check": (_run_mgf_check, None),
}


@dataclass
class ExperimentRun:
    """An experiment's result, with the config snapshot and the run metadata
    ``emit_outputs`` writes beside it."""

    result: object  # has data_dict() and csv_files(); check results also all_ok
    config: dict
    meta: dict


def run_experiment(cfg: ExperimentConfig) -> ExperimentRun:
    """Run ``cfg`` through its ``RUNNERS`` body after the budget check."""
    if cfg.experiment not in RUNNERS:
        raise ConfigError(f"experiment '{cfg.experiment}' has no result runner")
    body, estimate = RUNNERS[cfg.experiment]
    t0 = time.time()
    if estimate is not None:
        cost = estimate(cfg)
        if cost > cfg.budget:
            raise BudgetError(f"estimated {cost:.3g} work units exceed budget {cfg.budget:.3g}")
    result = body(cfg)
    return ExperimentRun(result=result, config=cfg.raw,
                         meta={"wall_seconds": time.time() - t0})


def emit_outputs(run: ExperimentRun, out_dir: str) -> list[str]:
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

    _write("config.json", json.dumps(run.config, sort_keys=True, indent=2) + "\n")
    payload = {"meta": run.meta, "data": run.result.data_dict()}
    _write("result.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for name, text in run.result.csv_files().items():
        _write(name, text)
    return written
