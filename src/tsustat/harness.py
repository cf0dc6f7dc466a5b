"""Experiment engine: seeded Monte Carlo runs driven by JSON configs.

Configs are versioned and fail closed: unknown fields anywhere in the file
are rejected, and ``ExperimentConfig.from_dict`` reads each value once,
through ``read_field`` and its ``_FIELDS`` type table, into a typed field.
``tail``, ``scaling`` and ``decompose-check`` each make one
``processes.map_replication_blocks`` call, one job per run (per p for
``scaling``); each replication draws from its own counter-based stream keyed
by (seed, replication index), once, at the largest T of the grid, and every
T is evaluated on a prefix of that path. Blocks are reduced in index order,
so results are identical for any worker count.

Every experiment runs through ``run_experiment``, which checks the work
estimate ``RUNNERS`` holds against the budget before any work, then times
the body beside it. Outputs, each formatted by ``file_text`` and written by
``write_files``: ``config.json`` (exact input snapshot), ``result.json``
with a ``data`` block (byte-stable across reruns) and a ``meta`` block (wall
clock), plus plot-ready CSV files per experiment (``path.csv`` for
``simulate``).

``scaling`` measures how the worst entrywise deviation of a ``hidim``
rank-correlation matrix from its population value scales against
sqrt(log(Tp)/T) over a (T, p) grid.

The rank kernels (``sign_product``, ``spearman_sym``), their Monte Carlo
theta oracle and the ``scaling`` estimators read the copula's latent Gaussian
values, which have the same ranks as its uniform marginals (the marginal CDF
is strictly increasing); only the ``mean`` kernel and ``simulate`` map them
to uniforms, so rank runs never import scipy.
"""
from __future__ import annotations

import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from .bounds import (BernsteinParams, BoundConstants, CalibrationResult, TailPoint,
                     bernstein_envelope, calibrate_constants, empirical_log_mgf,
                     ustat_tail_bound, bias_offset)
from . import hidim
from .kernels import (KernelSpec, load_table_kernel, mean_kernel, sign_product_kernel,
                      spearman_symmetric_kernel, table_kernel)
from .mixing import (ALPHA_MAX_STATES, MixingProfile, check_conditioning,
                     conditional_phi_coeff, mixing_profile)
from .processes import (FiniteMarkovChain, ProcessSpec, SeriesPath, _rep_rng,
                        correlation_factor, generate, generate_batch, latent_batch,
                        map_replication_blocks, uniform_marginals)
from .ustat import (_u_table_path, check_chain_law_length, check_zero_conditional_means,
                    decompose, kendall_tau_batch, spearman_rho3_batch, theta_independent)

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
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing fields in {where}: {sorted(missing)}")


# config field -> (type, least value or None). A dotted name is a field of a
# nested object; a top-level name sets the ExperimentConfig attribute. An "int"
# takes JSON integers only, never a float or a boolean; a "float" takes finite
# numbers; a "<type> list" is non-empty, and each item is checked in turn.
_FIELDS = {
    "seed": ("int", 0), "budget": ("float", None), "threads": ("int", 1),
    "out_dir": ("str", None), "t_grid": ("int list", None), "p_grid": ("int list", None),
    "lags": ("int list", 1), "x_grid": ("float list", 0.0), "replications": ("int", 0),
    "length": ("int", 1), "order": ("int", None), "estimator": ("str", None),
    "summands": ("int", 1), "distribution": ("str", None), "scale": ("float", None),
    "summand_sigma": ("float", 0.0), "summand_kappa": ("float", 0.0),
    "eta_points": ("int", 1), "eta_max": ("float", None), "samples": ("int", 1),
    "process.coefficient": ("float", None), "process.window": ("int", 0),
    "process.transition": ("float list list", None), "process.dimension": ("int", 1),
    "process.temporal_coefficient": ("float", None), "cross_correlation.rho": ("float", None),
    "cross_correlation.matrix": ("float list list", None), "kernel.bound": ("float", None),
    "kernel.order": ("int", 1), "kernel.state_count": ("int", 1), "kernel.path": ("str", None),
    "theta.mode": ("str", None), "theta.draws": ("int", 2),
    "conditional.conditioning": ("int list list", None), "conditional.block_len": ("int", 1),
    **{f"constants.{c}": (type(v).__name__, None) for c, v in BoundConstants().to_dict().items()},
}
_TYPE_NAMES = {"int": "an integer", "float": "a finite number", "str": "a string"}


def _typed(value, kind: str, low, name: str):
    if kind.endswith(" list"):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        return [_typed(v, kind[:-5], low, f"{name}[{i}]") for i, v in enumerate(value)]
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind == "int" and number and isinstance(value, numbers.Integral):
        value = int(value)
    elif kind == "float" and number and abs(value) <= sys.float_info.max:  # NaN fails too
        value = float(value)
    elif kind != "str" or not isinstance(value, str):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value!r}")
    return value


def read_field(name: str, value):
    """``value`` of config field ``name`` as its ``_FIELDS`` entry types it, or
    a ConfigError naming the field, e.g. ``t_grid[0] must be an integer, got 30.7``."""
    kind, low = _FIELDS[name]
    return _typed(value, kind, low, name)


def parse_process(d: dict, seed: int) -> ProcessSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("process must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "iid":
        _require_keys(d, {"kind"}, {"kind"}, "process")
        return ProcessSpec(kind="iid", seed=seed)
    if kind == "ar1":
        _require_keys(d, {"kind", "coefficient"}, {"kind", "coefficient"}, "process")
        return ProcessSpec(kind="ar1", seed=seed,
                           ar_coefficient=read_field("process.coefficient", d["coefficient"]))
    if kind == "m_dependent":
        _require_keys(d, {"kind", "window"}, {"kind", "window"}, "process")
        return ProcessSpec(kind="m_dependent", seed=seed,
                           window=read_field("process.window", d["window"]))
    if kind == "markov_chain":
        _require_keys(d, {"kind", "transition"}, {"kind", "transition"}, "process")
        chain = FiniteMarkovChain(np.array(read_field("process.transition", d["transition"])))
        return ProcessSpec(kind="markov_chain", seed=seed, chain=chain)
    if kind == "gaussian_copula_vector":
        _require_keys(d, {"kind", "dimension", "temporal_coefficient", "cross_correlation"},
                      {"kind", "dimension", "temporal_coefficient"}, "process")
        p = read_field("process.dimension", d["dimension"])
        R = _parse_correlation(d.get("cross_correlation", {"kind": "identity"}), p)
        phi = read_field("process.temporal_coefficient", d["temporal_coefficient"])
        return ProcessSpec(kind="gaussian_copula_vector", seed=seed, dimension=p,
                           temporal_coefficient=phi, cross_correlation=R)
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
        rho = read_field("cross_correlation.rho", d["rho"])
        return np.full((p, p), rho) + (1.0 - rho) * np.eye(p)
    if kind == "explicit":
        _require_keys(d, {"kind", "matrix"}, {"kind", "matrix"}, "cross_correlation")
        return np.array(read_field("cross_correlation.matrix", d["matrix"]))
    raise ConfigError(f"unknown cross_correlation kind '{kind}'")


def parse_kernel(d: dict) -> KernelSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("kernel must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "sign_product":
        _require_keys(d, {"kind"}, {"kind"}, "kernel")
        return sign_product_kernel()
    if kind == "spearman_sym":
        _require_keys(d, {"kind"}, {"kind"}, "kernel")
        return spearman_symmetric_kernel()
    if kind == "mean":
        _require_keys(d, {"kind", "bound"}, {"kind"}, "kernel")
        return mean_kernel(bound=read_field("kernel.bound", d["bound"]) if "bound" in d else 1.0)
    if kind == "table":
        _require_keys(d, {"kind", "entries", "path", "order", "state_count"},
                      {"kind", "order", "state_count"}, "kernel")
        order = read_field("kernel.order", d["order"])
        if order > 3:  # where the table U evaluator and the theta evaluators stop
            raise ConfigError(f"kernel.order must be <= 3, got {order}")
        s = read_field("kernel.state_count", d["state_count"])
        if "path" in d:
            return load_table_kernel(read_field("kernel.path", d["path"]), order, s)
        pairs = d.get("entries")
        if not isinstance(pairs, list) or any(not isinstance(p, list) or len(p) != 2
                                              for p in pairs):
            raise ConfigError("table kernel needs 'path', or 'entries' as [states, value] pairs")
        return table_kernel({tuple(_typed(key, "int list", None, f"kernel.entries[{i}][0]")):
                             _typed(v, "float", None, f"kernel.entries[{i}][1]")
                             for i, (key, v) in enumerate(pairs)}, order, s)
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
    _require_keys(d, set(BoundConstants().to_dict()), set(), "constants")
    return BoundConstants(**{k: read_field(f"constants.{k}", v) for k, v in d.items()})


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    raw: dict  # the input as given; only the config.json snapshot reads it
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
    conditioning: list[tuple[int, int]] | None = None  # mixing-profile's conditional
    block_len: int = 1
    summands: int = 0  # mgf-check, from here on
    distribution: str = ""
    scale: float = 1.0
    summand_sigma: float | None = None  # defaults to scale
    summand_kappa: float = 0.0
    eta_points: int = 0
    eta_max: float | None = None
    samples: int = 0
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
        cfg = cls(experiment=experiment, seed=0, raw=raw)  # the seed is read below
        # the one parse boundary: a field of the wrong type or value fails here
        try:
            for key, value in raw.items():
                if key in _FIELDS:
                    setattr(cfg, key, read_field(key, value))
            if "process" in raw:
                cfg.process = parse_process(raw["process"], cfg.seed)
            if "kernel" in raw:
                cfg.kernel = parse_kernel(raw["kernel"])
            if "constants" in raw:
                cfg.constants = _parse_constants(raw["constants"])
            if "theta" in raw:
                _require_keys(raw["theta"], {"mode", "draws"}, {"mode"}, "theta")
                for key, value in raw["theta"].items():
                    setattr(cfg, f"theta_{key}", read_field(f"theta.{key}", value))
            if "conditional" in raw:
                _require_keys(raw["conditional"], {"conditioning", "block_len"},
                              {"conditioning", "block_len"}, "conditional")
                for key, value in raw["conditional"].items():
                    setattr(cfg, key, read_field(f"conditional.{key}", value))
            cfg._check_inputs()
        except ConfigError:
            raise
        except (ValueError, TypeError, OSError) as exc:  # OSError: a table kernel path
            raise ConfigError(str(exc)) from exc
        return cfg

    def _check_inputs(self) -> None:
        """Experiment-specific checks, made before any work estimate or work."""
        e, process, kernel = self.experiment, self.process, self.kernel
        chain = process is not None and process.kind == "markov_chain"
        if self.theta_mode not in ("auto", "mc", "exact-zero"):
            raise ConfigError("theta.mode must be auto, mc, or exact-zero")
        # each grid value names one output (a CSV, a cell, a curve); a repeat would clash
        for name in ("t_grid", "p_grid", "x_grid", "lags"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must not repeat a value, got {values!r}")
        if e == "tail" and max(self.x_grid) > 2.0 * kernel.bound:  # |U - theta| <= 2M
            raise ConfigError(f"x_grid values must be <= 2 * kernel bound = "
                              f"{2.0 * kernel.bound:.17g}, got {max(self.x_grid)!r}")
        if e in ("bias-curve", "decompose-check"):
            if not (chain and kernel.kind == "table"):
                raise ConfigError(f"{e} needs a finite chain and a table kernel")
            if self.order not in (2, 3) or self.order != kernel.order:
                raise ConfigError(f"{e} order must be 2 or 3, the table kernel's order")
            check_chain_law_length(max(self.t_grid), self.order)
        if e == "mixing-profile":
            if not chain:
                raise ConfigError("mixing profiles need a finite chain")
            if process.chain.state_count > ALPHA_MAX_STATES:
                raise ConfigError(f"process.transition has {process.chain.state_count} states; "
                                  f"mixing-profile takes at most {ALPHA_MAX_STATES}")
            if self.conditioning is not None:
                if any(len(pair) != 2 for pair in self.conditioning):
                    raise ConfigError("conditional.conditioning must hold [time, state] pairs")
                check_conditioning(process.chain, self.conditioning, self.block_len)
        if e == "mgf-check":
            if self.distribution not in ("rademacher", "uniform"):
                raise ConfigError("distribution must be rademacher or uniform")
            if self.summand_sigma is None:  # defaults to scale, within the same bounds
                self.summand_sigma = read_field("summand_sigma", self.scale)
        if e == "scaling":
            if process.kind != "gaussian_copula_vector":
                raise ConfigError("scaling experiments use the Gaussian-copula vector process")
            if self.estimator not in hidim.ESTIMATOR_KINDS:
                raise ConfigError(f"estimator must be one of {hidim.ESTIMATOR_KINDS}")
            # the coordinates are drawn independent at every p
            if not process.identity_correlation:
                raise ConfigError("scaling needs an identity cross_correlation")
            # rank-correlation matrices need three observations and two coordinates
            if min(self.t_grid) < 3 or min(self.p_grid) < 2:
                raise ConfigError("scaling needs t_grid values >= 3 and p_grid values >= 2")
            if self.replications < 1:
                raise ConfigError("scaling needs replications >= 1")
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
                # U and the chain-law sums add up to C(T, r) entries of size <= M
                tuples = math.comb(max(self.t_grid), kernel.order)
                if tuples > sys.float_info.max / kernel.bound:
                    raise ConfigError(f"kernel.entries: |entry| {kernel.bound:.3g} times "
                                      f"C({max(self.t_grid)}, {kernel.order}) tuples "
                                      "overflows a float")
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
    try:
        return kernel.sample_fn(samples)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _u_values_block(args, start: int, count: int) -> np.ndarray:
    """U-statistic per T of the grid and replication in [start, start + count),
    as a (len(t_grid), count) array.

    Each path is drawn once, at the largest T, and every T reads its prefix.
    The kernel arrives as the config's ``KernelSpec``, which pickles for pool
    workers. The config check has matched kernel and process, and the rank
    kernels read the latent copula paths.
    """
    spec, t_grid, kernel = args
    if kernel.kind in RANK_KERNELS:
        latent = latent_batch(spec, max(t_grid), count, rep_offset=start)
        rank_u = kendall_tau_batch if kernel.kind == "sign_product" else spearman_rho3_batch
        return np.array([rank_u(latent[:, :T, 0], latent[:, :T, 1]) for T in t_grid])
    batch = generate_batch(spec, max(t_grid), count, rep_offset=start)
    if kernel.kind == "table":
        return np.array([[_u_table_path(states[:T], kernel.table) for states in batch]
                         for T in t_grid])
    values = _kernel_values(kernel, batch.reshape(-1, 1, 1)).reshape(count, -1)
    return np.array([values[:, :T].mean(axis=1) for T in t_grid])


def _path_cost(kernel: KernelSpec, T: int) -> float:
    """Work units of the evaluator ``_u_values_block`` runs on one length-T path."""
    if kernel.kind in RANK_KERNELS:
        return T * math.log2(max(T, 2))  # inversion counting over ranks
    if kernel.kind == "mean":
        return float(T)
    return float(T + kernel.table.shape[0] ** kernel.order)  # table: occupation counts


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


def _exact_theta(cfg: ExperimentConfig) -> tuple[float, str] | None:
    """(theta, mode) where the config fixes theta exactly, None where the
    Monte Carlo oracle estimates it."""
    spec, kernel = cfg.process, cfg.kernel
    if cfg.theta_mode == "exact-zero":
        return 0.0, "exact-zero"
    if cfg.theta_mode == "auto":
        if spec.kind == "markov_chain" and kernel.kind == "table":
            return theta_independent(spec.chain, kernel, kernel.order), "exact-chain"
        if (spec.kind == "gaussian_copula_vector" and kernel.kind == "sign_product"
                and spec.identity_correlation):
            # independent continuous coordinates: the sign product integrates to zero
            return 0.0, "exact-independent"
    return None


def _estimate_theta(cfg: ExperimentConfig) -> tuple[float, float, str]:
    """(theta, standard error, mode used) for the configured process/kernel."""
    exact = _exact_theta(cfg)
    if exact is not None:
        return exact[0], 0.0, exact[1]
    # iid oracle on the stationary cross-sectional marginal
    vals = _kernel_values(cfg.kernel, _oracle_samples(cfg))
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

    def data_dict(self) -> dict:
        return {
            "experiment": "tail",
            "theta": self.theta,
            "theta_se": self.theta_se,
            "theta_mode": self.theta_mode,
            "replications": self.replications,
            "kernel_bound": self.kernel_bound,
            "curves": [vars(c) for c in self.curves],
        }

    def csv_tables(self) -> dict[str, tuple[list[str], list]]:
        # a dry run has no empirical or stderr values: those cells stay empty
        return {f"tail_T{c.T}.csv": (["x", "empirical", "stderr", "bound"],
                                     list(zip_longest(c.x, c.empirical, c.stderr, c.bound)))
                for c in self.curves}

    def tail_points(self, t_values: Sequence[int] | None = None) -> list[TailPoint]:
        chosen = set(t_values) if t_values is not None else None
        pts = []
        for c in self.curves:
            if chosen is not None and c.T not in chosen:
                continue
            for x, p in zip(c.x, c.empirical):
                pts.append(TailPoint(x=x, T=c.T, M=self.kernel_bound, probability=p))
        return pts


def _path_values(cfg: ExperimentConfig) -> int:
    """Values in one path of a run: max T times the process dimension."""
    return max(cfg.t_grid) * (cfg.process.dimension or 1)


def estimate_tail_budget(cfg: ExperimentConfig) -> float:
    """Work units of the tail run: replications times the per-path cost of
    the evaluator the kernel kind selects, plus r per Monte Carlo theta draw
    of r points."""
    draws = cfg.theta_draws * cfg.kernel.order if _exact_theta(cfg) is None else 0
    return draws + cfg.replications * math.fsum(_path_cost(cfg.kernel, T) for T in cfg.t_grid)


def _run_tail(cfg: ExperimentConfig) -> TailExperiment:
    theta, theta_se, mode = _estimate_theta(cfg)
    if mode == "mc" and len(cfg.x_grid) > 1:
        min_step = min(b - a for a, b in zip(sorted(cfg.x_grid), sorted(cfg.x_grid)[1:]))
        if theta_se > 0.1 * min_step:
            raise ConfigError(
                f"oracle precision insufficient: se {theta_se:.3g} > 10% of x step {min_step:.3g}")
    M = cfg.kernel.bound
    cc = cfg.constants
    # one job: every T reads prefixes of the same paths. Called by its
    # module-level name, which perfbench/spans.py wraps
    [u_blocks] = map_replication_blocks(_u_values_block, [(cfg.process, cfg.t_grid, cfg.kernel)],
                                        cfg.replications, [_path_values(cfg)],
                                        threads=cfg.threads)
    curves = []
    for i, T in enumerate(cfg.t_grid):
        xs = list(cfg.x_grid)
        offset = bias_offset(T, M, cc.c4)
        bound_vals = [ustat_tail_bound(max(x - offset, 0.0), T, M, cc.c5) for x in xs]
        if cfg.replications == 0:
            curves.append(TailCurve(T=T, x=xs, counts=[0] * len(xs), empirical=[],
                                    stderr=[], bound=bound_vals))
            continue
        u_vals = np.concatenate([block[i] for block in u_blocks])
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
        return calibrate_constants(pts, c4=exp.constants.c4 if c4 is None else c4,
                                   base=exp.constants)
    except ValueError as exc:
        raise ConfigError(f"cannot calibrate: {exc}") from exc


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
    except ConfigError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
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

    def csv_tables(self) -> dict[str, tuple[list[str], list]]:
        header = ["T", "bias", "sqrt_t_scaled"]
        return {"bias.csv": (header, [[row[k] for k in header] for row in self.rows])}


def estimate_bias_budget(cfg: ExperimentConfig) -> float:
    """Work units of the bias run: per T, the T^(r-1) S^2 entries of the gap
    tables ``theta_star`` builds."""
    s, r = cfg.kernel.table.shape[0], cfg.order
    return math.fsum(T ** (r - 1) * s * s for T in cfg.t_grid)


def _loglog_slope(points) -> float | None:
    """Least-squares slope of log v against log T over the (T, v) points with
    v > 0; None with fewer than two of them."""
    usable = [(T, v) for T, v in points if v > 0]
    if len(usable) < 2:
        return None
    return float(np.polyfit(np.log([T for T, _ in usable]),
                            np.log([v for _, v in usable]), 1)[0])


def _run_bias_curve(cfg: ExperimentConfig) -> BiasReport:
    from .ustat import theta_star  # at call time: perfbench/spans.py wraps ustat's name
    chain = cfg.process.chain
    theta = theta_independent(chain, cfg.kernel, cfg.order)
    rows = []
    for T in cfg.t_grid:
        star = theta_star(chain, cfg.kernel, T, cfg.order)
        bias = abs(star - theta)
        rows.append({"T": T, "bias": bias, "sqrt_t_scaled": bias * math.sqrt(T)})
    return BiasReport(rows=rows,
                      loglog_slope=_loglog_slope((r["T"], r["sqrt_t_scaled"]) for r in rows))


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

    def csv_tables(self) -> dict[str, tuple[list[str], list]]:
        return {}


def estimate_decompose_budget(cfg: ExperimentConfig) -> float:
    """Work units of the decompose-check run: per path and T, the T^2 S^(r-2)
    pair reads of ``decompose``; per T, the T^(r-1) S^2 entries of the gap
    tables it and the conditional-mean check build once."""
    s, r = cfg.kernel.table.shape[0], cfg.order
    return math.fsum(cfg.replications * T * T * s ** (r - 2) + T ** (r - 1) * s * s
                     for T in cfg.t_grid)


def _decompose_block(args, start: int, count: int) -> np.ndarray:
    """(|residual|, b-ratio) per T of the grid and replication in
    [start, start + count), as a (len(t_grid), count, 2) array: the paths are
    drawn once, at the largest T, and each T is one ``decompose`` call on
    their prefixes. The kernel arrives as its table, which pickles for pool
    workers."""
    spec, t_grid, table, order = args
    paths = generate_batch(spec, max(t_grid), count, rep_offset=start)
    return np.array([[(abs(rep.residual), rep.b_ratio)
                      for rep in decompose(paths[:, :T], spec.chain, table, order)]
                     for T in t_grid]).reshape(len(t_grid), count, 2)


def _run_decompose_check(cfg: ExperimentConfig) -> DecomposeCheckReport:
    chain = cfg.process.chain
    [blocks] = map_replication_blocks(_decompose_block,
                                      [(cfg.process, cfg.t_grid, cfg.kernel.table, cfg.order)],
                                      cfg.replications, [_path_values(cfg)],
                                      threads=cfg.threads)
    per_path = np.concatenate([np.empty((0, 2))] + [b.reshape(-1, 2) for b in blocks])
    max_residual, max_ratio = per_path.max(axis=0, initial=0.0).tolist()
    p1_dev = max(check_zero_conditional_means(chain, cfg.kernel, T, cfg.order)
                 for T in cfg.t_grid)
    tol = 1e-10 * cfg.kernel.bound  # residuals and deviations scale with the kernel
    return DecomposeCheckReport(
        replications=cfg.replications,
        max_residual=max_residual, max_b_ratio=max_ratio, conditional_mean_dev=p1_dev,
        residual_ok=max_residual <= tol, p1_ok=p1_dev <= tol,
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

    def csv_tables(self) -> dict[str, tuple[list[str], list]]:
        return {f"mixing_{kind}.csv": (["lag", "value"], list(zip(prof.lags, prof.values)))
                for kind, prof in self.profiles.items()}


def estimate_mixing_budget(cfg: ExperimentConfig) -> float:
    """Work units of the mixing-profile run: per lag, the 2^S state subsets
    ``alpha_coeff`` enumerates."""
    return len(cfg.lags) * 2.0 ** cfg.process.chain.state_count


def _run_mixing_profile(cfg: ExperimentConfig) -> MixingProfileResult:
    chain = cfg.process.chain
    profiles = {}
    for kind in ("alpha", "beta", "phi"):
        profiles[kind] = mixing_profile(chain, kind, cfg.lags)
    if cfg.conditioning is not None:
        values = [conditional_phi_coeff(chain, cfg.conditioning, cfg.block_len, n)
                  for n in cfg.lags]
        profiles["conditional_phi"] = MixingProfile(
            kind="conditional_phi", lags=list(cfg.lags), values=values,
            conditioning=cfg.conditioning)
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

    def csv_tables(self) -> dict[str, tuple[list[str], list]]:
        return {"mgf.csv": (["eta", "empirical", "envelope"],
                            list(zip(self.eta, self.empirical, self.envelope)))}


def _summand_log_mgf(distribution: str, scale: float, eta: float) -> float:
    """Closed-form log-MGF of one centered bounded summand."""
    z = scale * eta
    if distribution == "rademacher":
        return math.log(math.cosh(z))
    return 0.0 if z == 0 else math.log(math.sinh(z) / z)  # uniform


def estimate_mgf_budget(cfg: ExperimentConfig) -> float:
    """Work units of the mgf-check run: the samples x summands draws and one
    pass over the samples per eta point."""
    return float(cfg.samples) * (cfg.summands + cfg.eta_points)


def _run_mgf_check(cfg: ExperimentConfig) -> MgfCheckReport:
    dist, n, scale, points = cfg.distribution, cfg.summands, cfg.scale, cfg.eta_points
    per = BernsteinParams(cfg.summand_sigma, cfg.summand_kappa)
    combined = BernsteinParams(n * per.sigma, n * per.kappa)  # the sum of n copies
    for name, value in (("summand_sigma", combined.sigma), ("summand_kappa", combined.kappa)):
        if math.isinf(value):
            raise ConfigError(f"{name} * summands = {value} overflows a float")
    # the envelope's domain is 0 <= eta < 1 / kappa; eta_max tops the grid
    eta_max = cfg.eta_max
    if eta_max is None:
        if combined.kappa == 0:
            raise ConfigError("eta_max is required when the combined kappa is zero")
        eta_max = 0.99 / combined.kappa
    elif eta_max <= 0 or eta_max >= min(per.eta_limit, combined.eta_limit):
        raise ConfigError(f"eta_max must be > 0 and below 1 / (summands * summand_kappa), "
                          f"got {eta_max!r}")
    # |sum| <= summands * |scale|, so this meets the empirical log-MGF's overflow
    # guard before any draw; it also keeps each summand's cosh/sinh finite
    reach = eta_max * n * abs(scale)
    if reach > 700.0:
        raise ConfigError(f"eta_max * summands * |scale| = {reach:.4g} exceeds 700, "
                          "the log-MGF overflow guard")
    # the combined envelope grows with eta and bounds the per-summand one
    top = combined.sigma * eta_max
    if not math.isfinite(top * top / (1.0 - combined.kappa * eta_max)):
        raise ConfigError(f"the Bernstein envelope of summand_sigma and summand_kappa "
                          f"overflows at eta_max = {eta_max:.4g}")
    etas = [min(eta_max * (i + 1) / points, eta_max) for i in range(points)]

    per_ok = all(_summand_log_mgf(dist, scale, e) <= bernstein_envelope(per, e) + 1e-12
                 for e in etas)
    rng = _rep_rng(cfg.seed, 0)
    if dist == "rademacher":
        draws = scale * rng.choice([-1.0, 1.0], size=(cfg.samples, n))
    else:
        draws = scale * rng.uniform(-1.0, 1.0, size=(cfg.samples, n))
    sums = draws.sum(axis=1)
    empirical = [empirical_log_mgf(sums, e) for e in etas]
    envelope = [bernstein_envelope(combined, e) for e in etas]
    dominance = all(emp <= env + 1e-12 for emp, env in zip(empirical, envelope))
    return MgfCheckReport(eta=etas, empirical=empirical, envelope=envelope,
                          per_summand_ok=per_ok, dominance_ok=dominance)


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

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


def estimate_scaling_budget(cfg: ExperimentConfig) -> float:
    """Work units of the scaling run: per replication and (T, p) cell, T log2 T
    per Kendall pair (inversion counting over ranks) or T p^2 for the Spearman
    rank Gram."""
    kendall = cfg.estimator == "kendall"
    return cfg.replications * math.fsum(p * (p - 1) / 2 * T * math.log2(T) if kendall
                                        else T * p * p for T in cfg.t_grid for p in cfg.p_grid)


def _deviations_block(args, start: int, count: int) -> np.ndarray:
    """Max-norm deviation per T of the grid and replication in
    [start, start + count) of one p, as a (len(t_grid), count) array; each
    path is drawn once, at the largest T, and every T reads its prefix.

    The estimators and ``max_norm_deviation`` are looked up in ``hidim`` at
    call time, so the wrappers perfbench/spans.py installs there are seen.
    """
    spec_p, t_grid, rep_base, kind = args
    pop = hidim.population_matrix(spec_p.cross_correlation, kind)
    estimator = hidim.kendall_matrix if kind == "kendall" else hidim.spearman_matrix
    batch = latent_batch(spec_p, max(t_grid), count, rep_offset=rep_base + start)
    return np.array([[hidim.max_norm_deviation(estimator(path[:T]), pop) for path in batch]
                     for T in t_grid])


def _run_scaling(cfg: ExperimentConfig) -> ScalingReport:
    """Max-norm deviations over the (T, p) grid, one job per p; replication
    seeds are keyed by (seed, p-index * 10^6 + replication)."""
    t_grid, reps = cfg.t_grid, cfg.replications
    jobs = [(replace(cfg.process, dimension=p, cross_correlation=np.eye(p)),
             t_grid, pi * 1_000_000, cfg.estimator) for pi, p in enumerate(cfg.p_grid)]
    dev_blocks = map_replication_blocks(_deviations_block, jobs, reps,
                                        [max(t_grid) * p for p in cfg.p_grid],
                                        threads=cfg.threads)
    cells = []
    slopes: dict[int, float | None] = {}
    for p, blocks in zip(cfg.p_grid, dev_blocks):
        medians = []
        for i, T in enumerate(t_grid):
            devs = np.concatenate([block[i] for block in blocks])
            med = float(np.median(devs))
            cells.append(ScalingCell(
                T=T, p=p, replications=reps, median_deviation=med,
                q25=float(np.quantile(devs, 0.25)), q75=float(np.quantile(devs, 0.75)),
                ratio_to_rate=med / math.sqrt(math.log(T * p) / T),
                slope_defined=reps > 1 and len(t_grid) > 1))
            medians.append((T, med))
        slopes[p] = _loglog_slope(medians) if reps > 1 else None
    return ScalingReport(kind=cfg.estimator, cells=cells, slopes_by_p=slopes)


# ---------------------------------------------------------------------------
# simulate, the one runner and output emission
# ---------------------------------------------------------------------------

@dataclass
class SimulatedPath:
    path: SeriesPath

    def data_dict(self) -> dict:
        return {"experiment": "simulate", "length": self.path.length,
                "dimension": self.path.dimension}

    def csv_tables(self) -> dict[str, tuple[list[str], list]]:
        path = self.path
        if path.states is not None:
            header, rows = ["t", "state"], path.states[:, None].tolist()
        else:
            header = ["t"] + [f"x{j + 1}" for j in range(path.dimension)]
            rows = path.values.tolist()
        return {"path.csv": (header, [(t, *row) for t, row in enumerate(rows)])}


def estimate_simulate_budget(cfg: ExperimentConfig) -> float:
    """Work units of the simulate run: the values of its one path."""
    return float(cfg.length) * (cfg.process.dimension or 1)


def _run_simulate(cfg: ExperimentConfig) -> SimulatedPath:
    return SimulatedPath(generate(cfg.process, cfg.length))


# experiment -> (body, work estimate checked against the budget before any work)
RUNNERS: dict[str, tuple[Callable, Callable]] = {
    "simulate": (_run_simulate, estimate_simulate_budget),
    "tail": (_run_tail, estimate_tail_budget),
    "scaling": (_run_scaling, estimate_scaling_budget),
    "bias-curve": (_run_bias_curve, estimate_bias_budget),
    "decompose-check": (_run_decompose_check, estimate_decompose_budget),
    "mixing-profile": (_run_mixing_profile, estimate_mixing_budget),
    "mgf-check": (_run_mgf_check, estimate_mgf_budget),
}


def check_budget(cfg: ExperimentConfig) -> None:
    """A BudgetError if the work estimate of ``cfg`` exceeds its budget."""
    cost = RUNNERS[cfg.experiment][1](cfg)
    if cost > cfg.budget:
        raise BudgetError(f"estimated {cost:.3g} work units exceed budget {cfg.budget:.3g}")


@dataclass
class ExperimentRun:
    """An experiment's result, with the config snapshot and the run metadata
    ``emit_outputs`` writes beside it."""

    result: object  # has data_dict() and csv_tables(); check results also all_ok
    config: dict
    meta: dict


def run_experiment(cfg: ExperimentConfig) -> ExperimentRun:
    """Run ``cfg`` through its ``RUNNERS`` body after the budget check."""
    t0 = time.time()
    check_budget(cfg)
    result = RUNNERS[cfg.experiment][0](cfg)
    return ExperimentRun(result=result, config=cfg.raw,
                         meta={"wall_seconds": time.time() - t0})


def _csv_cell(value) -> str:
    return "" if value is None else f"{value:.17g}" if isinstance(value, float) else str(value)


def file_text(name: str, content) -> str:
    """The text of output file ``name``; the one CSV and JSON formatter.

    A ``.csv`` file takes a (header, rows) table and writes integers plainly,
    floats as ``.17g`` and None as an empty cell. Any other file takes JSON
    data, with sorted keys; a NaN or an infinity in it is a CheckFailure."""
    if name.endswith(".csv"):
        header, rows = content
        return "".join(",".join(cells) + "\n"
                       for cells in [header, *(map(_csv_cell, row) for row in rows)])
    try:
        return json.dumps(content, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CheckFailure(f"{name}: {exc}") from exc


def write_files(out_dir: str, files: dict[str, object]) -> list[str]:
    """Write each {name: content} file, formatted by ``file_text``, into
    ``out_dir``, made if missing, and return the paths written; files are
    overwritten idempotently. Every file is formatted before any is written.
    An unusable directory or file is a config error that names the path."""
    texts = {name: file_text(name, content) for name, content in files.items()}
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in texts.items():
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(path)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from exc
    return written


def emit_outputs(run: ExperimentRun, out_dir: str) -> list[str]:
    """Write config.json, result.json, and per-figure CSVs; the paths written."""
    return write_files(out_dir, {"config.json": run.config,
                                 "result.json": {"meta": run.meta,
                                                 "data": run.result.data_dict()},
                                 **run.result.csv_tables()})
