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

Each experiment is one ``EXPERIMENTS`` entry: its CLI subcommand, config
keys, body and work estimate. A body returns plain data: the ``result.json``
``data`` block and its plot-ready CSV tables, ``{name: (header, rows)}``
(``path.csv`` for ``simulate``). Every experiment runs through
``run_experiment``, which checks the entry's work estimate against the
budget before any work, then times the body, and returns an
``ExperimentRun``: data, tables, the config snapshot and a ``meta`` block
(wall clock). ``all_ok`` holds when every ``*_ok`` flag of the data does.
``emit_outputs`` writes a run, each file formatted by ``file_text`` and
written by ``write_files``: ``config.json`` (exact input snapshot),
``result.json`` (``data``, byte-stable across reruns, and ``meta``) and the
CSVs. ``load_tail_result`` reads a written tail run back into the same
shape, which ``calibrate_from_tail`` takes in memory or from disk.

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
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from .bounds import (BoundConstants, TailPoint, bernstein_envelope,
                     calibrate_constants, empirical_log_mgf, ustat_tail_bound, bias_offset)
from . import hidim
from .kernels import (KernelSpec, load_table_kernel, mean_kernel, sign_product_kernel,
                      spearman_symmetric_kernel, table_kernel)
from .mixing import (ALPHA_MAX_STATES, check_conditioning, conditional_phi_coeff,
                     mixing_profile)
from .processes import (FiniteMarkovChain, ProcessSpec, _rep_rng,
                        block_replications, generate, generate_batch,
                        latent_batch, map_replication_blocks, uniform_marginals)
from .ustat import (_u_table_path, chain_law_bias, check_chain_law_length,
                    check_zero_conditional_means, decompose, kendall_tau_batch,
                    spearman_rho3_batch, theta_independent)

SCHEMA_VERSION = 1
SCALING_REPLICATIONS = 10 ** 6  # scaling's cap on replications and key stride between p cells
DEFAULT_BUDGET = 1e12
Tables = dict[str, tuple[list[str], list]]  # an experiment's CSVs: name -> (header, rows)
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


def _require_keys(d: dict, where: str, required: set[str],
                  optional: frozenset[str] | set[str] = frozenset()) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - required - optional
    if unknown:
        raise ConfigError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing fields in {where}: {sorted(missing)}")


# config field -> (type, least value or None). A dotted name is a field of a
# nested object; a top-level name sets the ExperimentConfig attribute. An "int"
# takes JSON integers only, never a float or a boolean; a "float" takes finite
# numbers; both must lie within the float range; a "<type> list" is non-empty,
# and each item is checked in turn.
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
    exact = type(value)  # JSON's own types first; numpy scalars take the ABC checks
    number = exact in (int, float) or (isinstance(value, numbers.Real)
                                       and not isinstance(value, bool))
    if kind == "int" and number and (exact is int or isinstance(value, numbers.Integral)):
        if abs(value) > sys.float_info.max:  # as a float's, so estimates compute in floats
            raise ConfigError(f"{name} must lie within the float range, ±1.8e308")
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
        _require_keys(d, "process", {"kind"})
        return ProcessSpec(kind="iid", seed=seed)
    if kind == "ar1":
        _require_keys(d, "process", {"kind", "coefficient"})
        return ProcessSpec(kind="ar1", seed=seed,
                           ar_coefficient=read_field("process.coefficient", d["coefficient"]))
    if kind == "m_dependent":
        _require_keys(d, "process", {"kind", "window"})
        return ProcessSpec(kind="m_dependent", seed=seed,
                           window=read_field("process.window", d["window"]))
    if kind == "markov_chain":
        _require_keys(d, "process", {"kind", "transition"})
        chain = FiniteMarkovChain(np.array(read_field("process.transition", d["transition"])))
        return ProcessSpec(kind="markov_chain", seed=seed, chain=chain)
    if kind == "gaussian_copula_vector":
        _require_keys(d, "process", {"kind", "dimension", "temporal_coefficient"},
                      {"cross_correlation"})
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
        _require_keys(d, "cross_correlation", {"kind"})
        return np.eye(p)
    if kind == "equicorrelation":
        _require_keys(d, "cross_correlation", {"kind", "rho"})
        rho = read_field("cross_correlation.rho", d["rho"])
        return np.full((p, p), rho) + (1.0 - rho) * np.eye(p)
    if kind == "explicit":
        _require_keys(d, "cross_correlation", {"kind", "matrix"})
        return np.array(read_field("cross_correlation.matrix", d["matrix"]))
    raise ConfigError(f"unknown cross_correlation kind '{kind}'")


def parse_kernel(d: dict) -> KernelSpec:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError("kernel must be an object with a 'kind'")
    kind = d["kind"]
    if kind == "sign_product":
        _require_keys(d, "kernel", {"kind"})
        return sign_product_kernel()
    if kind == "spearman_sym":
        _require_keys(d, "kernel", {"kind"})
        return spearman_symmetric_kernel()
    if kind == "mean":
        _require_keys(d, "kernel", {"kind"}, {"bound"})
        return mean_kernel(bound=read_field("kernel.bound", d["bound"]) if "bound" in d else 1.0)
    if kind == "table":
        _require_keys(d, "kernel", {"kind", "order", "state_count"}, {"entries", "path"})
        order = read_field("kernel.order", d["order"])
        if order > 3:  # where the table U evaluator and the theta evaluators stop
            raise ConfigError(f"kernel.order must be <= 3, got {order}")
        s = read_field("kernel.state_count", d["state_count"])
        if "path" in d:
            if "entries" in d:
                raise ConfigError("table kernel takes 'path' or 'entries', not both")
            return load_table_kernel(read_field("kernel.path", d["path"]), order, s)
        pairs = d.get("entries")
        if not isinstance(pairs, list) or any(not isinstance(p, list) or len(p) != 2
                                              for p in pairs):
            raise ConfigError("table kernel needs 'path', or 'entries' as [states, value] pairs")
        return table_kernel({tuple(_typed(key, "int list", None, f"kernel.entries[{i}][0]")):
                             _typed(v, "float", None, f"kernel.entries[{i}][1]")
                             for i, (key, v) in enumerate(pairs)}, order, s)
    raise ConfigError(f"unknown kernel kind '{kind}'")


def _parse_constants(d: dict) -> BoundConstants:
    """Bound constants from a config's ``constants`` object; absent ones default to 1."""
    _require_keys(d, "constants", set(), set(BoundConstants().to_dict()))
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
    order: int | None = None  # bias-curve, decompose-check: if given, kernel.order
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
    eta_max: float | None = None  # 0.99 / (summands * summand_kappa) if not given
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
        experiment, names = raw.get("experiment"), tuple(EXPERIMENTS)
        if experiment not in names:  # not the dict: a list-valued experiment would not hash
            raise ConfigError(f"experiment must be one of {names}")
        _, required, optional, *_ = EXPERIMENTS[experiment]
        _require_keys(raw, "config", {"schema_version", "experiment", "seed"} | required,
                      {"out_dir", "budget", "threads"} | optional)
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
            # objects of plain fields: name, required and optional keys, attribute prefix
            for name, required, optional, prefix in (
                    ("theta", {"mode"}, {"draws"}, "theta_"),
                    ("conditional", {"conditioning", "block_len"}, set(), "")):
                if name in raw:
                    _require_keys(raw[name], name, required, optional)
                    for key, value in raw[name].items():
                        setattr(cfg, prefix + key, read_field(f"{name}.{key}", value))
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
        if self.theta_mode == "mc" and chain:  # before the budget counts oracle draws
            raise ConfigError("theta.mode mc: no independent-sampling oracle for a markov_chain")
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
            if kernel.order not in (2, 3) or self.order not in (None, kernel.order):
                raise ConfigError(f"{e} order must be 2 or 3, the table kernel's order")
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
            sigma, kappa = self.summands * self.summand_sigma, self.summands * self.summand_kappa
            for name, value in (("summand_sigma", sigma), ("summand_kappa", kappa)):
                if math.isinf(value):
                    raise ConfigError(f"{name} * summands = {value} overflows a float")
            # eta_max tops the eta grid, inside the combined envelope's domain
            # 0 <= eta < 1 / kappa, which holds the per-summand one (summands >= 1)
            if self.eta_max is None:
                if kappa == 0:
                    raise ConfigError("eta_max is required when the combined kappa is zero")
                self.eta_max = 0.99 / kappa
            elif self.eta_max <= 0 or (kappa > 0 and self.eta_max >= 1.0 / kappa):
                raise ConfigError(f"eta_max must be > 0 and below 1 / (summands * "
                                  f"summand_kappa), got {self.eta_max!r}")
            # |sum| <= summands * |scale|, so this meets the empirical log-MGF's
            # overflow guard before any draw; it also keeps each summand's cosh/sinh finite
            reach = self.eta_max * self.summands * abs(self.scale)
            if reach > 700.0:
                raise ConfigError(f"eta_max * summands * |scale| = {reach:.4g} exceeds 700, "
                                  "the log-MGF overflow guard")
            # the combined envelope grows with eta and bounds the per-summand one
            top = sigma * self.eta_max
            if not math.isfinite(top * top / (1.0 - kappa * self.eta_max)):
                raise ConfigError(f"the Bernstein envelope of summand_sigma and summand_kappa "
                                  f"overflows at eta_max = {self.eta_max:.4g}")
        if e == "scaling":
            if process.kind != "gaussian_copula_vector":
                raise ConfigError("scaling experiments use the Gaussian-copula vector process")
            if self.estimator not in hidim.ESTIMATOR_KINDS:
                raise ConfigError(f"estimator must be one of {hidim.ESTIMATOR_KINDS}")
            # the coordinates are drawn independent at every p
            if process.cross_factor is not None:
                raise ConfigError("scaling needs an identity cross_correlation")
            # rank-correlation matrices need three observations and two coordinates
            if min(self.t_grid) < 3 or min(self.p_grid) < 2:
                raise ConfigError("scaling needs t_grid values >= 3 and p_grid values >= 2")
            if self.replications < 1:
                raise ConfigError("scaling needs replications >= 1")
            if self.replications > SCALING_REPLICATIONS:  # past it, p cells share streams
                raise ConfigError(f"scaling needs replications <= {SCALING_REPLICATIONS}")
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
                # U and the chain-law sums add up to C(T, r) entries of size <= M,
                # and divide by C(T, r): both the count and the sum fit a float
                tuples = math.comb(max(self.t_grid), kernel.order)
                if tuples > sys.float_info.max / max(kernel.bound, 1.0):
                    raise ConfigError(f"kernel.entries: |entry| {kernel.bound:.3g} times "
                                      f"C({max(self.t_grid)}, {kernel.order}) tuples "
                                      "overflows a float")
            elif kernel.kind in RANK_KERNELS:
                if process.kind != "gaussian_copula_vector" or process.dimension != 2:
                    raise ConfigError(f"{kernel.kind} needs a bivariate "
                                      f"gaussian_copula_vector process")
            elif chain or (process.kind == "gaussian_copula_vector" and process.dimension != 1):
                raise ConfigError("mean kernel needs a scalar real process")
        if e == "decompose-check":  # after the table's states are matched to the chain's
            check_chain_law_length(process.chain, kernel, max(self.t_grid))

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
        return np.array([_u_table_path(batch[:, :T], kernel.table) for T in t_grid])
    values = _kernel_values(kernel, batch.reshape(-1, 1, 1)).reshape(count, -1)
    return np.array([values[:, :T].mean(axis=1) for T in t_grid])


def _path_cost(kernel: KernelSpec, T: int) -> float:
    """Work units of the evaluator ``_u_values_block`` runs on one length-T path."""
    if kernel.kind in RANK_KERNELS:
        return T * math.log2(max(T, 2))  # inversion counting over ranks
    if kernel.kind == "mean":
        return float(T)
    return float(T) + kernel.table.size  # table: occupation counts


def _oracle_samples(cfg: ExperimentConfig, rng, draws: int) -> np.ndarray:
    """The next ``draws`` iid draws of r points from the stationary marginal,
    read from ``rng``, as a (draws, r, d) array.

    For the copula, rank kernels get the latent normals (same ranks, so the
    same kernel values) and only the ``mean`` kernel gets the uniforms.
    """
    spec, r = cfg.process, cfg.kernel.order
    if spec.kind == "gaussian_copula_vector":
        latent = rng.standard_normal((draws, r, spec.dimension))
        if spec.cross_factor is not None:
            latent = latent @ spec.cross_factor.T
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
            return theta_independent(spec.chain, kernel), "exact-chain"
        if (spec.kind == "gaussian_copula_vector" and kernel.kind == "sign_product"
                and spec.cross_factor is None):
            # independent continuous coordinates: the sign product integrates to zero
            return 0.0, "exact-independent"
    return None


def _estimate_theta(cfg: ExperimentConfig) -> tuple[float, float, str]:
    """(theta, standard error, mode used) for the configured process/kernel."""
    exact = _exact_theta(cfg)
    if exact is not None:
        return exact[0], 0.0, exact[1]
    # iid oracle on the stationary cross-sectional marginal, drawn in chunks of
    # at most BLOCK_VALUES / 8 values (1 MiB of float64, so a chunk's draws,
    # comparisons and gathers stay in a 2 MiB L2) that continue one stream,
    # so the values do not depend on the chunk size
    rng = _rep_rng(cfg.seed, 2 ** 32)  # oracle stream, disjoint from replication streams
    vals = np.empty(cfg.theta_draws)
    chunk = block_replications(8 * cfg.kernel.order * (cfg.process.dimension or 1))
    for start in range(0, vals.size, chunk):
        stop = min(start + chunk, vals.size)
        # one expression, so no chunk's draws outlive its values
        vals[start:stop] = _kernel_values(cfg.kernel, _oracle_samples(cfg, rng, stop - start))
    theta = float(vals.mean())
    # vals.std(ddof=1) step by step, in place of its draws-sized temporary
    vals -= theta
    vals *= vals
    se = math.sqrt(float(vals.sum()) / (vals.size - 1)) / math.sqrt(vals.size)
    return theta, se, "mc"


_CURVE_KEYS = {"T", "x", "counts", "empirical", "stderr", "bound"}  # of a tail curve


def _tail_tables(curves: list[dict]) -> Tables:
    """The ``tail_T<T>.csv`` table of each curve; a dry run has no empirical
    or stderr values, so those cells stay empty."""
    return {f"tail_T{c['T']}.csv": (["x", "empirical", "stderr", "bound"],
                                   list(zip_longest(c["x"], c["empirical"], c["stderr"],
                                                    c["bound"])))
            for c in curves}


def _path_values(cfg: ExperimentConfig) -> int:
    """Values drawn for one path of a run: max T, plus the m more draws of an
    m-dependent window, times the process dimension."""
    return (max(cfg.t_grid) + (cfg.process.window or 0)) * (cfg.process.dimension or 1)


def _draw_cost(spec: ProcessSpec, T: int) -> float:
    """Work units of drawing one length-T path: its T values times the
    dimension, or the T + m draws and T (m + 1) adds of an m-dependent
    window's moving sums."""
    if spec.kind == "m_dependent":
        return float(T) + spec.window + float(T) * (spec.window + 1)
    return float(T) * (spec.dimension or 1)


def estimate_tail_budget(cfg: ExperimentConfig) -> float:
    """Work units of the tail run: replications times the per-path cost of
    drawing the path at the largest T and of the evaluator the kernel kind
    selects at each T, plus r per Monte Carlo theta draw of r points."""
    draws = float(cfg.theta_draws) * cfg.kernel.order if _exact_theta(cfg) is None else 0.0
    per_path = (_draw_cost(cfg.process, max(cfg.t_grid))
                + sum(_path_cost(cfg.kernel, T) for T in cfg.t_grid))
    return draws + cfg.replications * per_path


def _run_tail(cfg: ExperimentConfig) -> tuple[dict, Tables]:
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
        curve = {"T": T, "x": xs, "counts": [0] * len(xs), "empirical": [], "stderr": [],
                 "bound": [ustat_tail_bound(max(x - offset, 0.0), T, M, cc.c5) for x in xs]}
        curves.append(curve)
        if cfg.replications == 0:  # a dry run: the bound curves alone
            continue
        dev = np.abs(np.concatenate([block[i] for block in u_blocks]) - theta)
        n = cfg.replications
        curve["counts"] = [int((dev >= x).sum()) for x in xs]
        curve["empirical"] = [c / n for c in curve["counts"]]
        curve["stderr"] = [math.sqrt(p * (1.0 - p) / n) for p in curve["empirical"]]
    return ({"experiment": "tail", "theta": theta, "theta_se": theta_se, "theta_mode": mode,
             "replications": cfg.replications, "kernel_bound": M, "curves": curves},
            _tail_tables(curves))


def calibrate_from_tail(run: ExperimentRun, train_t: Sequence[int],
                        c4: float | None = None) -> dict:
    """Calibrate bound constants on the tail curves of ``run`` at the training
    T values, starting from the constants of its config; ``c4`` defaults to
    the config's c4. Returns the ``calibration.json`` dict."""
    base = _parse_constants(run.config.get("constants", {}))
    M, chosen = run.data["kernel_bound"], set(train_t)
    pts = [TailPoint(x=x, T=c["T"], M=M, probability=p)
           for c in run.data["curves"] if c["T"] in chosen
           for x, p in zip(c["x"], c["empirical"])]
    if not pts:
        raise ConfigError(f"no tail curves at T in {sorted(train_t)}")
    try:
        return calibrate_constants(pts, c4=base.c4 if c4 is None else c4, base=base)
    except ValueError as exc:
        raise ConfigError(f"cannot calibrate: {exc}") from exc


def load_tail_result(result_dir: str) -> ExperimentRun:
    """The tail run ``emit_outputs`` wrote to ``result_dir``: the data block
    and meta of its ``result.json``, its ``config.json`` and its curves' CSV
    tables. A run ``calibrate_from_tail`` cannot read, by its keys or by the
    values calibration reads, is a ConfigError that names the directory."""
    payload = _read_json(os.path.join(result_dir, "result.json"))
    config = _read_json(os.path.join(result_dir, "config.json"))
    try:
        data = payload["data"]
        if data["experiment"] != "tail":
            raise ConfigError("calibrate needs the result of a tail experiment")
        for key in ("theta", "theta_se", "theta_mode", "replications", "kernel_bound"):
            data[key]  # a tail data block has each; a KeyError names the one missing
        for i, curve in enumerate(data["curves"]):
            if not isinstance(curve, dict) or set(curve) != _CURVE_KEYS:
                raise ValueError(f"curve {i} needs exactly the keys {sorted(_CURVE_KEYS)}")
        _parse_constants(config.get("constants", {}))  # here, not first at calibration
        run = ExperimentRun(data=data, tables=_tail_tables(data["curves"]), config=config,
                            meta=payload.get("meta", {}))
    except ConfigError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ConfigError(f"malformed tail run in {result_dir}: {exc!r}") from exc
    try:  # the values calibration reads, typed as a config's fields are
        M = _typed(data["kernel_bound"], "float", None, "kernel_bound")
        if M <= 0:
            raise ConfigError(f"kernel_bound must be > 0, got {M!r}")
        for i, curve in enumerate(data["curves"]):
            _typed(curve["T"], "int", 2, f"curves[{i}].T")
            x = _typed(curve["x"], "float list", 0.0, f"curves[{i}].x")
            p = [] if curve["empirical"] == [] else _typed(  # [] in a dry run
                curve["empirical"], "float list", 0.0, f"curves[{i}].empirical")
            # x has x_grid's bound in _check_inputs
            if max(x) > 2.0 * M or p and (len(p) != len(x) or max(p) > 1.0):
                raise ConfigError(f"curves[{i}] needs x in [0, 2 * kernel_bound] and "
                                  "empirical empty or one probability per x")
    except ConfigError as exc:
        raise ConfigError(f"malformed tail run in {result_dir}: {exc!r}") from exc
    return run


# ---------------------------------------------------------------------------
# bias curve
# ---------------------------------------------------------------------------

def estimate_bias_budget(cfg: ExperimentConfig) -> float:
    """Work units of the bias run: per T, the multiply-adds of the block
    powers ``chain_law_bias`` takes, 2 log2 T products of (3S)^3 at order 2
    and of (4S)^3 + S (6S)^3 at order 3, for S states."""
    s = cfg.kernel.table.shape[0]
    product = (3 * s) ** 3 if cfg.kernel.order == 2 else (4 * s) ** 3 + s * (6 * s) ** 3
    return sum(2 * math.log2(T) * product for T in cfg.t_grid)


def _loglog_slope(points) -> float | None:
    """Least-squares slope of log v against log T over the (T, v) points with
    v > 0; None with fewer than two of them."""
    usable = [(T, v) for T, v in points if v > 0]
    if len(usable) < 2:
        return None
    # float T: a T past int64 (bias takes any T) would make an object array
    logs = np.log(np.array(usable, dtype=float))
    return float(np.polyfit(logs[:, 0], logs[:, 1], 1)[0])


def _run_bias_curve(cfg: ExperimentConfig) -> tuple[dict, Tables]:
    rows = []
    for T in cfg.t_grid:
        bias = abs(chain_law_bias(cfg.process.chain, cfg.kernel, T))
        rows.append([T, bias, bias * math.sqrt(T)])
    header = ["T", "bias", "sqrt_t_scaled"]
    return ({"experiment": "bias-curve", "rows": [dict(zip(header, row)) for row in rows],
             "loglog_slope": _loglog_slope((T, scaled) for T, _, scaled in rows)},
            {"bias.csv": (header, rows)})


# ---------------------------------------------------------------------------
# decomposition check
# ---------------------------------------------------------------------------

def estimate_decompose_budget(cfg: ExperimentConfig) -> float:
    """Work units of the decompose-check run: per path and T, the T^2 S^(r-2)
    pair reads of ``decompose``; per T, the T^(r-1) S^2 entries of the gap
    tables it and the conditional-mean check build once."""
    s, r = cfg.kernel.table.shape[0], cfg.kernel.order
    return sum(float(cfg.replications) * T * T * s ** (r - 2) + float(T) * T ** (r - 2) * s * s
               for T in cfg.t_grid)


def _decompose_block(args, start: int, count: int) -> np.ndarray:
    """(|residual|, b-ratio) per T of the grid and replication in
    [start, start + count), as a (len(t_grid), count, 2) array: the paths are
    drawn once, at the largest T, and each T is one ``decompose`` call on
    their prefixes."""
    spec, t_grid, kernel = args
    paths = generate_batch(spec, max(t_grid), count, rep_offset=start)
    # b-ratio: max |b-term| over twice the kernel bound, 0 for a zero kernel
    return np.array([np.column_stack((np.abs(rep["residual"]),
                                      rep["b_term_max_abs"] / (2.0 * rep["kernel_bound"] or 1.0)))
                     for rep in (decompose(paths[:, :T], spec.chain, kernel) for T in t_grid)])


def _run_decompose_check(cfg: ExperimentConfig) -> tuple[dict, Tables]:
    chain = cfg.process.chain
    [blocks] = map_replication_blocks(_decompose_block,
                                      [(cfg.process, cfg.t_grid, cfg.kernel)],
                                      cfg.replications, [_path_values(cfg)],
                                      threads=cfg.threads)
    per_path = np.concatenate([np.empty((0, 2))] + [b.reshape(-1, 2) for b in blocks])
    max_residual, max_ratio = per_path.max(axis=0, initial=0.0).tolist()
    # every shorter T's gap tables are gap prefixes of the largest T's
    p1_dev = check_zero_conditional_means(chain, cfg.kernel, max(cfg.t_grid))
    tol = 1e-10 * cfg.kernel.bound  # residuals and deviations scale with the kernel
    return {"experiment": "decompose-check", "replications": cfg.replications,
            "max_residual": max_residual, "max_b_ratio": max_ratio,
            "conditional_mean_dev": p1_dev, "residual_ok": max_residual <= tol,
            "p1_ok": p1_dev <= tol, "p2_ok": max_ratio <= 1.0 + 1e-12}, {}


# ---------------------------------------------------------------------------
# mixing profile
# ---------------------------------------------------------------------------

def estimate_mixing_budget(cfg: ExperimentConfig) -> float:
    """Work units of the mixing-profile run: per lag, the 2^S S^2
    multiply-adds of ``alpha_coeff``'s product over the 2^S state subsets."""
    s = cfg.process.chain.state_count
    return len(cfg.lags) * 2.0 ** s * s * s


def _run_mixing_profile(cfg: ExperimentConfig) -> tuple[dict, Tables]:
    chain = cfg.process.chain
    profiles = {kind: mixing_profile(chain, kind, cfg.lags) for kind in ("alpha", "beta", "phi")}
    if cfg.conditioning is not None:
        profiles["conditional_phi"] = {
            "kind": "conditional_phi", "lags": list(cfg.lags),
            "values": [conditional_phi_coeff(chain, cfg.conditioning, cfg.block_len, n)
                       for n in cfg.lags],
            "fitted_gamma": None, "conditioning": cfg.conditioning}
    return ({"experiment": "mixing-profile", "profiles": profiles},
            {f"mixing_{kind}.csv": (["lag", "value"], list(zip(prof["lags"], prof["values"])))
             for kind, prof in profiles.items()})


# ---------------------------------------------------------------------------
# log-MGF dominance check
# ---------------------------------------------------------------------------

def _summand_log_mgf(distribution: str, scale: float, eta: float) -> float:
    """Closed-form log-MGF of one centered bounded summand."""
    z = scale * eta
    if distribution == "rademacher":
        return math.log(math.cosh(z))
    return 0.0 if z == 0 else math.log(math.sinh(z) / z)  # uniform


def estimate_mgf_budget(cfg: ExperimentConfig) -> float:
    """Work units of the mgf-check run: the samples x summands draws and one
    pass over the samples per eta point."""
    return float(cfg.samples) * (float(cfg.summands) + cfg.eta_points)


def _run_mgf_check(cfg: ExperimentConfig) -> tuple[dict, Tables]:
    dist, n, scale, eta_max = cfg.distribution, cfg.summands, cfg.scale, cfg.eta_max
    sigma, kappa = cfg.summand_sigma, cfg.summand_kappa
    etas = [min(eta_max * (i + 1) / cfg.eta_points, eta_max) for i in range(cfg.eta_points)]

    per_ok = all(_summand_log_mgf(dist, scale, e) <= bernstein_envelope(sigma, kappa, e) + 1e-12
                 for e in etas)
    rng = _rep_rng(cfg.seed, 0)
    if dist == "rademacher":
        draws = scale * rng.choice([-1.0, 1.0], size=(cfg.samples, n))
    else:
        draws = scale * rng.uniform(-1.0, 1.0, size=(cfg.samples, n))
    sums = draws.sum(axis=1)
    empirical = [empirical_log_mgf(sums, e) for e in etas]
    envelope = [bernstein_envelope(n * sigma, n * kappa, e) for e in etas]
    dominance = all(emp <= env + 1e-12 for emp, env in zip(empirical, envelope))
    return ({"experiment": "mgf-check", "eta": etas, "empirical": empirical,
             "envelope": envelope, "per_summand_ok": per_ok, "dominance_ok": dominance},
            {"mgf.csv": (["eta", "empirical", "envelope"], list(zip(etas, empirical, envelope)))})


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def estimate_scaling_budget(cfg: ExperimentConfig) -> float:
    """Work units of the scaling run: per replication and (T, p) cell, T log2 T
    per Kendall pair (inversion counting over ranks) or T p^2 for the Spearman
    rank Gram."""
    kendall = cfg.estimator == "kendall"
    return cfg.replications * sum(float(p) * (p - 1) / 2 * T * math.log2(T) if kendall
                                  else float(T) * p * p for T in cfg.t_grid for p in cfg.p_grid)


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


def _quartiles(values: np.ndarray) -> tuple[float, float, float]:
    """(q25, median, q75) of a non-empty sample of finite values other than
    -0.0 (which ties with 0.0 in either order), bit for bit as
    ``np.quantile``'s default linear method and ``np.median`` give them, from
    one sort. Those numpy calls import ``numpy.ma`` on first use, 12-16 ms
    of every ``scaling`` run on a 2-core x86-64 VM.

    The quantile at q sits at h = (n - 1) q between the sorted values a and b
    at floor(h) and the next index, with g = h - floor(h), as numpy's lerp:
    a + (b - a) g below g = 1/2, b - (b - a)(1 - g) from there on. The median
    of an even count is the mean of the middle two, (a + b) / 2.
    """
    ordered = np.sort(values).tolist()
    n = len(ordered)

    def linear(q: float) -> float:
        h = (n - 1) * q
        lo = math.floor(h)
        if lo >= n - 1:
            return ordered[-1]
        a, b, g = ordered[lo], ordered[lo + 1], h - lo
        return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g

    mid = n // 2
    median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return linear(0.25), median, linear(0.75)


def _run_scaling(cfg: ExperimentConfig) -> tuple[dict, Tables]:
    """Max-norm deviations over the (T, p) grid, one job per p; replication
    seeds are keyed by (seed, p-index * SCALING_REPLICATIONS + replication)."""
    t_grid, reps = cfg.t_grid, cfg.replications
    jobs = [(replace(cfg.process, dimension=p, cross_correlation=np.eye(p)),
             t_grid, pi * SCALING_REPLICATIONS, cfg.estimator) for pi, p in enumerate(cfg.p_grid)]
    dev_blocks = map_replication_blocks(_deviations_block, jobs, reps,
                                        [max(t_grid) * p for p in cfg.p_grid],
                                        threads=cfg.threads)
    cells = []
    slopes: dict[str, float | None] = {}  # keyed by str(p), as JSON writes it
    for p, blocks in zip(cfg.p_grid, dev_blocks):
        medians = []
        for i, T in enumerate(t_grid):
            q25, med, q75 = _quartiles(np.concatenate([block[i] for block in blocks]))
            cells.append({"T": T, "p": p, "replications": reps, "median_deviation": med,
                          "q25": q25, "q75": q75,
                          "ratio_to_rate": med / math.sqrt(math.log(T * p) / T),
                          "slope_defined": reps > 1 and len(t_grid) > 1})
            medians.append((T, med))
        slopes[str(p)] = _loglog_slope(medians) if reps > 1 else None
    return ({"experiment": "scaling",
             "report": {"kind": cfg.estimator, "cells": cells, "slopes_by_p": slopes}},
            {"scaling.csv": (["T", "p", "median_dev", "ratio_to_rate"],
                             [(c["T"], c["p"], c["median_deviation"], c["ratio_to_rate"])
                              for c in cells])})


# ---------------------------------------------------------------------------
# simulate, the one runner and output emission
# ---------------------------------------------------------------------------

def estimate_simulate_budget(cfg: ExperimentConfig) -> float:
    """Work units of the simulate run: drawing its one path."""
    return _draw_cost(cfg.process, cfg.length)


def _run_simulate(cfg: ExperimentConfig) -> tuple[dict, Tables]:
    path = generate(cfg.process, cfg.length)
    if path.states is not None:
        header, rows = ["t", "state"], path.states[:, None].tolist()
    else:
        header = ["t"] + [f"x{j + 1}" for j in range(path.dimension)]
        rows = path.values.tolist()
    return ({"experiment": "simulate", "length": path.length, "dimension": path.dimension},
            {"path.csv": (header, [(t, *row) for t, row in enumerate(rows)])})


# experiment -> (CLI subcommand, required config keys, optional config keys, body
# returning the result.json data block and the CSV tables, work estimate checked
# against the budget before any work); every config also takes schema_version,
# experiment and seed, and may take out_dir, budget and threads
EXPERIMENTS: dict[str, tuple[str, set[str], set[str], Callable, Callable]] = {
    "simulate": ("simulate", {"process", "length"}, set(),
                 _run_simulate, estimate_simulate_budget),
    "tail": ("tail", {"process", "kernel", "t_grid", "x_grid", "replications"},
             {"constants", "theta"}, _run_tail, estimate_tail_budget),
    "scaling": ("scaling", {"process", "t_grid", "p_grid", "replications"}, {"estimator"},
                _run_scaling, estimate_scaling_budget),
    "bias-curve": ("bias", {"process", "kernel", "t_grid"}, {"order"},
                   _run_bias_curve, estimate_bias_budget),
    "decompose-check": ("decompose-check", {"process", "kernel", "t_grid", "replications"},
                        {"order"}, _run_decompose_check, estimate_decompose_budget),
    "mixing-profile": ("mixing-profile", {"process", "lags"}, {"conditional"},
                       _run_mixing_profile, estimate_mixing_budget),
    "mgf-check": ("mgf-check", {"summands", "distribution", "eta_points", "samples"},
                  {"scale", "summand_sigma", "summand_kappa", "eta_max"},
                  _run_mgf_check, estimate_mgf_budget),
}


@dataclass
class ExperimentRun:
    """A run as ``emit_outputs`` writes it: the ``result.json`` data block and
    meta, the CSV tables and the config snapshot."""

    data: dict
    tables: Tables  # CSV file name -> (header, rows)
    config: dict
    meta: dict

    @property
    def all_ok(self) -> bool:
        """Whether every ``*_ok`` property check of the data block held."""
        return all(value for key, value in self.data.items() if key.endswith("_ok"))


def run_experiment(cfg: ExperimentConfig) -> ExperimentRun:
    """Run ``cfg`` through its ``EXPERIMENTS`` body, or raise a BudgetError
    before any work if the entry's work estimate exceeds the budget. The
    estimates compute in floats from config numbers within the float range,
    so one past that range reads inf, over any budget."""
    t0 = time.time()
    *_, body, estimate = EXPERIMENTS[cfg.experiment]
    cost = estimate(cfg)
    if cost > cfg.budget:
        raise BudgetError(f"estimated {cost:.3g} work units exceed budget {cfg.budget:.3g}")
    data, tables = body(cfg)
    return ExperimentRun(data, tables, config=cfg.raw, meta={"wall_seconds": time.time() - t0})


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
                                 "result.json": {"meta": run.meta, "data": run.data},
                                 **run.tables})
