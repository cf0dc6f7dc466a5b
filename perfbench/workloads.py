"""Benchmark workloads: CLI steps with configs generated from a seed, checks
of each step's output, and oracle spot-checks run outside the timed region.

Two workloads, each a sequence of CLI steps; the step names are the parts
later changes cite. Each workload bypasses the layers the other stresses.

- ``kendall``: the rank-correlation path.
  - ``tail-kendall``: the paper's headline experiment (acceptance-08 shape),
    then ``calibrate``. Time goes to the batched inversion counter over
    thousands of short rows, and to path generation.
  - ``scaling-kendall``: the same counter the other way round (one path,
    hundreds of pair rows) plus the ``kendall_matrix`` pair-assembly loop;
    path generation is about 1% of its time.
- ``chain-spearman3``: the exact and generic evaluators.
  - ``bias``, ``decompose``, ``tail-table`` on one 3-state chain: the only
    steps on the table-kernel evaluator, the telescoping decomposition, the
    zero-conditional-mean check, ``theta_star`` and the chain generator loop.
  - ``tail-spearman3``: the only step on the generic O(T^3) enumerator and
    the Python-loop Monte Carlo theta oracle.

Two long workloads rather than four short ones: run-to-run speed on a small
shared machine drifts by tens of percent for a minute at a time, and a run
long enough to span such a stretch keeps the spread of the medians down.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 1

TAIL_KENDALL_REPS = 2048
SCALING_REPS = 2
CHAIN_DECOMPOSE_REPS = 16
CHAIN_TAIL_REPS = 32
SPEARMAN_REPS = 4
SPEARMAN_THETA_DRAWS = 100_000

# floats in a data block may differ from the reference in the last bits
# when BLAS picks another kernel for the CPU; integers must match exactly
REL_TOL = 1e-9
ABS_TOL = 1e-12

_COPULA = {"kind": "gaussian_copula_vector", "dimension": 2, "temporal_coefficient": 0.5,
           "cross_correlation": {"kind": "identity"}}


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload."""

    name: str
    argv: list
    output: str   # JSON file whose data the step is checked on
    paths: int    # replication paths the step estimates
    config: dict | None = None  # config written for the step (None for calibrate)


def _write_config(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=1)
    return path


def _experiment(work: str, name: str, subcommand: str, cfg: dict, paths: int) -> Step:
    config_path = _write_config(os.path.join(work, f"{name}.json"), cfg)
    out = os.path.join(work, name)
    argv = [subcommand, "--config", config_path, "--out", out, "--threads", "1"]
    return Step(name=name, argv=argv, output=os.path.join(out, "result.json"),
                paths=paths, config=cfg)


def _tail_config(seed: int, process: dict, kernel: dict, t_grid, x_grid, reps: int,
                 theta: dict | None = None) -> dict:
    cfg = {"schema_version": 1, "experiment": "tail", "seed": seed, "process": process,
           "kernel": kernel, "t_grid": list(t_grid), "x_grid": list(x_grid),
           "replications": reps}
    if theta is not None:
        cfg["theta"] = theta
    return cfg


def _chain_and_tables(seed: int) -> tuple[dict, list, list]:
    """A 3-state chain with positive transitions and symmetric order-2/3 tables."""
    rng = np.random.default_rng([seed, 3])
    P = rng.dirichlet(np.full(3, 2.0), size=3)
    process = {"kind": "markov_chain", "transition": P.tolist()}

    def table(order: int) -> list:
        keys = list(itertools.combinations_with_replacement(range(3), order))
        vals = rng.uniform(-1.0, 1.0, size=len(keys))
        return [[list(k), float(v)] for k, v in zip(keys, vals)]

    return process, table(2), table(3)


def tail_kendall(seed: int, work: str, reps: int = TAIL_KENDALL_REPS) -> list[Step]:
    """The ``tail-kendall`` step and the ``calibrate`` step that reads its result."""
    cfg = _tail_config(seed, _COPULA, {"kind": "sign_product"}, [250, 500, 2000],
                       [0.035, 0.07, 0.105, 0.14, 0.175], reps)
    tail = _experiment(work, "tail-kendall", "tail", cfg, paths=3 * reps)
    cal_out = os.path.join(work, "calibrate")
    calibrate = Step(name="calibrate",
                     argv=["calibrate", "--result", os.path.dirname(tail.output),
                           "--train", "250,500", "--out", cal_out],
                     output=os.path.join(cal_out, "calibration.json"), paths=0)
    return [tail, calibrate]


def kendall(seed: int, work: str) -> list[Step]:
    scaling = {"schema_version": 1, "experiment": "scaling", "seed": seed,
               "process": _COPULA, "t_grid": [500, 1000, 2000], "p_grid": [10, 20, 40],
               "replications": SCALING_REPS, "estimator": "kendall"}
    return tail_kendall(seed, work) + [
        _experiment(work, "scaling-kendall", "scaling", scaling, paths=9 * SCALING_REPS)]


def chain_spearman3(seed: int, work: str) -> list[Step]:
    process, table2, table3 = _chain_and_tables(seed)
    kernel2 = {"kind": "table", "order": 2, "state_count": 3, "entries": table2}
    kernel3 = {"kind": "table", "order": 3, "state_count": 3, "entries": table3}
    bias = {"schema_version": 1, "experiment": "bias-curve", "seed": seed,
            "process": process, "kernel": kernel2, "order": 2,
            "t_grid": [20, 40, 60, 80, 100, 120]}
    dec = {"schema_version": 1, "experiment": "decompose-check", "seed": seed,
           "process": process, "kernel": kernel3, "order": 3, "t_grid": [20, 30, 40],
           "replications": CHAIN_DECOMPOSE_REPS}
    table_tail = _tail_config(seed, process, kernel3, [60, 100],
                              [0.05, 0.1, 0.15, 0.2, 0.25], CHAIN_TAIL_REPS)
    spearman_tail = _tail_config(seed, _COPULA, {"kind": "spearman_sym"}, [40, 80],
                                 [0.1, 0.2, 0.3, 0.4, 0.5], SPEARMAN_REPS,
                                 theta={"mode": "auto", "draws": SPEARMAN_THETA_DRAWS})
    return [
        _experiment(work, "bias", "bias", bias, paths=0),
        _experiment(work, "decompose", "decompose-check", dec,
                    paths=3 * CHAIN_DECOMPOSE_REPS),
        _experiment(work, "tail-table", "tail", table_tail, paths=2 * CHAIN_TAIL_REPS),
        _experiment(work, "tail-spearman3", "tail", spearman_tail, paths=2 * SPEARMAN_REPS),
    ]


WORKLOADS = {"kendall": kendall, "chain-spearman3": chain_spearman3}

EXPECTED_THETA_MODE = {"tail-kendall": "exact-independent", "tail-table": "exact-chain",
                       "tail-spearman3": "mc"}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_data(step: Step) -> dict:
    """The checked part of a step's output: the ``data`` block, or the
    calibration file, which has no ``meta`` block."""
    with open(step.output, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload if step.name == "calibrate" else payload["data"]


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_properties(workload: str, step: Step, data: dict) -> list[str]:
    """Invariants of a step's data that hold at every seed."""
    problems = []

    def need(cond: bool, what: str) -> None:
        if not cond:
            problems.append(f"{workload}/{step.name}: {what}")

    cfg = step.config
    if step.name == "calibrate":
        c5 = data.get("constants", {}).get("c5")
        need(_finite(c5) and c5 > 0, f"calibrated c5 {c5!r} is not a positive number")
        bp = data.get("binding_point")
        need(data.get("capped") or (bp is not None and bp["T"] in (250, 500)),
             "binding point is missing or outside the training T values")
    elif cfg["experiment"] == "tail":
        reps = cfg["replications"]
        need(data.get("experiment") == "tail", "not a tail result")
        need(data.get("replications") == reps, "replication count differs from config")
        need(data.get("theta_mode") == EXPECTED_THETA_MODE[step.name],
             f"theta mode {data.get('theta_mode')!r}")
        curves = data.get("curves", [])
        need([c["T"] for c in curves] == cfg["t_grid"], "curve T values differ from t_grid")
        for c in curves:
            counts = c["counts"]
            need(len(counts) == len(cfg["x_grid"]), f"T={c['T']}: wrong number of points")
            need(all(isinstance(n, int) and 0 <= n <= reps for n in counts),
                 f"T={c['T']}: counts outside [0, replications]")
            need(all(a >= b for a, b in zip(counts, counts[1:])),
                 f"T={c['T']}: tail counts increase with x")
            need(all(abs(p - n / reps) <= ABS_TOL for p, n in zip(c["empirical"], counts)),
                 f"T={c['T']}: empirical != counts / replications")
            need(all(_finite(b) and b >= 0 for b in c["bound"]), f"T={c['T']}: bad bound")
    elif cfg["experiment"] == "scaling":
        cells = data.get("report", {}).get("cells", [])
        grid = [(T, p) for p in cfg["p_grid"] for T in cfg["t_grid"]]
        need([(c["T"], c["p"]) for c in cells] == grid, "cells differ from the (T, p) grid")
        for c in cells:
            need(0.0 < c["median_deviation"] <= 2.0, f"cell {c['T']},{c['p']}: deviation")
            need(c["q25"] <= c["median_deviation"] <= c["q75"],
                 f"cell {c['T']},{c['p']}: median outside its quartiles")
            need(_finite(c["ratio_to_rate"]), f"cell {c['T']},{c['p']}: ratio")
    elif cfg["experiment"] == "bias-curve":
        rows = data.get("rows", [])
        need([r["T"] for r in rows] == cfg["t_grid"], "rows differ from t_grid")
        for r in rows:
            need(_finite(r["bias"]) and r["bias"] >= 0, f"T={r['T']}: bias")
            need(abs(r["sqrt_t_scaled"] - r["bias"] * math.sqrt(r["T"])) <= ABS_TOL,
                 f"T={r['T']}: sqrt(T) scaling")
    elif cfg["experiment"] == "decompose-check":
        need(data.get("replications") == cfg["replications"], "replication count")
        for flag in ("residual_ok", "p1_ok", "p2_ok"):
            need(data.get(flag) is True, f"{flag} is not true")
    return problems


def diff_data(got, want, where: str = "data") -> list[str]:
    """Differences between two data blocks: exact for everything but floats."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [d for k in sorted(want) for d in diff_data(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in diff_data(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if abs(got - want) <= max(ABS_TOL, REL_TOL * abs(want)):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


# ---------------------------------------------------------------------------
# oracle spot-checks (need tsustat importable)
# ---------------------------------------------------------------------------

def spot_checks(steps: list[Step]) -> list[tuple[str, list[str]]]:
    """Each fast path against its slow oracle on a few replications.

    Returns (check name, problems) pairs; each pair counts as one attempt.
    """
    from tsustat.harness import ExperimentConfig, _u_table_path, parse_process
    from tsustat.hidim import kendall_matrix
    from tsustat.kernels import sign_product_kernel
    from tsustat.processes import SeriesPath, generate_batch
    from tsustat.ustat import (kendall_tau_batch, kendall_tau_numerator, spearman_rho,
                               u_statistic)

    def tau_batch(cfg):
        batch = generate_batch(ExperimentConfig.from_dict(cfg).process, 250, 3)
        fast = kendall_tau_batch(batch[:, :, 0], batch[:, :, 1])
        return [(f"rep {i}", fast[i], u_statistic(batch[i], sign_product_kernel()))
                for i in range(3)]

    def tau_matrix(cfg):
        spec = parse_process(dict(cfg["process"], dimension=10), cfg["seed"])
        data = generate_batch(spec, 500, 1)[0]
        M = kendall_matrix(data).matrix
        return [(f"entry ({j},{k})", M[j, k],
                 kendall_tau_numerator(data[:, j], data[:, k]) / math.comb(500, 2))
                for j in range(10) for k in range(j + 1, 10)]

    def table_path(cfg):
        tail = ExperimentConfig.from_dict(cfg)
        states = generate_batch(tail.process, 60, 3)
        return [(f"rep {i}", _u_table_path(states[i], tail.kernel.table),
                 u_statistic(SeriesPath(states=states[i]), tail.kernel)) for i in range(3)]

    def spearman3(cfg):
        batch = generate_batch(ExperimentConfig.from_dict(cfg).process, 40, 2)
        pairs = []
        for i in range(2):
            r = spearman_rho(batch[i])  # rho3 comes from u_statistic
            pairs.append((f"rep {i}", r.rho3, ((40 + 1) * r.rho - 3 * r.tau) / (40 - 2)))
        return pairs

    checks = {"tail-kendall": ("kendall_tau_batch vs u_statistic", tau_batch),
              "scaling-kendall": ("kendall_matrix vs kendall_tau_numerator", tau_matrix),
              "tail-table": ("_u_table_path vs u_statistic", table_path),
              "tail-spearman3": ("u_statistic spearman_sym vs rank-sum identity", spearman3)}
    out = []
    for step in steps:
        if step.name not in checks:
            continue
        name, check = checks[step.name]
        try:
            problems = [f"{where}: {fast!r} != {slow!r}"
                        for where, fast, slow in check(step.config)
                        if abs(fast - slow) > ABS_TOL]
        except Exception as exc:  # an oracle or fast path the check calls is gone
            problems = [f"{type(exc).__name__}: {exc}"]
        out.append((name, problems))
    return out
