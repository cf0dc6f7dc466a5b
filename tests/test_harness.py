import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tsustat import harness, hidim, processes
from tsustat.bounds import TailPoint, dominates
from tsustat.harness import (DEFAULT_BUDGET, BudgetError, ConfigError, ExperimentConfig,
                             _decompose_block, _estimate_theta, _oracle_samples, _u_table_path,
                             calibrate_from_tail, emit_outputs, estimate_scaling_budget,
                             estimate_tail_budget, file_text, run_experiment)
from tsustat.hidim import ESTIMATOR_KINDS
from tsustat.kernels import _sign_pattern_values, table_kernel
from tsustat.processes import SeriesPath, _rep_rng, block_replications
from tsustat.ustat import u_statistic

from oracles import mahonian_law

CHAIN = {"kind": "markov_chain", "transition": [[0.75, 0.25], [0.25, 0.75]]}
MATCH_KERNEL = {"kind": "table", "order": 2, "state_count": 2,
                "entries": [[[0, 0], 0.5], [[0, 1], -0.5], [[1, 1], 0.5]]}
COPULA = {"kind": "gaussian_copula_vector", "dimension": 2,
          "temporal_coefficient": 0.5, "cross_correlation": {"kind": "identity"}}


def tail_config(**overrides):
    cfg = {
        "schema_version": 1,
        "experiment": "tail",
        "seed": 123,
        "process": COPULA,
        "kernel": {"kind": "sign_product"},
        "t_grid": [40, 80],
        "x_grid": [0.05, 0.1, 0.2, 0.4, 0.8],
        "replications": 200,
    }
    cfg.update(overrides)
    return cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(tail_config(surprise=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(tail_config(process=dict(COPULA, typo=2)))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(tail_config(kernel={"kind": "sign_product", "x": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(tail_config(constants={"c99": 1.0}))
    with pytest.raises(ConfigError):  # one draw has no standard error
        ExperimentConfig.from_dict(tail_config(theta={"mode": "mc", "draws": 1}))
    with pytest.raises(ConfigError):  # nothing reads per-state values
        ExperimentConfig.from_dict(tail_config(
            process=dict(CHAIN, state_values=[0.0, 1.0]), kernel=MATCH_KERNEL))


def test_config_requires_schema_seed_and_fields():
    cfg = tail_config()
    del cfg["schema_version"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    cfg = tail_config()
    del cfg["seed"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    cfg = tail_config(seed="not-an-int")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    cfg = tail_config()
    del cfg["x_grid"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(cfg)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(tail_config(experiment="unknown"))


def test_tail_dry_run_scaffold():
    cfg = ExperimentConfig.from_dict(tail_config(replications=0))
    run = run_experiment(cfg)
    assert run.data["replications"] == 0
    for curve in run.data["curves"]:
        assert curve["empirical"] == [] and curve["counts"] == [0] * 5
        assert len(curve["bound"]) == 5
    tables = run.tables
    assert set(tables) == {"tail_T40.csv", "tail_T80.csv"}
    lines = file_text("tail_T40.csv", tables["tail_T40.csv"]).splitlines()
    assert lines[0] == "x,empirical,stderr,bound" and len(lines) == 6
    assert all(line.split(",")[1:3] == ["", ""] for line in lines[1:])


def test_tail_budget_guard():
    cfg = ExperimentConfig.from_dict(tail_config(budget=100.0))
    assert estimate_tail_budget(cfg) > 100.0
    with pytest.raises(BudgetError):
        run_experiment(cfg)


def test_tail_budget_counts_the_evaluator_used():
    """An order-3 rank-kernel tail at T=2000 is O(T log T) per path, far under
    the default budget, though C(2000, 3) per path would exceed it."""
    cfg = ExperimentConfig.from_dict(tail_config(
        kernel={"kind": "spearman_sym"}, t_grid=[2000], x_grid=[0.05, 0.1],
        replications=1000, theta={"mode": "exact-zero"}))
    assert 1000 * math.comb(2000, 3) > DEFAULT_BUDGET
    assert estimate_tail_budget(cfg) < 1e-4 * DEFAULT_BUDGET
    exp = run_experiment(cfg).data
    assert exp["curves"][0]["counts"][0] <= cfg.replications


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([1, 2, 3]),
       states=st.sampled_from([2, 3, 4]), extra=st.integers(0, 22))
def test_u_table_path_matches_enumeration(seed, order, states, extra):
    rng = np.random.default_rng(seed)
    kernel = table_kernel(rng.uniform(-1.0, 1.0, size=(states,) * order))
    path = rng.integers(0, states, size=order + extra)
    want = u_statistic(SeriesPath(states=path), kernel)
    assert _u_table_path(path, kernel.table) == pytest.approx(want, rel=0, abs=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_u_table_path_counts_do_not_wrap_at_large_t(order):
    """A constant path of 4 * 10^6 states has C(T, 3) > 2^63 tuples, past
    any int64 tuple count; the U of an all-ones table is still 1."""
    path = np.zeros(4_000_000, dtype=np.int64)
    assert math.comb(path.size, 3) > 2 ** 63
    got = _u_table_path(path, np.ones((2,) * order))
    assert got == pytest.approx(1.0, rel=0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.sampled_from([1, 2, 3]),
       states=st.sampled_from([2, 3, 4]), R=st.integers(0, 40), extra=st.integers(0, 300))
def test_u_table_path_of_a_stack_is_each_row_bit_for_bit(seed, order, states, R, extra):
    """A stack is one evaluation, and each row equals its own 1-D call, a
    float, bit for bit; no row depends on the stack it came in."""
    rng = np.random.default_rng(seed)
    table = table_kernel(rng.uniform(-1.0, 1.0, size=(states,) * order)).table
    paths = rng.integers(0, states, size=(R, order + extra))
    got = _u_table_path(paths, table)
    assert got.shape == (R,)
    for row, value in zip(paths, got.tolist()):
        alone = _u_table_path(row, table)
        assert type(alone) is float and alone == value


def test_u_table_path_chunks_the_weights(monkeypatch):
    """Weights are built in chunks of at most BLOCK_VALUES entries; a budget
    of one row's weights a chunk gives the same values."""
    rng = np.random.default_rng(8)
    table = table_kernel(rng.uniform(-1.0, 1.0, size=(3, 3, 3))).table
    paths = rng.integers(0, 3, size=(7, 50))
    want = _u_table_path(paths, table)
    monkeypatch.setattr(processes, "BLOCK_VALUES", 27)
    assert np.array_equal(_u_table_path(paths, table), want)
    with pytest.raises(ValueError):
        _u_table_path(np.array([[0, 1, 3]]), table)  # a state past the table


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       case=st.sampled_from([("sign_product", COPULA),
                             ("spearman_sym", COPULA),
                             ("mean", {"kind": "ar1", "coefficient": 0.6})]))
def test_oracle_values_match_kernel_fn(seed, case):
    kind, process = case
    kernel = {"kind": kind, "bound": 10.0} if kind == "mean" else {"kind": kind}
    cfg = ExperimentConfig.from_dict(tail_config(
        seed=seed, process=process, kernel=kernel, theta={"mode": "mc", "draws": 2000}))
    samples = _oracle_samples(cfg, _rep_rng(cfg.seed, 2 ** 32), 2000)
    points = samples if samples.shape[2] > 1 else samples[:, :, 0]
    want = np.array([cfg.kernel.fn(*points[i]) for i in range(samples.shape[0])])
    np.testing.assert_array_equal(cfg.kernel.sample_fn(samples), want)


CORRELATED = dict(COPULA, cross_correlation={"kind": "equicorrelation", "rho": 0.6})


@pytest.mark.parametrize("kind,process", [
    ("spearman_sym", CORRELATED), ("sign_product", CORRELATED),
    ("mean", {"kind": "ar1", "coefficient": 0.6}),
    ("mean", {"kind": "gaussian_copula_vector", "dimension": 1, "temporal_coefficient": 0.3}),
], ids=["spearman_sym", "sign_product", "mean-ar1", "mean-uniform"])
def test_oracle_chunks_continue_one_stream(monkeypatch, kind, process):
    """The oracle draws in chunks of at most BLOCK_VALUES / 8 values. Under
    a budget of 300 draws a chunk, 1000 draws take three full chunks and a
    partial one, and (theta, se) equal one unchunked draw bit for bit."""
    kernel = {"kind": kind, "bound": 10.0} if kind == "mean" else {"kind": kind}
    cfg = ExperimentConfig.from_dict(tail_config(
        seed=17, process=process, kernel=kernel, theta={"mode": "mc", "draws": 1000}))
    vals = cfg.kernel.sample_fn(_oracle_samples(cfg, _rep_rng(cfg.seed, 2 ** 32), 1000))
    want = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size)), "mc")

    chunks = []

    def counted(cfg, rng, draws):
        chunks.append(draws)
        return _oracle_samples(cfg, rng, draws)

    values_per_draw = cfg.kernel.order * (cfg.process.dimension or 1)
    monkeypatch.setattr(processes, "BLOCK_VALUES", 8 * 300 * values_per_draw)
    monkeypatch.setattr(harness, "_oracle_samples", counted)
    assert _estimate_theta(cfg) == want
    assert chunks == [300, 300, 300, 100]


def test_the_copula_factor_is_read_from_the_parsed_spec(monkeypatch):
    """A correlated tail takes its factor from ``ProcessSpec.cross_factor``,
    set when the config is parsed. With ``correlation_factor`` made to raise
    after that, and a value budget that cuts the oracle into 28 chunks and
    the replications into 3 blocks, (theta, se) and every U value equal an
    unpatched run's bit for bit."""
    raw = tail_config(seed=5, process=CORRELATED, kernel={"kind": "spearman_sym"},
                      t_grid=[20, 60], x_grid=[0.5, 1.0], replications=40,
                      theta={"mode": "mc", "draws": 1000})
    original = harness._u_values_block

    def run(oracle_chunks, u_blocks):
        def recorded_block(args, start, count):
            u_blocks.append(original(args, start, count))
            return u_blocks[-1]

        def counted(cfg, rng, draws):
            oracle_chunks.append(draws)
            return _oracle_samples(cfg, rng, draws)
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_u_values_block", recorded_block)
            patch.setattr(harness, "_oracle_samples", counted)
            report = run_experiment(cfg).data
        return report["theta"], report["theta_se"], np.concatenate(u_blocks, axis=1)

    cfg = ExperimentConfig.from_dict(raw)
    want = run([], [])
    cfg = ExperimentConfig.from_dict(raw)

    def forbidden(R):
        raise AssertionError("the copula factor was recomputed")
    monkeypatch.setattr(processes, "correlation_factor", forbidden)
    # 1800 values: oracle chunks of 1800 // (8 * 3 * 2) = 37 draws, blocks of 15 paths
    monkeypatch.setattr(processes, "BLOCK_VALUES", 1800)
    chunks, blocks = [], []
    got = run(chunks, blocks)
    assert chunks == [37] * 27 + [1] and [b.shape[1] for b in blocks] == [15, 15, 10]
    assert got[:2] == want[:2]
    np.testing.assert_array_equal(got[2], want[2])


@pytest.mark.parametrize("kind,patterns", [("spearman_sym", 36), ("sign_product", 4)])
def test_oracle_calls_fn_once_per_realized_pattern(kind, patterns):
    """The sign-pattern table is filled on demand: a 100k-draw oracle on
    continuous draws calls the kernel's scalar ``fn`` once for each strict
    order pair it meets, at most 6 x 6 at order 3 and 2 x 2 at order 2, and
    gives the same (theta, se) as the kernel's own table."""
    cfg = ExperimentConfig.from_dict(tail_config(
        seed=3, process=CORRELATED, kernel={"kind": kind},
        theta={"mode": "mc", "draws": 100_000}))
    want, fn, calls = _estimate_theta(cfg), cfg.kernel.fn, []

    def spy(*points):
        calls.append(points)
        return fn(*points)
    cfg.kernel = dataclasses.replace(cfg.kernel, fn=spy,
                                     sample_fn=partial(_sign_pattern_values, spy))
    assert _estimate_theta(cfg) == want
    assert 0 < len(calls) <= patterns


_ORACLE_RSS_PROBE = """
import json, sys
from tsustat.harness import ExperimentConfig, _estimate_theta

def status_kib(field):  # this process's memory; ru_maxrss can carry the parent's peak
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field + ":"))

cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
start = status_kib("VmRSS")
_estimate_theta(cfg)
print(status_kib("VmHWM") - start)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_default_oracle_peaks_at_its_values_plus_one_chunk():
    """A default 10^6-draw ``spearman_sym`` oracle holds its 8 MiB of kernel
    values, one 1 MiB chunk of draws at a time and no draws-sized
    temporary: its peak RSS grows by less than 12 MiB in a fresh process
    (about 9 MiB; 17 MiB with 8 MiB chunks and ``vals.std``)."""
    raw = tail_config(kernel={"kind": "spearman_sym"}, theta={"mode": "mc"})
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    proc = subprocess.run([sys.executable, "-c", _ORACLE_RSS_PROBE, json.dumps(raw)],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert 0 < int(proc.stdout) < 12 * 1024


MATCH_TABLE_FILE = "0 0 0.5\n0 1 -0.5\n1 0 -0.5\n1 1 0.5\n"
SCALING = {"schema_version": 1, "experiment": "scaling", "seed": 77, "process": COPULA,
           "t_grid": [16, 32], "p_grid": [3, 4], "replications": 12}
DECOMPOSE = {"schema_version": 1, "experiment": "decompose-check", "seed": 21,
             "process": CHAIN, "kernel": MATCH_KERNEL, "t_grid": [12, 20], "order": 2,
             "replications": 40}


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 2^10 values, so that runs of a few dozen replications at
    small T hold several blocks; replication counts that must split into
    blocks are read from ``block_replications`` under this budget."""
    monkeypatch.setattr(processes, "BLOCK_VALUES", 1 << 10)


@pytest.mark.parametrize("case", ["sign_product", "spearman_sym", "mean", "table-entries",
                                  "table-path", "scaling-kendall", "scaling-spearman",
                                  "decompose-check", "decompose-check-0"])
def test_tail_run_deterministic_and_thread_invariant(tmp_path, case, small_blocks):
    """Every replicated experiment writes the same files at one and two
    workers. Each run is one job per p, or one job, over the prefixes of one
    set of paths. Tail and decompose-check runs have more replications than
    one block, so two workers split them and each gets the parsed kernel;
    each p of a scaling run holds two blocks."""
    tail_overrides = {
        "sign_product": {},
        "spearman_sym": {"kernel": {"kind": "spearman_sym"}, "theta": {"mode": "exact-zero"}},
        "mean": {"process": {"kind": "ar1", "coefficient": 0.6},
                 "kernel": {"kind": "mean", "bound": 10.0}, "theta": {"mode": "exact-zero"}},
        "table-entries": {"process": CHAIN, "kernel": MATCH_KERNEL},
        "table-path": {"process": CHAIN,
                       "kernel": {"kind": "table", "order": 2, "state_count": 2,
                                  "path": str(tmp_path / "match.txt")}},
    }
    (tmp_path / "match.txt").write_text(MATCH_TABLE_FILE)
    raw = {"scaling-kendall": dict(SCALING, estimator="kendall"),
           "scaling-spearman": dict(SCALING, estimator="spearman"),
           "decompose-check": dict(DECOMPOSE, replications=block_replications(20) + 1),
           "decompose-check-0": dict(DECOMPOSE, replications=0)}.get(case)
    if raw is None:  # a bivariate copula path at T = 16 holds 32 values
        raw = tail_config(t_grid=[8, 16], replications=block_replications(32) + 100,
                          **tail_overrides[case])
    texts = []
    for threads in (1, 2):
        cfg = ExperimentConfig.from_dict(raw)
        cfg.threads = threads
        out = tmp_path / f"threads{threads}"
        written = emit_outputs(run_experiment(cfg), str(out))
        result = json.loads((out / "result.json").read_text())
        texts.append([json.dumps(result["data"], sort_keys=True)] +
                     [(Path(p).name, Path(p).read_text()) for p in written
                      if not p.endswith("result.json")])
    assert texts[0] == texts[1]
    data = json.loads(texts[0][0])
    if data["experiment"] == "tail":  # the data are not degenerate
        assert 0 < data["curves"][0]["counts"][0] < raw["replications"]
    elif data["experiment"] == "scaling":
        assert len(texts[0]) == 3  # config.json and scaling.csv
        assert all(c["median_deviation"] > 0 for c in data["report"]["cells"])
    else:
        assert data["residual_ok"] and data["p1_ok"] and data["p2_ok"]
        assert (data["max_b_ratio"] > 0) == (raw["replications"] > 0)


@pytest.fixture
def recording_pool(monkeypatch):
    """The worker counts of the pools opened while it is in use, through an
    in-process stand-in for ProcessPoolExecutor: no process starts."""
    opened = []

    class RecordingPool:
        def __init__(self, workers):
            opened.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(processes, "_open_pool", RecordingPool)
    return opened


@pytest.mark.parametrize("raw,path_values", [
    (tail_config(t_grid=[8, 12, 16]), 32),
    (dict(SCALING, estimator="kendall"), None),
    (dict(SCALING, estimator="spearman"), None),
    (DECOMPOSE, 20),
], ids=["tail", "scaling-kendall", "scaling-spearman", "decompose-check"])
def test_each_run_opens_one_pool(monkeypatch, small_blocks, recording_pool, raw, path_values):
    """A multi-worker run maps all its replications through one pool. Tail
    and decompose-check runs hold two blocks of their paths' values; a
    scaling run holds two jobs."""
    if path_values is not None:
        raw = dict(raw, replications=block_replications(path_values) + 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cfg = ExperimentConfig.from_dict(raw)
    cfg.threads = 2
    pooled = run_experiment(cfg).data
    assert recording_pool == [2]
    assert pooled == run_experiment(ExperimentConfig.from_dict(raw)).data


@pytest.mark.parametrize("threads,blocks,cpus,workers", [
    (100_000, 3, 2, [2]), (100_000, 3, None, []), (100_000, 1, 8, []), (3, 5, 8, [3]),
    (2, 5, 1, []), (4, 2, 8, [2]),
])
def test_threads_bound_the_workers_by_blocks_and_cpus(monkeypatch, recording_pool,
                                                       threads, blocks, cpus, workers):
    """``threads`` is an upper bound: the pool opens min(threads, blocks,
    CPUs) workers, and none where that is 1 (an unknown CPU count reads 1).
    The blocks' results do not depend on it."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    got = processes.map_replication_blocks(lambda args, start, count: (args, start, count),
                                           ["job"], blocks, [processes.BLOCK_VALUES],
                                           threads=threads)
    assert recording_pool == workers
    assert got == [[("job", start, 1) for start in range(blocks)]]


def test_an_m_dependent_window_counts_in_the_estimate_and_the_block_size():
    """A path of window m is T + m draws and T (m + 1) adds: at window 10^6,
    T = 10 and 1000 replications the estimate holds 10^10 adds, and a block
    holds one path of 10^6 + 10 draws, not all 1000 paths of 10 values."""
    cfg = ExperimentConfig.from_dict(tail_config(
        process={"kind": "m_dependent", "window": 10 ** 6}, kernel={"kind": "mean", "bound": 10.0},
        theta={"mode": "exact-zero"}, t_grid=[10], x_grid=[1.0], replications=1000))
    assert estimate_tail_budget(cfg) == 1000 * ((10 + 10 ** 6) + 10 * (10 ** 6 + 1) + 10)
    assert harness._path_values(cfg) == 10 ** 6 + 10
    assert block_replications(harness._path_values(cfg)) == 1
    simulate = ExperimentConfig.from_dict({"schema_version": 1, "experiment": "simulate",
                                           "seed": 1, "length": 10, "process": cfg.raw["process"]})
    assert harness.estimate_simulate_budget(simulate) == (10 + 10 ** 6) + 10 * (10 ** 6 + 1)


@pytest.mark.parametrize("threads", [1, 2])
def test_each_t_of_a_grid_reads_the_same_paths(monkeypatch, threads):
    """Replication i at every T is a prefix of one path, so at T = 500 a run
    over the grid [250, 500, 2000] gives what a run over [500] alone gives.
    A decompose-check report is a maximum over the whole grid, so its check
    is made on the block function's row for T = 500. Under a budget of 16
    paths of 2000 values, the grid runs below hold two blocks (per p for
    scaling) and the runs at [500] fewer."""
    monkeypatch.setattr(processes, "BLOCK_VALUES", 16 * 2000)
    grid = [250, 500, 2000]

    def run(raw, t_grid):
        cfg = ExperimentConfig.from_dict(dict(raw, t_grid=t_grid))
        cfg.threads = threads
        return run_experiment(cfg).data

    for tail in (tail_config(replications=block_replications(2000 * 2) + 3),
                 tail_config(process={"kind": "ar1", "coefficient": 0.6}, replications=64,
                             kernel={"kind": "mean", "bound": 10.0},
                             theta={"mode": "exact-zero"}),
                 tail_config(process=CHAIN, kernel=MATCH_KERNEL, replications=24)):
        assert run(tail, grid)["curves"][1] == run(tail, [500])["curves"][0]

    def cells(data):
        return [(c["T"], c["p"], c["median_deviation"], c["q25"], c["q75"], c["ratio_to_rate"])
                for c in data["report"]["cells"] if c["T"] == 500]

    for estimator in ESTIMATOR_KINDS:
        raw = dict(SCALING, estimator=estimator,
                   replications=block_replications(2000 * min(SCALING["p_grid"])) + 1)
        assert cells(run(raw, grid)) == cells(run(raw, [500]))

    cfg = ExperimentConfig.from_dict(DECOMPOSE)

    def decompose_rows(t_grid, at):
        job = (cfg.process, t_grid, cfg.kernel)
        [blocks] = processes.map_replication_blocks(_decompose_block, [job],
                                                    block_replications(2000) + 1,
                                                    [max(t_grid)], threads=threads)
        return np.concatenate([block[at] for block in blocks])

    np.testing.assert_array_equal(decompose_rows(grid, 1), decompose_rows([500], 0))


@pytest.mark.parametrize("raw", [
    tail_config(t_grid=[30, 60], replications=24),
    # the Monte Carlo theta is chunked by the same budget, one draw a chunk at
    # budget 1; 50,000 draws keep its se within the x grid's precision guard
    tail_config(t_grid=[30, 60], replications=24, theta={"mode": "mc", "draws": 50_000},
                process=dict(COPULA, cross_correlation={"kind": "equicorrelation", "rho": 0.6})),
    tail_config(t_grid=[30, 60], replications=24, process=CHAIN, kernel=MATCH_KERNEL),
    tail_config(t_grid=[30, 60], replications=24, process={"kind": "ar1", "coefficient": 0.6},
                kernel={"kind": "mean", "bound": 10.0}, theta={"mode": "exact-zero"}),
    tail_config(t_grid=[30, 60], replications=24, process={"kind": "m_dependent", "window": 7},
                kernel={"kind": "mean", "bound": 10.0}, theta={"mode": "exact-zero"}),
    dict(SCALING, estimator="kendall", replications=6),
    dict(SCALING, estimator="spearman", replications=6),
    dict(DECOMPOSE, replications=12),
], ids=["tail-identity", "tail-equicorrelated", "tail-table", "tail-mean",
        "tail-m-dependent", "scaling-kendall", "scaling-spearman", "decompose-check"])
def test_block_size_does_not_change_the_data(monkeypatch, tmp_path, raw):
    """Blocks of one path, the default budget and one block for the whole
    run write byte-identical data blocks and CSVs."""
    texts = []
    for budget in (1, processes.BLOCK_VALUES, 1 << 62):
        monkeypatch.setattr(processes, "BLOCK_VALUES", budget)
        out = tmp_path / str(budget)
        written = emit_outputs(run_experiment(ExperimentConfig.from_dict(raw)), str(out))
        texts.append([json.dumps(json.loads((out / "result.json").read_text())["data"])] +
                     [Path(p).read_text() for p in written if not p.endswith("result.json")])
    assert texts[0] == texts[1] == texts[2]


def test_explicit_cross_correlation_is_the_matrix_it_spells_out():
    """An explicit [[1, 0.5], [0.5, 1]] and equicorrelation at rho = 0.5 are the
    same matrix, so a tail run writes the same data block with either."""
    def data(cross_correlation):
        return run_experiment(ExperimentConfig.from_dict(tail_config(
            process=dict(COPULA, cross_correlation=cross_correlation), replications=50,
            theta={"mode": "mc", "draws": 50_000}))).data
    assert (data({"kind": "explicit", "matrix": [[1, 0.5], [0.5, 1]]})
            == data({"kind": "equicorrelation", "rho": 0.5}))


# one small config per experiment
SMALL_RUNS = {
    "simulate": {"schema_version": 1, "experiment": "simulate", "seed": 1, "process": CHAIN,
                 "length": 6},
    "tail": tail_config(t_grid=[8, 16], replications=20),
    "scaling": dict(SCALING, replications=3),
    "bias-curve": {"schema_version": 1, "experiment": "bias-curve", "seed": 1,
                   "process": CHAIN, "kernel": MATCH_KERNEL, "t_grid": [10, 20]},
    "decompose-check": dict(DECOMPOSE, replications=3),
    "mixing-profile": {"schema_version": 1, "experiment": "mixing-profile", "seed": 1,
                       "process": CHAIN, "lags": [1, 2],
                       "conditional": {"conditioning": [[0, 0]], "block_len": 1}},
    "mgf-check": {"schema_version": 1, "experiment": "mgf-check", "seed": 1, "summands": 4,
                  "distribution": "uniform", "eta_points": 3, "samples": 100,
                  "summand_kappa": 0.1},
}


@pytest.mark.parametrize("experiment", list(SMALL_RUNS))
def test_a_run_is_what_emit_outputs_writes(tmp_path, experiment):
    """For every experiment, result.json holds the run's data block and the
    CSV files written are its tables, by name."""
    assert set(SMALL_RUNS) == set(harness.EXPERIMENTS)
    run = run_experiment(ExperimentConfig.from_dict(SMALL_RUNS[experiment]))
    written = emit_outputs(run, str(tmp_path))
    assert json.loads((tmp_path / "result.json").read_text())["data"] == run.data
    assert run.data["experiment"] == experiment
    assert {Path(p).name for p in written if p.endswith(".csv")} == set(run.tables)
    assert json.loads((tmp_path / "config.json").read_text()) == run.config


def test_block_replications_follow_the_value_budget():
    """A tail-kendall path (T = 2000, two coordinates) and a scaling path at
    p = 40 hold 4000 and 80000 values: 262 and 13 of them fill 2^20."""
    assert processes.BLOCK_VALUES == 1 << 20
    assert block_replications(2000 * 2) == 262
    assert block_replications(2000 * 40) == 13
    assert block_replications(1 << 21) == 1


def test_tail_counts_consistent_and_theta_exact_zero():
    cfg = ExperimentConfig.from_dict(tail_config())
    exp = run_experiment(cfg).data
    assert exp["theta"] == 0.0 and exp["theta_mode"] == "exact-independent"
    for curve in exp["curves"]:
        assert all(0 <= c <= cfg.replications for c in curve["counts"])
        assert curve["counts"] == sorted(curve["counts"], reverse=True)
        for c, p, se in zip(curve["counts"], curve["empirical"], curve["stderr"]):
            assert p == c / cfg.replications
            assert se == pytest.approx(math.sqrt(p * (1 - p) / cfg.replications))


def test_tail_matches_the_exact_null_law_of_kendall_tau():
    """With independent coordinates and no temporal dependence every rank
    permutation is equally likely, so the inversion count has the Mahonian
    law and P(|tau| >= x) is exact. Every tail point of a run lies within
    |z| <= 4 of it, z in binomial standard errors of the exact probability;
    a counter that loses inversions, or paths that keep a temporal
    coefficient, miss by far more."""
    perms = np.array(list(itertools.permutations(range(6))))
    inversions = (perms[:, :, None] > perms[:, None, :]).sum(axis=(1, 2), where=np.triu(
        np.ones((6, 6), dtype=bool), 1))
    assert np.allclose(mahonian_law(6), np.bincount(inversions) / len(perms), rtol=0, atol=1e-15)

    cfg = ExperimentConfig.from_dict(tail_config(
        seed=11, process=dict(COPULA, temporal_coefficient=0.0), t_grid=[250, 500],
        x_grid=[0.03, 0.06, 0.09], replications=8000))
    exp = run_experiment(cfg).data
    assert exp["theta"] == 0.0 and exp["theta_mode"] == "exact-independent"
    for curve in exp["curves"]:
        N = math.comb(curve["T"], 2)
        tau = (N - 2 * np.arange(N + 1)) / N  # tau of each inversion count, as the harness has it
        law = mahonian_law(curve["T"])
        for x, p_hat in zip(curve["x"], curve["empirical"]):
            p = law[np.abs(tau - exp["theta"]) >= x].sum()
            z = (p_hat - p) / math.sqrt(p * (1 - p) / cfg.replications)
            assert abs(z) <= 4.0, (curve["T"], x, p_hat, p, z)


def test_tail_chain_theta_exact():
    cfg = ExperimentConfig.from_dict(tail_config(
        process=CHAIN, kernel=MATCH_KERNEL, t_grid=[30], replications=50))
    exp = run_experiment(cfg).data
    assert exp["theta"] == pytest.approx(0.0, abs=1e-14)
    assert exp["theta_mode"] == "exact-chain"


def test_tail_mc_oracle_and_precision_guard():
    cfg = ExperimentConfig.from_dict(tail_config(
        theta={"mode": "mc", "draws": 200_000}, replications=20))
    exp = run_experiment(cfg).data
    assert exp["theta_mode"] == "mc"
    assert abs(exp["theta"]) < 5 * exp["theta_se"] + 1e-12
    tight = ExperimentConfig.from_dict(tail_config(
        theta={"mode": "mc", "draws": 10_000},
        x_grid=[0.0001, 0.0002], replications=20))
    with pytest.raises(ConfigError):
        run_experiment(tight)


def test_calibrate_from_tail_round_trip():
    cfg = ExperimentConfig.from_dict(tail_config(
        t_grid=[60, 120], replications=400))
    run = run_experiment(cfg)
    cal = calibrate_from_tail(run, train_t=[60, 120], c4=1.0)
    for c in run.data["curves"]:
        for x, p in zip(c["x"], c["empirical"]):
            point = TailPoint(x=x, T=c["T"], M=run.data["kernel_bound"], probability=p)
            assert dominates(cal, point, tol=1e-12)
    with pytest.raises(ConfigError):
        calibrate_from_tail(run, train_t=[999])


def test_bias_curve_match_kernel():
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "bias-curve", "seed": 9,
        "process": CHAIN, "kernel": MATCH_KERNEL,
        "t_grid": [10, 20, 40, 80], "order": 2,
    })
    run = run_experiment(cfg)
    assert len(run.data["rows"]) == 4
    biases = [r["bias"] for r in run.data["rows"]]
    assert all(b > 0 for b in biases)
    assert biases == sorted(biases, reverse=True)
    assert run.data["loglog_slope"] < 0.02
    assert "bias.csv" in run.tables


def test_bias_curve_iid_chain_zero():
    iid = {"kind": "markov_chain", "transition": [[0.5, 0.5], [0.5, 0.5]]}
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "bias-curve", "seed": 9,
        "process": iid, "kernel": MATCH_KERNEL, "t_grid": [10, 25], "order": 2,
    })
    rep = run_experiment(cfg).data
    assert all(r["bias"] <= 1e-13 for r in rep["rows"])
    assert rep["loglog_slope"] is None


def test_decompose_check_reads_the_conditional_means_once_at_the_largest_t(monkeypatch):
    """The gap tables of a shorter T are gap prefixes of the largest T's, so
    the one check at max(t_grid) gives the maximum over the grid."""
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "decompose-check", "seed": 21,
        "process": {"kind": "markov_chain",
                    "transition": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.1, 0.6]]},
        "kernel": {"kind": "table", "order": 3, "state_count": 3,
                   "entries": [[[0, 1, 2], 1.0], [[0, 0, 1], -0.5], [[2, 2, 2], 0.25]]},
        "t_grid": [30, 9, 17], "order": 3, "replications": 2,
    })
    check = harness.check_zero_conditional_means
    over_grid = max(check(cfg.process.chain, cfg.kernel, T) for T in cfg.t_grid)
    seen = []
    monkeypatch.setattr(harness, "check_zero_conditional_means",
                        lambda *args: seen.append(args[2]) or check(*args))
    assert run_experiment(cfg).data["conditional_mean_dev"] == over_grid
    assert seen == [30]


def test_decompose_check_passes():
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "decompose-check", "seed": 21,
        "process": CHAIN, "kernel": MATCH_KERNEL,
        "t_grid": [12, 20], "order": 2, "replications": 25,
    })
    run = run_experiment(cfg)
    assert run.all_ok
    assert run.data["max_residual"] <= 1e-10
    assert run.data["max_b_ratio"] <= 1.0
    assert run.data["conditional_mean_dev"] <= 1e-10
    cfg.budget = 10.0
    with pytest.raises(BudgetError):
        run_experiment(cfg)


def test_mixing_profile_outputs():
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "mixing-profile", "seed": 3,
        "process": CHAIN, "lags": [1, 2, 3, 4, 5, 6],
        "conditional": {"conditioning": [[0, 0]], "block_len": 1},
    })
    res = run_experiment(cfg)
    assert set(res.data["profiles"]) == {"alpha", "beta", "phi", "conditional_phi"}
    beta = res.data["profiles"]["beta"]
    assert beta["values"][0] == pytest.approx(0.25, abs=1e-13)
    assert beta["fitted_gamma"] == pytest.approx(math.log(2), abs=1e-8)
    tables = res.tables
    assert file_text("mixing_beta.csv", tables["mixing_beta.csv"]).startswith("lag,value")


def test_mgf_check_passes_and_fails():
    base = {
        "schema_version": 1, "experiment": "mgf-check", "seed": 8,
        "summands": 12, "distribution": "rademacher", "eta_points": 25,
        "samples": 50_000, "summand_sigma": 1.0, "summand_kappa": 0.1,
    }
    for distribution in ("rademacher", "uniform"):
        rep = run_experiment(ExperimentConfig.from_dict(dict(base, distribution=distribution)))
        assert rep.all_ok
        # the default eta_max, 0.99 / (summands * summand_kappa), is inside both domains
        assert rep.data["per_summand_ok"] and rep.data["dominance_ok"]
        assert len(rep.data["eta"]) == 25
    # an undersized envelope must be caught
    bad = dict(base, summand_sigma=0.05, summand_kappa=0.0, eta_max=1.0)
    rep_bad = run_experiment(ExperimentConfig.from_dict(bad))
    assert not rep_bad.all_ok
    # a given eta_max tops the grid, below 1 / (summands * summand_kappa) as well
    capped = run_experiment(ExperimentConfig.from_dict(dict(base, eta_max=0.5)))
    assert capped.data["eta"][-1] == 0.5 and capped.all_ok
    # eta_max * 13 / 13 rounds up to 1/49, the envelope's limit; the top stays eta_max
    under = math.nextafter(1 / 49, 0)
    edge = run_experiment(ExperimentConfig.from_dict(dict(
        base, summands=1, summand_kappa=49.0, eta_points=13, eta_max=under))).data
    assert edge["eta"][-1] == under and max(edge["eta"]) == under


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.floats(-1e6, 1e6).map(lambda v: v + 0.0),  # no -0.0
                                 st.sampled_from([0.0, 0.125, 0.3, 2.0])),
                       min_size=1, max_size=40))
@example(values=[0.3])
@example(values=[0.125, 0.125])
@example(values=[2.0, 0.3])
@example(values=[0.3, 0.1, 0.3, 0.3, 0.2])
def test_quartiles_are_numpys_median_and_linear_quantiles(values):
    """Ties (the sampled constants) and n = 1, 2 included, bit for bit.
    Deviations are never -0.0, which ties with 0.0 in either order."""
    devs = np.array(values)
    want = (np.quantile(devs, 0.25), np.median(devs), np.quantile(devs, 0.75))
    assert [float(v).hex() for v in harness._quartiles(devs)] == [float(v).hex() for v in want]


def test_scaling_run_and_budget(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "scaling", "seed": 77,
        "process": COPULA, "t_grid": [32, 64], "p_grid": [3],
        "replications": 12, "estimator": "spearman",
    })
    run = run_experiment(cfg)
    assert len(run.data["report"]["cells"]) == 2
    text = file_text("scaling.csv", run.tables["scaling.csv"])
    assert text.splitlines()[0] == "T,p,median_dev,ratio_to_rate"
    emit_outputs(run, str(tmp_path / "scaling"))
    assert (tmp_path / "scaling" / "scaling.csv").exists()
    tiny = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "scaling", "seed": 77,
        "process": COPULA, "t_grid": [32, 64], "p_grid": [3],
        "replications": 12, "estimator": "spearman", "budget": 10.0,
    })
    with pytest.raises(BudgetError):
        run_experiment(tiny)


@pytest.mark.parametrize("estimator", ["kendall", "spearman"])
def test_scaling_budget_counts_the_evaluator_used(estimator):
    """A 5 x 5 grid up to T = 8000 and p = 160 at 10 replications costs
    T log2 T per Kendall pair or T p^2 per Spearman Gram, far under the
    default budget, though C(T, 2) per pair would exceed it; an absurd grid
    is still refused before any work."""
    grid = {"schema_version": 1, "experiment": "scaling", "seed": 77, "process": COPULA,
            "t_grid": [500, 1000, 2000, 4000, 8000], "p_grid": [10, 20, 40, 80, 160],
            "replications": 10, "estimator": estimator}
    cfg = ExperimentConfig.from_dict(grid)
    pair_terms = 10 * sum(math.comb(T, 2) * math.comb(p, 2)
                          for T in cfg.t_grid for p in cfg.p_grid)
    assert pair_terms > DEFAULT_BUDGET
    assert estimate_scaling_budget(cfg) < 0.1 * DEFAULT_BUDGET
    absurd = ExperimentConfig.from_dict(dict(grid, t_grid=[10 ** 6], p_grid=[10 ** 4],
                                             replications=1000))
    with pytest.raises(BudgetError):
        run_experiment(absurd)


@pytest.mark.parametrize("estimator", ESTIMATOR_KINDS)
def test_scaling_reads_the_hidim_estimators_at_call_time(monkeypatch, estimator):
    """perfbench/spans.py traces the scaling estimators by rebinding their
    names in ``hidim``; a scaling run calls the rebound names, once per
    replication and (T, p) cell."""
    calls = dict.fromkeys(("kendall_matrix", "spearman_matrix", "max_norm_deviation"), 0)

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(hidim, name, counting(name, getattr(hidim, name)))
    run_experiment(ExperimentConfig.from_dict(dict(SCALING, estimator=estimator)))
    cells = SCALING["replications"] * len(SCALING["t_grid"]) * len(SCALING["p_grid"])
    assert calls == {"kendall_matrix": cells * (estimator == "kendall"),
                     "spearman_matrix": cells * (estimator == "spearman"),
                     "max_norm_deviation": cells}
