import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsustat import hidim, processes
from tsustat.harness import (DEFAULT_BUDGET, BudgetError, ConfigError, ExperimentConfig,
                             _decompose_block, _oracle_samples, _u_table_path,
                             calibrate_from_tail, emit_outputs, estimate_scaling_budget,
                             estimate_tail_budget, file_text, run_experiment)
from tsustat.hidim import ESTIMATOR_KINDS
from tsustat.kernels import table_kernel
from tsustat.processes import SeriesPath, block_replications
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
    exp = run_experiment(cfg).result
    assert exp.replications == 0
    for curve in exp.curves:
        assert curve.empirical == [] and curve.counts == [0] * 5
        assert len(curve.bound) == 5
    tables = exp.csv_tables()
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
    exp = run_experiment(cfg).result
    assert exp.curves[0].counts[0] <= cfg.replications


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
    samples = _oracle_samples(cfg)
    points = samples if samples.shape[2] > 1 else samples[:, :, 0]
    want = np.array([cfg.kernel.fn(*points[i]) for i in range(samples.shape[0])])
    np.testing.assert_array_equal(cfg.kernel.sample_fn(samples), want)


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


@pytest.mark.parametrize("raw,path_values", [
    (tail_config(t_grid=[8, 12, 16]), 32),
    (dict(SCALING, estimator="kendall"), None),
    (dict(SCALING, estimator="spearman"), None),
    (DECOMPOSE, 20),
], ids=["tail", "scaling-kendall", "scaling-spearman", "decompose-check"])
def test_each_run_opens_one_pool(monkeypatch, small_blocks, raw, path_values):
    """A multi-worker run maps all its replications through one pool. Tail
    and decompose-check runs hold two blocks of their paths' values; a
    scaling run holds two jobs."""
    if path_values is not None:
        raw = dict(raw, replications=block_replications(path_values) + 1)
    opened = []

    class RecordingPool:  # in-process stand-in for ProcessPoolExecutor
        def __init__(self, threads):
            opened.append(threads)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(processes, "_open_pool", RecordingPool)
    cfg = ExperimentConfig.from_dict(raw)
    cfg.threads = 2
    pooled = run_experiment(cfg).result.data_dict()
    assert opened == [2]
    assert pooled == run_experiment(ExperimentConfig.from_dict(raw)).result.data_dict()


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
        return run_experiment(cfg).result

    for tail in (tail_config(replications=block_replications(2000 * 2) + 3),
                 tail_config(process={"kind": "ar1", "coefficient": 0.6}, replications=64,
                             kernel={"kind": "mean", "bound": 10.0},
                             theta={"mode": "exact-zero"}),
                 tail_config(process=CHAIN, kernel=MATCH_KERNEL, replications=24)):
        assert run(tail, grid).curves[1] == run(tail, [500]).curves[0]

    def cells(report):
        return [(c.T, c.p, c.median_deviation, c.q25, c.q75, c.ratio_to_rate)
                for c in report.cells if c.T == 500]

    for estimator in ESTIMATOR_KINDS:
        raw = dict(SCALING, estimator=estimator,
                   replications=block_replications(2000 * min(SCALING["p_grid"])) + 1)
        assert cells(run(raw, grid)) == cells(run(raw, [500]))

    cfg = ExperimentConfig.from_dict(DECOMPOSE)

    def decompose_rows(t_grid, at):
        job = (cfg.process, t_grid, cfg.kernel.table, cfg.order)
        [blocks] = processes.map_replication_blocks(_decompose_block, [job],
                                                    block_replications(2000) + 1,
                                                    [max(t_grid)], threads=threads)
        return np.concatenate([block[at] for block in blocks])

    np.testing.assert_array_equal(decompose_rows(grid, 1), decompose_rows([500], 0))


@pytest.mark.parametrize("raw", [
    tail_config(t_grid=[30, 60], replications=24),
    tail_config(t_grid=[30, 60], replications=24,
                process=dict(COPULA, cross_correlation={"kind": "equicorrelation", "rho": 0.6})),
    tail_config(t_grid=[30, 60], replications=24, process=CHAIN, kernel=MATCH_KERNEL),
    tail_config(t_grid=[30, 60], replications=24, process={"kind": "ar1", "coefficient": 0.6},
                kernel={"kind": "mean", "bound": 10.0}, theta={"mode": "exact-zero"}),
    dict(SCALING, estimator="kendall", replications=6),
    dict(SCALING, estimator="spearman", replications=6),
    dict(DECOMPOSE, replications=12),
], ids=["tail-identity", "tail-equicorrelated", "tail-table", "tail-mean",
        "scaling-kendall", "scaling-spearman", "decompose-check"])
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


def test_block_replications_follow_the_value_budget():
    """A tail-kendall path (T = 2000, two coordinates) and a scaling path at
    p = 40 hold 4000 and 80000 values: 262 and 13 of them fill 2^20."""
    assert processes.BLOCK_VALUES == 1 << 20
    assert block_replications(2000 * 2) == 262
    assert block_replications(2000 * 40) == 13
    assert block_replications(1 << 21) == 1


def test_tail_counts_consistent_and_theta_exact_zero():
    cfg = ExperimentConfig.from_dict(tail_config())
    exp = run_experiment(cfg).result
    assert exp.theta == 0.0 and exp.theta_mode == "exact-independent"
    for curve in exp.curves:
        assert all(0 <= c <= cfg.replications for c in curve.counts)
        assert curve.counts == sorted(curve.counts, reverse=True)
        for c, p, se in zip(curve.counts, curve.empirical, curve.stderr):
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
    exp = run_experiment(cfg).result
    assert exp.theta == 0.0 and exp.theta_mode == "exact-independent"
    for curve in exp.curves:
        N = math.comb(curve.T, 2)
        tau = (N - 2 * np.arange(N + 1)) / N  # tau of each inversion count, as the harness has it
        law = mahonian_law(curve.T)
        for x, p_hat in zip(curve.x, curve.empirical):
            p = law[np.abs(tau - exp.theta) >= x].sum()
            z = (p_hat - p) / math.sqrt(p * (1 - p) / cfg.replications)
            assert abs(z) <= 4.0, (curve.T, x, p_hat, p, z)


def test_tail_chain_theta_exact():
    cfg = ExperimentConfig.from_dict(tail_config(
        process=CHAIN, kernel=MATCH_KERNEL, t_grid=[30], replications=50))
    exp = run_experiment(cfg).result
    assert exp.theta == pytest.approx(0.0, abs=1e-14)
    assert exp.theta_mode == "exact-chain"


def test_tail_mc_oracle_and_precision_guard():
    cfg = ExperimentConfig.from_dict(tail_config(
        theta={"mode": "mc", "draws": 200_000}, replications=20))
    exp = run_experiment(cfg).result
    assert exp.theta_mode == "mc"
    assert abs(exp.theta) < 5 * exp.theta_se + 1e-12
    tight = ExperimentConfig.from_dict(tail_config(
        theta={"mode": "mc", "draws": 10_000},
        x_grid=[0.0001, 0.0002], replications=20))
    with pytest.raises(ConfigError):
        run_experiment(tight)


def test_calibrate_from_tail_round_trip():
    cfg = ExperimentConfig.from_dict(tail_config(
        t_grid=[60, 120], replications=400))
    exp = run_experiment(cfg).result
    cal = calibrate_from_tail(exp, train_t=[60, 120], c4=1.0)
    for p in exp.tail_points([60, 120]):
        assert cal.dominates(p, tol=1e-12)
    with pytest.raises(ConfigError):
        calibrate_from_tail(exp, train_t=[999])


def test_bias_curve_match_kernel():
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "bias-curve", "seed": 9,
        "process": CHAIN, "kernel": MATCH_KERNEL,
        "t_grid": [10, 20, 40, 80], "order": 2,
    })
    rep = run_experiment(cfg).result
    assert len(rep.rows) == 4
    biases = [r["bias"] for r in rep.rows]
    assert all(b > 0 for b in biases)
    assert biases == sorted(biases, reverse=True)
    assert rep.loglog_slope < 0.02
    assert "bias.csv" in rep.csv_tables()


def test_bias_curve_iid_chain_zero():
    iid = {"kind": "markov_chain", "transition": [[0.5, 0.5], [0.5, 0.5]]}
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "bias-curve", "seed": 9,
        "process": iid, "kernel": MATCH_KERNEL, "t_grid": [10, 25], "order": 2,
    })
    rep = run_experiment(cfg).result
    assert all(r["bias"] <= 1e-13 for r in rep.rows)
    assert rep.loglog_slope is None


def test_decompose_check_passes():
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "decompose-check", "seed": 21,
        "process": CHAIN, "kernel": MATCH_KERNEL,
        "t_grid": [12, 20], "order": 2, "replications": 25,
    })
    rep = run_experiment(cfg).result
    assert rep.all_ok
    assert rep.max_residual <= 1e-10
    assert rep.max_b_ratio <= 1.0
    assert rep.conditional_mean_dev <= 1e-10
    cfg.budget = 10.0
    with pytest.raises(BudgetError):
        run_experiment(cfg)


def test_mixing_profile_outputs():
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "mixing-profile", "seed": 3,
        "process": CHAIN, "lags": [1, 2, 3, 4, 5, 6],
        "conditional": {"conditioning": [[0, 0]], "block_len": 1},
    })
    res = run_experiment(cfg).result
    assert set(res.profiles) == {"alpha", "beta", "phi", "conditional_phi"}
    beta = res.profiles["beta"]
    assert beta.values[0] == pytest.approx(0.25, abs=1e-13)
    assert beta.fitted_gamma == pytest.approx(math.log(2), abs=1e-8)
    tables = res.csv_tables()
    assert file_text("mixing_beta.csv", tables["mixing_beta.csv"]).startswith("lag,value")


def test_mgf_check_passes_and_fails():
    base = {
        "schema_version": 1, "experiment": "mgf-check", "seed": 8,
        "summands": 12, "distribution": "rademacher", "eta_points": 25,
        "samples": 50_000, "summand_sigma": 1.0, "summand_kappa": 0.1,
    }
    rep = run_experiment(ExperimentConfig.from_dict(base)).result
    assert rep.all_ok
    assert len(rep.eta) == 25
    # an undersized envelope must be caught
    bad = dict(base, summand_sigma=0.05, summand_kappa=0.0, eta_max=1.0)
    rep_bad = run_experiment(ExperimentConfig.from_dict(bad)).result
    assert not rep_bad.all_ok
    # a given eta_max tops the grid, below 1 / (summands * summand_kappa) as well
    capped = run_experiment(ExperimentConfig.from_dict(dict(base, eta_max=0.5))).result
    assert capped.eta[-1] == 0.5 and capped.all_ok
    # eta_max * 13 / 13 rounds up to 1/49, the envelope's limit; the top stays eta_max
    under = math.nextafter(1 / 49, 0)
    edge = run_experiment(ExperimentConfig.from_dict(dict(
        base, summands=1, summand_kappa=49.0, eta_points=13, eta_max=under))).result
    assert edge.eta[-1] == under and max(edge.eta) == under


def test_scaling_run_and_budget(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "schema_version": 1, "experiment": "scaling", "seed": 77,
        "process": COPULA, "t_grid": [32, 64], "p_grid": [3],
        "replications": 12, "estimator": "spearman",
    })
    run = run_experiment(cfg)
    assert len(run.result.cells) == 2
    text = file_text("scaling.csv", run.result.csv_tables()["scaling.csv"])
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
