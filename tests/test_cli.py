import json
import os
import subprocess
import sys

import pytest

import tsustat
from tsustat.cli import main
from tsustat.harness import (ExperimentConfig, calibrate_from_tail, load_tail_result,
                             run_experiment)

CHAIN = {"kind": "markov_chain", "transition": [[0.75, 0.25], [0.25, 0.75]]}
MATCH_KERNEL = {"kind": "table", "order": 2, "state_count": 2,
                "entries": [[[0, 0], 0.5], [[0, 1], -0.5], [[1, 1], 0.5]]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_simulate_writes_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "schema_version": 1, "experiment": "simulate", "seed": 4,
        "process": {"kind": "ar1", "coefficient": 0.5}, "length": 25,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "path.csv").read_text().splitlines()
    assert lines[0] == "t,x1" and len(lines) == 26


def test_tail_cli_and_outputs(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1, "experiment": "tail", "seed": 5,
        "process": {"kind": "gaussian_copula_vector", "dimension": 2,
                    "temporal_coefficient": 0.4,
                    "cross_correlation": {"kind": "identity"}},
        "kernel": {"kind": "sign_product"},
        "t_grid": [30, 60], "x_grid": [0.1, 0.2, 0.4], "replications": 80,
    })
    out = tmp_path / "tailout"
    assert main(["tail", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["data"]["experiment"] == "tail"
    assert (out / "tail_T30.csv").exists() and (out / "tail_T60.csv").exists()
    assert (out / "config.json").exists()

    # calibrate from the emitted result
    assert main(["calibrate", "--result", str(out), "--train", "30,60"]) == 0
    cal = json.loads((out / "calibration.json").read_text())
    assert cal["constants"]["c5"] > 0
    assert set(cal) == {"constants", "capped", "used_points", "slack", "binding_point"}


def test_exit_code_config_error(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 1, "experiment": "tail",
                                  "seed": 5, "bogus": True})
    assert main(["tail", "--config", cfg]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["tail", "--config", missing]) == 2


def test_exit_code_wrong_subcommand(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1, "experiment": "simulate", "seed": 4,
        "process": {"kind": "iid"}, "length": 5,
    })
    assert main(["tail", "--config", cfg]) == 2


def test_exit_code_budget(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1, "experiment": "tail", "seed": 5,
        "process": {"kind": "gaussian_copula_vector", "dimension": 2,
                    "temporal_coefficient": 0.4,
                    "cross_correlation": {"kind": "identity"}},
        "kernel": {"kind": "sign_product"},
        "t_grid": [100], "x_grid": [0.1], "replications": 1000,
    })
    assert main(["tail", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--budget", "10"]) == 3


@pytest.mark.parametrize("mode", ["exact-zero", "auto"])
@pytest.mark.parametrize("bound,code", [(0.1, 2), (50.0, 0)])
def test_exit_code_mean_kernel_bound(tmp_path, mode, bound, code):
    """iid N(0,1) data break a mean kernel bound of 0.1 in both theta modes."""
    cfg = write_config(tmp_path, {
        "schema_version": 1, "experiment": "tail", "seed": 5,
        "process": {"kind": "iid"}, "kernel": {"kind": "mean", "bound": bound},
        "t_grid": [20], "x_grid": [0.1, 0.5], "replications": 10,
        "theta": {"mode": mode, "draws": 1000},
    })
    assert main(["tail", "--config", cfg, "--out", str(tmp_path / "o")]) == code


def test_exit_code_property_failure(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1, "experiment": "mgf-check", "seed": 8,
        "summands": 10, "distribution": "rademacher", "eta_points": 10,
        "samples": 20_000, "summand_sigma": 0.05, "summand_kappa": 0.0,
        "eta_max": 1.0,
    })
    assert main(["mgf-check", "--config", cfg, "--out", str(tmp_path / "m")]) == 4


def test_seed_override_changes_output(tmp_path):
    payload = {
        "schema_version": 1, "experiment": "simulate", "seed": 4,
        "process": {"kind": "iid"}, "length": 10,
    }
    cfg = write_config(tmp_path, payload)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "99",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "path.csv").read_text()
    b = (tmp_path / "b" / "path.csv").read_text()
    assert a != b


def test_decompose_check_cli(tmp_path):
    cfg = write_config(tmp_path, {
        "schema_version": 1, "experiment": "decompose-check", "seed": 21,
        "process": CHAIN, "kernel": MATCH_KERNEL,
        "t_grid": [10], "order": 2, "replications": 5,
    })
    out = tmp_path / "dec"
    assert main(["decompose-check", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "result.json").read_text())["data"]
    assert data["residual_ok"] and data["p1_ok"] and data["p2_ok"]


COPULA = {"kind": "gaussian_copula_vector", "dimension": 2, "temporal_coefficient": 0.4,
          "cross_correlation": {"kind": "identity"}}


def tail_payload(**overrides):
    payload = {"schema_version": 1, "experiment": "tail", "seed": 5, "process": COPULA,
               "kernel": {"kind": "sign_product"}, "t_grid": [30, 60],
               "x_grid": [0.05, 0.1, 0.2, 0.4], "replications": 80}
    payload.update(overrides)
    return payload


def test_calibrate_uses_the_run_constants(tmp_path):
    """The CLI and calibrate_from_tail give the same constants for a run with
    non-default constants; --c4 defaults to the config's c4."""
    payload = tail_payload(constants={"c4": 0.5, "c0": 3})
    out = tmp_path / "tail"
    assert main(["tail", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    assert main(["calibrate", "--result", str(out), "--train", "30,60"]) == 0
    cli = json.loads((out / "calibration.json").read_text())
    exp = run_experiment(ExperimentConfig.from_dict(payload)).result
    assert load_tail_result(str(out)).data_dict() == exp.data_dict()
    api = calibrate_from_tail(exp, train_t=[30, 60])
    assert cli["constants"] == api.constants.to_dict()
    assert cli["constants"]["c4"] == 0.5 and cli["constants"]["c0"] == 3
    assert cli == api.to_dict()


@pytest.mark.parametrize("flag,value", [("--config", "nonexist.json"), ("--seed", "1"),
                                        ("--threads", "2"), ("--budget", "1")])
def test_calibrate_rejects_run_flags(tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--result", str(tmp_path), "--train", "30,60", flag, value])
    assert exc.value.code == 2


def test_calibrate_rejects_non_integer_train(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--result", str(tmp_path), "--train", "30,sixty"])
    assert exc.value.code == 2


@pytest.mark.parametrize("payload,train", [
    (tail_payload(x_grid=[0.05, 0.1]), "30,60"),  # 4 points, calibration needs 5
    (tail_payload(), "30"),                        # a single T
])
def test_calibrate_errors_exit_2(tmp_path, payload, train):
    out = tmp_path / "tail"
    assert main(["tail", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    assert main(["calibrate", "--result", str(out), "--train", train]) == 2
    assert main(["calibrate", "--result", str(tmp_path / "missing"), "--train", train]) == 2


@pytest.mark.parametrize("kernel,T", [({"kind": "spearman_sym"}, 2),
                                      ({"kind": "sign_product"}, 1)])
def test_t_grid_below_kernel_order_exits_2(tmp_path, kernel, T):
    payload = tail_payload(kernel=kernel, t_grid=[T, 30], theta={"mode": "exact-zero"})
    assert main(["tail", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 2


def test_theta_single_draw_exits_2(tmp_path):
    payload = tail_payload(kernel={"kind": "spearman_sym"},
                           theta={"mode": "mc", "draws": 1})
    assert main(["tail", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("order", [-1, 4])
def test_decompose_order_outside_2_3_exits_2(tmp_path, order):
    cfg = write_config(tmp_path, {
        "schema_version": 1, "experiment": "decompose-check", "seed": 21,
        "process": CHAIN, "kernel": MATCH_KERNEL,
        "t_grid": [10], "order": order, "replications": 5,
    })
    assert main(["decompose-check", "--config", cfg, "--out", str(tmp_path / "d")]) == 2


SCALING = {"schema_version": 1, "experiment": "scaling", "seed": 3, "process": COPULA,
           "t_grid": [20], "p_grid": [3], "replications": 2}
MGF = {"schema_version": 1, "experiment": "mgf-check", "seed": 3, "summands": 10,
       "distribution": "rademacher", "eta_points": 4, "samples": 100, "summand_kappa": 0.1}
MIXING = {"schema_version": 1, "experiment": "mixing-profile", "seed": 3, "process": CHAIN,
          "lags": [1, 2, 3]}
CHAIN3 = {"kind": "markov_chain",
          "transition": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]}


@pytest.mark.parametrize("command,payload", [
    ("scaling", dict(SCALING, estimator="pearson")),
    ("scaling", dict(SCALING, t_grid=[2, 20])),
    ("scaling", dict(SCALING, p_grid=[1, 3])),
    ("scaling", dict(SCALING, replications=0)),
    ("scaling", dict(SCALING, process=dict(COPULA, cross_correlation={
        "kind": "equicorrelation", "rho": 0.9}))),
    ("tail", tail_payload(process=CHAIN, t_grid=[30],
                          kernel={"kind": "table", "order": 2, "state_count": 2,
                                  "path": "no-such-table.txt"})),
    ("mgf-check", dict(MGF, summands="ten")),
    ("mgf-check", dict(MGF, summand_sigma=-1.0)),
    ("mixing-profile", dict(MIXING, conditional={"conditioning": [[0, 5]], "block_len": 2})),
    ("mixing-profile", dict(MIXING, lags=[0, 1, 2])),
    ("tail", tail_payload(process={"kind": "iid"}, kernel=MATCH_KERNEL,
                          theta={"mode": "exact-zero"})),
    ("tail", tail_payload(process=CHAIN3, kernel=MATCH_KERNEL)),
    ("tail", tail_payload(process={"kind": "ar1", "coefficient": 0.5},
                          theta={"mode": "exact-zero"})),
    ("tail", tail_payload(process=dict(COPULA, dimension=3), kernel={"kind": "spearman_sym"},
                          theta={"mode": "exact-zero"})),
    ("tail", tail_payload(process=CHAIN, kernel={"kind": "mean"},
                          theta={"mode": "exact-zero"})),
], ids=["scaling-estimator", "scaling-t", "scaling-p", "scaling-replications",
        "scaling-cross-correlation", "table-path", "mgf-summands", "mgf-sigma",
        "conditional-state", "mixing-lag", "table-kernel-iid", "table-kernel-states",
        "rank-kernel-scalar", "rank-kernel-trivariate", "mean-kernel-chain"])
def test_config_errors_in_experiment_bodies_exit_2(tmp_path, command, payload):
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()



ORDER3_KERNEL = {"kind": "table", "order": 3, "state_count": 2,
                 "entries": [[[0, 0, 0], 1.0], [[0, 0, 1], -0.5], [[1, 1, 1], 0.25]]}
BIAS = {"schema_version": 1, "experiment": "bias-curve", "seed": 3, "process": CHAIN,
        "kernel": MATCH_KERNEL, "order": 2, "t_grid": [20, 40]}
DECOMPOSE = {"schema_version": 1, "experiment": "decompose-check", "seed": 3,
             "process": CHAIN, "kernel": ORDER3_KERNEL, "order": 3, "t_grid": [10],
             "replications": 2}


@pytest.mark.parametrize("command,payload", [
    ("bias", dict(BIAS, t_grid=[20, 200])),
    ("decompose-check", dict(DECOMPOSE, t_grid=[10, 50])),
    ("bias", dict(BIAS, order=3)),
    ("decompose-check", dict(DECOMPOSE, order=2)),
], ids=["bias-t-cap", "decompose-t-cap", "bias-order", "decompose-order"])
def test_chain_law_config_errors_exit_2(tmp_path, command, payload):
    """A t_grid value above the exact-enumeration cap, or an order other than
    the table kernel's, is a config error."""
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_chain_law_configs_at_the_caps_run(tmp_path):
    assert main(["bias", "--config", write_config(tmp_path, dict(BIAS, t_grid=[20, 120])),
                 "--out", str(tmp_path / "b")]) == 0
    assert main(["decompose-check", "--config", write_config(tmp_path, DECOMPOSE, "d.json"),
                 "--out", str(tmp_path / "d")]) == 0


def test_mixing_profile_on_an_iid_chain_leaves_the_rate_unset(tmp_path):
    iid = {"kind": "markov_chain", "transition": [[0.5, 0.5], [0.5, 0.5]]}
    out = tmp_path / "m"
    assert main(["mixing-profile", "--config", write_config(tmp_path, dict(MIXING, process=iid)),
                 "--out", str(out)]) == 0
    profiles = json.loads((out / "result.json").read_text())["data"]["profiles"]
    assert all(prof["fitted_gamma"] is None for prof in profiles.values())


_IMPORT_PROBE = """
import json, sys
from tsustat.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_rank_runs_do_not_import_scipy(tmp_path):
    """Rank kernels, their Monte Carlo theta and the Kendall scaling run read
    latent copula paths and never load scipy; a copula ``simulate`` maps to
    uniforms and must load it, so the probe sees the import when it happens."""
    runs = [
        ("tail", tail_payload()),
        ("tail", tail_payload(kernel={"kind": "spearman_sym"}, t_grid=[10], x_grid=[0.2],
                              replications=4, theta={"mode": "mc", "draws": 20_000})),
        ("scaling", SCALING),
        ("simulate", {"schema_version": 1, "experiment": "simulate", "seed": 3,
                      "process": COPULA, "length": 5}),
    ]
    argv = [[cmd, "--config", write_config(tmp_path, payload, f"c{i}.json"),
             "--out", str(tmp_path / f"o{i}")] for i, (cmd, payload) in enumerate(runs)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(tsustat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, True]


_BENCHMARK_PROBE = """
import json
from perfbench.spans import SpanRecorder, install
from perfbench.workloads import spot_checks
print(json.dumps([install(SpanRecorder()), spot_checks([])]))
"""


def test_benchmark_hooks_find_their_names():
    """The benchmark wraps named layers and its spot-checks import named
    oracles; a refactor that moves one of those names fails here."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "."]))
    proc = subprocess.run([sys.executable, "-c", _BENCHMARK_PROBE], cwd=root,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
