import json

import pytest

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
