import json
import math
import os
import subprocess
import sys

import pytest

import tsustat
from tsustat import harness
from tsustat.cli import _COMMANDS, _SUBCOMMANDS, _build_parser, main
from tsustat.kernels import load_table_kernel
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
    data = json.loads((tmp_path / "out" / "result.json").read_text())["data"]
    assert data == {"experiment": "simulate", "length": 25, "dimension": 1}
    assert json.loads((tmp_path / "out" / "config.json").read_text())["length"] == 25


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
    run = run_experiment(ExperimentConfig.from_dict(payload))
    assert load_tail_result(str(out)).data == run.data
    api = calibrate_from_tail(run, train_t=[30, 60])
    assert cli["constants"] == api["constants"]
    assert cli["constants"]["c4"] == 0.5 and cli["constants"]["c0"] == 3
    assert cli == api


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
def test_calibrate_errors_exit_2(tmp_path, capsys, payload, train):
    out = tmp_path / "tail"
    assert main(["tail", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    assert main(["calibrate", "--result", str(out), "--train", train]) == 2
    assert main(["calibrate", "--result", str(tmp_path / "missing"), "--train", train]) == 2
    # a run of another experiment, and a tail run whose curve lost its empirical values
    bias = tmp_path / "bias"
    assert main(["bias", "--config", write_config(tmp_path, BIAS, "bias.json"),
                 "--out", str(bias)]) == 0
    assert main(["calibrate", "--result", str(bias), "--train", train]) == 2
    assert "needs the result of a tail experiment" in capsys.readouterr().err
    written = (out / "result.json").read_text()
    result = json.loads(written)
    del result["data"]["curves"][0]["empirical"]
    (out / "result.json").write_text(json.dumps(result))
    assert main(["calibrate", "--result", str(out), "--train", train]) == 2
    err = capsys.readouterr().err
    assert f"malformed tail run in {out}" in err and "curve 0" in err
    # values of the wrong type, or an empirical curve shorter than its x grid
    n = len(payload["x_grid"])
    for key, value, name in [("x", ["a"] * n, "curves[0].x[0]"),
                             ("empirical", [None] * n, "curves[0].empirical[0]"),
                             ("empirical", [0.5] * (n - 1), "one probability per x"),
                             ("T", str(payload["t_grid"][0]), "curves[0].T"),
                             ("kernel_bound", "1", "kernel_bound")]:
        result = json.loads(written)
        data = result["data"] if key == "kernel_bound" else result["data"]["curves"][0]
        data[key] = value
        (out / "result.json").write_text(json.dumps(result))
        assert main(["calibrate", "--result", str(out), "--train", train]) == 2, key
        err = capsys.readouterr().err
        assert f"malformed tail run in {out}" in err and name in err, err
        assert "Traceback" not in err
    # a dry run has no empirical values to calibrate on
    dry = tmp_path / "dry"
    assert main(["tail", "--config", write_config(tmp_path, dict(payload, replications=0),
                                                  "dry.json"), "--out", str(dry)]) == 0
    assert main(["calibrate", "--result", str(dry), "--train", train]) == 2
    assert "no tail curves at T in" in capsys.readouterr().err


@pytest.mark.parametrize("c4", ["nan", "inf"])
def test_calibrate_non_finite_c4_exits_2(tmp_path, capsys, c4):
    """A non-finite c4 would write bare NaN tokens, which are not JSON."""
    out = tmp_path / "tail"
    assert main(["tail", "--config", write_config(tmp_path, tail_payload()),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["calibrate", "--result", str(out), "--train", "30,60", "--c4", c4]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "c4" in err
    assert not (out / "calibration.json").exists()


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


@pytest.mark.parametrize("draws", [1000, 10 ** 12])
def test_mc_theta_on_a_chain_exits_2_at_any_draw_count(tmp_path, capsys, draws):
    """A markov_chain has no independent-sampling oracle, so a Monte Carlo
    theta is a config error, found before the budget counts its draws."""
    payload = tail_payload(process=CHAIN, kernel=MATCH_KERNEL,
                           theta={"mode": "mc", "draws": draws})
    assert main(["tail", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "oracle" in err and "Traceback" not in err
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
SIMULATE = {"schema_version": 1, "experiment": "simulate", "seed": 3,
            "process": {"kind": "iid"}, "length": 5}
BIAS = {"schema_version": 1, "experiment": "bias-curve", "seed": 3, "process": CHAIN,
        "kernel": MATCH_KERNEL, "order": 2, "t_grid": [20, 40]}


def test_one_parser_serves_every_main_call(tmp_path, capsys):
    """Parsers are built once per process and subcommand. One process runs
    ``tail``, an argparse error (exit 2), ``bias`` and ``calibrate`` on the
    cached parsers; each call gives the exit code, messages and files of the
    same call on a freshly built parser."""
    tail_cfg = write_config(tmp_path, tail_payload(), "tail.json")
    bias_cfg = write_config(tmp_path, BIAS, "bias.json")

    def calls(out):
        return [["tail", "--config", tail_cfg, "--out", str(out / "tail")],
                ["tail", "--config", tail_cfg, "--threads", "two"],
                ["bias", "--config", bias_cfg, "--out", str(out / "bias")],
                ["calibrate", "--result", str(out / "tail"), "--train", "30,60",
                 "--out", str(out / "cal")]]

    def run(argv, out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        text = capsys.readouterr()
        return code, text.out.replace(str(out), "OUT"), text.err

    def files(out):
        texts = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                text = path.read_text()
                if path.name == "result.json":
                    text = json.loads(text)["data"]  # meta holds wall times
                texts[str(path.relative_to(out))] = text
        return texts

    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    parser = _build_parser()
    got = [run(argv, shared) for argv in calls(shared)]
    assert _build_parser() is parser
    want = []
    for argv in calls(fresh):
        _build_parser.cache_clear()
        want.append(run(argv, fresh))
    assert [code for code, _, _ in got] == [0, 2, 0, 0]
    assert "invalid int value: 'two'" in got[1][2]
    assert got == want
    assert files(shared) == files(fresh)
    assert {"tail/tail_T30.csv", "bias/result.json", "cal/calibration.json"} <= set(files(fresh))


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["nosuch"], *[[name, "--help"] for name in _COMMANDS],
    ["tail"], ["calibrate", "--train", "30"], ["tail", "--config", "c.json", "--bogus"],
    ["bias", "--config", "c.json", "extra"], ["tail", "--config", "c.json", "--threads", "two"],
    ["calibrate", "--result", "r", "--train", "3,x"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_full_parser(argv, capsys):
    """``main`` builds only the parser of the subcommand its call names
    first. Help, usage and error output, and the exit code, are those of
    the full parser."""
    def parse(parse_args):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        return exc.value.code, *capsys.readouterr()

    want = parse(_build_parser().parse_args)
    assert want[0] in (0, 2)
    assert parse(main) == want
    if argv and argv[0] in _COMMANDS:
        assert parse(_build_parser(argv[0]).parse_args) == want


def test_a_one_command_parser_gives_the_full_parsers_namespace():
    argv = ["tail", "--config", "c.json", "--seed", "4", "--out", "o"]
    assert vars(_build_parser("tail").parse_args(argv)) == \
        vars(_build_parser().parse_args(argv))


FLOAT_STATE_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "table_with_a_float_state.txt")
STATES17 = {"kind": "markov_chain", "transition": [[1 / 17] * 17] * 17}


# each case: command, payload, and a part of the error line naming the field
@pytest.mark.parametrize("command,payload,field", [
    ("scaling", dict(SCALING, estimator="pearson"), "estimator"),
    ("scaling", dict(SCALING, t_grid=[2, 20]), "t_grid"),
    ("scaling", dict(SCALING, p_grid=[1, 3]), "p_grid"),
    ("scaling", dict(SCALING, replications=0), "replications"),
    # past 10^6 replications, two p cells would read the same streams
    ("scaling", dict(SCALING, replications=10 ** 6 + 1), "replications <= 1000000"),
    ("scaling", dict(SCALING, process=dict(COPULA, cross_correlation={
        "kind": "equicorrelation", "rho": 0.9})), "cross_correlation"),
    ("tail", tail_payload(process=CHAIN, t_grid=[30],
                          kernel={"kind": "table", "order": 2, "state_count": 2,
                                  "path": "no-such-table.txt"}), "no-such-table.txt"),
    ("mgf-check", dict(MGF, summands="ten"), "summands"),
    ("mgf-check", dict(MGF, summand_sigma=-1.0), "summand_sigma"),
    ("mixing-profile", dict(MIXING, conditional={"conditioning": [[0, 5]], "block_len": 2}),
     "conditioning"),
    ("mixing-profile", dict(MIXING, lags=[0, 1, 2]), "lags"),
    ("tail", tail_payload(process={"kind": "iid"}, kernel=MATCH_KERNEL,
                          theta={"mode": "exact-zero"}), "markov_chain process"),
    ("tail", tail_payload(process=CHAIN3, kernel=MATCH_KERNEL), "markov_chain process"),
    ("tail", tail_payload(process={"kind": "ar1", "coefficient": 0.5},
                          theta={"mode": "exact-zero"}), "process"),
    ("tail", tail_payload(process=dict(COPULA, dimension=3), kernel={"kind": "spearman_sym"},
                          theta={"mode": "exact-zero"}), "process"),
    ("tail", tail_payload(process=CHAIN, kernel={"kind": "mean"},
                          theta={"mode": "exact-zero"}), "process"),
    ("tail", tail_payload(replications="abc"), "replications"),
    ("tail", tail_payload(budget="x"), "budget"),
    ("tail", tail_payload(threads="x"), "threads"),
    ("tail", tail_payload(t_grid=5), "t_grid"),
    ("tail", tail_payload(t_grid=["a"]), "t_grid[0]"),
    ("tail", tail_payload(x_grid=["a"]), "x_grid[0]"),
    ("tail", tail_payload(x_grid=[float("nan")]), "x_grid[0]"),
    ("tail", tail_payload(theta={"mode": "mc", "draws": "x"}), "theta.draws"),
    ("tail", tail_payload(theta=5), "theta"),
    ("mixing-profile", dict(MIXING, conditional=5), "conditional"),
    ("simulate", dict(SIMULATE, length="x"), "length"),
    ("bias", dict(BIAS, order="x"), "order"),
    # a negative state would wrap to another table entry, a large one fall off it
    ("tail", tail_payload(process=CHAIN, t_grid=[30], kernel=dict(
        MATCH_KERNEL, entries=[[[0, -1], 1.0]])), "table key"),
    ("tail", tail_payload(process=CHAIN, t_grid=[30], kernel=dict(
        MATCH_KERNEL, entries=[[[0, 5], 1.0]])), "table key"),
    ("mgf-check", dict(MGF, summands=3, summand_kappa=0.0, eta_max=800), "eta_max"),
    ("mgf-check", dict(MGF, summands=3, distribution="uniform", samples=50,
                       summand_kappa=0.0, eta_max=600), "eta_max"),
    # a float or a boolean in an integer field is rejected, never truncated
    ("tail", tail_payload(t_grid=[30.7]), "t_grid[0] must be an integer, got 30.7"),
    ("tail", tail_payload(replications=True), "replications"),
    ("tail", tail_payload(out_dir=5), "out_dir"),
    ("tail", tail_payload(process={"kind": "m_dependent", "window": 2.7},
                          kernel={"kind": "mean", "bound": 50.0}), "process.window"),
    ("simulate", dict(SIMULATE, length=5.5), "length"),
    ("mixing-profile", dict(MIXING, conditional={"conditioning": [[0.5, 1]], "block_len": 2}),
     "conditional.conditioning[0][0]"),
    ("mixing-profile", dict(MIXING, conditional={"conditioning": [[0, 1]], "block_len": 1.9}),
     "conditional.block_len"),
    ("tail", tail_payload(process=CHAIN, t_grid=[30], kernel=dict(
        MATCH_KERNEL, entries=[[[0, 1.5], 1.0]])), "kernel.entries[0][0][1]"),
    ("tail", tail_payload(constants={"r": 2.5}), "constants.r"),
    ("tail", tail_payload(constants={"c5": True}), "constants.c5"),
    ("tail", tail_payload(seed=True), "seed"),
    ("tail", tail_payload(seed=-1), "seed must be >= 0"),
    # orders past 3 are rejected before a table of S^order entries is built
    ("tail", tail_payload(process=CHAIN, t_grid=[30], kernel=dict(MATCH_KERNEL, order=4)),
     "kernel.order must be <= 3"),
    ("tail", tail_payload(process=CHAIN, t_grid=[30], kernel=dict(MATCH_KERNEL, order=10 ** 30)),
     "kernel.order must be <= 3"),
    ("tail", tail_payload(threads=0), "threads"),
    ("tail", tail_payload(budget=float("inf")), "budget"),
    ("mixing-profile", dict(MIXING, process=STATES17), "17 states"),
    ("tail", tail_payload(process=CHAIN, t_grid=[30], kernel={
        "kind": "table", "order": 2, "state_count": 2, "path": FLOAT_STATE_TABLE}),
     "table_with_a_float_state.txt:3: state '1.5' is not an integer"),
    # finite inputs whose bounds, sums or envelopes would overflow
    ("tail", tail_payload(x_grid=[0.1, 1e308]), "x_grid"),
    ("tail", tail_payload(process=CHAIN, t_grid=[30], kernel=dict(
        MATCH_KERNEL, entries=[[[0, 0], 1e308]])), "kernel.entries"),
    ("tail", tail_payload(process=CHAIN, t_grid=[30], kernel=dict(
        MATCH_KERNEL, entries=[[[0, 0], 1e308], [[0, 1], -1e308]])), "kernel.entries"),
    ("bias", dict(BIAS, kernel=dict(MATCH_KERNEL, entries=[[[0, 0], 1e308]])),
     "kernel.entries"),
    ("decompose-check", dict(BIAS, experiment="decompose-check", replications=2,
                             kernel=dict(MATCH_KERNEL, entries=[[[0, 0], 1e308]])),
     "kernel.entries"),
    ("mgf-check", dict(MGF, summand_sigma=1e308), "summand_sigma"),
    ("mgf-check", dict(MGF, summand_kappa=1e308), "summand_kappa"),
    # eta_max tops the grid: above 0, and below 1 / (summands * summand_kappa)
    ("mgf-check", dict(MGF, summand_kappa=0.0, eta_max=-1.0), "eta_max must be > 0"),
    ("mgf-check", dict(MGF, summand_kappa=0.0, eta_max=0.0), "eta_max must be > 0"),
    ("mgf-check", dict(MGF, eta_max=5.0), "below 1 / (summands * summand_kappa)"),
    # 49 * (1/49) rounds below 1, but 1/49 is the envelope's own limit
    ("mgf-check", dict(MGF, summands=1, summand_kappa=49.0, eta_max=1 / 49),
     "below 1 / (summands * summand_kappa)"),
    # a repeated grid value would name one output twice
    ("tail", tail_payload(t_grid=[40, 40]), "t_grid must not repeat a value"),
    ("tail", tail_payload(x_grid=[0.1, 0.1]), "x_grid must not repeat a value"),
    ("scaling", dict(SCALING, p_grid=[3, 3]), "p_grid must not repeat a value"),
    ("mixing-profile", dict(MIXING, lags=[1, 2, 1]), "lags must not repeat a value"),
    # a table kernel reads its entries from one place
    ("bias", dict(BIAS, kernel=dict(MATCH_KERNEL, path=FLOAT_STATE_TABLE)),
     "'path' or 'entries', not both"),
    # an invalid config is a config error before its work estimate is checked
    ("mgf-check", dict(MGF, samples=10 ** 30, eta_max=-1.0), "eta_max"),
    ("mgf-check", dict(MGF, summand_sigma=1e200, eta_max=1e-10), "Bernstein envelope"),
    # a config that is not an object, and processes an experiment cannot read
    ("tail", [], "config must be a JSON object"),
    ("bias", dict(BIAS, process={"kind": "ar1", "coefficient": 0.5}),
     "bias-curve needs a finite chain and a table kernel"),
    ("decompose-check", dict(BIAS, experiment="decompose-check", replications=2,
                             process={"kind": "iid"}),
     "decompose-check needs a finite chain and a table kernel"),
    ("mixing-profile", dict(MIXING, process={"kind": "iid"}),
     "mixing profiles need a finite chain"),
    ("scaling", dict(SCALING, process={"kind": "ar1", "coefficient": 0.5}),
     "scaling experiments use the Gaussian-copula vector process"),
], ids=["scaling-estimator", "scaling-t", "scaling-p", "scaling-replications",
        "scaling-replications-past-stride",
        "scaling-cross-correlation", "table-path", "mgf-summands", "mgf-sigma",
        "conditional-state", "mixing-lag", "table-kernel-iid", "table-kernel-states",
        "rank-kernel-scalar", "rank-kernel-trivariate", "mean-kernel-chain",
        "replications-string", "budget-string", "threads-string", "t-grid-scalar",
        "t-grid-string", "x-grid-string", "x-grid-nan", "theta-draws-string",
        "theta-scalar", "conditional-scalar", "simulate-length-string", "bias-order-string",
        "table-entry-state-negative", "table-entry-state-large", "mgf-rademacher-overflow",
        "mgf-uniform-overflow", "t-grid-float", "replications-bool", "out-dir-int",
        "window-float", "simulate-length-float", "conditioning-time-float",
        "block-len-float", "table-entry-state-float", "constants-r-float",
        "constants-c5-bool", "seed-bool", "seed-negative", "table-order-4",
        "table-order-huge", "threads-zero", "budget-inf",
        "mixing-17-states", "table-file-state-float", "x-grid-above-2m",
        "table-entry-overflow", "table-entries-mixed-overflow", "bias-table-overflow",
        "decompose-table-overflow", "mgf-sigma-overflow", "mgf-kappa-overflow",
        "mgf-eta-max-negative", "mgf-eta-max-zero", "mgf-eta-max-past-kappa",
        "mgf-eta-max-at-limit",
        "t-grid-repeat", "x-grid-repeat", "p-grid-repeat", "lags-repeat",
        "table-path-and-entries", "mgf-invalid-over-budget", "mgf-envelope-overflow",
        "config-not-an-object", "bias-ar1", "decompose-iid", "mixing-iid", "scaling-ar1"])
def test_config_errors_in_experiment_bodies_exit_2(tmp_path, capsys, command, payload, field):
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and field in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_a_non_finite_output_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch):
    """A NaN in the data, here a tail bound, would make result.json not
    JSON, so no file is written."""
    monkeypatch.setattr(harness, "ustat_tail_bound", lambda *args: math.nan)
    payload = tail_payload(process={"kind": "iid"}, kernel={"kind": "mean", "bound": 10.0},
                           theta={"mode": "exact-zero"})
    assert main(["tail", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "property check failed: result.json" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,value,field", [("--budget", "nan", "budget"),
                                              ("--threads", "0", "threads"),
                                              ("--threads", "-1", "threads"),
                                              ("--seed", "-1", "seed")])
def test_run_flags_go_through_the_config_checks(tmp_path, capsys, flag, value, field):
    """A NaN budget would turn the budget guard off; fewer than one worker
    would silently run serial; a negative seed has no random stream."""
    assert main(["tail", "--config", write_config(tmp_path, tail_payload()),
                 "--out", str(tmp_path / "o"), flag, value]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and field in err
    assert not (tmp_path / "o").exists()


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    tail = tmp_path / "tail"
    assert main(["tail", "--config", write_config(tmp_path, tail_payload()),
                 "--out", str(tail)]) == 0
    runs = [["tail", "--config", write_config(tmp_path, tail_payload(), "t.json")],
            ["simulate", "--config", write_config(tmp_path, SIMULATE, "s.json")],
            ["calibrate", "--result", str(tail), "--train", "30,60"]]
    for argv in runs:
        assert main(argv + ["--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and str(taken) in err


def test_a_table_file_is_read_once_per_run(tmp_path, monkeypatch):
    """The CLI parses the config once, with --seed applied, and the tail
    blocks receive the parsed kernel."""
    table = tmp_path / "table.txt"
    table.write_text("0 0 0.5\n0 1 -0.5\n1 1 0.5\n")
    kernel = {"kind": "table", "order": 2, "state_count": 2, "path": str(table)}
    payload = tail_payload(process=CHAIN, kernel=kernel, t_grid=[10, 20], replications=4)
    reads = []

    def counting(*args, **kwargs):
        reads.append(args)
        return load_table_kernel(*args, **kwargs)

    monkeypatch.setattr(harness, "load_table_kernel", counting)
    assert main(["tail", "--config", write_config(tmp_path, payload), "--seed", "9",
                 "--out", str(tmp_path / "o")]) == 0
    assert len(reads) == 1
    assert json.loads((tmp_path / "o" / "config.json").read_text())["seed"] == 9


@pytest.mark.parametrize("state", [-1, 5])
def test_table_kernel_file_state_outside_the_alphabet_exits_2(tmp_path, capsys, state):
    table = tmp_path / "table.txt"
    table.write_text(f"0 {state} 1.0\n")
    kernel = {"kind": "table", "order": 2, "state_count": 2, "path": str(table)}
    payload = tail_payload(process=CHAIN, kernel=kernel, t_grid=[30])
    assert main(["tail", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 2
    assert "outside 0..1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()



ORDER3_KERNEL = {"kind": "table", "order": 3, "state_count": 2,
                 "entries": [[[0, 0, 0], 1.0], [[0, 0, 1], -0.5], [[1, 1, 1], 0.25]]}
DECOMPOSE = {"schema_version": 1, "experiment": "decompose-check", "seed": 3,
             "process": CHAIN, "kernel": ORDER3_KERNEL, "order": 3, "t_grid": [10],
             "replications": 2}


@pytest.mark.parametrize("command,payload", [
    ("decompose-check", dict(DECOMPOSE, t_grid=[10, 501])),
    ("bias", dict(BIAS, order=3)),
    ("decompose-check", dict(DECOMPOSE, order=2)),
], ids=["decompose-t-cap", "bias-order", "decompose-order"])
def test_chain_law_config_errors_exit_2(tmp_path, command, payload):
    """A decompose-check t_grid value above the decomposition cap (2000 at
    order 2, 500 at order 3), or an order other than the table kernel's, is
    a config error."""
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_chain_law_configs_at_the_caps_run(tmp_path):
    assert main(["bias", "--config", write_config(tmp_path, dict(BIAS, t_grid=[20, 2000])),
                 "--out", str(tmp_path / "b")]) == 0
    assert main(["decompose-check", "--config", write_config(tmp_path, DECOMPOSE, "d.json"),
                 "--out", str(tmp_path / "d")]) == 0


@pytest.mark.parametrize("order", [2, 3])
def test_bias_runs_past_the_decomposition_cap(tmp_path, order):
    """``bias`` is a closed form at any T: a t_grid up to 10^6, past the
    decomposition cap, runs under the default budget, and T (theta* - theta)
    settles to a constant, the paper's O(1/T) bias."""
    kernel = MATCH_KERNEL if order == 2 else ORDER3_KERNEL
    cfg = write_config(tmp_path, dict(BIAS, kernel=kernel, order=order,
                                      t_grid=[100, 2001, 10 ** 4, 10 ** 6]))
    out = tmp_path / "b"
    assert main(["bias", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "result.json").read_text())["data"]["rows"]
    assert [row["T"] for row in rows] == [100, 2001, 10 ** 4, 10 ** 6]
    scaled = [row["bias"] * row["T"] for row in rows]
    assert scaled[-1] > 0 and abs(scaled[-2] - scaled[-1]) <= 1e-3 * scaled[-1]


def test_order_defaults_to_the_table_kernels(tmp_path):
    """The table kernel names its order, so ``bias`` and ``decompose-check``
    run without a top-level ``order`` and write the data block of the same
    config with the kernel's order."""
    def data(command, payload, name):
        out = tmp_path / name
        assert main([command, "--config", write_config(tmp_path, payload, f"{name}.json"),
                     "--out", str(out)]) == 0
        return json.loads((out / "result.json").read_text())["data"]

    for command, payload in (("bias", BIAS), ("decompose-check", DECOMPOSE)):
        without = {key: value for key, value in payload.items() if key != "order"}
        assert data(command, without, f"{command}-without") == data(command, payload, command)


def test_experiment_table_is_consistent(tmp_path):
    """Each ``EXPERIMENTS`` entry names keys ``from_dict`` reads, either a
    ``_FIELDS`` name or a nested object it parses, each key once, and every
    top-level field belongs to some experiment; each subcommand is a CLI
    command, and ``tsustat bias`` runs ``bias-curve``."""
    nested = {"process", "kernel", "constants", "theta", "conditional"}
    common = {"seed", "out_dir", "budget", "threads"}
    named = set()
    for experiment, (command, required, optional, _, _) in harness.EXPERIMENTS.items():
        assert not required & optional, experiment
        assert required | optional <= set(harness._FIELDS) | nested, experiment
        assert command in _COMMANDS and _SUBCOMMANDS[command] == experiment
        named |= required | optional
    assert {name for name in harness._FIELDS if "." not in name} <= named | common
    out = tmp_path / "b"
    assert main(["bias", "--config", write_config(tmp_path, BIAS), "--out", str(out)]) == 0
    assert json.loads((out / "result.json").read_text())["data"]["experiment"] == "bias-curve"


def test_order_3_decompose_check_runs_at_t_500(tmp_path):
    chain = dict(CHAIN3, transition=[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.1, 0.6]])
    kernel = {"kind": "table", "order": 3, "state_count": 3,
              "entries": [[[0, 1, 2], 1.0], [[0, 0, 1], -0.5], [[1, 1, 2], 0.25],
                          [[2, 2, 2], -1.0]]}
    cfg = write_config(tmp_path, dict(DECOMPOSE, process=chain, kernel=kernel,
                                      t_grid=[500], replications=3))
    out = tmp_path / "d"
    assert main(["decompose-check", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "result.json").read_text())["data"]
    assert data["residual_ok"] and data["p1_ok"] and data["p2_ok"]
    assert 0.0 < data["max_b_ratio"] <= 1.0


def test_decompose_check_budget_exits_3_within_the_cap(tmp_path):
    cfg = write_config(tmp_path, dict(DECOMPOSE, t_grid=[500], replications=10 ** 6))
    assert main(["decompose-check", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--budget", "1e11"]) == 3
    assert not (tmp_path / "o").exists()


def test_mixing_profile_budget_exits_3_before_enumerating(tmp_path):
    """alpha enumerates the 2^16 state subsets of a 16-state chain per lag:
    three lags exceed a budget of 10^5 before any subset is enumerated."""
    states16 = {"kind": "markov_chain", "transition": [[1 / 16] * 16] * 16}
    cfg = write_config(tmp_path, dict(MIXING, process=states16))
    assert main(["mixing-profile", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--budget", "1e5"]) == 3
    assert not (tmp_path / "o").exists()


def test_mixing_profile_runs_at_a_huge_lag_and_a_long_block(tmp_path):
    """Lag 10^30 and a present block of 10^6 coordinates: the matrix powers
    stay stochastic and no present-block atom is enumerated."""
    chain = {"kind": "markov_chain", "transition": [[0.7, 0.3], [0.1, 0.9]]}
    payload = dict(MIXING, process=chain, lags=[1, 10 ** 30],
                   conditional={"conditioning": [[0, 0]], "block_len": 10 ** 6})
    out = tmp_path / "m"
    assert main(["mixing-profile", "--config", write_config(tmp_path, payload),
                 "--out", str(out)]) == 0
    profiles = json.loads((out / "result.json").read_text())["data"]["profiles"]
    for prof in profiles.values():
        assert prof["lags"] == [1, 10 ** 30] and 0.0 <= prof["values"][1] <= 1e-15


# each case: command, payload, and --budget (None for the default)
@pytest.mark.parametrize("command,payload,budget", [
    ("tail", tail_payload(kernel={"kind": "spearman_sym"}, t_grid=[10],
                          theta={"mode": "mc", "draws": 10 ** 30}), None),
    ("mgf-check", dict(MGF, summands=10 ** 30), None),
    ("mgf-check", dict(MGF, samples=10 ** 30), None),
    ("simulate", dict(SIMULATE, length=10 ** 30), None),
    ("bias", BIAS, "10"),
], ids=["theta-draws", "mgf-summands", "mgf-samples", "simulate-length", "bias"])
def test_every_experiment_checks_its_work_estimate(tmp_path, capsys, command, payload, budget):
    """Each input asks for more work than the budget allows, so it exits 3
    before any of that work starts, never on a failed allocation."""
    argv = [command, "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "o")]
    assert main(argv + (["--budget", budget] if budget else [])) == 3
    err = capsys.readouterr().err
    assert "budget exceeded:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_decompose_check_with_a_zero_kernel_passes(tmp_path):
    """Every b-term of a zero kernel is 0, so its b-ratio is 0, not 0 / 0."""
    zero = dict(ORDER3_KERNEL, entries=[[[0, 0, 0], 0.0]])
    cfg = write_config(tmp_path, dict(DECOMPOSE, kernel=zero, replications=3))
    out = tmp_path / "d"
    assert main(["decompose-check", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "result.json").read_text())["data"]
    assert data["max_b_ratio"] == 0.0 and data["max_residual"] == 0.0
    assert data["p2_ok"] and data["residual_ok"] and data["p1_ok"]


def _scaled_run(tmp_path, command, payload, scale):
    """The data block of ``payload`` run with ORDER3_KERNEL, and any x_grid,
    multiplied by ``scale``."""
    kernel = dict(ORDER3_KERNEL, entries=[[s, v * scale] for s, v in ORDER3_KERNEL["entries"]])
    payload = dict(payload, kernel=kernel)
    if "x_grid" in payload:
        payload["x_grid"] = [x * scale for x in payload["x_grid"]]
    out = tmp_path / f"{command}-{scale!r}"
    assert main([command, "--config", write_config(tmp_path, payload, f"{out.name}.json"),
                 "--out", str(out)]) == 0
    return json.loads((out / "result.json").read_text())["data"]


@pytest.mark.parametrize("k", [-40, 40, 520])
def test_a_table_kernel_scaled_by_a_power_of_two_gives_the_same_run(tmp_path, k):
    """Scaling by 2^k is exact in binary floating point and commutes with
    every sum and product of a table-kernel run, so only the scaled values
    move. At k = 520, x^2 overflows: the tail bounds stay finite because
    they are computed on x / M."""
    scale = 2.0 ** k
    tail = tail_payload(process=CHAIN, t_grid=[20, 60], x_grid=[0.05, 0.1, 0.2],
                        replications=100)
    base, scaled = (_scaled_run(tmp_path, "tail", tail, s) for s in (1.0, scale))
    assert 0 < sum(base["curves"][0]["counts"]) < 300
    for key in ("theta", "kernel_bound"):
        assert scaled[key] == scale * base[key]
    for got, want in zip(scaled["curves"], base["curves"]):
        assert got["x"] == [scale * x for x in want["x"]]
        for key in ("T", "counts", "empirical", "stderr", "bound"):
            assert got[key] == want[key]

    check = dict(DECOMPOSE, t_grid=[10, 20], replications=4)
    base, scaled = (_scaled_run(tmp_path, "decompose-check", check, s) for s in (1.0, scale))
    assert base["max_residual"] > 0
    for key in ("max_residual", "conditional_mean_dev"):
        assert scaled[key] == scale * base[key]
    for key in ("max_b_ratio", "residual_ok", "p1_ok", "p2_ok"):
        assert scaled[key] == base[key]


def test_mixing_profile_on_an_iid_chain_leaves_the_rate_unset(tmp_path):
    iid = {"kind": "markov_chain", "transition": [[0.5, 0.5], [0.5, 0.5]]}
    out = tmp_path / "m"
    assert main(["mixing-profile", "--config", write_config(tmp_path, dict(MIXING, process=iid)),
                 "--out", str(out)]) == 0
    profiles = json.loads((out / "result.json").read_text())["data"]["profiles"]
    assert all(prof["fitted_gamma"] is None for prof in profiles.values())


_IMPORT_PROBE = """
import json, sys
from tsustat.cli import _build_parser, main
loaded = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append(sys.argv[2] in sys.modules)
print(json.dumps(loaded))
"""


def _modules_loaded(tmp_path, runs, module: str) -> list[bool]:
    """Whether ``module`` is loaded after each of ``runs``, (command, config)
    pairs run in order by one fresh interpreter."""
    argv = [[cmd, "--config", write_config(tmp_path, payload, f"c{i}.json"),
             "--out", str(tmp_path / f"o{i}")] for i, (cmd, payload) in enumerate(runs)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(tsustat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv), module],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    assert _modules_loaded(tmp_path, runs, "scipy") == [False, False, False, True]


def test_scaling_and_chain_runs_do_not_import_numpy_ma(tmp_path):
    """The scaling quartiles come from one sort, not from np.median and
    np.quantile, and the chain generator dedupes its thresholds by hand, not
    by np.unique: those numpy calls load numpy.ma on first use."""
    runs = [("scaling", SCALING), ("scaling", dict(SCALING, estimator="spearman")),
            ("tail", tail_payload(process=CHAIN, kernel=MATCH_KERNEL, t_grid=[30])),
            ("bias", BIAS), ("decompose-check", DECOMPOSE)]
    assert _modules_loaded(tmp_path, runs, "numpy.ma") == [False] * 5


_BENCHMARK_PROBE = """
import json, sys
from perfbench.spans import SpanRecorder, install
from perfbench.workloads import WORKLOADS, spot_checks
steps = [step for make in WORKLOADS.values() for step in make(1, sys.argv[1])]
checked = spot_checks(steps)
print(json.dumps([install(SpanRecorder()), spot_checks([]), checked]))
"""


def test_benchmark_hooks_find_their_names(tmp_path):
    """The benchmark wraps named layers and its spot-checks import named
    oracles; a refactor that moves one of those names fails here. The
    spot-checks also run on the real steps of both workloads at seed 1, each
    fast path against its oracle, and report no problem."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "."]))
    proc = subprocess.run([sys.executable, "-c", _BENCHMARK_PROBE, str(tmp_path)], cwd=root,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    missing, imports, checked = json.loads(proc.stdout.splitlines()[-1])
    assert missing == [] and imports == []
    assert len(checked) == 4 and all(problems == [] for _, problems in checked), checked
