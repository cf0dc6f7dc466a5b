"""The exit-code contract, checked by a config fuzzer.

Every leaf of one small valid config per experiment (and per kernel kind of
``tail``) is deleted, or replaced by each value of a fixed list, and each
case runs through ``cli.main`` in-process under a small budget. Every case
must return 0, 2, 3 or 4 with nothing raised, and any ``result.json`` it
writes must be strict JSON. ``calibrate`` is fuzzed the same way on the
``result.json`` data block of one written tail run.
"""
import json
import shutil

import pytest

from tsustat.cli import main

CHAIN = {"kind": "markov_chain", "transition": [[0.75, 0.25], [0.25, 0.75]]}
COPULA = {"kind": "gaussian_copula_vector", "dimension": 2, "temporal_coefficient": 0.4,
          "cross_correlation": {"kind": "identity"}}
MATCH_KERNEL = {"kind": "table", "order": 2, "state_count": 2,
                "entries": [[[0, 0], 0.5], [[0, 1], -0.5], [[1, 1], 0.5]]}


def _config(experiment: str, **fields) -> dict:
    return {"schema_version": 1, "experiment": experiment, "seed": 3, **fields}


def _tail(process: dict, kernel: dict, **fields) -> dict:
    return _config("tail", process=process, kernel=kernel, t_grid=[10, 20],
                   x_grid=[0.1, 0.5], replications=8, **fields)


# subcommand, config
BASES = {
    "simulate": ("simulate", _config("simulate", process={"kind": "ar1", "coefficient": 0.5},
                                     length=5)),
    "tail-sign-product": ("tail", _tail(COPULA, {"kind": "sign_product"},
                                        constants={"c4": 1.0, "c5": 0.5})),
    "tail-spearman-sym": ("tail", _tail(
        dict(COPULA, cross_correlation={"kind": "equicorrelation", "rho": 0.3}),
        {"kind": "spearman_sym"}, theta={"mode": "mc", "draws": 1000})),
    "tail-mean": ("tail", _tail({"kind": "iid"}, {"kind": "mean", "bound": 10.0},
                                theta={"mode": "exact-zero"})),
    "tail-m-dependent": ("tail", _tail({"kind": "m_dependent", "window": 2},
                                       {"kind": "mean", "bound": 10.0},
                                       theta={"mode": "exact-zero"})),
    "tail-table": ("tail", _tail(CHAIN, MATCH_KERNEL)),
    "tail-table-order-1": ("tail", _tail(CHAIN, {"kind": "table", "order": 1, "state_count": 2,
                                                 "entries": [[[0], 1.0], [[1], -0.5]]})),
    "tail-table-order-3": ("tail", _tail(CHAIN, {"kind": "table", "order": 3, "state_count": 2,
                                                 "entries": [[[0, 0, 0], 1.0], [[0, 1, 1], -0.5],
                                                             [[1, 1, 1], 0.25]]})),
    "scaling": ("scaling", _config("scaling", process=COPULA, t_grid=[10], p_grid=[3],
                                   replications=2, estimator="spearman")),
    "bias": ("bias", _config("bias-curve", process=CHAIN, kernel=MATCH_KERNEL, order=2,
                             t_grid=[10, 20])),
    "decompose-check": ("decompose-check", _config(
        "decompose-check", process=CHAIN, order=3, t_grid=[6], replications=2,
        kernel={"kind": "table", "order": 3, "state_count": 2,
                "entries": [[[0, 0, 0], 1.0], [[0, 0, 1], -0.5], [[1, 1, 1], 0.25]]})),
    "mixing-profile": ("mixing-profile", _config(
        "mixing-profile", process=CHAIN, lags=[1, 2],
        conditional={"conditioning": [[0, 0]], "block_len": 1})),
    "mgf-check": ("mgf-check", _config("mgf-check", summands=4, distribution="rademacher",
                                       eta_points=3, samples=50, scale=1.0,
                                       summand_sigma=1.0, summand_kappa=0.1)),
    "mgf-check-eta-max": ("mgf-check", _config("mgf-check", summands=4, distribution="rademacher",
                                               eta_points=3, samples=50, scale=1.0,
                                               summand_sigma=1.0, summand_kappa=0.0,
                                               eta_max=0.5)),
}

DELETE = object()
VALUES = [DELETE, None, True, False, -1, 0, 10 ** 30, 10 ** 308, 2 ** 1100, 1e308, -1e308,
          "x", "", [], [[]], [1, [2]]]


def _paths(node, prefix=()):
    """The path to every node below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _with(config: dict, path: tuple, value) -> dict:
    out = json.loads(json.dumps(config))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _strict(text: str):
    def reject(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("base", list(BASES))
def test_every_config_leaf_maps_to_a_documented_exit_code(tmp_path, capsys, base):
    command, config = BASES[base]
    cfg_path, out = tmp_path / "config.json", tmp_path / "o"
    failures = []
    for path in _paths(config):
        for value in VALUES:
            case = f"{'.'.join(map(str, path))} = {'<deleted>' if value is DELETE else value!r}"
            cfg_path.write_text(json.dumps(_with(config, path, value)))
            try:
                code = main([command, "--config", str(cfg_path), "--out", str(out),
                             "--budget", "1e7"])
                if code not in (0, 2, 3, 4):
                    failures.append(f"{case}: exit {code}")
                if (out / "result.json").exists():
                    _strict((out / "result.json").read_text())
            except Exception as exc:  # noqa: BLE001 -- any escape breaks the contract
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
            shutil.rmtree(out, ignore_errors=True)
            capsys.readouterr()
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("base,changes,code", [
    ("tail-mean", {("replications",): 2 ** 1100}, 2),
    ("tail-mean", {("t_grid", 1): 2 ** 1100}, 2),
    ("tail-spearman-sym", {("theta", "draws"): 2 ** 1100}, 2),
    ("simulate", {("length",): 2 ** 1100}, 2),
    ("mgf-check", {("samples",): 2 ** 1100}, 2),
    ("mgf-check", {("summands",): 2 ** 1100}, 2),
    ("decompose-check", {("replications",): 2 ** 1100}, 2),
    ("scaling", {("p_grid", 0): 2 ** 1100}, 2),
    ("simulate", {("seed",): 2 ** 1024}, 2),
    ("bias", {("t_grid", 0): 10 ** 308}, 2),  # C(T, 2) past the float range
    ("tail-spearman-sym", {("theta", "draws"): 10 ** 308}, 3),
    ("scaling", {("p_grid", 0): 10 ** 308}, 3),
    ("decompose-check", {("replications",): 10 ** 308}, 3),
    ("mgf-check", {("summands",): 10 ** 308, ("eta_points",): 10 ** 308}, 3),
    ("tail-m-dependent", {("process", "window"): 10 ** 30}, 3),
    ("simulate", {("process",): {"kind": "m_dependent", "window": 10 ** 30}}, 3),
], ids=["tail-replications", "tail-t-grid", "tail-theta-draws", "simulate-length",
        "mgf-samples", "mgf-summands", "decompose-replications", "scaling-p-grid",
        "seed-past-float-range", "bias-tuples-past-float-range", "theta-draws-times-order",
        "scaling-p-pairs", "decompose-pair-reads", "mgf-summands-plus-eta-points",
        "tail-m-dependent-window", "simulate-m-dependent-window"])
def test_numbers_past_float_range_exit_2_and_overflowing_estimates_exit_3(
        tmp_path, capsys, base, changes, code):
    """A config integer past the float range is a config error, as a float's
    is; one inside it that overflows a work estimate makes that estimate inf,
    over any budget. An m-dependent window is drawn and summed per path, so
    it counts in the estimate."""
    command, config = BASES[base]
    for path, value in changes.items():
        config = _with(config, path, value)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--budget", "1e9"]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:" if code == 2 else "budget exceeded:")
    assert "Traceback" not in err and not (tmp_path / "o").exists()


CALIBRATE_TAIL = _config("tail", process=CHAIN, kernel=MATCH_KERNEL, t_grid=[10, 20],
                         x_grid=[0.05, 0.1, 0.2], replications=64)
CALIBRATE_SIGN_PRODUCT = _config("tail", process=COPULA, kernel={"kind": "sign_product"},
                                 t_grid=[50, 100], replications=64)


def test_every_tail_result_leaf_maps_calibrate_to_a_documented_exit_code(tmp_path, capsys):
    cfg_path, run, out = tmp_path / "config.json", tmp_path / "run", tmp_path / "cal"
    cfg_path.write_text(json.dumps(CALIBRATE_TAIL))
    assert main(["tail", "--config", str(cfg_path), "--out", str(run)]) == 0
    argv = ["calibrate", "--result", str(run), "--train", "10,20", "--out", str(out)]
    assert main(argv) == 0
    result = json.loads((run / "result.json").read_text())
    failures = []
    for path in _paths(result["data"]):
        for value in VALUES:
            case = f"{'.'.join(map(str, path))} = {'<deleted>' if value is DELETE else value!r}"
            (run / "result.json").write_text(json.dumps(_with(result, ("data", *path), value)))
            try:
                code = main(argv)
                if code not in (0, 2, 3, 4):
                    failures.append(f"{case}: exit {code}")
                if (out / "calibration.json").exists():
                    _strict((out / "calibration.json").read_text())
            except Exception as exc:  # noqa: BLE001 -- any escape breaks the contract
                failures.append(f"{case}: {type(exc).__name__}: {exc}")
            shutil.rmtree(out, ignore_errors=True)
            capsys.readouterr()
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("x_grid", [[1e-200, 0.1, 0.2, 0.3], [1e-160, 2e-160, 3e-160]],
                         ids=["one-underflowing-x", "only-subnormal-g"])
def test_calibrate_skips_points_with_an_unbounded_constant(tmp_path, capsys, x_grid):
    """A tail point whose admissible constant log(2/p) / g is not finite (g
    underflows at a tiny x) constrains nothing: calibrate exits 0, with the
    calibration of the same run without those points, or the capped one."""
    def calibrate(name, grid):
        cfg_path, run, out = (tmp_path / f"{name}.json", tmp_path / name,
                              tmp_path / f"{name}-cal")
        cfg_path.write_text(json.dumps(dict(CALIBRATE_SIGN_PRODUCT, x_grid=grid)))
        assert main(["tail", "--config", str(cfg_path), "--out", str(run)]) == 0
        assert main(["calibrate", "--result", str(run), "--train", "50,100", "--c4", "0",
                     "--out", str(out)]) == 0
        return _strict((out / "calibration.json").read_text())

    calibration = calibrate("tiny", x_grid)
    assert "Traceback" not in capsys.readouterr().err
    finite = [x for x in x_grid if x > 1e-100]
    if finite:
        assert calibration == calibrate("finite", finite)
    else:
        assert calibration["capped"] and calibration["used_points"] == 0
        assert calibration["binding_point"] is None and calibration["slack"] is None
