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
VALUES = [DELETE, None, True, False, -1, 0, 10 ** 30, 1e308, -1e308, "x", "", [], [[]],
          [1, [2]]]


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


CALIBRATE_TAIL = _config("tail", process=CHAIN, kernel=MATCH_KERNEL, t_grid=[10, 20],
                         x_grid=[0.05, 0.1, 0.2], replications=64)


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
