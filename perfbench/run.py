"""tsustat benchmark: one workload through the real CLI, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kendall --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --write-reference

Each run of a workload is a fresh interpreter (``child.py``) that imports
tsustat from ``src``, parses the first config and calls ``tsustat.cli.main``
for every step, single-process with BLAS and OpenMP pinned to one thread.
Runs repeat, one after another (a closed loop with one client), until
``--seconds`` have passed; every metric is the median over the runs.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics: self time per
layer span, counts computed from call arguments, the tracing overhead and,
on ``kendall``, the 1-worker/2-worker ratio of replication-block time in
the ``tail-kendall`` step.

Every step's output is checked: exit code, invariants of its ``data`` block,
identical data across the runs of one invocation and, at the default seed,
equality with ``reference.json``. Oracle spot-checks run before the timed
runs. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; earlier lines describe the
environment and the run. ``--write-reference`` rewrites ``reference.json``
from the current program at the default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MiB"}

_SELF = ["cli.main", "processes.generate_batch", "ustat.count_inversions",
         "ustat.kendall_tau_batch", "hidim.kendall_matrix", "hidim.max_norm_deviation",
         "ustat.u_statistic", "harness.estimate_theta", "harness.u_table_path",
         "ustat.decompose", "ustat.check_zero_conditional_means", "ustat.theta_star",
         "harness.map_replication_blocks", "harness.emit_outputs",
         "bounds.calibrate_constants"]
_COUNTS = ["processes.generate_batch.calls", "processes.generate_batch.values",
           "ustat.count_inversions.rows", "ustat.count_inversions.elements",
           "hidim.kendall_matrix.pairs", "ustat.u_statistic.terms",
           "harness.estimate_theta.draws", "harness.u_table_path.tuples",
           "ustat.decompose.calls", "harness.emit_outputs.bytes"]
# CLI steps of both workloads; their untraced times are reported per layer so
# that a change to one step shows apart from the rest of its workload
_STEPS = ["tail-kendall", "calibrate", "scaling-kendall", "bias", "decompose", "tail-table",
          "tail-spearman3"]
PER_LAYER = {**{f"{n}.self_s": "s" for n in _SELF}, **{c: "count" for c in _COUNTS},
             **{f"step.{n}.wall_s": "s" for n in _STEPS},
             "harness.map_replication_blocks.speedup_2w": "ratio",
             "trace.overhead_s": "s"}


class Checker:
    """Counts attempted and failed checks; prints each failure to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}:", *problems[:10], sep="\n  ", file=sys.stderr)


def run_child(steps, trace: bool, tag: str) -> dict:
    """Start one fresh interpreter for the steps and wait for it."""
    job_path = WORK / f"{tag}.job.json"
    report_path = WORK / f"{tag}.report.json"
    err_path = WORK / f"{tag}.stderr.txt"
    for path in [report_path] + [Path(s.output) for s in steps]:
        path.unlink(missing_ok=True)
    job = {"src": str(SRC), "first_config": steps[0].argv[2], "trace": trace,
           "steps": [[s.name, s.argv] for s in steps], "report": str(report_path)}
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, **CHILD_ENV)
    with open(err_path, "w", encoding="utf-8") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"rss_mb": usage.ru_maxrss / 1024.0, "report": None}
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["wall"] = report["t_end"] - t_spawn
        report["setup"] = report["t_setup"] - t_spawn
        out["report"] = report
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(encoding="utf-8")[-4000:])
    return out


def check_child(workload: str, steps, child: dict, checker: Checker, seen: dict,
                reference: dict | None) -> None:
    """Check every step of one run; ``seen`` holds the first run's data per step."""
    report = child["report"]
    rcs = {s["name"]: s["rc"] for s in report["steps"]} if report else {}
    if report and Path(report["tsustat_file"]).resolve().parents[1] != SRC.resolve():
        checker.record(f"{workload}: import", [f"tsustat came from {report['tsustat_file']}"])
    for step in steps:
        what = f"{workload}/{step.name}"
        if rcs.get(step.name) != 0:
            checker.record(what, [f"exit code {rcs.get(step.name)}"])
            continue
        try:
            data = workloads.read_data(step)
        except (OSError, ValueError, KeyError) as exc:
            checker.record(what, [f"unreadable output: {exc}"])
            continue
        problems = workloads.check_properties(workload, step, data)
        if step.name not in seen:
            seen[step.name] = data
        elif data != seen[step.name]:
            problems.append("data block differs from the first run of this invocation")
        if reference is not None:
            if step.name in reference:
                problems += workloads.diff_data(data, reference[step.name], "reference")
            else:
                problems.append("no reference data for this step")
        checker.record(what, problems)


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runs: list[dict], steps) -> dict:
    paths = sum(s.paths for s in steps)
    reports = [r["report"] for r in runs]
    return {
        "wall_s": median([r["wall"] for r in reports]),
        "setup_s": median([r["setup"] for r in reports]),
        "paths_per_s": median([paths / (r["wall"] - r["setup"]) for r in reports]),
        "peak_rss_mb": median([r["rss_mb"] for r in runs]),
    }


def per_layer(traced: list[dict], untraced: list[dict], speedup: float) -> dict:
    selfs = [spans.self_times(r["report"]["spans"]) for r in traced]
    cnts = [spans.counts(r["report"]["spans"]) for r in traced]
    out = {}
    for name in _SELF:
        out[f"{name}.self_s"] = median([s.get(name, 0.0) for s in selfs])
    for key in _COUNTS:
        out[key] = median([c.get(key, 0) for c in cnts])
    for name in _STEPS:
        out[f"step.{name}.wall_s"] = median([s["seconds"] for r in untraced
                                             for s in r["report"]["steps"] if s["name"] == name])
    out["harness.map_replication_blocks.speedup_2w"] = speedup
    out["trace.overhead_s"] = (median([r["report"]["wall"] for r in traced])
                               - median([r["report"]["wall"] for r in untraced]))
    return out


def speedup_2w(seed: int, checker: Checker) -> float:
    """1-worker over 2-worker replication-block time on twice the replications,
    so the tail step has two blocks to share."""
    work = WORK / "speedup"
    work.mkdir(parents=True, exist_ok=True)
    step = workloads.tail_kendall(seed, str(work), reps=2 * workloads.TAIL_KENDALL_REPS)[0]
    two = workloads.Step(name=step.name, argv=step.argv[:-1] + ["2"], output=step.output,
                         paths=step.paths, config=step.config)
    block_s, data = [], []
    for s in (step, two):
        child = run_child([s], trace=True, tag=f"speedup{s.argv[-1]}")
        seen: dict = {}
        check_child("kendall", [s], child, checker, seen, None)
        if child["report"] is None:
            return 0.0
        block_s.append(spans.total_times(child["report"]["spans"])
                       .get("harness.map_replication_blocks", 0.0))
        data.append(seen.get(s.name))
    checker.record("kendall/tail-kendall: 1 vs 2 workers", [] if data[0] == data[1] else
                   ["data block differs between 1 and 2 workers"])
    return block_s[0] / block_s[1] if block_s[1] > 0 else 0.0


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": sys.platform}


def run(args) -> int:
    steps = workloads.WORKLOADS[args.workload](args.seed, str(WORK))
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        all_refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        reference = all_refs.get(args.workload, {})
    checker = Checker()

    sys.path.insert(0, str(SRC))
    try:
        checks = workloads.spot_checks(steps)
    except ImportError as exc:  # a fast path or oracle the checks call is gone
        checks = [("imports", [f"{type(exc).__name__}: {exc}"])]
    for name, problems in checks:
        checker.record(f"{args.workload}: spot-check {name}", problems)

    plan = [False] if not args.trace else [False, True]
    runs: dict[bool, list] = {False: [], True: []}
    seen: dict = {}
    start = time.monotonic()
    min_rounds = MIN_RUNS if not args.trace else 2
    rounds = 0
    while rounds < min_rounds or time.monotonic() - start < args.seconds:
        for trace in plan:
            child = run_child(steps, trace, tag=f"run{len(runs[False]) + len(runs[True])}")
            check_child(args.workload, steps, child, checker, seen, reference)
            if child["report"] is not None:
                runs[trace].append(child)
        rounds += 1
        if time.monotonic() - start > CHILD_TIMEOUT_S:
            break
    if any(not runs[t] for t in plan):
        print("no run of the workload completed", file=sys.stderr)
        return 1

    env = environment()
    env.update({k: v for k, v in runs[False][0]["report"]["env"].items()})
    print("env", json.dumps(env, sort_keys=True))
    if args.trace:
        speedup = speedup_2w(args.seed, checker) if args.workload == "kendall" else 0.0
        metrics, units = per_layer(runs[True], runs[False], speedup), PER_LAYER
        n_runs = f"{len(runs[False])} untraced + {len(runs[True])} traced"
        missing = runs[True][0]["report"]["missing_layers"]
        if missing:
            print("layers not traced, their names are gone:", ", ".join(missing))
    else:
        metrics, units = end_to_end(runs[False], steps), END_TO_END
        n_runs = f"{len(runs[False])}"
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {n_runs} runs of "
          f"{len(steps)} CLI steps; counts are computed from call arguments")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    if not args.trace:
        for i, step in enumerate(steps):
            seconds = median([r["report"]["steps"][i]["seconds"] for r in runs[False]])
            print(f"  {'step ' + step.name:45s} {seconds:.6g} s")
    print(f"  {'fail_ratio':45s} {checker.failed / checker.attempted:.6g} failed/attempted "
          f"({checker.failed}/{checker.attempted})")
    print(json.dumps({
        "correct": checker.failed == 0, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def write_reference() -> int:
    refs = {}
    for name, build in workloads.WORKLOADS.items():
        steps = build(workloads.DEFAULT_SEED, str(WORK))
        child = run_child(steps, trace=False, tag=f"reference-{name}")
        checker, seen = Checker(), {}
        check_child(name, steps, child, checker, seen, None)
        if checker.failed:
            print(f"{name}: output failed its checks; reference not written", file=sys.stderr)
            return 1
        refs[name] = seen
    REFERENCE.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(REFERENCE)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "tsustat" / "__init__.py").is_file():
        print(f"no tsustat source tree at {SRC}", file=sys.stderr)
        return 2
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    # turn SIGTERM into SystemExit, so a waiting run_child kills its child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        return write_reference() if args.write_reference else run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
