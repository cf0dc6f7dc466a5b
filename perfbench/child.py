"""One workload run in a fresh interpreter: import tsustat, parse the first
config, run every CLI step through ``tsustat.cli.main`` and write a report.

Usage: python3 child.py JOB_JSON

JOB_JSON names the source tree (``src``), the first config, the steps
(``[name, argv]`` pairs), whether to trace, and the report path. Timestamps
are ``time.monotonic()`` values, comparable with the parent's clock.
"""
import json
import os
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from tsustat import cli
    from tsustat.harness import ExperimentConfig
    ExperimentConfig.from_json(job["first_config"])
    t_setup = time.monotonic()

    recorder, missing = None, []
    if job["trace"]:
        import spans
        recorder = spans.SpanRecorder()
        missing = spans.install(recorder)

    steps = []
    for name, argv in job["steps"]:
        t0 = time.monotonic()
        try:
            if recorder is None:
                rc = cli.main(argv)
            else:
                recorder.run_id = name
                rc = recorder.call("cli.main", cli.main, (argv,))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raw traceback is a failed step, not a failed run
            traceback.print_exc()
            rc = 1
        steps.append({"name": name, "rc": rc, "seconds": time.monotonic() - t0})
    t_end = time.monotonic()

    import numpy
    import scipy
    report = {
        "t_setup": t_setup, "t_end": t_end, "steps": steps,
        "tsustat_file": cli.__file__,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                **{k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}},
        "spans": recorder.spans if recorder is not None else None,
        "missing_layers": missing,
    }
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0 if all(s["rc"] == 0 for s in steps) else 1


if __name__ == "__main__":
    sys.exit(main())
