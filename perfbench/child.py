"""One repetition of a workload in a fresh interpreter.

Started by run.py as `python child.py JOB.json`, with qotto's source tree
on PYTHONPATH. Importing qotto.cli comes first, so the clock reading right
after it marks the end of set-up. The result, and the spans of a traced
repetition, go to the JSON file the job names. Without a job the child only
prints the end of set-up and where qotto came from (a set-up probe).
"""

import qotto.cli  # noqa: E402  (first: the set-up time ends here)
import time

SETUP_DONE = time.perf_counter()

import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402

import qotto  # noqa: E402
from layers import Tracer  # noqa: E402

SWEEP_FIGURES = {"fig45": "4", "fig67": "6"}


def run_points(points: list[dict]) -> list[str]:
    """CSV lines, one per point; a point that raises gives an error line."""
    records = []
    for p in points:
        try:
            records.append(qotto.make_record(
                qotto.SpectrumSpec(p["kind"], scale_c=p["lam"]),
                qotto.EnsembleSpec(p["statistics"], p["M"], p["N"]),
                1.0, p["R"], 1.0, p["Th"]))
        except Exception as exc:  # counted as a failed row, run goes on
            records.append(f"error,{type(exc).__name__}")
    return records


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    if len(sys.argv) < 2:
        print(json.dumps({"setup_done": SETUP_DONE, "qotto_file": qotto.__file__}))
        return 0
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    status, error = 0, None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        if job["workload"] == "points":
            records = run_points(job["points"])
        else:
            status = qotto.cli.main(["sweep", "--figure", SWEEP_FIGURES[job["workload"]],
                                     "--output", job["output"]])
    except Exception:
        status, error = 1, traceback.format_exc()
    t1 = time.perf_counter()
    cpu1 = cpu_seconds()
    if job["workload"] == "points" and error is None:
        lines = [r if isinstance(r, str) else qotto.records_to_csv([r]).splitlines()[1]
                 for r in records]
        header = qotto.records_to_csv([]).splitlines()[0]
        with open(job["output"], "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([header] + lines) + "\n")
    result = {
        "setup_done": SETUP_DONE, "t0": t0, "t1": t1,
        "wall_s": t1 - t0, "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "status": status, "error": error, "qotto_file": qotto.__file__,
        "facts": {"numba": importlib.util.find_spec("numba") is not None,
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "mpmath": mpmath.__version__},
    }
    if tracer:
        result["spans"] = tracer.spans
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
