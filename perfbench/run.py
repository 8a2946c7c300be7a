"""qotto's benchmark: cold-process workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (qotto is imported from ./src):

    python3 perfbench/run.py --workload fig45 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Workloads (each repetition is a fresh interpreter, as every CLI command is
its own process, so no in-process cache carries over between repetitions):

    fig45   qotto.cli.main(["sweep", "--figure", "4", ...]) with CLI
            defaults: 5600 rows from 56 box ensembles x 200 Th values.
            Heavy reuse of few ensembles; state generation dominates and the
            recursion never runs.
    fig67   qotto.cli.main(["sweep", "--figure", "6", ...]): 178 rows on the
            recursion backend (with its mpmath escalations) plus the
            enumeration cross-check.
    points  96 qotto.make_record calls at seeded, stratified points (see
            points.py): no shared ensembles, all four spectra, all three
            statistics and every route of the `auto` dispatcher.

A run repeats its workload until --seconds have passed (at least twice)
and reports medians. Without tracing, each round runs the workload, on the
same inputs, both on ./src and on baseline/qotto, a frozen copy of qotto as
it was when the benchmark was introduced. The two processes take turns of
50 ms, one stopped (SIGSTOP) while the other runs, and a side that ends
first starts afresh until the other has ended too. The host's speed
drifts by 20-30% over seconds to minutes on a shared virtual machine, so
absolute times of the same code spread too far between runs for a useful
bound; taking turns exposes both sides to the same drift, which cancels in
their ratio, while a change to ./src moves only the numerator. Each round
is followed by two set-up probes (a fresh interpreter alone that only
imports qotto.cli). With --trace 0 the result carries the end-to-end
metrics:

    setup_s      fresh interpreter until `import qotto.cli` returns
    cpu_rel      user + system CPU time of the workload call (after import,
                 CSV write included) over the baseline's in the same round;
                 1 on the code the benchmark was introduced on
    wall_rel     wall time of the same call, counting only the process's own
                 turns, over the baseline's
    peak_rss_mb  ru_maxrss of the process on ./src
    ok_rate      share of output rows that pass the correctness check

The report above the result also prints the absolute medians wall_s and
cpu_s of ./src and of the baseline, and error_rate = 1 - ok_rate, each with
its sample count n (rows for the two rates).

With --trace 1 it alternates untraced and traced repetitions and prints the
per-layer metrics of layers.py (medians over traced repetitions) plus
tracing_overhead_s, the traced minus the untraced median wall time.

Every row is checked (check.py) against the outputs stored in reference/
or, for a `points` seed without one, against the cycle identities; every
repetition must also repeat the first one's CSV byte for byte. The
baseline must pass the same check, or the run ends without a result. The last
line of standard output is one JSON object with the keys correct,
attempted, failed (rows) and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import signal
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

import check
import layers
import points as point_gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
WORKLOADS = ("fig45", "fig67", "points")
DEFAULT_SEED = 1
MIN_ROUNDS = 2
# one invocation must end within 180 s, checks and clean-up included
RUN_BUDGET_S = 165.0
# turn length of the two sides of a pair (see _in_turns)
SLICE_S = 0.05
PR_SET_PDEATHSIG = 1

END_TO_END_UNITS = {"setup_s": "s", "cpu_rel": "ratio", "wall_rel": "ratio",
                    "peak_rss_mb": "MB", "ok_rate": "frac"}
_SUFFIX_UNITS = (("self_s", "s"), ("overhead_s", "s"), ("ns_per_element", "ns"),
                 ("calls_per_row", "calls/row"), ("distinct_frac", "frac"),
                 ("dps_max", "digits"), ("bytes", "bytes"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def per_layer_unit(name: str) -> str:
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def median_of(results: list[dict], name: str) -> float:
    return statistics.median(r[name] for r in results)


def reference_name(workload: str, seed: int) -> str:
    return f"points-seed{seed}" if workload == "points" else workload


def _die_with_parent() -> None:
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _popen(args: list[str], src: Path, stdout, stderr) -> subprocess.Popen:
    """Start child.py in a fresh interpreter on the qotto under src; it is
    killed if this process dies first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr, preexec_fn=_die_with_parent)


def _end(procs: list[subprocess.Popen]) -> None:
    """Kill whatever is still running (stopped or not) and reap it."""
    for proc in procs:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGCONT)
            proc.kill()
        proc.wait()


def _child(args: list[str], timeout: float, src: Path) -> tuple[float, bytes]:
    """Run child.py alone; its start time and stdout."""
    start = time.perf_counter()
    proc = _popen(args, src, subprocess.PIPE, subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a repetition did not finish within {timeout:.0f} s")
    finally:
        _end([proc])
    if proc.returncode != 0:
        raise BenchError(f"child.py exited with {proc.returncode}:\n"
                         + err.decode(errors="replace"))
    return start, out


def _in_turns(children: list[tuple[list[str], Path]], work: Path, timeout: float,
              on_exit: Callable[[int, list[tuple[float, float]]], None]) -> None:
    """Run child.py once per (args, src), taking turns of SLICE_S seconds:
    one runs while the others are stopped (SIGSTOP), so each meets the same
    state of the host and none competes with another for a core. When child
    i ends, on_exit(i, spans) gets the spans of time it was let run; while
    any other child has yet to end once, child i then starts afresh, so the
    sides stay paired to the end however their speeds differ. Runs still
    going when the last child ends its first run are killed."""
    deadline = time.perf_counter() + timeout
    procs, spans, ended = [], [[] for _ in children], [False] * len(children)
    errs = [open(work / f"stderr{i}", "w+b") for i in range(len(children))]

    def start(i: int) -> subprocess.Popen:
        errs[i].seek(0)
        errs[i].truncate()
        args, src = children[i]
        procs.append(_popen(args, src, subprocess.DEVNULL, errs[i]))
        os.kill(procs[-1].pid, signal.SIGSTOP)
        spans[i] = []
        return procs[-1]

    try:
        running = [start(i) for i in range(len(children))]
        turn = 0
        while not all(ended):
            i = turn % len(children)
            turn += 1
            began = time.perf_counter()
            if began > deadline:
                raise BenchError(f"a repetition did not finish within {timeout:.0f} s")
            os.kill(running[i].pid, signal.SIGCONT)
            try:
                running[i].wait(SLICE_S)
            except subprocess.TimeoutExpired:
                os.kill(running[i].pid, signal.SIGSTOP)
            spans[i].append((began, time.perf_counter()))
            if running[i].returncode is None:
                continue
            if running[i].returncode != 0:
                errs[i].seek(0)
                raise BenchError(f"child.py exited with {running[i].returncode}:\n"
                                 + errs[i].read().decode(errors="replace"))
            on_exit(i, spans[i])
            ended[i] = True
            if not all(ended):
                running[i] = start(i)
    finally:
        _end(procs)
        for err in errs:
            err.close()


def _check_origin(result: dict, src: Path) -> dict:
    if not Path(result["qotto_file"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"qotto was imported from {result['qotto_file']}, not {src}")
    return result


def setup_probe(timeout: float) -> float:
    """Set-up time of one fresh interpreter that only imports qotto.cli."""
    start, out = _child([], timeout, SRC)
    return _check_origin(json.loads(out.decode().splitlines()[-1]), SRC)["setup_done"] - start


def _job(workload: str, work: Path, pts: list | None, traced: bool,
         tag: str) -> tuple[Path, Path, Path]:
    """Write a job file for child.py; its path, its result's and its CSV's."""
    job_path, result_path, output = (work / f"{tag}-{n}"
                                     for n in ("job.json", "result.json", "out.csv"))
    for path in (result_path, output):
        if path.exists():
            path.unlink()
    job = {"workload": workload, "trace": traced, "points": pts,
           "output": str(output), "result": str(result_path)}
    job_path.write_text(json.dumps(job), encoding="utf-8")
    return job_path, result_path, output


def _collect(result_path: Path, output: Path, src: Path, traced: bool) -> dict:
    result = _check_origin(json.loads(result_path.read_text(encoding="utf-8")), src)
    result["trace"] = traced
    result["output"] = output.read_bytes() if output.exists() else b""
    return result


def run_repetition(workload: str, work: Path, pts: list | None, traced: bool,
                   timeout: float) -> dict:
    """Run the workload on ./src alone in one fresh interpreter."""
    job_path, result_path, output = _job(workload, work, pts, traced, "alone")
    start, _ = _child([str(job_path)], timeout, SRC)
    result = _collect(result_path, output, SRC, traced)
    result["setup_s"] = result["setup_done"] - start
    return result


def run_pair(workload: str, work: Path, pts: list | None, timeout: float,
             base_first: bool) -> tuple[list[dict], list[dict]]:
    """Run the workload on ./src and on the baseline, each in fresh
    interpreters, in turns (see _in_turns); the results of every finished
    run of each side, with wall_s counting only the time it was let run."""
    sides = [(SRC, "src"), (BASELINE, "baseline")]
    if base_first:
        sides.reverse()
    jobs = [_job(workload, work, pts, False, tag) for _, tag in sides]
    results = ([], [])

    def on_exit(i: int, spans: list[tuple[float, float]]) -> None:
        _, result_path, output = jobs[i]
        result = _collect(result_path, output, sides[i][0], False)
        result["wall_s"] = sum(max(0.0, min(end, result["t1"]) - max(begin, result["t0"]))
                               for begin, end in spans)
        results[i].append(result)

    _in_turns([([str(job[0])], src) for (src, _), job in zip(sides, jobs)],
              work, timeout, on_exit)
    return (results[1], results[0]) if base_first else results


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pts = point_gen.generate(seed) if workload == "points" else None
    reference = check.read_reference(reference_name(workload, seed))
    if reference is None and pts is None:
        raise BenchError(f"missing {check.reference_path(workload)}")
    rows = len(pts) if pts is not None else len(check.split_csv(reference)[1])

    def rows_failed(output: bytes) -> int:
        if reference is not None:
            return check.failed_against_reference(output, reference)
        return check.failed_identities(output, pts, point_gen.POWER_P)

    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    reps, pairs, setups = [], [], []
    first = first_base = None
    first_failed = attempted = failed = rounds = 0
    longest = 0.0

    def account(rep: dict) -> None:
        """Count the rows of one repetition's output that fail the check."""
        nonlocal first, first_failed, attempted, failed
        attempted += rows
        if rep["status"] != 0 or rep["error"]:
            failed += rows
            print(f"# {workload}: repetition failed (status {rep['status']})\n"
                  f"{rep['error'] or ''}", file=sys.stderr)
        elif first is None or rep["output"] != first:
            bad = rows_failed(rep["output"])
            if first is None:
                first, first_failed = rep["output"], bad
            else:
                bad = max(bad, check.failed_against_first(rep["output"], first))
            failed += min(rows, bad)
        else:
            failed += first_failed

    def check_baseline(base: dict) -> None:
        """The baseline must give the right rows, the same every time."""
        nonlocal first_base
        if base["output"] != first_base:
            if base["status"] != 0 or base["error"] or first_base is not None \
                    or rows_failed(base["output"]):
                raise BenchError(f"the baseline copy in {BASELINE} failed on {workload}:\n"
                                 f"{base['error'] or 'wrong or changing output'}")
            first_base = base["output"]

    try:
        while True:
            began = time.perf_counter()
            remaining = RUN_BUDGET_S - (began - start)
            if trace:  # every other repetition traced, none paired
                rep = run_repetition(workload, work, pts, rounds % 2 == 1, remaining)
                setups += [rep["setup_s"], setup_probe(remaining)]
                new = [rep]
            else:  # which side takes the first turn alternates
                new, bases = run_pair(workload, work, pts, remaining, rounds % 2 == 1)
                for base in bases:
                    check_baseline(base)
                pairs.append({f"{name}_rel": median_of(new, name) / median_of(bases, name)
                              for name in ("cpu_s", "wall_s")}
                             | {f"base_{name}": median_of(bases, name)
                                for name in ("cpu_s", "wall_s")})
                # a paired child's own set-up time includes the other's turns
                setups += [setup_probe(remaining), setup_probe(remaining)]
            for rep in new:
                account(rep)
            reps += new
            rounds += 1
            now = time.perf_counter()
            longest = max(longest, now - began)
            elapsed = now - start
            if rounds >= MIN_ROUNDS and (
                    elapsed >= seconds or elapsed + 2 * longest > RUN_BUDGET_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    plain = [r for r in reps if not r["trace"]]
    traced_reps = [r for r in reps if r["trace"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    printed = {"wall_s": (wall_s, "s", len(plain)),
               "cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s", len(plain)),
               "error_rate": (failed / attempted, "frac", attempted)}
    if trace:
        per_rep = [layers.layer_metrics(r["spans"], rows) for r in traced_reps]
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        metrics["tracing_overhead_s"] = \
            statistics.median(r["wall_s"] for r in traced_reps) - wall_s
        units = {name: per_layer_unit(name) for name in metrics}
        samples = {name: len(traced_reps) for name in metrics}
    else:
        printed |= {f"baseline_{name}": (median_of(pairs, f"base_{name}"), "s", len(pairs))
                    for name in ("wall_s", "cpu_s")}
        metrics = {"setup_s": statistics.median(setups),
                   "cpu_rel": median_of(pairs, "cpu_s_rel"),
                   "wall_rel": median_of(pairs, "wall_s_rel"),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                   "ok_rate": 1.0 - failed / attempted}
        units = END_TO_END_UNITS
        samples = {"setup_s": len(setups), "cpu_rel": len(pairs), "wall_rel": len(pairs),
                   "peak_rss_mb": len(plain), "ok_rate": attempted}
    facts = {"workload": workload, "seed": seed, "trace": int(trace),
             "seconds": seconds, "repetitions": len(reps),
             "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
             **reps[-1]["facts"], "reference": reference is not None,
             "samples": samples}
    return {"facts": facts, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
            "printed": {name: (value, units[name], samples[name])
                        for name, value in metrics.items()} | printed}


def report(workload: str, res: dict) -> None:
    print("# facts " + json.dumps(res["facts"], sort_keys=True))
    for name, (value, unit, n) in res["printed"].items():
        print(f"{workload:7s} {name:50s} {value:<12.6g} {unit:9s} (n={n})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that every child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (SRC / "qotto" / "__init__.py").is_file():
            raise BenchError(f"no qotto source tree at {SRC}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for workload, res in results.items():
        report(workload, res)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {w: r["metrics"] for w, r in results.items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
