"""Self-test of the benchmark itself (a few minutes; run from the checkout root):

    python3 perfbench/selftest.py

1. The correctness check rejects a CSV with one float perturbed by 1e-9
   relative, and accepts a byte-identical rerun.
2. A reduced run (--seconds 1) of every workload, untraced and traced,
   prints exactly the metric names and units of BENCHMARK.json, with every
   row correct.
3. A second traced run repeats every count of the first exactly, among them
   manybody.internal_energy.calls on fig45 and manybody.recursion_mp.calls
   on fig67.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   with a nonzero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import check
import points as point_gen
from run import DEFAULT_SEED, HERE, ROOT, WORKLOADS, per_layer_unit

EXACT_UNITS = ("count", "calls/row", "digits", "bytes", "frac")


def bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perturbed(data: bytes, row: int, column: str, rel: float) -> bytes:
    header, rows = check.split_csv(data)
    i = header.index(column)
    rows[row][i] = format(float(rows[row][i]) * (1.0 + rel), ".17g")
    return ("\n".join(",".join(r) for r in [header] + rows) + "\n").encode()


def test_check() -> None:
    for name in ("fig45", "fig67", f"points-seed{DEFAULT_SEED}"):
        ref = check.read_reference(name)
        assert check.failed_against_reference(ref, ref) == 0, name
        rerun = bytes(bytearray(ref))
        assert check.failed_against_first(rerun, ref) == 0, name
        for column in ("U2", "W", "Ws"):
            bad = perturbed(ref, 5, column, 1e-9)
            assert check.failed_against_reference(bad, ref) == 1, (name, column)
            assert check.failed_against_first(bad, ref) == 1, (name, column)
    ref = check.read_reference(f"points-seed{DEFAULT_SEED}")
    pts = point_gen.generate(DEFAULT_SEED)
    assert check.failed_identities(ref, pts, point_gen.POWER_P) == 0
    assert check.failed_identities(perturbed(ref, 3, "W", 1e-6), pts,
                                   point_gen.POWER_P) == 1
    print("check: perturbed floats rejected, identical rerun accepted")


def test_runs() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        traced = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            res = result_of(bench(workload, trace))
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            if trace:
                traced.append({name: m["value"] for name, m in res["metrics"].items()
                               if per_layer_unit(name) in EXACT_UNITS})
        assert traced[0] == traced[1], (workload, {
            k: (traced[0][k], traced[1][k]) for k in traced[0] if traced[0][k] != traced[1][k]})
        print(f"{workload}: metric names match BENCHMARK.json, counts repeat: "
              f"internal_energy.calls={traced[0]['manybody.internal_energy.calls']:g} "
              f"recursion_mp.calls={traced[0]['manybody.recursion_mp.calls']:g}")


def test_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("fig67", 0, cwd=bare)
        assert proc.returncode != 0, proc.returncode
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    print("bare directory: run.py fails without printing a result")


def main() -> int:
    test_check()
    test_runs()
    test_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
