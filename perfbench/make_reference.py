"""Write the reference outputs the correctness check compares against.

    python3 perfbench/make_reference.py

Runs each workload once, exactly as a timed repetition does, and stores its
CSV xz-compressed in perfbench/reference/. The stored files were made this
way from the code the benchmark was introduced on; rewrite them only when a
change to qotto's numbers is intended.
"""

from __future__ import annotations

import lzma
import shutil
import sys

import check
import points as point_gen
from run import DEFAULT_SEED, ROOT, reference_name, run_repetition


def main() -> int:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for workload in ("fig45", "fig67", "points"):
            pts = point_gen.generate(DEFAULT_SEED) if workload == "points" else None
            rep = run_repetition(workload, work, pts, False, 600.0)
            if rep["status"] != 0 or rep["error"]:
                print(f"{workload} failed: {rep['error']}", file=sys.stderr)
                return 1
            path = check.reference_path(reference_name(workload, DEFAULT_SEED))
            with lzma.open(path, "wb", preset=9) as fh:
                fh.write(rep["output"])
            rows = len(check.split_csv(rep["output"])[1])
            print(f"wrote {path} ({rows} rows)")
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
