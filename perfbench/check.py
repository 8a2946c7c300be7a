"""Row-by-row correctness checks for the CSVs the workloads produce.

Against a stored reference (the behaviour contract): float columns agree to
1e-11 relative; W and Ws may instead agree to 1e-11 * |Qh|, since near the
W = 0 threshold they are small differences of corner energies; the ratio
gets the tolerance that W and Ws pass on to it; `nan` must appear in the
same rows; every other column matches exactly.

Without a reference (a `points` seed that has none): the row echoes its
input point, every value is finite, W = (1 - R^-p) * Qh up to 1e-10 of the
largest corner energy W is formed from, and positive_work equals
Th > R^p * Tc. Where |W| is below that 1e-10 resolution (deep in the
low-temperature regime U2 and U1 can agree to every digit, so W = 0), the
flag must agree with the sign of the W printed instead. The flag is read
case-blind: qotto prints `True` where W is a numpy scalar and `true`
elsewhere, and the reference comparison already pins the exact bytes.
"""

from __future__ import annotations

import lzma
import math
from pathlib import Path

REL_TOL = 1e-11
IDENTITY_TOL = 1e-10
EXACT_COLUMNS = ("spectrum", "statistics", "M", "N", "positive_work")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.csv.xz"


def read_reference(name: str) -> bytes | None:
    path = reference_path(name)
    if not path.is_file():
        return None
    with lzma.open(path, "rb") as fh:
        return fh.read()


def split_csv(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = data.decode("utf-8").splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def _row_matches(col: dict[str, int], got: list[str], ref: list[str]) -> bool:
    if len(got) != len(ref):
        return False
    try:
        values = {name: (float(got[i]), float(ref[i])) for name, i in col.items()
                  if name not in EXACT_COLUMNS}
    except ValueError:
        return False
    if any(got[col[name]] != ref[col[name]] for name in EXACT_COLUMNS):
        return False
    qh = abs(values["Qh"][1])
    tol = {}
    for name, (a, b) in values.items():
        tol[name] = REL_TOL * abs(b)
        if name in ("W", "Ws"):
            tol[name] = REL_TOL * max(abs(b), qh)
    w, ws, ratio = values["W"][1], values["Ws"][1], values["ratio"][1]
    if w != 0 and ws != 0 and not math.isnan(ratio):
        tol["ratio"] = abs(ratio) * (REL_TOL + tol["W"] / abs(w) + tol["Ws"] / abs(ws))
    return all(_close(a, b, tol[name]) for name, (a, b) in values.items())


def failed_against_reference(got: bytes, ref: bytes) -> int:
    """Rows of ref that got does not reproduce within the contract."""
    header, rows = split_csv(got)
    ref_header, ref_rows = split_csv(ref)
    if header != ref_header:
        return len(ref_rows)
    col = {name: i for i, name in enumerate(header)}
    failed = sum(not _row_matches(col, g, r) for g, r in zip(rows, ref_rows))
    return failed + max(0, len(ref_rows) - len(rows))


def _point_fields(point: dict) -> dict[str, str]:
    return {"spectrum": point["kind"], "statistics": point["statistics"],
            "M": str(point["M"]), "N": str(point["N"]),
            "lambda": format(point["lam"], ".17g"),
            "R": format(point["R"], ".17g"), "Th": format(point["Th"], ".17g"),
            "L1": "1", "Tc": "1"}


def _row_obeys_identities(col: dict[str, int], row: list[str], point: dict,
                          power_p: float) -> bool:
    if len(row) != len(col):
        return False
    if any(row[col[name]] != text for name, text in _point_fields(point).items()):
        return False
    try:
        v = {name: float(row[i]) for name, i in col.items()
             if name not in ("spectrum", "statistics", "positive_work")}
    except ValueError:
        return False
    if not all(math.isfinite(x) for x in v.values()):
        return False
    eta = 1.0 - v["R"] ** -power_p
    scale = max(abs(v["Qh"]), abs(v["U1"]), abs(v["U2"]))
    if abs(v["W"] - eta * v["Qh"]) > IDENTITY_TOL * scale:
        return False
    flag = row[col["positive_work"]].lower()
    if flag not in ("true", "false"):
        return False
    if abs(v["W"]) > IDENTITY_TOL * scale:
        expected = v["Th"] > v["R"] ** power_p * v["Tc"]
    else:  # W is below what the corner energies resolve; the flag follows W
        expected = v["W"] > 0
    return (flag == "true") == expected


def failed_identities(got: bytes, points: list[dict], power_p: dict) -> int:
    """Rows that break the cycle identities or do not echo their point."""
    header, rows = split_csv(got)
    col = {name: i for i, name in enumerate(header)}
    if not {"W", "Qh", "U1", "U2", "R", "Th", "Tc", "positive_work"} <= set(col):
        return len(points)
    failed = sum(not _row_obeys_identities(col, row, p, power_p[p["kind"]])
                 for row, p in zip(rows, points))
    return failed + max(0, len(points) - len(rows))


def failed_against_first(got: bytes, first: bytes) -> int:
    """Rows that differ in bytes from the first repetition's output."""
    if got == first:
        return 0
    rows, first_rows = got.split(b"\n"), first.split(b"\n")
    differing = sum(a != b for a, b in zip(rows, first_rows))
    return max(1, differing + abs(len(rows) - len(first_rows)))
