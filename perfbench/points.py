"""Seeded single-point inputs for the `points` workload.

96 points: every cell of 4 spectra x 3 statistics gets one point in each of
8 log10 state-count bins (1, 2, 3, 4, 4.5, 5, 6.5, 7), each plus a jitter of
up to 0.5. The largest enumerated ensembles stay below qotto's 2M-state
`auto` cap (bin 5 tops out at 10^5.5); bins 6.5 and 7 go above it, so the
`auto` dispatcher takes the recursion (bosons, fermions) or the M*U_1
factorization (distinguishable particles).

The design is stratified so that run time does not depend on the seed:

* Within one (bin, statistics) stratum the four spectra share a fixed set
  of four particle counts M from 2..8 (2..5 for distinguishable particles).
  The set rotates from bin to bin, so every M occurs at every size range.
  The seed decides which spectrum gets which M.
* Enumeration cost and memory grow with (state count) x M, so the jitter
  takes the centres of four equal sub-ranges of [0, 0.5), the lowest for
  the largest M. The state counts, and with them cost and peak memory, are
  then the same for every seed.
* lambda (log-uniform in [0.05, 20]), R (in [1.5, 4]) and Th (in
  [1.05, 4] * R^p) are Latin-hypercube draws over the four spectra.

No two points share an ensemble or a Th grid, so per-ensemble caches and
batched grids gain nothing here. Only the standard library is used, so the
program receives nothing but the generated numbers.
"""

from __future__ import annotations

import math
import random

KINDS = ("box", "harmonic", "relativistic-box", "quartic")
POWER_P = {"box": 2.0, "harmonic": 2.0, "relativistic-box": 1.0,
           "quartic": 4.0 / 3.0}
STATISTICS = ("boson", "fermion", "distinguishable")
LOG10_BINS = (1.0, 2.0, 3.0, 4.0, 4.5, 5.0, 6.5, 7.0)
JITTER = 0.5
LAMBDA_RANGE = (0.05, 20.0)
R_RANGE = (1.5, 4.0)
TH_FACTOR_RANGE = (1.05, 4.0)


def state_count(statistics: str, M: int, N: int) -> int:
    if statistics == "boson":
        return math.comb(N + M - 1, M)
    if statistics == "fermion":
        return math.comb(N, M)
    return N**M


def levels_for(statistics: str, M: int, target: float) -> int:
    """Smallest level count N whose state count reaches target."""
    lo = M if statistics == "fermion" else 1
    hi = lo
    while state_count(statistics, M, hi) < target:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if state_count(statistics, M, mid) < target:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _latin(rng: random.Random, n: int) -> list[float]:
    """n draws from [0, 1), one in each of n equal strata, shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _particle_counts(bin_index: int, stats_index: int, statistics: str) -> list[int]:
    if statistics == "distinguishable":
        return [2, 3, 4, 5]
    return sorted((4 * bin_index + 2 * stats_index + j) % 7 + 2 for j in range(4))


def generate(seed: int) -> list[dict]:
    """The 96 points for a seed; the same seed gives the same points."""
    rng = random.Random(seed)
    lam_lo, lam_hi = LAMBDA_RANGE
    points = []
    for bi, b in enumerate(LOG10_BINS):
        for si, statistics in enumerate(STATISTICS):
            kinds = list(KINDS)
            rng.shuffle(kinds)
            ms = _particle_counts(bi, si, statistics)
            lam, r, th = (_latin(rng, len(kinds)) for _ in range(3))
            for i, kind in enumerate(kinds):
                M = ms[i]
                jitter = JITTER * (len(kinds) - 0.5 - i) / len(kinds)
                N = levels_for(statistics, M, 10.0 ** (b + jitter))
                R = R_RANGE[0] + (R_RANGE[1] - R_RANGE[0]) * r[i]
                factor = TH_FACTOR_RANGE[0] + \
                    (TH_FACTOR_RANGE[1] - TH_FACTOR_RANGE[0]) * th[i]
                points.append({
                    "kind": kind, "statistics": statistics, "M": M, "N": N,
                    "lam": lam_lo * (lam_hi / lam_lo) ** lam[i],
                    "R": R, "Th": factor * R ** POWER_P[kind],
                })
    return points
