"""Hot numerical kernels: the Boltzmann reduction and the state-energy tables.

numpy only. ``log_z_and_mean`` reduces energy coefficients, with optional
multiplicities, at an array of inverse temperatures, in blocks of at most 2^16
temperature x state elements: the enumeration oracle's tables and the particle
recursion's single-particle sums. Sweeps take the level recursion in ``manybody``.
``state_tables`` builds the oracle's tables in colexicographic order, each level's block
from a slice of the last, and ``distinct_counts`` reduces a table to its distinct values.

Conventions: ``w`` is a float64 array of energy coefficients (energy times
L^p, so E = w / L^p; the oracle builds on the exact integer level shapes
instead) and ``beta_eff = beta / L^p``, making every Boltzmann
weight exp(-beta_eff * w). All sums are shifted by the minimum coefficient
before exponentiation so that beta_eff * w of several hundred cannot
underflow the whole sum.
"""

from __future__ import annotations

import numpy as np

# elements of the temperature x state block log_z_and_mean holds at once
_BLOCK_ELEMENTS = 1 << 16
# mean states per level below which one gather beats state_tables' numpy add per level
_SLICE_BLOCK = 256


def log_z_and_mean(w: np.ndarray, beta_effs: np.ndarray,
                   counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """log Z and the Boltzmann mean of w at each beta_eff; counts[i] states share w[i].
    A beta_eff * (w - w.min()) past the float range is the exact weight exp(-inf) = 0;
    log Z = -inf is the rounded value of a -beta_eff * w.min() below -1.8e308."""
    w0 = w.min()
    d = w - w0
    rows = max(1, _BLOCK_ELEMENTS // d.size)
    log_z = np.empty(beta_effs.size)
    mean = np.empty(beta_effs.size)
    for i in range(0, beta_effs.size, rows):
        b = beta_effs[i:i + rows]
        with np.errstate(over="ignore"):  # either product may leave the float range
            x, log_z[i:i + rows] = -b[:, None] * d, -b * w0
        x = np.exp(x)
        if counts is not None:
            x *= counts  # a multiply rounds once; a log-count offset would not
        s = x.sum(axis=1)
        log_z[i:i + rows] += np.log(s)
        mean[i:i + rows] = w0 + (d * x).sum(axis=1) / s
    return log_z, mean


def state_tables(w: np.ndarray, m: int, statistics: str, rows: bool = False):
    """Sums of w, added left to right, over every k-particle index tuple (bosons
    nondecreasing, m <= w.size fermions increasing, distinguishable any), colexicographic
    (last index first): the tables k = 1..m if ``rows``, else the m-table alone, whose
    fermion tuples keep only the levels that leave room for the rest. Tuples ending at level
    j are a prefix of the (k-1)-table plus w[j]: one add per level, or one gather if small."""
    n, spare = w.size, (m if statistics == "fermion" and not rows else 0)
    s = w[:n - max(spare - 1, 0)]
    ends = np.arange(1, s.size + 1)  # states of the table that end at a level <= j
    for k in range(2, m + 1):
        if rows:
            yield s
        if statistics == "distinguishable":
            s = np.add.outer(w, s).ravel()  # w[j] + s equals s + w[j]: addition commutes
            continue
        # block j takes the prefix that ends at a level <= j, at a level < j for fermions
        blocks = ends if statistics == "boson" else np.concatenate(([0], ends))[:n - max(spare - k, 0)]
        ends = np.cumsum(blocks)
        if ends[-1] < _SLICE_BLOCK * blocks.size:
            starts = np.repeat(ends - blocks, blocks)  # the start of each state's block
            s = s[np.arange(ends[-1]) - starts] + np.repeat(w[:blocks.size], blocks)
            continue
        prev, s = s, np.empty(ends[-1], dtype=s.dtype)
        for x, size, end in zip(w.tolist(), blocks.tolist(), ends.tolist()):
            np.add(prev[:size], x, s[end - size:end])
    yield s


def distinct_counts(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(table, return_counts=True) of a nonnegative integer table, by
    np.bincount where 0..max spans at most 4 values per entry (never a sparse range)."""
    if table.max() >= 4 * table.size:
        return np.unique(table, return_counts=True)
    counts = np.bincount(table)
    levels = np.flatnonzero(counts)
    return levels, counts[levels]
