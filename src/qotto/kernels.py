"""Hot numerical kernels: the Boltzmann reduction and the oracle's state counts.

numpy only. ``log_z_and_mean`` reduces energy coefficients, with optional
multiplicities, at an array of inverse temperatures, in blocks of at most 2^13
temperature x state elements: the enumeration oracle's distinct energies and the
particle recursion's single-particle sums. Sweeps take the level recursion in
``manybody``. ``energy_histograms`` counts the oracle's k-particle states by their
exact integer energy, one level at a time, without listing them.

Conventions: ``w`` is a float64 array of energy coefficients (energy times
L^p, so E = w / L^p; the oracle builds on the exact integer level shapes
instead) and ``beta_eff = beta / L^p``, making every Boltzmann
weight exp(-beta_eff * w). All sums are shifted by the minimum coefficient
before exponentiation so that beta_eff * w of several hundred cannot
underflow the whole sum.
"""

from __future__ import annotations

import numpy as np

# elements of the temperature x state block of log_z_and_mean and the level recursion:
# 64 KiB of float64, under malloc's mmap threshold, so blocks reuse heap memory
_BLOCK_ELEMENTS = 1 << 13


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


def energy_histograms(g: np.ndarray, m: int, statistics: str) -> list[np.ndarray]:
    """Row k of the m int64 rows counts the k-particle states by total shape: entry E the
    index tuples (bosons nondecreasing, fermions increasing, distinguishable any) whose
    shapes g, nonnegative integers ascending, sum to E. Each level adds, per row, the
    row one particle smaller shifted by its shape: P_k[x:] += P_{k-1}, k from m down
    for fermions (each level once), up for bosons (any number of times); distinguishable
    particles add every level once per particle. Slices span only each row's support."""
    xs = g.tolist()
    hist = [np.zeros(k * xs[-1] + 1, dtype=np.int64) for k in range(m + 1)]
    hist[0][0] = 1
    tops = [0] + [-1] * m  # each row's highest energy so far; -1 while it is empty
    order = range(m, 0, -1) if statistics == "fermion" else range(1, m + 1)
    for k, x in ([(k, x) for k in order for x in xs] if statistics == "distinguishable"
                 else [(k, x) for x in xs for k in order]):
        if tops[k - 1] >= 0:
            hist[k][x:x + tops[k - 1] + 1] += hist[k - 1][:tops[k - 1] + 1]
            tops[k] = tops[k - 1] + x  # x is the largest shape added to row k so far
    return hist[1:]
