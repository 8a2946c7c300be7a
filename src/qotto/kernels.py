"""Hot numerical kernels: the Boltzmann reduction and the state-energy tables.

numpy only. ``log_z_and_mean`` reduces energy coefficients, with optional
multiplicities, at an array of inverse temperatures, in blocks of at most 2^16
temperature x state elements: the enumeration oracle's tables and the particle
recursion's single-particle sums. Sweeps take the level recursion in ``manybody``.
``multiset_sums`` and ``subset_sums`` build the oracle's boson and fermion tables
in lexicographic order from running sums, one particle at a time.

Conventions: ``w`` is a float64 array of energy coefficients (energy times
L^p, so E = w / L^p) and ``beta_eff = beta / L^p``, making every Boltzmann
weight exp(-beta_eff * w). All sums are shifted by the minimum coefficient
before exponentiation so that beta_eff * w of several hundred cannot
underflow the whole sum.
"""

from __future__ import annotations

import numpy as np

# elements of the temperature x state block log_z_and_mean holds at once
_BLOCK_ELEMENTS = 1 << 16


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


def _tuple_sums(w: np.ndarray, m: int, distinct: bool) -> np.ndarray:
    # each prefix keeps only its last level and its sum, added left to right
    last = np.arange(w.size - m + 1 if distinct else w.size)
    s = w[last]
    for k in range(1, m):
        lo = last + 1 if distinct else last
        counts = (w.size - m + k + 1 if distinct else w.size) - lo
        last = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        s = np.repeat(s, counts) + w[last]
    return s


def multiset_sums(w: np.ndarray, m: int) -> np.ndarray:
    """Sum of w over every nondecreasing index m-tuple, lexicographic order."""
    return _tuple_sums(w, m, False)


def subset_sums(w: np.ndarray, m: int) -> np.ndarray:
    """Sum of w over every strictly increasing index m-tuple, lexicographic order."""
    return _tuple_sums(w, m, True)
