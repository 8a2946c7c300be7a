"""Hot numerical kernels: the Boltzmann reduction and the state-energy tables.

numpy only. ``log_z_and_mean`` is the one Boltzmann reduction: a table of
energy coefficients at an array of inverse temperatures, reduced in blocks
of at most 2^16 temperature x state elements. Enumeration, the recursion's
single-particle sums and whole sweep grids all go through it.
``multiset_sums`` and ``subset_sums`` build the enumerated boson and fermion
energy tables.

Conventions: ``w`` is a float64 array of energy coefficients (energy times
L^p, so E = w / L^p) and ``beta_eff = beta / L^p``, making every Boltzmann
weight exp(-beta_eff * w). All sums are shifted by the minimum coefficient
before exponentiation so that beta_eff * w of several hundred cannot
underflow the whole sum.
"""

from __future__ import annotations

import itertools

import numpy as np

# elements of the temperature x state block log_z_and_mean holds at once
_BLOCK_ELEMENTS = 1 << 16


def log_z_and_mean(w: np.ndarray,
                   beta_effs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log Z and the Boltzmann mean of w at each inverse temperature."""
    w0 = w.min()
    d = w - w0
    rows = max(1, _BLOCK_ELEMENTS // d.size)
    log_z = np.empty(beta_effs.size)
    mean = np.empty(beta_effs.size)
    for i in range(0, beta_effs.size, rows):
        b = beta_effs[i:i + rows]
        x = np.exp(-b[:, None] * d)
        s = x.sum(axis=1)
        log_z[i:i + rows] = -b * w0 + np.log(s)
        mean[i:i + rows] = w0 + (d * x).sum(axis=1) / s
    return log_z, mean


def _occupation_index_array(n: int, m: int, count: int, distinct: bool) -> np.ndarray:
    combos = itertools.combinations(range(n), m) if distinct else \
        itertools.combinations_with_replacement(range(n), m)
    flat = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64,
                       count=count * m)
    return flat.reshape(count, m)


def multiset_sums(w: np.ndarray, m: int, count: int) -> np.ndarray:
    """Sum of w over every nondecreasing index m-tuple, lexicographic order."""
    return w[_occupation_index_array(w.size, m, count, False)].sum(axis=1)


def subset_sums(w: np.ndarray, m: int, count: int) -> np.ndarray:
    """Sum of w over every strictly increasing index m-tuple, lexicographic order."""
    return w[_occupation_index_array(w.size, m, count, True)].sum(axis=1)
