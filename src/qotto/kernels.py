"""Hot numerical kernels: Boltzmann reductions and occupation enumeration.

Each kernel exists twice: a numba ``@njit`` build (the default) and a pure
numpy/itertools fallback. ``QOTTO_NO_NUMBA=1`` selects the fallback; it is
also used automatically when numba cannot be imported. ``USING_NUMBA`` tells
which path is active. ``benchmarks/bench_kernels.py`` times both.

Conventions: ``w`` is a float64 array of energy coefficients (energy times
L^p, so E = w / L^p) and ``beta_eff = beta / L^p``, making every Boltzmann
weight exp(-beta_eff * w). All sums are shifted by the minimum coefficient
before exponentiation so that beta_eff * w of several hundred cannot
underflow the whole sum.
"""

from __future__ import annotations

import itertools
import os

import numpy as np


# ---------------------------------------------------------------------------
# pure numpy / itertools implementations


def _log_z_and_mean_np(w: np.ndarray, beta_eff: float) -> tuple[float, float]:
    w0 = w.min()
    x = np.exp(-beta_eff * (w - w0))
    s = x.sum()
    log_z = float(-beta_eff * w0 + np.log(s))
    mean_w = float(w0 + ((w - w0) * x).sum() / s)
    return log_z, mean_w


# elements of the temperature x state block mean_coefficients holds at once
_BLOCK_ELEMENTS = 1 << 16


def mean_coefficients(w: np.ndarray, beta_effs: np.ndarray) -> np.ndarray:
    """Mean of w at each beta_eff: numpy only, bit for bit _log_z_and_mean_np."""
    w0 = w.min()
    d = w - w0
    rows = max(1, _BLOCK_ELEMENTS // d.size)
    out = np.empty(beta_effs.size)
    for i in range(0, beta_effs.size, rows):
        x = np.exp(-beta_effs[i:i + rows, None] * d)
        out[i:i + rows] = w0 + (d * x).sum(axis=1) / x.sum(axis=1)
    return out


def _gibbs_weights_np(w: np.ndarray, beta_eff: float) -> np.ndarray:
    x = np.exp(-beta_eff * (w - w.min()))
    return x / x.sum()


def _occupation_index_array(n: int, m: int, count: int, distinct: bool) -> np.ndarray:
    combos = itertools.combinations(range(n), m) if distinct else \
        itertools.combinations_with_replacement(range(n), m)
    flat = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.int64,
                       count=count * m)
    return flat.reshape(count, m)


def _multiset_sums_np(w: np.ndarray, m: int, count: int) -> np.ndarray:
    return w[_occupation_index_array(w.size, m, count, False)].sum(axis=1)


def _subset_sums_np(w: np.ndarray, m: int, count: int) -> np.ndarray:
    return w[_occupation_index_array(w.size, m, count, True)].sum(axis=1)


# ---------------------------------------------------------------------------
# numba builds

USING_NUMBA = False

if os.environ.get("QOTTO_NO_NUMBA", "").strip().lower() in ("", "0", "false", "no"):
    try:
        from numba import njit
    except ImportError:
        njit = None

    if njit is not None:
        @njit(cache=True)
        def _log_z_and_mean_nb(w, beta_eff):
            w0 = w[0]
            for i in range(w.size):
                if w[i] < w0:
                    w0 = w[i]
            s = 0.0
            t = 0.0
            for i in range(w.size):
                e = np.exp(-beta_eff * (w[i] - w0))
                s += e
                t += (w[i] - w0) * e
            return -beta_eff * w0 + np.log(s), w0 + t / s

        @njit(cache=True)
        def _gibbs_weights_nb(w, beta_eff):
            w0 = w[0]
            for i in range(w.size):
                if w[i] < w0:
                    w0 = w[i]
            out = np.empty(w.size, np.float64)
            s = 0.0
            for i in range(w.size):
                e = np.exp(-beta_eff * (w[i] - w0))
                out[i] = e
                s += e
            for i in range(w.size):
                out[i] /= s
            return out

        @njit(cache=True)
        def _multiset_sums_nb(w, m, count):
            # nondecreasing index tuples in lexicographic order
            n = w.size
            idx = np.zeros(m, np.int64)
            out = np.empty(count, np.float64)
            for k in range(count):
                tot = 0.0
                for j in range(m):
                    tot += w[idx[j]]
                out[k] = tot
                j = m - 1
                while j >= 0 and idx[j] == n - 1:
                    j -= 1
                if j < 0:
                    break
                v = idx[j] + 1
                for t in range(j, m):
                    idx[t] = v
            return out

        @njit(cache=True)
        def _subset_sums_nb(w, m, count):
            # strictly increasing index tuples in lexicographic order
            n = w.size
            idx = np.empty(m, np.int64)
            for j in range(m):
                idx[j] = j
            out = np.empty(count, np.float64)
            for k in range(count):
                tot = 0.0
                for j in range(m):
                    tot += w[idx[j]]
                out[k] = tot
                j = m - 1
                while j >= 0 and idx[j] == n - m + j:
                    j -= 1
                if j < 0:
                    break
                idx[j] += 1
                for t in range(j + 1, m):
                    idx[t] = idx[t - 1] + 1
            return out

        USING_NUMBA = True


if USING_NUMBA:
    log_z_and_mean = _log_z_and_mean_nb
    gibbs_weights = _gibbs_weights_nb
    multiset_sums = _multiset_sums_nb
    subset_sums = _subset_sums_nb
else:
    log_z_and_mean = _log_z_and_mean_np
    gibbs_weights = _gibbs_weights_np
    multiset_sums = _multiset_sums_np
    subset_sums = _subset_sums_np
