"""Canonical ensembles of M identical particles on N truncated levels.

* The level recursion, ``_recursion_levels``, expands
  prod_n (1 +- x exp(-beta*e_n))^(+-1) one level at a time, each
  particle-number row relative to its own ground state, so every term is
  positive and nothing cancels. One call takes an array of beta/L^p and
  gives every k <= M. Below ``DEFAULT_STATE_CAP`` states every live number
  comes from it: row M for bosons and fermions, M times row 1 for
  distinguishable particles (Z_M = Z_1^M).

* ``recursion_rows`` takes bosons and fermions above the cap. In one float pass
  over every (beta, L) of a point list (of every ensemble, ``recursion_columns``)
  it runs the exact identical-particle recursion

      Z_M(beta) = (1/M) sum_{m=1..M} (+-1)^{m+1} Z_1(m*beta) Z_{M-m}(beta),

  upper sign for bosons, lower for fermions, Z_0 = 1; one pass to M gives
  every k <= M, and U comes from the differentiated recursion. Its float
  path tracks the fermionic sign cancellation and |log Z| (large, it leaves
  the log-domain terms few digits in their differences); rows past either
  limit come from the level recursion instead.

* Enumeration is the oracle only: it counts every symmetrized configuration
  (multisets for bosons, strictly increasing level tuples for fermions, ordered
  tuples for distinguishable particles) by its exact integer energy, in
  ``kernels.energy_histograms``. ``enumeration_rows`` counts every k <= M, each
  row from the last, and reduces each over its distinct energies at a list of
  (beta, L) points; ``enumeration_log_z_and_u`` does so for M alone, fermions
  past half filling as holes. Only ``validate`` and the tests call them.

The routes share nothing but Z_1's level coefficients, so they check each
other, and all give one shape: a list over k = 1..M of (log Z at every point, U at
every point). Each checks every point through ``effective_betas`` before any sum
runs. ``_energy_rows``, behind ``internal_energies``, is the one place that
chooses a route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptyStateSpaceError
from .spectrum import SpectrumSpec, check_count, level_coefficients

STATISTICS = ("boson", "fermion", "distinguishable")

# above this many states `internal_energies` gives bosons and fermions the
# particle recursion, not the level recursion. Stored benchmark references pin
# the numpy `True` positive_work its float path prints (155 fig67 rows, 13 of
# points seed 1); the split stays until they store exact values instead
DEFAULT_STATE_CAP = 2_000_000

# memory guard of the enumeration oracle: it refuses a build whose histogram
# rows hold more entries in all, sum_k (k g_max + 1) for rows k = 1..m
HARD_ENUMERATION_LIMIT = 50_000_000

# beyond this cancellation loss, or this |log Z|, the particle recursion hands
# over to the sign-free recursion over levels; the float path's error grows as
# |log Z| * eps, about 2e-13 relative at the limit
_LOSS_NATS_LIMIT = 6.9  # ~3 decimal digits
_LOG_Z_LIMIT = 4096.0


@dataclass(frozen=True)
class EnsembleSpec:
    """M identical particles with given statistics on N single-particle levels."""

    statistics: str
    M: int
    N: int

    def __post_init__(self):
        if self.statistics not in STATISTICS:
            raise ValueError(
                f"unknown statistics {self.statistics!r}; expected one of {STATISTICS}")
        check_count("particle", self.M)
        check_count("level", self.N)
        if self.statistics == "fermion" and self.M > self.N:
            raise EmptyStateSpaceError(
                f"{self.M} fermions do not fit on {self.N} levels")

    @property
    def state_count(self) -> int:
        """Number of many-body configurations."""
        if self.statistics == "boson":
            return math.comb(self.N + self.M - 1, self.M)
        if self.statistics == "fermion":
            return math.comb(self.N, self.M)
        return self.N**self.M


def _check_histogram_entries(ens: EnsembleSpec, m: int, top: int, rows: bool) -> None:
    """The oracle's memory guard on one build of m histogram rows, row k spanning
    shapes 0..k*top, whose int64 counts must hold every row's number of states."""
    if top * m * (m + 1) // 2 + m > HARD_ENUMERATION_LIMIT or any(
            EnsembleSpec(ens.statistics, k, ens.N).state_count >= 2**63
            for k in (range(1, ens.M + 1) if rows else [ens.M])):
        advice = ("internal_energies (M times the single-particle energy)"
                  if ens.statistics == "distinguishable" else "the recursion backend")
        count = ens.state_count  # str() refuses an int past 4300 digits; log10 takes it
        named = count if count < 10**15 else f"about 10^{math.log10(count):.0f}"
        raise ValueError(
            f"enumerating {named} configurations of {ens.M} particles"
            f"{' and every table below' if rows else ''} exceeds 2^63 states or the limit of "
            f"{HARD_ENUMERATION_LIMIT} table entries; use {advice}")


def inverse_temperature(T: float) -> float:
    """beta = 1/T for T positive and finite with a 1/T that does not overflow
    (a subnormal T makes every Boltzmann sum NaN)."""
    if not (0 < T < math.inf and 1.0 / T < math.inf):
        raise ValueError(
            f"temperature must be positive and finite with a finite 1/T, got {T}")
    return 1.0 / T


def effective_betas(ens: EnsembleSpec, spec: SpectrumSpec, beta_points: list[tuple[float, float]]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of beta/L^p and of L^p over the (beta, L) in ``beta_points``, all checked
    before any sum runs: beta finite and >= 0, L^p and beta/L^p finite and nonzero
    (beta/L^p is 0 at beta = 0 only), and the largest many-body energy finite. The
    checks run point by point: numpy's per-call cost exceeds the loop's on the two-point
    lists of a cycle."""
    n_top, M = spec.n_min + int(ens.N) - 1, int(ens.M)  # exact ints; no numpy overflow warning
    top = spec.scale_c * (sum(map(spec.level_shape, range(n_top - M + 1, n_top + 1)))
                          if ens.statistics == "fermion" else M * spec.level_shape(n_top))
    beta_effs, scales, checked = [], [], {}  # L -> L^p: each distinct width is checked once
    for beta, L in beta_points:
        if not (0 <= beta < math.inf):
            raise ValueError(f"inverse temperature must be finite and >= 0, got {beta}")
        known = L in checked
        if known:
            scale = checked[L]
        else:
            try:
                scale = L**spec.power_p
            except OverflowError:  # Python floats raise where numpy would give inf
                scale = math.inf
            if not (0 < L < math.inf and 0 < scale < math.inf):
                raise ValueError(f"trap width L and L^p must be positive and finite, "
                                 f"got L = {L}, L^p = {scale}")
        if not (0 < (beta_eff := beta / scale) < math.inf or beta == 0):
            raise ValueError(f"beta/L^p must be finite and nonzero, got {beta}/{scale}")
        if not known:
            if not top / scale < math.inf:
                raise ValueError(
                    f"the largest many-body energy, {top:g}/L^p at L = {L}, is not finite")
            checked[L] = scale
        beta_effs.append(beta_eff)
        scales.append(scale)
    return np.array(beta_effs), np.array(scales)


def _enumerate(ens: EnsembleSpec, spec: SpectrumSpec, beta_points: list[tuple[float, float]],
               rows: bool) -> list[tuple[list[float], list[float]]]:
    """(log Z, U) over ``beta_points`` of k = 1..M particles (``rows``) or M alone, each
    reduced over the distinct energies of its states, counted on the exact integer shapes
    g(n). M fermions past half filling alone are counted as N - M holes on the reversed
    ladder g_max - g: holes of energy E' leave particles of energy sum(g) - (N-M) g_max + E'."""
    beta_effs, scales = effective_betas(ens, spec, beta_points)
    holes = ens.statistics == "fermion" and not rows and 2 * ens.M > ens.N
    m = ens.N - ens.M if holes else ens.M
    g_min, g_max = (spec.level_shape(spec.n_min + n) for n in (0, ens.N - 1))
    _check_histogram_entries(ens, m, g_max - g_min if holes else g_max, rows)
    g = level_coefficients(SpectrumSpec(spec.kind), ens.N).astype(np.int64)  # exact: c = 1
    if holes:  # M = N is the one state, of no holes
        shift = int(g.sum()) - m * g_max
        hists = kernels.energy_histograms(g_max - g[::-1], m, "fermion")[-1:] or [np.ones(1, np.int64)]
    else:
        shift, hists = 0, kernels.energy_histograms(g, m, ens.statistics)[0 if rows else -1:]
    out = []
    for hist in hists:
        levels = np.flatnonzero(hist)
        log_zs, means = kernels.log_z_and_mean(spec.scale_c * (levels + shift), beta_effs,
                                               hist[levels])
        out.append((log_zs.tolist(), (means / scales).tolist()))
    return out


def enumeration_rows(ens: EnsembleSpec, spec: SpectrumSpec, beta_points: list[tuple[float, float]]
                     ) -> list[tuple[list[float], list[float]]]:
    """(log Z, U) at every (beta, L) of k = 1..M particles, one enumeration for all k."""
    return _enumerate(ens, spec, beta_points, True)


def enumeration_log_z_and_u(ens: EnsembleSpec, spec: SpectrumSpec,
                            beta_points: list[tuple[float, float]]
                            ) -> tuple[list[float], list[float]]:
    """log Z and U at every (beta, L) in ``beta_points`` from the M-particle counts alone."""
    return _enumerate(ens, spec, beta_points, False)[0]


def _recursion_float(lz1: np.ndarray, u1: np.ndarray, tops: list[int], fermion: np.ndarray):
    """One float64 pass of the recursion over rows, one per point, of log Z_1(m*beta_eff)
    and U_1(m*beta_eff) for m = 1..tops[i], padded to M_max: (rows, M_max) arrays of log Z_k,
    U_k (coefficient units) and a bad flag. Row k of a point is bad once a row <= k failed or
    the worst cancellation loss so far passed _LOSS_NATS_LIMIT, and wherever |log Z_k| >
    _LOG_Z_LIMIT. Each k sums the terms of every point at once; only a point's loss, sign
    test and the math.log and math.exp of its sums (libm's rounding) run point by point."""
    n, m_max = lz1.shape
    signs = np.where(fermion[:, None] & (np.arange(m_max) % 2 == 1), -1.0, 1.0)
    lz, uu = np.zeros((2, n, m_max + 1))  # log Z_k (sums that survive are positive), U_k
    bad, loss, alive = np.ones((n, m_max), dtype=bool), [0.0] * n, range(n)
    for k in range(1, m_max + 1):
        if not (alive := [i for i in alive if k <= tops[i] and loss[i] < math.inf]):
            break
        # terms m = 1..k, and the energy numerator's: the same terms weighted by
        # (m*u1[m] + U_{k-m}) >= 0, so that U_k = numerator / (k Z_k)
        logs = lz1[:, :k] + lz[:, k - 1::-1]
        factors = np.arange(1, k + 1) * u1[:, :k] + uu[:, k - 1::-1]
        pos = factors > 0
        nlogs = np.where(pos, logs + np.log(np.where(pos, factors, 1.0)), -math.inf)
        sums = []
        with np.errstate(invalid="ignore"):  # a row of zero terms (max -inf) sums to NaN
            for terms in (logs, nlogs):
                mx = terms.max(axis=1)
                sums += [mx, (signs[:, :k] * np.exp(terms - mx[:, None])).sum(axis=1)]
        mx, s, nmx, ns = (a.tolist() for a in sums)
        for i in alive:
            if mx[i] == -math.inf or s[i] <= 0.0:
                loss[i] = math.inf  # the row failed: bad from k on, log Z and U left at 0
                continue
            log_s = math.log(s[i])
            lsum, loss[i] = mx[i] + log_s, max(loss[i], -log_s)
            lz[i, k] = lsum - math.log(k)
            if nmx[i] != -math.inf and ns[i] != 0.0:
                log_ns = math.log(abs(ns[i]))
                loss[i] = max(loss[i], -log_ns)
                uu[i, k] = math.copysign(math.exp(nmx[i] + log_ns - lsum), ns[i])
            bad[i, k - 1] = loss[i] > _LOSS_NATS_LIMIT or abs(lz[i, k]) > _LOG_Z_LIMIT
    return lz[:, 1:], uu[:, 1:], bad


def _recursion_levels(w: np.ndarray, M: int, beta_effs: np.ndarray,
                      fermion: bool) -> list[tuple[list[float], list[float]]]:
    """Sign-free recursion over levels: (log Z_k, U_k in coefficient units) at every
    beta_eff in ``beta_effs``, for k = 1..M.

    Adding level n to the first n levels gives, for k = 1..M,

        fermions  Z_k(n+1) = Z_k(n) + x_n Z_{k-1}(n),
        bosons    Z_k(n+1) = Z_k(n) + x_n Z_{k-1}(n+1),

    with x_n = exp(-beta_eff * w_n). Row k is kept relative to its own
    ground state (reference level w[k-1] for fermions, w[0] for bosons), so
    every factor is at most 1 and every sum positive. The excitation-energy
    numerator D_k obeys the same recursion plus (w_n - ref) x_n Z_{k-1}.

    Row k's Z_k - 1 and D_k are pairwise sums of its excited terms (the ground
    term is exactly 1, hence log1p); running sums only feed row k + 1, so no row
    depends on M. Points run in blocks of at most 2^13 point x level elements.
    U_k = G_k + D_k/Z_k, G_k the ground sum, rounded once: one vector addition where
    the float G_k is exact, else fsum at every point.
    """
    N = w.size
    ground = w[:M].tolist() if fermion else [w[0].item()] * M
    excited = np.empty((M, beta_effs.size))  # Z_k - 1 at every point
    numer = np.empty((M, beta_effs.size))    # D_k
    rows = max(1, kernels._BLOCK_ELEMENTS // (N + 1))
    for i in range(0, beta_effs.size, rows):
        nb = -beta_effs[i:i + rows, None]
        z = np.ones((nb.size, N + 1))   # Z_{k-1} over the first n levels, n = 0..N
        d = np.zeros((nb.size, N + 1))  # its excitation-energy numerator
        for k in range(1, M + 1):
            lo = k - 1 if fermion else 0   # row k's reference level
            # Z_{k-1} without level n (fermions) or with it (bosons), n = lo..N-1
            prev = slice(lo, N) if fermion else slice(1, N + 1)
            e = w[lo:] - w[lo]
            with np.errstate(over="ignore"):  # beta_eff * e past the float range is weight 0
                x = np.exp(nb * e)
            t = x * z[:, prev]
            dt = x * d[:, prev] + e * t
            np.add.reduce(t[:, 1:], axis=1, out=excited[k - 1, i:i + rows])
            np.add.reduce(dt[:, 1:], axis=1, out=numer[k - 1, i:i + rows])
            if k < M:  # row k + 1 reads no entry left of its own reference level
                np.add.accumulate(t, axis=1, out=z[:, lo + 1:])
                np.add.accumulate(dt, axis=1, out=d[:, lo + 1:])
    ground_sums = [math.fsum(ground[:k]) for k in range(1, M + 1)]
    with np.errstate(over="ignore"):  # a ground energy past the float range is log Z = -inf
        log_zs = -beta_effs * np.array(ground_sums)[:, None]
    log_zs += np.log1p(excited)
    out = []
    for k, (G, log_z, qs) in enumerate(zip(ground_sums, log_zs.tolist(),
                                           numer / (1.0 + excited)), 1):
        terms = ground[:k]
        # U = G + q rounded once from the exact ground sum, as fsum does. A zero fsum
        # residual proves the float G is that exact sum (a nonzero sum of floats is at
        # least 2^-1074 and cannot round to 0), and then one IEEE addition G + q rounds
        # the same exact value once
        us = ((qs + G).tolist() if math.fsum(terms + [-G]) == 0
              else [math.fsum(terms + [q]) for q in qs.tolist()])
        out.append((log_z, us))
    return out


def recursion_columns(columns: list[tuple[EnsembleSpec, SpectrumSpec]],
                      beta_points: list[tuple[float, float]]
                      ) -> list[list[tuple[list[float], list[float]]]]:
    """``recursion_rows`` of every (ensemble, spectrum) column at the same (beta, L) points:
    every point of every column checked first, then one float pass over all of them; the
    rows it cannot hold come from one level recursion per column.

    Bosons and fermions only: distinguishable particles factorize as Z_1^M.
    """
    if any(ens.statistics == "distinguishable" for ens, _ in columns):
        raise ValueError("recursion backend supports boson/fermion statistics only; "
                         "distinguishable particles factorize as Z_1^M")
    checked = [effective_betas(ens, spec, beta_points) for ens, spec in columns]
    ws = [level_coefficients(spec, ens.N) for ens, spec in columns]
    p, tops = len(beta_points), [ens.M for ens, _ in columns]
    singles = np.zeros((2, len(columns) * p, max(tops, default=0)))  # Z_1, U_1 at m*beta
    for c, (M, w, (beta_effs, _)) in enumerate(zip(tops, ws, checked)):
        singles[:, c * p:(c + 1) * p, :M] = np.reshape(kernels.log_z_and_mean(
            w, np.outer(beta_effs, np.arange(1, M + 1)).ravel()), (2, p, M))
    fermion = np.array([ens.statistics == "fermion" for ens, _ in columns], dtype=bool)
    log_zs, us, bad = _recursion_float(*singles, np.repeat(tops, p).tolist(), np.repeat(fermion, p))
    out = []
    for c, (M, w, (beta_effs, scales)) in enumerate(zip(tops, ws, checked)):
        at = slice(c * p, (c + 1) * p)
        rows = [(list(log_zs[at, k]), list(us[at, k])) for k in range(M)]  # numpy float64
        handed = np.flatnonzero(bad[at, :M].any(axis=1)).tolist()
        levels = _recursion_levels(w, M, beta_effs[handed], fermion[c]) if handed else []
        for j, i in enumerate(handed):  # the level recursion's values are Python floats
            for k in np.flatnonzero(bad[c * p + i, :M]).tolist():
                rows[k][0][i], rows[k][1][i] = levels[k][0][j], levels[k][1][j]
        out.append([(log_z, [u / scale for u, scale in zip(u_k, scales.tolist())])
                    for log_z, u_k in rows])
    return out


def recursion_rows(ens: EnsembleSpec, spec: SpectrumSpec, beta_points: list[tuple[float, float]]
                   ) -> list[tuple[list[float], list[float]]]:
    """(log Z, U) at every (beta, L) of k = 1..M particles, one float recursion pass over
    every point: ``recursion_columns`` of one column. Rows the float recursion cannot hold
    come from the level recursion."""
    return recursion_columns([(ens, spec)], beta_points)[0]


def internal_energies(ens: EnsembleSpec, spec: SpectrumSpec,
                      points: list[tuple[float, float]]) -> list[float]:
    """U(T, L) = -d ln Z / d beta at beta = 1/T for every (T, L) in ``points``."""
    return _energy_rows(ens, spec, points)[-1]


def _energy_rows(ens: EnsembleSpec, spec: SpectrumSpec,
                 points: list[tuple[float, float]]) -> list[list[float]]:
    """U at every (T, L) in ``points`` of one particle, then of M.

    The one backend dispatcher. One level recursion over all points gives bosons
    and fermions up to ``DEFAULT_STATE_CAP`` configurations rows 1 (the single
    particle) and M, and distinguishable particles, at any M, row 1 and M times
    row 1. Bosons and fermions beyond the cap take row M of ``recursion_rows``, and their
    single particle a one-row level recursion. ``effective_betas`` checks the points here."""
    beta_points = [(inverse_temperature(T), L) for T, L in points]
    beta_effs, scales = effective_betas(ens, spec, beta_points)  # M times one particle's range
    distinguishable = ens.statistics == "distinguishable"
    if capped := not distinguishable and ens.state_count > DEFAULT_STATE_CAP:
        many = recursion_rows(ens, spec, beta_points)[-1][1]
        if ens.M == 1:  # one particle is its own single particle
            return [many, many]
    rows = _recursion_levels(level_coefficients(spec, ens.N),
                             1 if distinguishable or capped else ens.M, beta_effs,
                             ens.statistics == "fermion")
    single, last = ((np.array(us) / scales).tolist() for _, us in (rows[0], rows[-1]))
    return [single, [ens.M * u for u in single] if distinguishable else many if capped else last]
