"""Canonical ensembles of M identical particles on N truncated levels.

* The level recursion, ``_recursion_levels``, expands
  prod_n (1 +- x exp(-beta*e_n))^(+-1) one level at a time, each
  particle-number row relative to its own ground state, so every term is
  positive and nothing cancels. One call takes an array of beta/L^p and
  gives every k <= M. Below ``DEFAULT_STATE_CAP`` states every live number
  comes from it: row M for bosons and fermions, M times row 1 for
  distinguishable particles (Z_M = Z_1^M).

* ``recursion_rows`` takes bosons and fermions above the cap. At each
  (beta, L) of a point list it runs the exact identical-particle recursion

      Z_M(beta) = (1/M) sum_{m=1..M} (+-1)^{m+1} Z_1(m*beta) Z_{M-m}(beta),

  upper sign for bosons, lower for fermions, Z_0 = 1; one pass to M gives
  every k <= M, and U comes from the differentiated recursion. Its float
  path tracks the fermionic sign cancellation and |log Z| (large, it leaves
  the log-domain terms few digits in their differences); rows past either
  limit come from the level recursion instead (``method`` "levels").

* Enumeration is the oracle only: ``state_energy_coefficients`` lists the
  total energy of every symmetrized configuration (multisets for bosons,
  strictly increasing level tuples for fermions, ordered tuples for
  distinguishable particles). ``enumeration_rows`` builds the exact integer
  table of every k <= M, each from the last, and reduces each over its
  distinct energies at a list of (beta, L) points; ``enumeration_log_z_and_u``
  does so for the M-table alone. ``validate``, fig67 and the tests call them.

The routes share nothing but Z_1's level coefficients, so they check each
other. Each checks every point through ``effective_betas`` before any sum
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

# memory guard of the enumeration oracle: it refuses a build whose largest
# table has more entries, states x k for k bosons or fermions (their builders
# hold a few state-length arrays while they place the k-th particle), else states
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


@dataclass(frozen=True)
class PartitionEvaluation:
    log_Z: float
    U: float
    method: str


def _check_table_entries(ens: EnsembleSpec, rows: bool) -> None:
    """The oracle's memory guard on the largest table one build holds."""
    distinguishable = ens.statistics == "distinguishable"
    if any(EnsembleSpec(ens.statistics, k, ens.N).state_count * (1 if distinguishable else k)
           > HARD_ENUMERATION_LIMIT for k in (range(1, ens.M + 1) if rows else [ens.M])):
        advice = ("internal_energies (M times the single-particle energy)"
                  if distinguishable else "the recursion backend")
        count = ens.state_count  # str() refuses an int past 4300 digits; log10 takes it
        named = count if count < 10**15 else f"about 10^{math.log10(count):.0f}"
        raise ValueError(
            f"enumerating {named} configurations of {ens.M} particles"
            f"{' and every table below' if rows else ''} exceeds the limit of "
            f"{HARD_ENUMERATION_LIMIT} table entries; use {advice}")


def state_energy_coefficients(ens: EnsembleSpec, spec: SpectrumSpec) -> np.ndarray:
    """Total energy coefficient of every many-body configuration, not sorted by energy: in
    colexicographic order, where those ending at a level extend a prefix of the M-1 table."""
    _check_table_entries(ens, False)
    return next(kernels.state_tables(level_coefficients(spec, ens.N), ens.M, ens.statistics))


def inverse_temperature(T: float) -> float:
    """beta = 1/T for T positive and finite with a 1/T that does not overflow
    (a subnormal T makes every Boltzmann sum NaN)."""
    if not (0 < T < math.inf and 1.0 / T < math.inf):
        raise ValueError(
            f"temperature must be positive and finite with a finite 1/T, got {T}")
    return 1.0 / T


def effective_betas(ens: EnsembleSpec, spec: SpectrumSpec,
                    beta_points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """(beta/L^p, L^p) at every (beta, L) in ``beta_points``, all checked before
    any sum runs: beta finite and >= 0, L^p and beta/L^p finite and nonzero
    (beta/L^p is 0 at beta = 0 only), and the largest many-body energy finite."""
    n_top, M = spec.n_min + int(ens.N) - 1, int(ens.M)  # exact ints; no numpy overflow warning
    top = spec.scale_c * (sum(map(spec.level_shape, range(n_top - M + 1, n_top + 1)))
                          if ens.statistics == "fermion" else M * spec.level_shape(n_top))
    out, scales = [], {}  # L -> L^p: each distinct width is checked once
    for beta, L in beta_points:
        if not (0 <= beta < math.inf):
            raise ValueError(f"inverse temperature must be finite and >= 0, got {beta}")
        known = L in scales
        if known:
            scale = scales[L]
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
            scales[L] = scale
        out.append((beta_eff, scale))
    return out


def _enumerate(ens: EnsembleSpec, spec: SpectrumSpec, beta_points: list[tuple[float, float]],
               rows: bool) -> list[tuple[list[float], list[float]]]:
    """(log Z, U) over ``beta_points`` of k = 1..M particles (``rows``) or M alone, each
    from one table of the exact integer shapes g(n), reduced over its distinct energies."""
    points = effective_betas(ens, spec, beta_points)
    _check_table_entries(ens, rows)
    g = level_coefficients(SpectrumSpec(spec.kind), ens.N).astype(np.int64)  # exact: c = 1
    beta_effs = np.array([beta_eff for beta_eff, _ in points])
    out = []
    for table in kernels.state_tables(g, ens.M, ens.statistics, rows):
        levels, counts = kernels.distinct_counts(table)
        log_zs, means = kernels.log_z_and_mean(spec.scale_c * levels, beta_effs, counts)
        out.append((log_zs.tolist(), [mean / scale for mean, (_, scale) in zip(means.tolist(), points)]))
    return out


def enumeration_rows(ens: EnsembleSpec, spec: SpectrumSpec, beta_points: list[tuple[float, float]]
                     ) -> list[tuple[list[float], list[float]]]:
    """(log Z, U) at every (beta, L) of k = 1..M particles, one enumeration for all k."""
    return _enumerate(ens, spec, beta_points, True)


def enumeration_log_z_and_u(ens: EnsembleSpec, spec: SpectrumSpec,
                            beta_points: list[tuple[float, float]]
                            ) -> tuple[list[float], list[float]]:
    """log Z and U at every (beta, L) in ``beta_points`` from the M-table alone."""
    return _enumerate(ens, spec, beta_points, False)[0]


def _signed_logsumexp(logs: np.ndarray, signs: np.ndarray) -> tuple[float, float, float]:
    """log|sum|, sign of the sum, and cancellation loss in nats."""
    mx = logs.max()
    if mx == -math.inf:
        return -math.inf, 0.0, 0.0
    s = float((signs * np.exp(logs - mx)).sum())
    if s == 0.0:
        return -math.inf, 0.0, math.inf
    return mx + math.log(abs(s)), math.copysign(1.0, s), max(0.0, -math.log(abs(s)))


def _recursion_float(w: np.ndarray, M: int, beta_eff: float, fermion: bool):
    """One float64 pass of the recursion: arrays of log Z_k, U_k (coefficient
    units) and a bad flag for k = 1..M. Row k is bad once a row <= k failed or
    the worst cancellation loss so far passed _LOSS_NATS_LIMIT, and wherever
    |log Z_k| > _LOG_Z_LIMIT."""
    lz1 = np.zeros(M + 1)
    u1 = np.zeros(M + 1)
    lz1[1:], u1[1:] = kernels.log_z_and_mean(w, beta_eff * np.arange(1, M + 1))

    lz = np.zeros(M + 1)   # log Z_k (sums that survive are positive)
    uu = np.zeros(M + 1)   # U_k in coefficient units
    bad = np.ones(M + 1, dtype=bool)
    loss = 0.0
    for k in range(1, M + 1):
        ms = np.arange(1, k + 1)
        signs = np.ones(k) if not fermion else np.where(ms % 2 == 1, 1.0, -1.0)
        logs = lz1[1:k + 1] + lz[k - ms]
        lsum, ssign, lloss = _signed_logsumexp(logs, signs)
        loss = max(loss, lloss)
        if ssign <= 0.0:
            break
        lz[k] = lsum - math.log(k)
        # energy numerator: same terms weighted by (m*u1[m] + U_{k-m}) >= 0,
        # and U_k = numerator / (k Z_k) = numerator / exp(lsum)
        factors = ms * u1[1:k + 1] + uu[k - ms]
        pos = factors > 0
        nlogs = np.where(pos, logs + np.log(np.where(pos, factors, 1.0)), -math.inf)
        nlsum, nssign, nloss = _signed_logsumexp(nlogs, signs)
        if nlsum == -math.inf:
            uu[k] = 0.0
        else:
            loss = max(loss, nloss)
            uu[k] = nssign * math.exp(nlsum - lsum)
        bad[k] = loss > _LOSS_NATS_LIMIT or abs(lz[k]) > _LOG_Z_LIMIT
    return lz[1:], uu[1:], bad[1:]


def _recursion_levels(w: np.ndarray, M: int, beta_effs: np.ndarray,
                      fermion: bool) -> tuple[list[list[float]], list[list[float]]]:
    """Sign-free recursion over levels: log Z_k and U_k in coefficient units,
    k = 1..M, as lists of M rows with one value per beta_eff in ``beta_effs``.

    Adding level n to the first n levels gives, for k = 1..M,

        fermions  Z_k(n+1) = Z_k(n) + x_n Z_{k-1}(n),
        bosons    Z_k(n+1) = Z_k(n) + x_n Z_{k-1}(n+1),

    with x_n = exp(-beta_eff * w_n). Row k is kept relative to its own
    ground state (reference level w[k-1] for fermions, w[0] for bosons), so
    every factor is at most 1 and every sum positive. The excitation-energy
    numerator D_k obeys the same recursion plus (w_n - ref) x_n Z_{k-1}.

    Row k's Z_k - 1 and D_k are pairwise sums of its excited terms (the ground
    term is exactly 1, hence log1p); running sums only feed row k + 1, so no row
    depends on M. Points run in blocks of at most 2^16 point x level elements.
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
    ground_sums = np.array([[math.fsum(ground[:k])] for k in range(1, M + 1)])
    with np.errstate(over="ignore"):  # a ground energy past the float range is log Z = -inf
        log_zs = -beta_effs * ground_sums
    log_zs += np.log1p(excited)
    us = [[math.fsum(ground[:k] + [q]) for q in row]
          for k, row in enumerate((numer / (1.0 + excited)).tolist(), 1)]
    return log_zs.tolist(), us


def recursion_rows(ens: EnsembleSpec, spec: SpectrumSpec,
                   beta_points: list[tuple[float, float]]) -> list[list[PartitionEvaluation]]:
    """log Z and U of k = 1..M particles at every (beta, L), one recursion pass per
    point; rows the float recursion cannot hold come from the level recursion ("levels").

    Bosons and fermions only: distinguishable particles factorize as Z_1^M.
    """
    if ens.statistics == "distinguishable":
        raise ValueError("recursion backend supports boson/fermion statistics only; "
                         "distinguishable particles factorize as Z_1^M")
    points = effective_betas(ens, spec, beta_points)
    w = level_coefficients(spec, ens.N)
    fermion = ens.statistics == "fermion"
    out = []
    for beta_eff, scale in points:
        log_zs, us, bad = _recursion_float(w, ens.M, beta_eff, fermion)
        levels = _recursion_levels(w, ens.M, np.array([beta_eff]), fermion) if bad.any() else None
        rows = [(levels[0][k][0], levels[1][k][0], "levels") if bad[k] else (log_z, u, "recursion")
                for k, (log_z, u) in enumerate(zip(log_zs, us))]
        out.append([PartitionEvaluation(log_Z=log_z, U=u / scale, method=method)
                    for log_z, u, method in rows])
    return out


def internal_energies(ens: EnsembleSpec, spec: SpectrumSpec,
                      points: list[tuple[float, float]]) -> list[float]:
    """U(T, L) = -d ln Z / d beta at beta = 1/T for every (T, L) in ``points``."""
    return _energy_rows(ens, spec, points, False)[-1]


def _energy_rows(ens: EnsembleSpec, spec: SpectrumSpec, points: list[tuple[float, float]],
                 single: bool) -> list[list[float]]:
    """U at every (T, L) in ``points`` of M particles, after that of one if ``single``.

    The one backend dispatcher. One level recursion over all points gives bosons
    and fermions up to ``DEFAULT_STATE_CAP`` configurations rows 1 (the single
    particle) and M, and distinguishable particles, at any M, row 1 and M times
    row 1. Bosons and fermions beyond the cap take ``recursion_rows``, and their
    single particle its own call."""
    beta_points = [(inverse_temperature(T), L) for T, L in points]
    distinguishable = ens.statistics == "distinguishable"
    if not distinguishable and ens.state_count > DEFAULT_STATE_CAP:
        many = [[rows[-1].U for rows in recursion_rows(ens, spec, beta_points)]]
        return ([internal_energies(EnsembleSpec(ens.statistics, 1, ens.N), spec, points)]
                if single else []) + many
    points = effective_betas(ens, spec, beta_points)  # M times the single particle's range
    M, factor = (1, ens.M) if distinguishable else (ens.M, 1)
    us = _recursion_levels(level_coefficients(spec, ens.N), M,
                           np.array([beta_eff for beta_eff, _ in points]),
                           ens.statistics == "fermion")[1]
    return [[f * (u / scale) for u, (_, scale) in zip(row, points)]
            for row, f in [(us[0], 1), (us[-1], factor)][not single:]]
