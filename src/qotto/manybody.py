"""Canonical ensembles of M identical particles on N truncated levels.

Two independent routes to the partition function and internal energy:

* Enumeration: ``state_energy_coefficients`` lists the total energy of every
  symmetrized many-body configuration (multisets for bosons, strictly
  increasing level tuples for fermions, ordered tuples for distinguishable
  particles) and ``enumeration_log_z_and_u`` reduces that one table at any
  number of (beta, L) points.

* ``recursion_rows`` uses the exact recursion for noninteracting
  identical particles,

      Z_M(beta) = (1/M) sum_{m=1..M} (+-1)^{m+1} Z_1(m*beta) Z_{M-m}(beta),

  upper sign for bosons, lower for fermions, Z_0 = 1, with Z_1 built from
  the same N-level truncation; one pass to M gives every k <= M. U comes
  from the analytically differentiated recursion, never finite differences.

The two routes share nothing but Z_1's level coefficients, so they serve as
mutual oracles. ``internal_energies`` is the one place that chooses between
them; a caller that wants one route calls its functions by name.

The float recursion can lose digits in two ways: the fermionic sum
alternates signs and cancels catastrophically at large beta, and at any
statistics a large |log Z| leaves its log-domain terms with few digits in
their differences. The float path tracks both and, past either limit,
recomputes Z_k and U_k by the level-by-level expansion of
prod_n (1 +- x exp(-beta*e_n))^(+-1): each particle-number row relative to
its own ground state, so every term is positive and nothing cancels. That
keeps the backend independent of enumeration at any beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptyStateSpaceError
from .spectrum import SpectrumSpec, check_count, level_coefficients

STATISTICS = ("boson", "fermion", "distinguishable")

# `internal_energies` switches bosons and fermions from enumeration to the
# recursion above this many states; distinguishable particles never reach it
DEFAULT_STATE_CAP = 2_000_000

# memory guard: enumeration refuses above this many _table_entries
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


def _table_entries(ens: EnsembleSpec) -> int:
    """Memory-guard measure: count x M for bosons and fermions (their builders
    hold a few count-length arrays; internal_energies routes by it), else count."""
    if ens.statistics == "distinguishable":
        return ens.state_count
    return ens.state_count * ens.M


def state_energy_coefficients(ens: EnsembleSpec, spec: SpectrumSpec) -> np.ndarray:
    """Total energy coefficient of every many-body configuration.

    Deterministic (lexicographic) generation order, not sorted by energy.
    """
    if _table_entries(ens) > HARD_ENUMERATION_LIMIT:
        advice = ("internal_energies (M times the single-particle energy)"
                  if ens.statistics == "distinguishable" else "the recursion backend")
        raise ValueError(
            f"enumerating {ens.state_count} configurations of {ens.M} particles exceeds "
            f"the limit of {HARD_ENUMERATION_LIMIT} table entries; use {advice}")
    w = level_coefficients(spec, ens.N)
    if ens.statistics == "boson":
        return kernels.multiset_sums(w, ens.M)
    if ens.statistics == "fermion":
        return kernels.subset_sums(w, ens.M)
    out = w
    for _ in range(ens.M - 1):
        out = np.add.outer(out, w).ravel()
    return out


def _check_beta_L(beta: float, L: float) -> None:
    if not (0 <= beta < math.inf):
        raise ValueError(f"inverse temperature must be finite and >= 0, got {beta}")
    if not (0 < L < math.inf):
        raise ValueError(f"trap width must be positive and finite, got {L}")


def inverse_temperature(T: float, L: float) -> float:
    """beta = 1/T at a point (T, L) the Boltzmann sums can take: T positive
    and finite with a 1/T that does not overflow (a subnormal T makes every
    sum NaN), L positive and finite."""
    if not (0 < T < math.inf and 1.0 / T < math.inf):
        raise ValueError(
            f"temperature must be positive and finite with a finite 1/T, got {T}")
    _check_beta_L(1.0 / T, L)
    return 1.0 / T


def enumeration_log_z_and_u(ens: EnsembleSpec, spec: SpectrumSpec,
                            beta_points: list[tuple[float, float]]
                            ) -> tuple[list[float], list[float]]:
    """log Z and U at every (beta, L) in ``beta_points`` from one enumerated
    table, reduced at all points in one call."""
    scales = [L**spec.power_p for _, L in beta_points]
    log_zs, means = kernels.log_z_and_mean(
        state_energy_coefficients(ens, spec),
        np.array([beta / scale for (beta, _), scale in zip(beta_points, scales)]))
    return log_zs.tolist(), [mean / scale for mean, scale in zip(means.tolist(), scales)]


def partition_by_enumeration(ens: EnsembleSpec, spec: SpectrumSpec,
                             beta: float, L: float) -> PartitionEvaluation:
    """Direct Boltzmann sum over the enumerated many-body configurations."""
    _check_beta_L(beta, L)
    (log_z,), (u,) = enumeration_log_z_and_u(ens, spec, [(beta, L)])
    return PartitionEvaluation(log_Z=log_z, U=u, method="enumeration")


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


def _recursion_levels(w: np.ndarray, M: int, beta_eff: float,
                      fermion: bool) -> list[tuple[float, float]]:
    """Sign-free recursion over levels: log Z_k, U_k in coefficient units, k = 1..M.

    Adding level n to the first n levels gives, for k = 1..M,

        fermions  Z_k(n+1) = Z_k(n) + x_n Z_{k-1}(n),
        bosons    Z_k(n+1) = Z_k(n) + x_n Z_{k-1}(n+1),

    with x_n = exp(-beta_eff * w_n). Row k is kept relative to its own
    ground state (reference level w[k-1] for fermions, w[0] for bosons), so
    every factor is at most 1 and every sum positive. The excitation-energy
    numerator D_k obeys the same recursion plus (w_n - ref) x_n Z_{k-1}.
    """
    N = w.size
    z = np.ones(N + 1)    # Z_{k-1} over the first n levels, n = 0..N
    d = np.zeros(N + 1)   # its excitation-energy numerator
    ground = w[:M].tolist() if fermion else [w[0].item()] * M
    rows = []
    for k in range(1, M + 1):
        lo = k - 1 if fermion else 0   # row k's reference level
        # Z_{k-1} without level n (fermions) or with it (bosons), n = lo..N-1
        prev = slice(lo, N) if fermion else slice(1, N + 1)
        e = w[lo:] - w[lo]
        x = np.exp(-beta_eff * e)
        t = x * z[prev]
        head = np.zeros(lo + 1)
        d = np.concatenate((head, np.cumsum(x * d[prev] + e * t)))
        z = np.concatenate((head, np.cumsum(t)))
        rows.append((-beta_eff * math.fsum(ground[:k]) + math.log(z[N]),
                     math.fsum(ground[:k] + [d[N] / z[N]])))
    return rows


def recursion_rows(ens: EnsembleSpec, spec: SpectrumSpec,
                   beta: float, L: float) -> list[PartitionEvaluation]:
    """Recursion-backend log Z and U of k = 1..M particles from one pass; rows
    the float recursion cannot hold come from the level recursion ("levels").

    Bosons and fermions only: distinguishable particles factorize as Z_1^M.
    """
    if ens.statistics == "distinguishable":
        raise ValueError("recursion backend supports boson/fermion statistics only; "
                         "distinguishable particles factorize as Z_1^M")
    _check_beta_L(beta, L)
    scale = L**spec.power_p
    beta_eff = beta / scale
    w = level_coefficients(spec, ens.N)
    fermion = ens.statistics == "fermion"
    log_zs, us, bad = _recursion_float(w, ens.M, beta_eff, fermion)
    rows = [(log_z, u, "recursion") for log_z, u in zip(log_zs, us)]
    if bad.any():
        levels = _recursion_levels(w, ens.M, beta_eff, fermion)
        rows = [(*levels[k], "levels") if bad[k] else row for k, row in enumerate(rows)]
    return [PartitionEvaluation(log_Z=log_z, U=u / scale, method=method)
            for log_z, u, method in rows]


def partition_by_recursion(ens: EnsembleSpec, spec: SpectrumSpec,
                           beta: float, L: float) -> PartitionEvaluation:
    """Recursion-backend partition function and internal energy of ens."""
    return recursion_rows(ens, spec, beta, L)[-1]


def internal_energies(ens: EnsembleSpec, spec: SpectrumSpec,
                      points: list[tuple[float, float]]) -> list[float]:
    """U(T, L) = -d ln Z / d beta at beta = 1/T for every (T, L) in ``points``.

    The one backend dispatcher: distinguishable particles get M times the
    single-particle U from one N-level table, at any M. Bosons and fermions
    are enumerated up to ``DEFAULT_STATE_CAP`` configurations (and within the
    HARD_ENUMERATION_LIMIT memory guard), one table for all points, and take
    the recursion per point beyond.
    """
    beta_points = [(inverse_temperature(T, L), L) for T, L in points]
    if ens.statistics == "distinguishable":
        single = EnsembleSpec("distinguishable", 1, ens.N)
        return [ens.M * u for u in enumeration_log_z_and_u(single, spec, beta_points)[1]]
    if ens.state_count <= DEFAULT_STATE_CAP and _table_entries(ens) <= HARD_ENUMERATION_LIMIT:
        return enumeration_log_z_and_u(ens, spec, beta_points)[1]
    return [partition_by_recursion(ens, spec, beta, L).U for beta, L in beta_points]
