"""Four-stroke quantum Otto cycle and the derived work/heat quantities.

Cycle corners (widths L1 < L2 = R*L1):

    1 -> 2  isochoric at L1, thermalize with the hot bath T_h
    2 -> 3  adiabatic widening L1 -> L2, occupations frozen
    3 -> 4  isochoric at L2, thermalize with the cold bath T_c
    4 -> 1  adiabatic narrowing L2 -> L1, occupations frozen

With U2 = U(T_h, L1) and U4 = U(T_c, L2), frozen occupations give
U3 = U2 * (L1/L2)^p and U1 = U4 * (L2/L1)^p, hence

    Q_h = U2 - U1,  Q_c = U3 - U4,  W = Q_h - Q_c,
    eta = W / Q_h = 1 - (L1/L2)^p,

the efficiency depending only on the geometry, never on statistics,
particle number or temperatures. Net work is positive exactly when
T_h > R^p * T_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .manybody import (DEFAULT_STATE_CAP, EnsembleSpec, enumerate_states,
                       internal_energy)
from .spectrum import SpectrumSpec, adiabatic_energy_ratio

# |W_s| below this makes a work ratio meaningless; NaN is returned instead
UNDEFINED_RATIO_GUARD = 1e-14


@dataclass(frozen=True)
class CycleConfig:
    spec: SpectrumSpec
    ens: EnsembleSpec
    L1: float
    R: float
    T_c: float
    T_h: float

    def __post_init__(self):
        if not (self.L1 > 0):
            raise ValueError(f"L1 must be positive, got {self.L1}")
        if not (self.R > 1):
            raise ValueError(f"compression ratio R must exceed 1, got {self.R}")
        if not (self.T_c > 0 and self.T_h > 0):
            raise ValueError(f"bath temperatures must be positive, got "
                             f"T_c={self.T_c}, T_h={self.T_h}")

    @property
    def L2(self) -> float:
        return self.R * self.L1

    @property
    def regime_lambda(self) -> float:
        """scale_c / (L1^p * T_c): >>1 low-, ~1 intermediate-, <<1 high-T."""
        return self.spec.scale_c / (self.L1**self.spec.power_p * self.T_c)


@dataclass(frozen=True)
class CycleResult:
    U1: float
    U2: float
    U3: float
    U4: float
    Q_h: float
    Q_c: float
    W: float
    eta: float
    positive_work: bool


@dataclass(frozen=True)
class ThermalOccupation:
    """Gibbs probabilities over the levels of enumerate_states, same order."""

    probabilities: np.ndarray


def thermal_occupation(ens: EnsembleSpec, spec: SpectrumSpec, T: float,
                       L: float) -> ThermalOccupation:
    if not (T > 0):
        raise ValueError(f"temperature must be positive, got {T}")
    if not (L > 0):
        raise ValueError(f"trap width must be positive, got {L}")
    levels = enumerate_states(ens, spec)
    ws = np.array([lv.energy_coefficient for lv in levels])
    p = kernels.gibbs_weights(ws, 1.0 / (T * L**spec.power_p))
    return ThermalOccupation(probabilities=p)


def run_cycle(cfg: CycleConfig, method: str = "auto",
              state_cap: int = DEFAULT_STATE_CAP) -> CycleResult:
    """Evaluate one full cycle. W <= 0 is flagged, not an error."""
    U2 = internal_energy(cfg.ens, cfg.spec, cfg.T_h, cfg.L1, method, state_cap)
    U4 = internal_energy(cfg.ens, cfg.spec, cfg.T_c, cfg.L2, method, state_cap)
    shrink = adiabatic_energy_ratio(cfg.spec, cfg.L1, cfg.L2)
    grow = adiabatic_energy_ratio(cfg.spec, cfg.L2, cfg.L1)
    U3 = U2 * shrink
    U1 = U4 * grow
    Q_h = U2 - U1
    Q_c = U3 - U4
    W = Q_h - Q_c
    return CycleResult(U1=U1, U2=U2, U3=U3, U4=U4, Q_h=Q_h, Q_c=Q_c, W=W,
                       eta=1.0 - shrink, positive_work=W > 0)


def positive_work_threshold(cfg: CycleConfig) -> float:
    """Hot-bath temperature above which the cycle outputs net work:
    R^p * T_c."""
    return cfg.R**cfg.spec.power_p * cfg.T_c


def _work(spec: SpectrumSpec, ens: EnsembleSpec, L1: float, R: float,
          T_c: float, T_h: float, method: str, state_cap: int) -> float:
    cfg = CycleConfig(spec=spec, ens=ens, L1=L1, R=R, T_c=T_c, T_h=T_h)
    return run_cycle(cfg, method, state_cap).W


def work_ratio_two_particle(spec: SpectrumSpec, N: int, statistics: str,
                            L1: float, R: float, T_c: float, T_h: float,
                            method: str = "auto",
                            state_cap: int = DEFAULT_STATE_CAP) -> float:
    """W of two identical particles over W of a single particle, identical
    external conditions (same L1, R, baths and truncation N).

    NaN when the single-particle work is too close to zero to divide by.
    """
    if statistics not in ("boson", "fermion"):
        raise ValueError("two-particle ratio is defined for boson/fermion "
                         f"statistics, got {statistics!r}")
    return work_ratio_multiparticle(spec, N, statistics, 2, L1, R, T_c, T_h,
                                    method, state_cap) * 2.0


def work_ratio_multiparticle(spec: SpectrumSpec, N: int, statistics: str,
                             M: int, L1: float, R: float, T_c: float,
                             T_h: float, method: str = "auto",
                             state_cap: int = DEFAULT_STATE_CAP) -> float:
    """W_M / (M * W_s): M-particle work per particle relative to a single
    particle under the same conditions. NaN when |W_s| is below the guard."""
    ens = EnsembleSpec(statistics, M, N)
    single = EnsembleSpec(statistics, 1, N)
    W_M = _work(spec, ens, L1, R, T_c, T_h, method, state_cap)
    W_s = _work(spec, single, L1, R, T_c, T_h, method, state_cap)
    if abs(W_s) < UNDEFINED_RATIO_GUARD:
        return math.nan
    return W_M / (M * W_s)
