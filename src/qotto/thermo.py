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
T_h > R^p * T_c in exact arithmetic; deep in the low-temperature regime W
rounds to 0 there. The cycle needs nothing but the two thermal corner
energies U2 and U4. ``cycle_columns`` is the one assembly: from U4 and a
list of U2 it gives U1, eta and the U3, Q_h, Q_c, W and positive_work
columns, which a sweep writes as they are. ``cycles_from_corners`` zips
them into ``CycleResult`` named tuples (U1..U4, Q_h, Q_c, W, eta and
positive_work); ``run_cycle`` takes its corners from ``internal_energies``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .manybody import EnsembleSpec, effective_betas, internal_energies, inverse_temperature
from .spectrum import SpectrumSpec, adiabatic_energy_ratio


@dataclass(frozen=True)
class CycleConfig:
    spec: SpectrumSpec
    ens: EnsembleSpec
    L1: float
    R: float
    T_c: float

    def __post_init__(self):
        if not (1 < self.R < math.inf):
            raise ValueError(f"compression ratio R must exceed 1 and be finite, got {self.R}")
        beta_c = inverse_temperature(self.T_c)  # L2 = R*L1 may overflow: check both widths
        effective_betas(self.ens, self.spec, [(beta_c, self.L1), (beta_c, self.L2)])
        if not self.regime_lambda < math.inf:
            raise ValueError(f"the regime parameter lambda = c/(L1^p Tc) = "
                             f"{self.spec.scale_c}/({self.L1}^p * {self.T_c}) is not finite")

    @property
    def L2(self) -> float:
        return self.R * self.L1

    @property
    def regime_lambda(self) -> float:
        """scale_c / (L1^p * T_c): >>1 low-, ~1 intermediate-, <<1 high-T."""
        return self.spec.scale_c / (self.L1**self.spec.power_p * self.T_c)


class CycleResult(NamedTuple):
    U1: float
    U2: float
    U3: float
    U4: float
    Q_h: float
    Q_c: float
    W: float
    eta: float
    positive_work: bool


def cycle_columns(cfg: CycleConfig, U4: float, U2s) -> tuple:
    """The cycles of ``cfg`` from the cold corner U4 and each hot corner in the list U2s,
    as columns: U1, the lists of U3, Q_h, Q_c and W, eta, and the positive_work flags.
    Scalar arithmetic per element keeps each value's type (a numpy float stays one)."""
    shrink = adiabatic_energy_ratio(cfg.spec, cfg.L1, cfg.L2)
    U1 = U4 * adiabatic_energy_ratio(cfg.spec, cfg.L2, cfg.L1)
    U3s = [U2 * shrink for U2 in U2s]
    Q_hs = [U2 - U1 for U2 in U2s]
    Q_cs = [U3 - U4 for U3 in U3s]
    Ws = [Q_h - Q_c for Q_h, Q_c in zip(Q_hs, Q_cs)]
    return U1, U3s, Q_hs, Q_cs, Ws, 1.0 - shrink, [W > 0 for W in Ws]


def cycles_from_corners(cfg: CycleConfig, U4: float, U2s) -> list[CycleResult]:
    """Cycles of ``cfg`` from the cold corner U4 and each hot corner in the list U2s."""
    U1, U3s, Q_hs, Q_cs, Ws, eta, flags = cycle_columns(cfg, U4, U2s)
    return list(map(CycleResult._make, zip(repeat(U1), U2s, U3s, repeat(U4), Q_hs, Q_cs, Ws,
                                           repeat(eta), flags)))


def run_cycle(cfg: CycleConfig, T_h: float) -> CycleResult:
    """One full cycle with the hot bath at T_h. W <= 0 is flagged, not an error."""
    U4, U2 = internal_energies(cfg.ens, cfg.spec, [(cfg.T_c, cfg.L2), (T_h, cfg.L1)])
    return cycles_from_corners(cfg, U4, [U2])[0]


def positive_work_threshold(cfg: CycleConfig) -> float:
    """Hot-bath temperature above which the cycle outputs net work:
    R^p * T_c."""
    return cfg.R**cfg.spec.power_p * cfg.T_c
