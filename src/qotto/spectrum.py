"""Single-particle energy spectra of the uniform-scaling family.

Every supported spectrum has the form E_n(L) = c * g(n) / L^p for a trap of
width L. The kind fixes the level-shape function g, the scaling power p and
the first level index:

    box               g(n) = n^2   p = 2     n starts at 1
    harmonic          g(n) = n     p = 2     n starts at 0
    relativistic-box  g(n) = n     p = 1     n starts at 1
    quartic           g(n) = n^2   p = 4/3   n starts at 1

The prefactor c absorbs all physical constants; k_B = 1 throughout, so
temperatures are energies. Only g, p and the index origin matter for the
dimensionless quantities this package studies.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# kind -> (power_p, n_min, quadratic shape?)
_FAMILY = {
    "box": (2.0, 1, True),
    "harmonic": (2.0, 0, False),
    "relativistic-box": (1.0, 1, False),
    "quartic": (4.0 / 3.0, 1, True),
}

KINDS = tuple(_FAMILY)


@dataclass(frozen=True)
class SpectrumSpec:
    """A single-particle spectrum E_n(L) = scale_c * g(n) / L^power_p."""

    kind: str
    scale_c: float = 1.0

    def __post_init__(self):
        if self.kind not in _FAMILY:
            raise ValueError(f"unknown spectrum kind {self.kind!r}; expected one of {KINDS}")
        if not (0 < self.scale_c < np.inf):
            raise ValueError(f"scale_c must be positive and finite, got {self.scale_c}")

    @property
    def power_p(self) -> float:
        return _FAMILY[self.kind][0]

    @property
    def n_min(self) -> int:
        return _FAMILY[self.kind][1]

    def level_shape(self, n):
        """g(n): n^2 for box/quartic, n for harmonic/relativistic-box.
        Takes an int or a numpy array of level indices."""
        quadratic = _FAMILY[self.kind][2]
        return n * n if quadratic else n


def check_count(name: str, n) -> None:
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"{name} count must be an integer >= 1, got {n!r}")


def level_coefficients(spec: SpectrumSpec, N: int) -> np.ndarray:
    """First N energy coefficients c*g(n), ascending.

    E_n(L) = level_coefficients(spec, N) / L^power_p.
    """
    check_count("level", N)
    return spec.scale_c * spec.level_shape(
        np.arange(spec.n_min, spec.n_min + N, dtype=np.float64))


def single_particle_energies(spec: SpectrumSpec, N: int, L: float) -> np.ndarray:
    """Energies of the N lowest levels at trap width L, ascending."""
    if not (0 < L < np.inf):
        raise ValueError(f"trap width must be positive and finite, got {L}")
    return level_coefficients(spec, N) / L**spec.power_p


def adiabatic_energy_ratio(spec: SpectrumSpec, L_from: float, L_to: float) -> float:
    """Factor (L_from/L_to)^p by which every level energy rescales when the
    width changes from L_from to L_to with occupations frozen."""
    if not (0 < L_from < np.inf and 0 < L_to < np.inf):
        raise ValueError(f"widths must be positive and finite, got {L_from}, {L_to}")
    return (L_from / L_to) ** spec.power_p
