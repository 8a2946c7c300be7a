"""Quantum Otto heat engines with multilevel identical particles.

Work, heat and efficiency of the four-stroke Otto cycle for M bosons,
fermions or distinguishable particles on N truncated single-particle
levels. The sign-free recursion over levels gives every live number (the
identical-particle recursion above 2 million states); direct enumeration is the
oracle that cross-validates both.
"""

from .errors import EmptyStateSpaceError
from .experiments import (PRESETS, RatioRecord, harmonic_closed_form_W,
                          harmonic_closed_form_Z, make_record, make_series,
                          records_to_csv, sweep, work_ratio_multiparticle,
                          work_ratio_two_particle, write_csv)
from .manybody import (DEFAULT_STATE_CAP, EnsembleSpec, enumeration_log_z_and_u,
                       enumeration_rows, recursion_rows)
from .spectrum import (KINDS, SpectrumSpec, adiabatic_energy_ratio,
                       level_coefficients, single_particle_energies)
from .thermo import (CycleConfig, CycleResult, positive_work_threshold,
                     run_cycle)

__version__ = "0.1.0"

__all__ = [
    "CycleConfig", "CycleResult", "DEFAULT_STATE_CAP", "EmptyStateSpaceError",
    "EnsembleSpec", "KINDS", "PRESETS", "RatioRecord",
    "SpectrumSpec", "adiabatic_energy_ratio", "enumeration_log_z_and_u",
    "enumeration_rows", "harmonic_closed_form_W", "harmonic_closed_form_Z", "level_coefficients",
    "make_record", "make_series", "positive_work_threshold", "recursion_rows",
    "records_to_csv", "run_cycle",
    "single_particle_energies", "sweep",
    "work_ratio_multiparticle",
    "work_ratio_two_particle", "write_csv", "__version__",
]
