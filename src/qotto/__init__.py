"""Quantum Otto heat engines with multilevel identical particles.

Work, heat and efficiency of the four-stroke Otto cycle for M bosons,
fermions or distinguishable particles on N truncated single-particle
levels, with two independent partition-function backends (direct
enumeration and the identical-particle recursion) that cross-validate
each other.
"""

from .errors import EmptyStateSpaceError
from .experiments import (RatioRecord, harmonic_closed_form_W,
                          harmonic_closed_form_Z, make_record, make_series,
                          records_to_csv, sweep_fig2, sweep_fig3, sweep_fig45,
                          sweep_fig67, work_ratio_multiparticle,
                          work_ratio_two_particle, write_csv)
from .manybody import (DEFAULT_STATE_CAP, EnsembleSpec, PartitionEvaluation,
                       partition_by_enumeration, partition_by_recursion,
                       state_energy_coefficients)
from .spectrum import (KINDS, SpectrumSpec, adiabatic_energy_ratio,
                       level_coefficients, single_particle_energies)
from .thermo import (CycleConfig, CycleResult, positive_work_threshold,
                     run_cycle)

__version__ = "0.1.0"

__all__ = [
    "CycleConfig", "CycleResult", "DEFAULT_STATE_CAP", "EmptyStateSpaceError",
    "EnsembleSpec", "KINDS", "PartitionEvaluation", "RatioRecord",
    "SpectrumSpec", "adiabatic_energy_ratio", "harmonic_closed_form_W",
    "harmonic_closed_form_Z", "level_coefficients", "make_record", "make_series",
    "partition_by_enumeration", "partition_by_recursion",
    "positive_work_threshold", "records_to_csv", "run_cycle",
    "single_particle_energies", "state_energy_coefficients", "sweep_fig2",
    "sweep_fig3", "sweep_fig45", "sweep_fig67", "work_ratio_multiparticle",
    "work_ratio_two_particle", "write_csv", "__version__",
]
