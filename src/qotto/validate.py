"""Built-in correctness checks behind the `validate` CLI subcommand.

Each check pits an implementation path against an independent route to the
same number (enumeration vs recursion, state counts vs histogram totals,
closed form vs truncated ensemble, the zero of W vs the threshold formula) and reports the worst deviation found against a fixed
tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .experiments import (FIG67_CORNERS, fig67_columns, harmonic_closed_form_W,
                          harmonic_closed_form_Z)
from .manybody import (STATISTICS, EnsembleSpec, enumeration_rows, internal_energies,
                       recursion_rows)
from .spectrum import KINDS, SpectrumSpec, level_coefficients
from .thermo import (CycleConfig, cycles_from_corners, positive_work_threshold,
                     run_cycle)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _engine(spec: SpectrumSpec, ens: EnsembleSpec) -> CycleConfig:
    """The L1=1, R=2, T_c=1 cycle."""
    return CycleConfig(spec=spec, ens=ens, L1=1.0, R=2.0, T_c=1.0)


def check_recursion_vs_enumeration() -> CheckResult:
    # every row k of the particle recursion, and row M of the live route of
    # internal_energies (the level recursion below 2 million states), against the
    # oracle; 8 on 50 levels: 1.65e9 boson and 5.4e8 fermion states, counted by energy
    sizes = [(M, N) for M in range(1, 5) for N in (2, 4, 8)] + [(8, 50)]
    worst = 0.0
    for kind in ("box", "harmonic"):
        spec = SpectrumSpec(kind)
        for statistics in ("boson", "fermion"):
            for M, N in sizes:
                if statistics == "fermion" and M > N:
                    continue
                ens = EnsembleSpec(statistics, M, N)
                points = [(beta, 1.0) for beta in (0.0, 0.01, 0.1, 1.0, 10.0)]
                oracle = enumeration_rows(ens, spec, points)
                live = internal_energies(ens, spec, [(1.0 / beta, L) for beta, L in points[1:]])
                for k, ((log_zs, us), (got_log_zs, got_us)) in enumerate(
                        zip(oracle, recursion_rows(ens, spec, points)), 1):
                    if k == M:  # row M's U at beta > 0 from the live route too
                        us, got_us = us + us[1:], got_us + live
                    worst = max(worst, *(abs(a - b) for a, b in zip(log_zs, got_log_zs)),
                                *(abs(u - b) / max(1.0, abs(u)) for u, b in zip(us, got_us)))
    return CheckResult("recursion-vs-enumeration", worst, 1e-10)


def check_fig67_vs_enumeration() -> CheckResult:
    # every k of every fig67 column, at both lambda and both corners, against one
    # oracle call per (statistics, N) on the c = 1 shapes: Z(beta; c) = Z(beta*c; 1)
    # and U(beta; c) = c U(beta*c; 1)
    columns = {}
    for spec, statistics, N, ms in fig67_columns():
        columns.setdefault((spec.kind, statistics, N, max(ms)), []).append(spec)
    worst = 0.0
    for (kind, statistics, N, top), specs in columns.items():
        ens = EnsembleSpec(statistics, top, N)
        at = [(spec.scale_c, beta, L) for spec in specs for beta, L in FIG67_CORNERS]
        oracle = enumeration_rows(ens, SpectrumSpec(kind), [(beta * c, L) for c, beta, L in at])
        passes = [recursion_rows(ens, spec, FIG67_CORNERS) for spec in specs]
        for k, (log_zs, us) in enumerate(oracle):
            got = [pair for rows in passes for pair in zip(*rows[k])]
            for (c, _, _), (got_z, got_u), log_z, u in zip(at, got, log_zs, us):
                worst = max(worst, abs(got_z - log_z), abs(got_u - c * u) / max(1.0, abs(c * u)))
    return CheckResult("fig67-vs-enumeration", worst, 1e-10)


def check_state_counts() -> CheckResult:
    # each closed-form count against the total of its row of the oracle's histograms
    worst = 0.0
    for kind, statistics, N in itertools.product(KINDS, STATISTICS, (1, 3, 5, 8)):
        g = level_coefficients(SpectrumSpec(kind), N).astype(np.int64)
        rows = kernels.energy_histograms(g, min(4, N) if statistics == "fermion" else 4,
                                         statistics)
        for k, hist in enumerate(rows, 1):
            worst = max(worst, abs(EnsembleSpec(statistics, k, N).state_count - int(hist.sum())))
    return CheckResult("state-counts", worst, 0.0)


def check_positive_work_threshold() -> CheckResult:
    # the zero of the secant through W at (1 -+ 1e-6) R^p T_c: within 1e-6 of R^p T_c
    # only where the two W differ in sign, so W changes sign there
    worst = 0.0
    for kind in KINDS:
        spec = SpectrumSpec(kind)
        for statistics in STATISTICS:
            cfg = _engine(spec, EnsembleSpec(statistics, 2, 4))
            threshold = positive_work_threshold(cfg)
            T_lo, T_hi = (1.0 - 1e-6) * threshold, (1.0 + 1e-6) * threshold
            U4, *U2s = internal_energies(cfg.ens, spec, [(cfg.T_c, cfg.L2), (T_lo, cfg.L1),
                                                         (T_hi, cfg.L1)])
            W_lo, W_hi = (res.W for res in cycles_from_corners(cfg, U4, U2s))
            zero = T_lo - W_lo * (T_hi - T_lo) / (W_hi - W_lo)
            worst = max(worst, abs(zero - threshold) / threshold)
    return CheckResult("positive-work-threshold", worst, 1e-6)


def check_harmonic_closed_forms() -> CheckResult:
    worst = 0.0
    points = ((1.0, 2.0), (5.0, 1.0), (8.0, 1.0))  # (T, L): the cold corner, then Th = 5, 8
    # lam=1 converges with N=200; lam=0.05 needs far more levels
    for lam, N in ((1.0, 200), (0.05, 4800)):
        spec = SpectrumSpec("harmonic", scale_c=lam)
        works = {}
        for statistics in ("boson", "fermion"):
            ens = EnsembleSpec(statistics, 2, N)
            log_zs, (cold, *hot) = recursion_rows(ens, spec, [(1.0 / T, L) for T, L in points])[-1]
            for log_z, (T, L) in zip(log_zs, points):
                closed = harmonic_closed_form_Z(statistics, T, L, lam)
                worst = max(worst, abs(math.exp(log_z) - closed))
            works[statistics] = [res.W for res in cycles_from_corners(_engine(spec, ens),
                                                                      cold, hot)]
            for (Th, _), w in zip(points[1:], works[statistics]):
                worst = max(worst, abs(w - harmonic_closed_form_W(1.0, 2.0, 1.0, Th, lam)))
        worst = max(worst, *(abs(b - f) for b, f in zip(works["boson"], works["fermion"])))
    return CheckResult("harmonic-closed-forms", worst, 1e-8)


def check_distinguishable_factorization() -> CheckResult:
    worst = 0.0
    for kind in KINDS:
        spec = SpectrumSpec(kind)
        T_h = 3.0 * 2**spec.power_p
        single = run_cycle(_engine(spec, EnsembleSpec("distinguishable", 1, 5)), T_h).W
        for M in (2, 3, 4):  # run_cycle's M * U_1 against all N^M states
            cfg = _engine(spec, EnsembleSpec("distinguishable", M, 5))
            U4, U2 = enumeration_rows(cfg.ens, spec, [(1.0, 2.0), (1.0 / T_h, 1.0)])[-1][1]
            w = cycles_from_corners(cfg, U4, [U2])[0].W
            worst = max(worst, abs(w - M * single) / abs(M * single))
    return CheckResult("distinguishable-factorization", worst, 1e-12)


def check_fermion_full_shell_identity() -> CheckResult:
    # M harmonic fermions on M+1 levels do exactly a single (M+1)-level
    # particle's work: the excitation ladder is identical.
    worst = 0.0
    for M in (1, 2, 3, 4):
        for lam, Th in ((0.05, 5.0), (1.0, 8.0), (5.0, 4.5), (1.0, 5.0),
                        (0.5, 6.0)):
            spec = SpectrumSpec("harmonic", scale_c=lam)
            ws = run_cycle(_engine(spec, EnsembleSpec("fermion", 1, M + 1)), Th).W
            wf = run_cycle(_engine(spec, EnsembleSpec("fermion", M, M + 1)), Th).W
            worst = max(worst, abs(wf / ws - 1.0))
    return CheckResult("fermion-full-shell-identity", worst, 1e-10)


def check_low_temperature_ground_energies() -> CheckResult:
    # deep in the ground state every row of one recursion pass holds the
    # exact ground energy: k box bosons in level 1, k fermions in levels 1..k
    worst = 0.0
    for statistics, grounds in (("boson", [1, 2, 3]),
                                ("fermion", [1, 5, 14, 30, 55, 91, 140, 204])):
        ens = EnsembleSpec(statistics, len(grounds), 8)
        rows = recursion_rows(ens, SpectrumSpec("box"),
                              [(1.0 / T, 1.0) for T in (1e-8, 1e-15, 1e-300)])
        worst = max(worst, *(abs(u - ground) for (_, us), ground in zip(rows, grounds) for u in us))
    return CheckResult("low-temperature-ground-energies", worst, 0.0)


ALL_CHECKS = (
    check_recursion_vs_enumeration,
    check_fig67_vs_enumeration,
    check_state_counts,
    check_positive_work_threshold,
    check_harmonic_closed_forms,
    check_distinguishable_factorization,
    check_fermion_full_shell_identity,
    check_low_temperature_ground_energies,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
