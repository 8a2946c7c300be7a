"""Deterministic work-ratio sweeps and the untruncated harmonic validators.

Each sweep reproduces one of the standard parameter studies as a list of
RatioRecord named tuples, one CSV row each with byte-stable formatting.
The parameterization follows the dimensionless convention: L1 = 1,
T_c = 1, and the spectrum prefactor carries the regime parameter
lam = scale_c / (L1^p * T_c), so hot-bath temperatures are in units of T_c.

Sweep presets:

    fig2    intermediate regime, lam=1, N=3, R in {2,3,4}, T_h swept
    fig3    low-temperature regime, lam=20, R=2, N in {3,4}, T_h swept
    fig45   high (lam=0.05) and intermediate (lam=1) regimes, R=2,
            several truncations N, T_h swept
    fig67   multiparticle, lam in {0.05,1}, R=2, T_h=5, M swept per N,
            by ``recursion_rows``, checked against the enumeration oracle

The other presets take U from ``internal_energies``: the level recursion.

For the harmonic spectrum with infinitely many levels, the two-particle
partition functions close to

    Z_B = 1 / ((1-q)^2 (1+q)),   Z_F = q * Z_B,   q = exp(-c/(L^2 T)),

and the cycle work for two bosons equals that for two fermions. Note the
net work carries the cycle efficiency (1 - 1/R^2) on top of the heat
input; the coth/csch bracket alone is Q_h.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import manybody
from .manybody import EnsembleSpec, recursion_rows
from .spectrum import SpectrumSpec
from .thermo import CycleConfig, cycles_from_corners, run_cycle_series

CSV_COLUMNS = ("spectrum", "statistics", "M", "N", "L1", "R", "Tc", "Th",
               "lambda", "U1", "U2", "U3", "U4", "Qh", "Qc", "W", "eta",
               "Ws", "ratio", "positive_work")
# one row: str() of the four leading columns, .17g of the 15 floats, then _fmt's positive_work
_CSV_ROW = ",".join(["%s"] * 4 + ["%.17g"] * 15 + ["%s"])

# |W_s| below this makes a work ratio meaningless; NaN is returned instead
UNDEFINED_RATIO_GUARD = 1e-14

# cross-check the recursion against enumeration up to this many states
_CROSS_CHECK_CAP = 200_000
_CROSS_CHECK_TOL = 1e-8


class RatioRecord(NamedTuple):
    """One evaluated sweep point: cycle quantities for the M-particle system
    plus the single-particle work Ws and the ratio W/Ws (NaN if undefined)."""

    spectrum: str
    statistics: str
    M: int
    N: int
    L1: float
    R: float
    Tc: float
    Th: float
    lam: float
    U1: float
    U2: float
    U3: float
    U4: float
    Qh: float
    Qc: float
    W: float
    eta: float
    Ws: float
    ratio: float
    positive_work: bool


def _fmt(flag) -> str:
    if isinstance(flag, bool):
        return "true" if flag else "false"
    return str(flag)  # a numpy bool, from the float recursion, prints True/False


def records_to_csv(records: list[RatioRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines += [_CSV_ROW % (*rec[:-1], _fmt(rec[-1])) for rec in records]
    return "\n".join(lines) + "\n"


def write_csv(records: list[RatioRecord], path: str) -> None:
    """Write atomically: a temp file in the target directory, then rename."""
    text = records_to_csv(records)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0o077)  # os.umask is the only way to read it
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)  # what open() gives; mkstemp gives 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def make_series(spec: SpectrumSpec, ens: EnsembleSpec, L1: float, R: float,
                Tc: float, Th_values) -> list[RatioRecord]:
    """M- and single-particle cycles over a Th series, each ensemble built once."""
    if len(Th_values) == 0:
        return []
    cfg = CycleConfig(spec=spec, ens=ens, L1=L1, R=R, T_c=Tc)
    results = run_cycle_series(cfg, Th_values)
    singles = run_cycle_series(replace(cfg, ens=EnsembleSpec(ens.statistics, 1, ens.N)),
                               Th_values)
    return _records(cfg, Th_values, results, singles)


def _records(cfg: CycleConfig, Th_values, results, singles) -> list[RatioRecord]:
    """One record per Th: the cycle result of ``cfg`` against the single particle's."""
    head = (cfg.spec.kind, cfg.ens.statistics, cfg.ens.M, cfg.ens.N, cfg.L1, cfg.R, cfg.T_c)
    lam = cfg.regime_lambda
    return [RatioRecord(*head, Th, lam, *res[:8], single.W,
                        res.W / single.W if abs(single.W) >= UNDEFINED_RATIO_GUARD else math.nan,
                        res.positive_work)
            for Th, res, single in zip(Th_values, results, singles)]


def make_record(spec: SpectrumSpec, ens: EnsembleSpec, L1: float, R: float,
                Tc: float, Th: float) -> RatioRecord:
    """Evaluate the M-particle and single-particle cycles at one point."""
    return make_series(spec, ens, L1, R, Tc, [Th])[0]


def work_ratio_multiparticle(spec: SpectrumSpec, N: int, statistics: str,
                             M: int, L1: float, R: float, T_c: float,
                             T_h: float) -> float:
    """W_M / (M * W_s): M-particle work per particle relative to a single
    particle under the same conditions; the record's ratio over M."""
    return float(make_record(spec, EnsembleSpec(statistics, M, N), L1, R, T_c, T_h).ratio) / M


def work_ratio_two_particle(spec: SpectrumSpec, N: int, statistics: str,
                            L1: float, R: float, T_c: float, T_h: float) -> float:
    """W of two identical particles over W of a single particle under the same
    L1, R, baths and truncation N; NaN when |W_s| is below the guard."""
    if statistics not in ("boson", "fermion"):
        raise ValueError("two-particle ratio is defined for boson/fermion "
                         f"statistics, got {statistics!r}")
    return work_ratio_multiparticle(spec, N, statistics, 2, L1, R, T_c, T_h) * 2.0


def evaluate_series(kind: str, statistics: str, M: int, N: int, lam: float,
                    R: float, Th_values) -> list[RatioRecord]:
    """One sweep series under the L1=1, Tc=1, scale_c=lam convention."""
    return make_series(SpectrumSpec(kind, scale_c=lam), EnsembleSpec(statistics, M, N),
                       1.0, R, 1.0, Th_values)


def default_th_grid(R: float, power_p: float, steps: int = 200,
                    top: float = 20.0) -> tuple[float, ...]:
    """steps values in (R^p, top], open at the positive-work threshold."""
    lo = R**power_p
    if lo >= top:
        raise ValueError(f"positive-work threshold {lo} is not below {top}")
    return tuple(np.linspace(lo, top, steps + 1)[1:].tolist())


def th_range(lo: float, hi: float, steps: int) -> tuple[float, ...]:
    """steps evenly spaced hot-bath temperatures from lo to hi inclusive."""
    if steps < 2:
        raise ValueError(f"a range grid needs >= 2 steps, got {steps}")
    if not (hi > lo):
        raise ValueError(f"grid needs max > min, got [{lo}, {hi}]")
    values = tuple(np.linspace(lo, hi, steps).tolist())
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("sweep grid values must be strictly increasing")
    return values


def sweep_fig2(steps: int = 200) -> list[RatioRecord]:
    """Two three-level particles, lam=1, R in {2,3,4}, both statistics."""
    records = []
    for R in (2.0, 3.0, 4.0):
        grid = default_th_grid(R, 2.0, steps)
        for statistics in ("boson", "fermion"):
            records += evaluate_series("box", statistics, 2, 3, 1.0, R, grid)
    return records


def sweep_fig3(steps: int = 200) -> list[RatioRecord]:
    """Low-temperature regime: lam=20, R=2, N in {3,4}.

    The grid stays within (4, 12]*T_c; by 20*T_c the hot bath already
    reaches beta*E ~ 1 and the regime assumption breaks down.
    """
    grid = tuple(np.linspace(4.0, 12.0, steps + 1)[1:].tolist())
    records = []
    for N in (3, 4):
        for statistics in ("boson", "fermion"):
            records += evaluate_series("box", statistics, 2, N, 20.0, 2.0, grid)
    return records


def sweep_fig45(steps: int = 200,
                n_values: tuple[int, ...] = (3, 4, 10, 25, 50, 100, 150)
                ) -> list[RatioRecord]:
    """High (lam=0.05) and intermediate (lam=1) regimes, R=2, N swept."""
    grid = default_th_grid(2.0, 2.0, steps)
    records = []
    for lam in (0.05, 1.0):
        for N in n_values:
            for statistics in ("boson", "fermion"):
                records += evaluate_series("box", statistics, 2, N, lam, 2.0, grid)
    return records


def sweep_fig67(m_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
                n_values: tuple[int, ...] = (3, 4, 10, 25, 50, 100, 150)
                ) -> list[RatioRecord]:
    """Multiparticle ratios at T_h = 5*T_c, R=2, recursion backend.

    Fermion rows are restricted to M <= N. One pass per corner to a column's
    largest M gives every M and the single particle; where the state space is
    small enough, each M is cross-checked against enumeration at both corners.
    """
    L1, R, Tc, Th = 1.0, 2.0, 1.0, 5.0
    corners = ((1.0 / Tc, R * L1), (1.0 / Th, L1))
    records, held = [], {}
    for lam in (0.05, 1.0):
        spec = SpectrumSpec("box", scale_c=lam)
        for N in n_values:
            for statistics in ("boson", "fermion"):
                ms = [M for M in m_values if statistics == "boson" or M <= N]
                if not ms:
                    continue
                cold, hot = recursion_rows(EnsembleSpec(statistics, max(ms), N), spec, corners)
                for M in ms:
                    cfg = CycleConfig(spec, EnsembleSpec(statistics, M, N), L1, R, Tc)
                    # row 1 is the single particle; the corner arithmetic ignores M
                    single, res = (cycles_from_corners(cfg, cold[k].U, [hot[k].U])
                                   for k in (0, M - 1))
                    records += _records(cfg, [Th], res, single)
                    held.setdefault(cfg.ens, []).extend(
                        zip((spec, spec), corners, (cold[M - 1], hot[M - 1])))
    # checked after every row: interleaving the enumeration tables with the
    # recursion cost about 4% more CPU time (fig67, 2-vCPU VM)
    for ens, evaluations in held.items():
        _cross_check(ens, evaluations)
    return records


def _cross_check(ens: EnsembleSpec, held) -> None:
    """Compare the (spectrum, (beta, L), evaluation) triples in ``held``, one
    spectrum kind, with the enumeration oracle on one c = 1 table: Z(beta; c) = Z(beta*c; 1)."""
    if ens.state_count > _CROSS_CHECK_CAP:
        return
    unit = SpectrumSpec(held[0][0].kind)
    log_zs, us = manybody.enumeration_log_z_and_u(
        ens, unit, [(beta * spec.scale_c, L) for spec, (beta, L), _ in held])
    for (spec, (beta, L), a), log_z, u in zip(held, log_zs, us):
        u *= spec.scale_c  # U(beta; c) = c U(beta*c; 1)
        if abs(a.log_Z - log_z) > _CROSS_CHECK_TOL or \
                abs(a.U - u) > _CROSS_CHECK_TOL * max(1.0, abs(u)):
            raise AssertionError(
                f"recursion/enumeration mismatch for {ens} on {spec} at "
                f"beta={beta}, L={L}: dlogZ={a.log_Z - log_z:.3g} dU={a.U - u:.3g}")


def harmonic_closed_form_Z(statistics: str, T: float, L: float,
                           c: float = 1.0) -> float:
    """Two-particle harmonic partition function, untruncated level ladder."""
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"closed form defined for boson/fermion, got {statistics!r}")
    if not (0 < T < math.inf and 0 < L < math.inf and 0 < c < math.inf):
        raise ValueError("T, L and c must be positive and finite")
    a = c / (L * L * T)
    q = math.exp(-a)
    # expm1 gives 1 - q without cancelling when a is small (high T)
    den = math.expm1(-a) ** 2 * (1.0 + q)
    zb = 1.0 / den if den else math.inf
    return _finite(q * zb if statistics == "fermion" else zb, "Z")


def harmonic_closed_form_W(L1: float, R: float, T_c: float, T_h: float,
                           c: float = 1.0) -> float:
    """Net cycle work of two untruncated harmonic particles; bosons and
    fermions coincide. The bracket is the heat input Q_h; the leading
    (1 - 1/R^2) is the cycle efficiency."""
    if not (0 < L1 < math.inf and 1 < R < math.inf and 0 < T_c < math.inf
            and 0 < T_h < math.inf and 0 < c < math.inf):
        raise ValueError("parameters must be positive and finite with R > 1")
    a_h = c / (L1 * L1 * T_h)
    a_c = c / (R * R * L1 * L1 * T_c)
    try:
        bracket = (3.0 * (1.0 / math.tanh(a_h) - 1.0 / math.tanh(a_c))
                   + (1.0 / math.sinh(a_h) - 1.0 / math.sinh(a_c)))
    except ZeroDivisionError:  # a_h or a_c underflowed to 0
        bracket = math.inf
    return _finite((1.0 - 1.0 / R**2) * (c / (2.0 * L1 * L1)) * bracket, "W")


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise OverflowError(f"closed-form {name} leaves the float range at these arguments")
    return value
