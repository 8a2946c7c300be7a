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
            by ``recursion_rows``, each (statistics, N) column checked
            against one enumeration of its k-particle tables

The other presets take U from ``internal_energies``: the level recursion.

A sweep is built as series: constant cells (spectrum, statistics, M, N, L1,
R, Tc, lambda, U1, U4, eta) plus varying columns. ``figN_series`` build the
presets, which the CLI writes; ``sweep_figN`` return their rows. The one CSV
writer formats each series' constant cells once, into a row template;
``records_to_csv`` is that writer with every cell varying.

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
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import manybody
from .manybody import EnsembleSpec, recursion_rows
from .spectrum import SpectrumSpec
from .thermo import CycleConfig, cycle_columns

CSV_COLUMNS = ("spectrum", "statistics", "M", "N", "L1", "R", "Tc", "Th",
               "lambda", "U1", "U2", "U3", "U4", "Qh", "Qc", "W", "eta",
               "Ws", "ratio", "positive_work")
# one cell per column: str() of the four leading columns, .17g of the 15 floats, then
# _fmt's positive_work
_CSV_CELLS = ("%s",) * 4 + ("%.17g",) * 15 + ("%s",)
# the columns a sweep series holds constant: spectrum..Tc, lambda, U1, U4 and eta
_CONSTANT = (0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 16)
_VARYING = tuple(i for i in range(len(CSV_COLUMNS)) if i not in _CONSTANT)
# a series row, its constant cells and then its varying cells, in CSV order
_ROW = itemgetter(*map((_CONSTANT + _VARYING).index, range(len(CSV_COLUMNS))))

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


def _csv(series) -> str:
    """The one CSV writer, over (constant cells, rows of the varying cells) pairs. Each
    series' constant cells are formatted once, `%` escaped, into its row template."""
    lines = [",".join(CSV_COLUMNS)]
    for const, rows in series:
        cells = list(_CSV_CELLS)
        for i, value in zip(_CONSTANT, const):
            cells[i] = (cells[i] % value).replace("%", "%%")
        template = ",".join(cells)
        lines += [template % (*row[:-1], _fmt(row[-1])) for row in rows]
    return "\n".join(lines) + "\n"


def records_to_csv(records: list[RatioRecord]) -> str:
    return _csv([((), records)])


def write_csv(records: list[RatioRecord], path: str) -> None:
    """Write atomically: a temp file in the target directory, then rename."""
    _write(records_to_csv(records), path)


def write_series(series, path: str) -> int:
    """Write ``sweep_series`` series as ``write_csv`` writes their rows; the row count."""
    _write(_csv((const, zip(*cols)) for const, cols in series), path)
    return sum(len(cols[0]) for _, cols in series)


def _write(text: str, path: str) -> None:
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
    """M- and single-particle cycles over a Th series, each ensemble built once:
    up to the state cap, one level pass gives both (row 1 is the single particle)."""
    return _records([sweep_series(spec, ens, L1, R, Tc, Th_values)]) if len(Th_values) else []


def sweep_series(spec: SpectrumSpec, ens: EnsembleSpec, L1: float, R: float, Tc: float,
                 Th_values) -> tuple:
    """The series behind ``make_series``: constant cells and varying columns (``_assemble``)."""
    cfg = CycleConfig(spec=spec, ens=ens, L1=L1, R=R, T_c=Tc)
    (U4_1, *U2s_1), corners = manybody._energy_rows(
        ens, spec, [(Tc, cfg.L2)] + [(Th, L1) for Th in Th_values], True)
    return _assemble(cfg, Th_values, cycle_columns(cfg, U4_1, U2s_1)[4], corners)


def _assemble(cfg: CycleConfig, Th_values, Ws, corners) -> tuple:
    """The series of ``cfg`` from the single-particle work Ws and the (U4, *U2s) corners
    of M particles: its constant cells, in _CONSTANT order, and its varying columns, in
    CSV order."""
    U4, *U2s = corners
    U1, U3s, Q_hs, Q_cs, Ws_M, eta, flags = cycle_columns(cfg, U4, U2s)
    ratios = [W / w if abs(w) >= UNDEFINED_RATIO_GUARD else math.nan for W, w in zip(Ws_M, Ws)]
    return ((cfg.spec.kind, cfg.ens.statistics, cfg.ens.M, cfg.ens.N, cfg.L1, cfg.R, cfg.T_c,
             cfg.regime_lambda, U1, U4, eta),
            (Th_values, U2s, U3s, Q_hs, Q_cs, Ws_M, Ws, ratios, flags))


def _records(series) -> list[RatioRecord]:
    """The rows of a list of series: constant cells, if any, then varying, in CSV order."""
    rows = []
    for const, cols in series:
        cells = zip(*cols)
        rows += map(RatioRecord._make, map(_ROW, map(const.__add__, cells)) if const else cells)
    return rows


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
    return _records(fig2_series(steps))


def fig2_series(steps: int = 200) -> list[tuple]:
    """``sweep_fig2`` as series."""
    return [sweep_series(SpectrumSpec("box", scale_c=1.0), EnsembleSpec(statistics, 2, 3), 1.0,
                         R, 1.0, default_th_grid(R, 2.0, steps))
            for R in (2.0, 3.0, 4.0) for statistics in ("boson", "fermion")]


def sweep_fig3(steps: int = 200) -> list[RatioRecord]:
    """Low-temperature regime: lam=20, R=2, N in {3,4}.

    The grid stays within (4, 12]*T_c; by 20*T_c the hot bath already
    reaches beta*E ~ 1 and the regime assumption breaks down.
    """
    return _records(fig3_series(steps))


def fig3_series(steps: int = 200) -> list[tuple]:
    """``sweep_fig3`` as series."""
    grid = tuple(np.linspace(4.0, 12.0, steps + 1)[1:].tolist())
    return [sweep_series(SpectrumSpec("box", scale_c=20.0), EnsembleSpec(statistics, 2, N), 1.0,
                         2.0, 1.0, grid) for N in (3, 4) for statistics in ("boson", "fermion")]


def sweep_fig45(steps: int = 200,
                n_values: tuple[int, ...] = (3, 4, 10, 25, 50, 100, 150)
                ) -> list[RatioRecord]:
    """High (lam=0.05) and intermediate (lam=1) regimes, R=2, N swept."""
    return _records(fig45_series(steps, n_values))


def fig45_series(steps: int = 200, n_values: tuple[int, ...] = (3, 4, 10, 25, 50, 100, 150)
                 ) -> list[tuple]:
    """``sweep_fig45`` as series."""
    grid = default_th_grid(2.0, 2.0, steps)
    return [sweep_series(SpectrumSpec("box", scale_c=lam), EnsembleSpec(statistics, 2, N), 1.0,
                         2.0, 1.0, grid)
            for lam in (0.05, 1.0) for N in n_values for statistics in ("boson", "fermion")]


def sweep_fig67(m_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
                n_values: tuple[int, ...] = (3, 4, 10, 25, 50, 100, 150)
                ) -> list[RatioRecord]:
    """Multiparticle ratios at T_h = 5*T_c, R=2, recursion backend.

    Fermion rows are restricted to M <= N. One pass per corner to a column's
    largest M gives every M and the single particle; where the state space is
    small enough, each M is cross-checked against enumeration at both corners.
    """
    return _records(fig67_series(m_values, n_values))


def fig67_series(m_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
                 n_values: tuple[int, ...] = (3, 4, 10, 25, 50, 100, 150)) -> list[tuple]:
    """``sweep_fig67`` as series: one with no constant cell, as its rows share none, and
    one row template for all its rows costs less than a template per row."""
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
                cfgs = [CycleConfig(spec, EnsembleSpec(statistics, M, N), L1, R, Tc) for M in ms]
                # row 1 is the single particle; the corner arithmetic ignores M
                Ws = cycle_columns(cfgs[0], cold[0].U, [hot[0].U])[4]
                records += _records([_assemble(cfg, [Th], Ws, (cold[cfg.ens.M - 1].U,
                                                               hot[cfg.ens.M - 1].U))
                                     for cfg in cfgs])
                held.setdefault((statistics, N, tuple(ms)), []).extend(
                    zip((spec, spec), corners, (cold, hot)))
    # checked after every row: a column's rows at both lambda share one enumeration
    for column, passes in held.items():
        _cross_check(*column, passes)
    return [((), list(zip(*records)))] if records else []


def _cross_check(statistics: str, N: int, ms, held) -> None:
    """Compare rows M in ``ms`` of the (spectrum, (beta, L), rows) recursion passes in
    ``held``, one spectrum kind, with the enumeration oracle on the c = 1 shapes:
    Z(beta; c) = Z(beta*c; 1). One oracle call gives every row up to the largest M whose
    k-tables, k <= M, all hold at most _CROSS_CHECK_CAP states; a larger M under the cap
    (fermions past N/2) takes its own table."""
    sizes = [EnsembleSpec(statistics, k, N).state_count for k in range(1, max(ms) + 1)]
    top = max((M for M in ms if max(sizes[:M]) <= _CROSS_CHECK_CAP), default=0)
    unit = SpectrumSpec(held[0][0].kind)
    points = [(beta * spec.scale_c, L) for spec, (beta, L), _ in held]
    column = manybody.enumeration_rows(EnsembleSpec(statistics, top, N), unit, points) if top else []
    for M in ms:
        ens = EnsembleSpec(statistics, M, N)
        if M > top and ens.state_count > _CROSS_CHECK_CAP:
            continue
        log_zs, us = column[M - 1] if M <= top else manybody.enumeration_log_z_and_u(ens, unit, points)
        for (spec, (beta, L), rows), log_z, u in zip(held, log_zs, us):
            a, u = rows[M - 1], u * spec.scale_c  # U(beta; c) = c U(beta*c; 1)
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
