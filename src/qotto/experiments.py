"""Deterministic work-ratio sweeps and the untruncated harmonic validators.

Each sweep reproduces one of the standard parameter studies as a list of
RatioRecord named tuples, one CSV row each with byte-stable formatting.
The parameterization follows the dimensionless convention: L1 = 1,
T_c = 1, and the spectrum prefactor carries the regime parameter
lam = scale_c / (L1^p * T_c), so hot-bath temperatures are in units of T_c.

Sweep presets, the fixed studies of the table ``PRESETS``; ``sweep(name)`` gives a
preset's rows, other grids go through ``make_series``:

    fig2    intermediate regime, lam=1, N=3, R in {2,3,4}, T_h swept
    fig3    low-temperature regime, lam=20, R=2, N in {3,4}, T_h swept to 12
    fig45   high (lam=0.05) and intermediate (lam=1) regimes, R=2,
            several truncations N, T_h swept
    fig67   multiparticle, lam in {0.05,1}, R=2, T_h=5, M swept per N,
            by ``recursion_columns``; ``validate`` checks every column that
            ``fig67_columns`` names against enumeration

The other presets, two particles over the 200 values of ``default_th_grid``, take U
from ``internal_energies``: the level recursion.

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
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import manybody
from .manybody import EnsembleSpec, recursion_columns
from .spectrum import SpectrumSpec
from .thermo import CycleConfig, cycle_columns

CSV_COLUMNS = ("spectrum", "statistics", "M", "N", "L1", "R", "Tc", "Th",
               "lambda", "U1", "U2", "U3", "U4", "Qh", "Qc", "W", "eta",
               "Ws", "ratio", "positive_work")
# one cell per column: str() of the four leading columns, .17g of the 15 floats, then
# _fmt's positive_work
_CSV_CELLS = ("%s",) * 4 + ("%.17g",) * 15 + ("%s",)

# |W_s| below this makes a work ratio meaningless; NaN is returned instead
UNDEFINED_RATIO_GUARD = 1e-14

# the truncations N of figs 4-7, the particle numbers M of figs 6-7, and the hot-bath
# values of a two-particle preset
_TRUNCATIONS = (3, 4, 10, 25, 50, 100, 150)
_FIG67_M = (2, 3, 4, 5, 6, 7, 8)
_TH_STEPS = 200

# fig67's engine (L1, R, T_c, T_h) and its (beta, L) corners: cold bath at L2 = R*L1, hot at L1
_FIG67_L1, _FIG67_R, _FIG67_TC, _FIG67_TH = 1.0, 2.0, 1.0, 5.0
FIG67_CORNERS = ((1 / _FIG67_TC, _FIG67_R * _FIG67_L1), (1 / _FIG67_TH, _FIG67_L1))


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


def _csv(series):
    """The one CSV writer, over series of the CSV columns in CSV order (a list where the
    column varies): the header line, then one chunk of rows per series. Each constant cell
    is formatted once, `%` escaped, into the series' row template; a chunk is one `%` of n
    templates, each newline-ended, over the row-major chain of its list columns."""
    yield ",".join(CSV_COLUMNS) + "\n"
    for columns in series:
        template = ",".join([cell if isinstance(col, list) else (cell % col).replace("%", "%%")
                             for cell, col in zip(_CSV_CELLS, columns)])
        *lists, flags = [col for col in columns if isinstance(col, list)] or [[]]
        cells = chain.from_iterable(zip(*lists, map(_fmt, flags)))
        yield ((template + "\n") * len(flags)) % tuple(cells)  # no rows, no text


def records_to_csv(records: list[RatioRecord]) -> str:
    """The records as one series of list columns, their transpose; no records, no rows."""
    return "".join(_csv([[list(col) for col in zip(*records)]]))


def write_csv(records: list[RatioRecord], path: str) -> None:
    """Write atomically: a temp file in the target directory, then rename."""
    _write([records_to_csv(records)], path)


def write_series(series, path: str) -> int:
    """Write series, each its CSV columns as ``sweep_series`` gives them, as ``write_csv``
    writes their rows, one series at a time; the row count."""
    _write(_csv(series), path)
    return sum(len(columns[-1]) for columns in series)


def _write(chunks, path: str) -> None:
    umask = os.umask(0o077)  # os.umask is the only way to read it
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.chmod(tmp, 0o666 & ~umask)  # what open() gives; mkstemp gives 0o600
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # the error names the output, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def make_series(spec: SpectrumSpec, ens: EnsembleSpec, L1: float, R: float,
                Tc: float, Th_values) -> list[RatioRecord]:
    """M- and single-particle cycles over a Th series, each ensemble built once:
    up to the state cap, one level pass gives both (row 1 is the single particle)."""
    return _records([sweep_series(spec, ens, L1, R, Tc, Th_values)])


def sweep_series(spec: SpectrumSpec, ens: EnsembleSpec, L1: float, R: float, Tc: float,
                 Th_values) -> tuple:
    """The series behind ``make_series``: its CSV columns, as ``_assemble`` gives them."""
    cfg = CycleConfig(spec=spec, ens=ens, L1=L1, R=R, T_c=Tc)
    (U4_1, *U2s_1), corners = manybody._energy_rows(
        ens, spec, [(Tc, cfg.L2)] + [(Th, L1) for Th in Th_values])
    return _assemble(cfg, ens.M, Th_values, cycle_columns(cfg, U4_1, U2s_1)[4], corners)


def _assemble(cfg: CycleConfig, M: int, Th_values, Ws, corners) -> tuple:
    """The series of M particles in ``cfg``'s spectrum, statistics, N and cycle, from the
    single-particle work Ws and the (U4, *U2s) corners of M particles: its 20 columns in
    CSV order, a list where the column varies over Th_values, else its one value."""
    U4, *U2s = corners
    U1, U3s, Q_hs, Q_cs, Ws_M, eta, flags = cycle_columns(cfg, U4, U2s)
    ratios = [W / w if abs(w) >= UNDEFINED_RATIO_GUARD else math.nan for W, w in zip(Ws_M, Ws)]
    return (cfg.spec.kind, cfg.ens.statistics, M, cfg.ens.N, cfg.L1, cfg.R, cfg.T_c,
            list(Th_values), cfg.regime_lambda, U1, U2s, U3s, U4, Q_hs, Q_cs, Ws_M, eta, Ws,
            ratios, flags)


def _records(series) -> list[RatioRecord]:
    """The rows of a list of series, each constant column repeated in every row."""
    rows = []
    for columns in series:
        n = len(columns[-1])
        rows += map(RatioRecord._make,
                    zip(*[col if isinstance(col, list) else [col] * n for col in columns]))
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


def default_th_grid(R: float, power_p: float, top: float = 20.0) -> tuple[float, ...]:
    """200 values in (R^p, top], open at the positive-work threshold."""
    lo = R**power_p
    if lo >= top:
        raise ValueError(f"positive-work threshold {lo} is not below {top}")
    return tuple(np.linspace(lo, top, _TH_STEPS + 1)[1:].tolist())


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


def _two_particle(lams, Rs, Ns, top: float) -> list[tuple]:
    """Two box particles of both statistics at L1 = T_c = 1, one series per (lam, R, N),
    T_h over ``default_th_grid`` up to top."""
    return [sweep_series(SpectrumSpec("box", scale_c=lam), EnsembleSpec(statistics, 2, N), 1.0,
                         R, 1.0, default_th_grid(R, 2.0, top))
            for lam in lams for R in Rs for N in Ns for statistics in ("boson", "fermion")]


def fig67_columns():
    """fig67's columns in row order, (spectrum, statistics, N, M values) with lam in
    {0.05, 1}, fermions restricted to M <= N."""
    for lam in (0.05, 1.0):
        spec = SpectrumSpec("box", scale_c=lam)
        for N in _TRUNCATIONS:
            for statistics in ("boson", "fermion"):
                yield spec, statistics, N, [M for M in _FIG67_M if statistics == "boson" or M <= N]


def fig67() -> list[tuple]:
    """Multiparticle ratios at T_h = 5*T_c, R=2, recursion backend.

    One float recursion pass over both corners of every column, each to the column's
    largest M, gives every M and the single particle. Each M is its own one-row series,
    holding its M, U1 and U4 constant.
    """
    columns = list(fig67_columns())
    tops = [(EnsembleSpec(statistics, max(ms), N), spec) for spec, statistics, N, ms in columns]
    series = []
    for (*_, ms), (top, spec), rows in zip(columns, tops, recursion_columns(tops, FIG67_CORNERS)):
        # one config per column: the largest M's top energy bounds every smaller
        # M's, the cycle arithmetic ignores M, and row 1 is the single particle
        cfg = CycleConfig(spec, top, _FIG67_L1, _FIG67_R, _FIG67_TC)
        U4_1, U2_1 = rows[0][1]
        Ws = cycle_columns(cfg, U4_1, [U2_1])[4]
        series += [_assemble(cfg, M, [_FIG67_TH], Ws, rows[M - 1][1]) for M in ms]
    return series


PRESETS = {
    # intermediate regime: lam = 1, three levels, R in {2, 3, 4}
    "fig2": partial(_two_particle, (1.0,), (2.0, 3.0, 4.0), (3,), 20.0),
    # low-temperature regime: lam = 20, R = 2, N in {3, 4}. The grid stays within
    # (4, 12]*T_c; by 20*T_c the hot bath already reaches beta*E ~ 1 and the regime
    # assumption breaks down
    "fig3": partial(_two_particle, (20.0,), (2.0,), (3, 4), 12.0),
    # high (lam = 0.05) and intermediate (lam = 1) regimes, R = 2, N swept
    "fig45": partial(_two_particle, (0.05, 1.0), (2.0,), _TRUNCATIONS, 20.0),
    "fig67": fig67,
}


def sweep(preset: str) -> list[RatioRecord]:
    """The rows of the preset named ``preset``."""
    return _records(PRESETS[preset]())


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
