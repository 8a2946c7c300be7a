"""Sweeps, CSV serialization, and the untruncated harmonic validators."""

import collections
import decimal
import importlib.util
import inspect
import math
import os
from pathlib import Path

import numpy as np
import pytest

from qotto import cli, experiments, kernels, manybody, validate
from qotto import (PRESETS, CycleConfig, EnsembleSpec, SpectrumSpec,
                   enumeration_log_z_and_u, harmonic_closed_form_W,
                   harmonic_closed_form_Z, make_record, make_series, recursion_rows,
                   records_to_csv, run_cycle, sweep, work_ratio_multiparticle,
                   write_csv)
from qotto.experiments import CSV_COLUMNS, default_th_grid, th_range


def evaluate_series(kind, statistics, M, N, lam, R, Th_values):
    """One sweep series under the L1=1, Tc=1, scale_c=lam convention of the presets."""
    return make_series(SpectrumSpec(kind, scale_c=lam), EnsembleSpec(statistics, M, N),
                       1.0, R, 1.0, Th_values)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_ground_state_limits():
    assert harmonic_closed_form_Z("boson", 1e-4, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert harmonic_closed_form_Z("fermion", 1e-4, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_closed_form_fermion_boson_quotient_is_q():
    for T, L, c in ((0.7, 1.0, 1.0), (5.0, 2.0, 0.05), (1.0, 1.0, 20.0)):
        q = math.exp(-c / (L * L * T))
        zb = harmonic_closed_form_Z("boson", T, L, c)
        zf = harmonic_closed_form_Z("fermion", T, L, c)
        assert zf / zb == pytest.approx(q, rel=1e-14)


def test_closed_form_rejects_bad_arguments():
    with pytest.raises(ValueError):
        harmonic_closed_form_Z("distinguishable", 1.0, 1.0)
    with pytest.raises(ValueError):
        harmonic_closed_form_Z("boson", 0.0, 1.0)
    with pytest.raises(ValueError):
        harmonic_closed_form_W(1.0, 1.0, 1.0, 5.0)
    for args in ((math.inf, 1.0), (1.0, math.inf), (1.0, 1.0, math.inf)):
        with pytest.raises(ValueError):
            harmonic_closed_form_Z("boson", *args)
    for args in ((1.0, 2.0, 1.0, math.inf), (1.0, 2.0, math.inf, 5.0),
                 (math.inf, 2.0, 1.0, 5.0), (1.0, math.inf, 1.0, 5.0),
                 (1.0, 2.0, 1.0, 5.0, math.inf)):
        with pytest.raises(ValueError):
            harmonic_closed_form_W(*args)
    # true values beyond the float range, which came out as inf,
    # ZeroDivisionError and inf
    for call in (lambda: harmonic_closed_form_Z("boson", 1e155, 1.0),
                 lambda: harmonic_closed_form_Z("boson", 1e170, 1.0),
                 lambda: harmonic_closed_form_W(1.0, 2.0, 1.0, 1e300, c=1e-10)):
        with pytest.raises(OverflowError):
            call()


def test_closed_form_z_keeps_full_precision_at_high_temperature():
    # 1 - q cancelled when formed directly: 3e-11 relative off at T = 1e6,
    # 4e-5 at 1e12, a division by zero once q rounds to 1. The reference is a
    # 60-digit decimal evaluation of the same closed form.
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for T in (0.3, 1.0, 8.0, 1e2, 1e4, 1e6, 1e8, 1e12, 1e16, 1e20):
            q = (-1 / decimal.Decimal(T)).exp()
            exact = 1 / ((1 - q) ** 2 * (1 + q))
            for statistics, ref in (("boson", exact), ("fermion", q * exact)):
                got = decimal.Decimal(harmonic_closed_form_Z(statistics, T, 1.0))
                assert abs(got - ref) <= decimal.Decimal(1e-15) * ref


def test_closed_form_matches_truncated_ensemble_intermediate_regime():
    # lam = 1: N = 200 is effectively untruncated
    spec = SpectrumSpec("harmonic", scale_c=1.0)
    for statistics in ("boson", "fermion"):
        ens = EnsembleSpec(statistics, 2, 200)
        points = ((5.0, 1.0), (8.0, 1.0), (1.0, 2.0))
        log_zs = enumeration_log_z_and_u(ens, spec, [(1.0 / T, L) for T, L in points])[0]
        for (T, L), log_z in zip(points, log_zs):
            assert math.exp(log_z) == pytest.approx(
                harmonic_closed_form_Z(statistics, T, L, 1.0), abs=1e-8)
        for Th in (5.0, 8.0):
            w = run_cycle(CycleConfig(spec=spec, ens=ens, L1=1.0, R=2.0,
                                      T_c=1.0), Th).W
            assert w == pytest.approx(
                harmonic_closed_form_W(1.0, 2.0, 1.0, Th, 1.0), abs=1e-8)


def test_closed_form_matches_truncated_ensemble_high_temperature_regime():
    # lam = 0.05 keeps hundreds of levels occupied at the cold corner; the
    # geometric truncation error only drops below 1e-8 for N ~ 4800
    spec = SpectrumSpec("harmonic", scale_c=0.05)
    for statistics in ("boson", "fermion"):
        ens = EnsembleSpec(statistics, 2, 4800)
        points = ((8.0, 1.0), (1.0, 2.0))
        log_zs, _ = recursion_rows(ens, spec, [(1.0 / T, L) for T, L in points])[-1]
        for (T, L), log_z in zip(points, log_zs):
            assert math.exp(log_z) == pytest.approx(
                harmonic_closed_form_Z(statistics, T, L, 0.05), abs=1e-8)
        assert ens.state_count > manybody.DEFAULT_STATE_CAP  # run_cycle takes the recursion
        for Th in (5.0, 8.0):
            w = run_cycle(CycleConfig(spec=spec, ens=ens, L1=1.0, R=2.0,
                                      T_c=1.0), Th).W
            assert w == pytest.approx(
                harmonic_closed_form_W(1.0, 2.0, 1.0, Th, 0.05), abs=1e-8)


def test_closed_form_work_vanishes_at_threshold():
    assert harmonic_closed_form_W(1.0, 2.0, 1.0, 4.0) == 0.0


def test_truncation_error_shrinks_monotonically():
    for lam in (0.05, 1.0):
        spec = SpectrumSpec("harmonic", scale_c=lam)
        errors = []
        for N in (25, 50, 100, 200):
            w = run_cycle(CycleConfig(spec=spec,
                                      ens=EnsembleSpec("boson", 2, N),
                                      L1=1.0, R=2.0, T_c=1.0), 5.0).W
            errors.append(abs(w - harmonic_closed_form_W(1.0, 2.0, 1.0, 5.0, lam)))
        assert all(b <= a + 1e-14 for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# sweep machinery


def test_default_th_grid_is_open_at_the_threshold_and_closed_at_top():
    for grid, lo, top in ((default_th_grid(2.0, 2.0), 4.0, 20.0),
                          (default_th_grid(2.0, 2.0, top=12.0), 4.0, 12.0),
                          (default_th_grid(1.5, 1.0, top=2.0), 1.5, 2.0)):
        assert len(grid) == 200
        assert grid[0] == lo + (top - lo) / 200
        assert grid[-1] == top
    for R, top in ((2.0, 4.0), (4.0, 12.0)):  # R^p at or above top
        with pytest.raises(ValueError, match="not below"):
            default_th_grid(R, 2.0, top=top)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        th_range(5.0, 5.0, 2)
    with pytest.raises(ValueError):
        th_range(5.0, 9.0, 1)
    # max > min, but 200 points round onto repeated values
    with pytest.raises(ValueError, match="strictly increasing"):
        th_range(1.0, 1.000000000000001, 200)
    assert th_range(4.0, 8.0, 5) == (4.0, 5.0, 6.0, 7.0, 8.0)


def test_evaluate_series_is_lambda_convention_record():
    a, = evaluate_series("box", "boson", 2, 3, 0.5, 2.0, [9.0])
    b = make_record(SpectrumSpec("box", scale_c=0.5), EnsembleSpec("boson", 2, 3),
                    1.0, 2.0, 1.0, 9.0)
    assert a == b
    assert a.lam == 0.5


def test_record_invariants_on_fig2():
    records = sweep("fig2")
    assert len(records) == 3 * 2 * 200
    for rec in records:
        assert rec.W == rec.Qh - rec.Qc
        assert rec.eta == 1.0 - rec.R**-2
        if rec.positive_work and not math.isnan(rec.ratio):
            assert abs(rec.ratio * rec.Ws - rec.W) <= 1e-10


def test_csv_header_and_roundtrip():
    records = sweep("fig2")
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(records) + 1
    first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert first["spectrum"] == "box"
    assert first["positive_work"] in ("true", "false")
    # 17 significant digits round-trip exactly
    assert float(first["W"]) == records[0].W
    assert float(first["ratio"]) == records[0].ratio
    assert int(first["M"]) == 2


def _per_cell_csv(records):
    """The writer as a loop over every cell, the reference for the row template."""
    def fmt(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value)

    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(fmt(v) for v in rec) for rec in records]
    return "\n".join(lines) + "\n"


def test_csv_row_template_matches_per_cell_formatting(monkeypatch):
    hand = [experiments.RatioRecord(
        "harmonic", "fermion", 3, np.int64(7), 1.0, np.float64(2.5), 1e-300, 5.0, 0.05,
        -0.0, 0.0, math.inf, -math.inf, 2.0, np.float64(0.1), 1e17, 123456789.0,
        np.float64(-3.0), math.nan, positive) for positive in (True, False, np.True_, np.False_)]
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", 1)  # the recursion's numpy flags
    recursion = evaluate_series("box", "boson", 4, 6, 0.05, 2.0, (4.5, 5.0, 12.0))
    assert {rec.positive_work.__class__ for rec in recursion} == {np.bool_}
    monkeypatch.undo()
    for records in (sweep("fig2"), sweep("fig67"), recursion, hand):
        assert records_to_csv(records) == _per_cell_csv(records)
    assert records_to_csv(hand).splitlines()[1] == (
        "harmonic,fermion,3,7,1,2.5,1e-300,5,0.050000000000000003,-0,0,"
        "inf,-inf,2,0.10000000000000001,1e+17,123456789,-3,nan,true")
    assert [rec.split(",")[-1] for rec in records_to_csv(hand).splitlines()[1:]] == \
        ["true", "false", "True", "False"]


def _figure_argv(name):
    """``--figure`` with the first figure number of the preset ``name``."""
    return ["--figure", str(min(n for n, preset in cli._FIGURES.items() if preset == name))]


@pytest.mark.parametrize("argv, rows", [
    *((_figure_argv(name), lambda name=name: sweep(name)) for name in PRESETS),
    (["--stats", "fermion", "--particles", "3", "--levels", "12", "--lambda", "0.05",
      "--th-min", "4.5", "--th-max", "20", "--th-steps", "40"],
     lambda: evaluate_series("box", "fermion", 3, 12, 0.05, 2.0, th_range(4.5, 20.0, 40)))],
    ids=[*PRESETS, "grid"])
def test_cli_sweep_writes_the_per_cell_csv_of_the_library_rows(tmp_path, capsys, argv, rows):
    # the CLI writes from series, the library returns rows; the per-cell writer of
    # those rows is the reference for both
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *argv, "--output", str(out)]) == 0
    records = rows()
    assert capsys.readouterr().out == f"wrote {len(records)} rows to {out}\n"
    text = out.read_text(encoding="utf-8")
    assert text == _per_cell_csv(records)
    if argv == _figure_argv("fig67"):  # numpy flags of the particle recursion print True/False
        assert collections.Counter(line.rsplit(",", 1)[1] for line in text.splitlines()[1:]) \
            == {"True": 155, "False": 3, "true": 20}


def test_series_writer_formats_constant_cells_as_the_per_cell_writer(tmp_path, monkeypatch):
    # constant U1 and U4 of -0.0, nan, +-inf and numpy floats, a `%` in constant
    # cells of a one-row and of a two-row series (each joined copy of the template
    # stays escaped), an empty series between two others, and numpy-bool flags of the
    # capped recursion; a series is its CSV columns in CSV order, a list where the
    # column varies over the rows
    th, u2, u3, qh, qc, w, ws, ratio, flags = (
        [4.5, 5.0], [np.float64(1.0), -0.0], [0.25, math.inf], [-0.0, np.float64(0.1)],
        [0.5, math.nan], [1e-300, 2.0], [np.float64(-3.0), 0.0], [math.nan, 1.0],
        [np.True_, False])

    def columns(spectrum, statistics, N, u1, u4, rows):
        return (spectrum, statistics, 2, N, 1.0, 2.0, 1.0, th[rows], 0.05, u1, u2[rows],
                u3[rows], u4, qh[rows], qc[rows], w[rows], 0.75, ws[rows], ratio[rows],
                flags[rows])

    series = [columns("box", "boson", np.int64(3), u1, u4, slice(None))
              for u1, u4 in ((-0.0, 0.0), (math.nan, math.inf), (-math.inf, np.float64(-0.0)),
                             (np.float64(1.5), math.nan))]
    series.append(columns("50%s", "%%boson", 3, 1.0, 2.0, slice(1)))
    series.append(columns("%d%%", "100%", 3, -0.0, math.inf, slice(None)))
    series.append(columns("box", "boson", 3, 1.0, 2.0, slice(0)))
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", 1)
    series.append(experiments.sweep_series(SpectrumSpec("box", scale_c=0.05),
                                           EnsembleSpec("boson", 4, 6), 1.0, 2.0, 1.0,
                                           (4.5, 5.0, 12.0)))
    monkeypatch.undo()
    rows = experiments._records(series)
    assert len(rows) == 4 * 2 + 1 + 2 + 0 + 3
    assert {rec.positive_work.__class__ for rec in rows[-3:]} == {np.bool_}
    path = tmp_path / "series.csv"
    assert experiments.write_series(series, str(path)) == len(rows)
    text = path.read_text(encoding="utf-8")
    assert text == _per_cell_csv(rows) == records_to_csv(rows)
    lines = text.splitlines()
    assert lines[1] == "box,boson,2,3,1,2,1,4.5,0.050000000000000003,-0,1,0.25,0,-0,0.5,1e-300," \
                       "0.75,-3,nan,True"
    assert lines[9] == "50%s,%%boson,2,3,1,2,1,4.5,0.050000000000000003,1,1,0.25,2,-0,0.5," \
                       "1e-300,0.75,-3,nan,True"
    assert lines[10:12] == [
        "%d%%,100%,2,3,1,2,1,4.5,0.050000000000000003,-0,1,0.25,inf,-0,0.5,1e-300,0.75,-3,nan,True",
        "%d%%,100%,2,3,1,2,1,5,0.050000000000000003,-0,-0,inf,inf,0.10000000000000001,nan,2,"
        "0.75,0,1,false"]
    assert [line.rsplit(",", 1)[1] for line in lines[-3:]] == ["True"] * 3


def test_empty_th_list_gives_no_rows_and_still_checks_the_engine(tmp_path):
    spec, ens = SpectrumSpec("box"), EnsembleSpec("boson", 2, 3)
    assert make_series(spec, ens, 1.0, 2.0, 1.0, []) == []
    path = tmp_path / "empty.csv"
    assert experiments.write_series([experiments.sweep_series(spec, ens, 1.0, 2.0, 1.0, [])],
                                    str(path)) == 0
    assert path.read_text(encoding="utf-8") == records_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"
    for grid in ([], [5.0]):  # R = 1 is no engine, with or without a hot bath
        with pytest.raises(ValueError, match="compression ratio"):
            make_series(spec, ens, 1.0, 1.0, 1.0, grid)


def test_records_are_immutable_named_tuples():
    assert [{"lam": "lambda"}.get(f, f) for f in experiments.RatioRecord._fields] == \
        list(CSV_COLUMNS)
    rec = sweep("fig2")[0]
    res = run_cycle(CycleConfig(SpectrumSpec("box"), EnsembleSpec("boson", 2, 3), 1.0, 2.0, 1.0),
                    8.0)
    for record, name in ((rec, "W"), (res, "W"), (rec, "positive_work")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    assert rec._replace(Th=9.0).Th == 9.0 and rec.Th != 9.0
    assert tuple(res) == (res.U1, res.U2, res.U3, res.U4, res.Q_h, res.Q_c, res.W, res.eta,
                          res.positive_work)


def test_csv_output_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sweep("fig3"), str(p1))
    write_csv(sweep("fig3"), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv_failure_leaves_no_partial_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    target = blocker / "out.csv"
    with pytest.raises(OSError):
        write_csv(sweep("fig2"), str(target))
    assert list(tmp_path.iterdir()) == [blocker]


def _box_pairs(statistics, N, grid):
    return experiments.sweep_series(SpectrumSpec("box", scale_c=0.05),
                                    EnsembleSpec(statistics, 2, N), 1.0, 2.0, 1.0, grid)


def test_write_series_writes_the_bytes_of_records_to_csv(tmp_path):
    # streamed one chunk per series: no series, a zero-row series, several multi-row ones
    path = tmp_path / "out.csv"
    for series in ([], [_box_pairs("boson", 3, [])],
                   [_box_pairs("boson", 3, (4.5, 5.0)), _box_pairs("fermion", 4, []),
                    _box_pairs("fermion", 4, (4.5, 7.0, 12.0))], PRESETS["fig2"]()):
        rows = experiments._records(series)
        assert experiments.write_series(series, str(path)) == len(rows)
        assert path.read_bytes() == records_to_csv(rows).encode("utf-8")
    assert list(tmp_path.iterdir()) == [path]


def test_a_chunk_source_that_fails_partway_leaves_no_file(tmp_path):
    # the second series' U1 cell cannot be formatted, after the header and the first
    # series' rows went to the temp file; the target is neither created nor replaced
    good = _box_pairs("boson", 3, (4.5, 5.0))
    bad = (*good[:9], "not a float", *good[10:])
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_text("old\n")
    for path in (fresh, existing):
        with pytest.raises(TypeError):
            experiments.write_series([good, bad], str(path))
    assert list(tmp_path.iterdir()) == [existing]
    assert existing.read_text() == "old\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_write_csv_gives_the_mode_open_would(tmp_path, umask, mode):
    # mkstemp made every file 0o600 and os.replace kept it, also when the
    # file replaced an existing 0o644 one
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_text("old\n")
    existing.chmod(0o644)
    old = os.umask(umask)
    try:
        for path in (fresh, existing):
            write_csv(sweep("fig2"), str(path))
            assert path.stat().st_mode & 0o777 == mode
    finally:
        os.umask(old)


def test_sweep_is_deterministic():
    assert sweep("fig2") == sweep("fig2")


def test_presets_are_fixed_studies():
    # no preset takes a parameter; other grids go through make_series
    for builder in (*PRESETS.values(), experiments.fig67_columns):
        assert not inspect.signature(builder).parameters
    with pytest.raises(TypeError):
        sweep("fig2", steps=5)
    # every fig67 row carries the engine whose corners validate checks
    assert {((1 / r.Tc, r.R * r.L1), (1 / r.Th, r.L1)) for r in sweep("fig67")} == \
        {experiments.FIG67_CORNERS}


def test_series_rows_equal_per_point_records(monkeypatch):
    grid = (4.5, 5.0, 7.25, 12.0)
    # cap 1 sends both series to the recursion
    cases = [(manybody.DEFAULT_STATE_CAP, lambda: sweep("fig2")),
             (1, lambda: evaluate_series("box", "fermion", 3, 8, 1.0, 2.0, grid)
              + evaluate_series("box", "boson", 4, 6, 0.05, 2.0, grid))]
    for cap, series in cases:
        monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
        records = series()
        points = [evaluate_series(r.spectrum, r.statistics, r.M, r.N, r.lam, r.R,
                                  [r.Th])[0] for r in records]
        assert records == points
        assert records_to_csv(records) == records_to_csv(points)
    assert evaluate_series("box", "boson", 2, 3, 1.0, 2.0, np.array(grid)) == \
        evaluate_series("box", "boson", 2, 3, 1.0, 2.0, grid)
    assert evaluate_series("box", "boson", 2, 3, 1.0, 2.0, ()) == []


def test_fig45_builds_each_ensemble_once(monkeypatch):
    calls = []
    original = manybody._recursion_levels

    def counted(w, M, beta_effs, fermion):
        calls.append((w.size, w[0], M, fermion, beta_effs.size))
        return original(w, M, beta_effs, fermion)

    def built(*args):
        pytest.fail("a sweep counted states")

    monkeypatch.setattr(manybody, "_recursion_levels", counted)
    monkeypatch.setattr(kernels, "energy_histograms", built)
    records = sweep("fig45")
    # 2 regimes x 7 truncations x 2 statistics: one level pass per series over
    # the cold corner and all 200 Th, whose row 1 is the single-particle twin
    assert len(records) == 28 * 200
    assert len(calls) == 28
    assert len(set(calls)) == 28
    assert {(M, size) for *_, M, _, size in calls} == {(2, 201)}


def test_fig67_runs_no_oracle(monkeypatch):
    def oracle(*args):
        pytest.fail("a sweep ran the oracle")

    monkeypatch.setattr(manybody, "enumeration_rows", oracle)
    monkeypatch.setattr(manybody, "enumeration_log_z_and_u", oracle)
    monkeypatch.setattr(kernels, "energy_histograms", oracle)
    assert len(sweep("fig67")) == 178


def test_fig67_cross_check_catches_a_wrong_recursion_row(skew_fig67_row):
    # validate's check of fig67's own columns: log Z of 4 bosons on 150 levels, the
    # widest oracle count, at lambda = 1 and the hot corner
    assert validate.check_fig67_vs_enumeration().passed
    skew_fig67_row(("boson", 150, 1.0), 4, 0, 1)
    assert not validate.check_fig67_vs_enumeration().passed


def test_cross_check_gives_fermions_past_half_filling_their_own_table(monkeypatch,
                                                                       skew_fig67_row):
    # the 8 fermions on 10 levels, past half filling, come from the fermion column's
    # own oracle table, not the boson one, and a shift of their U fails the check
    tables = []
    original = validate.enumeration_rows

    def noted(ens, spec, beta_points):
        tables.append(ens)
        return original(ens, spec, beta_points)

    monkeypatch.setattr(validate, "enumeration_rows", noted)
    skew_fig67_row(("fermion", 10, 0.05), 8, 1, 0)
    assert not validate.check_fig67_vs_enumeration().passed
    assert EnsembleSpec("fermion", 8, 10) in tables


def _perfbench(module_name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{module_name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{module_name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _points_seed1():
    """The points workload at seed 1: one make_record per generated point."""
    return [make_record(SpectrumSpec(p["kind"], scale_c=p["lam"]),
                        EnsembleSpec(p["statistics"], p["M"], p["N"]),
                        1.0, p["R"], 1.0, p["Th"])
            for p in _perfbench("points").generate(1)]


@pytest.mark.parametrize("name", [
    *(name for name in PRESETS if _perfbench("check").reference_path(name).exists()),
    "points-seed1"])
def test_preset_matches_stored_reference(name):
    # the behaviour contract: every row within 1e-11 of the recorded output
    check = _perfbench("check")
    ref = check.read_reference(name)
    got = records_to_csv(_points_seed1() if name == "points-seed1" else sweep(name)).encode("utf-8")
    assert len(got.splitlines()) == len(ref.splitlines())
    assert check.failed_against_reference(got, ref) == 0


# ---------------------------------------------------------------------------
# qualitative sweep content


def test_fig2_boson_exceeds_classical_almost_everywhere():
    records = sweep("fig2")
    bosons = [r for r in records if r.statistics == "boson"]
    fermions = [r for r in records if r.statistics == "fermion"]
    assert all(math.isfinite(r.ratio) for r in records)
    assert sum(r.ratio > 2.0 for r in bosons) / len(bosons) >= 0.9
    assert all(r.ratio < 2.0 for r in fermions)
    # large R and large Th pull the fermion ratio toward 1
    last = {R: max((r for r in fermions if r.R == R), key=lambda r: r.Th)
            for R in (2.0, 4.0)}
    assert last[4.0].ratio < last[2.0].ratio
    assert last[4.0].ratio < 1.2


def test_fig3_low_temperature_content():
    records = sweep("fig3")
    boson3 = sorted((r for r in records if r.statistics == "boson" and r.N == 3),
                    key=lambda r: r.Th)
    boson4 = sorted((r for r in records if r.statistics == "boson" and r.N == 4),
                    key=lambda r: r.Th)
    fermion3 = sorted((r for r in records if r.statistics == "fermion" and r.N == 3),
                      key=lambda r: r.Th)
    assert 0.95 <= boson3[0].ratio <= 1.05
    assert fermion3[0].ratio <= 0.05
    assert max(abs(a.ratio - b.ratio) for a, b in zip(boson3, boson4)) <= 1e-6
    assert all(math.isfinite(r.ratio) and math.isfinite(r.W) for r in records)


def test_fig45_truncation_sensitivity():
    records = [r for r in sweep("fig45") if r.N in (3, 4, 100, 150)]
    hot = [r for r in records if r.lam == 0.05]
    assert min(r.ratio for r in hot if r.statistics == "boson" and r.N <= 4) > 2.0
    assert max(r.ratio for r in hot if r.statistics == "fermion" and r.N <= 4) < 2.0
    assert max(abs(r.ratio - 2.0) for r in hot if r.N == 150) <= 0.1
    inter = [r for r in records if r.lam == 1.0]
    n100 = sorted((r for r in inter if r.N == 100 and r.statistics == "boson"),
                  key=lambda r: r.Th)
    n150 = sorted((r for r in inter if r.N == 150 and r.statistics == "boson"),
                  key=lambda r: r.Th)
    assert max(abs(a.ratio - b.ratio) for a, b in zip(n100, n150)) <= 1e-6


def test_fig67_multiparticle_content():
    records = [r for r in sweep("fig67") if r.M <= 5 and r.N in (4, 10, 25)]
    assert all(r.M <= r.N for r in records if r.statistics == "fermion")
    per_particle = {}
    for r in records:
        per_particle.setdefault((r.lam, r.statistics, r.N), []).append(
            (r.M, r.ratio / r.M))
    # intermediate regime: every per-particle ratio below the classical value
    for (lam, _, _), rows in per_particle.items():
        if lam == 1.0:
            assert all(v < 1.0 for _, v in rows)
    # high-temperature regime, truncations below the classical crossover:
    # bosons beat the single-particle engine and gain with M, fermions lose
    for N in (4, 10):
        bos = sorted(per_particle[(0.05, "boson", N)])
        fer = sorted(per_particle[(0.05, "fermion", N)])
        assert all(v > 1.0 for _, v in bos)
        assert all(b > a for (_, a), (_, b) in zip(bos, bos[1:]))
        assert all(v < 1.0 for _, v in fer)
        assert all(b < a for (_, a), (_, b) in zip(fer, fer[1:]))


def test_multiparticle_crossover_in_truncation():
    # the same high-temperature point drifts from bosons-favored to
    # fermions-favored as the truncation grows past the classical crossover
    hot = SpectrumSpec("box", scale_c=0.05)
    rb_small = work_ratio_multiparticle(hot, 6, "boson", 3, 1.0, 2.0, 1.0, 5.0)
    rf_small = work_ratio_multiparticle(hot, 6, "fermion", 3, 1.0, 2.0, 1.0, 5.0)
    rb_large = work_ratio_multiparticle(hot, 25, "boson", 3, 1.0, 2.0, 1.0, 5.0)
    rf_large = work_ratio_multiparticle(hot, 25, "fermion", 3, 1.0, 2.0, 1.0, 5.0)
    assert rb_small > 1.0 > rf_small
    assert rb_large < 1.0 < rf_large


def test_fig67_makes_one_recursion_call_for_every_column(monkeypatch):
    calls = []
    original = experiments.recursion_columns

    def counted(columns, beta_points):
        calls.append((columns, beta_points))
        return original(columns, beta_points)

    configs = []
    monkeypatch.setattr(experiments, "recursion_columns", counted)
    monkeypatch.setattr(experiments, "CycleConfig",
                        lambda *args: configs.append(CycleConfig(*args)) or configs[-1])
    sweep("fig67")
    # one call: 2 regimes x 7 truncations x 2 statistics in row order, each at its
    # largest M, at both corners; and one cycle config per column, at its largest M
    [(columns, beta_points)] = calls
    assert columns == [(EnsembleSpec(statistics, max(ms), N), spec)
                       for spec, statistics, N, ms in experiments.fig67_columns()]
    assert len(columns) == 28
    assert beta_points == experiments.FIG67_CORNERS
    assert [cfg.ens.M for cfg in configs] == [8, 3, 8, 4, *[8, 8] * 5] * 2
