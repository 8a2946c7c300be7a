"""Sweeps, CSV serialization, and the untruncated harmonic validators."""

import decimal
import importlib.util
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qotto import experiments, manybody
from qotto import (CycleConfig, EnsembleSpec, SpectrumSpec,
                   enumeration_log_z_and_u, harmonic_closed_form_W,
                   harmonic_closed_form_Z, make_record, recursion_rows, records_to_csv, run_cycle, sweep_fig2, sweep_fig3,
                   sweep_fig45, sweep_fig67, work_ratio_multiparticle,
                   write_csv)
from qotto.experiments import CSV_COLUMNS, evaluate_series, th_range


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
        for (T, L), rows in zip(points, recursion_rows(ens, spec,
                                                       [(1.0 / T, L) for T, L in points])):
            assert math.exp(rows[-1].log_Z) == pytest.approx(
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
    records = sweep_fig2(steps=25)
    assert len(records) == 3 * 2 * 25
    for rec in records:
        assert rec.W == rec.Qh - rec.Qc
        assert rec.eta == 1.0 - rec.R**-2
        if rec.positive_work and not math.isnan(rec.ratio):
            assert abs(rec.ratio * rec.Ws - rec.W) <= 1e-10


def test_csv_header_and_roundtrip():
    records = sweep_fig2(steps=5)
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
    for records in (sweep_fig2(steps=10), sweep_fig67(), recursion, hand):
        assert records_to_csv(records) == _per_cell_csv(records)
    assert records_to_csv(hand).splitlines()[1] == (
        "harmonic,fermion,3,7,1,2.5,1e-300,5,0.050000000000000003,-0,0,"
        "inf,-inf,2,0.10000000000000001,1e+17,123456789,-3,nan,true")
    assert [rec.split(",")[-1] for rec in records_to_csv(hand).splitlines()[1:]] == \
        ["true", "false", "True", "False"]


def test_records_are_immutable_named_tuples():
    assert [{"lam": "lambda"}.get(f, f) for f in experiments.RatioRecord._fields] == \
        list(CSV_COLUMNS)
    rec = sweep_fig2(steps=2)[0]
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
    write_csv(sweep_fig3(steps=10), str(p1))
    write_csv(sweep_fig3(steps=10), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_write_csv_failure_leaves_no_partial_file(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    target = blocker / "out.csv"
    with pytest.raises(OSError):
        write_csv(sweep_fig2(steps=2), str(target))
    assert list(tmp_path.iterdir()) == [blocker]


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
            write_csv(sweep_fig2(steps=2), str(path))
            assert path.stat().st_mode & 0o777 == mode
    finally:
        os.umask(old)


def test_sweep_is_deterministic():
    assert sweep_fig2(steps=10) == sweep_fig2(steps=10)


def test_series_rows_equal_per_point_records(monkeypatch):
    grid = (4.5, 5.0, 7.25, 12.0)
    # cap 1 sends both series to the recursion
    cases = [(manybody.DEFAULT_STATE_CAP, lambda: sweep_fig2(steps=10)),
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

    def built(ens, spec):
        pytest.fail("a sweep built a state table")

    monkeypatch.setattr(manybody, "_recursion_levels", counted)
    monkeypatch.setattr(manybody, "state_energy_coefficients", built)
    records = sweep_fig45(steps=5)
    # 2 regimes x 7 truncations x 2 statistics, each with its single-particle
    # twin: one level pass per ensemble, over the cold corner and all 5 Th
    assert len(records) == 28 * 5
    assert len(calls) == 56
    assert len(set(calls)) == 56
    assert {size for *_, size in calls} == {6}


def test_cross_check_builds_one_table_per_ensemble_and_compares_both_values(monkeypatch):
    ens = EnsembleSpec("fermion", 3, 8)
    corners = ((1.0 / 5.0, 1.0), (1.0, 2.0))
    held = [(spec, corner, rows[-1])
            for spec in (SpectrumSpec("box", scale_c=0.05), SpectrumSpec("box", scale_c=1.0))
            for corner, rows in zip(corners, recursion_rows(ens, spec, corners))]
    built = []
    original = manybody.state_energy_coefficients

    def counted(ens, spec):
        built.append(ens)
        return original(ens, spec)

    monkeypatch.setattr(manybody, "state_energy_coefficients", counted)
    experiments._cross_check(ens, held)
    # one table serves both lambda and both corners
    assert built == [EnsembleSpec("fermion", 3, 8)]

    # twice each 1e-8 tolerance: absolute in log Z, relative in U (U > 0.5
    # here, so 2e-8 of U is above the absolute floor), at either lambda
    for i, (spec, corner, a) in enumerate(held):
        for field, shift in (("log_Z", lambda v: v + 2e-8), ("U", lambda v: v * (1.0 + 2e-8))):
            shifted = (spec, corner, replace(a, **{field: shift(getattr(a, field))}))
            with pytest.raises(AssertionError, match="mismatch"):
                experiments._cross_check(ens, held[:i] + [shifted] + held[i + 1:])


def test_fig67_cross_check_catches_a_wrong_recursion_row(monkeypatch):
    original = experiments.recursion_rows

    def skewed(ens, spec, beta_points):
        passes = original(ens, spec, beta_points)
        for rows in passes:
            rows[-1] = replace(rows[-1], U=rows[-1].U * (1.0 + 2e-8))
        return passes

    monkeypatch.setattr(experiments, "recursion_rows", skewed)
    with pytest.raises(AssertionError, match="mismatch"):
        sweep_fig67(m_values=(2, 3), n_values=(4, 10))


def test_fig67_cross_checks_every_ensemble_under_the_cap(monkeypatch):
    built = []
    original = manybody.state_energy_coefficients

    def counted(ens, spec):
        built.append(ens)
        return original(ens, spec)

    monkeypatch.setattr(manybody, "state_energy_coefficients", counted)
    sweep_fig67()
    # one table per checked ensemble, shared by both lambda and both corners
    assert len(built) == len(set(built)) == 52


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


@pytest.mark.parametrize("name, sweep", [("fig45", sweep_fig45),
                                         ("fig67", sweep_fig67),
                                         ("points-seed1", _points_seed1)])
def test_preset_matches_stored_reference(name, sweep):
    # the behaviour contract: every row within 1e-11 of the recorded output
    check = _perfbench("check")
    ref = check.read_reference(name)
    got = records_to_csv(sweep()).encode("utf-8")
    assert len(got.splitlines()) == len(ref.splitlines())
    assert check.failed_against_reference(got, ref) == 0


# ---------------------------------------------------------------------------
# qualitative sweep content


def test_fig2_boson_exceeds_classical_almost_everywhere():
    records = sweep_fig2(steps=50)
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
    records = sweep_fig3(steps=40)
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
    records = sweep_fig45(steps=10, n_values=(3, 4, 100, 150))
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
    records = sweep_fig67(m_values=(2, 3, 4, 5), n_values=(4, 10, 25))
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


def test_fig67_makes_one_recursion_call_per_column(monkeypatch):
    calls = []
    original = experiments.recursion_rows

    def counted(ens, spec, beta_points):
        calls.append(len(beta_points))
        return original(ens, spec, beta_points)

    monkeypatch.setattr(experiments, "recursion_rows", counted)
    sweep_fig67()
    # 2 regimes x 7 truncations x 2 statistics, both corners in each call
    assert calls == [2] * 28
