"""Cycle thermodynamics: heats, work, efficiency, thresholds, ratios."""

import itertools
import math

import numpy as np
import pytest

from qotto import (CycleConfig, EnsembleSpec, KINDS, SpectrumSpec,
                   adiabatic_energy_ratio, enumeration_log_z_and_u,
                   positive_work_threshold, run_cycle, work_ratio_multiparticle,
                   work_ratio_two_particle)
from qotto import manybody
from qotto.manybody import internal_energies
from qotto.thermo import CycleResult, cycles_from_corners

BOX = SpectrumSpec("box")
HARM = SpectrumSpec("harmonic")


def cfg(spec=BOX, statistics="boson", M=1, N=2, L1=1.0, R=2.0, Tc=1.0):
    return CycleConfig(spec=spec, ens=EnsembleSpec(statistics, M, N),
                       L1=L1, R=R, T_c=Tc)


def test_single_level_extracts_no_work():
    res = run_cycle(cfg(N=1), 17.0)
    assert res.Q_h == 0.0
    assert res.W == 0.0
    assert not res.positive_work


def test_threshold_temperature_gives_zero_work():
    for kind in KINDS:
        spec = SpectrumSpec(kind)
        for statistics, M in (("boson", 2), ("fermion", 2), ("distinguishable", 3)):
            res = run_cycle(cfg(spec=spec, statistics=statistics, M=M, N=4),
                            2.0**spec.power_p)
            assert abs(res.W) <= 1e-10


def test_two_level_single_particle_cycle_oracle():
    # independent two-term sums at each corner
    b_h = 1.0 / 8.0
    u2 = (math.exp(-b_h) + 4 * math.exp(-4 * b_h)) / (math.exp(-b_h) + math.exp(-4 * b_h))
    e_l2 = (0.25, 1.0)
    u4 = (0.25 * math.exp(-0.25) + 1.0 * math.exp(-1.0)) / (math.exp(-0.25) + math.exp(-1.0))
    qh = u2 - 4 * u4
    qc = u2 / 4 - u4
    res = run_cycle(cfg(), 8.0)
    assert res.U2 == pytest.approx(u2, rel=1e-14)
    assert res.U4 == pytest.approx(u4, rel=1e-14)
    assert res.Q_h == pytest.approx(qh, rel=1e-13)
    assert res.Q_c == pytest.approx(qc, rel=1e-13)
    assert res.W == pytest.approx(qh - qc, rel=1e-13)
    # the four-decimal values quoted alongside the scenario
    assert (round(res.U2, 4), round(res.U4, 4)) == (2.2220, 0.4906)
    assert (round(res.Q_h, 4), round(res.Q_c, 4)) == (0.2595, 0.0649)
    assert round(res.W, 4) == 0.1947
    assert res.eta == 0.75


def test_first_law_holds_exactly_as_computed():
    for kind in KINDS:
        for statistics in ("boson", "fermion", "distinguishable"):
            for M in (1, 2, 3):
                res = run_cycle(cfg(spec=SpectrumSpec(kind), statistics=statistics,
                                    M=M, N=5), 9.0)
                assert res.W == res.Q_h - res.Q_c


def test_efficiency_is_pure_geometry():
    for kind in KINDS:
        spec = SpectrumSpec(kind)
        expected = 1.0 - adiabatic_energy_ratio(spec, 1.0, 3.0)
        etas = {run_cycle(cfg(spec=spec, statistics=s, M=M, N=5, R=3.0), 30.0).eta
                for s in ("boson", "fermion", "distinguishable") for M in (1, 2, 3)}
        assert etas == {expected}


def test_work_over_heat_input_equals_geometric_efficiency():
    for kind in KINDS:
        spec = SpectrumSpec(kind)
        p = spec.power_p
        for statistics in ("boson", "fermion", "distinguishable"):
            res = run_cycle(cfg(spec=spec, statistics=statistics, M=2, N=4),
                            3.0 * 2.0**p)
            assert res.Q_h > 1e-12
            assert res.W / res.Q_h == pytest.approx(1.0 - 2.0**-p, abs=1e-10)


def test_work_sign_flips_exactly_at_threshold():
    for kind in KINDS:
        spec = SpectrumSpec(kind)
        for statistics in ("boson", "fermion", "distinguishable"):
            for M in (1, 2, 3):
                threshold = 2.0**spec.power_p
                for factor, positive in ((0.9, False), (0.999, False),
                                         (1.001, True), (1.1, True)):
                    res = run_cycle(cfg(spec=spec, statistics=statistics, M=M,
                                        N=6), factor * threshold)
                    assert res.positive_work == positive
                    assert (res.W > 0) == positive


def test_positive_work_threshold_values():
    assert positive_work_threshold(cfg(spec=BOX)) == 4.0
    assert positive_work_threshold(cfg(spec=SpectrumSpec("relativistic-box"))) == 2.0
    quartic = CycleConfig(spec=SpectrumSpec("quartic"),
                          ens=EnsembleSpec("boson", 1, 3),
                          L1=1.0, R=8.0, T_c=1.0)
    assert positive_work_threshold(quartic) == pytest.approx(16.0, rel=1e-14)


def test_quartic_threshold_agrees_with_sign_scan():
    spec = SpectrumSpec("quartic")
    threshold = 8.0**spec.power_p
    base = CycleConfig(spec=spec, ens=EnsembleSpec("boson", 1, 3),
                       L1=1.0, R=8.0, T_c=1.0)
    grid = np.linspace(0.8 * threshold, 1.2 * threshold, 81)
    signs = [run_cycle(base, t).W > 0 for t in grid]
    flips = [i for i in range(1, len(signs)) if signs[i] != signs[i - 1]]
    assert len(flips) == 1
    assert grid[flips[0] - 1] < threshold < grid[flips[0]]


def test_distinguishable_work_is_additive():
    for kind in KINDS:
        spec = SpectrumSpec(kind)
        single = run_cycle(cfg(spec=spec, statistics="distinguishable", M=1,
                               N=5), 12.0).W
        for M in (2, 3, 4):
            # the enumerated N^M table at both corners, not the factorization
            c = cfg(spec=spec, statistics="distinguishable", M=M, N=5)
            U4, U2 = enumeration_log_z_and_u(c.ens, spec, [(1.0 / T, L) for T, L in
                                                           ((c.T_c, c.L2), (12.0, c.L1))])[1]
            w = cycles_from_corners(c, U4, [U2])[0].W
            assert w == pytest.approx(M * single, rel=1e-12)


def test_adiabatic_stroke_freezes_occupations():
    # recompute U3 from hot occupations against cold-width energies, with
    # Gibbs weights summed directly over itertools configurations
    combos = {"boson": itertools.combinations_with_replacement,
              "fermion": itertools.combinations,
              "distinguishable": lambda g, M: itertools.product(g, repeat=M)}
    for statistics in ("boson", "fermion", "distinguishable"):
        c, Th = cfg(statistics=statistics, M=2, N=4), 9.0
        res = run_cycle(c, Th)
        g = [c.spec.scale_c * c.spec.level_shape(c.spec.n_min + i) for i in range(c.ens.N)]
        coeffs = [sum(s) for s in combos[statistics](g, c.ens.M)]
        beta_eff = 1.0 / (Th * c.L1**c.spec.power_p)
        weights = [math.exp(-beta_eff * (w - min(coeffs))) for w in coeffs]
        probabilities = [x / sum(weights) for x in weights]
        u3_direct = sum(p * w for p, w in zip(probabilities, coeffs)) / c.L2**c.spec.power_p
        assert u3_direct == pytest.approx(res.U3, rel=1e-12)


def test_two_particle_ratio_harmonic_statistics_blind():
    rb = work_ratio_two_particle(HARM, 200, "boson", 1.0, 2.0, 1.0, 5.0)
    rf = work_ratio_two_particle(HARM, 200, "fermion", 1.0, 2.0, 1.0, 5.0)
    assert rb == pytest.approx(rf, abs=1e-8)


def test_two_particle_ratio_box_intermediate_regime():
    rb = work_ratio_two_particle(BOX, 3, "boson", 1.0, 2.0, 1.0, 8.0)
    rf = work_ratio_two_particle(BOX, 3, "fermion", 1.0, 2.0, 1.0, 8.0)
    assert rb > 2.0
    assert rf < 2.0


def test_two_particle_ratio_low_temperature_regime():
    cold = SpectrumSpec("box", scale_c=20.0)
    rb = work_ratio_two_particle(cold, 3, "boson", 1.0, 2.0, 1.0, 4.2)
    rf = work_ratio_two_particle(cold, 3, "fermion", 1.0, 2.0, 1.0, 4.2)
    assert 0.95 <= rb <= 1.05
    assert 0.0 <= rf <= 0.05


def test_two_particle_ratio_rejects_distinguishable():
    with pytest.raises(ValueError):
        work_ratio_two_particle(BOX, 3, "distinguishable", 1.0, 2.0, 1.0, 8.0)


def test_ratio_is_nan_at_threshold():
    assert math.isnan(work_ratio_two_particle(BOX, 3, "boson", 1.0, 2.0, 1.0, 4.0))


def test_multiparticle_ratio_is_one_for_single_particle():
    for statistics in ("boson", "fermion", "distinguishable"):
        assert work_ratio_multiparticle(BOX, 4, statistics, 1,
                                        1.0, 2.0, 1.0, 8.0) == 1.0


def test_ratios_are_python_floats_on_every_route(monkeypatch):
    # the recursion used to hand back numpy.float64, enumeration float;
    # cap 1 sends these ensembles to the recursion
    for cap in (manybody.DEFAULT_STATE_CAP, 1):
        monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
        for statistics in ("boson", "fermion"):
            r = work_ratio_multiparticle(BOX, 8, statistics, 3, 1.0, 2.0, 1.0, 5.0)
            assert type(r) is float
            assert type(work_ratio_two_particle(BOX, 8, statistics, 1.0, 2.0,
                                                1.0, 5.0)) is float


def test_multiparticle_full_shell_fermions():
    # W_M equals the single-particle work, so the per-particle ratio is 1/M
    for M in (2, 3, 4):
        r = work_ratio_multiparticle(HARM, M + 1, "fermion", M,
                                     1.0, 2.0, 1.0, 7.0)
        assert r * M == pytest.approx(1.0, abs=1e-10)


def test_multiparticle_low_temperature_limits():
    cold = SpectrumSpec("box", scale_c=20.0)
    for M in (2, 3):
        rb = work_ratio_multiparticle(cold, 5, "boson", M, 1.0, 2.0, 1.0, 4.2)
        rf = work_ratio_multiparticle(cold, 5, "fermion", M, 1.0, 2.0, 1.0, 4.2)
        assert rb * M == pytest.approx(1.0, abs=0.05)
        assert 0.0 <= rf * M <= 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(R=1.0)
    with pytest.raises(ValueError):
        cfg(L1=0.0)
    with pytest.raises(ValueError):
        cfg(Tc=-1.0)
    with pytest.raises(ValueError):
        run_cycle(cfg(), 0.0)
    with pytest.raises(ValueError):
        run_cycle(cfg(), math.inf)
    for bad in (dict(Tc=1e-320), dict(Tc=math.nan), dict(L1=math.inf),
                dict(R=math.inf)):
        with pytest.raises(ValueError):
            cfg(**bad)


def test_cycle_series_equals_single_cycles(monkeypatch):
    # cap 1 sends the fermions to the recursion
    for statistics, M, N, cap in (("boson", 2, 5, manybody.DEFAULT_STATE_CAP),
                                  ("fermion", 3, 6, 1),
                                  ("distinguishable", 2, 4, manybody.DEFAULT_STATE_CAP)):
        monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
        base = cfg(statistics=statistics, M=M, N=N)
        grid = [4.5, 6.0, 11.0]
        U4, *U2s = internal_energies(base.ens, base.spec,
                                     [(base.T_c, base.L2)] + [(Th, base.L1) for Th in grid])
        assert cycles_from_corners(base, U4, U2s) == [run_cycle(base, Th) for Th in grid]


def test_regime_lambda():
    spec = SpectrumSpec("box", scale_c=20.0)
    assert cfg(spec=spec, Tc=2.0, L1=1.0).regime_lambda == 10.0


def _scalar_loop(cfg, U4, U2s):
    """The per-row cycle assembly that ``cycle_columns`` replaced: the reference."""
    shrink = adiabatic_energy_ratio(cfg.spec, cfg.L1, cfg.L2)
    grow = adiabatic_energy_ratio(cfg.spec, cfg.L2, cfg.L1)
    U1, eta = U4 * grow, 1.0 - shrink
    results = []
    for U2 in U2s:
        U3 = U2 * shrink
        Q_h = U2 - U1
        Q_c = U3 - U4
        W = Q_h - Q_c
        results.append(CycleResult(U1, U2, U3, U4, Q_h, Q_c, W, eta, W > 0))
    return results


def test_cycles_from_corners_equal_the_scalar_loop_value_and_type():
    # Python floats from the level path, numpy floats from the particle recursion
    # (whose flags are numpy bools), mixed, signed zeros and non-finite corners
    corners = [(0.49, [2.2, 0.5, 1.96, 3.0]),
               (np.float64(0.49), [np.float64(2.2), np.float64(0.1), np.float64(1.96)]),
               (0.49, [np.float64(2.2), 0.1]), (np.float64(-0.0), [0.0, -0.0, 5e-324]),
               (math.inf, [math.inf, 1.0]), (math.nan, [1.0, math.nan]),
               (np.float64(math.inf), [np.float64(math.nan), np.float64(-math.inf)]), (1.0, [])]
    for kind, R in itertools.product(KINDS, (2.0, 3.5)):
        c = cfg(spec=SpectrumSpec(kind), R=R)
        for U4, U2s in corners:
            with np.errstate(invalid="ignore"):  # inf - inf in numpy floats
                got, want = cycles_from_corners(c, U4, U2s), _scalar_loop(c, U4, U2s)
            assert [[type(v) for v in row] for row in got] == \
                [[type(v) for v in row] for row in want]
            assert repr(got) == repr(want)  # nan, -0.0 and every digit
