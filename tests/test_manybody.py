"""Ensemble construction and the two partition-function backends.

Expected values are recomputed inline by direct itertools/math sums so the
checks stay independent of the package's kernels and recursion.
"""

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qotto import (KINDS, EmptyStateSpaceError, EnsembleSpec, SpectrumSpec,
                   enumeration_log_z_and_u, level_coefficients, recursion_rows,
                   state_energy_coefficients)
from qotto import kernels, manybody
from qotto.manybody import internal_energies

BOX = SpectrumSpec("box")
HARM = SpectrumSpec("harmonic")


def brute_coeffs(statistics, M, N, spec):
    g = [spec.scale_c * spec.level_shape(spec.n_min + i) for i in range(N)]
    if statistics == "boson":
        combos = itertools.combinations_with_replacement(g, M)
    elif statistics == "fermion":
        combos = itertools.combinations(g, M)
    else:
        combos = itertools.product(g, repeat=M)
    return sorted(sum(c) for c in combos)


def brute_log_z_u(coeffs, beta, L, p):
    energies = [w / L**p for w in coeffs]
    e0 = min(energies)
    terms = [math.exp(-beta * (e - e0)) for e in energies]
    s = sum(terms)
    log_z = -beta * e0 + math.log(s)
    u = sum(e * t for e, t in zip(energies, terms)) / s
    return log_z, u


def test_boson_pair_coefficients_two_five_eight_ten_thirteen_eighteen():
    coeffs = state_energy_coefficients(EnsembleSpec("boson", 2, 3), BOX)
    assert sorted(coeffs.tolist()) == [2, 5, 8, 10, 13, 18]


def test_fermion_pair_coefficients_five_ten_thirteen():
    coeffs = state_energy_coefficients(EnsembleSpec("fermion", 2, 3), BOX)
    assert sorted(coeffs.tolist()) == [5, 10, 13]


def test_two_fermions_on_two_levels_single_state():
    coeffs = state_energy_coefficients(EnsembleSpec("fermion", 2, 2), BOX)
    assert coeffs.tolist() == [5]


def test_harmonic_occupation_indices_start_at_zero():
    # g(n) = n from n = 0: the pairs (0,1), (0,2), (1,2)
    coeffs = state_energy_coefficients(EnsembleSpec("fermion", 2, 3), HARM)
    assert sorted(coeffs.tolist()) == [1, 2, 3]


@given(statistics=st.sampled_from(["boson", "fermion", "distinguishable"]),
       M=st.integers(1, 4), N=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_state_counts(statistics, M, N):
    if statistics == "fermion" and M > N:
        with pytest.raises(EmptyStateSpaceError):
            EnsembleSpec(statistics, M, N)
        return
    ens = EnsembleSpec(statistics, M, N)
    expected = {"boson": math.comb(N + M - 1, M),
                "fermion": math.comb(N, M),
                "distinguishable": N**M}[statistics]
    assert ens.state_count == expected
    assert state_energy_coefficients(ens, BOX).shape == (expected,)


def test_enumeration_counts_states_at_beta_zero():
    (log_z,), _ = enumeration_log_z_and_u(EnsembleSpec("boson", 2, 3), BOX, [(0.0, 1.0)])
    assert log_z == pytest.approx(math.log(6), rel=1e-15)


def test_single_fermion_pair_state_pins_energy():
    points = [(beta, 1.0) for beta in (0.0, 0.7, 50.0)]
    assert enumeration_log_z_and_u(EnsembleSpec("fermion", 2, 2), BOX, points)[1] == [5.0] * 3


def test_boson_pair_three_term_oracle():
    # Z = e^-2 + e^-5 + e^-8, U = (2 e^-2 + 5 e^-5 + 8 e^-8)/Z
    z = math.exp(-2) + math.exp(-5) + math.exp(-8)
    u = (2 * math.exp(-2) + 5 * math.exp(-5) + 8 * math.exp(-8)) / z
    assert z == pytest.approx(0.1424086928636007, rel=1e-15)
    assert u == pytest.approx(2.1560762641502516, rel=1e-15)
    (log_z,), (U,) = enumeration_log_z_and_u(EnsembleSpec("boson", 2, 2), BOX, [(1.0, 1.0)])
    assert log_z == pytest.approx(math.log(z), rel=1e-14)
    assert U == pytest.approx(u, rel=1e-14)


def test_enumeration_invalid_arguments():
    ens = EnsembleSpec("boson", 2, 3)
    with pytest.raises(ValueError):
        enumeration_log_z_and_u(ens, BOX, [(-0.5, 1.0)])
    with pytest.raises(ValueError):
        enumeration_log_z_and_u(ens, BOX, [(1.0, 0.0)])


def test_recursion_base_case_is_z1():
    ens = EnsembleSpec("boson", 1, 5)
    points = [(beta, 1.3) for beta in (0.0, 0.4, 3.0)]
    for (a,), log_z, u in zip(recursion_rows(ens, BOX, points),
                              *enumeration_log_z_and_u(ens, BOX, points)):
        assert a.log_Z == pytest.approx(log_z, rel=1e-14)
        assert a.U == pytest.approx(u, rel=1e-14)
        assert a.method == "recursion"


def test_recursion_two_particle_unrolling():
    # Z_2 = (Z_1(beta)^2 +- Z_1(2 beta)) / 2 via direct single-particle sums
    beta, L, N = 0.37, 1.2, 5
    e1 = [n * n / L**2 for n in range(1, N + 1)]
    z1 = sum(math.exp(-beta * e) for e in e1)
    z1_2b = sum(math.exp(-2 * beta * e) for e in e1)
    for statistics, sign in (("boson", 1.0), ("fermion", -1.0)):
        expected = (z1 * z1 + sign * z1_2b) / 2.0
        res = recursion_rows(EnsembleSpec(statistics, 2, N), BOX, [(beta, L)])[0][-1]
        assert res.log_Z == pytest.approx(math.log(expected), rel=1e-13)


def test_recursion_fermion_pair_matches_enumeration():
    ens = EnsembleSpec("fermion", 2, 3)
    a = recursion_rows(ens, BOX, [(0.1, 1.0)])[0][-1]
    (log_z,), (u,) = enumeration_log_z_and_u(ens, BOX, [(0.1, 1.0)])
    assert abs(a.log_Z - log_z) <= 1e-12
    assert abs(a.U - u) <= 1e-12 * max(1.0, abs(u))


def test_ensemble_spec_rejects_invalid_arguments():
    for args in (("anyon", 2, 3), ("boson", 0, 3), ("boson", 2, 0),
                 # a bool ran as M=1 and printed M as True; a float reached
                 # math.comb and raised TypeError
                 ("boson", True, 3), ("boson", 2, False), ("boson", 2.0, 3),
                 ("fermion", 2, 3.0), ("boson", 2.5, 3), ("boson", "2", 3)):
        with pytest.raises(ValueError):
            EnsembleSpec(*args)
    ens = EnsembleSpec("boson", np.int64(2), np.int32(3))
    assert ens.state_count == 6


def test_recursion_rejects_distinguishable():
    with pytest.raises(ValueError):
        recursion_rows(EnsembleSpec("distinguishable", 2, 3), BOX, [(1.0, 1.0)])


def test_recursion_survives_catastrophic_fermion_cancellation():
    # beta=10 box fermions: surviving Z is ~e^260 below the largest recursion
    # term, far beyond float64; must still match enumeration
    ens = EnsembleSpec("fermion", 4, 8)
    a = recursion_rows(ens, BOX, [(10.0, 1.0)])[0][-1]
    (log_z,), (u,) = enumeration_log_z_and_u(ens, BOX, [(10.0, 1.0)])
    assert abs(a.log_Z - log_z) <= 1e-10
    assert abs(a.U - u) <= 1e-9 * max(1.0, abs(u))


def test_recursion_rows_equal_one_pass_per_particle_number():
    # row k of one pass to M is, bit for bit, the pass that stops at k, on the
    # float path and where the level recursion takes over alike
    mixed = set()
    for statistics, spec, N in itertools.product(("boson", "fermion"), (BOX, HARM),
                                                 (3, 8, 25, 150)):
        M = min(N, 8)
        points = [(beta, 1.3) for beta in (0.0, 1e-3, 0.2, 1.0, 10.0, 1e3, 1e8)]
        passes = recursion_rows(EnsembleSpec(statistics, M, N), spec, points)
        assert len(passes) == len(points)
        for k in range(1, M + 1):
            for rows, alone in zip(passes, recursion_rows(EnsembleSpec(statistics, k, N),
                                                          spec, points)):
                assert len(rows) == M
                row, alone = rows[k - 1], alone[-1]
                assert (row.log_Z, row.U, row.method) == (alone.log_Z, alone.U, alone.method)
                assert type(row.U) is type(alone.U)
        mixed.update(tuple(row.method for row in rows) for rows in passes)
    # fermions box N=8 at beta=1: rows 1-3 stay on the float path, 4-8 hand over
    assert ("recursion",) * 3 + ("levels",) * 5 in mixed
    with pytest.raises(ValueError):
        recursion_rows(EnsembleSpec("distinguishable", 2, 3), BOX, [(1.0, 1.0)])


def test_method_names_the_hand_over_to_the_level_recursion():
    [rows] = recursion_rows(EnsembleSpec("fermion", 3, 8), BOX, [(1e4, 1.0)])
    assert rows[-1].method == "levels"
    [rows] = recursion_rows(EnsembleSpec("boson", 1, 8), BOX, [(1.0, 1.0)])
    assert rows[-1].method == "recursion"


@given(statistics=st.sampled_from(["boson", "fermion"]),
       M=st.integers(1, 3), N=st.integers(1, 6),
       beta=st.floats(0.0, 5.0), kind=st.sampled_from(["box", "harmonic"]))
@settings(max_examples=60, deadline=None)
def test_backends_agree_property(statistics, M, N, beta, kind):
    if statistics == "fermion" and M > N:
        return
    ens = EnsembleSpec(statistics, M, N)
    spec = SpectrumSpec(kind)
    a = recursion_rows(ens, spec, [(beta, 1.0)])[0][-1]
    (log_z,), (u,) = enumeration_log_z_and_u(ens, spec, [(beta, 1.0)])
    assert abs(a.log_Z - log_z) <= 1e-10
    assert abs(a.U - u) <= 1e-9 * max(1.0, abs(u))


def test_fermion_partition_never_exceeds_boson():
    for N in (2, 4, 6):
        for M in (2, min(3, N)):
            points = [(beta, 1.0) for beta in (0.0, 0.2, 2.0)]
            zb = enumeration_log_z_and_u(EnsembleSpec("boson", M, N), BOX, points)[0]
            zf = enumeration_log_z_and_u(EnsembleSpec("fermion", M, N), BOX, points)[0]
            assert all(f <= b for f, b in zip(zf, zb))


def test_internal_energy_monotone_in_temperature():
    for ens, spec in ((EnsembleSpec("boson", 2, 4), BOX),
                      (EnsembleSpec("fermion", 3, 5), HARM),
                      (EnsembleSpec("distinguishable", 2, 3), BOX)):
        temps = np.linspace(0.05, 12.0, 25)
        us = [internal_energies(ens, spec, [(t, 1.0)])[0] for t in temps]
        assert all(b >= a - 1e-12 for a, b in zip(us, us[1:]))


def test_internal_energy_bounded_by_spectrum():
    ens = EnsembleSpec("boson", 3, 4)
    ws = state_energy_coefficients(ens, BOX)
    for T in (0.1, 1.0, 100.0):
        u = internal_energies(ens, BOX, [(T, 1.0)])[0]
        assert ws.min() - 1e-12 <= u <= ws.max() + 1e-12


def test_single_level_internal_energy():
    for T in (0.2, 5.0):
        assert internal_energies(EnsembleSpec("boson", 1, 1), BOX, [(T, 1.0)])[0] == 1.0


def test_two_level_internal_energy_oracle():
    # U = (e^{-1/8} + 4 e^{-1/2}) / (e^{-1/8} + e^{-1/2}) ~ 2.2220
    expected = (math.exp(-0.125) + 4 * math.exp(-0.5)) / (math.exp(-0.125) + math.exp(-0.5))
    assert round(expected, 4) == 2.2220
    got = internal_energies(EnsembleSpec("boson", 1, 2), BOX, [(8.0, 1.0)])[0]
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(2.2220002001377903, rel=1e-14)


def test_harmonic_pair_matches_untruncated_closed_form():
    # oracle: central difference of the closed-form ln Z, independent of the
    # package's differentiation path
    def closed_log_z(beta):
        q = math.exp(-beta)
        return -2.0 * math.log(1.0 - q) - math.log(1.0 + q)

    h = 1e-6
    expected_u = -(closed_log_z(1.0 + h) - closed_log_z(1.0 - h)) / (2 * h)
    got = internal_energies(EnsembleSpec("boson", 2, 200), HARM, [(1.0, 1.0)])[0]
    assert got == pytest.approx(expected_u, abs=1e-8)


def test_internal_energy_methods_and_cap(monkeypatch):
    ens = EnsembleSpec("boson", 3, 6)
    (u_enum,) = enumeration_log_z_and_u(ens, BOX, [(1.0 / 2.0, 1.0)])[1]
    u_rec = recursion_rows(ens, BOX, [(1.0 / 2.0, 1.0)])[0][-1].U
    # below the cap: row M of the level recursion, bit for bit
    (u_levels,) = manybody._recursion_levels(level_coefficients(BOX, 6), 3, np.array([0.5]),
                                             False)[1][-1]
    assert internal_energies(ens, BOX, [(2.0, 1.0)])[0] == u_levels
    assert u_levels == pytest.approx(u_enum, rel=1e-12)
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", 1)
    u_auto_small_cap = internal_energies(ens, BOX, [(2.0, 1.0)])[0]
    assert u_rec == pytest.approx(u_enum, rel=1e-12)
    assert u_auto_small_cap == u_rec
    with pytest.raises(ValueError):
        internal_energies(ens, BOX, [(0.0, 1.0)])


# the state cap picks the route: an unbounded cap always takes the level
# recursion, cap 1 always the particle recursion, the default the level
# recursion for these small ensembles (the "enumeration" id names the route
# an unbounded cap took before the level recursion replaced it)
@pytest.mark.parametrize("cap", [pytest.param(math.inf, id="enumeration"),
                                 pytest.param(1, id="recursion"),
                                 pytest.param(manybody.DEFAULT_STATE_CAP, id="auto")])
@pytest.mark.parametrize("T, L", [(1e-320, 1.0), (5e-309, 1.0), (math.inf, 1.0),
                                  (math.nan, 1.0), (-1.0, 1.0), (1.0, math.inf),
                                  (1.0, math.nan), (1.0, 0.0)])
def test_internal_energy_rejects_points_that_break_the_boltzmann_sum(monkeypatch, cap, T, L):
    # 1/T overflows below ~5.6e-309: enumeration used to return NaN and the
    # recursion to fail with "cannot convert float NaN to integer"
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
    for statistics in ("boson", "fermion"):
        with pytest.raises(ValueError):
            internal_energies(EnsembleSpec(statistics, 3, 8), BOX, [(T, L)])


def test_partition_backends_reject_non_finite_beta_and_width():
    ens = EnsembleSpec("fermion", 2, 4)
    for backend in (enumeration_log_z_and_u, recursion_rows):
        for beta, L in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                backend(ens, BOX, [(beta, L)])


def test_tiny_accepted_temperature_gives_ground_state_energy():
    for statistics, ground in (("boson", 3.0), ("fermion", 14.0)):
        ens = EnsembleSpec(statistics, 3, 8)
        assert enumeration_log_z_and_u(ens, BOX, [(1.0 / 1e-300, 1.0)])[1] == [ground]
        assert internal_energies(ens, BOX, [(1e-300, 1.0)])[0] == ground
    fermions = EnsembleSpec("fermion", 3, 8)
    passes = recursion_rows(fermions, BOX, [(1.0 / T, 1.0) for T in (1e-300, 1e-4)])
    assert [rows[-1].U for rows in passes] == [14.0] * 2
    # the float particle recursion gave 1.0, 2.718 and 3.00000006 here: its
    # log-domain terms of size beta*E keep no digits in their differences
    bosons = EnsembleSpec("boson", 3, 8)
    passes = recursion_rows(bosons, BOX, [(1.0 / T, 1.0) for T in (1e-300, 1e-15, 1e-8)])
    assert [rows[-1].U for rows in passes] == [3.0] * 3


def test_level_recursion_matches_enumeration():
    # every kind, regime and statistics up to 3M states, from beta = 0 to
    # the ground state; the full enumerated table and the level recursion
    # each take all betas in one call
    betas = np.array([0.0, 0.01, 0.2, 1.0, 10.0, 200.0, 1e8])
    cases = 0
    for kind, lam, statistics, M, N in itertools.product(
            KINDS, (0.05, 1.0, 20.0), ("boson", "fermion"), (1, 2, 3, 5, 8),
            (1, 3, 8, 25, 150)):
        if statistics == "fermion" and M > N:
            continue
        ens = EnsembleSpec(statistics, M, N)
        if ens.state_count > 3_000_000:
            continue
        spec = SpectrumSpec(kind, scale_c=lam)
        log_zs, means = kernels.log_z_and_mean(state_energy_coefficients(ens, spec), betas)
        w = level_coefficients(spec, N)
        got_log_zs, got_us = manybody._recursion_levels(w, M, betas, statistics == "fermion")
        for log_z, u, got in zip(log_zs, means, zip(got_log_zs[-1], got_us[-1])):
            assert abs(got[0] - log_z) <= 1e-13 * max(1.0, abs(log_z))
            assert abs(got[1] - u) <= 1e-13 * max(1.0, abs(u))
            cases += 1
    assert cases == 3276


def test_level_recursion_keeps_log_z_near_zero_exact():
    # harmonic bosons M=3, N=25, lambda=0.05 at beta=200: Z = 1 + 4.5e-5, and
    # log(Z) lost 3.5e-12 of log Z's relative precision; against a 50-digit sum
    # over all 2925 states of the same float coefficients
    w = level_coefficients(SpectrumSpec("harmonic", scale_c=0.05), 25)
    log_zs, us = manybody._recursion_levels(w, 3, np.array([200.0]), False)
    with localcontext() as ctx:
        ctx.prec = 50
        z = d = Decimal(0)
        for levels in itertools.combinations_with_replacement(map(Decimal, w.tolist()), 3):
            e = sum(levels)
            t = (-Decimal(200.0) * e).exp()
            z, d = z + t, d + e * t
        log_z, u = z.ln(), d / z
        errors = [abs((Decimal(got) - value) / value)
                  for got, value in ((log_zs[-1][0], log_z), (us[-1][0], u))]
    assert float(log_z) == pytest.approx(4.5403021617690e-5, rel=1e-13)
    assert max(errors) <= Decimal("2e-15")


def test_internal_energies_equal_pointwise_values_on_every_route(monkeypatch):
    points = [(0.3, 2.0), (1.0, 1.0), (2.5, 1.0), (7.0, 1.5)]
    # the default cap gives these ensembles the level recursion, cap 1 the
    # particle recursion
    cases = [(EnsembleSpec("boson", 3, 6), 2_000_000),
             (EnsembleSpec("fermion", 3, 6), 2_000_000),
             (EnsembleSpec("fermion", 3, 6), 1),
             (EnsembleSpec("distinguishable", 3, 4), 1)]
    for ens, cap in cases:
        monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
        batch = internal_energies(ens, BOX, points)
        assert batch == [internal_energies(ens, BOX, [(T, L)])[0] for T, L in points]


def test_distinguishable_beyond_cap_factorizes(monkeypatch):
    # at any cap, auto gives M distinguishable particles M times row 1 (the one
    # particle) of the level recursion and never builds their N^M table
    points = [(3.0, 1.0), (0.7, 1.5)]
    beta_points = [(1.0 / T, L) for T, L in points]
    build = manybody.state_energy_coefficients

    def one_particle_only(ens, spec):
        if ens.statistics == "distinguishable" and ens.M >= 2:
            pytest.fail(f"auto enumerated {ens.M} distinguishable particles")
        return build(ens, spec)

    for ens in (EnsembleSpec("distinguishable", 3, 4), EnsembleSpec("distinguishable", 2, 7)):
        single = manybody._recursion_levels(level_coefficients(BOX, ens.N), 1,
                                            np.array([b / L**2.0 for b, L in beta_points]),
                                            False)[1][0]
        direct = enumeration_log_z_and_u(ens, BOX, beta_points)[1]
        for cap in (manybody.DEFAULT_STATE_CAP, 1):
            monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
            monkeypatch.setattr(manybody, "state_energy_coefficients", one_particle_only)
            via_auto = internal_energies(ens, BOX, points)
            monkeypatch.undo()
            assert via_auto == [ens.M * (u / L**2.0) for u, (_, L) in zip(single, beta_points)]
            assert via_auto == pytest.approx(direct, rel=1e-13)


def test_enumeration_guard_advises_auto_for_distinguishable_particles(monkeypatch):
    def reached(*args):
        pytest.fail("the memory guard let the enumeration run")

    monkeypatch.setattr(manybody, "level_coefficients", reached)
    ens = EnsembleSpec("distinguishable", 12, 10)
    with pytest.raises(ValueError, match=r"table entries; use internal_energies \(M times"):
        enumeration_log_z_and_u(ens, BOX, [(1.0 / 2.0, 1.0)])


def test_enumeration_guard_bounds_table_entries_not_states(monkeypatch):
    # 16.1M states of 5 bosons, below the 50M limit, but 80.5M table entries
    # (states x particles) by the guard's measure; the builder would hold a
    # few 16.1M-long arrays while it places the last boson
    def reached(*args):
        pytest.fail("the memory guard let the enumeration kernel run")

    monkeypatch.setattr(kernels, "multiset_sums", reached)
    ens = EnsembleSpec("boson", 5, 70)
    assert ens.state_count == 16_108_764
    with pytest.raises(ValueError, match="table entries; use the recursion backend"):
        enumeration_log_z_and_u(ens, BOX, [(1.0 / 2.0, 1.0)])


@given(statistics=st.sampled_from(["boson", "fermion", "distinguishable"]),
       M=st.integers(1, 3), N=st.integers(1, 5), beta=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
@example(statistics="boson", M=1, N=1, beta=5e-324)
def test_enumeration_matches_brute_force(statistics, M, N, beta):
    if statistics == "fermion" and M > N:
        return
    ens = EnsembleSpec(statistics, M, N)
    if 0 < beta and beta / 1.5**2 == 0:  # a subnormal beta: beta/L^p underflows to 0
        with pytest.raises(ValueError, match=r"beta/L\^p must be finite and nonzero"):
            enumeration_log_z_and_u(ens, BOX, [(beta, 1.5)])
        return
    (got_log_z,), (got_u,) = enumeration_log_z_and_u(ens, BOX, [(beta, 1.5)])
    log_z, u = brute_log_z_u(brute_coeffs(statistics, M, N, BOX), beta, 1.5, 2.0)
    assert got_log_z == pytest.approx(log_z, rel=1e-12, abs=1e-12)
    assert got_u == pytest.approx(u, rel=1e-12, abs=1e-12)


def test_backends_check_every_point_of_a_batch_before_any_kernel_runs(monkeypatch):
    # a mixed point list gives, bit for bit, what each point gives alone
    ens = EnsembleSpec("boson", 2, 4)
    points = [(0.0, 1.0), (0.3, 2.0), (1.0, 1.0), (7.5, 0.8), (1e3, 1.5), (0.01, 3.0)]
    log_zs, us = enumeration_log_z_and_u(ens, BOX, points)
    passes = recursion_rows(ens, BOX, points)
    for i, point in enumerate(points):
        assert enumeration_log_z_and_u(ens, BOX, [point]) == ([log_zs[i]], [us[i]])
        assert recursion_rows(ens, BOX, [point]) == [passes[i]]

    def reached(*args):
        pytest.fail("a kernel ran before every point was checked")

    for name in ("log_z_and_mean", "multiset_sums", "subset_sums"):
        monkeypatch.setattr(kernels, name, reached)
    # the enumeration backend took the first five silently: [nan], log Z = 32,
    # U = 0, ZeroDivisionError and a RuntimeWarning; the last three leave
    # L^p = 0, beta/L^p = inf and beta/L^p = 0 at beta > 0
    bad_points = [(math.nan, 1.0), (-1.0, 1.0), (1.0, math.inf), (1.0, 0.0),
                  (math.inf, 1.0), (1.0, 1e-200), (1.0, 1e-160), (1e-300, 1e100)]
    for backend in (enumeration_log_z_and_u, recursion_rows):
        for bad in bad_points:
            for at in (0, 3, len(points)):
                with pytest.raises(ValueError):
                    backend(ens, BOX, points[:at] + [bad] + points[at:])
        # 2 * 1e308 * 4^2: the largest many-body energy coefficient overflows
        with pytest.raises(ValueError, match="largest many-body energy"):
            backend(ens, SpectrumSpec("box", scale_c=1e308), points)


def test_effective_betas_names_an_L_whose_L_p_overflows():
    # Python's float power raised OverflowError, "(34, 'Numerical result out of range')"
    ens = EnsembleSpec("boson", 2, 3)
    for spec, L in ((BOX, 1e200), (BOX, 1.5e154), (SpectrumSpec("quartic"), 1e240)):
        with pytest.raises(ValueError, match=r"L and L\^p must be positive and finite.*L\^p = inf"):
            manybody.effective_betas(ens, spec, [(1.0, 1.0), (1.0, L)])
    assert manybody.effective_betas(ens, BOX, [(2.0, 1e150)]) == [(2.0 / 1e150**2, 1e150**2)]
