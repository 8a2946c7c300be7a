"""Ensemble construction and the two partition-function backends.

Expected values are recomputed inline by direct itertools/math sums so the
checks stay independent of the package's kernels and recursion.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qotto import (KINDS, EmptyStateSpaceError, EnsembleSpec, SpectrumSpec,
                   level_coefficients, partition_by_enumeration,
                   partition_by_recursion, state_energy_coefficients)
from qotto import kernels, manybody
from qotto.manybody import internal_energies, recursion_rows

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
    res = partition_by_enumeration(EnsembleSpec("boson", 2, 3), BOX, 0.0, 1.0)
    assert res.log_Z == pytest.approx(math.log(6), rel=1e-15)
    assert res.method == "enumeration"


def test_single_fermion_pair_state_pins_energy():
    for beta in (0.0, 0.7, 50.0):
        res = partition_by_enumeration(EnsembleSpec("fermion", 2, 2), BOX, beta, 1.0)
        assert res.U == 5.0


def test_boson_pair_three_term_oracle():
    # Z = e^-2 + e^-5 + e^-8, U = (2 e^-2 + 5 e^-5 + 8 e^-8)/Z
    z = math.exp(-2) + math.exp(-5) + math.exp(-8)
    u = (2 * math.exp(-2) + 5 * math.exp(-5) + 8 * math.exp(-8)) / z
    assert z == pytest.approx(0.1424086928636007, rel=1e-15)
    assert u == pytest.approx(2.1560762641502516, rel=1e-15)
    res = partition_by_enumeration(EnsembleSpec("boson", 2, 2), BOX, 1.0, 1.0)
    assert res.log_Z == pytest.approx(math.log(z), rel=1e-14)
    assert res.U == pytest.approx(u, rel=1e-14)


def test_enumeration_invalid_arguments():
    ens = EnsembleSpec("boson", 2, 3)
    with pytest.raises(ValueError):
        partition_by_enumeration(ens, BOX, -0.5, 1.0)
    with pytest.raises(ValueError):
        partition_by_enumeration(ens, BOX, 1.0, 0.0)


def test_recursion_base_case_is_z1():
    for beta in (0.0, 0.4, 3.0):
        a = partition_by_recursion(EnsembleSpec("boson", 1, 5), BOX, beta, 1.3)
        b = partition_by_enumeration(EnsembleSpec("boson", 1, 5), BOX, beta, 1.3)
        assert a.log_Z == pytest.approx(b.log_Z, rel=1e-14)
        assert a.U == pytest.approx(b.U, rel=1e-14)
        assert a.method == "recursion"


def test_recursion_two_particle_unrolling():
    # Z_2 = (Z_1(beta)^2 +- Z_1(2 beta)) / 2 via direct single-particle sums
    beta, L, N = 0.37, 1.2, 5
    e1 = [n * n / L**2 for n in range(1, N + 1)]
    z1 = sum(math.exp(-beta * e) for e in e1)
    z1_2b = sum(math.exp(-2 * beta * e) for e in e1)
    for statistics, sign in (("boson", 1.0), ("fermion", -1.0)):
        expected = (z1 * z1 + sign * z1_2b) / 2.0
        res = partition_by_recursion(EnsembleSpec(statistics, 2, N), BOX, beta, L)
        assert res.log_Z == pytest.approx(math.log(expected), rel=1e-13)


def test_recursion_fermion_pair_matches_enumeration():
    a = partition_by_recursion(EnsembleSpec("fermion", 2, 3), BOX, 0.1, 1.0)
    b = partition_by_enumeration(EnsembleSpec("fermion", 2, 3), BOX, 0.1, 1.0)
    assert abs(a.log_Z - b.log_Z) <= 1e-12
    assert abs(a.U - b.U) <= 1e-12 * max(1.0, abs(b.U))


def test_recursion_rejects_distinguishable():
    with pytest.raises(ValueError):
        partition_by_recursion(EnsembleSpec("distinguishable", 2, 3), BOX, 1.0, 1.0)


def test_recursion_survives_catastrophic_fermion_cancellation():
    # beta=10 box fermions: surviving Z is ~e^260 below the largest recursion
    # term, far beyond float64; must still match enumeration
    ens = EnsembleSpec("fermion", 4, 8)
    a = partition_by_recursion(ens, BOX, 10.0, 1.0)
    b = partition_by_enumeration(ens, BOX, 10.0, 1.0)
    assert abs(a.log_Z - b.log_Z) <= 1e-10
    assert abs(a.U - b.U) <= 1e-9 * max(1.0, abs(b.U))


def test_recursion_rows_equal_one_pass_per_particle_number():
    # row k of one pass to M is, bit for bit, the pass that stops at k, on the
    # float path and where the level recursion takes over alike
    mixed = set()
    for statistics, spec, N in itertools.product(("boson", "fermion"), (BOX, HARM),
                                                 (3, 8, 25, 150)):
        M = min(N, 8)
        for beta in (0.0, 1e-3, 0.2, 1.0, 10.0, 1e3, 1e8):
            rows = recursion_rows(EnsembleSpec(statistics, M, N), spec, beta, 1.3)
            assert len(rows) == M
            for k, row in enumerate(rows, 1):
                alone = partition_by_recursion(EnsembleSpec(statistics, k, N), spec, beta, 1.3)
                assert (row.log_Z, row.U, row.method) == (alone.log_Z, alone.U, alone.method)
                assert type(row.U) is type(alone.U)
            mixed.add(tuple(row.method for row in rows))
    # fermions box N=8 at beta=1: rows 1-3 stay on the float path, 4-8 hand over
    assert ("recursion",) * 3 + ("levels",) * 5 in mixed
    with pytest.raises(ValueError):
        recursion_rows(EnsembleSpec("distinguishable", 2, 3), BOX, 1.0, 1.0)


def test_method_names_the_hand_over_to_the_level_recursion():
    assert partition_by_recursion(EnsembleSpec("fermion", 3, 8), BOX, 1e4, 1.0).method == "levels"
    assert partition_by_recursion(EnsembleSpec("boson", 1, 8), BOX, 1.0, 1.0).method == "recursion"


@given(statistics=st.sampled_from(["boson", "fermion"]),
       M=st.integers(1, 3), N=st.integers(1, 6),
       beta=st.floats(0.0, 5.0), kind=st.sampled_from(["box", "harmonic"]))
@settings(max_examples=60, deadline=None)
def test_backends_agree_property(statistics, M, N, beta, kind):
    if statistics == "fermion" and M > N:
        return
    ens = EnsembleSpec(statistics, M, N)
    spec = SpectrumSpec(kind)
    a = partition_by_recursion(ens, spec, beta, 1.0)
    b = partition_by_enumeration(ens, spec, beta, 1.0)
    assert abs(a.log_Z - b.log_Z) <= 1e-10
    assert abs(a.U - b.U) <= 1e-9 * max(1.0, abs(b.U))


def test_fermion_partition_never_exceeds_boson():
    for N in (2, 4, 6):
        for M in (2, min(3, N)):
            for beta in (0.0, 0.2, 2.0):
                zb = partition_by_enumeration(EnsembleSpec("boson", M, N), BOX, beta, 1.0)
                zf = partition_by_enumeration(EnsembleSpec("fermion", M, N), BOX, beta, 1.0)
                assert zf.log_Z <= zb.log_Z


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
    u_enum = internal_energies(ens, BOX, [(2.0, 1.0)], method="enumeration")[0]
    u_rec = internal_energies(ens, BOX, [(2.0, 1.0)], method="recursion")[0]
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", 1)
    u_auto_small_cap = internal_energies(ens, BOX, [(2.0, 1.0)], method="auto")[0]
    assert u_rec == pytest.approx(u_enum, rel=1e-12)
    assert u_auto_small_cap == u_rec
    with pytest.raises(ValueError):
        internal_energies(ens, BOX, [(2.0, 1.0)], method="magic")
    with pytest.raises(ValueError):
        internal_energies(ens, BOX, [(0.0, 1.0)])


@pytest.mark.parametrize("method", ["enumeration", "recursion", "auto"])
@pytest.mark.parametrize("T, L", [(1e-320, 1.0), (5e-309, 1.0), (math.inf, 1.0),
                                  (math.nan, 1.0), (-1.0, 1.0), (1.0, math.inf),
                                  (1.0, math.nan), (1.0, 0.0)])
def test_internal_energy_rejects_points_that_break_the_boltzmann_sum(method, T, L):
    # 1/T overflows below ~5.6e-309: enumeration used to return NaN and the
    # recursion to fail with "cannot convert float NaN to integer"
    for statistics in ("boson", "fermion"):
        with pytest.raises(ValueError):
            internal_energies(EnsembleSpec(statistics, 3, 8), BOX, [(T, L)], method=method)


def test_partition_backends_reject_non_finite_beta_and_width():
    ens = EnsembleSpec("fermion", 2, 4)
    for backend in (partition_by_enumeration, partition_by_recursion):
        for beta, L in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                backend(ens, BOX, beta, L)


def test_tiny_accepted_temperature_gives_ground_state_energy():
    for statistics, ground in (("boson", 3.0), ("fermion", 14.0)):
        ens = EnsembleSpec(statistics, 3, 8)
        assert internal_energies(ens, BOX, [(1e-300, 1.0)], method="enumeration")[0] == ground
        assert internal_energies(ens, BOX, [(1e-300, 1.0)])[0] == ground
    fermions = EnsembleSpec("fermion", 3, 8)
    for T in (1e-300, 1e-4):
        assert internal_energies(fermions, BOX, [(T, 1.0)], method="recursion")[0] == 14.0
    # the float particle recursion gave 1.0, 2.718 and 3.00000006 here: its
    # log-domain terms of size beta*E keep no digits in their differences
    bosons = EnsembleSpec("boson", 3, 8)
    for T in (1e-300, 1e-15, 1e-8):
        assert internal_energies(bosons, BOX, [(T, 1.0)], method="recursion")[0] == 3.0


def test_level_recursion_matches_enumeration():
    # every kind, regime and statistics up to 3M states, from beta = 0 to
    # the ground state; the enumeration table is reduced at all betas in one
    # call, bit for bit what partition_by_enumeration gives at L = 1
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
        for beta, log_z, u in zip(betas, log_zs, means):
            got = manybody._recursion_levels(w, M, beta, statistics == "fermion")[-1]
            assert abs(got[0] - log_z) <= 1e-13 * max(1.0, abs(log_z))
            assert abs(got[1] - u) <= 1e-13 * max(1.0, abs(u))
            cases += 1
    assert cases == 3276


def test_internal_energies_equal_pointwise_values_on_every_route(monkeypatch):
    points = [(0.3, 2.0), (1.0, 1.0), (2.5, 1.0), (7.0, 1.5)]
    cases = [(EnsembleSpec("boson", 3, 6), "enumeration", 2_000_000),
             (EnsembleSpec("fermion", 3, 6), "recursion", 2_000_000),
             (EnsembleSpec("fermion", 3, 6), "auto", 1),
             (EnsembleSpec("distinguishable", 3, 4), "auto", 1)]
    for ens, method, cap in cases:
        monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
        batch = internal_energies(ens, BOX, points, method)
        assert batch == [internal_energies(ens, BOX, [(T, L)], method)[0] for T, L in points]


def test_distinguishable_beyond_cap_factorizes(monkeypatch):
    # at any cap, auto gives M distinguishable particles M times the one-particle
    # U and never builds their N^M table
    points = [(3.0, 1.0), (0.7, 1.5)]
    build = manybody.state_energy_coefficients

    def one_particle_only(ens, spec):
        if ens.statistics == "distinguishable" and ens.M >= 2:
            pytest.fail(f"auto enumerated {ens.M} distinguishable particles")
        return build(ens, spec)

    for ens in (EnsembleSpec("distinguishable", 3, 4), EnsembleSpec("distinguishable", 2, 7)):
        single = internal_energies(EnsembleSpec("distinguishable", 1, ens.N), BOX, points,
                                   "enumeration")
        direct = internal_energies(ens, BOX, points, "enumeration")
        for cap in (manybody.DEFAULT_STATE_CAP, 1):
            monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
            monkeypatch.setattr(manybody, "state_energy_coefficients", one_particle_only)
            via_auto = internal_energies(ens, BOX, points, "auto")
            monkeypatch.undo()
            assert via_auto == [ens.M * u for u in single]
            assert via_auto == pytest.approx(direct, rel=1e-13)


def test_enumeration_guard_advises_auto_for_distinguishable_particles(monkeypatch):
    def reached(*args):
        pytest.fail("the memory guard let the enumeration run")

    monkeypatch.setattr(manybody, "level_coefficients", reached)
    ens = EnsembleSpec("distinguishable", 12, 10)
    with pytest.raises(ValueError, match=r'table entries; use method="auto" \(M times'):
        internal_energies(ens, BOX, [(2.0, 1.0)], method="enumeration")


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
        internal_energies(ens, BOX, [(2.0, 1.0)], method="enumeration")


def test_auto_takes_the_recursion_above_the_enumeration_guard(monkeypatch):
    # 20 states of 3 bosons are 60 table entries: under the state cap, above
    # a guard of 10, so auto must not hand the ensemble to enumeration. One
    # boson on 10 levels is 10 entries and still enumerates. At T=3.3 the
    # two backends differ in the last bits, so the route shows.
    three, one = EnsembleSpec("boson", 3, 4), EnsembleSpec("boson", 1, 10)
    expected = [internal_energies(three, BOX, [(3.3, 1.0)], method="recursion")[0],
                internal_energies(one, BOX, [(3.3, 1.0)], method="enumeration")[0]]
    assert expected[0] != internal_energies(three, BOX, [(3.3, 1.0)], method="enumeration")[0]
    assert expected[1] != internal_energies(one, BOX, [(3.3, 1.0)], method="recursion")[0]
    monkeypatch.setattr(manybody, "HARD_ENUMERATION_LIMIT", 10)
    assert [internal_energies(three, BOX, [(3.3, 1.0)])[0],
            internal_energies(one, BOX, [(3.3, 1.0)])[0]] == expected


@given(statistics=st.sampled_from(["boson", "fermion", "distinguishable"]),
       M=st.integers(1, 3), N=st.integers(1, 5), beta=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_brute_force(statistics, M, N, beta):
    if statistics == "fermion" and M > N:
        return
    ens = EnsembleSpec(statistics, M, N)
    res = partition_by_enumeration(ens, BOX, beta, 1.5)
    log_z, u = brute_log_z_u(brute_coeffs(statistics, M, N, BOX), beta, 1.5, 2.0)
    assert res.log_Z == pytest.approx(log_z, rel=1e-12, abs=1e-12)
    assert res.U == pytest.approx(u, rel=1e-12, abs=1e-12)
