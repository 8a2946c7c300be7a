"""Ensemble construction and the two partition-function backends.

Expected values are recomputed inline by direct itertools/math sums so the
checks stay independent of the package's kernels and recursion.
"""

import collections
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qotto import (KINDS, EmptyStateSpaceError, EnsembleSpec, SpectrumSpec,
                   enumeration_rows, level_coefficients, recursion_rows)
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
    assert brute_coeffs("boson", 2, 3, BOX) == [2, 5, 8, 10, 13, 18]


def test_fermion_pair_coefficients_five_ten_thirteen():
    assert brute_coeffs("fermion", 2, 3, BOX) == [5, 10, 13]


def test_two_fermions_on_two_levels_single_state():
    assert brute_coeffs("fermion", 2, 2, BOX) == [5]


def test_harmonic_occupation_indices_start_at_zero():
    # g(n) = n from n = 0: the pairs (0,1), (0,2), (1,2)
    assert brute_coeffs("fermion", 2, 3, HARM) == [1, 2, 3]


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
    assert len(brute_coeffs(statistics, M, N, BOX)) == expected
    g = level_coefficients(BOX, N).astype(np.int64)
    assert kernels.energy_histograms(g, M, statistics)[-1].sum() == expected


def test_enumeration_counts_states_at_beta_zero():
    (log_z,), _ = enumeration_rows(EnsembleSpec("boson", 2, 3), BOX, [(0.0, 1.0)])[-1]
    assert log_z == pytest.approx(math.log(6), rel=1e-15)


def test_single_fermion_pair_state_pins_energy():
    points = [(beta, 1.0) for beta in (0.0, 0.7, 50.0)]
    assert enumeration_rows(EnsembleSpec("fermion", 2, 2), BOX, points)[-1][1] == [5.0] * 3


def test_boson_pair_three_term_oracle():
    # Z = e^-2 + e^-5 + e^-8, U = (2 e^-2 + 5 e^-5 + 8 e^-8)/Z
    z = math.exp(-2) + math.exp(-5) + math.exp(-8)
    u = (2 * math.exp(-2) + 5 * math.exp(-5) + 8 * math.exp(-8)) / z
    assert z == pytest.approx(0.1424086928636007, rel=1e-15)
    assert u == pytest.approx(2.1560762641502516, rel=1e-15)
    (log_z,), (U,) = enumeration_rows(EnsembleSpec("boson", 2, 2), BOX, [(1.0, 1.0)])[-1]
    assert log_z == pytest.approx(math.log(z), rel=1e-14)
    assert U == pytest.approx(u, rel=1e-14)


def test_enumeration_invalid_arguments():
    ens = EnsembleSpec("boson", 2, 3)
    with pytest.raises(ValueError):
        enumeration_rows(ens, BOX, [(-0.5, 1.0)])
    with pytest.raises(ValueError):
        enumeration_rows(ens, BOX, [(1.0, 0.0)])


def test_recursion_base_case_is_z1():
    ens = EnsembleSpec("boson", 1, 5)
    points = [(beta, 1.3) for beta in (0.0, 0.4, 3.0)]
    [(got_log_zs, got_us)] = recursion_rows(ens, BOX, points)
    log_zs, us = enumeration_rows(ens, BOX, points)[-1]
    assert got_log_zs == pytest.approx(log_zs, rel=1e-14)
    assert got_us == pytest.approx(us, rel=1e-14)
    # the float path: no row was handed over to the level recursion
    assert all(type(u) is np.float64 for u in got_us)


def test_recursion_two_particle_unrolling():
    # Z_2 = (Z_1(beta)^2 +- Z_1(2 beta)) / 2 via direct single-particle sums
    beta, L, N = 0.37, 1.2, 5
    e1 = [n * n / L**2 for n in range(1, N + 1)]
    z1 = sum(math.exp(-beta * e) for e in e1)
    z1_2b = sum(math.exp(-2 * beta * e) for e in e1)
    for statistics, sign in (("boson", 1.0), ("fermion", -1.0)):
        expected = (z1 * z1 + sign * z1_2b) / 2.0
        (log_z,), _ = recursion_rows(EnsembleSpec(statistics, 2, N), BOX, [(beta, L)])[-1]
        assert log_z == pytest.approx(math.log(expected), rel=1e-13)


def test_recursion_fermion_pair_matches_enumeration():
    ens = EnsembleSpec("fermion", 2, 3)
    (got_log_z,), (got_u,) = recursion_rows(ens, BOX, [(0.1, 1.0)])[-1]
    (log_z,), (u,) = enumeration_rows(ens, BOX, [(0.1, 1.0)])[-1]
    assert abs(got_log_z - log_z) <= 1e-12
    assert abs(got_u - u) <= 1e-12 * max(1.0, abs(u))


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
    (got_log_z,), (got_u,) = recursion_rows(ens, BOX, [(10.0, 1.0)])[-1]
    (log_z,), (u,) = enumeration_rows(ens, BOX, [(10.0, 1.0)])[-1]
    assert abs(got_log_z - log_z) <= 1e-10
    assert abs(got_u - u) <= 1e-9 * max(1.0, abs(u))


def _handed_over(ens, spec, beta, L):
    """Which rows of ``ens``' one pass at (beta, L) the float recursion flags as bad, and
    the level recursion's (log Z, U) of every row, U scaled as recursion_rows scales it."""
    w = level_coefficients(spec, ens.N)
    fermion, scale = ens.statistics == "fermion", L**spec.power_p
    singles = kernels.log_z_and_mean(w, beta / scale * np.arange(1, ens.M + 1))
    bad = manybody._recursion_float(*(a[None] for a in singles), [ens.M],
                                    np.array([fermion]))[2][0].tolist()
    levels = manybody._recursion_levels(w, ens.M, np.array([beta / scale]), fermion, [ens.N])[0]
    return bad, [(log_zs, [u / scale for u in us]) for log_zs, us in levels]


def test_recursion_rows_equal_one_pass_per_particle_number():
    # row k of one pass to M is, bit for bit, the pass that stops at k, on the
    # float path and where the level recursion takes over alike
    mixed = set()
    for statistics, spec, N in itertools.product(("boson", "fermion"), (BOX, HARM),
                                                 (3, 8, 25, 150)):
        M = min(N, 8)
        points = [(beta, 1.3) for beta in (0.0, 1e-3, 0.2, 1.0, 10.0, 1e3, 1e8)]
        rows = recursion_rows(EnsembleSpec(statistics, M, N), spec, points)
        assert len(rows) == M
        for k in range(1, M + 1):
            alone = recursion_rows(EnsembleSpec(statistics, k, N), spec, points)[-1]
            assert all(len(values) == len(points) for values in rows[k - 1])
            assert rows[k - 1] == alone
            assert [type(u) for u in rows[k - 1][1]] == [type(u) for u in alone[1]]
        for i, (beta, L) in enumerate(points):
            bad, levels = _handed_over(EnsembleSpec(statistics, M, N), spec, beta, L)
            mixed.add(tuple(bad))
            # a bad row is the level recursion's, bit for bit, and a Python float
            for (log_zs, us), handed, ((level_log_z,), (level_u,)) in zip(rows, bad, levels):
                assert handed == ((log_zs[i], us[i]) == (level_log_z, level_u)
                                  and type(us[i]) is float)
    # fermions box N=8 at beta=1: rows 1-3 stay on the float path, 4-8 hand over
    assert (False,) * 3 + (True,) * 5 in mixed
    with pytest.raises(ValueError):
        recursion_rows(EnsembleSpec("distinguishable", 2, 3), BOX, [(1.0, 1.0)])


def test_rows_the_float_recursion_flags_come_from_the_level_recursion():
    for ens, beta, handed in ((EnsembleSpec("fermion", 3, 8), 1e4, True),
                              (EnsembleSpec("boson", 1, 8), 1.0, False)):
        bad, levels = _handed_over(ens, BOX, beta, 1.0)
        assert bad[-1] is handed
        (log_z,), (u,) = recursion_rows(ens, BOX, [(beta, 1.0)])[-1]
        assert ((log_z, u) == (levels[-1][0][0], levels[-1][1][0])) is handed
        assert type(u) is (float if handed else np.float64)


def _signed_logsumexp_per_point(logs, signs):
    """log|sum|, sign of the sum, and cancellation loss in nats of one point's terms."""
    mx = logs.max()
    if mx == -math.inf:
        return -math.inf, 0.0, 0.0
    s = float((signs * np.exp(logs - mx)).sum())
    if s == 0.0:
        return -math.inf, 0.0, math.inf
    return mx + math.log(abs(s)), math.copysign(1.0, s), max(0.0, -math.log(abs(s)))


def _recursion_float_per_point(w, M, beta_eff, fermion):
    """The float particle recursion at one point, each row's sums over that point alone."""
    lz1, u1 = np.zeros(M + 1), np.zeros(M + 1)
    lz1[1:], u1[1:] = kernels.log_z_and_mean(w, beta_eff * np.arange(1, M + 1))
    lz, uu = np.zeros(M + 1), np.zeros(M + 1)
    bad = np.ones(M + 1, dtype=bool)
    loss = 0.0
    for k in range(1, M + 1):
        ms = np.arange(1, k + 1)
        signs = np.ones(k) if not fermion else np.where(ms % 2 == 1, 1.0, -1.0)
        logs = lz1[1:k + 1] + lz[k - ms]
        lsum, ssign, lloss = _signed_logsumexp_per_point(logs, signs)
        loss = max(loss, lloss)
        if ssign <= 0.0:
            break
        lz[k] = lsum - math.log(k)
        factors = ms * u1[1:k + 1] + uu[k - ms]
        pos = factors > 0
        nlogs = np.where(pos, logs + np.log(np.where(pos, factors, 1.0)), -math.inf)
        nlsum, nssign, nloss = _signed_logsumexp_per_point(nlogs, signs)
        if nlsum == -math.inf:
            uu[k] = 0.0
        else:
            loss = max(loss, nloss)
            uu[k] = nssign * math.exp(nlsum - lsum)
        bad[k] = loss > manybody._LOSS_NATS_LIMIT or abs(lz[k]) > manybody._LOG_Z_LIMIT
    return lz[1:], uu[1:], bad[1:]


def _recursion_rows_per_point(ens, spec, beta_points):
    """recursion_rows with one float pass per point and one level pass per bad point: the
    bitwise reference for the pass over every point of every column."""
    beta_effs, scales = manybody.effective_betas(ens, spec, beta_points)
    w = level_coefficients(spec, ens.N)
    fermion = ens.statistics == "fermion"
    rows = [([], []) for _ in range(ens.M)]
    for beta_eff, scale in zip(beta_effs.tolist(), scales.tolist()):
        log_zs, us, bad = _recursion_float_per_point(w, ens.M, beta_eff, fermion)
        levels = (manybody._recursion_levels(w, ens.M, np.array([beta_eff]), fermion, [ens.N])[0]
                  if bad.any() else None)
        for k, (log_z, u) in enumerate(zip(log_zs, us)):
            if bad[k]:
                (log_z,), (u,) = levels[k]
            rows[k][0].append(log_z)
            rows[k][1].append(u / scale)
    return rows


def test_recursion_columns_equal_the_per_point_pass_bit_for_bit():
    # one call over ragged columns (M = N fermions among them, one state) from beta = 0 to
    # betas where rows hand over, and to 1e300, where Z_1(2 beta) underflows to 0 and the
    # pass fails; every value's bits and type are the per-point pass's
    lams = dict(zip(KINDS, (1.0, 0.05, 20.0, 0.3)))
    columns = [(EnsembleSpec(statistics, M, N), SpectrumSpec(kind, scale_c=lams[kind]))
               for kind, statistics, M, N in itertools.product(
                   KINDS, ("boson", "fermion"), (1, 2, 3, 5, 8, 12), (1, 3, 8, 25, 150))
               if statistics == "boson" or M <= N]
    points = [(0.0, 1.0), (1e-3, 1.3), (0.2, 1.0), (1.0, 2.0), (10.0, 1.0), (1e3, 1.3),
              (1e300, 1.0)]
    got = manybody.recursion_columns(columns, points)
    assert len(got) == len(columns)
    routes = set()  # (statistics, whether U came from the level recursion, a Python float)
    for (ens, spec), rows in zip(columns, got):
        want = _recursion_rows_per_point(ens, spec, points)
        assert len(rows) == ens.M
        for (log_zs, us), (want_log_zs, want_us) in zip(rows, want):
            for values, want_values in ((log_zs, want_log_zs), (us, want_us)):
                assert [type(v) for v in values] == [type(v) for v in want_values]
                assert [float(v).hex() for v in values] == [float(v).hex() for v in want_values]
            routes.update((ens.statistics, type(u) is float) for u in us)
    assert routes == set(itertools.product(("boson", "fermion"), (False, True)))


@given(statistics=st.sampled_from(["boson", "fermion"]),
       M=st.integers(1, 3), N=st.integers(1, 6),
       beta=st.floats(0.0, 5.0), kind=st.sampled_from(["box", "harmonic"]))
@settings(max_examples=60, deadline=None)
def test_backends_agree_property(statistics, M, N, beta, kind):
    if statistics == "fermion" and M > N:
        return
    ens = EnsembleSpec(statistics, M, N)
    spec = SpectrumSpec(kind)
    (got_log_z,), (got_u,) = recursion_rows(ens, spec, [(beta, 1.0)])[-1]
    (log_z,), (u,) = enumeration_rows(ens, spec, [(beta, 1.0)])[-1]
    assert abs(got_log_z - log_z) <= 1e-10
    assert abs(got_u - u) <= 1e-9 * max(1.0, abs(u))


def test_fermion_partition_never_exceeds_boson():
    for N in (2, 4, 6):
        for M in (2, min(3, N)):
            points = [(beta, 1.0) for beta in (0.0, 0.2, 2.0)]
            zb = enumeration_rows(EnsembleSpec("boson", M, N), BOX, points)[-1][0]
            zf = enumeration_rows(EnsembleSpec("fermion", M, N), BOX, points)[-1][0]
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
    ws = brute_coeffs("boson", 3, 4, BOX)
    for T in (0.1, 1.0, 100.0):
        u = internal_energies(ens, BOX, [(T, 1.0)])[0]
        assert ws[0] - 1e-12 <= u <= ws[-1] + 1e-12


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
    (u_enum,) = enumeration_rows(ens, BOX, [(1.0 / 2.0, 1.0)])[-1][1]
    (u_rec,) = recursion_rows(ens, BOX, [(1.0 / 2.0, 1.0)])[-1][1]
    # below the cap: row M of the level recursion, bit for bit
    (u_levels,) = manybody._recursion_levels(level_coefficients(BOX, 6), 3, np.array([0.5]),
                                             False, [6])[0][-1][1]
    assert internal_energies(ens, BOX, [(2.0, 1.0)])[0] == u_levels
    assert u_levels == pytest.approx(u_enum, rel=1e-12)
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", 1)
    u_auto_small_cap = internal_energies(ens, BOX, [(2.0, 1.0)])[0]
    assert u_rec == pytest.approx(u_enum, rel=1e-12)
    assert u_auto_small_cap == u_rec
    with pytest.raises(ValueError):
        internal_energies(ens, BOX, [(0.0, 1.0)])



def test_energy_rows_above_the_cap(monkeypatch):
    # row M from recursion_rows and the single particle from a one-row level recursion,
    # as its own call takes under the cap, on points checked once before either route
    # (and again inside recursion_rows); one particle is its own single particle
    points = [(2.0, 1.0), (0.7, 1.5)]
    beta_points = [(1.0 / T, L) for T, L in points]
    checks = []
    check = manybody.effective_betas
    monkeypatch.setattr(manybody, "effective_betas", lambda *a: checks.append(a) or check(*a))
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", 10)
    single, many = manybody._energy_rows([EnsembleSpec("fermion", 3, 6)], BOX,  # 20 states
                                         points)[0]
    assert len(checks) == 2
    assert many == recursion_rows(EnsembleSpec("fermion", 3, 6), BOX, beta_points)[-1][1]
    assert single == internal_energies(EnsembleSpec("fermion", 1, 6), BOX, points)
    assert [type(u) for u in single + many] == [float] * 2 + [np.float64] * 2
    rows = manybody._energy_rows([EnsembleSpec("boson", 1, 12)], BOX, points)[0]
    assert rows == [recursion_rows(EnsembleSpec("boson", 1, 12), BOX, beta_points)[-1][1]] * 2
    # where N itself passes the cap, the single particle still takes the level recursion
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", 5)
    del checks[:]
    single, _ = manybody._energy_rows([EnsembleSpec("boson", 2, 6)], BOX, points)[0]
    assert len(checks) == 2
    (_, us), = manybody._recursion_levels(level_coefficients(BOX, 6), 1,
                                          np.array([b / L**2.0 for b, L in beta_points]), False,
                                          [6])[0]
    assert single == [u / L**2.0 for u, (_, L) in zip(us, beta_points)]
    monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", 2_000_000)
    del checks[:]
    assert manybody._energy_rows([EnsembleSpec("boson", 2, 6)], BOX, points)[0][0] == single
    assert len(checks) == 1


def test_a_group_of_truncations_equals_one_call_per_ensemble(monkeypatch):
    # one point check per group, against its largest N, whose top energy bounds every
    # smaller N's; every route, the cap splitting a group too, gives each ensemble's rows
    # as its own call does. A width at which only the largest N's top energy overflows
    # fails the whole group
    checks = []
    check = manybody.effective_betas
    monkeypatch.setattr(manybody, "effective_betas", lambda *a: checks.append(a) or check(*a))
    points = [(2.0, 1.0), (0.7, 1.5), (40.0, 3.0)]
    groups = [[EnsembleSpec("fermion", 2, N) for N in (2, 3, 5, 6, 9)],
              [EnsembleSpec("boson", 3, N) for N in (1, 2, 3, 4, 7)],
              [EnsembleSpec("boson", 1, N) for N in (3, 8, 12, 20)],
              [EnsembleSpec("distinguishable", 2, N) for N in (1, 3, 10)]]
    for cap, group in itertools.product((2_000_000, 10, 1), groups):
        monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
        del checks[:]
        rows = manybody._energy_rows(group, BOX, points)
        assert checks[0][0] == group[-1]
        assert len(checks) == 1 + sum(ens.state_count > cap for ens in group
                                      if ens.statistics != "distinguishable")
        assert rows == [manybody._energy_rows([ens], BOX, points)[0] for ens in group]
    group = [EnsembleSpec("fermion", 2, 3), EnsembleSpec("fermion", 2, 100)]
    check(group[0], BOX, [(0.5, 1e-153)])  # 13/L^2 is finite, 19801/L^2 is not
    with pytest.raises(ValueError, match="largest many-body energy"):
        manybody._energy_rows(group, BOX, [(2.0, 1e-153)])


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
    for backend in (enumeration_rows, recursion_rows):
        for beta, L in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(ValueError):
                backend(ens, BOX, [(beta, L)])


def test_tiny_accepted_temperature_gives_ground_state_energy():
    for statistics, ground in (("boson", 3.0), ("fermion", 14.0)):
        ens = EnsembleSpec(statistics, 3, 8)
        assert enumeration_rows(ens, BOX, [(1.0 / 1e-300, 1.0)])[-1][1] == [ground]
        assert internal_energies(ens, BOX, [(1e-300, 1.0)])[0] == ground
    fermions = EnsembleSpec("fermion", 3, 8)
    assert recursion_rows(fermions, BOX, [(1.0 / T, 1.0) for T in (1e-300, 1e-4)])[-1][1] == \
        [14.0] * 2
    # the float particle recursion gave 1.0, 2.718 and 3.00000006 here: its
    # log-domain terms of size beta*E keep no digits in their differences
    bosons = EnsembleSpec("boson", 3, 8)
    assert recursion_rows(bosons, BOX, [(1.0 / T, 1.0) for T in (1e-300, 1e-15, 1e-8)])[-1][1] == \
        [3.0] * 3


def test_level_recursion_matches_enumeration():
    # every kind, regime and statistics up to 3 million states, from beta = 0
    # to the ground state; the oracle and the level recursion each take all
    # betas in one call
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
        log_zs, means = enumeration_rows(ens, spec, [(b, 1.0) for b in betas])[-1]
        w = level_coefficients(spec, N)
        got_log_zs, got_us = manybody._recursion_levels(w, M, betas, statistics == "fermion",
                                                        [N])[0][-1]
        for log_z, u, got in zip(log_zs, means, zip(got_log_zs, got_us)):
            assert abs(got[0] - log_z) <= 1e-13 * max(1.0, abs(log_z))
            assert abs(got[1] - u) <= 1e-13 * max(1.0, abs(u))
            cases += 1
    assert cases == 3276


def test_level_recursion_keeps_log_z_near_zero_exact():
    # harmonic bosons M=3, N=25, lambda=0.05 at beta=200: Z = 1 + 4.5e-5, and
    # log(Z) lost 3.5e-12 of log Z's relative precision; against a 50-digit sum
    # over all 2925 states of the same float coefficients
    w = level_coefficients(SpectrumSpec("harmonic", scale_c=0.05), 25)
    (got_log_z,), (got_u,) = manybody._recursion_levels(w, 3, np.array([200.0]), False,
                                                        [25])[0][-1]
    with localcontext() as ctx:
        ctx.prec = 50
        z = d = Decimal(0)
        for levels in itertools.combinations_with_replacement(map(Decimal, w.tolist()), 3):
            e = sum(levels)
            t = (-Decimal(200.0) * e).exp()
            z, d = z + t, d + e * t
        log_z, u = z.ln(), d / z
        errors = [abs((Decimal(got) - value) / value)
                  for got, value in ((got_log_z, log_z), (got_u, u))]
    assert float(log_z) == pytest.approx(4.5403021617690e-5, rel=1e-13)
    assert max(errors) <= Decimal("2e-15")


def _level_recursion_fsum_per_point(w, M, beta_effs, fermion):
    """The level recursion with every point in one block, every row's Boltzmann factors
    computed for that row and every point's U = G + q summed by fsum: the bitwise
    reference for the blocked points and for the vector route that U takes where the
    float ground sum G is exact."""
    N = w.size
    ground = w[:M].tolist() if fermion else [w[0].item()] * M
    excited = np.empty((M, beta_effs.size))
    numer = np.empty((M, beta_effs.size))
    nb = -beta_effs[:, None]
    z = np.ones((nb.size, N + 1))
    d = np.zeros((nb.size, N + 1))
    for k in range(1, M + 1):
        lo = k - 1 if fermion else 0
        prev = slice(lo, N) if fermion else slice(1, N + 1)
        e = w[lo:] - w[lo]
        with np.errstate(over="ignore"):
            x = np.exp(nb * e)
        t = x * z[:, prev]
        dt = x * d[:, prev] + e * t
        np.add.reduce(t[:, 1:], axis=1, out=excited[k - 1])
        np.add.reduce(dt[:, 1:], axis=1, out=numer[k - 1])
        if k < M:
            np.add.accumulate(t, axis=1, out=z[:, lo + 1:])
            np.add.accumulate(dt, axis=1, out=d[:, lo + 1:])
    ground_sums = np.array([[math.fsum(ground[:k])] for k in range(1, M + 1)])
    with np.errstate(over="ignore"):
        log_zs = -beta_effs * ground_sums
    log_zs += np.log1p(excited)
    return [(log_z, [math.fsum(ground[:k] + [q]) for q in row])
            for k, (log_z, row) in enumerate(zip(log_zs.tolist(),
                                                 (numer / (1.0 + excited)).tolist()), 1)]


def test_level_recursion_equals_its_fsum_per_point_form_bit_for_bit():
    # every kind, both statistics, M <= 8, lambda in {0.05, 1, 20} and 0.3, from beta = 0
    # to a beta whose beta*e overflows to weight 0 (and log Z to -inf); then 1000 points
    # on 150 levels, several blocks of the point loop against the copy's one block
    def same(w, M, betas, fermion):
        got = manybody._recursion_levels(w, M, betas, fermion, [w.size])[0]
        want = _level_recursion_fsum_per_point(w, M, betas, fermion)
        assert len(got) == len(want) == M
        for (log_z, u), (want_log_z, want_u) in zip(got, want):
            assert {type(v) for v in log_z + u} == {float}
            assert list(map(float.hex, log_z)) == list(map(float.hex, want_log_z))
            assert list(map(float.hex, u)) == list(map(float.hex, want_u))

    betas = np.array([0.0, 0.01, 0.2, 1.0, 10.0, 200.0, 1e8, 1e308])
    exact = collections.Counter()  # (statistics, whether fsum proves the float G exact)
    for kind, lam, statistics, M, N in itertools.product(
            KINDS, (0.05, 1.0, 20.0, 0.3), ("boson", "fermion"), (1, 2, 3, 5, 8),
            (1, 3, 8, 25)):
        if statistics == "fermion" and M > N:
            continue
        w = level_coefficients(SpectrumSpec(kind, scale_c=lam), N)
        same(w, M, betas, statistics == "fermion")
        ground = w[:M].tolist() if statistics == "fermion" else [w[0].item()] * M
        for k in range(1, M + 1):
            G = math.fsum(ground[:k])
            exact[statistics, math.fsum(ground[:k] + [-G]) == 0] += 1
    assert set(exact) == {(s, e) for s in ("boson", "fermion") for e in (True, False)}
    many = np.geomspace(1e-3, 1e3, 1000)
    assert many.size > 2 * (kernels._BLOCK_ELEMENTS // 151)
    w = level_coefficients(SpectrumSpec("box", scale_c=0.05), 150)
    for fermion in (False, True):
        same(w, 8, many, fermion)


def test_level_recursion_at_every_size_equals_a_pass_over_its_prefix_bit_for_bit():
    # the rows of one pass at each of several sizes n are a pass over w[:n] alone, bit for
    # bit: every kind, both statistics, M in {1, 2, 3}, with N = 1 bosons and N = M
    # fermions (one state) among the sizes. 3000 points from beta = 0 to weight 0 split
    # into more point blocks at 150 levels than at the smallest size
    betas = np.concatenate([[0.0, 1e308], np.geomspace(1e-4, 1e4, 2998)])
    blocks = [len(range(0, betas.size, kernels._BLOCK_ELEMENTS // (n + 1))) for n in (1, 150)]
    assert blocks[0] < blocks[1]
    for (kind, lam), statistics, M in itertools.product(
            zip(KINDS, (0.05, 1.0, 20.0, 0.3)), ("boson", "fermion"), (1, 2, 3)):
        fermion = statistics == "fermion"
        sizes = [M, M + 1, 10, 41, 150] if fermion else [1, 2, 10, 41, 150]
        w = level_coefficients(SpectrumSpec(kind, scale_c=lam), 150)
        got = manybody._recursion_levels(w, M, betas, fermion, sizes)
        assert len(got) == len(sizes)
        for n, rows in zip(sizes, got):
            (want,) = manybody._recursion_levels(w[:n], M, betas, fermion, [n])
            assert len(rows) == len(want) == M
            assert np.array(rows).tobytes() == np.array(want).tobytes()


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
    build = kernels.energy_histograms

    def one_particle_only(g, m, statistics):
        if statistics == "distinguishable" and m >= 2:
            pytest.fail(f"auto enumerated {m} distinguishable particles")
        return build(g, m, statistics)

    for ens in (EnsembleSpec("distinguishable", 3, 4), EnsembleSpec("distinguishable", 2, 7)):
        [(_, single)] = manybody._recursion_levels(level_coefficients(BOX, ens.N), 1,
                                                   np.array([b / L**2.0 for b, L in beta_points]),
                                                   False, [ens.N])[0]
        direct = enumeration_rows(ens, BOX, beta_points)[-1][1]
        for cap in (manybody.DEFAULT_STATE_CAP, 1):
            monkeypatch.setattr(manybody, "DEFAULT_STATE_CAP", cap)
            monkeypatch.setattr(kernels, "energy_histograms", one_particle_only)
            via_auto = internal_energies(ens, BOX, points)
            monkeypatch.undo()
            assert via_auto == [ens.M * (u / L**2.0) for u, (_, L) in zip(single, beta_points)]
            assert via_auto == pytest.approx(direct, rel=1e-13)


def test_enumeration_guard_advises_auto_for_distinguishable_particles(monkeypatch):
    def reached(*args):
        pytest.fail("the memory guard let the enumeration run")

    monkeypatch.setattr(manybody, "level_coefficients", reached)
    # 3 on 4000 box levels: 3 rows of 16e6 k + 1 entries, 96M in all; 30 on 10
    # harmonic levels: 4215 entries, but 1e30 states overflow an int64 count
    for ens, spec in ((EnsembleSpec("distinguishable", 3, 4000), BOX),
                      (EnsembleSpec("distinguishable", 30, 10), HARM)):
        with pytest.raises(ValueError, match=r"table entries; use internal_energies \(M times"):
            enumeration_rows(ens, spec, [(1.0 / 2.0, 1.0)])


def test_enumeration_guard_bounds_table_entries_not_states(monkeypatch):
    # 16.1M states of 5 bosons on 70 box levels are 73 505 histogram entries
    # (sum_k 4900 k + 1), and the oracle counts them
    ens = EnsembleSpec("boson", 5, 70)
    assert ens.state_count == 16_108_764
    (log_z,), (u,) = enumeration_rows(ens, BOX, [(1.0 / 2.0, 1.0)])[-1]
    (level_log_z,), (level_u,) = manybody._recursion_levels(level_coefficients(BOX, 70), 5,
                                                            np.array([0.5]), False, [70])[0][-1]
    assert (log_z, u) == pytest.approx((level_log_z, level_u), rel=1e-13)

    # 8.8M states of 2 bosons on 4200 box levels, below the 50M limit, but
    # 52.9M histogram entries (sum_k 17.64M k + 1) by the guard's measure
    def reached(*args):
        pytest.fail("the memory guard let the enumeration kernel run")

    monkeypatch.setattr(kernels, "energy_histograms", reached)
    ens = EnsembleSpec("boson", 2, 4200)
    assert ens.state_count == 8_822_100
    with pytest.raises(ValueError, match="table entries; use the recursion backend"):
        enumeration_rows(ens, BOX, [(1.0 / 2.0, 1.0)])


def test_enumeration_guard_names_a_count_past_4300_digits():
    # 100000 bosons on 20000 levels are C(119999, 100000) states, 23479 digits: the
    # refusal formatted that count with {} and raised Python's "Exceeds the limit
    # (4300 digits) for integer string conversion" in place of its own message
    ens = EnsembleSpec("boson", 100000, 20000)
    with pytest.raises(ValueError, match=r"^enumerating about 10\^23478 configurations of "
                                         r"100000 particles.* table entries; use the recursion"):
        enumeration_rows(ens, BOX, [(1.0, 1.0)])


def test_fermions_past_half_filling_take_row_m_of_a_rows_build():
    # 38 fermions on 40 levels are 780 states, but the 20-fermion row of their rows
    # build counts 1.4e11: the build, 1.2M histogram entries, gives row 38 as the
    # level recursion does
    ens = EnsembleSpec("fermion", 38, 40)
    points = [(beta, 1.0) for beta in (0.0, 1e-3, 0.1)]
    log_zs, us = enumeration_rows(ens, BOX, points)[-1]
    got_log_zs, got_us = manybody._recursion_levels(level_coefficients(BOX, 40), 38,
                                                    np.array([b for b, _ in points]), True,
                                                    [40])[0][-1]
    assert log_zs[0] == math.log(780)
    assert log_zs == pytest.approx(got_log_zs, rel=1e-13)
    assert us == pytest.approx(got_us, rel=1e-13)


def test_enumeration_with_any_prefactor_matches_the_float_table():
    # the oracle reduces exact integer shapes at c * g; the table of float
    # coefficients c * g(n), summed per state, gives the same to 1e-13. M = N,
    # M = N - 1 and fermions past half filling
    betas = np.array([0.0, 0.01, 0.3, 2.0, 50.0])
    sizes = [(1, 4), (3, 4), (4, 4), (1, 9), (3, 9)]
    for kind, c, statistics, (M, N) in itertools.product(
            KINDS, (0.05, 3.7, 20.0), ("boson", "fermion", "distinguishable"),
            sizes + [(21, 22), (38, 40)]):
        if statistics != "fermion" and (M, N) not in sizes:
            continue
        ens, spec = EnsembleSpec(statistics, M, N), SpectrumSpec(kind, scale_c=c)
        log_zs, us = enumeration_rows(ens, spec, [(b, 1.0) for b in betas])[-1]
        lz_ref, mean_ref = kernels.log_z_and_mean(np.array(brute_coeffs(statistics, M, N, spec)),
                                                  betas)
        # log Z to 1e-13 of max(1, |log Z|): near log Z = 0 both round log(Z) alike
        assert all(abs(a - b) <= 1e-13 * max(1.0, abs(b)) for a, b in zip(log_zs, lz_ref))
        np.testing.assert_allclose(us, mean_ref, rtol=1e-13, atol=0.0)


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
            enumeration_rows(ens, BOX, [(beta, 1.5)])
        return
    (got_log_z,), (got_u,) = enumeration_rows(ens, BOX, [(beta, 1.5)])[-1]
    log_z, u = brute_log_z_u(brute_coeffs(statistics, M, N, BOX), beta, 1.5, 2.0)
    assert got_log_z == pytest.approx(log_z, rel=1e-12, abs=1e-12)
    assert got_u == pytest.approx(u, rel=1e-12, abs=1e-12)


def test_backends_check_every_point_of_a_batch_before_any_kernel_runs(monkeypatch):
    # a mixed point list gives, bit for bit, what each point gives alone
    ens = EnsembleSpec("boson", 2, 4)
    points = [(0.0, 1.0), (0.3, 2.0), (1.0, 1.0), (7.5, 0.8), (1e3, 1.5), (0.01, 3.0)]
    tables = enumeration_rows(ens, BOX, points)
    passes = recursion_rows(ens, BOX, points)
    for i, point in enumerate(points):
        assert enumeration_rows(ens, BOX, [point]) == [([z[i]], [u[i]]) for z, u in tables]
        assert recursion_rows(ens, BOX, [point]) == [([z[i]], [u[i]]) for z, u in passes]

    def reached(*args):
        pytest.fail("a kernel ran before every point was checked")

    for name in ("log_z_and_mean", "energy_histograms"):
        monkeypatch.setattr(kernels, name, reached)
    # the enumeration backend took the first five silently: [nan], log Z = 32,
    # U = 0, ZeroDivisionError and a RuntimeWarning; the last three leave
    # L^p = 0, beta/L^p = inf and beta/L^p = 0 at beta > 0
    bad_points = [(math.nan, 1.0), (-1.0, 1.0), (1.0, math.inf), (1.0, 0.0),
                  (math.inf, 1.0), (1.0, 1e-200), (1.0, 1e-160), (1e-300, 1e100)]
    for backend in (enumeration_rows, recursion_rows):
        for bad in bad_points:
            for at in (0, 3, len(points)):
                with pytest.raises(ValueError):
                    backend(ens, BOX, points[:at] + [bad] + points[at:])
        # 2 * 1e308 * 4^2: the largest many-body energy coefficient overflows
        with pytest.raises(ValueError, match="largest many-body energy"):
            backend(ens, SpectrumSpec("box", scale_c=1e308), points)
    # one call over several columns checks every point of each before any kernel runs,
    # also a point bad for one column alone: L^p overflows at p = 2, not at p = 1
    linear, fermions = SpectrumSpec("relativistic-box"), EnsembleSpec("fermion", 3, 5)
    for bad in bad_points + [(1.0, 1e200)]:
        for columns in ([(ens, linear), (fermions, BOX)], [(fermions, BOX), (ens, linear)]):
            with pytest.raises(ValueError):
                manybody.recursion_columns(columns, points[:3] + [bad] + points[3:])
    with pytest.raises(ValueError, match="largest many-body energy"):
        manybody.recursion_columns([(ens, BOX), (ens, SpectrumSpec("box", scale_c=1e308))],
                                   points)


def test_effective_betas_names_an_L_whose_L_p_overflows():
    # Python's float power raised OverflowError, "(34, 'Numerical result out of range')"
    ens = EnsembleSpec("boson", 2, 3)
    for spec, L in ((BOX, 1e200), (BOX, 1.5e154), (SpectrumSpec("quartic"), 1e240)):
        with pytest.raises(ValueError, match=r"L and L\^p must be positive and finite.*L\^p = inf"):
            manybody.effective_betas(ens, spec, [(1.0, 1.0), (1.0, L)])
    beta_effs, scales = manybody.effective_betas(ens, BOX, [(2.0, 1e150)])
    assert (beta_effs.tolist(), scales.tolist()) == ([2.0 / 1e150**2], [1e150**2])


def test_effective_betas_raises_the_first_check_of_the_first_failing_point():
    # point by point, check by check: beta, L and L^p, beta/L^p, the largest energy
    ens = EnsembleSpec("boson", 2, 3)
    huge = SpectrumSpec("box", scale_c=1e300)  # 1.8e301/L^p overflows at L = 1e-5
    for spec, points, message in (
            (BOX, [(1.0, 1e-160), (1.0, 1e200)], r"beta/L\^p must be finite"),
            (BOX, [(1.0, 1e200), (1.0, 1e-160)], r"L and L\^p must be"),
            (huge, [(1.0, 1e-5), (-1.0, 1.0)], "largest many-body energy"),
            (huge, [(-1.0, 1.0), (1.0, 1e-5)], "inverse temperature must be"),
            (huge, [(1.0, 1.0), (1.0, 1e-160)], r"beta/L\^p must be finite")):
        with pytest.raises(ValueError, match=message):
            manybody.effective_betas(ens, spec, points)
