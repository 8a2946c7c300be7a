"""Kernel-level checks: the Boltzmann reduction and the state counts match
brute force, and the batched reduction equals one-temperature calls."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qotto import kernels
from qotto.manybody import EnsembleSpec, enumeration_rows
from qotto.spectrum import KINDS, SpectrumSpec


def brute_log_z_mean(w, beta_eff):
    terms = [math.exp(-beta_eff * x) for x in w]
    z = sum(terms)
    return math.log(z), sum(x * t for x, t in zip(w, terms)) / z


@pytest.mark.parametrize("beta_eff", [0.0, 0.3, 2.0])
def test_log_z_and_mean_matches_brute_force(beta_eff):
    rng = np.random.default_rng(7)
    w = np.sort(rng.uniform(0.0, 8.0, size=200))
    (lz,), (mean,) = kernels.log_z_and_mean(w, np.array([beta_eff]))
    lz_ref, mean_ref = brute_log_z_mean(w, beta_eff)
    assert lz == pytest.approx(lz_ref, rel=1e-13)
    assert mean == pytest.approx(mean_ref, rel=1e-13)


def test_log_z_survives_huge_exponents():
    # raw exp(-beta*w) underflows; the shifted sum must stay finite
    w = np.array([100.0, 400.0, 900.0])
    (lz,), (mean,) = kernels.log_z_and_mean(w, np.array([50.0]))
    assert math.isfinite(lz)
    assert lz == pytest.approx(-50.0 * 100.0, abs=1e-9)
    assert mean == pytest.approx(100.0, rel=1e-12)


TUPLES = {"boson": itertools.combinations_with_replacement,
          "fermion": itertools.combinations,
          "distinguishable": lambda levels, k: itertools.product(levels, repeat=k)}


def brute_histogram(g, tuples):
    # {E: number of index tuples whose shapes sum to E}, the row energy_histograms counts
    return Counter(sum(g[i] for i in c) for c in tuples)


def brute_table(kind, statistics, k, n):
    # the float energy of every k-particle state on n levels of shape g
    g = shapes(kind, n).tolist()
    return np.array(sorted(brute_histogram(g, TUPLES[statistics](range(n), k)).elements()),
                    dtype=float)


def nonzero(row):
    return {e: c for e, c in enumerate(row.tolist()) if c}


def shapes(kind, n):
    spec = SpectrumSpec(kind)
    return spec.level_shape(np.arange(spec.n_min, spec.n_min + n, dtype=np.int64))


# each row of one build against brute force: (80, 2) and (25, 4) are 3240 and
# 20 475 multisets, (3, 8) to (4, 12) many particles on few levels
@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (3, 2), (5, 3), (6, 4),
                                 (3, 8), (5, 9), (4, 12), (80, 2), (25, 4)])
def test_multiset_sums_match_itertools(n, m):
    g = shapes("box", n)
    rows = kernels.energy_histograms(g, m, "boson")
    assert [row.dtype for row in rows] == [np.int64] * m
    for k, row in enumerate(rows, 1):
        assert nonzero(row) == brute_histogram(g.tolist(), TUPLES["boson"](range(n), k))


# (25, 6) is 177 100 states; past half filling, (14, 12) to (40, 38), the m-row is
# also the n - m holes on the reversed ladder g_max - g, shifted by sum(g) - (n - m) g_max
@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (5, 3), (6, 6), (8, 4),
                                 (10, 8), (12, 9), (14, 12), (25, 6), (80, 2), (20, 12),
                                 (22, 21), (40, 38)])
def test_subset_sums_match_itertools(n, m):
    g = shapes("box", n)
    rows = kernels.energy_histograms(g, m, "fermion")
    for k, row in enumerate(rows, 1):
        if math.comb(n, k) <= 200_000:
            assert nonzero(row) == brute_histogram(g.tolist(), itertools.combinations(range(n), k))
    if 2 * m <= n:
        return
    holes = kernels.energy_histograms(g[-1] - g[::-1], n - m, "fermion")
    shift = int(g.sum()) - (n - m) * int(g[-1])
    assert ({e + shift: c for e, c in nonzero(holes[-1]).items()} if holes
            else {int(g.sum()): 1}) == nonzero(rows[-1])


@given(g=st.lists(st.integers(0, 40), min_size=1, max_size=12),
       m=st.integers(1, 10), statistics=st.sampled_from(sorted(TUPLES)))
@example(g=[0, 0, 3, 3], m=4, statistics="fermion")
@example(g=[5], m=10, statistics="boson")
@settings(max_examples=60, deadline=None)
def test_state_sums_match_itertools_for_any_coefficients(g, m, statistics):
    # any nonnegative integer shapes, ascending, repeats included
    n, g = len(g), sorted(g)
    assume(statistics != "fermion" or m <= n)
    assume(EnsembleSpec(statistics, m, n).state_count <= 20_000)
    rows = kernels.energy_histograms(np.array(g, dtype=np.int64), m, statistics)
    assert len(rows) == m
    for k, row in enumerate(rows, 1):
        assert nonzero(row) == brute_histogram(g, TUPLES[statistics](range(n), k))


def shifted_log_z_mean(w, beta_eff):
    # the one-temperature numpy arithmetic the batched reduction must keep
    w0 = w.min()
    x = np.exp(-beta_eff * (w - w0))
    s = x.sum()
    return float(-beta_eff * w0 + np.log(s)), float(w0 + ((w - w0) * x).sum() / s)


def test_batched_log_z_and_mean_equals_one_temperature_calls_bit_for_bit():
    # several blocks of rows, and one row larger than a whole block
    rng = np.random.default_rng(11)
    betas = rng.uniform(0.0, 3.0, size=150)
    for size in (1, 7, 1000, 70_000):
        w = np.sort(rng.uniform(1.0, 60.0, size=size))
        lz, mean = kernels.log_z_and_mean(w, betas)
        singles = [kernels.log_z_and_mean(w, betas[i:i + 1]) for i in range(betas.size)]
        assert lz.tolist() == [float(one[0][0]) for one in singles]
        assert mean.tolist() == [float(one[1][0]) for one in singles]
        ref = [shifted_log_z_mean(w, float(b)) for b in betas]
        assert list(zip(lz.tolist(), mean.tolist())) == ref


def test_block_size_moves_no_bit_of_log_z_and_mean(monkeypatch):
    # every row is elementwise or reduced along its own states, so all temperatures in
    # one block give the live blocks' bits, with and without counts
    rng = np.random.default_rng(5)
    betas = np.concatenate([[0.0, 1e-300, 1e300], rng.uniform(0.0, 5.0, size=997)])
    for size in (40, 3000):
        w = np.sort(rng.uniform(-3.0, 80.0, size=size))
        counts = rng.integers(1, 10**6, size=size)
        assert betas.size * size > 2 * kernels._BLOCK_ELEMENTS
        live = [kernels.log_z_and_mean(w, betas, c) for c in (None, counts)]
        with monkeypatch.context() as m:
            m.setattr(kernels, "_BLOCK_ELEMENTS", betas.size * size)
            one = [kernels.log_z_and_mean(w, betas, c) for c in (None, counts)]
        for got, want in zip(live, one):
            for a, b in zip(got, want):
                assert list(map(float.hex, a.tolist())) == list(map(float.hex, b.tolist()))


# every row of one build, for every kind, against brute force; M = N and M = N - 1
@pytest.mark.parametrize("n,m", [(1, 1), (3, 3), (5, 4), (6, 6), (10, 4), (80, 2), (25, 4)])
@pytest.mark.parametrize("statistics, tuples", list(TUPLES.items()))
def test_state_table_rows_are_every_complete_k_table(n, m, statistics, tuples):
    for kind in KINDS:
        g = shapes(kind, n)
        rows = kernels.energy_histograms(g, m, statistics)
        assert len(rows) == m
        for k, row in enumerate(rows, 1):
            assert nonzero(row) == brute_histogram(g.tolist(), tuples(range(n), k))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_multiplicities_reduce_distinct_energies_like_the_full_table(kind, statistics):
    # every level shape is an integer, so a table has far fewer distinct energies
    ens = EnsembleSpec(statistics, 4, 12)
    table = brute_table(kind, statistics, 4, 12)
    levels, counts = np.unique(table, return_counts=True)
    assert levels.size < table.size
    # the nonzero entries of the exact integer histogram are np.unique's
    row = kernels.energy_histograms(shapes(kind, 12), 4, statistics)[-1]
    got_levels = np.flatnonzero(row)
    assert got_levels.tolist() == levels.tolist() and row[got_levels].tolist() == counts.tolist()
    betas = np.array([0.0, 0.01, 1.0, 200.0, 1e8])
    lz, mean = kernels.log_z_and_mean(levels, betas, counts)
    lz_ref, mean_ref = kernels.log_z_and_mean(table, betas)
    np.testing.assert_allclose(lz, lz_ref, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mean, mean_ref, rtol=1e-13, atol=0.0)
    assert lz[0] == math.log(ens.state_count)
    # every row of one oracle build against the full float table of its k
    for k, (log_zs, us) in enumerate(enumeration_rows(ens, SpectrumSpec(kind),
                                                      [(b, 1.0) for b in betas]), 1):
        full = brute_table(kind, statistics, k, 12)
        lz_ref, mean_ref = kernels.log_z_and_mean(full, betas)
        np.testing.assert_allclose(log_zs, lz_ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(us, mean_ref, rtol=1e-13, atol=0.0)


def test_one_hole_or_one_particle_on_a_sparse_energy_range():
    # one box particle on 3000 levels: 3000 states up to 9e6, a direct sum over the levels
    g = np.arange(1, 3001, dtype=float) ** 2
    (log_z,), (u,) = enumeration_rows(EnsembleSpec("boson", 1, 3000), SpectrumSpec("box"),
                                      [(1e-6, 1.0)])[-1]
    lz_ref, mean_ref = kernels.log_z_and_mean(g, np.array([1e-6]))
    assert (log_z, u) == pytest.approx((lz_ref[0], mean_ref[0]), rel=1e-13)
    # 2999 box fermions on the same levels are 3000 states, one hole each, but their
    # rows build spans 4e13 histogram entries and passes 2^63 states: the guard refuses it
    with pytest.raises(ValueError, match=r"exceeds 2\^63 states or the limit of 50000000"):
        enumeration_rows(EnsembleSpec("fermion", 2999, 3000), SpectrumSpec("box"), [(1e-6, 1.0)])
