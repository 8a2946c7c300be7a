"""Kernel-level checks: the Boltzmann reduction and the enumeration kernels
match brute force, and the batched reduction equals one-temperature calls."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qotto import kernels
from qotto.manybody import (EnsembleSpec, enumeration_log_z_and_u, enumeration_rows,
                            state_energy_coefficients)
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


def left_to_right_sums(w, combos):
    # Python's sum adds left to right, the order every state energy must keep
    return [sum(w[i] for i in c) for c in combos]


# irrational coefficients and m >= 8 expose any other order of addition, such
# as numpy's pairwise row sum, in the last bits
@pytest.mark.parametrize("n,m", [(1, 1), (3, 1), (3, 2), (5, 3), (6, 4),
                                 (3, 8), (5, 9), (4, 12)])
def test_multiset_sums_match_itertools(n, m):
    w = np.sqrt(np.arange(1, n + 1, dtype=float))
    got = kernels.multiset_sums(w, m)
    ref = left_to_right_sums(w, itertools.combinations_with_replacement(range(n), m))
    assert got.tolist() == ref


# (25, 6) is 177 100 states, above 2^16 rows
@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (5, 3), (6, 6), (8, 4),
                                 (10, 8), (12, 9), (14, 12), (25, 6)])
def test_subset_sums_match_itertools(n, m):
    w = np.log1p(np.arange(0, n, dtype=float))
    got = kernels.subset_sums(w, m)
    ref = left_to_right_sums(w, itertools.combinations(range(n), m))
    assert got.tolist() == ref


@given(w=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
       m=st.integers(1, 10), fermion=st.booleans())
@example(w=[0.5, 1.25, 2.0, 3.5], m=4, fermion=True)
@example(w=[2.5], m=10, fermion=False)
@settings(max_examples=60, deadline=None)
def test_state_sums_match_itertools_for_any_coefficients(w, m, fermion):
    n = len(w)
    assume(not fermion or m <= n)
    if fermion:
        got = kernels.subset_sums(np.array(w), m)
        combos = itertools.combinations(range(n), m)
    else:
        got = kernels.multiset_sums(np.array(w), m)
        combos = itertools.combinations_with_replacement(range(n), m)
    assert got.tolist() == left_to_right_sums(w, combos)


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


@pytest.mark.parametrize("n,m", [(1, 1), (3, 3), (5, 4), (6, 6), (10, 4)])
@pytest.mark.parametrize("statistics, tuples", [
    ("boson", itertools.combinations_with_replacement), ("fermion", itertools.combinations),
    ("distinguishable", lambda levels, k: itertools.product(levels, repeat=k))])
def test_state_table_rows_are_every_complete_k_table(n, m, statistics, tuples):
    # each k-table of a rows build is the k-table of its own build, bit for bit
    w = np.sqrt(np.arange(1, n + 1, dtype=float))
    tables = list(kernels.state_tables(w, m, statistics, rows=True))
    assert len(tables) == m
    for k, table in enumerate(tables, 1):
        assert table.tolist() == left_to_right_sums(w, tuples(range(n), k))
        assert table.tolist() == next(kernels.state_tables(w, k, statistics)).tolist()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_multiplicities_reduce_distinct_energies_like_the_full_table(kind, statistics):
    # every level shape is an integer, so a table has far fewer distinct energies
    ens = EnsembleSpec(statistics, 4, 12)
    table = state_energy_coefficients(ens, SpectrumSpec(kind))
    levels, counts = np.unique(table, return_counts=True)
    assert levels.size < table.size
    # the histogram of the exact integer table, dense here, is np.unique's
    got_levels, got_counts = kernels.distinct_counts(table.astype(np.int64))
    assert table.max() < 4 * table.size
    assert got_levels.tolist() == levels.tolist() and got_counts.tolist() == counts.tolist()
    betas = np.array([0.0, 0.01, 1.0, 200.0, 1e8])
    lz, mean = kernels.log_z_and_mean(levels, betas, counts)
    lz_ref, mean_ref = kernels.log_z_and_mean(table, betas)
    np.testing.assert_allclose(lz, lz_ref, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mean, mean_ref, rtol=1e-13, atol=0.0)
    assert lz[0] == math.log(ens.state_count)
    # every row of one oracle build against the full float table of its k
    for k, (log_zs, us) in enumerate(enumeration_rows(ens, SpectrumSpec(kind),
                                                      [(b, 1.0) for b in betas]), 1):
        full = state_energy_coefficients(EnsembleSpec(statistics, k, 12), SpectrumSpec(kind))
        lz_ref, mean_ref = kernels.log_z_and_mean(full, betas)
        np.testing.assert_allclose(log_zs, lz_ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(us, mean_ref, rtol=1e-13, atol=0.0)


def test_distinct_counts_never_allocates_a_sparse_range(monkeypatch):
    # 2999 box fermions on 3000 levels: 3000 states whose energies reach 9e9,
    # and one box particle on the same levels: 3000 states up to 9e6
    def dense(*args, **kwargs):
        pytest.fail("np.bincount ran over a sparse range")

    monkeypatch.setattr(np, "bincount", dense)
    g = np.arange(1, 3001, dtype=float) ** 2
    for ens, sign, offset in ((EnsembleSpec("fermion", 2999, 3000), -1.0, g.sum()),
                              (EnsembleSpec("boson", 1, 3000), 1.0, 0.0)):
        # one hole, or one particle, per state: a direct sum over the levels
        (log_z,), (u,) = enumeration_log_z_and_u(ens, SpectrumSpec("box"), [(1e-6, 1.0)])
        lz_ref, mean_ref = kernels.log_z_and_mean(offset + sign * g, np.array([1e-6]))
        assert (log_z, u) == pytest.approx((lz_ref[0], mean_ref[0]), rel=1e-13)
    table = np.array([0, 7, 7, 30_000_000], dtype=np.int64)
    levels, counts = kernels.distinct_counts(table)
    assert levels.tolist() == [0, 7, 30_000_000] and counts.tolist() == [1, 2, 1]
