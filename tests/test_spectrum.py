import numpy as np
import pytest
from hypothesis import given, strategies as st

from qotto import KINDS, SpectrumSpec, adiabatic_energy_ratio, single_particle_energies

# kind -> (power_p, n_min, first three g values)
EXPECTED_BINDINGS = {
    "box": (2.0, 1, (1, 4, 9)),
    "harmonic": (2.0, 0, (0, 1, 2)),
    "relativistic-box": (1.0, 1, (1, 2, 3)),
    "quartic": (4.0 / 3.0, 1, (1, 4, 9)),
}


@pytest.mark.parametrize("kind", KINDS)
def test_kind_bindings_are_fixed(kind):
    spec = SpectrumSpec(kind)
    p, n_min, gs = EXPECTED_BINDINGS[kind]
    assert spec.power_p == pytest.approx(p, rel=1e-15)
    assert spec.n_min == n_min
    assert tuple(spec.level_shape(n_min + i) for i in range(3)) == gs


def test_box_energies_match_one_four_nine():
    assert single_particle_energies(SpectrumSpec("box"), 3, 1.0).tolist() == [1.0, 4.0, 9.0]


def test_box_single_level_quarter_at_double_width():
    assert single_particle_energies(SpectrumSpec("box"), 1, 2.0).tolist() == [0.25]


def test_harmonic_starts_at_zero():
    assert single_particle_energies(SpectrumSpec("harmonic"), 3, 1.0).tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("kind", KINDS)
def test_energy_count_and_ordering(kind):
    energies = single_particle_energies(SpectrumSpec(kind), 12, 0.7)
    assert energies.shape == (12,)
    diffs = np.diff(energies)
    assert (diffs >= 0).all()
    if kind in ("box", "quartic"):
        assert (diffs > 0).all()


@pytest.mark.parametrize("kind", KINDS)
def test_doubling_scale_doubles_energies_exactly(kind):
    base = single_particle_energies(SpectrumSpec(kind), 6, 1.3)
    doubled = single_particle_energies(SpectrumSpec(kind, scale_c=2.0), 6, 1.3)
    assert (doubled == 2.0 * base).all()


def test_adiabatic_ratio_examples():
    assert adiabatic_energy_ratio(SpectrumSpec("box"), 1.0, 2.0) == 0.25
    for kind in KINDS:
        assert adiabatic_energy_ratio(SpectrumSpec(kind), 1.7, 1.7) == 1.0
    # (1/8)^(4/3) = 1/16, checked against evaluating the levels at both widths
    got = adiabatic_energy_ratio(SpectrumSpec("quartic"), 1.0, 8.0)
    assert got == pytest.approx(1.0 / 16.0, rel=1e-14)
    e_from = single_particle_energies(SpectrumSpec("quartic"), 4, 1.0)
    e_to = single_particle_energies(SpectrumSpec("quartic"), 4, 8.0)
    np.testing.assert_allclose(e_to / e_from, got, rtol=1e-14)


@given(kind=st.sampled_from(KINDS),
       L_from=st.floats(0.05, 20.0),
       L_to=st.floats(0.05, 20.0),
       N=st.integers(1, 20))
def test_uniform_scaling_is_exact(kind, L_from, L_to, N):
    spec = SpectrumSpec(kind)
    ratio = adiabatic_energy_ratio(spec, L_from, L_to)
    before = single_particle_energies(spec, N, L_from)
    after = single_particle_energies(spec, N, L_to)
    np.testing.assert_allclose(after, before * ratio, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("bad", [
    lambda: SpectrumSpec("triangle"),
    lambda: SpectrumSpec("box", scale_c=0.0),
    lambda: SpectrumSpec("box", scale_c=-1.0),
    lambda: SpectrumSpec("box", scale_c=float("inf")),
    lambda: SpectrumSpec("box", scale_c=float("nan")),
    lambda: single_particle_energies(SpectrumSpec("box"), 0, 1.0),
    lambda: single_particle_energies(SpectrumSpec("box"), 3, 0.0),
    lambda: single_particle_energies(SpectrumSpec("box"), 3, -2.0),
    lambda: adiabatic_energy_ratio(SpectrumSpec("box"), 0.0, 1.0),
    lambda: adiabatic_energy_ratio(SpectrumSpec("box"), 1.0, -1.0),
])
def test_invalid_arguments_raise(bad):
    with pytest.raises(ValueError):
        bad()
