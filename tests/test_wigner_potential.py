import importlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from wignerlab.errors import ConfigurationError
from wignerlab.potential import (PotentialProfile, barrier_profile,
                                 potential_difference)
from wignerlab.wigner_potential import QuadratureSpec, wigner_potential


@pytest.fixture
def barrier():
    return barrier_profile()


@pytest.fixture
def quad():
    return QuadratureSpec(l_y=31, dy=0.5)


class TestQuadratureSpec:
    def test_node_count(self, quad):
        assert quad.n_y == 62

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            QuadratureSpec(l_y=-1.0, dy=0.5)
        with pytest.raises(ConfigurationError):
            QuadratureSpec(l_y=4.0, dy=0.0)

    def test_non_integral_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            QuadratureSpec(l_y=1.0, dy=0.3)


def _oracle(profile, x, v, quad):
    """The same finite sum, evaluated with 50-digit arithmetic."""
    with mpmath.workdps(50):
        dy = mpmath.mpf(quad.dy)
        acc = mpmath.mpf(0)
        for j in range(1, quad.n_y + 1):
            y = j * dy
            dv = mpmath.mpf(float(profile(float(x + y / 2)))) - mpmath.mpf(
                float(profile(float(x - y / 2))))
            acc += dv * mpmath.sin(y * mpmath.mpf(v))
        return float(-acc * dy / mpmath.pi)


def test_matches_extended_precision_oracle(barrier, quad):
    got = wigner_potential(barrier, 10.0, 0.5, quad)
    want = _oracle(barrier, 10.0, 0.5, quad)
    assert got == pytest.approx(want, rel=1e-12)


def test_oracle_on_more_points(barrier, quad):
    for x in (0.7, 2.0, 9.5):
        for v in (0.1, -1.3, 2.9):
            got = wigner_potential(barrier, x, v, quad)
            want = _oracle(barrier, x, v, quad)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-15)


def test_zero_potential_gives_zero(quad):
    profile = PotentialProfile(segments=())
    v = np.linspace(-3, 3, 11)
    np.testing.assert_array_equal(wigner_potential(profile, 1.0, v, quad), 0.0)


def test_symmetric_point_gives_zero(barrier, quad):
    v = np.linspace(-3, 3, 11)
    np.testing.assert_array_equal(wigner_potential(barrier, 0.0, v, quad), 0.0)


def test_zero_velocity_is_exactly_zero(barrier, quad):
    assert wigner_potential(barrier, 10.0, 0.0, quad) == 0.0


@given(v=st.floats(-10, 10), x=st.floats(-20, 20))
def test_odd_in_velocity(v, x):
    barrier = barrier_profile()
    quad = QuadratureSpec(l_y=8, dy=1.0)
    plus = wigner_potential(barrier, x, v, quad)
    minus = wigner_potential(barrier, x, -v, quad)
    assert abs(plus + minus) <= 1e-14


def test_linear_in_profile_values(quad):
    base = barrier_profile(height=0.2)
    scaled = barrier_profile(height=0.6)
    v = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(wigner_potential(scaled, 10.0, v, quad),
                               3 * wigner_potential(base, 10.0, v, quad),
                               rtol=1e-14, atol=1e-300)


def test_bound(barrier, quad):
    bound = (1 / np.pi) * quad.n_y * quad.dy * 2 * barrier.max_abs
    v = np.linspace(-20, 20, 401)
    for x in (-2.0, 1.0, 10.0):
        assert np.abs(wigner_potential(barrier, x, v, quad)).max() <= bound


def _per_offset_reference(profile, x, v, quad):
    """The sum with one scalar D_V evaluation per offset, in ascending j,
    skipping zero terms: the arithmetic `wigner_potential` must reproduce
    bit for bit."""
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    acc = np.zeros(v.shape, dtype=float)
    for j in range(1, quad.n_y + 1):
        dv_j = potential_difference(profile, x, j * quad.dy)
        if dv_j != 0.0:
            acc += dv_j * np.sin((j * quad.dy) * v)
    out = -(quad.dy / np.pi) * acc
    return out[0] if scalar else out


# difference lattice k*dv of a 128-point velocity mesh with R_h = 32
LATTICE = np.arange(-127, 128) * (np.pi / 32)
OVERLAPPING = PotentialProfile(segments=((-2.0, 1.0, 0.3), (0.0, 3.0, -0.1)),
                               default_value=0.05)


@pytest.mark.parametrize("profile,x,v", [
    (barrier_profile(), 0.7, LATTICE),  # inside the barrier
    (barrier_profile(), 1.5, LATTICE),  # exactly at a jump
    (barrier_profile(), 40.0, LATTICE),  # beyond reach: all zero
    (OVERLAPPING, 0.5, LATTICE),
    (OVERLAPPING, -2.0, -LATTICE[::7]),
    (barrier_profile(), 10.0, 0.5),  # scalar velocity
], ids=["inside", "jump", "far", "overlap", "overlap-jump", "scalar"])
def test_matches_per_offset_reference_bitwise(profile, x, v, quad):
    got = wigner_potential(profile, x, v, quad)
    want = _per_offset_reference(profile, x, v, quad)
    assert np.ndim(got) == np.ndim(want)
    assert np.array_equal(got, want)
    if x == 40.0:
        assert not np.any(got)


def test_one_potential_evaluation_per_call(barrier, quad, monkeypatch):
    calls = []

    def counting(profile, x, y):
        calls.append(np.shape(y))
        return potential_difference(profile, x, y)

    # patch the name where `wigner_potential` looks it up
    module = importlib.import_module("wignerlab.wigner_potential")
    monkeypatch.setattr(module, "potential_difference", counting)
    wigner_potential(barrier, 0.7, LATTICE, quad)
    assert calls == [(quad.n_y,)]
