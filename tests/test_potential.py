import numpy as np
import pytest
from hypothesis import given, strategies as st

from wignerlab.errors import ConfigurationError
from wignerlab.potential import (PotentialProfile, barrier_profile,
                                 potential_difference)


@pytest.fixture
def barrier():
    return barrier_profile()


def test_barrier_value_inside(barrier):
    assert barrier(0.0) == 0.2


def test_barrier_value_outside(barrier):
    assert barrier(10.0) == 0.0


def test_empty_profile_is_default():
    profile = PotentialProfile(segments=())
    assert profile(3.7) == 0.0
    profile = PotentialProfile(segments=(), default_value=0.3)
    assert profile(-12.0) == 0.3


def test_jump_points_average_one_sided_limits(barrier):
    assert barrier(1.5) == pytest.approx(0.1)
    assert barrier(-1.5) == pytest.approx(0.1)


def test_vectorized_evaluation(barrier):
    x = np.array([-10.0, -1.5, 0.0, 1.0, 1.5, 2.0])
    np.testing.assert_allclose(barrier(x), [0.0, 0.1, 0.2, 0.2, 0.1, 0.0])


def test_earlier_segments_shadow_later_ones():
    profile = PotentialProfile(segments=((0.0, 2.0, 1.0), (1.0, 3.0, 5.0)))
    assert profile(1.5) == 1.0
    assert profile(2.5) == 5.0


def test_max_abs(barrier):
    assert barrier.max_abs == 0.2
    profile = PotentialProfile(segments=((0, 1, -0.7),), default_value=0.3)
    assert profile.max_abs == 0.7


def test_malformed_segment_rejected():
    with pytest.raises(ConfigurationError):
        PotentialProfile(segments=((2.0, 1.0, 0.5),))


def test_overflowing_profile_rejected_for_numpy_scalars():
    # 2 max|V| must stay finite; the check itself must not overflow (a
    # RuntimeWarning, an error under the test settings) on a numpy scalar
    with pytest.raises(ConfigurationError):
        PotentialProfile(segments=(), default_value=np.float64(1e308))
    with pytest.raises(ConfigurationError):
        PotentialProfile(segments=((0.0, 1.0, np.float64(-1e308)),))
    assert PotentialProfile((), np.float64(0.3)).max_abs == 0.3


def test_difference_example(barrier):
    # V(2) - V(0) with x=1, y=2
    assert potential_difference(barrier, 1.0, 2.0) == pytest.approx(-0.2)


def test_difference_zero_at_symmetric_point(barrier):
    for y in (0.5, 1.0, 3.0, 17.0):
        assert potential_difference(barrier, 0.0, y) == 0.0


def test_difference_vanishes_at_zero_separation(barrier):
    for x in (-3.0, 0.0, 1.5, 8.0):
        assert potential_difference(barrier, x, 0.0) == 0.0


@given(x=st.floats(-30, 30), y=st.floats(-60, 60))
def test_difference_antisymmetry_exact(x, y):
    barrier = barrier_profile()
    assert potential_difference(barrier, x, -y) == -potential_difference(
        barrier, x, y)


@given(x=st.floats(-30, 30), y=st.floats(-60, 60))
def test_difference_bounded_by_twice_max(x, y):
    barrier = barrier_profile()
    assert abs(potential_difference(barrier, x, y)) <= 2 * barrier.max_abs
