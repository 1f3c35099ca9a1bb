"""Piecewise-constant external potentials and their finite differences.

A potential profile is a list of closed intervals with constant energy
values on top of a constant background.  The quantity the transport
operator actually consumes is the symmetric difference

    D_V(x, y) = V(x + y/2) - V(x - y/2),

which vanishes identically for constant potentials and is odd in y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["PotentialProfile", "barrier_profile", "potential_difference"]


@dataclass(frozen=True)
class PotentialProfile:
    """Piecewise-constant potential on the real line.

    segments: ordered tuple of (a, b, value) with a <= b; earlier entries
        shadow later ones where they overlap.
    default_value: energy outside every segment.

    Evaluation at interior points returns the segment value.  Exactly at a
    jump the profile takes the average of its one-sided limits: that is the
    value every Fourier-based representation of the jump converges to, and
    using it keeps quadrature samples that land on an edge consistent
    between refinement levels.
    """

    segments: tuple[tuple[float, float, float], ...]
    default_value: float = 0.0

    def __post_init__(self) -> None:
        segs = tuple((float(a), float(b), float(v)) for a, b, v in self.segments)
        for a, b, v in segs:
            if not (np.all(np.isfinite((a, b, v))) and a <= b):
                raise ConfigurationError(f"malformed segment ({a}, {b}, {v})")
        if not np.isfinite(self.default_value):
            raise ConfigurationError(
                f"non-finite default value {self.default_value}")
        object.__setattr__(self, "segments", segs)
        if self.max_abs > np.finfo(float).max / 2:  # D_V, means at jumps
            raise ConfigurationError(f"|V| up to {self.max_abs} overflows D_V")

    @property
    def max_abs(self) -> float:
        """Largest |V| attained anywhere on the real line."""
        vals = [abs(v) for _, _, v in self.segments]
        vals.append(abs(self.default_value))
        return max(vals)

    def _one_sided(self, x: np.ndarray, side: int) -> np.ndarray:
        """Limit of V at x from the left (side=-1) or right (side=+1).

        A point t slightly left of x lies in (a, b) iff a < x <= b; slightly
        right of x iff a <= x < b.  First matching segment wins.
        """
        out = np.full(x.shape, self.default_value, dtype=float)
        taken = np.zeros(x.shape, dtype=bool)
        for a, b, v in self.segments:
            if side < 0:
                hit = (x > a) & (x <= b) & ~taken
            else:
                hit = (x >= a) & (x < b) & ~taken
            out[hit] = v
            taken |= hit
        return out

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        val = 0.5 * (self._one_sided(x, -1) + self._one_sided(x, +1))
        return val[0] if scalar else val


def barrier_profile(height: float = 0.2,
                    half_width: float = 1.5) -> PotentialProfile:
    """Square barrier of the given height centered at x = 0."""
    return PotentialProfile(segments=((-half_width, half_width, height),))


def potential_difference(profile: PotentialProfile, x, y) -> np.ndarray:
    """D_V(x, y) = V(x + y/2) - V(x - y/2); odd in y, zero for constant V."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return profile(x + y / 2) - profile(x - y / 2)
