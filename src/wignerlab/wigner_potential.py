"""Truncated Wigner potential of a piecewise-constant profile.

The nonlocal kernel of the transport operator is the sine transform of the
potential difference D_V(x, .).  It is approximated by a uniform-weight sum
over the correlation variable, truncated at a cutoff L_y:

    V_w(x, v) = -(1/pi) * sum_{j=1..N_y} D_V(x, j*dy) * sin(j*dy*v) * dy

with N_y = L_y / dy.  The j = 0 term is always zero because D_V(x, 0) = 0,
so the uniform weights coincide with a trapezoidal rule except for the
half-weight at j = N_y; the uniform-weight form is kept deliberately as the
canonical discretization.  D_V is evaluated at all N_y offsets with one
vectorized call; `sine_sum` then adds the nonzero terms in ascending j, so
the floating-point result is reproducible and does not depend on how D_V was
evaluated.  A kernel's sampled `symbol` and `shift`, the dense reference
of the factored velocity operators, come from it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .potential import PotentialProfile, potential_difference

__all__ = ["QuadratureSpec", "live_offsets", "sine_sum", "wigner_potential"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Correlation-integral truncation: cutoff L_y and step dy.

    L_y / dy must be a positive integer (the number of quadrature nodes).
    """

    l_y: float
    dy: float

    def __post_init__(self) -> None:
        if not (self.l_y > 0 and self.dy > 0):
            raise ConfigurationError(
                f"quadrature parameters must be positive, got "
                f"L_y={self.l_y}, dy={self.dy}")
        ratio = self.l_y / self.dy
        if (not np.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9
                or round(ratio) < 1):
            raise ConfigurationError(
                f"L_y/dy must be a positive integer, got "
                f"{self.l_y}/{self.dy} = {ratio}")

    @property
    def n_y(self) -> int:
        """Number of quadrature nodes j = 1 .. N_y."""
        return int(round(self.l_y / self.dy))

    @property
    def offsets(self) -> np.ndarray:
        """The quadrature nodes y_j = j*dy, j = 1 .. N_y."""
        return np.arange(1, self.n_y + 1) * self.dy


def live_offsets(d_v: np.ndarray) -> np.ndarray:
    """The live offsets of stacked differences d_v[..., j-1] = D_V(x, j*dy):
    the ascending indices j-1 where D_V is nonzero at some node.  A term of
    the sine sum at any other offset is zero at every node."""
    return np.flatnonzero(np.any(d_v.reshape(-1, d_v.shape[-1]), axis=0))


def sine_sum(d_v: np.ndarray, v, dy: float) -> np.ndarray:
    """-(dy/pi) * sum_j d_v[..., j-1] * sin(j*dy*v), in ascending j, over the
    `live_offsets` of d_v; shape d_v.shape[:-1] + v.shape."""
    v = np.asarray(v, dtype=float)
    y = np.arange(1, d_v.shape[-1] + 1) * dy
    acc = np.zeros(d_v.shape[:-1] + v.shape)
    for j in live_offsets(d_v):
        acc += np.multiply.outer(d_v[..., j], np.sin(y[j] * v))
    return -(dy / np.pi) * acc


def wigner_potential(profile: PotentialProfile, x: float, v,
                     quad: QuadratureSpec) -> np.ndarray:
    """Evaluate V_w(x, v; L_y, dy) at one position and one or more velocities.

    Makes one `potential_difference` call for all offsets j*dy and adds one
    sine term per offset where D_V is nonzero.  Odd in v, exactly zero at
    v = 0, and bounded by (1/pi) * N_y * dy * 2 * max|V|.
    """
    out = sine_sum(potential_difference(profile, x, quad.offsets), v, quad.dy)
    return out[()]
