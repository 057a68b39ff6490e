"""Observation weights: one family, indexed by the trimming threshold alpha.

The estimator downweights observations by ``w(u) = e^{-u}`` and trims them
entirely once ``e^{-u}`` falls to a threshold ``alpha``, i.e. once the squared
Mahalanobis distance ``u`` reaches ``ln(1/alpha)``.  The product ``w(u) * u``
is the effective per-observation factor in the reweighted scatter update; it
is bounded by ``1/e`` and vanishes outside the trimming ball, which is what
keeps the influence of far-away points bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightSpec:
    """Weight-family configuration: the trimming threshold alone.

    alpha : trimming threshold in (0, 1); weights below it are set to zero.
    """

    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    @property
    def cutoff(self) -> float:
        """Trimming-ball radius ``ln(1/alpha)`` in squared-distance units."""
        return math.log(1.0 / self.alpha)


def weight(u, spec: WeightSpec = WeightSpec()):
    """Evaluate the weight at squared distance ``u`` (scalar or array).

    This is ``e^{-u}`` while ``u < ln(1/alpha)`` and exactly 0 from the
    boundary on (strict inequality, no epsilon band).  This weight defines
    the trimming ball: an observation is active, inside it, exactly when its
    weight is positive (``estimator.in_ball``).
    """
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("squared distance u must be nonnegative")
    # clamped at the cutoff, so exp never underflows (and NaN leaves it),
    # then zeroed from the cutoff on by one multiply; a block of distances
    # costs one array of weights and one of flags
    out = np.fmin(u, spec.cutoff, out=np.empty_like(u))
    np.exp(np.negative(out, out=out), out=out)
    out *= u < spec.cutoff
    return out if out.ndim else float(out)


def weight_product(u, spec: WeightSpec = WeightSpec()):
    """The product ``weight(u) * u``: bounded by 1/e, zero outside the ball."""
    u = np.asarray(u, dtype=float)
    out = weight(u, spec) * u
    return out if np.ndim(out) else float(out)
