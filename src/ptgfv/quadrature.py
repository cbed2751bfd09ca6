"""The fixed quadrature rule on the reference triangle.

The rule is an embedded constant table, normalized so the weights sum to 1,
that self-tests its declared polynomial exactness degree at construction.
It is the symmetric 12-point rule of degree 6: the quartic products of the
divergence-profile solve integrate exactly, and degree 6 is what the error
norms need.  Every cell integral of the package uses this one rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["TriangleRule", "triangle_rule"]

_REFERENCE_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _monomial_over_reference(a: int, b: int) -> float:
    # int_T x^a y^b over the unit reference triangle
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@dataclass(frozen=True)
class TriangleRule:
    """Barycentric nodes and weights on the reference triangle; weights sum to 1."""

    points: np.ndarray   # (nq, 3) barycentric coordinates
    weights: np.ndarray  # (nq,)
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if abs(self.weights.sum() - 1.0) > 1e-14:
            raise ValueError("triangle rule weights must sum to 1")
        x = self.points @ _REFERENCE_TRIANGLE
        for d in range(self.degree + 1):
            for a in range(d + 1):
                b = d - a
                exact = _monomial_over_reference(a, b)
                approx = 0.5 * float(self.weights @ (x[:, 0] ** a * x[:, 1] ** b))
                if abs(approx - exact) > 1e-13:
                    raise ValueError(
                        f"triangle rule fails exactness for x^{a} y^{b}: "
                        f"{approx} vs {exact}"
                    )
        self.points.flags.writeable = False
        self.weights.flags.writeable = False


def _dunavant6() -> TriangleRule:
    # Symmetric degree-6 rule: two 3-point orbits and one 6-point orbit.
    orbits3 = [
        (0.501426509658179, 0.249286745170910, 0.116786275726379),
        (0.873821971016996, 0.063089014491502, 0.050844906370207),
    ]
    orbit6 = (0.053145049844817, 0.310352451033784, 0.082851075618374)
    points, weights = [], []
    for a, b, w in orbits3:
        for bary in ((a, b, b), (b, a, b), (b, b, a)):
            points.append(bary)
            weights.append(w)
    a, b, w = orbit6
    c = 1.0 - a - b
    for bary in sorted(set(itertools.permutations((a, b, c)))):
        points.append(bary)
        weights.append(w)
    return TriangleRule(np.array(points), np.array(weights), degree=6)


_TRIANGLE_RULE = _dunavant6()


def triangle_rule() -> TriangleRule:
    """The symmetric triangle rule of degree 6 that every cell integral uses."""
    return _TRIANGLE_RULE
