"""Stated accuracy of the circular, spherical and nonlinear CDFs against
50-digit mpmath.

The reference is the same closed form evaluated in mpmath at the exact
value of each float input, so the measured gap is the rounding error of the
float evaluation.  The points are seeded: uniform ones, points near where
the closed form changes (within 1e-12 to 1e-4 of the circle or sphere on
both sides, or within 1e-14 to 1e-2 of the square's edges and corners for
the nonlinear CDF), and points whose coordinates are partly signed zeros
and +-1.
"""

from itertools import product

import mpmath
import numpy as np
import pytest

from ballcopulas import circular_cdf, nonlinear_cdf, spherical_cdf

# The absolute error bound that the three docstrings state.
BOUND = 4.5e-16

_SPECIAL = (-1.0, -0.0, 0.0, 1.0)


def _alpha(x, y):
    w = mpmath.sqrt(max(0, 1 - (x * x + y * y)))
    atan2 = mpmath.atan2
    return (x * atan2(y, w) + y * atan2(x, w) - atan2(x * y, w)) / (2 * mpmath.pi)


def _clamp01(t):
    return min(max(t, 0), 1)


def _circular_exact(x, y):
    return _clamp01((x + y + 1) / 4 + _alpha(x, y))


def _spherical_exact(x, y, z):
    yz, xz, xy = _alpha(y, z), _alpha(x, z), _alpha(x, y)
    val = (1 + x + y + z) / 8 + (yz + xz + xy) / 2
    if x * x + y * y + z * z >= 1:
        # The first-octant tail at (|x|, |y|, |z|), whose pair alphas are the
        # point's own up to sign.
        sx, sy, sz = mpmath.sign(x), mpmath.sign(y), mpmath.sign(z)
        reflected = sy * sz * yz + sx * sz * xz + sx * sy * xy
        val += sx * sy * sz * ((1 - abs(x) - abs(y) - abs(z)) / 8 + reflected / 2)
    return _clamp01(val)


def _nonlinear_exact(u, v):
    if abs(u) == 1 and abs(v) == 1:
        return mpmath.mpf(1 if u > 0 and v > 0 else 0)
    cu, cv = mpmath.sqrt(1 - u * u), mpmath.sqrt(1 - v * v)
    overlap = u * mpmath.atan2(v * cu, cv) + v * mpmath.atan2(u * cv, cu)
    return _clamp01((u + v + 1) / 4 + overlap / (2 * mpmath.pi))


def _near_sphere(rng, count, dim):
    # Random directions scaled to 1 -+ d with log-uniform d; the few that
    # leave the cube are dropped.
    direction = rng.normal(size=(count, dim))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    gap = 10.0 ** rng.uniform(-12.0, -4.0, count) * rng.choice((-1.0, 1.0), count)
    near = direction * (1.0 + gap)[:, None]
    return near[np.all(np.abs(near) <= 1.0, axis=1)]


def _near_edges(rng, count, dim):
    # Points with one coordinate, or about a quarter of them with every
    # coordinate, within a log-uniform 1e-14 to 1e-2 inside an edge.
    near = rng.uniform(-1.0, 1.0, (count, dim))
    edge = np.eye(dim, dtype=bool)[rng.integers(dim, size=count)]
    edge[rng.random(count) < 0.25] = True
    gap = 10.0 ** rng.uniform(-14.0, -2.0, (count, dim))
    near[edge] = (rng.choice((-1.0, 1.0), (count, dim)) * (1.0 - gap))[edge]
    return near


def _points(rng, count, dim, near_boundary=_near_sphere):
    uniform = rng.uniform(-1.0, 1.0, (count, dim))
    near = near_boundary(rng, count, dim)
    mixed = rng.uniform(-1.0, 1.0, (count, dim))
    special = rng.random((count, dim)) < 0.4
    mixed[special] = rng.choice(_SPECIAL, int(special.sum()))
    corners = np.array(list(product(_SPECIAL, repeat=dim)))
    return np.concatenate((uniform, near, mixed, corners)).tolist()


def _worst_error(cdf, exact, points):
    with mpmath.workdps(50):
        return max(
            float(abs(mpmath.mpf(cdf(*p)) - exact(*map(mpmath.mpf, p)))) for p in points
        )


@pytest.mark.parametrize(
    "cdf, exact, dim, count, near_boundary",
    [
        (circular_cdf, _circular_exact, 2, 1500, _near_sphere),
        (spherical_cdf, _spherical_exact, 3, 800, _near_sphere),
        (nonlinear_cdf, _nonlinear_exact, 2, 800, _near_edges),
    ],
    ids=["circular", "spherical", "nonlinear"],
)
def test_cdf_within_stated_bound_of_mpmath(cdf, exact, dim, count, near_boundary):
    points = _points(np.random.default_rng(20261018 + dim), count, dim, near_boundary)
    assert len(points) > 3 * count - count // 2
    assert _worst_error(cdf, exact, points) <= BOUND


def test_reference_gives_known_values():
    # Marginals and centre values, where the exact CDF is a simple fraction.
    cases = [
        (_circular_exact, (0, 0), 0.25),
        (_circular_exact, (1, -0.5), 0.25),
        (_spherical_exact, (0, 0, 0), 0.125),
        (_spherical_exact, (1, 1, -0.5), 0.25),
        (_spherical_exact, (-1, 0.3, 0.2), 0.0),
        (_nonlinear_exact, (0, 0), 0.25),
        (_nonlinear_exact, (1, -0.5), 0.25),
        (_nonlinear_exact, (-0.5, 1), 0.25),
        (_nonlinear_exact, (1, 1), 1.0),
        (_nonlinear_exact, (-1, 1), 0.0),
    ]
    with mpmath.workdps(50):
        for exact, point, value in cases:
            assert abs(exact(*map(mpmath.mpf, point)) - value) < mpmath.mpf(10) ** -45
