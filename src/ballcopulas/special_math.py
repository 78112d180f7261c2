"""Scalar building blocks for the copula closed forms.

Everything here is a pure function of plain floats.  The geometric setting
is the centered square ``C2 = [-1, 1]^2`` (and cube ``C3``), the closed unit
disk, and spherical caps on the unit sphere.

The central quantity is :func:`alpha`, the quadrant-mass correction that
turns the linear part ``(x + y + 1) / 4`` into the exact joint CDF of the
circularly symmetric distribution on the disk with uniform marginals.  Its
skew generalization :func:`alpha_gamma` plays the same role for the sheared
(elliptical-support) family, and :func:`delta3` aggregates pairwise alpha
terms for the three-dimensional model.
"""

from __future__ import annotations

import math

from .errors import DomainError, PreconditionError

__all__ = [
    "alpha",
    "alpha_gamma",
    "cap_intersection_area",
    "delta3",
    "h_identity",
    "sigma",
]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


def sigma(w: float) -> int:
    """Sign of ``w`` as an integer, with ``sigma(0) == 0``."""
    if not math.isfinite(w):
        raise DomainError(f"sigma: argument must be finite, got {w!r}")
    if w > 0.0:
        return 1
    if w < 0.0:
        return -1
    return 0


def _max(a, b):
    # max(a, b) as the builtin chooses: a unless b > a, so a tie between 0.0
    # and -0.0 keeps a, and so does a NaN b.  On Python 3.11 the builtin,
    # which parses its arguments as an iterable, costs two to three times as
    # much.
    return b if b > a else a


def _min(a, b):
    # min(a, b) as the builtin chooses: a unless b < a.
    return b if b < a else a


def _check_square(x: float, y: float, context: str) -> None:
    if not (abs(x) <= 1.0 and abs(y) <= 1.0):
        raise DomainError(f"{context}: point ({x!r}, {y!r}) outside [-1, 1]^2")


def _check_cube3(x: float, y: float, z: float, context: str) -> None:
    if not (abs(x) <= 1.0 and abs(y) <= 1.0 and abs(z) <= 1.0):
        raise DomainError(f"{context}: point ({x!r}, {y!r}, {z!r}) outside [-1, 1]^3")


def _check_gamma(gamma: float) -> None:
    if not (-_HALF_PI < gamma < _HALF_PI):
        raise DomainError(
            f"skew angle must lie in the open interval (-pi/2, pi/2), got {gamma!r}"
        )


# The private kernels below, and the copulas kernels built on them, take
# their elementwise primitives as default arguments: scalar callers get
# math.sqrt, _max (a conditional expression that chooses as the builtin max
# does, and costs less on Python 3.11), math.atan2, sigma and a tuple index,
# and the array paths of copulas.evaluate and the verify suite pass
# elementwise equivalents that round and choose the same way, so both paths
# run one expression and agree bit for bit.  Arithmetic and the builtin abs
# serve both paths as they are.


def _atan2_sum(u, v, a, b, c, w, atan2=math.atan2):
    # (u*atan2(a, w) + v*atan2(b, w) - atan2(c, w)) / (2*pi).  Each atan2 is
    # divided by pi/2 before it is weighted, so at w = 0 the quotients are
    # exactly +-1 or 0 and the linear continuation comes out exact.
    return (
        u * (atan2(a, w) / _HALF_PI)
        + v * (atan2(b, w) / _HALF_PI)
        - atan2(c, w) / _HALF_PI
    ) / 4.0


def alpha(x: float, y: float) -> float:
    """Quadrant-mass correction of the disk copula on ``C2``.

    One expression on the whole square: with
    ``w = sqrt(max(0, 1 - (x^2 + y^2)))``,

        ``(x*atan2(y, w) + y*atan2(x, w) - atan2(x*y, w)) / (2*pi)``.

    Inside the disk this is the three-arcsin form, since
    ``asin(y/sqrt(1-x^2)) = atan2(y, w)`` and
    ``asin(x*y/sqrt((1-x^2)(1-y^2))) = atan2(x*y, w)``, without the
    divisions whose rounding arcsin magnifies near the circle.  On and
    outside the circle ``w = 0`` and the same expression is exactly the
    linear continuation ``sigma(x*y) * (|x| + |y| - 1) / 4``.  Symmetric
    bit for bit, and ``alpha(e*x, d*y) == e*d*alpha(x, y)`` for
    ``e, d = +-1``.
    """
    _check_square(x, y, "alpha")
    return _alpha(x, y)


def _alpha(x, y, sqrt=math.sqrt, maximum=_max, atan2=math.atan2):
    w = sqrt(maximum(0.0, 1.0 - (x * x + y * y)))
    return _atan2_sum(x, y, y, x, x * y, w, atan2)


def delta3(x: float, y: float, z: float) -> float:
    """Sum of :func:`alpha` over the three coordinate pairs.

    The pair that leaves out the middle value is added to the sum of the
    other two, with ties ordered as ``sorted`` orders them.  So all six
    permutations of ``(x, y, z)`` return bit-identical values, and
    ``delta3(-x, -y, -z) == delta3(x, y, z)`` bit for bit.
    """
    _check_cube3(x, y, z, "delta3")
    return _delta3(x, y, z, (_alpha(y, z), _alpha(x, z), _alpha(x, y)))


def _middle(x, y, z):
    # Position of the middle value of (x, y, z) in sorted()'s stable order,
    # where of two equal values (0.0 and -0.0 compare equal) the earlier
    # argument goes first.  y is in the middle when exactly one of x and z
    # goes before it, z when exactly one of x and y does.  The same
    # expression runs on floats and on numpy arrays.
    return ((x <= y) != (z < y)) + 2 * ((x <= z) != (y <= z))


def _pick(index, options):
    return options[index]


def _delta3(x, y, z, pairs, choose=_pick):
    # delta3 from its pair alphas, pairs[k] being alpha of the two
    # coordinates other than k.  Over the sorted (a, b, c) the sum is
    # alpha(a, c) + (alpha(a, b) + alpha(b, c)): the pair without the middle
    # value plus the other two, which add the same in either order.  Summing
    # in that order makes delta3 even bit for bit, since negating all three
    # arguments swaps (a, b) with (b, c) and keeps (a, c).
    yz, xz, xy = pairs
    return choose(_middle(x, y, z), (yz + (xz + xy), xz + (yz + xy), xy + (yz + xz)))


def alpha_gamma(gamma: float, u: float, v: float) -> float:
    """Skewed generalization of :func:`alpha` for the sheared family.

    One expression on the whole square: with ``sg = sin(gamma)`` and
    ``w = sqrt(max(0, cos^2(gamma) - (u^2 + v^2 - 2*u*v*sg)))``,

        ``(u*atan2(v - u*sg, w) + v*atan2(u - v*sg, w)
          - atan2(u*v - sg, w)) / (2*pi)``.

    On the support ellipse this is the three-arcsin form, e.g.
    ``asin((v - u*sg)/(cos(gamma)*sqrt(1-u^2))) = atan2(v - u*sg, w)``,
    without its divisions; off the ellipse ``w = 0`` and the same expression
    is exactly the linear value of the corner region beyond the chord
    that cuts that corner off.  ``1 - sg`` enters as ``cos^2(gamma)/(1 + sg)``
    so the corners stay right where ``sg`` rounds to 1, and negative angles
    use ``alpha_gamma(-gamma, -u, v) == -alpha_gamma(gamma, u, v)``.
    ``alpha_gamma(0.0, u, v)`` reproduces ``alpha(u, v)`` bit for bit.
    """
    _check_gamma(gamma)
    _check_square(u, v, "alpha_gamma")
    return _alpha_gamma(gamma, u, v)


def _alpha_gamma(gamma, u, v, sqrt=math.sqrt, maximum=_max, atan2=math.atan2):
    if gamma == 0.0:
        return _alpha(u, v, sqrt, maximum, atan2)
    sign = -1.0 if gamma < 0.0 else 1.0
    u, d, w2 = _support_discriminant(gamma, u, v)
    a = (v - u) + u * d
    b = (u - v) + v * d
    c = (u * v - 1.0) + d
    return sign * _atan2_sum(u, v, a, b, c, sqrt(maximum(0.0, w2)), atan2)


def _support_discriminant(gamma: float, u, v):
    # (u, d, w2) in the frame reflected to gamma >= 0, where a negative angle
    # maps (gamma, u, v) to (-gamma, -u, v).  d = 1 - sin(gamma) enters as
    # cos^2(gamma)/(1 + sin(gamma)), which stays right where sin(gamma)
    # rounds to 1.  w2 = cos^2(gamma) - (u^2 + v^2 - 2*u*v*sin(gamma)),
    # positive inside the support ellipse, is computed as
    # cos^2(gamma)*(1-v)(1+v) - b^2 with b = (u - v) + v*d = u - v*sin(gamma),
    # which does not cancel near the corners where the ellipse touches the
    # square.  At gamma = 0 it is the disk's own 1 - (u^2 + v^2).
    if gamma == 0.0:
        return u, 1.0, 1.0 - (u * u + v * v)
    if gamma < 0.0:
        gamma, u = -gamma, -u
    cg2 = math.cos(gamma) ** 2
    d = cg2 / (1.0 + math.sin(gamma))
    b = (u - v) + v * d
    return u, d, cg2 * ((1.0 - v) * (1.0 + v)) - b * b


def h_identity(x: float, y: float) -> float:
    """Three-arcsin sum that is identically ``pi/2`` on its domain.

    With ``w = sqrt(1 - (x^2 + y^2))``,

        ``atan2(x*y, w) + atan2(x*w, y) + atan2(y*w, x)``,

    the sum ``asin(x*y/(cx*cy)) + asin(x*w/(cx*r)) + asin(y*w/(cy*r))``
    with ``cx = sqrt(1-x^2)``, ``cy = sqrt(1-y^2)`` and
    ``r = sqrt(x^2 + y^2)``, term by term and without its divisions, since
    ``(cx*cy)^2 - (x*y)^2 = w^2``, ``(cx*r)^2 - (x*w)^2 = y^2`` and
    ``(cy*r)^2 - (y*w)^2 = x^2``.  Tests hold it within 1e-12 of ``pi/2``.
    Domain: ``0 <= x, y <= 1``, ``0 < x^2 + y^2 < 1``.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError(f"h_identity: ({x!r}, {y!r}) outside [0, 1]^2")
    s = x * x + y * y
    if s <= 0.0 or s >= 1.0:
        raise DomainError(
            f"h_identity requires 0 < x^2 + y^2 < 1, got x^2 + y^2 = {s!r}"
        )
    return _h_identity(x, y)


def _h_identity(x, y, sqrt=math.sqrt, atan2=math.atan2):
    w = sqrt(1.0 - (x * x + y * y))
    return atan2(x * y, w) + atan2(x * w, y) + atan2(y * w, x)


def cap_intersection_area(r1: float, r2: float, d: float) -> float:
    """Area of the lens where two spherical caps on the unit sphere overlap.

    ``r1`` and ``r2`` are the angular radii of the caps and ``d`` the
    angular distance between their centers.  Only the single-lens
    configuration is supported:

        ``0 < r1, r2 <= pi/2``  and  ``|r1 - r2| < d <= r1 + r2``.

    Nested caps (``d <= |r1 - r2|``) and disjoint caps (``d > r1 + r2``)
    are rejected.  The result lies in ``[0, 2*pi]``.  The lens is
    ``4*sin(r1/2)^2*A1 + 4*sin(r2/2)^2*A2 - 2*E``, two sectors less twice
    the triangle with sides ``r1``, ``r2`` and ``d`` between the centers
    and a lens corner: its angles ``A1``, ``A2`` at the centers come from
    the half-angle formula as atan2 of two square roots, its excess ``E``
    from L'Huilier's theorem.  Against the exact lens of the float
    arguments the error is at most ``1e-14*area + 2e-15*r1*r2`` for radii
    of at least 1e-150; the radii are ordered at entry, so swapping them
    gives the same bits.
    """
    for name, val in (("r1", r1), ("r2", r2), ("d", d)):
        if not math.isfinite(val):
            raise PreconditionError(f"cap_intersection_area: {name} must be finite")
    if not (0.0 < r1 <= _HALF_PI and 0.0 < r2 <= _HALF_PI):
        raise PreconditionError(
            f"cap radii must lie in (0, pi/2], got r1={r1!r}, r2={r2!r}"
        )
    if not (abs(r1 - r2) < d <= r1 + r2):
        raise PreconditionError(
            "caps must overlap in a single lens: require |r1 - r2| < d <= r1 + r2, "
            f"got r1={r1!r}, r2={r2!r}, d={d!r}"
        )
    if r1 > r2:
        r1, r2 = r2, r1
    # Differences taken from the sides stay accurate; s - d can round below 0 at the tangent.
    s, s1, s2 = (r1 + r2 + d) / 2.0, ((r2 - r1) + d) / 2.0, (d - (r2 - r1)) / 2.0
    sd = _max(((r1 - d) + r2) / 2.0, 0.0)
    sin_s, sin_1, sin_2, sin_d = math.sin(s), math.sin(s1), math.sin(s2), math.sin(sd)
    a1 = 2.0 * math.atan2(math.sqrt(sin_1 * sin_d), math.sqrt(sin_s * sin_2))
    a2 = 2.0 * math.atan2(math.sqrt(sin_2 * sin_d), math.sqrt(sin_s * sin_1))
    # tan(E/4) from its four tangents in pairs, which underflow only after the lens does.
    tan_e4 = math.sqrt(math.tan(s / 2.0) * math.tan(s1 / 2.0))
    tan_e4 *= math.sqrt(math.tan(s2 / 2.0) * math.tan(sd / 2.0))
    h1, h2 = math.sin(r1 / 2.0), math.sin(r2 / 2.0)
    area = 4.0 * (h1 * h1) * a1 + 4.0 * (h2 * h2) * a2 - 8.0 * math.atan(tan_e4)
    return _min(_max(area, 0.0), _TWO_PI)
