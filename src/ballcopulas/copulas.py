"""The four copula models behind a uniform interface.

Every model is an immutable value with a ``dim``, a ``name``, and the
operations ``pdf`` (where a Lebesgue density exists), ``cdf``, ``survival``,
``in_support`` and ``sample``.  All CDFs are genuine copulas on the centered
cube ``[-1, 1]^dim``: uniform[-1, 1] marginals and nonnegative rectangle
mass.  Every model is unchanged by the joint sign change ``p -> -p``, so
each ``survival`` is the model's CDF at the reflected point.

Models
------
CircularCopula
    The circularly symmetric distribution on the unit disk with uniform
    marginals; density ``1 / (2*pi*sqrt(1 - x^2 - y^2))``.
SphericalCopula
    The uniform distribution on the unit sphere surface in 3-D, the only
    spherically symmetric law on the unit ball with uniform marginals.
    It has no Lebesgue density on the ball; no such model exists in
    dimension four or higher.
EllipticalCopula(gamma)
    The law of ``(X, X*sin(gamma) + Y*cos(gamma))`` for ``(X, Y)`` from the
    circular model; supported on an ellipse inscribed in the square, with
    correlation ``sin(gamma)``.
NonlinearDiskCopula
    The law of ``(X/sqrt(1-Y^2), Y/sqrt(1-X^2))`` for ``(X, Y)`` uniform on
    the disk; uncorrelated but dependent, supported on the whole square.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import ClassVar

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    NotAbsolutelyContinuousError,
)
from .special_math import (
    sigma,
    _HALF_PI,
    _TWO_PI,
    _alpha,
    _alpha_gamma,
    _check_cube3,
    _check_gamma,
    _check_square,
    _delta3,
    _h_identity,
    _pick,
    _support_discriminant,
)

__all__ = [
    "RNG_ALGORITHM",
    "CopulaModel",
    "CircularCopula",
    "SphericalCopula",
    "EllipticalCopula",
    "NonlinearDiskCopula",
    "Rectangle",
    "SampleBatch",
    "cdf_volume",
    "circular_cdf",
    "circular_pdf",
    "circular_survival",
    "ellipse_intersection_area",
    "elliptical_cdf",
    "elliptical_pdf",
    "evaluate",
    "model_from_name",
    "nonlinear_cdf",
    "nonlinear_forward",
    "nonlinear_inverse",
    "nonlinear_pdf",
    "spherical_cdf",
    "spherical_survival",
]

#: Name of the pseudo-random generator used by every sampler.
RNG_ALGORITHM = "PCG64"


def _clamp01(t):
    # min(1.0, max(0.0, t)) in one expression, choosing as the builtins do:
    # -0.0 and NaN give 0.0.
    return (t if t < 1.0 else 1.0) if t > 0.0 else 0.0


def _planar_cdf(u, v, correction, clamp=_clamp01):
    # The linear part of every planar CDF plus the model's correction term.
    return clamp((u + v + 1.0) / 4.0 + correction)


def _density(w2, sqrt=math.sqrt):
    # The circular and elliptical density for a positive support
    # discriminant w2 (1 - x^2 - y^2 on the disk).
    return 1.0 / (_TWO_PI * sqrt(w2))


# ---------------------------------------------------------------------------
# densities and distribution functions
# ---------------------------------------------------------------------------

def circular_pdf(x: float, y: float) -> float:
    """Density of the circular model: ``1/(2*pi*sqrt(1 - x^2 - y^2))`` on the
    open disk, and 0 on the circle and outside (boundary convention)."""
    _check_square(x, y, "circular_pdf")
    w2 = 1.0 - (x * x + y * y)
    if w2 <= 0.0:
        return 0.0
    return _density(w2)


def circular_cdf(x: float, y: float) -> float:
    """Joint CDF of the circular model, ``(x + y + 1)/4 + alpha(x, y)``;
    absolute error <= 4.5e-16."""
    _check_square(x, y, "circular_cdf")
    return _planar_cdf(x, y, _alpha(x, y))


def circular_survival(x: float, y: float) -> float:
    """Tail probability ``P[X > x, Y > y]`` of the circular model.

    Equals ``(1 - x - y)/4 + alpha(x, y)``; computed as
    ``circular_cdf(-x, -y)`` so the sign-symmetry identity holds bit for
    bit.  Zero whenever ``x, y >= 0`` and ``x^2 + y^2 >= 1``.
    """
    _check_square(x, y, "circular_survival")
    return circular_cdf(-x, -y)


def spherical_cdf(x: float, y: float, z: float) -> float:
    """Joint CDF of the spherical model on ``[-1, 1]^3``, absolute error <= 4.5e-16.

    ``(1 + x + y + z)/8 + delta3(x, y, z)/2`` inside the unit ball; on and
    outside the ball the sign-dependent correction
    ``sigma(x)*sigma(y)*sigma(z) * ((1 - |x| - |y| - |z|)/8
    + delta3(|x|, |y|, |z|)/2)`` is added.  Both ``delta3`` terms are summed
    from the same three pair alphas, ``alpha(|p|, |q|)`` being
    ``sigma(p)*sigma(q)*alpha(p, q)``.
    """
    _check_cube3(x, y, z, "spherical_cdf")
    pairs = _alpha(y, z), _alpha(x, z), _alpha(x, y)
    val = _spherical_sum(x, y, z, pairs)
    if x * x + y * y + z * z >= 1.0:
        val += _outside_correction(x, y, z, pairs)
    return _clamp01(val)


def _spherical_sum(x, y, z, pairs, choose=_pick):
    return (1.0 + x + y + z) / 8.0 + _delta3(x, y, z, pairs, choose) / 2.0


def _outside_correction(x, y, z, pairs, sign=sigma, choose=_pick):
    # The first-octant tail at (|x|, |y|, |z|), which is the sum at the
    # reflected point since delta3 is even.  Its pairs are the point's own
    # up to sign, alpha(-|p|, -|q|) == sigma(p)*sigma(q)*alpha(p, q) bit for
    # bit when p, q != 0; a zero coordinate zeroes the whole correction.
    sx, sy, sz = sign(x), sign(y), sign(z)
    yz, xz, xy = pairs
    reflected = sy * sz * yz, sx * sz * xz, sx * sy * xy
    tail = _spherical_sum(-abs(x), -abs(y), -abs(z), reflected, choose)
    return sx * sy * sz * tail


def spherical_survival(x: float, y: float, z: float) -> float:
    """First-octant tail probability ``P[X > x, Y > y, Z > z]``.

    Closed form ``(1 - x - y - z)/8 + delta3(x, y, z)/2`` for
    ``x^2 + y^2 + z^2 < 1``, computed as ``spherical_cdf(-x, -y, -z)``, and
    exactly 0 on and outside the sphere.  Only the first octant is covered
    here; :meth:`SphericalCopula.survival` takes every point of the cube.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and 0.0 <= z <= 1.0):
        raise DomainError(
            f"spherical_survival: ({x!r}, {y!r}, {z!r}) outside the first octant"
        )
    if x * x + y * y + z * z >= 1.0:
        return 0.0
    return spherical_cdf(-x, -y, -z)


def elliptical_pdf(gamma: float, u: float, v: float) -> float:
    """Density of the sheared model, ``1/(2*pi*sqrt(cos^2(gamma) - u^2 - v^2
    + 2*u*v*sin(gamma)))`` on the open support ellipse, 0 elsewhere."""
    _check_gamma(gamma)
    _check_square(u, v, "elliptical_pdf")
    w2 = _support_discriminant(gamma, u, v)[2]
    if w2 <= 0.0:
        return 0.0
    return _density(w2)


def elliptical_cdf(gamma: float, u: float, v: float) -> float:
    """Joint CDF of the sheared model: ``(u + v + 1)/4 + alpha_gamma``."""
    _check_gamma(gamma)
    _check_square(u, v, "elliptical_cdf")
    return _planar_cdf(u, v, _alpha_gamma(gamma, u, v))


def nonlinear_forward(x: float, y: float) -> tuple[float, float]:
    """Map a point of the open unit disk to ``(x/sqrt(1-y^2), y/sqrt(1-x^2))``."""
    if not x * x + y * y < 1.0:
        raise DomainError(
            f"nonlinear_forward: ({x!r}, {y!r}) not in the open unit disk"
        )
    return _nonlinear_forward(x, y)


def nonlinear_inverse(u: float, v: float) -> tuple[float, float]:
    """Inverse of :func:`nonlinear_forward`; rejected at the four corners
    ``(+-1, +-1)`` where the expression degenerates to 0/0."""
    _check_square(u, v, "nonlinear_inverse")
    if u * u == 1.0 and v * v == 1.0:
        raise DomainError("nonlinear_inverse is undefined at the corners (+-1, +-1)")
    return _nonlinear_inverse(u, v)


def _nonlinear_forward(x, y, sqrt=math.sqrt):
    # (x/sqrt(1-y^2), y/sqrt(1-x^2)) on floats or arrays.
    return x / sqrt(1.0 - y * y), y / sqrt(1.0 - x * x)


def _nonlinear_inverse(u, v, sqrt=math.sqrt):
    # (u*sqrt(1-v^2), v*sqrt(1-u^2)) / sqrt(1-u^2 v^2) on floats or arrays.
    a = u * u
    b = v * v
    den = sqrt(1.0 - a * b)
    return u * sqrt(1.0 - b) / den, v * sqrt(1.0 - a) / den


def nonlinear_pdf(u: float, v: float) -> float:
    """Density of the nonlinear-transform model on the square:
    ``sqrt((1-u^2)(1-v^2)) / (pi * (1 - u^2 v^2)^2)``."""
    _check_square(u, v, "nonlinear_pdf")
    if abs(u) == 1.0 and abs(v) == 1.0:
        # Corner points, where 1 - u^2 v^2 = 0; the density vanishes along
        # both square edges.
        return 0.0
    return _nonlinear_density(u, v)


def _nonlinear_density(u, v, sqrt=math.sqrt):
    a = u * u
    b = v * v
    den = 1.0 - a * b
    return sqrt((1.0 - a) * (1.0 - b)) / (math.pi * den * den)


def _overlap_atan2(u, v, sqrt=math.sqrt, atan2=math.atan2):
    # u*asin(v*cu/sqrt(1-u^2 v^2)) + v*asin(u*cv/sqrt(1-u^2 v^2)) without the
    # divisions: 1 - u^2 v^2 = (v*cu)^2 + cv^2 = (u*cv)^2 + cu^2.
    cu = sqrt(1.0 - u * u)
    cv = sqrt(1.0 - v * v)
    return u * atan2(v * cu, cv) + v * atan2(u * cv, cu)


def ellipse_intersection_area(u: float, v: float) -> float:
    """Area of the overlap of the two axis-aligned ellipses
    ``x^2/u^2 + y^2 <= 1`` and ``x^2 + y^2/v^2 <= 1``:

        ``2u*atan2(v*sqrt(1-u^2), sqrt(1-v^2))
          + 2v*atan2(u*sqrt(1-v^2), sqrt(1-u^2))``,

    the arcsin form ``2u*asin(v*sqrt(1-u^2)/sqrt(1-u^2 v^2)) + ...`` without
    its divisions.  Exact on the edges ``u = 0, 1`` and ``v = 0, 1``;
    undefined at ``(1, 1)``.
    """
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise DomainError(f"ellipse_intersection_area: ({u!r}, {v!r}) outside [0, 1]^2")
    if u == 1.0 and v == 1.0:
        raise DomainError("ellipse_intersection_area is undefined at (1, 1)")
    return 2.0 * _overlap_atan2(u, v)


def nonlinear_cdf(u: float, v: float) -> float:
    """Joint CDF of the nonlinear-transform model, absolute error <= 4.5e-16:

        ``(u + v + 1)/4 + (u*atan2(v*sqrt(1-u^2), sqrt(1-v^2))
          + v*atan2(u*sqrt(1-v^2), sqrt(1-u^2))) / (2*pi)``,

    the two-arcsin form (see :func:`ellipse_intersection_area`) without its
    divisions, on the whole square.  At the four corners both ``atan2``
    arguments vanish; they get the continuous limit, 1 at ``(1, 1)`` and 0
    at the others.
    """
    _check_square(u, v, "nonlinear_cdf")
    if abs(u) == 1.0 and abs(v) == 1.0:
        return 1.0 if (u > 0.0 and v > 0.0) else 0.0
    return _planar_cdf(u, v, _overlap_atan2(u, v) / _TWO_PI)


# ---------------------------------------------------------------------------
# model classes
# ---------------------------------------------------------------------------

def _is_integer(value) -> bool:
    # An int or a numpy integer, and not a bool, which is an int in Python.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed: int) -> None:
    if not _is_integer(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def _make_rng(seed: int) -> np.random.Generator:
    _check_seed(seed)
    return np.random.Generator(np.random.PCG64(int(seed)))


class CopulaModel:
    """Common interface of the four models.

    Attributes
    ----------
    dim : int
        Dimension of the cube the copula lives on (2 or 3).
    name : str
        Short identifier: ``circular``, ``spherical``, ``elliptical`` or
        ``nonlinear``.
    """

    dim: int
    name: str

    def pdf(self, *point: float) -> float:
        raise NotImplementedError

    def cdf(self, *point: float) -> float:
        raise NotImplementedError

    def survival(self, *point: float) -> float:
        raise NotImplementedError

    def in_support(self, *point: float, tol: float = 1e-12) -> bool:
        """Whether ``point`` is in the support, widened by ``tol``; the
        coordinates are floats, or arrays that broadcast to a boolean array."""
        raise NotImplementedError

    def sample(self, n: int, seed: int) -> "SampleBatch":
        """Draw ``n`` exact samples, reproducibly from ``seed``.

        One seed is one stream: a batch is a pure function of ``(seed, n)``.
        Callers who parallelize must partition work across disjoint seeds;
        the combined result then does not depend on the worker count.  Each
        exact draw is clipped to the cube, against round-off overshoot.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class SampleBatch:
    """Exact samples from a model plus everything needed to reproduce them.

    ``points`` is an ``(n, dim)`` array stored column-major: the samplers
    write each coordinate into its own contiguous column, which is what the
    checks of :mod:`ballcopulas.oracle` read.
    """

    model: CopulaModel
    seed: int
    points: np.ndarray
    rng_algorithm: ClassVar[str] = RNG_ALGORITHM

    def __len__(self) -> int:
        return self.points.shape[0]


def _sample(model: CopulaModel, n: int, seed: int, draw) -> SampleBatch:
    # The contract every sampler shares: a checked size, one seeded stream,
    # and the model's exact draw clipped to the cube in place.
    if not _is_integer(n) or n < 1:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    points = draw(_make_rng(seed), n)
    np.clip(points, -1.0, 1.0, out=points)
    return SampleBatch(model, int(seed), points)


def _columns(n: int, dim: int) -> np.ndarray:
    # An empty (n, dim) batch stored column by column, for a draw to fill.
    return np.empty((n, dim), order="F")


def _polar(points: np.ndarray, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # Columns 0 and 1 of points set to r*cos(theta) and r*sin(theta).
    np.multiply(r, np.cos(theta), out=points[:, 0])
    np.multiply(r, np.sin(theta), out=points[:, 1])
    return points


def _circular_points(rng: np.random.Generator, n: int) -> np.ndarray:
    # Angle uniform on [0, 2*pi); radius by inverse CDF: P(R <= r) =
    # 1 - sqrt(1 - r^2), hence R = sqrt(1 - W^2) with W uniform on [0, 1).
    theta = rng.uniform(0.0, _TWO_PI, n)
    w = rng.uniform(0.0, 1.0, n)
    r = np.sqrt(1.0 - w * w)
    return _polar(_columns(n, 2), r, theta)


def _sphere_points(rng: np.random.Generator, n: int) -> np.ndarray:
    # The third coordinate of a uniform point on the sphere is itself
    # uniform (the area of a zone is proportional to its height), so
    # (sqrt(1-Z^2)*cos(T), sqrt(1-Z^2)*sin(T), Z) with Z ~ U[-1, 1] and
    # T ~ U[0, 2*pi) is exact.
    points = _columns(n, 3)
    z = points[:, 2]
    z[:] = rng.uniform(-1.0, 1.0, n)
    theta = rng.uniform(0.0, _TWO_PI, n)
    return _polar(points, np.sqrt(1.0 - z * z), theta)


def _sheared_points(gamma: float, rng: np.random.Generator, n: int) -> np.ndarray:
    # (X, X*sin(gamma) + Y*cos(gamma)) for (X, Y) from the circular draw.
    points = _circular_points(rng, n)
    x, y = points.T
    np.add(x * math.sin(gamma), y * math.cos(gamma), out=y)
    return points


def _nonlinear_points(rng: np.random.Generator, n: int) -> np.ndarray:
    # Uniform disk point via R = sqrt(W), then the coordinate-wise
    # rescaling u = x/sqrt(1-y^2), v = y/sqrt(1-x^2) of _nonlinear_forward,
    # done in place.
    theta = rng.uniform(0.0, _TWO_PI, n)
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    points = _polar(_columns(n, 2), r, theta)
    x, y = points.T
    cy, cx = np.sqrt(1.0 - y * y), np.sqrt(1.0 - x * x)
    x /= cy
    y /= cx
    return points


@dataclass(frozen=True)
class CircularCopula(CopulaModel):
    dim: ClassVar[int] = 2
    name: ClassVar[str] = "circular"

    def pdf(self, x: float, y: float) -> float:
        return circular_pdf(x, y)

    def cdf(self, x: float, y: float) -> float:
        return circular_cdf(x, y)

    def survival(self, x: float, y: float) -> float:
        return circular_cdf(-x, -y)

    def _pdf_array(self, x, y):
        return _sheared_pdf_array(0.0, x, y)

    def _cdf_array(self, x, y, xy):
        # xy is the pair term alpha(x, y), from evaluate().
        return _planar_cdf(x, y, xy, _clamp01_array)

    def in_support(self, x: float, y: float, tol: float = 1e-12) -> bool:
        return x * x + y * y <= 1.0 + tol

    def sample(self, n: int, seed: int) -> SampleBatch:
        return _sample(self, n, seed, _circular_points)


@dataclass(frozen=True)
class SphericalCopula(CopulaModel):
    """Uniform law on the unit sphere surface, ``dim == 3`` only.

    No spherically symmetric distribution on the unit ball in dimension
    ``d >= 4`` has uniform marginals: uniform[-1, 1] marginals force
    ``E(Z_i^2) = 1/3`` while spherical symmetry on the ball gives
    ``E(Z_i^2) = E(R^2) * E(U_i^2) <= 1/d < 1/3``.  Construction with
    ``dim >= 4`` therefore raises :class:`DimensionError`.

    The law is unchanged by the joint sign change, so ``survival`` is
    ``spherical_cdf(-x, -y, -z)`` on all of ``[-1, 1]^3``.
    """

    dim: int = 3
    name: ClassVar[str] = "spherical"

    def __post_init__(self) -> None:
        if not _is_integer(self.dim):
            raise DomainError(f"dim must be an integer, got {self.dim!r}")
        if self.dim >= 4:
            raise DimensionError(
                f"no spherically symmetric model with uniform marginals exists in "
                f"dimension {self.dim}: uniform[-1, 1] marginals force "
                f"E(Z_i^2) = 1/3, but spherical symmetry on the unit ball gives "
                f"E(Z_i^2) = E(R^2) * E(U_i^2) <= 1/{self.dim} < 1/3"
            )
        if self.dim != 3:
            raise DimensionError(
                f"SphericalCopula requires dim == 3 (got {self.dim}); "
                f"use CircularCopula for the planar case"
            )

    def pdf(self, x: float, y: float, z: float) -> float:
        raise NotAbsolutelyContinuousError(
            "the spherical model is not absolutely continuous: its mass lives on "
            "the unit sphere surface, so no Lebesgue density on the ball exists"
        )

    def cdf(self, x: float, y: float, z: float) -> float:
        return spherical_cdf(x, y, z)

    def survival(self, x: float, y: float, z: float) -> float:
        return spherical_cdf(-x, -y, -z)

    _pdf_array = pdf

    def _cdf_array(self, x, y, z, yz, xz, xy):
        # The scalar form with the outside-the-ball branch as a mask; the
        # pair alphas come from evaluate(), each on the broadcast of its own
        # two coordinates.
        pairs = yz, xz, xy
        val = _spherical_sum(x, y, z, pairs, _pick_exact)
        out = x * x + y * y + z * z >= 1.0
        x, y, z, pairs = x[out], y[out], z[out], [p[out] for p in pairs]
        val[out] += _outside_correction(x, y, z, pairs, _sign_exact, _pick_exact)
        return _clamp01_array(val)

    def in_support(self, x: float, y: float, z: float, tol: float = 1e-12) -> bool:
        return abs(x * x + y * y + z * z - 1.0) <= tol

    def sample(self, n: int, seed: int) -> SampleBatch:
        return _sample(self, n, seed, _sphere_points)


@dataclass(frozen=True)
class EllipticalCopula(CopulaModel):
    gamma: float
    dim: ClassVar[int] = 2
    name: ClassVar[str] = "elliptical"

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)
        # A Python float, so that describe() names the angle alike however
        # it was given.
        object.__setattr__(self, "gamma", float(self.gamma))

    def pdf(self, u: float, v: float) -> float:
        return elliptical_pdf(self.gamma, u, v)

    def cdf(self, u: float, v: float) -> float:
        return elliptical_cdf(self.gamma, u, v)

    def survival(self, u: float, v: float) -> float:
        return elliptical_cdf(self.gamma, -u, -v)

    def _pdf_array(self, u, v):
        return _sheared_pdf_array(self.gamma, u, v)

    def _cdf_array(self, u, v):
        return _planar_cdf(u, v, _alpha_gamma_array(self.gamma, u, v), _clamp01_array)

    def in_support(self, u: float, v: float, tol: float = 1e-12) -> bool:
        return _support_discriminant(self.gamma, u, v)[2] >= -tol

    def sample(self, n: int, seed: int) -> SampleBatch:
        return _sample(self, n, seed, partial(_sheared_points, self.gamma))

    def describe(self) -> str:
        return f"elliptical(gamma={self.gamma!r})"


@dataclass(frozen=True)
class NonlinearDiskCopula(CopulaModel):
    dim: ClassVar[int] = 2
    name: ClassVar[str] = "nonlinear"

    def pdf(self, u: float, v: float) -> float:
        return nonlinear_pdf(u, v)

    def cdf(self, u: float, v: float) -> float:
        return nonlinear_cdf(u, v)

    def survival(self, u: float, v: float) -> float:
        return nonlinear_cdf(-u, -v)

    def _pdf_array(self, u, v):
        return np.where(_nonlinear_corners(u, v), 0.0, _nonlinear_density(u, v, np.sqrt))

    def _cdf_array(self, u, v, overlap):
        # overlap is the pair term _overlap_atan2(u, v), from evaluate().
        val = _planar_cdf(u, v, overlap / _TWO_PI, _clamp01_array)
        upper = np.where((u > 0.0) & (v > 0.0), 1.0, 0.0)
        return np.where(_nonlinear_corners(u, v), upper, val)

    def in_support(self, u: float, v: float, tol: float = 1e-12) -> bool:
        return (abs(u) <= 1.0 + tol) & (abs(v) <= 1.0 + tol)

    def sample(self, n: int, seed: int) -> SampleBatch:
        return _sample(self, n, seed, _nonlinear_points)


def model_from_name(name: str, gamma: float | None = None) -> CopulaModel:
    """Build a model from its CLI name; ``gamma`` is required iff elliptical:
    a missing or superfluous gamma, or an unknown name, raises DomainError."""
    if gamma is not None and name != "elliptical":
        raise DomainError(f"gamma is only valid for the elliptical model, got model {name!r}")
    if name == "circular":
        return CircularCopula()
    if name == "spherical":
        return SphericalCopula()
    if name == "nonlinear":
        return NonlinearDiskCopula()
    if name == "elliptical":
        if gamma is None:
            raise DomainError("the elliptical model requires a gamma value")
        return EllipticalCopula(gamma)
    raise DomainError(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# rectangle mass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle inside the centered cube."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        lower = tuple(float(t) for t in self.lower)
        upper = tuple(float(t) for t in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise DomainError("rectangle corners must have equal dimension")
        if len(lower) not in (2, 3):
            raise DomainError("rectangles are supported in dimension 2 or 3")
        for lo, hi in zip(lower, upper):
            if not (-1.0 <= lo <= hi <= 1.0):
                raise DomainError(
                    f"rectangle must satisfy -1 <= lower <= upper <= 1, got "
                    f"lower={lower!r}, upper={upper!r}"
                )

    @property
    def dim(self) -> int:
        return len(self.lower)


def cdf_volume(model: CopulaModel, rect: Rectangle) -> float:
    """Probability mass of ``rect`` via the alternating corner sum of the CDF.

    This is the d-increasing functional: it must be nonnegative (up to
    round-off) for every rectangle.
    """
    if rect.dim != model.dim:
        raise DomainError(
            f"rectangle dimension {rect.dim} does not match model dimension {model.dim}"
        )
    return _corner_sum(model.cdf, rect.lower, rect.upper)


def _corner_sum(cdf, lower, upper):
    # The alternating sum over the corners in one fixed order.  Given
    # coordinate columns and an array CDF it sums whole columns of
    # rectangles, term by term as the scalar loop does, to the same bits.
    dim = len(lower)
    total = 0.0
    for mask in product((0, 1), repeat=dim):
        term = cdf(*(hi if bit else lo for lo, hi, bit in zip(lower, upper, mask)))
        total += term if (dim - sum(mask)) % 2 == 0 else -term
    return total


# ---------------------------------------------------------------------------
# array evaluation
# ---------------------------------------------------------------------------

# Elements per kernel call of every array pass (_slabs): it bounds a call's
# temporaries, the Python floats of the exact atan2 map among them.
_SLAB = 8192


def evaluate(model: CopulaModel, quantity: str, *coords) -> np.ndarray:
    """Evaluate ``model.pdf``, ``model.cdf`` or ``model.survival`` at many
    points at once.

    ``coords`` are ``model.dim`` array-likes that broadcast together; the
    result is a float array of their broadcast shape.  Every value equals
    the scalar call at the same point bit for bit: the kernels run the
    scalar closed forms' own expressions on arrays (numpy's ``+ - * /`` and
    ``sqrt`` round exactly as Python floats do), ``max`` and ``min`` keep
    Python's choice between 0.0 and -0.0, ``np.where`` picks the
    ``delta3`` term that a tuple index picks, and each ``atan2`` is libm's,
    as ``math.atan2`` is, through a map of ``cmath.phase`` over ``w + a*1j``,
    since ``np.arctan2`` can differ from it in the last bit.  Except in the
    nonlinear CDF, whose ``w`` is zero only on the square's edges, the map
    runs only where its second argument ``w`` is positive, inside the
    support: elsewhere ``w`` is +0.0 and ``atan2(a, +0.0)`` is exactly
    ``copysign(pi/2, a)``, or ``a`` when it is zero.  The kernels run on the
    slabs of one ``np.nditer`` over the coordinates, which are never copied
    to the broadcast shape, so memory is bounded by the output.  Survival is
    the CDF kernel at the reflected point, as in the scalar methods.

    The circular and nonlinear CDFs, and each of the spherical CDF's three
    pairs, add a pair term (``alpha``, or the nonlinear overlap) that is odd
    in the sign of each coordinate and symmetric under their swap, bit for
    bit wherever it is not zero.  When the pair's two coordinates form a
    sparse mesh, each varying along one axis and not the same one, as in
    ``np.meshgrid(x, y, indexing="ij", sparse=True)``, the term is taken
    once per distinct pair of their absolute values, on one triangle of the
    table when both hold the same set, and gathered back with the sign
    product inside the slab pass; the final clamp makes the sign of a zero
    term immaterial.  So the spherical CDF on a cube mesh with one axis
    takes one table for all three pairs, and gathers each pair on the
    broadcast of its own two coordinates.  Other inputs (flat columns, and
    corner meshes whose coordinates vary along two axes) and the elliptical
    model, whose correction has only the point symmetry, take the term at
    every point.  The output is allocated before any table.

    A point outside the cube, or coordinates that do not broadcast, raise
    :class:`DomainError`; a broadcast too large to index raises
    ``MemoryError``, as an output too large to allocate does; and the
    spherical density raises
    :class:`NotAbsolutelyContinuousError` as the scalar method does, on an
    empty input too: the kernel always runs at least once.
    """
    if quantity not in ("pdf", "cdf", "survival"):
        raise DomainError(f"unknown quantity {quantity!r}")
    if len(coords) != model.dim:
        raise DomainError(f"{model.describe()} takes {model.dim} coordinates, got {len(coords)}")
    arrays = [np.asarray(c, dtype=float) for c in coords]
    try:
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
    except ValueError:
        shown = ", ".join(str(a.shape) for a in arrays)
        # numpy raises the same ValueError for a broadcast too large to
        # index; its shapes still agree axis by axis.
        ndim = max(a.ndim for a in arrays)
        lengths = zip(*((1,) * (ndim - a.ndim) + a.shape for a in arrays))
        if all(len(set(axis) - {1}) <= 1 for axis in lengths):
            raise MemoryError(f"evaluate: the broadcast of shapes {shown} is too large to index") from None
        raise DomainError(f"evaluate: coordinate shapes {shown} do not broadcast") from None
    if not all(np.all(np.abs(a) <= 1.0) for a in arrays):
        # Broadcast only to name the first point outside, if any is.
        cols = np.broadcast_arrays(*arrays)
        outside = np.flatnonzero(~np.logical_and.reduce([np.abs(c) <= 1.0 for c in cols]))
        if outside.size:
            point = tuple(float(c.flat[outside[0]]) for c in cols)
            raise DomainError(f"evaluate: point {point!r} outside [-1, 1]^{model.dim}")
    with np.errstate(divide="ignore", invalid="ignore"):
        if quantity == "pdf":
            return _slabs(model._pdf_array, arrays)
        if quantity == "survival":
            # Every model is unchanged by the joint sign change p -> -p, so
            # P[X > p] = F(-p).
            arrays = [-a for a in arrays]
        # First, so that an output too large for memory fails before any
        # orbit table is made.
        out = np.empty(shape)
        pair = _PAIR_TERMS.get(type(model))
        if pair is None:
            return _slabs(model._cdf_array, arrays, out=out)
        if model.dim == 2:
            return _paired(model._cdf_array, pair, *arrays, out)
        cache = {}
        arrays += [_paired(_term, pair, arrays[j], arrays[k], cache=cache) for j, k in ((1, 2), (0, 2), (0, 1))]
        return _slabs(model._cdf_array, arrays, out=out)


def _slabs(kernel, arrays, size: int = _SLAB, out=None) -> np.ndarray:
    # kernel(*slabs) over C-order slabs of at most ``size`` elements of the
    # broadcast of arrays, into out, or a new float array of that shape: a
    # slab is a view where it is contiguous, else a copy in the iterator's
    # buffer.  On an empty broadcast the kernel runs once on empty slabs, so
    # that an error it raises on every input still raises.
    flags = ["external_loop", "buffered", "zerosize_ok"]
    ops = [["readonly"]] * len(arrays) + [["writeonly"] if out is not None else ["writeonly", "allocate"]]
    dtypes = [None] * len(arrays) + [float]
    with np.nditer([*arrays, out], flags, ops, dtypes, order="C", buffersize=size) as it:
        if it.finished:
            kernel(*(np.empty(0, a.dtype) for a in it.operands[:-1]))
        for *slabs, res in it:
            res[...] = kernel(*slabs)
        return it.operands[-1]


def _term(a, b, term):
    # The kernel of a spherical pair column: the pair term alone.
    return term


def _mesh_axis(a, ndim):
    # The one axis of an ndim-axis broadcast along which a varies, or None
    # if it varies along none or along several.
    axes = [ndim - a.ndim + k for k, n in enumerate(a.shape) if n > 1]
    return axes[0] if len(axes) == 1 else None


def _paired(kernel, pair, a, b, out=None, cache=None):
    # kernel(a, b, pair(a, b)) over the slabs of the broadcast of a and b.
    # On a sparse mesh of a and b the pair term comes from _orbit_gather.
    # cache holds each coordinate's orbits and each table, by their bytes,
    # for the pairs of one evaluate() to share.
    ndim = max(a.ndim, b.ndim)
    axis_a, axis_b = _mesh_axis(a, ndim), _mesh_axis(b, ndim)
    if axis_a is None or axis_b is None or axis_a == axis_b:
        return _slabs(lambda s, t: kernel(s, t, pair(s, t)), [a, b], out=out)
    cache = {} if cache is None else cache
    (ma, ia), (mb, ib) = (_cached(cache, c.tobytes(), _orbits, c.ravel()) for c in (a, b))
    gather = _cached(cache, (ma.tobytes(), mb.tobytes()), _orbit_gather, pair, ma, mb)
    index = [ia.reshape(a.shape), ib.reshape(b.shape)]
    return _slabs(lambda s, t, i, j: kernel(s, t, gather(s, t, i, j)), [a, b, *index], out=out)


def _cached(cache, key, make, *args):
    if key not in cache:
        cache[key] = make(*args)
    return cache[key]


def _orbits(values):
    # The sorted distinct |values|, and the index of each value among them.
    return np.unique(np.abs(values), return_inverse=True)


def _orbit_gather(pair, ma, mb):
    # The function of coordinate slabs s, t and their indices i, j in the
    # sorted distinct magnitudes ma, mb that returns pair(s, t) from the
    # table pair(ma[i], mb[j]), negated where the signs of s and t differ.
    # For a term odd in each sign and symmetric under the swap, that is
    # the term's own value bit for bit wherever it is not zero: IEEE
    # rounding is symmetric, so negating a coordinate negates every nonzero
    # intermediate, and + and * commute.  A zero term may come out with the
    # other sign.  The CDF kernels only scale the term and add it, so that
    # can change only the sign of a zero, and their final clamp makes every
    # zero +0.0: no output bit depends on it.  When ma and mb are one set,
    # the table holds only the triangle i <= j, and the gather reads each
    # pair in that order.
    same = np.array_equal(ma, mb)

    def cell(i, j):
        if not same:
            return pair(ma[i], mb[j])
        values = np.zeros(i.size)
        upper = np.flatnonzero(i <= j)
        values[upper] = pair(ma[i[upper]], mb[j[upper]])
        return values

    table = _slabs(cell, [np.arange(ma.size)[:, None], np.arange(mb.size)])

    def gather(s, t, i, j):
        if same:
            i, j = np.minimum(i, j), np.maximum(i, j)
        term = table[i, j]
        return np.negative(term, out=term, where=np.signbit(s) != np.signbit(t))

    return gather


def _atan2_map(a, w):
    # math.atan2(a, w) element by element, as cmath.phase(w + a*1j): phase
    # is libm's atan2 of the imaginary and real parts, and one map over one
    # list of complex numbers costs less than a map over two lists of
    # floats.  It raises where libm sets errno, which glibc does only when a
    # nonzero a gives exactly 0.0.  Every caller's w is at most 1, where
    # |atan2(a, w)| rounds to at least |a|, so that never happens here.
    z = np.empty(a.size, complex)
    z.real = w
    z.imag = a
    return np.fromiter(map(cmath.phase, z.tolist()), float, a.size)


def _atan2_exact(a, w):
    # w is a square root, never -0.0.  On and outside the support it is
    # +0.0, where atan2(a, +0.0) is copysign(pi/2, a) for a finite, or a
    # itself when a is +-0; the atan2 map runs only where w is positive.
    out = np.where(a == 0.0, a, np.copysign(_HALF_PI, a))
    inside = np.flatnonzero(w)
    out[inside] = _atan2_map(a[inside], w[inside])
    return out


def _max_exact(a, b):
    # max(a, b) element by element; a tie goes to ``a`` as in Python, where
    # np.maximum(0.0, -0.0) gives -0.0.
    return np.where(b > a, b, a)


def _min_exact(a, b):
    return np.where(b < a, b, a)


def _clamp01_array(t):
    return _min_exact(1.0, _max_exact(0.0, t))


def _sign_exact(t):
    return np.sign(t).astype(np.int64)


def _pick_exact(index, options):
    # options[index] element by element, for three options; a nested
    # np.where costs a third of np.choose.
    a, b, c = options
    return np.where(index == 0, a, np.where(index == 1, b, c))


_alpha_array = partial(_alpha, sqrt=np.sqrt, maximum=_max_exact, atan2=_atan2_exact)
_alpha_gamma_array = partial(_alpha_gamma, sqrt=np.sqrt, maximum=_max_exact, atan2=_atan2_exact)
_h_identity_array = partial(_h_identity, sqrt=np.sqrt, atan2=_atan2_map)
_overlap_array = partial(_overlap_atan2, sqrt=np.sqrt, atan2=_atan2_map)

# The pair term of each model whose CDF kernel takes one after its
# coordinates: odd in the sign of each coordinate and symmetric under the
# swap, bit for bit.  Each w = sqrt(1 - t*t) of the nonlinear term is 0 only
# on an edge: no mask to pay for.
_PAIR_TERMS = {
    CircularCopula: _alpha_array,
    SphericalCopula: _alpha_array,
    NonlinearDiskCopula: _overlap_array,
}


def _sheared_pdf_array(gamma, u, v):
    w2 = _support_discriminant(gamma, u, v)[2]
    return np.where(w2 > 0.0, _density(w2, np.sqrt), 0.0)


def _nonlinear_corners(u, v):
    return (np.abs(u) == 1.0) & (np.abs(v) == 1.0)
