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
    _alpha,
    _alpha_gamma,
    _check_cube3,
    _check_gamma,
    _check_square,
    _delta3,
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
    "elliptical_correlation",
    "elliptical_pdf",
    "evaluate",
    "marginal_pdf_circle",
    "marginal_pdf_disk",
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

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_MAX_SEED = 2**64


def _clamp01(t, minimum=min, maximum=max):
    return minimum(1.0, maximum(0.0, t))


def _planar_cdf(u, v, correction, clamp=_clamp01):
    # The linear part of every planar CDF plus the model's correction term.
    return clamp((u + v + 1.0) / 4.0 + correction)


def _density(w2, sqrt=math.sqrt):
    # The circular and elliptical density for a positive support
    # discriminant w2 (1 - x^2 - y^2 on the disk).
    return 1.0 / (_TWO_PI * sqrt(w2))


# ---------------------------------------------------------------------------
# marginal and joint densities / distribution functions
# ---------------------------------------------------------------------------

def marginal_pdf_disk(x: float) -> float:
    """Semicircle density of one coordinate of a uniform point on the disk."""
    if not abs(x) <= 1.0:
        raise DomainError(f"marginal_pdf_disk: {x!r} outside [-1, 1]")
    return (2.0 / math.pi) * math.sqrt(1.0 - x * x)


def marginal_pdf_circle(x: float) -> float:
    """Arcsine-law density of one coordinate of a uniform point on the circle.

    Unbounded (but integrable) at the endpoints, so the open interval
    ``(-1, 1)`` is required.
    """
    if not abs(x) < 1.0:
        raise DomainError(f"marginal_pdf_circle: {x!r} outside (-1, 1)")
    return 1.0 / (math.pi * math.sqrt(1.0 - x * x))


def circular_pdf(x: float, y: float) -> float:
    """Density of the circular model: ``1/(2*pi*sqrt(1 - x^2 - y^2))`` on the
    open disk, and 0 on the circle and outside (boundary convention)."""
    _check_square(x, y, "circular_pdf")
    w2 = 1.0 - (x * x + y * y)
    if w2 <= 0.0:
        return 0.0
    return _density(w2)


def circular_cdf(x: float, y: float) -> float:
    """Joint CDF of the circular model: ``(x + y + 1)/4 + alpha(x, y)``."""
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
    """Joint CDF of the spherical model on ``[-1, 1]^3``.

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


def _outside_correction(x, y, z, pairs, absolute=abs, sign=sigma, choose=_pick):
    # The first-octant tail at (|x|, |y|, |z|), which is the sum at the
    # reflected point since delta3 is even.  Its pairs are the point's own
    # up to sign, alpha(-|p|, -|q|) == sigma(p)*sigma(q)*alpha(p, q) bit for
    # bit when p, q != 0; a zero coordinate zeroes the whole correction.
    sx, sy, sz = sign(x), sign(y), sign(z)
    yz, xz, xy = pairs
    reflected = sy * sz * yz, sx * sz * xz, sx * sy * xy
    tail = _spherical_sum(-absolute(x), -absolute(y), -absolute(z), reflected, choose)
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


def elliptical_correlation(gamma: float) -> float:
    """Pearson correlation of the sheared pair: ``sin(gamma)``."""
    _check_gamma(gamma)
    return math.sin(gamma)


def nonlinear_forward(x: float, y: float) -> tuple[float, float]:
    """Map a point of the open unit disk to ``(x/sqrt(1-y^2), y/sqrt(1-x^2))``."""
    if not x * x + y * y < 1.0:
        raise DomainError(
            f"nonlinear_forward: ({x!r}, {y!r}) not in the open unit disk"
        )
    return x / math.sqrt(1.0 - y * y), y / math.sqrt(1.0 - x * x)


def nonlinear_inverse(u: float, v: float) -> tuple[float, float]:
    """Inverse of :func:`nonlinear_forward`; rejected at the four corners
    ``(+-1, +-1)`` where the expression degenerates to 0/0."""
    _check_square(u, v, "nonlinear_inverse")
    a = u * u
    b = v * v
    if a == 1.0 and b == 1.0:
        raise DomainError("nonlinear_inverse is undefined at the corners (+-1, +-1)")
    den = math.sqrt(1.0 - a * b)
    return u * math.sqrt(1.0 - b) / den, v * math.sqrt(1.0 - a) / den


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
    """Joint CDF of the nonlinear-transform model:

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

def _check_seed(seed: int) -> None:
    if not isinstance(seed, (int, np.integer)):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < _MAX_SEED:
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
        raise NotImplementedError

    def sample(self, n: int, seed: int) -> "SampleBatch":
        """Draw ``n`` exact samples, reproducibly from ``seed``.

        One seed is one stream: a batch is a pure function of ``(seed, n)``.
        Callers who parallelize must partition work across disjoint seeds;
        the combined result then does not depend on the worker count.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class SampleBatch:
    """Exact samples from a model plus everything needed to reproduce them."""

    model: CopulaModel
    seed: int
    points: np.ndarray
    rng_algorithm: str = RNG_ALGORITHM

    def __len__(self) -> int:
        return self.points.shape[0]


def _circular_points(rng: np.random.Generator, n: int) -> np.ndarray:
    # Angle uniform on [0, 2*pi); radius by inverse CDF: P(R <= r) =
    # 1 - sqrt(1 - r^2), hence R = sqrt(1 - W^2) with W uniform on [0, 1).
    theta = rng.uniform(0.0, _TWO_PI, n)
    w = rng.uniform(0.0, 1.0, n)
    r = np.sqrt(1.0 - w * w)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


@dataclass(frozen=True)
class CircularCopula(CopulaModel):
    dim: ClassVar[int] = 2
    name: ClassVar[str] = "circular"

    def pdf(self, x: float, y: float) -> float:
        return circular_pdf(x, y)

    def cdf(self, x: float, y: float) -> float:
        return circular_cdf(x, y)

    def survival(self, x: float, y: float) -> float:
        return circular_survival(x, y)

    def _pdf_array(self, x, y):
        return _sheared_pdf_array(0.0, x, y)

    def _cdf_array(self, x, y):
        return _circular_cdf_array(x, y)

    def in_support(self, x: float, y: float, tol: float = 1e-12) -> bool:
        return x * x + y * y <= 1.0 + tol

    def sample(self, n: int, seed: int) -> SampleBatch:
        _check_sample_size(n)
        rng = _make_rng(seed)
        return SampleBatch(self, int(seed), _circular_points(rng, n))


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

    def _cdf_array(self, x, y, z):
        return _spherical_cdf_array(x, y, z)

    def in_support(self, x: float, y: float, z: float, tol: float = 1e-12) -> bool:
        return abs(x * x + y * y + z * z - 1.0) <= tol

    def sample(self, n: int, seed: int) -> SampleBatch:
        # The third coordinate of a uniform point on the sphere is itself
        # uniform (the area of a zone is proportional to its height), so
        # (sqrt(1-Z^2)*cos(T), sqrt(1-Z^2)*sin(T), Z) with Z ~ U[-1, 1] and
        # T ~ U[0, 2*pi) is exact.
        _check_sample_size(n)
        rng = _make_rng(seed)
        z = rng.uniform(-1.0, 1.0, n)
        theta = rng.uniform(0.0, _TWO_PI, n)
        rho = np.sqrt(1.0 - z * z)
        pts = np.column_stack((rho * np.cos(theta), rho * np.sin(theta), z))
        return SampleBatch(self, int(seed), pts)


@dataclass(frozen=True)
class EllipticalCopula(CopulaModel):
    gamma: float
    dim: ClassVar[int] = 2
    name: ClassVar[str] = "elliptical"

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)

    def pdf(self, u: float, v: float) -> float:
        return elliptical_pdf(self.gamma, u, v)

    def cdf(self, u: float, v: float) -> float:
        return elliptical_cdf(self.gamma, u, v)

    def survival(self, u: float, v: float) -> float:
        # (U, V) is symmetric under joint sign change, so the tail is the
        # CDF at the reflected point.
        return elliptical_cdf(self.gamma, -u, -v)

    def _pdf_array(self, u, v):
        return _sheared_pdf_array(self.gamma, u, v)

    def _cdf_array(self, u, v):
        return _elliptical_cdf_array(self.gamma, u, v)

    def in_support(self, u: float, v: float, tol: float = 1e-12) -> bool:
        return _support_discriminant(self.gamma, u, v)[2] >= -tol

    def sample(self, n: int, seed: int) -> SampleBatch:
        _check_sample_size(n)
        rng = _make_rng(seed)
        xy = _circular_points(rng, n)
        u = xy[:, 0]
        v = xy[:, 0] * math.sin(self.gamma) + xy[:, 1] * math.cos(self.gamma)
        # The shear maps the disk into the square exactly; clip round-off
        # overshoot of at most a few ulp.
        pts = np.clip(np.column_stack((u, v)), -1.0, 1.0)
        return SampleBatch(self, int(seed), pts)

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
        return _nonlinear_pdf_array(u, v)

    def _cdf_array(self, u, v):
        return _nonlinear_cdf_array(u, v)

    def in_support(self, u: float, v: float, tol: float = 1e-12) -> bool:
        return abs(u) <= 1.0 + tol and abs(v) <= 1.0 + tol

    def sample(self, n: int, seed: int) -> SampleBatch:
        # Uniform disk point via R = sqrt(W), then the coordinate-wise
        # rescaling u = x/sqrt(1-y^2), v = y/sqrt(1-x^2).
        _check_sample_size(n)
        rng = _make_rng(seed)
        theta = rng.uniform(0.0, _TWO_PI, n)
        w = rng.uniform(0.0, 1.0, n)
        r = np.sqrt(w)
        x = r * np.cos(theta)
        y = r * np.sin(theta)
        u = x / np.sqrt(1.0 - y * y)
        v = y / np.sqrt(1.0 - x * x)
        # The transform maps the open disk into the square exactly; clip
        # round-off overshoot of at most a few ulp.
        pts = np.clip(np.column_stack((u, v)), -1.0, 1.0)
        return SampleBatch(self, int(seed), pts)


def _check_sample_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")


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

# Points per slab in evaluate(): bounds the Python-float temporaries of the
# exact atan2 map.
_SLAB = 4096


def evaluate(model: CopulaModel, quantity: str, *coords) -> np.ndarray:
    """Evaluate ``model.pdf``, ``model.cdf`` or ``model.survival`` at many
    points at once.

    ``coords`` are ``model.dim`` array-likes that broadcast together; the
    result is a float array of their broadcast shape.  Every value equals
    the scalar call at the same point bit for bit: the kernels run the
    scalar closed forms' own expressions on arrays (numpy's ``+ - * /`` and
    ``sqrt`` round exactly as Python floats do), ``max`` and ``min`` keep
    Python's choice between 0.0 and -0.0, ``np.choose`` picks the
    ``delta3`` term that a tuple index picks, and each ``atan2`` goes
    through ``math.atan2``, since ``np.arctan2`` can differ from it in the
    last bit.  ``math.atan2`` runs only where its second argument ``w`` is
    positive, inside the support: elsewhere ``w`` is +0.0 and
    ``atan2(a, +0.0)`` is exactly ``copysign(pi/2, a)``, or ``a`` when it is
    zero.  The spherical CDF evaluates each of its three pair ``alpha``
    values once, as the scalar form does.  Survival is the CDF kernel at
    the reflected point, as in the scalar methods.  A point outside the
    cube raises :class:`DomainError`, and the spherical density raises
    :class:`NotAbsolutelyContinuousError` as the scalar method does.
    """
    if quantity not in ("pdf", "cdf", "survival"):
        raise DomainError(f"unknown quantity {quantity!r}")
    if len(coords) != model.dim:
        raise DomainError(f"{model.describe()} takes {model.dim} coordinates, got {len(coords)}")
    arrays = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in coords))
    shape = arrays[0].shape
    cols = [a.ravel() for a in arrays]
    outside = ~np.logical_and.reduce([np.abs(c) <= 1.0 for c in cols])
    if outside.any():
        i = int(np.argmax(outside))
        point = tuple(float(c[i]) for c in cols)
        raise DomainError(f"evaluate: point {point!r} outside [-1, 1]^{model.dim}")
    if quantity == "survival":
        kernel = partial(_reflected, model._cdf_array)
    else:
        kernel = getattr(model, f"_{quantity}_array")
    out = np.empty(outside.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, out.size, _SLAB):
            out[lo:lo + _SLAB] = kernel(*(c[lo:lo + _SLAB] for c in cols))
    return out.reshape(shape)


def _reflected(cdf, *coords):
    # Every model is unchanged by the joint sign change p -> -p, so
    # P[X > p] = F(-p).  Negating one slab at a time makes no full-size copy.
    return cdf(*(-c for c in coords))


def _atan2_exact(a, w):
    # w is a square root, never -0.0.  On and outside the support it is
    # +0.0, where atan2(a, +0.0) is copysign(pi/2, a) for a finite, or a
    # itself when a is +-0; math.atan2 runs only where w is positive.
    out = np.where(a == 0.0, a, np.copysign(_HALF_PI, a))
    inside = np.flatnonzero(w)
    out[inside] = np.fromiter(
        map(math.atan2, a[inside].tolist(), w[inside].tolist()), float, inside.size
    )
    return out


def _max_exact(a, b):
    # max(a, b) element by element; a tie goes to ``a`` as in Python, where
    # np.maximum(0.0, -0.0) gives -0.0.
    return np.where(b > a, b, a)


def _min_exact(a, b):
    return np.where(b < a, b, a)


def _sign_exact(t):
    return np.sign(t).astype(np.int64)


_clamp01_array = partial(_clamp01, minimum=_min_exact, maximum=_max_exact)
_alpha_array = partial(_alpha, sqrt=np.sqrt, maximum=_max_exact, atan2=_atan2_exact)
_alpha_gamma_array = partial(_alpha_gamma, sqrt=np.sqrt, maximum=_max_exact, atan2=_atan2_exact)


def _sheared_pdf_array(gamma, u, v):
    w2 = _support_discriminant(gamma, u, v)[2]
    return np.where(w2 > 0.0, _density(w2, np.sqrt), 0.0)


def _circular_cdf_array(x, y):
    return _planar_cdf(x, y, _alpha_array(x, y), _clamp01_array)


def _elliptical_cdf_array(gamma, u, v):
    return _planar_cdf(u, v, _alpha_gamma_array(gamma, u, v), _clamp01_array)


def _nonlinear_corners(u, v):
    return (np.abs(u) == 1.0) & (np.abs(v) == 1.0)


def _nonlinear_pdf_array(u, v):
    return np.where(_nonlinear_corners(u, v), 0.0, _nonlinear_density(u, v, np.sqrt))


def _nonlinear_cdf_array(u, v):
    overlap = _overlap_atan2(u, v, np.sqrt, _atan2_exact)
    val = _planar_cdf(u, v, overlap / _TWO_PI, _clamp01_array)
    upper = np.where((u > 0.0) & (v > 0.0), 1.0, 0.0)
    return np.where(_nonlinear_corners(u, v), upper, val)


def _spherical_cdf_array(x, y, z):
    # The scalar form with the outside-the-ball branch as a mask.
    pairs = _alpha_array(y, z), _alpha_array(x, z), _alpha_array(x, y)
    val = _spherical_sum(x, y, z, pairs, np.choose)
    out = x * x + y * y + z * z >= 1.0
    x, y, z, pairs = x[out], y[out], z[out], [p[out] for p in pairs]
    val[out] += _outside_correction(x, y, z, pairs, np.abs, _sign_exact, np.choose)
    return _clamp01_array(val)
