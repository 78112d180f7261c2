"""Independent numerical ground truth for the closed-form copulas.

Three kinds of oracle live here:

* adaptive quadrature of the one-dimensional integral representations of
  the circular and spherical tail probabilities (:func:`quad_survival_circular`,
  :func:`quad_survival_spherical`),
* density-mass quadrature over rectangles (:func:`quad_mass_2d`), with the
  inner integral done in closed form (the ``t -> t / sqrt(1 - s^2)``
  substitution turns the singular inner integrand into an arcsin difference,
  leaving a bounded outer integrand),
* Monte-Carlo estimators and distribution tests (:func:`mc_cdf`,
  :func:`ks_uniform`, :func:`moment_check`).

:func:`verify_suite` runs every invariant of the math and model layers plus
all oracle comparisons and returns a structured, JSON-serializable
:class:`VerificationReport`.  Given the same seed it is deterministic.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import permutations
from typing import Callable, Iterable, Iterator

import numpy as np

from . import special_math
from .copulas import (
    RNG_ALGORITHM,
    CircularCopula,
    CopulaModel,
    EllipticalCopula,
    NonlinearDiskCopula,
    Rectangle,
    SampleBatch,
    SphericalCopula,
    cdf_volume,
    circular_cdf,
    circular_survival,
    evaluate,
    nonlinear_forward,
    nonlinear_inverse,
    spherical_cdf,
    spherical_survival,
    _check_seed,
    _corner_sum,
)
from .errors import (
    DimensionError,
    DomainError,
    NotAbsolutelyContinuousError,
    OracleInconsistencyError,
    QuadratureError,
)
from .special_math import _clamped_asin, alpha, alpha_gamma, cap_intersection_area, delta3, h_identity

__all__ = [
    "DEFAULT_QUADRATURE",
    "KS_CRITICAL_COEFF",
    "CheckResult",
    "MCEstimate",
    "QuadratureSpec",
    "VerificationReport",
    "VerifyConfig",
    "integrate_adaptive",
    "ks_uniform",
    "mc_cdf",
    "moment_check",
    "quad_mass_2d",
    "quad_survival_circular",
    "quad_survival_spherical",
    "verify_suite",
]

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi

#: Asymptotic two-sided KS critical coefficient at significance 0.01.
KS_CRITICAL_COEFF = 1.63


# Gauss-Legendre order of every quadrature panel.
_GL_ORDER = 64


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings for the adaptive Gauss-Legendre integrator.

    ``max_subdivisions`` caps the number of panel evaluations; exceeding it
    raises :class:`QuadratureError`.
    """

    abs_tol: float = 1e-9
    max_subdivisions: int = 1 << 20

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise DomainError(f"abs_tol must be finite and positive, got {self.abs_tol!r}")
        # An integer type, so that NaN cannot slip past the panel cap.
        m = self.max_subdivisions
        if not (isinstance(m, (int, np.integer)) and m >= 4):
            raise DomainError(f"max_subdivisions must be an integer of at least 4, got {m!r}")


DEFAULT_QUADRATURE = QuadratureSpec()


@lru_cache(maxsize=1)
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec | None = None) -> float:
    """Adaptively integrate a vectorized integrand ``f`` over ``[a, b]``.

    Panels of order-64 Gauss-Legendre are bisected until each halving
    changes the panel value by at most ``abs_tol`` times the panel's share
    of ``[a, b]``.
    """
    spec = spec or DEFAULT_QUADRATURE
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if b <= a:
        return 0.0
    nodes, weights = _gl_nodes()
    full = b - a

    def panel(lo: float, hi: float) -> float:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * float(np.dot(weights, np.asarray(f(mid + half * nodes), float)))

    stack = [(a, b, panel(a, b))]
    evaluations = 1
    total = 0.0
    while stack:
        lo, hi, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        evaluations += 2
        if evaluations > spec.max_subdivisions:
            raise QuadratureError(
                f"no convergence to abs_tol={spec.abs_tol!r} within "
                f"{spec.max_subdivisions} panel evaluations"
            )
        refined = left + right
        width = hi - lo
        # Per-panel budget proportional to width keeps the summed error
        # below abs_tol; the width floor stops infinite refinement at
        # integrable endpoint singularities.
        if (
            abs(refined - whole) <= spec.abs_tol * (width / full)
            or width <= 16.0 * math.ulp(max(abs(lo), abs(hi), 1.0))
        ):
            total += refined
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return total


# ---------------------------------------------------------------------------
# integral representations of the tail probabilities
# ---------------------------------------------------------------------------

#: Inward pull applied to upper limits that sit exactly where an arcsin
#: argument reaches 1; the integrand is finite there, so the perturbation
#: changes the value by far less than abs_tol.
_ENDPOINT_PULL = 1e-14


def quad_survival_circular(
    x: float, y: float, spec: QuadratureSpec | None = None
) -> float:
    """Tail probability of the circular model by 1-D quadrature.

    Evaluates ``(1/(2*pi)) * integral_x^{sqrt(1-y^2)} [pi/2 -
    arcsin(y/sqrt(1-s^2))] ds`` for ``0 <= x, y`` with ``x^2 + y^2 < 1``:
    twice the spherical tail integral at ``z = 0``, since the ``(X, Y)``
    margin of the uniform sphere is the circular law.  Independent of the
    closed form, so it serves as its oracle.
    """
    spec = spec or DEFAULT_QUADRATURE
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError(f"quad_survival_circular: ({x!r}, {y!r}) outside [0, 1]^2")
    if not x * x + y * y < 1.0:
        raise DomainError("quad_survival_circular requires x^2 + y^2 < 1")
    return 2.0 * _quad_survival_spherical_one(x, y, 0.0, spec)


def _quad_survival_spherical_one(
    x: float, y: float, z: float, spec: QuadratureSpec
) -> float:
    hi = math.sqrt(1.0 - y * y - z * z) - _ENDPOINT_PULL
    if hi <= x:
        return 0.0

    def integrand(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, float)
        root = np.sqrt(1.0 - s * s)
        return (
            0.5 * np.pi
            - np.arcsin(np.clip(y / root, -1.0, 1.0))
            - np.arcsin(np.clip(z / root, -1.0, 1.0))
        )

    return integrate_adaptive(integrand, x, hi, spec) / _FOUR_PI


def quad_survival_spherical(
    x: float, y: float, z: float, spec: QuadratureSpec | None = None
) -> float:
    """First-octant tail probability of the spherical model by quadrature.

    Evaluates ``(1/(4*pi)) * integral_x^{sqrt(1-y^2-z^2)} [pi/2
    - arcsin(y/sqrt(1-s^2)) - arcsin(z/sqrt(1-s^2))] ds``.  The integral is
    exchangeable in ``(x, y, z)``; all six argument orders are evaluated and
    must agree within ``10 * abs_tol``, otherwise
    :class:`OracleInconsistencyError` is raised.
    """
    spec = spec or DEFAULT_QUADRATURE
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and 0.0 <= z <= 1.0):
        raise DomainError(
            f"quad_survival_spherical: ({x!r}, {y!r}, {z!r}) outside [0, 1]^3"
        )
    if not x * x + y * y + z * z < 1.0:
        raise DomainError("quad_survival_spherical requires x^2 + y^2 + z^2 < 1")
    values = [
        _quad_survival_spherical_one(p, q, r, spec)
        for (p, q, r) in permutations((x, y, z))
    ]
    if max(values) - min(values) > 10.0 * spec.abs_tol:
        raise OracleInconsistencyError(
            f"permutations of the tail integral disagree: spread "
            f"{max(values) - min(values)!r} exceeds {10.0 * spec.abs_tol!r}"
        )
    return values[0]


# ---------------------------------------------------------------------------
# density mass over rectangles
# ---------------------------------------------------------------------------

def _inner_mass_elliptical(gamma: float, t_lo: float, t_hi: float):
    sg = math.sin(gamma)
    cg = math.cos(gamma)

    def inner(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, float)
        w = cg * np.sqrt(np.maximum(1.0 - s * s, 0.0))
        wsafe = np.maximum(w, 1e-300)
        center = s * sg
        hi = np.clip((t_hi - center) / wsafe, -1.0, 1.0)
        lo = np.clip((t_lo - center) / wsafe, -1.0, 1.0)
        return (np.arcsin(hi) - np.arcsin(lo)) / _TWO_PI

    return inner


def _nonlinear_antiderivative(s: np.ndarray, v: float) -> np.ndarray:
    # Antiderivative in the second coordinate of the nonlinear density at
    # fixed first coordinate s:
    #   H(s, v) = [ sqrt(1-s^2) * v * sqrt(1-v^2) / (2 * (1 - s^2 v^2))
    #               + arctan(sqrt(1-s^2) * v / sqrt(1-v^2)) / 2 ] / pi,
    # verified by differentiation and, in the tests, against raw quadrature
    # of the density.
    if v >= 1.0:
        return np.full_like(s, 0.25)
    if v <= -1.0:
        return np.full_like(s, -0.25)
    root = np.sqrt(np.maximum(1.0 - s * s, 0.0))
    cv = math.sqrt(1.0 - v * v)
    term1 = root * (v * cv) / (2.0 * (1.0 - s * s * v * v))
    term2 = 0.5 * np.arctan2(root * v, cv)
    return (term1 + term2) / math.pi


def _inner_mass_nonlinear(t_lo: float, t_hi: float):
    v_lo = max(t_lo, -1.0)
    v_hi = min(t_hi, 1.0)

    def inner(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, float)
        return _nonlinear_antiderivative(s, v_hi) - _nonlinear_antiderivative(s, v_lo)

    return inner


def _split_at_support_edge(
    gamma: float, t_lo: float, t_hi: float, s_lo: float, s_hi: float
) -> list[float]:
    # The outer integrand has a kink wherever the bottom or top edge t of the
    # rectangle meets the support ellipse, at s = t*sin(gamma) +-
    # cos(gamma)*sqrt(1 - t^2); adaptive bisection can converge falsely
    # across one, so [s_lo, s_hi] is cut there.
    sg = math.sin(gamma)
    cg = math.cos(gamma)
    kinks = []
    for t in (t_lo, t_hi):
        if abs(t) < 1.0:
            half = cg * math.sqrt(1.0 - t * t)
            kinks += [t * sg - half, t * sg + half]
    # A set, because the two kinks of an edge coincide where it is tangent
    # to the support or sits at the same |t| as the other edge.
    return [s_lo, *sorted({k for k in kinks if s_lo < k < s_hi}), s_hi]


def quad_mass_2d(
    model: CopulaModel, rect: Rectangle, spec: QuadratureSpec | None = None
) -> float:
    """Probability mass of ``rect`` by quadrature of the model density.

    The inner integral is evaluated in closed form (arcsin difference for
    the disk-type densities, an explicit antiderivative for the nonlinear
    one), so the adaptive outer integrand is bounded; it is integrated
    piecewise between the points where the rectangle's bottom and top edges
    meet the support boundary.  Each piece gets its width's share of
    ``spec.abs_tol`` and an equal share (at least 4) of
    ``spec.max_subdivisions``.  Rejected for the spherical model, which has
    no Lebesgue density.
    """
    spec = spec or DEFAULT_QUADRATURE
    if isinstance(model, SphericalCopula) or model.dim != 2:
        raise NotAbsolutelyContinuousError(
            "quad_mass_2d requires a two-dimensional model with a density"
        )
    if rect.dim != 2:
        raise DomainError("quad_mass_2d requires a two-dimensional rectangle")
    s_lo, s_hi = max(rect.lower[0], -1.0), min(rect.upper[0], 1.0)
    t_lo, t_hi = rect.lower[1], rect.upper[1]
    if s_hi <= s_lo or t_hi <= t_lo:
        return 0.0
    if isinstance(model, (CircularCopula, EllipticalCopula)):
        # The circular model is the sheared one at gamma = 0.
        gamma = getattr(model, "gamma", 0.0)
        inner = _inner_mass_elliptical(gamma, t_lo, t_hi)
        cuts = _split_at_support_edge(gamma, t_lo, t_hi, s_lo, s_hi)
    elif isinstance(model, NonlinearDiskCopula):
        inner = _inner_mass_nonlinear(t_lo, t_hi)
        cuts = [s_lo, s_hi]
    else:
        raise NotAbsolutelyContinuousError(f"unsupported model {model.name!r}")
    # A piece gets the share of abs_tol that a panel of the same width would
    # in one integral over [s_lo, s_hi].
    budget = max(4, spec.max_subdivisions // (len(cuts) - 1))
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        tol = spec.abs_tol * (hi - lo) / (s_hi - s_lo)
        if tol > 0.0:  # else the piece is too thin to carry any mass
            total += integrate_adaptive(
                inner, lo, hi, replace(spec, abs_tol=tol, max_subdivisions=budget)
            )
    return total


# ---------------------------------------------------------------------------
# Monte-Carlo estimators and distribution tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo estimate with its standard error."""

    value: float
    std_error: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0 or self.n < 1:
            raise DomainError("MCEstimate requires std_error >= 0 and n >= 1")


def mc_cdf(model: CopulaModel, p: tuple[float, ...], n: int, seed: int) -> MCEstimate:
    """Empirical CDF value at ``p`` from ``n`` fresh samples of ``model``."""
    if n < 1000:
        raise DomainError(f"mc_cdf requires n >= 1000, got {n!r}")
    point = tuple(float(t) for t in p)
    if len(point) != model.dim:
        raise DomainError("point dimension does not match the model")
    if any(not abs(t) <= 1.0 for t in point):
        raise DomainError(f"mc_cdf: point {point!r} outside the centered cube")
    batch = model.sample(n, seed)
    q = float(np.mean(np.all(batch.points <= np.asarray(point), axis=1)))
    return MCEstimate(q, math.sqrt(q * (1.0 - q) / n), n, int(seed))


def _ks_statistic(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    n = sorted_values.shape[0]
    idx = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(idx / n - cdf_values))
    d_minus = float(np.max(cdf_values - (idx - 1.0) / n))
    return max(d_plus, d_minus)


def ks_uniform(samples) -> float:
    """Two-sided KS statistic of ``samples`` against uniform[-1, 1]."""
    arr = np.sort(np.asarray(samples, float))
    if arr.ndim != 1 or arr.shape[0] < 100:
        raise DomainError("ks_uniform requires at least 100 scalar samples")
    # NaN sorts last, and fails every comparison.
    if arr[0] < -1.0 or not arr[-1] <= 1.0:
        raise DomainError("ks_uniform samples must lie in [-1, 1]")
    return _ks_statistic(arr, (arr + 1.0) / 2.0)


def moment_check(batch: SampleBatch) -> list[MCEstimate]:
    """Empirical second moment of each coordinate, with standard errors.

    For any model with uniform[-1, 1] marginals the target is 1/3.
    """
    pts = batch.points
    n = pts.shape[0]
    if n < 1:
        raise DomainError("moment_check requires a nonempty batch")
    sq = pts * pts
    means = sq.mean(axis=0)
    if n > 1:
        errs = sq.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        errs = np.zeros_like(means)
    return [
        MCEstimate(float(m), float(e), n, batch.seed) for m, e in zip(means, errs)
    ]


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    model: str
    input: object
    closed_form: float
    oracle: float
    abs_diff: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "input": self.input,
            "closed_form": self.closed_form,
            "oracle": self.oracle,
            "abs_diff": self.abs_diff,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    rng_algorithm: str
    seed: int
    global_pass: bool
    checks: tuple[CheckResult, ...]
    timestamp: str | None = None

    def to_dict(self) -> dict:
        doc = {
            "rng_algorithm": self.rng_algorithm,
            "seed": self.seed,
            "global_pass": self.global_pass,
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.timestamp is not None:
            doc["timestamp"] = self.timestamp
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


@dataclass
class VerifyConfig:
    """Settings for :func:`verify_suite`.

    ``alpha_fn`` exists as a fault-injection hook for tests: replacing it
    with a corrupted function must flip the alpha-vs-integral check (and
    the global flag) to failure.
    """

    seed: int = 20260810
    n_samples: int = 200_000
    mc_n: int = 100_000
    rect_count: int = 10_000
    mass_rect_count: int = 25
    gammas: tuple[float, ...] = (-math.pi / 4, math.pi / 8, math.pi / 4)
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    tol_scale: float = 1.0
    include_timestamp: bool = True
    alpha_fn: Callable[[float, float], float] = special_math.alpha

    def __post_init__(self) -> None:
        # The samplers' rule, else a bad seed folds into a valid derived stream.
        _check_seed(self.seed)
        # Integer types, so that NaN or a fraction cannot slip past the bounds.
        for name in ("n_samples", "mc_n", "rect_count", "mass_rect_count"):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {count!r}")
        if self.n_samples < 1000 or self.mc_n < 1000:
            raise DomainError("verification needs at least 1000 samples")
        if self.rect_count < 1 or self.mass_rect_count < 1:
            raise DomainError("verification needs at least 1 rectangle per model")
        if not (math.isfinite(self.tol_scale) and self.tol_scale >= 0.0):
            raise DomainError(f"tol_scale must be finite and nonnegative, got {self.tol_scale!r}")


def _derived_seed(master: int, index: int) -> int:
    # Deterministic per-purpose stream so the report does not depend on
    # check execution order.
    return (int(master) * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019 * (index + 1)) % (
        2**63
    )


def _rng(cfg: VerifyConfig, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_derived_seed(cfg.seed, index)))


def _max_gap(pairs: Iterable[tuple[float, float]]) -> float:
    return max((abs(f - g) for f, g in pairs), default=0.0)


def _spherical_inclusion_exclusion(x: float, y: float, z: float) -> float:
    # P[X > x, Y > y, Z > z] of the spherical model from the marginals, the
    # pairwise (circular) CDFs and the joint CDF, unclamped.
    return (
        1.0
        - (x + 1.0) / 2.0
        - (y + 1.0) / 2.0
        - (z + 1.0) / 2.0
        + circular_cdf(x, y)
        + circular_cdf(x, z)
        + circular_cdf(y, z)
        - spherical_cdf(x, y, z)
    )


def _first_min(values: np.ndarray) -> float:
    # min() of the values as Python takes it: the first of equal minima, so
    # of 0.0 and -0.0 the earlier one (np.min can return a later one).
    return float(values[np.argmin(values)])


def _random_corners(rng: np.random.Generator, count: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    a = rng.uniform(-1.0, 1.0, (count, dim))
    b = rng.uniform(-1.0, 1.0, (count, dim))
    return np.minimum(a, b), np.maximum(a, b)


def _random_rectangles(rng: np.random.Generator, count: int, dim: int) -> list[Rectangle]:
    lows, highs = _random_corners(rng, count, dim)
    return [Rectangle(tuple(lows[i]), tuple(highs[i])) for i in range(count)]


def _scalar_rows(cfg: VerifyConfig, models: list, batches: dict) -> Iterator[tuple]:
    """The special_math invariants, and alpha against its tail integral."""
    square = np.linspace(-0.95, 0.95, 19)
    disk = [(x, y) for x in square for y in square if x * x + y * y < 1.0]
    flips = (
        (alpha(ex * abs(x), ey * abs(y)), ex * ey * base)
        for x, y in disk
        for base in [alpha(abs(x), abs(y))]
        for ex in (-1, 1)
        for ey in (-1, 1)
    )
    yield "alpha_sign_equivariance", "-", "19x19 interior grid", _max_gap(flips), 0.0, 1e-12

    thetas = (np.arange(200) + 0.5) * (0.5 * math.pi / 200)
    shrink = 1.0 - 1e-10
    gap = _max_gap(
        (alpha(shrink * math.cos(t), shrink * math.sin(t)), alpha(math.cos(t), math.sin(t)))
        for t in thetas
    )
    yield "alpha_boundary_continuity", "-", "200 circle points", gap, 0.0, 1e-9

    edge = np.linspace(-1.0, 1.0, 41)
    gap = _max_gap((alpha(float(x), 1.0), x / 4.0) for x in edge)
    yield "alpha_unit_edge", "-", "x in [-1, 1], y = 1", gap, 0.0, 1e-12

    axis = edge.tolist()
    gap = _max_gap((alpha_gamma(0.0, u, v), alpha(u, v)) for u in axis for v in axis)
    yield "alpha_gamma_zero_reduction", "-", "41x41 grid", gap, 0.0, 1e-12

    axis = np.linspace(-1.0, 1.0, 21).tolist()
    for g in cfg.gammas:
        gap = _max_gap(
            (alpha_gamma(-g, -u, v), -alpha_gamma(g, u, v)) for u in axis for v in axis
        )
        model = f"elliptical(gamma={g!r})"
        yield "alpha_gamma_negation_symmetry", model, "21x21 grid", gap, 0.0, 1e-12

    triples = _rng(cfg, 1).uniform(-1.0, 1.0, (200, 3))
    perms = (
        (delta3(*q), base)
        for p in triples
        for base in [delta3(*p)]
        for q in permutations(p)
    )
    yield "delta3_permutation_bitwise", "-", "200 random triples", _max_gap(perms), 0.0, 0.0

    axis = np.linspace(0.01, 0.70, 50).tolist()
    gap = _max_gap((h_identity(x, y), 0.5 * math.pi) for x in axis for y in axis)
    yield "h_identity_constant", "-", "50x50 grid", gap, 0.0, 1e-12

    gap = _max_gap(
        (_clamped_asin(a) + _clamped_asin(math.sqrt(1.0 - a * a)), 0.5 * math.pi)
        for a in np.linspace(0.0, 1.0, 101)
    )
    yield "arcsin_complement", "-", "101 unit pairs", gap, 0.0, 1e-12

    half = 0.5 * math.pi
    area = cap_intersection_area(half, half, half)
    yield "cap_area_orthogonal_hemispheres", "-", [half] * 3, area, math.pi, 1e-12

    rng = _rng(cfg, 2)
    lenses = []
    for _ in range(100):
        r1 = rng.uniform(0.1, half)
        r2 = rng.uniform(0.1, half)
        lenses.append((r1, r2, abs(r1 - r2) + rng.uniform(0.05, 0.95) * (r1 + r2 - abs(r1 - r2))))
    gap = _max_gap(
        (cap_intersection_area(r1, r2, d), cap_intersection_area(r2, r1, d))
        for r1, r2, d in lenses
    )
    yield "cap_area_symmetry", "-", "100 random configurations", gap, 0.0, 1e-12
    gap = _max_gap((cap_intersection_area(r1, r2, r1 + r2), 0.0) for r1, r2, _ in lenses)
    yield "cap_area_tangent_zero", "-", "100 tangent pairs", gap, 0.0, 1e-6

    rng = _rng(cfg, 3)
    points = [rng.uniform(0.02, 0.9, 2) for _ in range(100)]
    gap = _max_gap(
        (
            cap_intersection_area(math.acos(x), math.acos(y), half),
            _FOUR_PI * circular_survival(x, y),
        )
        for x, y in points
        if x * x + y * y < 0.98
    )
    yield "cap_area_vs_circular_survival", "circular", "100 random points", gap, 0.0, 1e-9

    for x, y in ((0.3, 0.4), (0.1, 0.7), (0.5, 0.2), (0.45, 0.55), (0.05, 0.05)):
        oracle_val = quad_survival_circular(x, y, cfg.quadrature) - (1.0 - x - y) / 4.0
        yield "alpha_vs_integral", "circular", [x, y], cfg.alpha_fn(x, y), oracle_val, 1e-8


def _model_rows(cfg: VerifyConfig, models: list, batches: dict) -> Iterator[tuple]:
    """The copula properties of each model's closed forms."""
    grid = np.linspace(-1.0, 1.0, 41).tolist()
    for m in models:
        edges = (
            (m.cdf(*(t if j == k else 1.0 for j in range(m.dim))), (t + 1.0) / 2.0)
            for t in grid
            for k in range(m.dim)
        )
        yield "uniform_marginals", m.describe(), "41-point edge grids", _max_gap(edges), 0.0, 1e-12

    for m in models:
        values = evaluate(m, "cdf", *np.meshgrid(*[grid] * m.dim, indexing="ij"))
        violation = max(
            float(np.max(values - 1.0)),
            float(np.max(-values)),
            0.0,
            *(float(np.max(-np.diff(values, axis=k), initial=0.0)) for k in range(m.dim)),
        )
        yield "cdf_range_and_monotonicity", m.describe(), "41-per-axis grid", violation, 0.0, 1e-12

    for i, m in enumerate(models):
        lows, highs = _random_corners(_rng(cfg, 10 + i), cfg.rect_count, m.dim)
        masses = _corner_sum(partial(evaluate, m, "cdf"), lows.T, highs.T)
        least = min(_first_min(masses), 0.0)
        count = f"{cfg.rect_count} random rectangles"
        yield "rect_mass_nonnegative", m.describe(), count, least, 0.0, 1e-12

    axis = np.linspace(-1.0, 1.0, 21).tolist()
    for g in cfg.gammas:
        m = EllipticalCopula(g)
        gap = _max_gap((m.cdf(u, v) - (u + v) / 2.0, m.cdf(-u, -v)) for u in axis for v in axis)
        yield "elliptical_point_symmetry", m.describe(), "21x21 grid", gap, 0.0, 1e-12

    gap = _max_gap((circular_survival(x, y), circular_cdf(-x, -y)) for x in axis for y in axis)
    yield "circular_survival_reflection", "circular", "21x21 grid", gap, 0.0, 0.0

    gap = _max_gap((spherical_cdf(x, y, 1.0), circular_cdf(x, y)) for x in grid for y in grid)
    yield "spherical_margin_collapse", "spherical", "41x41 grid", gap, 0.0, 1e-12

    rng = _rng(cfg, 4)
    triples = [rng.uniform(-1.0, 1.0, 3) for _ in range(100)]
    perms = (
        (spherical_cdf(*q), base)
        for p in triples
        for base in [spherical_cdf(*p)]
        for q in permutations(p)
    )
    gap = _max_gap(perms)
    yield "spherical_exchangeability", "spherical", "100 random triples", gap, 0.0, 1e-12

    rng = _rng(cfg, 5)
    octant = [rng.uniform(0.0, 0.57, 3) for _ in range(100)]
    gap = _max_gap(
        (spherical_survival(*p), _spherical_inclusion_exclusion(*p)) for p in octant
    )
    where = "100 first-octant points"
    yield "spherical_survival_inclusion_exclusion", "spherical", where, gap, 0.0, 1e-12

    # One draw of 10^4 pairs is the stream of 2 * 10^4 scalar draws, in the
    # same order: rng.uniform(0, h) is h * rng.random().
    u = _rng(cfg, 6).random((10**4, 2))
    radius = np.sqrt(0.999 * u[:, 0]).tolist()
    angle = (_TWO_PI * u[:, 1]).tolist()
    disk = [(r * math.cos(t), r * math.sin(t)) for r, t in zip(radius, angle)]
    gap = _max_gap(
        pair for p in disk for pair in zip(nonlinear_inverse(*nonlinear_forward(*p)), p)
    )
    yield "nonlinear_round_trip", "nonlinear", "10000 random disk points", gap, 0.0, 1e-12

    axis = np.linspace(-1.0, 1.0, 31).tolist()
    for m in models:
        if m.dim == 2:
            bad = sum(
                (m.in_support(x, y, tol=-1e-9) and val <= 0.0)
                + (not m.in_support(x, y, tol=1e-9) and val != 0.0)
                for x in axis
                for y in axis
                for val in [m.pdf(x, y)]
            )
            yield "density_support", m.describe(), "31x31 grid", float(bad), 0.0, 0.0


def _sampler_rows(cfg: VerifyConfig, models: list, batches: dict) -> Iterator[tuple]:
    """The samplers' support, laws and reproducibility, and the Monte-Carlo oracle."""
    size = f"n={cfg.n_samples}"
    for m in models:
        pts = batches[m.describe()].points
        if isinstance(m, CircularCopula):
            violation = float(np.max(np.sum(pts * pts, axis=1) - 1.0, initial=0.0))
        elif isinstance(m, SphericalCopula):
            violation = float(np.max(np.abs(np.sum(pts * pts, axis=1) - 1.0)))
        elif isinstance(m, EllipticalCopula):
            q = pts[:, 0] ** 2 + pts[:, 1] ** 2 - 2.0 * pts[:, 0] * pts[:, 1] * math.sin(m.gamma)
            violation = float(np.max(q - math.cos(m.gamma) ** 2, initial=0.0))
        else:
            violation = float(np.max(np.abs(pts) - 1.0, initial=0.0))
        yield "sampler_support", m.describe(), size, max(violation, 0.0), 0.0, 1e-12

    for i, m in enumerate(models):
        seed = _derived_seed(cfg.seed, 2000 + i)
        same = np.array_equal(m.sample(2000, seed).points, m.sample(2000, seed).points)
        yield "sampler_determinism", m.describe(), f"seed={seed}", float(not same), 0.0, 0.0

    # Radial law of the circular sampler: P(R <= r) = 1 - sqrt(1 - r^2).
    radii = np.sort(np.sqrt(np.sum(batches["circular"].points ** 2, axis=1)))
    ks = _ks_statistic(radii, 1.0 - np.sqrt(np.maximum(1.0 - radii * radii, 0.0)))
    crit = KS_CRITICAL_COEFF / math.sqrt(cfg.n_samples)
    yield "circular_radial_law_ks", "circular", size, ks, 0.0, crit

    for m in models:
        pts = batches[m.describe()].points
        ks = max(ks_uniform(pts[:, k]) for k in range(m.dim))
        yield "ks_uniform_marginals", m.describe(), size, ks, 0.0, crit

    # Passes when the KS test rejects the semicircle law of a disk coordinate.
    rng = _rng(cfg, 7)
    disk_r = np.sqrt(rng.uniform(0.0, 1.0, cfg.n_samples))
    ks = ks_uniform(disk_r * np.cos(rng.uniform(0.0, _TWO_PI, cfg.n_samples)))
    yield "ks_negative_control_disk_marginal", "-", size, ks, crit, crit, ks > crit

    for m in models:
        moments = moment_check(batches[m.describe()])
        worst = max(abs(e.value - 1.0 / 3.0) for e in moments)
        band = 4.0 * max(e.std_error for e in moments)
        yield "second_moment_one_third", m.describe(), size, worst, 0.0, band

    for g in cfg.gammas:
        pts = batches[EllipticalCopula(g).describe()].points
        corr = float(np.corrcoef(pts[:, 0], pts[:, 1])[0, 1])
        target = math.sin(g)
        band = 4.0 * (1.0 - target * target) / math.sqrt(cfg.n_samples)
        yield "elliptical_correlation", f"elliptical(gamma={g!r})", size, corr, target, band

    pts = batches["nonlinear"].points
    uv = pts[:, 0] * pts[:, 1]
    band = 4.0 * float(np.std(uv, ddof=1)) / math.sqrt(cfg.n_samples)
    yield "nonlinear_uncorrelated", "nonlinear", size, float(np.mean(uv)), 0.0, band

    raised = 0
    for dim in (4, 7):
        try:
            SphericalCopula(dim=dim)
        except DimensionError:
            raised += 1
    yield "dimension_guard", "spherical", "dims (4, 7)", float(raised), 2.0, 0.0

    ones = mc_cdf(CircularCopula(), (1.0, 1.0), 1000, _derived_seed(cfg.seed, 8))
    yield "mc_cdf_at_all_ones", "circular", [1.0, 1.0], ones.value, 1.0, 0.0

    mc_points = [
        (CircularCopula(), (0.0, 0.0)),
        (CircularCopula(), (0.3, -0.2)),
        (SphericalCopula(), (0.2, 0.3, 0.4)),
        (NonlinearDiskCopula(), (0.5, 0.5)),
        *((EllipticalCopula(g), (0.3, -0.2)) for g in cfg.gammas),
    ]
    for i, (m, p) in enumerate(mc_points):
        est = mc_cdf(m, p, cfg.mc_n, _derived_seed(cfg.seed, 3000 + i))
        band = 4.0 * max(est.std_error, 1e-12)
        yield "mc_cdf_vs_closed_form", m.describe(), list(p), est.value, m.cdf(*p), band


def _quadrature_rows(cfg: VerifyConfig, models: list, batches: dict) -> Iterator[tuple]:
    """The closed forms against the quadrature oracles, and spherical box mass
    against the samples."""
    spec = cfg.quadrature
    rng = _rng(cfg, 9)
    points = [rng.uniform(0.0, 0.9, 2) for _ in range(10)]
    gap = _max_gap(
        (circular_survival(x, y), quad_survival_circular(x, y, spec))
        for x, y in points
        if x * x + y * y < 0.995
    )
    yield "quad_survival_circular_vs_closed", "circular", "10 random points", gap, 0.0, 1e-8

    gap = _max_gap(
        (quad_survival_circular(x, 0.0, spec), (1.0 - x) / 4.0)
        for x in np.linspace(0.0, 0.9, 10).tolist()
    )
    yield "quad_survival_circular_on_axis", "circular", "x in [0, 0.9], y = 0", gap, 0.0, 1e-8

    rng = _rng(cfg, 11)
    points = [rng.uniform(0.05, 0.55, 3) for _ in range(5)]
    perms = (
        (closed, _quad_survival_spherical_one(*q, spec))
        for p in points
        for closed in [spherical_survival(*p)]
        for q in permutations(p)
    )
    where = "5 random points x 6 permutations"
    yield "quad_survival_spherical_vs_closed", "spherical", where, _max_gap(perms), 0.0, 1e-8

    planar = [m for m in models if m.dim == 2]
    square = Rectangle((-1.0, -1.0), (1.0, 1.0))
    for m in planar:
        mass = quad_mass_2d(m, square, spec)
        yield "density_normalization", m.describe(), "full square", mass, 1.0, 1e-9

    count = f"{cfg.mass_rect_count} random rectangles"
    for i, m in enumerate(planar):
        rects = _random_rectangles(_rng(cfg, 4000 + i), cfg.mass_rect_count, 2)
        gap = _max_gap((cdf_volume(m, r), quad_mass_2d(m, r, spec)) for r in rects)
        yield "rect_mass_vs_cdf_volume", m.describe(), count, gap, 0.0, 1e-6

    sph = SphericalCopula()
    pts = batches[sph.describe()].points
    worst = 0.0
    for r in _random_rectangles(_rng(cfg, 12), 5, 3):
        emp = float(np.mean(np.all((pts > r.lower) & (pts <= r.upper), axis=1)))
        vol = cdf_volume(sph, r)
        # Band from the closed-form probability: the empirical variance of
        # a rare rectangle can be spuriously zero.
        se = math.sqrt(max(vol * (1.0 - vol), 0.0) / cfg.n_samples)
        worst = max(worst, abs(vol - emp) - 4.0 * se - 1e-9)
    yield "spherical_rect_mass_vs_mc", "spherical", "5 random boxes", worst, 0.0, 0.0


def verify_suite(config: VerifyConfig | None = None) -> VerificationReport:
    """Run every invariant and oracle comparison; never raises on failures.

    Each check is a row ``(name, model, input, closed_form, oracle, tol[,
    passed])``, and the layers yield their rows in report order; every random
    draw comes from a stream derived from ``config.seed`` and the row's
    purpose.  This loop alone scales ``tol`` by ``tol_scale``, judges a row
    by ``abs(closed_form - oracle) <= tol`` unless it brings its own
    ``passed``, and builds its :class:`CheckResult`.  The global flag is the
    conjunction of the per-check flags.
    """
    cfg = config or VerifyConfig()
    models = [
        CircularCopula(),
        SphericalCopula(),
        *[EllipticalCopula(g) for g in cfg.gammas],
        NonlinearDiskCopula(),
    ]
    # Fixed per-purpose sample batches, one per model.
    batches = {
        m.describe(): m.sample(cfg.n_samples, _derived_seed(cfg.seed, 1000 + i))
        for i, m in enumerate(models)
    }
    checks = []
    for layer in (_scalar_rows, _model_rows, _sampler_rows, _quadrature_rows):
        for name, model, input_, closed, oracle_val, tol, *passed in layer(cfg, models, batches):
            tol = tol * cfg.tol_scale
            diff = abs(closed - oracle_val)
            ok = passed[0] if passed else diff <= tol
            checks.append(
                CheckResult(
                    name, model, input_, float(closed), float(oracle_val),
                    float(diff), float(tol), bool(ok),
                )
            )
    return VerificationReport(
        rng_algorithm=RNG_ALGORITHM,
        seed=cfg.seed,
        global_pass=all(c.passed for c in checks),
        checks=tuple(checks),
        timestamp=(
            _dt.datetime.now(_dt.timezone.utc).isoformat() if cfg.include_timestamp else None
        ),
    )
