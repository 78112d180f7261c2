"""Independent numerical ground truth for the closed-form copulas.

Three kinds of oracle live here:

* adaptive quadrature of the one-dimensional integral representations of
  the circular and spherical tail probabilities (:func:`quad_survival_circular`,
  :func:`quad_survival_spherical`),
* density-mass quadrature over rectangles (:func:`quad_mass_2d`), with the
  inner integral done in closed form (the ``t -> t / sqrt(1 - s^2)``
  substitution turns the singular inner integrand into a difference of two
  ``atan2`` terms, leaving a bounded outer integrand),
* Monte-Carlo estimators and distribution tests (:func:`mc_cdf`,
  :func:`ks_uniform`, :func:`moment_check`).

The integrands take each ``arcsin(a/w)`` as ``atan2(a, sqrt(w^2 - a^2))``,
as the closed forms do: no quotient, and exact at the support's edge.

:func:`verify_suite` runs every invariant of the math and model layers plus
all oracle comparisons and returns a structured, JSON-serializable
:class:`VerificationReport`.  Given the same seed it is deterministic.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from itertools import chain, permutations
from typing import ClassVar, Iterable, Iterator

import numpy as np

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
    circular_survival,
    evaluate,
    spherical_survival,
    _SLAB,
    _alpha_array,
    _alpha_gamma_array,
    _check_seed,
    _corner_sum,
    _h_identity_array,
    _is_integer,
    _make_rng,
    _nonlinear_forward,
    _nonlinear_inverse,
    _pick_exact,
    _slabs,
)
from .errors import (
    DimensionError,
    DomainError,
    NotAbsolutelyContinuousError,
    OracleInconsistencyError,
    QuadratureError,
)
from .special_math import _HALF_PI, _TWO_PI, _delta3, alpha, cap_intersection_area

__all__ = [
    "KS_CRITICAL_COEFF",
    "CheckResult",
    "MCEstimate",
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

_FOUR_PI = 4.0 * math.pi

#: Asymptotic two-sided KS critical coefficient at significance 0.01.
KS_CRITICAL_COEFF = 1.63

# Skew angles of the elliptical models that verify_suite checks.
_GAMMAS = (-math.pi / 4, math.pi / 8, math.pi / 4)


# Gauss-Legendre order of every quadrature panel.
_GL_ORDER = 64

# Most panel evaluations of one integral; past it, QuadratureError.
_MAX_PANELS = 1 << 20


@lru_cache(maxsize=1)
def _gl_nodes() -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre after the substitution s = lo + (hi - lo)*phi(t), with
    # phi(t) = 3t^2 - 2t^3 and t = (x + 1)/2: nodes 2*phi(t) - 1 and weights
    # w*phi'(t) = w*6t(1 - t).  Near either end of a panel, s - lo (or
    # hi - s) goes as t^2, so a square-root kink or a 1/sqrt end there
    # becomes a smooth integrand in t.
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    t = 0.5 * (x + 1.0)
    return 2.0 * (t * t * (3.0 - 2.0 * t)) - 1.0, w * (6.0 * t * (1.0 - t))


def _panels(f, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> np.ndarray:
    # Gauss-Legendre value of each panel [lo[i], hi[i]] of integral
    # owner[i], f called on slabs of whole panels.  A panel's nodes are those
    # a call for it alone would use, and its 64 weighted values are summed by
    # halving: a BLAS dot product rounds by the kernel OpenBLAS picks.
    nodes, weights = _gl_nodes()

    def rule(mid, half, owner):
        points = mid[:, None] + half[:, None] * nodes
        values = f(points.ravel(), np.repeat(owner, _GL_ORDER))
        terms = np.asarray(values, float).reshape(points.shape) * weights
        for k in (32, 16, 8, 4, 2, 1):
            terms[:, :k] += terms[:, k:2 * k]
        return half * terms[:, 0]

    return _slabs(rule, [0.5 * (lo + hi), 0.5 * (hi - lo), owner], _SLAB // _GL_ORDER)


def _check_abs_tol(abs_tol: float) -> None:
    if not (math.isfinite(abs_tol) and abs_tol > 0.0):
        raise DomainError(f"abs_tol must be finite and positive, got {abs_tol!r}")


def integrate_adaptive(f, a: float, b: float, abs_tol: float = 1e-9, points: Iterable[float] = ()) -> float:
    """Adaptively integrate a vectorized integrand ``f`` over ``[a, b]``.

    ``points`` say where ``f`` has kinks, which bisection can converge
    falsely across: the first level has one panel between each two
    consecutive distinct values of ``a``, the points inside ``(a, b)`` and
    ``b``, in any order.  A non-finite point raises :class:`DomainError`,
    as a non-finite limit or an ``abs_tol`` that is not finite and positive
    does.  Each panel ``[lo, hi]`` takes order-64 Gauss-Legendre in ``t``
    after the substitution ``s = lo + (hi - lo)*(3t^2 - 2t^3)``, which makes
    a square-root kink or an integrable ``1/sqrt`` end at either edge of the
    panel smooth.  Panels are bisected until each
    halving changes the panel value by at most ``abs_tol`` times the
    panel's share of ``[a, b]``; past 2^20 panel evaluations it raises
    :class:`QuadratureError`.  The panels are
    evaluated one level at a time: the halves of every panel of a level go
    to ``f`` together, in calls of a bounded number of points, and ``f``
    must act element by element.  The accepted panels are summed in
    depth-first order, right half first, which is by descending lower
    limit.  So the panel tree, the result and any :class:`QuadratureError`
    are those of refining one panel per call.  This is the batch of one of
    the refinement loop that the oracles below run over many integrals at
    once.
    """
    return _integrate_many(lambda s, k: f(s), [a], [b], abs_tol, [points])[0]


def _integrate_many(f, a, b, abs_tol: float, points) -> list[float]:
    # integrate_adaptive over [a[k], b[k]] with kinks points[k] for every k:
    # f(s, k) gets the integral index k of each point s.  Every integral
    # keeps the panel tree, the bits and the raise it has alone, since
    # _MAX_PANELS caps each integral's panels.  The pending panels stay in
    # integral order, a split panel's halves in its place.  A step refines
    # every pending panel of the integrals that own the first
    # _SLAB // _GL_ORDER of them, so the lowest is refined alone once it
    # holds that many.  No panel is evaluated twice, and the pending panels
    # stay near one integral's: the lowest may grow to the cap while the
    # others keep what they reached in the window.  The accepted panels
    # wait for one sum after the loop, so they grow with the whole batch;
    # verify_suite's batches converge in one step or raise, which keeps
    # them to a few per integral.
    _check_abs_tol(abs_tol)
    a, b, points = list(a), list(b), [list(p) for p in points]
    if not all(math.isfinite(e) for e in chain(a, b, *points)):
        raise DomainError("integration limits and points must be finite")
    # The first panels of each integral run between consecutive edges; an
    # empty interval has none.  A set drops repeated points so that no first
    # panel has zero width; -0.0 equals 0.0, and which of the two stays
    # moves no panel's nodes.
    edges = [
        [start, *sorted({p for p in inside if start < p < stop}), stop] if start < stop else []
        for start, stop, inside in zip(a, b, points)
    ]
    totals = [0.0] * len(a)
    # 32-bit integral indices: a step at the panel cap holds 2^19 of them.
    owner = np.array([k for k, e in enumerate(edges) for _ in e[1:]], np.int32)
    if not owner.size:
        return totals
    lo = np.array([e for k in edges for e in k[:-1]], float)
    hi = np.array([e for k in edges for e in k[1:]], float)
    full = np.array(b, float) - np.array(a, float)
    evaluations = np.bincount(owner, minlength=len(a))
    whole = _panels(f, lo, hi, owner)
    accepted_lo, accepted_owner, accepted = [], [], []
    while lo.size:
        last = owner[min(lo.size, _SLAB // _GL_ORDER) - 1]
        n = np.searchsorted(owner, last, "right")
        evaluations[:last + 1] += 2 * np.bincount(owner[:n])
        if evaluations.max() > _MAX_PANELS:
            raise QuadratureError(
                f"no convergence to abs_tol={abs_tol!r} within {_MAX_PANELS} panel evaluations"
            )
        mid = 0.5 * (lo[:n] + hi[:n])
        halves = _panels(
            f, np.concatenate((lo[:n], mid)), np.concatenate((mid, hi[:n])), np.tile(owner[:n], 2)
        )
        refined = halves[:n] + halves[n:]
        width = hi[:n] - lo[:n]
        # Per-panel budget proportional to width keeps each integral's
        # summed error below abs_tol; the width floor stops infinite
        # refinement at integrable endpoint singularities.
        done = (np.abs(refined - whole[:n]) <= abs_tol * (width / full[owner[:n]])) | (
            width <= 16.0 * np.spacing(np.maximum(np.maximum(np.abs(lo[:n]), np.abs(hi[:n])), 1.0))
        )
        accepted_lo.append(lo[:n][done])
        accepted_owner.append(owner[:n][done])
        accepted.append(refined[done])
        # A split panel's halves take its place.  No view of the step's
        # panels outlives the line that replaces them.
        split = ~done
        lo = np.concatenate((np.array((lo[:n], mid)).T[split].ravel(), lo[n:]))
        hi = np.concatenate((np.array((mid, hi[:n])).T[split].ravel(), hi[n:]))
        owner = np.concatenate((np.repeat(owner[:n][split], 2), owner[n:]))
        whole = np.concatenate((halves.reshape(2, n).T[split].ravel(), whole[n:]))
    # Each integral sums its panels by descending lower limit.
    done_lo, done_owner, done_value = map(np.concatenate, (accepted_lo, accepted_owner, accepted))
    order = np.lexsort((-done_lo, done_owner))
    for k, value in zip(done_owner[order].tolist(), done_value[order].tolist()):
        totals[k] += value
    return totals


# ---------------------------------------------------------------------------
# integral representations of the tail probabilities
# ---------------------------------------------------------------------------

def _asin_ratio(a: np.ndarray, r2: np.ndarray) -> np.ndarray:
    # arcsin(a / sqrt(r2)) for r2 >= 0, clamped to +-pi/2, with no quotient:
    # exact at the support's edge a*a == r2, and exactly +-pi/2 (or 0.0 at
    # a == 0) beyond it, where r2 - a*a < 0.
    return np.arctan2(a, np.sqrt(np.maximum(r2 - a * a, 0.0)))


def quad_survival_circular(x: float, y: float, abs_tol: float = 1e-9) -> float:
    """Tail probability of the circular model by 1-D quadrature.

    Evaluates ``(1/(2*pi)) * integral_x^{sqrt(1-y^2)} [pi/2 -
    atan2(y, sqrt(1-s^2-y^2))] ds`` for ``0 <= x, y`` with ``x^2 + y^2 <
    1``: twice the spherical tail integral at ``z = 0``, since the ``(X, Y)``
    margin of the uniform sphere is the circular law.  Independent of the
    closed form, so it serves as its oracle.
    """
    return _circular_tails([(x, y)], abs_tol)[0]


def _circular_tails(points, abs_tol: float) -> list[float]:
    # quad_survival_circular at every (x, y) of points, as one batch.
    for x, y in points:
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise DomainError(f"quad_survival_circular: ({x!r}, {y!r}) outside [0, 1]^2")
        if not x * x + y * y < 1.0:
            raise DomainError("quad_survival_circular requires x^2 + y^2 < 1")
    return [2.0 * v for v in _tail_integrals([(x, y, 0.0) for x, y in points], abs_tol)]


def _tail_integrals(points, abs_tol: float) -> list[float]:
    # The x-first tail integral, over 4*pi, at every (x, y, z) of points, as
    # one batch; an integral whose upper limit falls to x or below is 0.0.
    x, y, z = np.array(points, float).reshape(-1, 3).T

    def integrand(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        r2 = 1.0 - s * s
        return 0.5 * np.pi - _asin_ratio(y[k], r2) - _asin_ratio(z[k], r2)

    hi = np.sqrt(1.0 - y * y - z * z)
    return [v / _FOUR_PI for v in _integrate_many(integrand, x.tolist(), hi.tolist(), abs_tol, [()] * x.size)]


def quad_survival_spherical(x: float, y: float, z: float, abs_tol: float = 1e-9) -> float:
    """First-octant tail probability of the spherical model by quadrature.

    Evaluates ``(1/(4*pi)) * integral_x^{sqrt(1-y^2-z^2)} [pi/2
    - atan2(y, sqrt(1-s^2-y^2)) - atan2(z, sqrt(1-s^2-z^2))] ds``, each
    square root's argument clamped at 0.0.  The integral is exchangeable in
    ``(x, y, z)``; all six argument orders are evaluated, as one batch, and
    must agree within ``10 * abs_tol``,
    otherwise :class:`OracleInconsistencyError` is raised.
    """
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and 0.0 <= z <= 1.0):
        raise DomainError(
            f"quad_survival_spherical: ({x!r}, {y!r}, {z!r}) outside [0, 1]^3"
        )
    if not x * x + y * y + z * z < 1.0:
        raise DomainError("quad_survival_spherical requires x^2 + y^2 + z^2 < 1")
    values = _tail_integrals(list(permutations((x, y, z))), abs_tol)
    if max(values) - min(values) > 10.0 * abs_tol:
        raise OracleInconsistencyError(
            f"permutations of the tail integral disagree: spread "
            f"{max(values) - min(values)!r} exceeds {10.0 * abs_tol!r}"
        )
    return values[0]


# ---------------------------------------------------------------------------
# density mass over rectangles
# ---------------------------------------------------------------------------

def _inner_mass_elliptical(sg: float, cg: float, t_lo: np.ndarray, t_hi: np.ndarray):
    def inner(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        w2 = cg * cg * (1.0 - s * s)
        center = s * sg
        return (_asin_ratio(t_hi[k] - center, w2) - _asin_ratio(t_lo[k] - center, w2)) / _TWO_PI

    return inner


def _nonlinear_antiderivative(s: np.ndarray, v) -> np.ndarray:
    # Antiderivative in the second coordinate of the nonlinear density at
    # fixed first coordinate s, for v in [-1, 1] (a float, or an array that
    # broadcasts with s):
    #   H(s, v) = [ sqrt(1-s^2) * v * sqrt(1-v^2) / (2 * (1 - s^2 v^2))
    #               + arctan(sqrt(1-s^2) * v / sqrt(1-v^2)) / 2 ] / pi,
    # verified by differentiation and, in the tests, against raw quadrature
    # of the density.  At v = +-1 it is +-1/4.
    root = np.sqrt(np.maximum(1.0 - s * s, 0.0))
    cv = np.sqrt(1.0 - v * v)
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = root * (v * cv) / (2.0 * (1.0 - s * s * v * v))
    term2 = 0.5 * np.arctan2(root * v, cv)
    return np.where(v >= 1.0, 0.25, np.where(v <= -1.0, -0.25, (term1 + term2) / math.pi))


def _inner_mass_nonlinear(t_lo: np.ndarray, t_hi: np.ndarray):
    def inner(s: np.ndarray, k: np.ndarray) -> np.ndarray:
        return _nonlinear_antiderivative(s, t_hi[k]) - _nonlinear_antiderivative(s, t_lo[k])

    return inner


def _support_kinks(sg: float, cg: float, t_lo: float, t_hi: float) -> list[float]:
    # The outer integrand has a kink wherever the bottom or top edge t of the
    # rectangle meets the support ellipse, at s = t*sin(gamma) +-
    # cos(gamma)*sqrt(1 - t^2).  The two kinks of an edge coincide where it
    # is tangent to the support, and kinks of both edges where they sit at
    # the same |t|; the integrator drops repeats and kinks outside.
    kinks = []
    for t in (t_lo, t_hi):
        if abs(t) < 1.0:
            half = cg * math.sqrt(1.0 - t * t)
            kinks += [t * sg - half, t * sg + half]
    return kinks


def quad_mass_2d(model: CopulaModel, rect: Rectangle, abs_tol: float = 1e-9) -> float:
    """Probability mass of ``rect`` by quadrature of the model density.

    The inner integral is evaluated in closed form (a difference of two
    ``atan2`` terms for the disk-type densities, an explicit antiderivative
    for the nonlinear one), so the adaptive outer integrand is bounded, and
    exactly 0.0 for a rectangle of zero height.  It is one integral
    over the rectangle's width, whose first panels end where the bottom and
    top edges meet the support boundary, and it converges to ``abs_tol``
    within 2^20 panel evaluations or raises :class:`QuadratureError`.
    Rejected for the spherical model, which has no Lebesgue density.
    """
    return _rect_masses(model, [rect], abs_tol)[0]


def _rect_masses(model: CopulaModel, rects: list[Rectangle], abs_tol: float) -> list[float]:
    # quad_mass_2d of every rectangle, as one batch; a rectangle of zero
    # width is an empty interval, and one of zero height integrates 0.0.
    if model.dim != 2:
        raise NotAbsolutelyContinuousError(
            "quad_mass_2d requires a two-dimensional model with a density"
        )
    if any(rect.dim != 2 for rect in rects):
        raise DomainError("quad_mass_2d requires a two-dimensional rectangle")
    s_lo, t_lo = np.array([rect.lower for rect in rects], float).reshape(-1, 2).T
    s_hi, t_hi = np.array([rect.upper for rect in rects], float).reshape(-1, 2).T
    if isinstance(model, (CircularCopula, EllipticalCopula)):
        # The circular model is the sheared one at gamma = 0.
        gamma = getattr(model, "gamma", 0.0)
        sg, cg = math.sin(gamma), math.cos(gamma)
        inner = _inner_mass_elliptical(sg, cg, t_lo, t_hi)
        kinks = [_support_kinks(sg, cg, lo, hi) for lo, hi in zip(t_lo.tolist(), t_hi.tolist())]
    elif isinstance(model, NonlinearDiskCopula):
        inner = _inner_mass_nonlinear(t_lo, t_hi)
        kinks = [()] * len(rects)
    else:
        raise NotAbsolutelyContinuousError(f"unsupported model {model.name!r}")
    return _integrate_many(inner, s_lo.tolist(), s_hi.tolist(), abs_tol, kinks)


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
    return _empirical_cdf(model.sample(n, seed), point)


def _empirical_cdf(batch: SampleBatch, point: tuple[float, ...]) -> MCEstimate:
    # One comparison per coordinate column: np.all over the short rows of an
    # (n, dim) array costs many times more.
    n = len(batch)
    below = np.logical_and.reduce([col <= t for col, t in zip(batch.points.T, point)])
    q = np.count_nonzero(below) / n
    return MCEstimate(q, math.sqrt(q * (1.0 - q) / n), n, batch.seed)


def _ks_statistic(sorted_values: np.ndarray, cdf_values: np.ndarray) -> float:
    n = sorted_values.shape[0]
    idx = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(idx / n - cdf_values))
    d_minus = float(np.max(cdf_values - (idx - 1.0) / n))
    return max(d_plus, d_minus)


def ks_uniform(samples) -> float:
    """Two-sided KS statistic of ``samples`` against uniform[-1, 1]."""
    arr = np.asarray(samples, float)
    if arr.ndim != 1 or arr.shape[0] < 100:
        raise DomainError("ks_uniform requires at least 100 scalar samples")
    arr = np.sort(arr)
    # NaN sorts last, and fails every comparison.
    if arr[0] < -1.0 or not arr[-1] <= 1.0:
        raise DomainError("ks_uniform samples must lie in [-1, 1]")
    return _ks_statistic(arr, (arr + 1.0) / 2.0)


def moment_check(batch: SampleBatch) -> list[MCEstimate]:
    """Empirical second moment of each coordinate, with standard errors.

    For any model with uniform[-1, 1] marginals the target is 1/3.  Each
    coordinate's squares are summed pairwise as one contiguous array, so
    the moments do not depend on the layout of ``batch.points``; the
    samplers' batches are column-major, so each column is read in order.
    """
    n = len(batch)
    if n < 1:
        raise DomainError("moment_check requires a nonempty batch")
    estimates = []
    for column in batch.points.T:
        sq = column * column
        err = float(sq.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
        estimates.append(MCEstimate(float(sq.mean()), err, n, batch.seed))
    return estimates


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
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    checks: tuple[CheckResult, ...]
    timestamp: str | None = None
    rng_algorithm: ClassVar[str] = RNG_ALGORITHM

    @property
    def global_pass(self) -> bool:
        return all(c.passed for c in self.checks)

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
    """Settings for :func:`verify_suite`, one per flag of ``ballcop verify``;
    ``n_samples`` is the size of the one batch per model that every sampled
    check reads, the Monte-Carlo CDF rows too, and ``abs_tol`` the
    tolerance of every quadrature oracle."""

    seed: int = 20260810
    n_samples: int = 200_000
    rect_count: int = 10_000
    abs_tol: float = 1e-9
    tol_scale: float = 1.0
    include_timestamp: bool = True

    def __post_init__(self) -> None:
        # The samplers' rule, else a bad seed folds into a valid derived stream.
        _check_seed(self.seed)
        # Integer types, so that NaN or a fraction cannot slip past the bounds.
        for name, least, what in (("n_samples", 1000, "samples"), ("rect_count", 1, "rectangle per model")):
            count = getattr(self, name)
            if not _is_integer(count):
                raise DomainError(f"{name} must be an integer, got {count!r}")
            if count < least:
                raise DomainError(f"verification needs at least {least} {what}")
        _check_abs_tol(self.abs_tol)
        if not (math.isfinite(self.tol_scale) and self.tol_scale >= 0.0):
            raise DomainError(f"tol_scale must be finite and nonnegative, got {self.tol_scale!r}")


def _derived_seed(master: int, index: int) -> int:
    # Deterministic per-purpose stream so the report does not depend on
    # check execution order.
    return (int(master) * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019 * (index + 1)) % (
        2**63
    )


def _rng(cfg: VerifyConfig, index: int) -> np.random.Generator:
    return _make_rng(_derived_seed(cfg.seed, index))


def _gap(values, targets) -> float:
    # The largest |value - target| over two arrays that broadcast, 0.0 for
    # none; a NaN anywhere makes it NaN, which fails the row.
    return float(np.max(np.abs(np.asarray(values, float) - np.asarray(targets, float)), initial=0.0))


def _grid(*axes) -> list[np.ndarray]:
    # Every point of the grid over axes, one flat array per coordinate: the
    # alpha kernels take flat arrays of one length.
    return [t.ravel() for t in np.meshgrid(*axes, indexing="ij")]


def _spherical_inclusion_exclusion(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    # P[X > x, Y > y, Z > z] of the spherical model from the marginals, the
    # pairwise (circular) CDFs and the joint CDF, unclamped.
    circle = partial(evaluate, CircularCopula(), "cdf")
    return (
        1.0
        - (x + 1.0) / 2.0
        - (y + 1.0) / 2.0
        - (z + 1.0) / 2.0
        + circle(x, y)
        + circle(x, z)
        + circle(y, z)
        - evaluate(SphericalCopula(), "cdf", x, y, z)
    )


# Rectangles per planar model of rect_mass_vs_cdf_volume.
_MASS_RECTS = 25


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


def _scalar_rows(cfg: VerifyConfig) -> Iterator[tuple]:
    """The special_math invariants, and alpha against its tail integral."""
    square = np.linspace(-0.95, 0.95, 19)
    x, y = _grid(square, square)
    disk = x * x + y * y < 1.0
    x, y = np.abs(x[disk]), np.abs(y[disk])
    base = _alpha_array(x, y)
    signs = [(ex, ey) for ex in (-1, 1) for ey in (-1, 1)]
    gap = _gap(
        np.stack([_alpha_array(ex * x, ey * y) for ex, ey in signs]),
        np.stack([ex * ey * base for ex, ey in signs]),
    )
    yield "alpha_sign_equivariance", "-", "19x19 interior grid", gap, 0.0, 1e-12

    # The circle points take math.cos and math.sin, which np.cos and
    # np.sin may miss by an ulp.
    thetas = ((np.arange(200) + 0.5) * (_HALF_PI / 200)).tolist()
    x = np.fromiter(map(math.cos, thetas), float, len(thetas))
    y = np.fromiter(map(math.sin, thetas), float, len(thetas))
    shrink = 1.0 - 1e-10
    gap = _gap(_alpha_array(shrink * x, shrink * y), _alpha_array(x, y))
    yield "alpha_boundary_continuity", "-", "200 circle points", gap, 0.0, 1e-9

    edge = np.linspace(-1.0, 1.0, 41)
    gap = _gap(_alpha_array(edge, np.ones_like(edge)), edge / 4.0)
    yield "alpha_unit_edge", "-", "x in [-1, 1], y = 1", gap, 0.0, 1e-12

    u, v = _grid(edge, edge)
    gap = _gap(_alpha_gamma_array(0.0, u, v), _alpha_array(u, v))
    yield "alpha_gamma_zero_reduction", "-", "41x41 grid", gap, 0.0, 1e-12

    axis = np.linspace(-1.0, 1.0, 21)
    u, v = _grid(axis, axis)
    for g in _GAMMAS:
        gap = _gap(_alpha_gamma_array(-g, -u, v), -_alpha_gamma_array(g, u, v))
        model = f"elliptical(gamma={g!r})"
        yield "alpha_gamma_negation_symmetry", model, "21x21 grid", gap, 0.0, 1e-12

    # Each of the six argument orders of every triple, in the order of
    # permutations(); the first is the triple itself.
    triples = _rng(cfg, 1).uniform(-1.0, 1.0, (200, 3))
    x, y, z = np.concatenate([triples[:, list(q)] for q in permutations(range(3))]).T
    pairs = _alpha_array(y, z), _alpha_array(x, z), _alpha_array(x, y)
    values = _delta3(x, y, z, pairs, _pick_exact).reshape(6, -1)
    yield "delta3_permutation_bitwise", "-", "200 random triples", _gap(values, values[0]), 0.0, 0.0

    axis = np.linspace(0.01, 0.70, 50)
    gap = _gap(_h_identity_array(*_grid(axis, axis)), _HALF_PI)
    yield "h_identity_constant", "-", "50x50 grid", gap, 0.0, 1e-12

    area = cap_intersection_area(_HALF_PI, _HALF_PI, _HALF_PI)
    yield "cap_area_orthogonal_hemispheres", "-", [_HALF_PI] * 3, area, math.pi, 1e-12

    rng = _rng(cfg, 2)
    lenses = []
    for _ in range(100):
        r1 = rng.uniform(0.1, _HALF_PI)
        r2 = rng.uniform(0.1, _HALF_PI)
        lenses.append((r1, r2, abs(r1 - r2) + rng.uniform(0.05, 0.95) * (r1 + r2 - abs(r1 - r2))))
    gap = _gap(
        [cap_intersection_area(r1, r2, d) for r1, r2, d in lenses],
        [cap_intersection_area(r2, r1, d) for r1, r2, d in lenses],
    )
    yield "cap_area_symmetry", "-", "100 random configurations", gap, 0.0, 1e-12
    gap = _gap([cap_intersection_area(r1, r2, r1 + r2) for r1, r2, _ in lenses], 0.0)
    yield "cap_area_tangent_zero", "-", "100 tangent pairs", gap, 0.0, 1e-6

    rng = _rng(cfg, 3)
    points = [rng.uniform(0.02, 0.9, 2) for _ in range(100)]
    points = [(x, y) for x, y in points if x * x + y * y < 0.98]
    gap = _gap(
        [cap_intersection_area(math.acos(x), math.acos(y), _HALF_PI) for x, y in points],
        [_FOUR_PI * circular_survival(x, y) for x, y in points],
    )
    yield "cap_area_vs_circular_survival", "circular", "100 random points", gap, 0.0, 1e-9

    points = ((0.3, 0.4), (0.1, 0.7), (0.5, 0.2), (0.45, 0.55), (0.05, 0.05))
    for (x, y), tail in zip(points, _circular_tails(points, cfg.abs_tol)):
        oracle_val = tail - (1.0 - x - y) / 4.0
        yield "alpha_vs_integral", "circular", [x, y], alpha(x, y), oracle_val, 1e-8


def _grid_rows(models: list) -> Iterator[tuple]:
    # The marginal and monotonicity rows from each model's CDF on one
    # 41-per-axis grid, evaluated once.  The grid ends at 1.0, so index -1
    # of an axis is the upper edge of the cube.  Returns the gap of
    # spherical_margin_collapse, the sphere's grid at z = 1 against the
    # circular one, so that no grid outlives these rows.
    grid = np.linspace(-1.0, 1.0, 41)
    cdfs = {
        m.describe(): evaluate(m, "cdf", *np.meshgrid(*[grid] * m.dim, indexing="ij", sparse=True))
        for m in models
    }
    for m in models:
        values = cdfs[m.describe()]
        edges = [values[tuple(slice(None) if j == k else -1 for j in range(m.dim))] for k in range(m.dim)]
        gap = _gap(np.stack(edges), (grid + 1.0) / 2.0)
        yield "uniform_marginals", m.describe(), "41-point edge grids", gap, 0.0, 1e-12

    for m in models:
        values = cdfs[m.describe()]
        violation = max(
            float(np.max(values - 1.0)),
            float(np.max(-values)),
            0.0,
            *(float(np.max(-np.diff(values, axis=k), initial=0.0)) for k in range(m.dim)),
        )
        yield "cdf_range_and_monotonicity", m.describe(), "41-per-axis grid", violation, 0.0, 1e-12
    return _gap(cdfs["spherical"][:, :, -1], cdfs["circular"])


def _corner_masses(model: CopulaModel, *corners: np.ndarray) -> np.ndarray:
    # The masses of rectangles from lower and upper corner columns, every
    # corner in one evaluate: axis k of the mesh holds coordinate k's two
    # values and the last axis the rectangles, so the spherical pair alphas
    # are taken once per distinct pair.  The corner sum indexes the corners.
    dim = model.dim
    mesh = [
        np.stack((lo, hi)).reshape(*(2 if j == k else 1 for j in range(dim)), -1)
        for k, (lo, hi) in enumerate(zip(corners[:dim], corners[dim:]))
    ]
    values = evaluate(model, "cdf", *mesh)
    return _corner_sum(lambda *bits: values[bits], (0,) * dim, (1,) * dim)


def _model_rows(cfg: VerifyConfig, models: list) -> Iterator[tuple]:
    """The copula properties of each model's closed forms."""
    margin_gap = yield from _grid_rows(models)
    for i, m in enumerate(models):
        lows, highs = _random_corners(_rng(cfg, 10 + i), cfg.rect_count, m.dim)
        masses = _slabs(partial(_corner_masses, m), [*lows.T, *highs.T])
        least = min(_first_min(masses), 0.0)
        count = f"{cfg.rect_count} random rectangles"
        yield "rect_mass_nonnegative", m.describe(), count, least, 0.0, 1e-12

    u, v = np.meshgrid(*[np.linspace(-1.0, 1.0, 21)] * 2, indexing="ij", sparse=True)
    for g in _GAMMAS:
        m = EllipticalCopula(g)
        gap = _gap(evaluate(m, "cdf", u, v) - (u + v) / 2.0, evaluate(m, "cdf", -u, -v))
        yield "elliptical_point_symmetry", m.describe(), "21x21 grid", gap, 0.0, 1e-12

    circle, sphere = CircularCopula(), SphericalCopula()
    gap = _gap(evaluate(circle, "survival", u, v), evaluate(circle, "cdf", -u, -v))
    yield "circular_survival_reflection", "circular", "21x21 grid", gap, 0.0, 0.0

    yield "spherical_margin_collapse", "spherical", "41x41 grid", margin_gap, 0.0, 1e-12

    # One draw of 100 triples is the stream of 100 draws of three.
    triples = _rng(cfg, 4).uniform(-1.0, 1.0, (100, 3))
    perms = np.concatenate([triples[:, list(q)] for q in permutations(range(3))])
    values = evaluate(sphere, "cdf", *perms.T).reshape(6, -1)
    gap = _gap(values, values[0])
    yield "spherical_exchangeability", "spherical", "100 random triples", gap, 0.0, 1e-12

    # The octant points lie inside the ball (3 * 0.57^2 < 1), where
    # spherical_survival is the survival kernel.
    x, y, z = _rng(cfg, 5).uniform(0.0, 0.57, (100, 3)).T
    gap = _gap(evaluate(sphere, "survival", x, y, z), _spherical_inclusion_exclusion(x, y, z))
    where = "100 first-octant points"
    yield "spherical_survival_inclusion_exclusion", "spherical", where, gap, 0.0, 1e-12

    # One draw of 10^4 pairs is the stream of 2 * 10^4 scalar draws, in the
    # same order: rng.uniform(0, h) is h * rng.random().  The disk points
    # take math.cos and math.sin, as the circle points above do.
    u = _rng(cfg, 6).random((10**4, 2))
    radius = np.sqrt(0.999 * u[:, 0])
    angle = (_TWO_PI * u[:, 1]).tolist()
    x = radius * np.fromiter(map(math.cos, angle), float, len(angle))
    y = radius * np.fromiter(map(math.sin, angle), float, len(angle))
    back = _nonlinear_inverse(*_nonlinear_forward(x, y, np.sqrt), np.sqrt)
    gap = _gap(np.stack(back), np.stack((x, y)))
    yield "nonlinear_round_trip", "nonlinear", "10000 random disk points", gap, 0.0, 1e-12

    x, y = np.meshgrid(*[np.linspace(-1.0, 1.0, 31)] * 2, indexing="ij", sparse=True)
    for m in models:
        if m.dim == 2:
            val = evaluate(m, "pdf", x, y)
            zero_inside = m.in_support(x, y, tol=-1e-9) & (val <= 0.0)
            nonzero_outside = ~m.in_support(x, y, tol=1e-9) & (val != 0.0)
            bad = np.count_nonzero(zero_inside) + np.count_nonzero(nonzero_outside)
            yield "density_support", m.describe(), "31x31 grid", float(bad), 0.0, 0.0


def _sampler_rows(cfg: VerifyConfig, models: list, batches: dict) -> Iterator[tuple]:
    """The samplers' support, laws and reproducibility, and the Monte-Carlo oracle."""
    size = f"n={cfg.n_samples}"
    for m in models:
        outside = np.count_nonzero(~m.in_support(*batches[m.describe()].points.T))
        yield "sampler_support", m.describe(), size, float(outside), 0.0, 0.0

    for i, m in enumerate(models):
        seed = _derived_seed(cfg.seed, 2000 + i)
        same = np.array_equal(m.sample(2000, seed).points, m.sample(2000, seed).points)
        yield "sampler_determinism", m.describe(), f"seed={seed}", float(not same), 0.0, 0.0

    # Radial law of the circular sampler: P(R <= r) = 1 - sqrt(1 - r^2).
    x, y = batches["circular"].points.T
    radii = np.sort(np.sqrt(x * x + y * y))
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
        worst = _gap([e.value for e in moments], 1.0 / 3.0)
        band = 4.0 * float(np.max([e.std_error for e in moments]))
        yield "second_moment_one_third", m.describe(), size, worst, 0.0, band

    for g in _GAMMAS:
        # From centered sums: np.corrcoef's BLAS product rounds by CPU.
        x, y = batches[EllipticalCopula(g).describe()].points.T
        dx, dy = x - np.mean(x), y - np.mean(y)
        corr = float(np.sum(dx * dy) / math.sqrt(np.sum(dx * dx) * np.sum(dy * dy)))
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

    ones = _empirical_cdf(batches["circular"], (1.0, 1.0))
    yield "mc_cdf_at_all_ones", "circular", [1.0, 1.0], ones.value, 1.0, 0.0

    mc_points = [
        (CircularCopula(), (0.0, 0.0)),
        (CircularCopula(), (0.3, -0.2)),
        (SphericalCopula(), (0.2, 0.3, 0.4)),
        (NonlinearDiskCopula(), (0.5, 0.5)),
        *((EllipticalCopula(g), (0.3, -0.2)) for g in _GAMMAS),
    ]
    for m, p in mc_points:
        est = _empirical_cdf(batches[m.describe()], p)
        band = 4.0 * max(est.std_error, 1e-12)
        yield "mc_cdf_vs_closed_form", m.describe(), list(p), est.value, m.cdf(*p), band


def _quadrature_rows(cfg: VerifyConfig, models: list, batches: dict) -> Iterator[tuple]:
    """The closed forms against the quadrature oracles, and spherical box mass
    against the samples."""
    rng = _rng(cfg, 9)
    points = [(x, y) for x, y in (rng.uniform(0.0, 0.9, 2) for _ in range(10)) if x * x + y * y < 0.995]
    closed = [circular_survival(x, y) for x, y in points]
    gap = _gap(closed, _circular_tails(points, cfg.abs_tol))
    yield "quad_survival_circular_vs_closed", "circular", "10 random points", gap, 0.0, 1e-8

    axis = np.linspace(0.0, 0.9, 10).tolist()
    tails = _circular_tails([(x, 0.0) for x in axis], cfg.abs_tol)
    gap = _gap(tails, [(1.0 - x) / 4.0 for x in axis])
    yield "quad_survival_circular_on_axis", "circular", "x in [0, 0.9], y = 0", gap, 0.0, 1e-8

    rng = _rng(cfg, 11)
    points = [rng.uniform(0.05, 0.55, 3) for _ in range(5)]
    closed = [spherical_survival(*p) for p in points for _ in range(6)]
    tails = _tail_integrals([q for p in points for q in permutations(p)], cfg.abs_tol)
    where = "5 random points x 6 permutations"
    gap = _gap(closed, tails)
    yield "quad_survival_spherical_vs_closed", "spherical", where, gap, 0.0, 1e-8

    planar = [m for m in models if m.dim == 2]
    square = Rectangle((-1.0, -1.0), (1.0, 1.0))
    for m in planar:
        mass = quad_mass_2d(m, square, cfg.abs_tol)
        yield "density_normalization", m.describe(), "full square", mass, 1.0, 1e-9

    count = f"{_MASS_RECTS} random rectangles"
    for i, m in enumerate(planar):
        rects = _random_rectangles(_rng(cfg, 4000 + i), _MASS_RECTS, 2)
        gap = _gap([cdf_volume(m, r) for r in rects], _rect_masses(m, rects, cfg.abs_tol))
        yield "rect_mass_vs_cdf_volume", m.describe(), count, gap, 0.0, 1e-6

    sph = SphericalCopula()
    pts = batches[sph.describe()].points
    excess = []
    for r in _random_rectangles(_rng(cfg, 12), 5, 3):
        within = [(col > lo) & (col <= hi) for col, lo, hi in zip(pts.T, r.lower, r.upper)]
        emp = np.count_nonzero(np.logical_and.reduce(within)) / len(pts)
        vol = cdf_volume(sph, r)
        # Band from the closed-form probability: the empirical variance of
        # a rare rectangle can be spuriously zero.
        se = math.sqrt(max(vol * (1.0 - vol), 0.0) / cfg.n_samples)
        excess.append(abs(vol - emp) - 4.0 * se - 1e-9)
    # At least 0.0, and NaN if any box's is.
    worst = float(np.max(excess, initial=0.0))
    yield "spherical_rect_mass_vs_mc", "spherical", "5 random boxes", worst, 0.0, 0.0


def _sampled_rows(cfg: VerifyConfig, models: list) -> Iterator[tuple]:
    # One sample batch per model, shared by the sampled rows: drawn after
    # the closed-form rows, so that it is not held beside their CDF grids.
    batches = {
        m.describe(): m.sample(cfg.n_samples, _derived_seed(cfg.seed, 1000 + i))
        for i, m in enumerate(models)
    }
    yield from _sampler_rows(cfg, models, batches)
    yield from _quadrature_rows(cfg, models, batches)


def verify_suite(config: VerifyConfig | None = None) -> VerificationReport:
    """Run every invariant and oracle comparison.  A failed check does not
    raise, but a quadrature oracle that cannot reach ``config.abs_tol``
    within 2^20 panel evaluations raises :class:`QuadratureError`.

    Each check is a row ``(name, model, input, closed_form, oracle, tol[,
    passed])``, and the layers yield their rows in report order; every random
    draw comes from a stream derived from ``config.seed`` and the row's
    purpose, and every sampled row reads its model's one batch.  This loop
    alone scales ``tol`` by ``tol_scale``, judges a row by ``abs(closed_form
    - oracle) <= tol`` unless it brings its own ``passed``, and builds its
    :class:`CheckResult`.  The global flag is the conjunction of the
    per-check flags.
    """
    cfg = config or VerifyConfig()
    models = [
        CircularCopula(),
        SphericalCopula(),
        *[EllipticalCopula(g) for g in _GAMMAS],
        NonlinearDiskCopula(),
    ]
    checks = []
    rows = chain(_scalar_rows(cfg), _model_rows(cfg, models), _sampled_rows(cfg, models))
    for name, model, input_, closed, oracle_val, tol, *passed in rows:
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
        seed=cfg.seed,
        checks=tuple(checks),
        timestamp=(
            _dt.datetime.now(_dt.timezone.utc).isoformat() if cfg.include_timestamp else None
        ),
    )
