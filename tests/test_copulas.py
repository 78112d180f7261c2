import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from ballcopulas import (
    CircularCopula,
    DimensionError,
    DomainError,
    EllipticalCopula,
    NonlinearDiskCopula,
    NotAbsolutelyContinuousError,
    Rectangle,
    SphericalCopula,
    cdf_volume,
    circular_cdf,
    circular_pdf,
    circular_survival,
    ellipse_intersection_area,
    elliptical_cdf,
    elliptical_correlation,
    elliptical_pdf,
    evaluate,
    ks_uniform,
    marginal_pdf_circle,
    marginal_pdf_disk,
    model_from_name,
    nonlinear_cdf,
    nonlinear_forward,
    nonlinear_inverse,
    nonlinear_pdf,
    spherical_cdf,
    spherical_survival,
)

# Frozen from the independent quadrature of the circular tail integral.
SURV_CIRC_03_04 = 0.094975342664564685
CDF_CIRC_03_04 = 0.44497534266456468
# Frozen from the independent quadrature of the 3-D tail integral.
SURV_SPH_02_03_04 = 0.033967720551638207

ALL_MODELS = [
    CircularCopula(),
    SphericalCopula(),
    EllipticalCopula(-math.pi / 4),
    EllipticalCopula(math.pi / 8),
    EllipticalCopula(math.pi / 4),
    NonlinearDiskCopula(),
]


# --- marginals --------------------------------------------------------

def test_marginal_pdf_disk():
    assert marginal_pdf_disk(0.0) == 2.0 / math.pi
    assert marginal_pdf_disk(1.0) == 0.0
    assert marginal_pdf_disk(-1.0) == 0.0
    assert abs(marginal_pdf_disk(0.5) - (2.0 / math.pi) * math.sqrt(0.75)) < 1e-15
    with pytest.raises(DomainError):
        marginal_pdf_disk(1.1)


def test_marginal_pdf_circle():
    assert marginal_pdf_circle(0.0) == 1.0 / math.pi
    assert abs(marginal_pdf_circle(0.5) - 1.0 / (math.pi * math.sqrt(0.75))) < 1e-15
    assert marginal_pdf_circle(0.999999) > 100.0
    with pytest.raises(DomainError):
        marginal_pdf_circle(1.0)
    with pytest.raises(DomainError):
        marginal_pdf_circle(-1.0)


# --- circular model ---------------------------------------------------

def test_circular_pdf():
    assert circular_pdf(0.0, 0.0) == 1.0 / (2.0 * math.pi)
    assert circular_pdf(0.8, 0.8) == 0.0
    assert circular_pdf(1.0, 0.0) == 0.0  # boundary convention
    with pytest.raises(DomainError):
        circular_pdf(1.5, 0.0)


def test_circular_cdf_values():
    assert circular_cdf(0.0, 0.0) == 0.25
    assert circular_cdf(1.0, 1.0) == 1.0
    assert circular_cdf(-1.0, 0.3) == 0.0
    assert abs(circular_cdf(0.3, 0.4) - CDF_CIRC_03_04) < 1e-12
    for x in np.linspace(-1.0, 1.0, 21):
        assert abs(circular_cdf(float(x), 1.0) - (x + 1.0) / 2.0) <= 1e-12


def test_circular_survival_values():
    assert circular_survival(0.0, 0.0) == 0.25
    assert circular_survival(0.8, 0.8) == 0.0
    assert circular_survival(1.0, 0.0) == 0.0
    assert abs(circular_survival(0.3, 0.4) - SURV_CIRC_03_04) < 1e-12


def test_circular_survival_is_reflected_cdf():
    rng = np.random.default_rng(3)
    for _ in range(300):
        x, y = rng.uniform(-1.0, 1.0, 2)
        assert circular_survival(x, y) == circular_cdf(-x, -y)


# --- spherical model --------------------------------------------------

def test_spherical_cdf_values():
    assert spherical_cdf(0.0, 0.0, 0.0) == 0.125
    assert spherical_cdf(1.0, 1.0, 1.0) == 1.0
    assert spherical_cdf(-1.0, 0.5, 0.5) == 0.0
    for t in np.linspace(-1.0, 1.0, 21):
        assert abs(spherical_cdf(float(t), 1.0, 1.0) - (t + 1.0) / 2.0) <= 1e-12


def test_spherical_margin_collapse():
    for x in np.linspace(-1.0, 1.0, 21):
        for y in np.linspace(-1.0, 1.0, 21):
            assert abs(
                spherical_cdf(float(x), float(y), 1.0) - circular_cdf(float(x), float(y))
            ) <= 1e-12


def test_spherical_cdf_exchangeable():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y, z = rng.uniform(-1.0, 1.0, 3)
        base = spherical_cdf(x, y, z)
        for perm in permutations((x, y, z)):
            assert abs(spherical_cdf(*perm) - base) <= 1e-12


def test_spherical_survival_values():
    assert spherical_survival(0.0, 0.0, 0.0) == 0.125
    assert spherical_survival(0.6, 0.6, 0.6) == 0.0
    assert abs(spherical_survival(0.2, 0.3, 0.4) - SURV_SPH_02_03_04) < 1e-12
    with pytest.raises(DomainError):
        spherical_survival(-0.1, 0.3, 0.4)


def test_spherical_model_survival_all_orthants():
    sph = SphericalCopula()
    # agrees with the closed octant form where both apply
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y, z = rng.uniform(0.0, 0.57, 3)
        assembled = (
            1.0
            - (x + 1.0) / 2.0
            - (y + 1.0) / 2.0
            - (z + 1.0) / 2.0
            + circular_cdf(x, y)
            + circular_cdf(x, z)
            + circular_cdf(y, z)
            - spherical_cdf(x, y, z)
        )
        assert abs(sph.survival(x, y, z) - assembled) <= 1e-12
        assert spherical_survival(x, y, z) == sph.survival(x, y, z)
    # sign symmetry: P[X > x, Y > y, Z > z] = F(-x, -y, -z), bit for bit
    for _ in range(200):
        x, y, z = rng.uniform(-1.0, 1.0, 3)
        assert sph.survival(x, y, z) == spherical_cdf(-x, -y, -z)


def test_spherical_survival_exact_zero_outside_ball():
    # With every coordinate positive, the tail beyond the sphere is +0.0
    # exactly, through the scalar forms and through evaluate.
    sph = SphericalCopula()
    rng = np.random.default_rng(9)
    d = np.abs(rng.normal(size=(500, 3))) + 1e-3
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    points = np.concatenate([d, np.clip(d * rng.uniform(1.0, 1.7, (500, 1)), 0.0, 1.0)])
    points = points[np.all(points > 0.0, axis=1) & (np.sum(points * points, axis=1) >= 1.0)]
    assert len(points) > 800
    scalar = [f(*p) for p in points.tolist() for f in (sph.survival, spherical_survival)]
    values = np.concatenate([evaluate(sph, "survival", *points.T), scalar])
    # Compared as bit patterns, so -0.0 fails.
    assert np.all(values.view(np.int64) == 0)


def test_spherical_dimension_guard():
    SphericalCopula(dim=3)
    with pytest.raises(DimensionError, match="1/3"):
        SphericalCopula(dim=4)
    with pytest.raises(DimensionError):
        SphericalCopula(dim=7)
    with pytest.raises(DimensionError):
        SphericalCopula(dim=2)


def test_spherical_has_no_density():
    with pytest.raises(NotAbsolutelyContinuousError):
        SphericalCopula().pdf(0.1, 0.1, 0.1)


# --- elliptical model -------------------------------------------------

def test_elliptical_pdf_values():
    g = math.pi / 8
    assert abs(elliptical_pdf(g, 0.0, 0.0) - 1.0 / (2.0 * math.pi * math.cos(g))) < 1e-15
    assert elliptical_pdf(g, 0.99, -0.99) == 0.0
    for x in np.linspace(-0.9, 0.9, 10):
        for y in np.linspace(-0.9, 0.9, 10):
            assert elliptical_pdf(0.0, float(x), float(y)) == circular_pdf(float(x), float(y))


def test_elliptical_cdf_reductions():
    for x in np.linspace(-1.0, 1.0, 21):
        for y in np.linspace(-1.0, 1.0, 21):
            assert elliptical_cdf(0.0, float(x), float(y)) == circular_cdf(float(x), float(y))
    g = math.pi / 8
    for t in np.linspace(-1.0, 1.0, 21):
        assert abs(elliptical_cdf(g, float(t), 1.0) - (t + 1.0) / 2.0) <= 1e-12
        assert abs(elliptical_cdf(g, 1.0, float(t)) - (t + 1.0) / 2.0) <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_elliptical_support_near_right_angle_corner(sign):
    # Near the corner (sign, 1) where the support ellipse touches the square,
    # cos^2(g) - (u^2 + v^2 - 2uv sin(g)) cancels as g -> sign*pi/2.  The
    # reference is exact from the float cos and sin of |g|, in the frame
    # where a negative angle is reflected to (-g, -u, v).
    g = sign * (math.pi / 2 - 1e-7)
    c, s = Fraction(math.cos(g)), Fraction(math.sin(abs(g)))
    model = EllipticalCopula(g)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        v = 1.0 - float(rng.uniform(0.0, 0.1))
        u = sign * (v + float(rng.uniform(-1e-7, 1e-7)))
        a, b = Fraction(sign * u), Fraction(v)
        ref = c * c - a * a - b * b + 2 * a * b * (1 - c * c / (1 + s))
        pdf = elliptical_pdf(g, u, v)
        assert (pdf > 0.0) == (ref > 0), (u, v)
        assert model.in_support(u, v, tol=0.0) == (ref >= 0), (u, v)
        if ref > 0:
            exact = 1.0 / (2.0 * math.pi * math.sqrt(ref))
            assert abs(pdf - exact) <= 1e-10 * exact, (u, v)


def test_elliptical_point_symmetry():
    rng = np.random.default_rng(11)
    for g in (-math.pi / 4, math.pi / 8, math.pi / 4):
        for _ in range(200):
            u, v = rng.uniform(-1.0, 1.0, 2)
            lhs = elliptical_cdf(g, u, v)
            rhs = (u + v) / 2.0 + elliptical_cdf(g, -u, -v)
            assert abs(lhs - rhs) <= 1e-12


def test_elliptical_correlation():
    assert elliptical_correlation(0.0) == 0.0
    assert elliptical_correlation(math.pi / 4) == math.sin(math.pi / 4)
    assert elliptical_correlation(-math.pi / 8) == -math.sin(math.pi / 8)


def test_elliptical_gamma_validation():
    with pytest.raises(DomainError):
        EllipticalCopula(math.pi / 2)
    with pytest.raises(DomainError):
        elliptical_pdf(1.6, 0.0, 0.0)


# --- nonlinear model --------------------------------------------------

def test_nonlinear_forward_examples():
    assert nonlinear_forward(0.0, 0.0) == (0.0, 0.0)
    assert nonlinear_forward(0.6, 0.0) == (0.6, 0.0)
    with pytest.raises(DomainError):
        nonlinear_forward(0.8, 0.8)
    with pytest.raises(DomainError):
        nonlinear_forward(1.0, 0.0)


def test_nonlinear_inverse_examples():
    assert nonlinear_inverse(0.0, 0.0) == (0.0, 0.0)
    assert nonlinear_inverse(1.0, 0.0) == (1.0, 0.0)
    x, y = nonlinear_inverse(0.5, 0.5)
    expected = 0.5 * math.sqrt(0.75) / math.sqrt(1.0 - 0.0625)
    assert abs(x - expected) < 1e-15 and abs(y - expected) < 1e-15
    with pytest.raises(DomainError):
        nonlinear_inverse(1.0, -1.0)


def test_nonlinear_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        r = math.sqrt(rng.uniform(0.0, 0.9999))
        t = rng.uniform(0.0, 2.0 * math.pi)
        x, y = r * math.cos(t), r * math.sin(t)
        u, v = nonlinear_forward(x, y)
        assert abs(u) <= 1.0 and abs(v) <= 1.0
        xb, yb = nonlinear_inverse(u, v)
        assert abs(xb - x) <= 1e-12 and abs(yb - y) <= 1e-12


def test_nonlinear_pdf_values():
    assert nonlinear_pdf(0.0, 0.0) == 1.0 / math.pi
    assert nonlinear_pdf(0.3, 1.0) == 0.0
    assert nonlinear_pdf(0.3, -1.0) == 0.0
    assert nonlinear_pdf(1.0, 1.0) == 0.0


def test_ellipse_intersection_area():
    for v in np.linspace(0.05, 0.95, 19):
        assert abs(ellipse_intersection_area(1.0, float(v)) - math.pi * v) <= 1e-12
        assert ellipse_intersection_area(0.0, float(v)) == 0.0
    sym = ellipse_intersection_area(0.3, 0.7)
    assert abs(sym - ellipse_intersection_area(0.7, 0.3)) <= 1e-15
    with pytest.raises(DomainError):
        ellipse_intersection_area(1.0, 1.0)
    with pytest.raises(DomainError):
        ellipse_intersection_area(-0.1, 0.5)


def test_nonlinear_cdf_values():
    assert nonlinear_cdf(0.0, 0.0) == 0.25
    assert nonlinear_cdf(1.0, 1.0) == 1.0
    assert nonlinear_cdf(1.0, -1.0) == 0.0
    assert nonlinear_cdf(-1.0, 1.0) == 0.0
    assert nonlinear_cdf(-1.0, -1.0) == 0.0
    for t in np.linspace(-1.0, 1.0, 21):
        assert abs(nonlinear_cdf(float(t), 1.0) - (t + 1.0) / 2.0) <= 1e-12
        assert abs(nonlinear_cdf(1.0, float(t)) - (t + 1.0) / 2.0) <= 1e-12


def test_nonlinear_cdf_consistent_with_area():
    # on the positive quadrant the sign-folded corner mass is a quarter of
    # the ellipse overlap area over pi
    rng = np.random.default_rng(17)
    for _ in range(100):
        u, v = rng.uniform(0.01, 0.99, 2)
        quadrant = nonlinear_cdf(u, v) - (u + v + 1.0) / 4.0
        assert abs(quadrant - ellipse_intersection_area(u, v) / (4.0 * math.pi)) <= 1e-12


# --- samplers ---------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
def test_sampler_determinism(model):
    b1 = model.sample(500, 987654321)
    b2 = model.sample(500, 987654321)
    assert np.array_equal(b1.points, b2.points)
    b3 = model.sample(500, 123)
    assert not np.array_equal(b1.points, b3.points)
    assert b1.rng_algorithm == "PCG64"
    assert len(b1) == 500


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
def test_sampler_support(model):
    pts = model.sample(20000, 2024).points
    assert pts.shape == (20000, model.dim)
    if isinstance(model, CircularCopula):
        assert np.max(np.sum(pts * pts, axis=1)) <= 1.0 + 1e-12
    elif isinstance(model, SphericalCopula):
        assert np.max(np.abs(np.sum(pts * pts, axis=1) - 1.0)) <= 1e-12
    elif isinstance(model, EllipticalCopula):
        q = pts[:, 0] ** 2 + pts[:, 1] ** 2 - 2.0 * pts[:, 0] * pts[:, 1] * math.sin(model.gamma)
        assert np.max(q) <= math.cos(model.gamma) ** 2 + 1e-12
    else:
        assert np.max(np.abs(pts)) <= 1.0


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.describe())
def test_sampler_marginals_ks(model):
    n = 50000
    pts = model.sample(n, 31415).points
    crit = 1.63 / math.sqrt(n)
    for k in range(model.dim):
        assert ks_uniform(pts[:, k]) <= crit


def test_circular_radial_law():
    # P(R <= r) = 1 - sqrt(1 - r^2), the inverse-CDF law behind the sampler
    n = 100000
    pts = CircularCopula().sample(n, 271828).points
    r = np.sort(np.sqrt(np.sum(pts * pts, axis=1)))
    cdf = 1.0 - np.sqrt(np.maximum(1.0 - r * r, 0.0))
    idx = np.arange(1, n + 1)
    d = max(np.max(idx / n - cdf), np.max(cdf - (idx - 1) / n))
    assert d <= 1.63 / math.sqrt(n)


def test_sample_argument_validation():
    model = CircularCopula()
    with pytest.raises(DomainError):
        model.sample(0, 1)
    with pytest.raises(DomainError):
        model.sample(10, -1)
    with pytest.raises(DomainError):
        model.sample(10, 2**64)


def test_model_from_name():
    assert model_from_name("circular").name == "circular"
    assert model_from_name("spherical").dim == 3
    assert model_from_name("elliptical", gamma=0.5).gamma == 0.5
    assert model_from_name("nonlinear").name == "nonlinear"
    with pytest.raises(DomainError):
        model_from_name("elliptical")
    with pytest.raises(DomainError):
        model_from_name("gaussian")
    # gamma iff elliptical: a gamma for another model is not ignored.
    for name in ("circular", "spherical", "nonlinear"):
        with pytest.raises(DomainError):
            model_from_name(name, gamma=0.5)


# --- rectangles -------------------------------------------------------

def test_rectangle_validation():
    Rectangle((-0.5, 0.0), (0.5, 0.25))
    with pytest.raises(DomainError):
        Rectangle((0.5, 0.0), (-0.5, 0.25))
    with pytest.raises(DomainError):
        Rectangle((-1.5, 0.0), (0.5, 0.25))
    with pytest.raises(DomainError):
        Rectangle((0.0,), (0.5,))
    with pytest.raises(DomainError):
        Rectangle((0.0, 0.0), (0.5, 0.25, 0.5))


def test_cdf_volume_total_mass():
    full2 = Rectangle((-1.0, -1.0), (1.0, 1.0))
    full3 = Rectangle((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0))
    for model in ALL_MODELS:
        rect = full3 if model.dim == 3 else full2
        assert abs(cdf_volume(model, rect) - 1.0) <= 1e-12


def test_cdf_volume_quadrant():
    rect = Rectangle((0.0, 0.0), (1.0, 1.0))
    assert abs(cdf_volume(CircularCopula(), rect) - 0.25) <= 1e-12


def test_cdf_volume_dimension_mismatch():
    with pytest.raises(DomainError):
        cdf_volume(CircularCopula(), Rectangle((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)))


def test_cdf_volume_nonnegative():
    rng = np.random.default_rng(19)
    for model in ALL_MODELS:
        for _ in range(500):
            a = rng.uniform(-1.0, 1.0, model.dim)
            b = rng.uniform(-1.0, 1.0, model.dim)
            rect = Rectangle(tuple(np.minimum(a, b)), tuple(np.maximum(a, b)))
            assert cdf_volume(model, rect) >= -1e-12


def test_models_are_immutable():
    model = EllipticalCopula(0.25)
    with pytest.raises(Exception):
        model.gamma = 0.5


# --- regressions near the support boundary ------------------------------

@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_elliptical_cdf_on_border_near_right_angle(sign):
    # Within 1.4e-4 of +-pi/2 the support ellipse nearly touches the
    # square's corners, where forms that divide by sqrt(1 - u^2) break down.
    border = np.linspace(-1.0, 1.0, 41)
    for eps in np.geomspace(1.4e-4, 1e-12, 18):
        model = EllipticalCopula(sign * (math.pi / 2 - float(eps)))
        for t in border:
            t = float(t)
            for x, y in ((t, -1.0), (t, 1.0), (-1.0, t), (1.0, t)):
                assert 0.0 <= model.cdf(x, y) <= 1.0
            assert abs(model.cdf(t, 1.0) - (t + 1.0) / 2.0) <= 1e-15
            assert abs(model.cdf(1.0, t) - (t + 1.0) / 2.0) <= 1e-15
            assert model.cdf(t, -1.0) <= 1e-15
            assert model.cdf(-1.0, t) <= 1e-15


def test_cdf_volume_nonnegative_near_circle():
    # The mass of a tiny rectangle straddling the circle is a difference of
    # nearly equal CDF values, so rounding magnified near the support
    # boundary shows up as negative mass.
    model = CircularCopula()
    rect = Rectangle(
        (-0.7060652907277185, -0.7081467426402821),
        (-0.7060652879816722, -0.7081467398942358),
    )
    assert cdf_volume(model, rect) >= -1e-12
    rng = np.random.default_rng(2026)
    n = 20000
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    radius = 1.0 + rng.uniform(-3e-9, 3e-9, n)
    side = rng.uniform(1e-10, 5e-9, n)
    worst = 0.0
    for t, r, h in zip(theta, radius, side):
        x, y = r * math.cos(t), r * math.sin(t)
        lower = tuple(min(max(c - h / 2.0, -1.0), 1.0) for c in (x, y))
        upper = tuple(min(max(c + h / 2.0, -1.0), 1.0) for c in (x, y))
        worst = min(worst, cdf_volume(model, Rectangle(lower, upper)))
    assert worst >= -1e-12
