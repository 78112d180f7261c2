import hashlib
import json
import math

import numpy as np
import pytest

from ballcopulas import (
    CircularCopula,
    DomainError,
    EllipticalCopula,
    NonlinearDiskCopula,
    NotAbsolutelyContinuousError,
    QuadratureError,
    QuadratureSpec,
    Rectangle,
    SphericalCopula,
    VerifyConfig,
    alpha,
    cdf_volume,
    circular_survival,
    integrate_adaptive,
    ks_uniform,
    mc_cdf,
    moment_check,
    quad_mass_2d,
    quad_survival_circular,
    quad_survival_spherical,
    spherical_survival,
    verify_suite,
)
from ballcopulas.oracle import _nonlinear_antiderivative

SURV_CIRC_03_04 = 0.094975342664564685
SURV_SPH_02_03_04 = 0.033967720551638207


# --- quadrature engine -------------------------------------------------

def test_quadrature_spec_validation():
    QuadratureSpec()
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    for bad in (math.inf, math.nan, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            QuadratureSpec(abs_tol=bad)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=1)
    # NaN never trips the panel cap (evaluations > nan is False), and a
    # float is not a panel count.
    for bad in (math.nan, math.inf, 64.0, True, "64"):
        with pytest.raises(DomainError, match="integer"):
            QuadratureSpec(max_subdivisions=bad)
    assert QuadratureSpec(max_subdivisions=np.int64(4)).max_subdivisions == 4


def test_integrate_known_values():
    spec = QuadratureSpec()
    assert abs(integrate_adaptive(lambda s: s * s, 0.0, 1.0, spec) - 1.0 / 3.0) <= 1e-9
    assert abs(integrate_adaptive(np.sin, 0.0, math.pi, spec) - 2.0) <= 1e-9
    # bounded sqrt endpoint behavior, the worst case these oracles meet
    assert abs(integrate_adaptive(np.sqrt, 0.0, 1.0, spec) - 2.0 / 3.0) <= 1e-9
    quarter = integrate_adaptive(
        lambda s: np.sqrt(np.maximum(1.0 - s * s, 0.0)), 0.0, 1.0, spec
    )
    assert abs(quarter - math.pi / 4.0) <= 1e-9


def test_integrate_empty_and_reversed_interval():
    assert integrate_adaptive(np.sin, 1.0, 1.0) == 0.0
    assert integrate_adaptive(np.sin, 2.0, 1.0) == 0.0


def test_integrate_reports_convergence_failure():
    spec = QuadratureSpec(abs_tol=1e-13, max_subdivisions=5)
    with pytest.raises(QuadratureError):
        integrate_adaptive(lambda s: np.sqrt(np.abs(np.sin(7.0 * s))), 0.0, 3.0, spec)


# --- tail integrals ----------------------------------------------------

def test_quad_survival_circular_quadrant():
    assert abs(quad_survival_circular(0.0, 0.0) - 0.25) <= 1e-9


def test_quad_survival_circular_frozen():
    assert abs(quad_survival_circular(0.3, 0.4) - SURV_CIRC_03_04) <= 1e-9
    assert abs(quad_survival_circular(0.3, 0.4) - circular_survival(0.3, 0.4)) <= 1e-9


def test_quad_survival_circular_near_boundary_vanishes():
    val = quad_survival_circular(0.7, 0.71)
    assert 0.0 <= val < 1e-3
    assert abs(val - circular_survival(0.7, 0.71)) <= 1e-8


def test_quad_survival_circular_on_axis():
    for x in np.linspace(0.0, 0.9, 10):
        assert abs(quad_survival_circular(float(x), 0.0) - (1.0 - x) / 4.0) <= 1e-8


def test_quad_survival_circular_domain():
    with pytest.raises(DomainError):
        quad_survival_circular(-0.1, 0.5)
    with pytest.raises(DomainError):
        quad_survival_circular(0.8, 0.8)


def test_quad_survival_spherical_octant():
    assert abs(quad_survival_spherical(0.0, 0.0, 0.0) - 0.125) <= 1e-9


def test_quad_survival_spherical_frozen_and_permutations():
    assert abs(quad_survival_spherical(0.2, 0.3, 0.4) - SURV_SPH_02_03_04) <= 1e-9
    closed = spherical_survival(0.2, 0.3, 0.4)
    for perm in ((0.2, 0.3, 0.4), (0.4, 0.2, 0.3), (0.3, 0.4, 0.2)):
        assert abs(quad_survival_spherical(*perm) - closed) <= 1e-8


def test_quad_survival_spherical_domain():
    with pytest.raises(DomainError):
        quad_survival_spherical(0.6, 0.6, 0.6)
    with pytest.raises(DomainError):
        quad_survival_spherical(-0.1, 0.2, 0.2)


# --- rectangle mass ----------------------------------------------------

def test_quad_mass_normalization():
    full = Rectangle((-1.0, -1.0), (1.0, 1.0))
    for model in (CircularCopula(), EllipticalCopula(math.pi / 4), NonlinearDiskCopula()):
        assert abs(quad_mass_2d(model, full) - 1.0) <= 1e-9


def test_quad_mass_rejects_spherical():
    with pytest.raises(NotAbsolutelyContinuousError):
        quad_mass_2d(SphericalCopula(), Rectangle((-1.0, -1.0), (1.0, 1.0)))


def test_quad_mass_matches_cdf_volume():
    rng = np.random.default_rng(41)
    models = [CircularCopula(), EllipticalCopula(-math.pi / 8), NonlinearDiskCopula()]
    for model in models:
        for _ in range(10):
            a = rng.uniform(-1.0, 1.0, 2)
            b = rng.uniform(-1.0, 1.0, 2)
            rect = Rectangle(tuple(np.minimum(a, b)), tuple(np.maximum(a, b)))
            assert abs(quad_mass_2d(model, rect) - cdf_volume(model, rect)) <= 1e-8


def test_quad_mass_small_rect_circular():
    rect = Rectangle((0.0, 0.0), (0.3, 0.4))
    assert abs(quad_mass_2d(CircularCopula(), rect) - cdf_volume(CircularCopula(), rect)) <= 1e-9


def test_nonlinear_antiderivative_matches_raw_quadrature():
    # the closed inner integral must agree with direct integration of the
    # density slice, independently of any CDF formula
    model = NonlinearDiskCopula()
    rng = np.random.default_rng(43)
    for _ in range(20):
        u = float(rng.uniform(-0.995, 0.995))
        v1, v2 = sorted(rng.uniform(-1.0, 1.0, 2))

        def slice_pdf(v):
            v = np.asarray(v, float)
            den = 1.0 - u * u * v * v
            return np.sqrt((1.0 - u * u) * (1.0 - v * v)) / (math.pi * den * den)

        raw = integrate_adaptive(slice_pdf, v1, v2)
        closed = float(
            _nonlinear_antiderivative(np.array([u]), v2)[0]
            - _nonlinear_antiderivative(np.array([u]), v1)[0]
        )
        assert abs(raw - closed) <= 1e-9


# --- Monte-Carlo estimators and tests ----------------------------------

def test_mc_cdf_at_ones():
    est = mc_cdf(CircularCopula(), (1.0, 1.0), 1000, 7)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_mc_cdf_known_quadrant():
    est = mc_cdf(CircularCopula(), (0.0, 0.0), 100000, 11)
    assert abs(est.value - 0.25) <= 4.0 * est.std_error


def test_mc_cdf_spherical_vs_closed():
    from ballcopulas import spherical_cdf

    est = mc_cdf(SphericalCopula(), (0.2, 0.3, 0.4), 200000, 13)
    assert abs(est.value - spherical_cdf(0.2, 0.3, 0.4)) <= 4.0 * est.std_error


def test_mc_cdf_validation():
    with pytest.raises(DomainError):
        mc_cdf(CircularCopula(), (0.0, 0.0), 999, 1)
    with pytest.raises(DomainError):
        mc_cdf(CircularCopula(), (0.0, 0.0, 0.0), 1000, 1)
    with pytest.raises(DomainError):
        mc_cdf(CircularCopula(), (2.0, 0.0), 1000, 1)
    with pytest.raises(DomainError):
        mc_cdf(CircularCopula(), (math.nan, 0.0), 1000, 1)


def test_ks_uniform_exact_quantiles():
    n = 1000
    samples = 2.0 * (np.arange(1, n + 1) - 0.5) / n - 1.0
    assert ks_uniform(samples) <= 1.0 / n


def test_ks_uniform_accepts_uniform_rejects_semicircle():
    n = 100000
    rng = np.random.default_rng(17)
    crit = 1.63 / math.sqrt(n)
    assert ks_uniform(rng.uniform(-1.0, 1.0, n)) <= crit
    # coordinates of uniform disk points follow the semicircle law, not uniform
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    assert ks_uniform(r * np.cos(t)) > crit


def test_ks_uniform_validation():
    with pytest.raises(DomainError):
        ks_uniform(np.zeros(50))
    with pytest.raises(DomainError):
        ks_uniform(np.linspace(-2.0, 1.0, 200))
    # NaN sorts last and compares False with 1.0.
    with pytest.raises(DomainError):
        ks_uniform(np.append(np.linspace(-1.0, 1.0, 200), math.nan))


def test_moment_check():
    batch = SphericalCopula().sample(100000, 23)
    moments = moment_check(batch)
    assert len(moments) == 3
    for est in moments:
        assert abs(est.value - 1.0 / 3.0) <= 4.0 * est.std_error
        assert est.n == 100000


# --- verification suite -------------------------------------------------

SMALL = dict(n_samples=20000, mc_n=20000, rect_count=500, mass_rect_count=5)


def test_verify_suite_passes_and_is_deterministic():
    cfg = VerifyConfig(seed=7, **SMALL)
    rep1 = verify_suite(cfg)
    assert rep1.global_pass, [c.name for c in rep1.failures()]
    rep2 = verify_suite(VerifyConfig(seed=7, **SMALL))
    d1, d2 = rep1.to_dict(), rep2.to_dict()
    d1.pop("timestamp")
    d2.pop("timestamp")
    assert json.dumps(d1) == json.dumps(d2)


def test_verify_suite_inventory():
    # Names, models and inputs of every check, in report order; the
    # tolerances are left out because some derive from the samples.
    rep = verify_suite(VerifyConfig(seed=7, **SMALL))
    inventory = json.dumps([(c.name, c.model, c.input) for c in rep.checks])
    assert len(rep.checks) == 103
    assert hashlib.sha256(inventory.encode()).hexdigest() == (
        "87994ed6b7b8b0e65a4437c2812c3df586b2e770372480334a86aa96948dd32e"
    )


def test_verify_suite_report_schema():
    cfg = VerifyConfig(seed=7, include_timestamp=False, **SMALL)
    rep = verify_suite(cfg)
    doc = json.loads(rep.to_json())
    assert set(doc) == {"rng_algorithm", "seed", "global_pass", "checks"}
    assert doc["rng_algorithm"] == "PCG64"
    assert doc["seed"] == 7
    for check in doc["checks"]:
        assert set(check) == {
            "name",
            "model",
            "input",
            "closed_form",
            "oracle",
            "abs_diff",
            "tol",
            "pass",
        }
    assert doc["global_pass"] == all(c["pass"] for c in doc["checks"])


def test_verify_suite_flags_corrupted_alpha():
    cfg = VerifyConfig(
        seed=7, alpha_fn=lambda x, y: alpha(x, y) + 1e-3, **SMALL
    )
    rep = verify_suite(cfg)
    assert not rep.global_pass
    assert any(c.name == "alpha_vs_integral" and not c.passed for c in rep.checks)
    # only the hooked check family is affected
    assert all(c.passed for c in rep.checks if c.name != "alpha_vs_integral")


def test_verify_suite_zero_tolerance_fails():
    cfg = VerifyConfig(seed=7, tol_scale=0.0, **SMALL)
    assert not verify_suite(cfg).global_pass


def test_verify_config_validation():
    with pytest.raises(DomainError):
        VerifyConfig(n_samples=10)
    with pytest.raises(DomainError):
        VerifyConfig(tol_scale=-1.0)
    for scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            VerifyConfig(tol_scale=scale)
    with pytest.raises(DomainError):
        VerifyConfig(rect_count=0)
    with pytest.raises(DomainError):
        VerifyConfig(mass_rect_count=0)
    # A count that is not an integer is rejected before it reaches the
    # samplers and the rectangle draws.
    for name in ("n_samples", "mc_n", "rect_count", "mass_rect_count"):
        for value in (math.nan, 2.5, 5000.0):
            with pytest.raises(DomainError):
                VerifyConfig(**{name: value})
    # The master seed follows the samplers' rule, an integer in [0, 2**64):
    # 1.5 would run the checks of seed 1, and -1 those of 2**63 - 1.
    for seed in (1.5, -1, 2**64):
        with pytest.raises(DomainError):
            VerifyConfig(seed=seed)


def test_quad_mass_across_support_kinks():
    # The outer integrand has kinks where the rectangle's top or bottom
    # edge meets the support boundary; bisection that is not cut there can
    # converge falsely across one.
    model = EllipticalCopula(-math.pi / 8)
    rect = Rectangle((-1.0, -1.0), (0.04, -0.64))
    assert abs(quad_mass_2d(model, rect) - cdf_volume(model, rect)) <= 1e-9


@pytest.mark.parametrize(
    "model, rect",
    [
        # Both edges meet the circle at the same |t|, so their kinks coincide.
        (CircularCopula(), Rectangle((-1.0, -0.5), (1.0, 0.5))),
        (CircularCopula(), Rectangle((-0.96, -0.3), (0.99, 0.3))),
        # Next to a right angle the two kinks of the top edge round to one
        # point.
        (
            EllipticalCopula(math.nextafter(math.pi / 2, 0.0)),
            Rectangle((-1.0, -0.6), (1.0, 0.9999)),
        ),
    ],
)
def test_quad_mass_with_coinciding_kinks(model, rect):
    assert abs(quad_mass_2d(model, rect) - cdf_volume(model, rect)) <= 1e-9
