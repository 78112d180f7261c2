import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballcopulas import (
    CircularCopula,
    DomainError,
    EllipticalCopula,
    NonlinearDiskCopula,
    NotAbsolutelyContinuousError,
    QuadratureError,
    MCEstimate,
    QuadratureSpec,
    Rectangle,
    SampleBatch,
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
from ballcopulas import oracle
from ballcopulas.oracle import _GAMMAS, _nonlinear_antiderivative

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
    # A kink at a first-level panel edge.
    vee = integrate_adaptive(lambda s: np.abs(s - 0.3), 0.0, 1.0, spec, points=[0.3])
    assert abs(vee - 0.29) <= 1e-9


def test_integrate_empty_and_reversed_interval():
    assert integrate_adaptive(np.sin, 1.0, 1.0) == 0.0
    assert integrate_adaptive(np.sin, 2.0, 1.0) == 0.0
    for a, b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
        with pytest.raises(DomainError, match="finite"):
            integrate_adaptive(np.sin, a, b)
    # A non-finite point raises too, where a < nan < b would drop it.
    for a, b, points in ((0.0, 1.0, [math.nan]), (0.0, 1.0, [0.5, math.inf]), (1.0, 1.0, [-math.inf])):
        with pytest.raises(DomainError, match="finite"):
            integrate_adaptive(np.sin, a, b, points=points)


def bumpy(s):
    return np.sqrt(np.abs(np.sin(7.0 * s)))


def test_integrate_reports_convergence_failure():
    spec = QuadratureSpec(abs_tol=1e-13, max_subdivisions=5)
    with pytest.raises(QuadratureError):
        integrate_adaptive(bumpy, 0.0, 3.0, spec)


def reference_integrate(f, a, b, spec, points=()):
    # The depth-first integrator that evaluates one panel per call of f,
    # frozen: the level-by-level one must return its float bit for bit and
    # raise where it raises.  The pieces between the points start the
    # stack in ascending order, so the rightmost is refined first.
    nodes, weights = np.polynomial.legendre.leggauss(64)
    full = b - a
    edges = np.unique([a, *(p for p in points if a < p < b), b]).tolist()

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * float(np.dot(weights, np.asarray(f(mid + half * nodes), float)))

    stack = [(lo, hi, panel(lo, hi)) for lo, hi in zip(edges, edges[1:])]
    evaluations = len(stack)
    total = 0.0
    while stack:
        lo, hi, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        evaluations += 2
        if evaluations > spec.max_subdivisions:
            raise QuadratureError("no convergence")
        refined = left + right
        width = hi - lo
        if (
            abs(refined - whole) <= spec.abs_tol * (width / full)
            or width <= 16.0 * math.ulp(max(abs(lo), abs(hi), 1.0))
        ):
            total += refined
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return total


@pytest.fixture
def against_reference(monkeypatch):
    """Route every oracle integral through both integrators, which must
    agree bit for bit; returns the list of (a, b) integrated."""
    seen = []

    def checked(f, a, b, spec=None, points=()):
        spec = spec or QuadratureSpec()
        got = integrate_adaptive(f, a, b, spec, points)
        assert got.hex() == reference_integrate(f, a, b, spec, points).hex(), (a, b, spec, points)
        seen.append((a, b))
        return got

    monkeypatch.setattr(oracle, "integrate_adaptive", checked)
    return seen


def test_integrate_known_values_match_reference(against_reference):
    integrands = [
        (lambda s: s * s, 0.0, 1.0),
        (np.sin, 0.0, math.pi),
        (np.sqrt, 0.0, 1.0),
        (lambda s: np.sqrt(np.maximum(1.0 - s * s, 0.0)), 0.0, 1.0),
        (bumpy, 0.0, 3.0),
    ]
    for f, a, b in integrands:
        oracle.integrate_adaptive(f, a, b)
    assert len(against_reference) == len(integrands)


def test_tail_integrals_match_reference(against_reference):
    rng = np.random.default_rng(44)
    for x, y in rng.uniform(0.0, 0.7, (20, 2)).tolist() + [(0.0, 0.0), (0.7, 0.71)]:
        quad_survival_circular(x, y)
    for p in rng.uniform(0.0, 0.57, (6, 3)).tolist() + [[0.0, 0.0, 0.0], [0.2, 0.3, 0.4]]:
        quad_survival_spherical(*p)
    assert len(against_reference) == 22 + 8 * 6


@pytest.mark.parametrize(
    "model",
    [
        CircularCopula(),
        *(EllipticalCopula(g) for g in (*_GAMMAS, 1.5707963, -1.5707963)),
        NonlinearDiskCopula(),
    ],
    ids=lambda m: m.describe(),
)
def test_rectangle_mass_matches_reference(against_reference, model):
    rng = np.random.default_rng(45)
    a = rng.uniform(-1.0, 1.0, (12, 2))
    b = rng.uniform(-1.0, 1.0, (12, 2))
    rects = [Rectangle(tuple(lo), tuple(hi)) for lo, hi in zip(np.minimum(a, b), np.maximum(a, b))]
    # The full square, and the rectangles of the support-kink tests.
    rects += [
        Rectangle((-1.0, -1.0), (1.0, 1.0)),
        Rectangle((-1.0, -1.0), (0.04, -0.64)),
        Rectangle((-1.0, -0.5), (1.0, 0.5)),
        Rectangle((-0.96, -0.3), (0.99, 0.3)),
        Rectangle((-1.0, -0.6), (1.0, 0.9999)),
    ]
    for rect in rects:
        quad_mass_2d(model, rect)
    # One integral per rectangle, its kinks included.
    assert len(against_reference) == len(rects)


def _tally(sizes):
    def f(s):
        sizes.append(s.size)
        return bumpy(s)

    return f


def _bumpy_agrees_with_reference(a, b, spec, points):
    # Both integrators raise, or both return the same bits from the same
    # number of integrand points, as the same panel tree does; a zero-width
    # first panel would show in the count, or under a small cap as an early
    # raise.
    got, want = [], []
    try:
        expected = reference_integrate(_tally(want), a, b, spec, points)
    except QuadratureError:
        with pytest.raises(QuadratureError):
            integrate_adaptive(bumpy, a, b, spec, points)
        return "raised"
    assert integrate_adaptive(_tally(got), a, b, spec, points).hex() == expected.hex()
    assert sum(got) == sum(want)
    return "converged"


@pytest.mark.parametrize("tol", [1e-13, 1e-3])
def test_convergence_failure_matches_reference(tol):
    # The integral first converges at 51 panel evaluations for 1e-3, and
    # needs thousands for 1e-13.  Cut at the kinks of bumpy, it converges
    # for 1e-3 at 21: the cap counts the 7 first panels and their 14 halves.
    # Repeated points, the limits and points outside [0, 3] add no panel.
    cuts = [k * math.pi / 7 for k in (6, 1, 2, 3, 4, 5, 1, 6, 0, 7)] + [-0.0, 3.0, -1.0]
    for points, converged in (((), 14), (cuts, 44)):
        outcomes = [
            _bumpy_agrees_with_reference(0.0, 3.0, QuadratureSpec(abs_tol=tol, max_subdivisions=cap), points)
            for cap in range(4, 65)
        ]
        assert outcomes.count("converged") == (converged if tol == 1e-3 else 0), outcomes


# Points that coincide with a limit, with each other or with a kink of
# bumpy, signed zeros, values one ulp inside and outside the limits, and
# arbitrary finite floats inside and outside [-1, 2], in any order.
_POINTS = st.lists(
    st.one_of(
        st.sampled_from([
            -1.0, -0.0, 0.0, 2.0, math.pi / 7, 2.0 * math.pi / 7,
            math.nextafter(-1.0, 0.0), math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0),
            math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0),
        ]),
        st.floats(-3.0, 4.0),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=8,
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(a=st.sampled_from([-1.0, -0.0, 0.0]), points=_POINTS, cap=st.integers(4, 120))
def test_integrate_with_points_matches_reference(a, points, cap):
    _bumpy_agrees_with_reference(a, 2.0, QuadratureSpec(abs_tol=1e-3, max_subdivisions=cap), points)


def test_integrate_memory_bounded_without_convergence():
    # A tolerance no panel meets doubles every level until the panel cap;
    # the integrand still gets bounded chunks of points.
    spec = QuadratureSpec(abs_tol=1e-300, max_subdivisions=2**16)
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError):
            integrate_adaptive(bumpy, 0.0, 3.0, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


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
    # Within the endpoint pull of the sphere the x-first integral is empty.
    x = math.nextafter(1.0, 0.0)
    assert quad_survival_spherical(x, 0.0, 0.0) == 0.0


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
    with pytest.raises(DomainError, match="two-dimensional"):
        quad_mass_2d(CircularCopula(), Rectangle((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)))


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
    assert quad_mass_2d(CircularCopula(), Rectangle((0.2, -1.0), (0.2, 1.0))) == 0.0


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
    for std_error, n in ((-1e-3, 1000), (0.0, 0)):
        with pytest.raises(DomainError):
            MCEstimate(1.0, std_error, n, 7)


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
        ks_uniform(0.5)
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
    one = SampleBatch(SphericalCopula(), 23, np.array([[0.6, 0.0, -0.8]]))
    assert [(e.value, e.std_error, e.n) for e in moment_check(one)] == [
        (0.6 * 0.6, 0.0, 1), (0.0, 0.0, 1), (0.8 * 0.8, 0.0, 1)
    ]
    with pytest.raises(DomainError, match="nonempty"):
        moment_check(SampleBatch(SphericalCopula(), 23, np.empty((0, 3))))


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
    assert len(rep.checks) == 102
    assert hashlib.sha256(inventory.encode()).hexdigest() == (
        "870cf0d6554ce920bbe7c64968674f334a67c1d9dd77120464fd50be86028564"
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
