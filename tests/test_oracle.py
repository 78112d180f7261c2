import dataclasses
import hashlib
import json
import math
import tracemalloc
from functools import partial
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballcopulas import (
    CircularCopula,
    DomainError,
    EllipticalCopula,
    MCEstimate,
    NonlinearDiskCopula,
    NotAbsolutelyContinuousError,
    QuadratureError,
    Rectangle,
    SampleBatch,
    SphericalCopula,
    VerifyConfig,
    alpha,
    alpha_gamma,
    cap_intersection_area,
    cdf_volume,
    circular_cdf,
    circular_survival,
    delta3,
    evaluate,
    h_identity,
    integrate_adaptive,
    ks_uniform,
    mc_cdf,
    moment_check,
    nonlinear_forward,
    nonlinear_inverse,
    quad_mass_2d,
    quad_survival_circular,
    quad_survival_spherical,
    spherical_cdf,
    spherical_survival,
    verify_suite,
)
from ballcopulas import copulas, oracle
from ballcopulas.copulas import _corner_sum
from ballcopulas.oracle import _GAMMAS, _nonlinear_antiderivative

SURV_CIRC_03_04 = 0.094975342664564685
SURV_SPH_02_03_04 = 0.033967720551638207


# --- quadrature engine -------------------------------------------------

def test_abs_tol_validation():
    # The integrator and VerifyConfig take the same rule, an empty interval
    # too.
    integrate_adaptive(np.sin, 0.0, 1.0, 1e-300)
    VerifyConfig(abs_tol=1e-300)
    for bad in (0.0, -1e-9, math.inf, math.nan, -math.inf):
        for call in (
            partial(integrate_adaptive, np.sin, 0.0, 1.0, bad),
            partial(integrate_adaptive, np.sin, 1.0, 1.0, abs_tol=bad),
            partial(VerifyConfig, abs_tol=bad),
        ):
            with pytest.raises(DomainError, match="abs_tol must be finite and positive"):
                call()


def test_integrate_known_values():
    assert abs(integrate_adaptive(lambda s: s * s, 0.0, 1.0, 1e-9) - 1.0 / 3.0) <= 1e-9
    assert abs(integrate_adaptive(np.sin, 0.0, math.pi, 1e-9) - 2.0) <= 1e-9
    # bounded sqrt endpoint behavior, the worst case these oracles meet
    assert abs(integrate_adaptive(np.sqrt, 0.0, 1.0, 1e-9) - 2.0 / 3.0) <= 1e-9
    quarter = integrate_adaptive(
        lambda s: np.sqrt(np.maximum(1.0 - s * s, 0.0)), 0.0, 1.0, 1e-9
    )
    assert abs(quarter - math.pi / 4.0) <= 1e-9
    # A kink at a first-level panel edge.
    vee = integrate_adaptive(lambda s: np.abs(s - 0.3), 0.0, 1.0, 1e-9, points=[0.3])
    assert abs(vee - 0.29) <= 1e-9


def test_square_root_ends_converge_in_few_panels():
    # Each panel's rule substitutes s = lo + (hi - lo)*(3t^2 - 2t^3), so a
    # square-root end, bounded or not, is smooth in t: the first panel and
    # its two halves meet abs_tol, where plain Gauss-Legendre bisects
    # toward the end through about 200 panels and misses 1/sqrt(s) by 6e-10.
    cases = [
        (lambda s: np.sqrt(np.maximum(1.0 - s * s, 0.0)), math.pi / 4.0),
        (lambda s: 1.0 / np.sqrt(s), 2.0),
        (np.sqrt, 2.0 / 3.0),
    ]
    for f, exact in cases:
        sizes = []

        def counted(s, f=f):
            sizes.append(s.size)
            return f(s)

        value = integrate_adaptive(counted, 0.0, 1.0, 1e-12)
        assert abs(value - exact) <= 1e-13, (value, exact)
        assert sum(sizes) <= 8 * 64, sum(sizes) // 64


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


def test_integrate_reports_convergence_failure(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_PANELS", 5)
    with pytest.raises(QuadratureError, match="within 5 panel evaluations"):
        integrate_adaptive(bumpy, 0.0, 3.0, 1e-13)


def reference_integrate(f, a, b, abs_tol, points=()):
    # The depth-first integrator that evaluates one panel per call of f,
    # frozen: the level-by-level one must return its float bit for bit and
    # raise where it raises, under the same cap oracle._MAX_PANELS.  The
    # pieces between the points start the stack in ascending order, so the
    # rightmost is refined first.  A
    # panel's 64 weighted values are summed by halving, terms[:k] +
    # terms[k:2k] for k = 32, 16, ..., 1.  The rule is 64-point
    # Gauss-Legendre after s = lo + (hi - lo)*(3t^2 - 2t^3), t = (x + 1)/2,
    # written out here again rather than imported.
    x, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (x + 1.0)
    nodes, weights = 2.0 * (t * t * (3.0 - 2.0 * t)) - 1.0, w * (6.0 * t * (1.0 - t))
    full = b - a
    edges = np.unique([a, *(p for p in points if a < p < b), b]).tolist()

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        terms = weights * np.asarray(f(mid + half * nodes), float)
        for k in (32, 16, 8, 4, 2, 1):
            terms = terms[:k] + terms[k:2 * k]
        return half * float(terms[0])

    stack = [(lo, hi, panel(lo, hi)) for lo, hi in zip(edges, edges[1:])]
    evaluations = len(stack)
    total = 0.0
    while stack:
        lo, hi, whole = stack.pop()
        mid = 0.5 * (lo + hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        evaluations += 2
        if evaluations > oracle._MAX_PANELS:
            raise QuadratureError("no convergence")
        refined = left + right
        width = hi - lo
        if (
            abs(refined - whole) <= abs_tol * (width / full)
            or width <= 16.0 * math.ulp(max(abs(lo), abs(hi), 1.0))
        ):
            total += refined
        else:
            stack.append((lo, mid, left))
            stack.append((mid, hi, right))
    return total


@pytest.fixture
def against_reference(monkeypatch):
    """Route every oracle integral through the batch core and the reference
    integrator, which must agree bit for bit on every integral of every
    batch; returns the list of (a, b) integrated."""
    seen = []
    batch_core = oracle._integrate_many

    def checked(f, a, b, abs_tol, points):
        a, b, points = list(a), list(b), [list(p) for p in points]
        got = batch_core(f, a, b, abs_tol, points)
        for k, (lo, hi, pts) in enumerate(zip(a, b, points)):
            alone = partial(_one_integral, f, k)
            want = reference_integrate(alone, lo, hi, abs_tol, pts) if lo < hi else 0.0
            assert got[k].hex() == want.hex(), (lo, hi, abs_tol, pts)
            seen.append((lo, hi))
        return got

    monkeypatch.setattr(oracle, "_integrate_many", checked)
    return seen


def _one_integral(f, k, s):
    # The batch integrand f(s, k) as the integrand of integral k alone.
    return f(s, np.full(s.shape, k))


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


# First-octant points whose x is one ulp below the sphere: on the x axis,
# then two with y and z nonzero.  The tail integral runs over a single ulp,
# to where an arcsin term of the integrand reaches pi/2.
SPHERE_EDGE = [
    (math.nextafter(math.sqrt(1.0 - y * y - z * z), 0.0), y, z)
    for y, z in ((0.0, 0.0), (0.3, 0.4), (0.5, 0.2))
]


def _assert_sphere_edge_tails(tails):
    # On the axis the tail is (1 - x)/8, about 1.4e-17.  Off it the tail is
    # near 1e-32, below the closed form's rounding there, so the two agree
    # to the closed forms' stated absolute bound.
    axis, *off_axis = SPHERE_EDGE
    closed = spherical_survival(*axis)
    assert abs(tails[0] - closed) <= 1e-13 * closed
    for p, tail in zip(off_axis, tails[1:]):
        assert abs(tail - spherical_survival(*p)) <= 4.5e-16


def test_tail_batch_matches_reference(against_reference):
    # One batch of the tail integrals above, with the sphere's edge points;
    # each circular tail equals the public oracle's value.
    rng = np.random.default_rng(44)
    points = [(x, y, 0.0) for x, y in rng.uniform(0.0, 0.7, (20, 2)).tolist()]
    points += [q for p in rng.uniform(0.0, 0.57, (6, 3)).tolist() for q in permutations(p)]
    points += SPHERE_EDGE
    tails = oracle._tail_integrals(points, 1e-9)
    assert len(against_reference) == len(points)
    _assert_sphere_edge_tails(tails[-len(SPHERE_EDGE):])
    for (x, y, _), tail in zip(points[:20], tails):
        assert (2.0 * tail).hex() == quad_survival_circular(x, y).hex()


PLANAR_MODELS = [
    CircularCopula(),
    *(EllipticalCopula(g) for g in (*_GAMMAS, 1.5707963, -1.5707963)),
    NonlinearDiskCopula(),
]


def _reference_rects() -> list:
    rng = np.random.default_rng(45)
    a = rng.uniform(-1.0, 1.0, (12, 2))
    b = rng.uniform(-1.0, 1.0, (12, 2))
    rects = [Rectangle(tuple(lo), tuple(hi)) for lo, hi in zip(np.minimum(a, b), np.maximum(a, b))]
    # The full square, and the rectangles of the support-kink tests.
    return rects + [
        Rectangle((-1.0, -1.0), (1.0, 1.0)),
        Rectangle((-1.0, -1.0), (0.04, -0.64)),
        Rectangle((-1.0, -0.5), (1.0, 0.5)),
        Rectangle((-0.96, -0.3), (0.99, 0.3)),
        Rectangle((-1.0, -0.6), (1.0, 0.9999)),
    ]


@pytest.mark.parametrize("model", PLANAR_MODELS, ids=lambda m: m.describe())
def test_rectangle_mass_matches_reference(against_reference, model):
    rects = _reference_rects()
    for rect in rects:
        quad_mass_2d(model, rect)
    # One integral per rectangle, its kinks included.
    assert len(against_reference) == len(rects)


@pytest.mark.parametrize("model", PLANAR_MODELS, ids=lambda m: m.describe())
def test_rectangle_batch_matches_reference(against_reference, model):
    # The rectangles above as one batch, with a zero-width one, an empty
    # interval, and a zero-height one, whose integrand is exactly 0.0.
    rects = _reference_rects() + [Rectangle((0.2, -1.0), (0.2, 1.0)), Rectangle((-0.5, 0.3), (0.5, 0.3))]
    masses = oracle._rect_masses(model, rects, 1e-9)
    assert len(against_reference) == len(rects)
    assert masses[-2:] == [0.0, 0.0]


def _tally(sizes):
    def f(s):
        sizes.append(s.size)
        return bumpy(s)

    return f


def _bumpy_agrees_with_reference(a, b, abs_tol, cap, points):
    # Both integrators raise, or both return the same bits from the same
    # number of integrand points, as the same panel tree does; a zero-width
    # first panel would show in the count, or under a small cap as an early
    # raise.  Both run with oracle._MAX_PANELS set to cap.
    got, want = [], []
    with mock.patch.object(oracle, "_MAX_PANELS", cap):
        try:
            expected = reference_integrate(_tally(want), a, b, abs_tol, points)
        except QuadratureError:
            with pytest.raises(QuadratureError):
                integrate_adaptive(bumpy, a, b, abs_tol, points)
            return "raised"
        assert integrate_adaptive(_tally(got), a, b, abs_tol, points).hex() == expected.hex()
    assert sum(got) == sum(want)
    return "converged"


@pytest.mark.parametrize("tol", [1e-13, 1e-3])
def test_convergence_failure_matches_reference(tol):
    # The integral first converges at 51 panel evaluations for 1e-3, and
    # needs 30,279 for 1e-13.  Cut at the kinks of bumpy, it converges for
    # both at 21: the cap counts the 7 first panels and their 14 halves, and
    # the rule's substitution makes each square-root end smooth, so no half
    # is split again.  Repeated points, the limits and points outside
    # [0, 3] add no panel.
    cuts = [k * math.pi / 7 for k in (6, 1, 2, 3, 4, 5, 1, 6, 0, 7)] + [-0.0, 3.0, -1.0]
    for points, converged in (((), 14 if tol == 1e-3 else 0), (cuts, 44)):
        outcomes = [
            _bumpy_agrees_with_reference(0.0, 3.0, tol, cap, points)
            for cap in range(4, 65)
        ]
        assert outcomes.count("converged") == converged, outcomes


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
    _bumpy_agrees_with_reference(a, 2.0, 1e-3, cap, points)


def test_integrate_memory_bounded_without_convergence(monkeypatch):
    # A tolerance no panel meets doubles every level until the panel cap;
    # the integrand still gets bounded chunks of points.  A batch refines
    # its lowest integral alone once it holds a window's worth of pending
    # panels, so a batch of five peaks as one integral does.
    monkeypatch.setattr(oracle, "_MAX_PANELS", 2**16)
    batch = (lambda s, k: bumpy(s + k), [0.0] * 5, [3.0] * 5, 1e-300, [()] * 5)
    runs = (lambda: integrate_adaptive(bumpy, 0.0, 3.0, 1e-300), lambda: oracle._integrate_many(*batch))
    for run in runs:
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


# Batches of integrals of different widths over [-1, 2], empty and
# reversed ones included, each with its own kinks.
_BATCHES = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5]), st.floats(-1.0, 2.0)),
        st.one_of(st.sampled_from([-0.0, 0.5, math.nextafter(0.5, 1.0), 2.0]), st.floats(-1.0, 2.0)),
        st.lists(st.one_of(st.sampled_from([0.0, math.pi / 7, 0.5]), st.floats(-1.0, 2.0)), max_size=4),
    ),
    min_size=1,
    max_size=6,
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(batch=_BATCHES, cap=st.integers(4, 120))
def test_batch_matches_one_at_a_time(batch, cap):
    # Each integral of a batch has the bits of the reference integrator
    # alone and raises where it raises alone: the panel cap caps each
    # integral, so the batch raises exactly when one of its integrals does.
    def f(s, k):
        return bumpy(s + 0.25 * k)

    with mock.patch.object(oracle, "_MAX_PANELS", cap):
        alone = []
        for k, (a, b, points) in enumerate(batch):
            try:
                alone.append(reference_integrate(partial(_one_integral, f, k), a, b, 1e-3, points) if a < b else 0.0)
            except QuadratureError:
                alone.append(None)
        a, b, points = zip(*batch)
        if None in alone:
            with pytest.raises(QuadratureError):
                oracle._integrate_many(f, a, b, 1e-3, points)
        else:
            got = oracle._integrate_many(f, a, b, 1e-3, points)
            assert [v.hex() for v in got] == [v.hex() for v in alone]


def test_batch_over_the_cap_in_all_evaluates_each_panel_once(monkeypatch):
    # Five integrals that each converge within the cap, but not all five
    # together: the cap counts each integral's panels, so every integral
    # has the bits of one at a time, and the batch never raises.
    monkeypatch.setattr(oracle, "_MAX_PANELS", 100)
    calls = []

    def f(s, k):
        calls.append(s.size)
        return bumpy(s + 0.25 * k)

    alone, panels = [], []
    for k in range(5):
        calls.clear()
        alone.append(reference_integrate(partial(_one_integral, f, k), 0.0, 3.0, 1e-3))
        panels.append(sum(calls) // 64)
    assert max(panels) <= oracle._MAX_PANELS < sum(panels)
    calls.clear()
    got = oracle._integrate_many(f, [0.0] * 5, [3.0] * 5, 1e-3, [()] * 5)
    assert [v.hex() for v in got] == [v.hex() for v in alone]
    # No panel is evaluated twice: the batch costs what its integrals cost
    # alone.
    assert sum(calls) // 64 == sum(panels)


def test_batch_wider_than_the_window_matches_reference(against_reference, monkeypatch):
    # 100 integrals of seven first panels each.  A step refines the
    # integrals that own the first 128 pending panels, a strict prefix of
    # the batch.  Under a cap of 800 panel evaluations, which no integral
    # reaches alone, the batch passes the cap in all many times over and
    # still never raises.  Every integral keeps the bits it has alone
    # either way.
    kinks = [j * math.pi / 7 for j in range(8)]
    panels = oracle._panels
    owners = []

    def counted(f, lo, hi, owner):
        owners.append(np.unique(owner).size)
        return panels(f, lo, hi, owner)

    monkeypatch.setattr(oracle, "_panels", counted)
    for cap in (oracle._MAX_PANELS, 800):
        monkeypatch.setattr(oracle, "_MAX_PANELS", cap)
        owners.clear()
        oracle._integrate_many(lambda s, k: bumpy(s + 0.25 * k), [0.0] * 100, [3.0] * 100, 1e-3, [kinks] * 100)
        assert owners[0] == 100 and 1 < max(owners[1:]) < 100, owners
    assert len(against_reference) == 200


def test_batch_refines_a_long_lowest_integral_alone(against_reference, monkeypatch):
    # Integral 0 over [0, 30] crosses 66 kinks of bumpy and soon holds
    # more than the window's 128 pending panels; integrals 1-9 over
    # [0, 0.3] wait meanwhile.  Those steps refine integral 0 alone, and
    # every integral keeps the bits it has alone.
    panels = oracle._panels
    owners = []

    def counted(f, lo, hi, owner):
        owners.append(set(np.unique(owner).tolist()))
        return panels(f, lo, hi, owner)

    monkeypatch.setattr(oracle, "_panels", counted)
    oracle._integrate_many(lambda s, k: bumpy(s + 0.25 * k), [0.0] * 10, [30.0] + [0.3] * 9, 1e-9, [()] * 10)
    # An integral that a later step refines was pending at every step before.
    later = max(i for i, step in enumerate(owners) if max(step) > 0)
    assert owners[1:later].count({0}) > 10, owners
    assert len(against_reference) == 10


def test_batch_of_empty_intervals_never_calls_f():
    def f(s, k):
        raise AssertionError("f called")

    assert oracle._integrate_many(f, [1.0, 2.0, 0.0], [1.0, 1.0, -0.0], 1e-9, [[0.5]] * 3) == [0.0] * 3
    assert oracle._integrate_many(f, [], [], 1e-9, []) == []


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
    _assert_sphere_edge_tails([quad_survival_spherical(*p) for p in SPHERE_EDGE])


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


@pytest.mark.parametrize("model", PLANAR_MODELS, ids=lambda m: m.describe())
def test_quad_mass_zero_height_is_zero(model):
    # A rectangle of zero height over a nonempty width integrates an inner
    # mass that is exactly 0.0, inside the support, at its edge and at
    # t = +-1 alike, with no floating-point exception on the way.
    rects = [Rectangle((-0.9, t), (0.8, t)) for t in (-1.0, -0.6, 0.0, 0.3, 0.95, 1.0)]
    rects += [Rectangle((-1.0, t), (1.0, t)) for t in (-1.0, 1.0)]
    with np.errstate(all="raise"):
        masses = [quad_mass_2d(model, rect) for rect in rects]
    assert masses == [0.0] * len(rects)


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


def test_moment_check_means_are_exactly_rounded_sums():
    # Each coordinate's squares are summed pairwise: on the six batches of
    # the default verify, every mean is within 1e-16 of the exactly rounded
    # one, where a sum row by row along a strided column erred by 5.6e-15.
    models = [CircularCopula(), SphericalCopula(), *(EllipticalCopula(g) for g in _GAMMAS), NonlinearDiskCopula()]
    n = 200_000
    for i, m in enumerate(models):
        batch = m.sample(n, oracle._derived_seed(20260810, 1000 + i))
        for est, column in zip(moment_check(batch), batch.points.T):
            assert abs(est.value - math.fsum((column * column).tolist()) / n) <= 1e-16
        # A row-major copy of the batch gives the same bits.
        rows = SampleBatch(m, batch.seed, np.ascontiguousarray(batch.points))
        assert moment_check(rows) == moment_check(batch)


# --- verification suite -------------------------------------------------

SMALL = dict(n_samples=20000, rect_count=500)


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
    # tolerances are left out because some derive from the samples.  Each
    # rect_mass_vs_cdf_volume row reads "25 random rectangles".
    rep = verify_suite(VerifyConfig(seed=7, **SMALL))
    inventory = json.dumps([(c.name, c.model, c.input) for c in rep.checks])
    assert len(rep.checks) == 102
    assert hashlib.sha256(inventory.encode()).hexdigest() == (
        "bdad1ac24cbcb03b866b61157cd56e94a60de144728f98ec8cd5e30d79ce25fd"
    )


def test_verify_suite_draws_one_batch_per_model(monkeypatch):
    # Every sampled row reads its model's one batch of n_samples points; the
    # only other draws are sampler_determinism's two of 2000 per model.
    sizes = []
    sample = copulas._sample

    def counted(model, n, seed, draw):
        sizes.append(n)
        return sample(model, n, seed, draw)

    monkeypatch.setattr(copulas, "_sample", counted)
    verify_suite(VerifyConfig(seed=7, include_timestamp=False, **SMALL))
    assert sorted(sizes) == [2000] * 12 + [SMALL["n_samples"]] * 6


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


def _shifted_alpha(monkeypatch):
    monkeypatch.setattr(oracle, "alpha", lambda x, y: alpha(x, y) + 1e-3)


def _octant_sign_slip(monkeypatch):
    # The spherical outside-ball correction, negated in the octant x < 0 <
    # y, z, on the scalar and the array path.
    correction = copulas._outside_correction

    def slipped(x, y, z, *args):
        value = correction(x, y, z, *args)
        return np.where((x < 0.0) & (y > 0.0) & (z > 0.0), -value, value)

    monkeypatch.setattr(copulas, "_outside_correction", slipped)


def _reversed_shear(monkeypatch):
    # The elliptical sampler shearing by -gamma.
    sheared = copulas._sheared_points
    monkeypatch.setattr(copulas, "_sheared_points", lambda gamma, rng, n: sheared(-gamma, rng, n))


_ELLIPTICAL = [f"elliptical(gamma={g!r})" for g in _GAMMAS]


@pytest.mark.parametrize(
    "mutate, failing",
    [
        pytest.param(_shifted_alpha, {("alpha_vs_integral", "circular")}, id="shifted_alpha"),
        pytest.param(
            _octant_sign_slip,
            {
                (name, "spherical")
                for name in (
                    "uniform_marginals",
                    "rect_mass_nonnegative",
                    "spherical_margin_collapse",
                    "spherical_exchangeability",
                    "spherical_rect_mass_vs_mc",
                )
            },
            id="octant_sign_slip",
        ),
        pytest.param(
            _reversed_shear,
            {
                (name, model)
                for name in ("sampler_support", "elliptical_correlation", "mc_cdf_vs_closed_form")
                for model in _ELLIPTICAL
            },
            id="reversed_shear",
        ),
    ],
)
def test_verify_suite_mutation_table(monkeypatch, mutate, failing):
    # Each injected fault fails exactly these rows, at the seed and sizes at
    # which the unmutated suite passes every row
    # (test_verify_suite_passes_and_is_deterministic).
    mutate(monkeypatch)
    rep = verify_suite(VerifyConfig(seed=7, include_timestamp=False, **SMALL))
    assert {(c.name, c.model) for c in rep.failures()} == failing


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
    # A count that is not an integer is rejected before it reaches the
    # samplers and the rectangle draws.
    for name in ("n_samples", "rect_count"):
        for value in (math.nan, 2.5, 5000.0):
            with pytest.raises(DomainError):
                VerifyConfig(**{name: value})
    # The master seed follows the samplers' rule, an integer in [0, 2**64):
    # 1.5 would run the checks of seed 1, and -1 those of 2**63 - 1.
    for seed in (1.5, -1, 2**64):
        with pytest.raises(DomainError):
            VerifyConfig(seed=seed)


def test_verify_config_rejects_bools():
    # A bool is an int in Python: seed=True would run the checks of seed 1
    # and report "seed": true, and rect_count=True one rectangle.
    for name in ("seed", "n_samples", "rect_count"):
        with pytest.raises(DomainError):
            VerifyConfig(**{name: True})


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


# --- the verify rows that left their scalar loops ----------------------


def _max_gap(pairs):
    # The former gap of the scalar rows: Python's max over |f - g|.
    return max((abs(f - g) for f, g in pairs), default=0.0)


def _former_scalar_rows(cfg):
    # (closed_form, oracle) of each row that now runs on the array kernels,
    # the quadrature batches or one array gap, in report order, as the
    # former scalar loops and one-integral-per-call oracles computed them.
    gap = _max_gap
    rows = {}

    def row(name, closed, oracle_val=0.0):
        rows.setdefault(name, []).append((closed, oracle_val))

    square = np.linspace(-0.95, 0.95, 19)
    disk = [(x, y) for x in square for y in square if x * x + y * y < 1.0]
    row("alpha_sign_equivariance", gap(
        (alpha(ex * abs(x), ey * abs(y)), ex * ey * alpha(abs(x), abs(y)))
        for x, y in disk for ex in (-1, 1) for ey in (-1, 1)
    ))
    thetas = (np.arange(200) + 0.5) * (0.5 * math.pi / 200)
    shrink = 1.0 - 1e-10
    row("alpha_boundary_continuity", gap(
        (alpha(shrink * math.cos(t), shrink * math.sin(t)), alpha(math.cos(t), math.sin(t))) for t in thetas
    ))
    edge = np.linspace(-1.0, 1.0, 41)
    row("alpha_unit_edge", gap((alpha(float(x), 1.0), x / 4.0) for x in edge))
    axis = edge.tolist()
    row("alpha_gamma_zero_reduction", gap(
        (alpha_gamma(0.0, u, v), alpha(u, v)) for u in axis for v in axis
    ))
    axis = np.linspace(-1.0, 1.0, 21).tolist()
    for g in _GAMMAS:
        row("alpha_gamma_negation_symmetry", gap(
            (alpha_gamma(-g, -u, v), -alpha_gamma(g, u, v)) for u in axis for v in axis
        ))
    triples = oracle._rng(cfg, 1).uniform(-1.0, 1.0, (200, 3))
    row("delta3_permutation_bitwise", gap(
        (delta3(*q), delta3(*p)) for p in triples for q in permutations(p)
    ))
    axis = np.linspace(0.01, 0.70, 50).tolist()
    row("h_identity_constant", gap((h_identity(x, y), 0.5 * math.pi) for x in axis for y in axis))
    rng = oracle._rng(cfg, 2)
    lenses = []
    for _ in range(100):
        r1 = rng.uniform(0.1, 0.5 * math.pi)
        r2 = rng.uniform(0.1, 0.5 * math.pi)
        lenses.append((r1, r2, abs(r1 - r2) + rng.uniform(0.05, 0.95) * (r1 + r2 - abs(r1 - r2))))
    row("cap_area_symmetry", gap(
        (cap_intersection_area(r1, r2, d), cap_intersection_area(r2, r1, d)) for r1, r2, d in lenses
    ))
    row("cap_area_tangent_zero", gap((cap_intersection_area(r1, r2, r1 + r2), 0.0) for r1, r2, _ in lenses))
    rng = oracle._rng(cfg, 3)
    points = [rng.uniform(0.02, 0.9, 2) for _ in range(100)]
    row("cap_area_vs_circular_survival", gap(
        (
            cap_intersection_area(math.acos(x), math.acos(y), 0.5 * math.pi),
            4.0 * math.pi * circular_survival(x, y),
        )
        for x, y in points
        if x * x + y * y < 0.98
    ))
    for x, y in ((0.3, 0.4), (0.1, 0.7), (0.5, 0.2), (0.45, 0.55), (0.05, 0.05)):
        tail = quad_survival_circular(x, y, cfg.abs_tol)
        row("alpha_vs_integral", alpha(x, y), tail - (1.0 - x - y) / 4.0)

    models = [
        CircularCopula(), SphericalCopula(), *(EllipticalCopula(g) for g in _GAMMAS), NonlinearDiskCopula(),
    ]
    grid = np.linspace(-1.0, 1.0, 41).tolist()
    for m in models:
        row("uniform_marginals", gap(
            (m.cdf(*(t if j == k else 1.0 for j in range(m.dim))), (t + 1.0) / 2.0)
            for t in grid for k in range(m.dim)
        ))
    for i, m in enumerate(models):
        lows, highs = oracle._random_corners(oracle._rng(cfg, 10 + i), cfg.rect_count, m.dim)
        masses = _corner_sum(partial(evaluate, m, "cdf"), lows.T, highs.T)
        row("rect_mass_nonnegative", min(oracle._first_min(masses), 0.0))
    axis = np.linspace(-1.0, 1.0, 21).tolist()
    for g in _GAMMAS:
        m = EllipticalCopula(g)
        row("elliptical_point_symmetry", gap(
            (m.cdf(u, v) - (u + v) / 2.0, m.cdf(-u, -v)) for u in axis for v in axis
        ))
    row("circular_survival_reflection", gap(
        (circular_survival(x, y), circular_cdf(-x, -y)) for x in axis for y in axis
    ))
    row("spherical_margin_collapse", gap(
        (spherical_cdf(x, y, 1.0), circular_cdf(x, y)) for x in grid for y in grid
    ))
    rng = oracle._rng(cfg, 4)
    triples = [rng.uniform(-1.0, 1.0, 3) for _ in range(100)]
    row("spherical_exchangeability", gap(
        (spherical_cdf(*q), spherical_cdf(*p)) for p in triples for q in permutations(p)
    ))
    rng = oracle._rng(cfg, 5)
    octant = [rng.uniform(0.0, 0.57, 3) for _ in range(100)]
    row("spherical_survival_inclusion_exclusion", gap(
        (
            spherical_survival(x, y, z),
            1.0 - (x + 1.0) / 2.0 - (y + 1.0) / 2.0 - (z + 1.0) / 2.0
            + circular_cdf(x, y) + circular_cdf(x, z) + circular_cdf(y, z) - spherical_cdf(x, y, z),
        )
        for x, y, z in octant
    ))
    u = oracle._rng(cfg, 6).random((10**4, 2))
    radius = np.sqrt(0.999 * u[:, 0]).tolist()
    angle = (2.0 * math.pi * u[:, 1]).tolist()
    disk = [(r * math.cos(t), r * math.sin(t)) for r, t in zip(radius, angle)]
    row("nonlinear_round_trip", gap(
        pair for p in disk for pair in zip(nonlinear_inverse(*nonlinear_forward(*p)), p)
    ))
    axis = np.linspace(-1.0, 1.0, 31).tolist()
    for m in models:
        if m.dim == 2:
            row("density_support", float(sum(
                (m.in_support(x, y, tol=-1e-9) and val <= 0.0)
                + (not m.in_support(x, y, tol=1e-9) and val != 0.0)
                for x in axis for y in axis for val in [m.pdf(x, y)]
            )))

    abs_tol = cfg.abs_tol
    rng = oracle._rng(cfg, 9)
    points = [rng.uniform(0.0, 0.9, 2) for _ in range(10)]
    row("quad_survival_circular_vs_closed", gap(
        (circular_survival(x, y), quad_survival_circular(x, y, abs_tol))
        for x, y in points
        if x * x + y * y < 0.995
    ))
    row("quad_survival_circular_on_axis", gap(
        (quad_survival_circular(x, 0.0, abs_tol), (1.0 - x) / 4.0)
        for x in np.linspace(0.0, 0.9, 10).tolist()
    ))
    rng = oracle._rng(cfg, 11)
    points = [rng.uniform(0.05, 0.55, 3) for _ in range(5)]
    row("quad_survival_spherical_vs_closed", gap(
        (spherical_survival(*p), _former_tail(*q, abs_tol)) for p in points for q in permutations(p)
    ))
    for i, m in enumerate(m for m in models if m.dim == 2):
        rects = oracle._random_rectangles(oracle._rng(cfg, 4000 + i), 25, 2)
        row("rect_mass_vs_cdf_volume", gap((cdf_volume(m, r), quad_mass_2d(m, r, abs_tol)) for r in rects))
    return rows


def _former_tail(x, y, z, abs_tol):
    # The x-first tail integral over 4*pi, one integral per call.
    def integrand(s):
        r2 = 1.0 - s * s
        return (
            0.5 * np.pi
            - np.arctan2(y, np.sqrt(np.maximum(r2 - y * y, 0.0)))
            - np.arctan2(z, np.sqrt(np.maximum(r2 - z * z, 0.0)))
        )

    hi = math.sqrt(1.0 - y * y - z * z)
    return integrate_adaptive(integrand, x, hi, abs_tol) / (4.0 * math.pi)


def test_moved_rows_match_former_scalar_forms():
    cfg = VerifyConfig(seed=7, include_timestamp=False, **SMALL)
    former = _former_scalar_rows(cfg)
    got = {}
    for check in verify_suite(cfg).checks:
        if check.name in former:
            got.setdefault(check.name, []).append((check.closed_form.hex(), check.oracle.hex()))
    assert set(got) == set(former)
    for name, rows in former.items():
        assert got[name] == [(float(c).hex(), float(o).hex()) for c, o in rows], name


def test_nan_after_the_first_part_fails_its_row(monkeypatch):
    # A row that gathers several parts takes one maximum over all of them,
    # so a NaN in a later sign case, axis or coordinate fails the row, where
    # Python's max over the parts' gaps would skip it.
    assert math.isnan(oracle._gap(np.array([1.0, 2.0]), np.array([1.0, math.nan])))
    alpha_array, evaluate_, inverse = oracle._alpha_array, oracle.evaluate, oracle._nonlinear_inverse

    def spoil(values):
        values = np.array(values, float)
        values.flat[-1] = math.nan
        return values

    def spoiled_alpha(x, y):
        # The second sign case (-x, y) of alpha_sign_equivariance.
        values = alpha_array(x, y)
        return spoil(values) if np.all(np.signbit(x)) and not np.any(np.signbit(y)) else values

    def spoiled_evaluate(model, kind, *coords):
        # The edge of the last axis of uniform_marginals, at its first point
        # (1, ..., 1, -1), in the shared 41-per-axis CDF grid.
        values = evaluate_(model, kind, *coords)
        if values.shape == (41,) * model.dim:
            values = values.copy()
            values[(-1,) * (model.dim - 1) + (0,)] = math.nan
        return values

    def spoiled_inverse(*args):
        # The y coordinate of nonlinear_round_trip.
        x, y = inverse(*args)
        return x, spoil(y)

    monkeypatch.setattr(oracle, "_alpha_array", spoiled_alpha)
    monkeypatch.setattr(oracle, "evaluate", spoiled_evaluate)
    monkeypatch.setattr(oracle, "_nonlinear_inverse", spoiled_inverse)
    spoiled = ("alpha_sign_equivariance", "uniform_marginals", "nonlinear_round_trip")
    checks = [c for c in verify_suite(VerifyConfig(seed=7, include_timestamp=False, **SMALL)).checks if c.name in spoiled]
    assert len(checks) == 1 + 6 + 1
    for check in checks:
        assert math.isnan(check.closed_form) and not check.passed, check


def test_nan_in_a_later_part_fails_the_sampled_rows(monkeypatch):
    # second_moment_one_third and spherical_rect_mass_vs_mc take one maximum
    # over their parts, so a NaN moment of the last coordinate or a NaN
    # volume of the second box fails the row, where Python's max over the
    # parts would skip it.
    moments, volume = oracle.moment_check, oracle.cdf_volume
    boxes = []

    def spoiled_moments(batch):
        estimates = moments(batch)
        estimates[-1] = dataclasses.replace(estimates[-1], value=math.nan, std_error=math.nan)
        return estimates

    def spoiled_volume(model, rect):
        if rect.dim == 3:
            boxes.append(rect)
            if len(boxes) == 2:
                return math.nan
        return volume(model, rect)

    monkeypatch.setattr(oracle, "moment_check", spoiled_moments)
    monkeypatch.setattr(oracle, "cdf_volume", spoiled_volume)
    checks = verify_suite(VerifyConfig(seed=7, include_timestamp=False, **SMALL)).checks
    rows = [c for c in checks if c.name == "second_moment_one_third"]
    assert len(rows) == 6 and len(boxes) == 5
    for check in rows:
        # The worst gap and the band.
        assert math.isnan(check.closed_form) and math.isnan(check.tol) and not check.passed, check
    (check,) = [c for c in checks if c.name == "spherical_rect_mass_vs_mc"]
    assert math.isnan(check.closed_form) and not check.passed, check
