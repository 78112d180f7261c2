import math
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballcopulas import (
    DomainError,
    PreconditionError,
    alpha,
    alpha_gamma,
    cap_intersection_area,
    circular_survival,
    delta3,
    h_identity,
    sigma,
)

# Independent quadrature value of the circular tail at (0.3, 0.4), frozen:
# alpha(0.3, 0.4) = tail(0.3, 0.4) - (1 - 0.3 - 0.4)/4.
ALPHA_03_04 = 0.019975342664564688
# 4*pi times the tail probability at (0.3, 0.4), frozen from quadrature.
CAP_AREA_03_04 = 1.1934953551486787
# 2-D quadrature of the skewed density over [-1, 0.1] x [-1, 0.2] minus the
# linear part, frozen: F(0.1, 0.2) - (0.1 + 0.2 + 1)/4 at gamma = pi/4.
ALPHA_GAMMA_PI4_01_02 = 0.12552070812642713


def test_sigma_values():
    assert sigma(3.7) == 1
    assert sigma(0.0) == 0
    assert sigma(-0.2) == -1
    assert sigma(-0.0) == 0


def test_sigma_rejects_non_finite():
    with pytest.raises(DomainError):
        sigma(math.nan)
    with pytest.raises(DomainError):
        sigma(math.inf)


def test_alpha_examples():
    assert alpha(0.0, 0.5) == 0.0
    assert alpha(1.0, 1.0) == 0.25
    assert abs(alpha(0.3, 0.4) - ALPHA_03_04) < 1e-12


def test_alpha_domain():
    with pytest.raises(DomainError):
        alpha(1.2, 0.0)
    with pytest.raises(DomainError):
        alpha(0.0, -1.0001)
    with pytest.raises(DomainError):
        alpha(math.nan, 0.5)


def test_alpha_sign_equivariance():
    rng = np.random.default_rng(101)
    for _ in range(500):
        x, y = rng.uniform(0.0, 1.0, 2)
        if x * x + y * y >= 1.0:
            continue
        base = alpha(x, y)
        for ex in (-1.0, 1.0):
            for ey in (-1.0, 1.0):
                assert abs(alpha(ex * x, ey * y) - ex * ey * base) <= 1e-12


def test_alpha_boundary_continuity():
    shrink = 1.0 - 1e-10
    for k in range(200):
        t = (k + 0.5) * (math.pi / 2) / 200
        x, y = math.cos(t), math.sin(t)
        inner = alpha(shrink * x, shrink * y)
        edge = alpha(x, y)
        assert abs(inner - edge) <= 1e-9


def test_alpha_unit_edge():
    for x in np.linspace(-1.0, 1.0, 41):
        assert abs(alpha(float(x), 1.0) - x / 4.0) <= 1e-12
        assert abs(alpha(1.0, float(x)) - x / 4.0) <= 1e-12


def test_alpha_symmetric_in_arguments():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = rng.uniform(-1.0, 1.0, 2)
        assert alpha(x, y) == alpha(y, x)


def test_delta3_examples():
    assert delta3(0.0, 0.0, 0.0) == 0.0
    assert delta3(1.0, 1.0, 1.0) == 0.75


def test_delta3_permutation_bit_identical():
    rng = np.random.default_rng(11)
    for _ in range(300):
        x, y, z = rng.uniform(-1.0, 1.0, 3)
        base = delta3(x, y, z)
        for perm in permutations((x, y, z)):
            assert delta3(*perm) == base


def _bits(t):
    return np.float64(t).view(np.int64)


def test_delta3_even_bit_identical():
    # delta3(-x, -y, -z) == delta3(x, y, z) to the bit, signs of zero
    # included: on the sign pattern grid, on the sphere, and at random.
    special = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]
    rng = np.random.default_rng(12)
    sphere = rng.normal(size=(200, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    triples = [
        *product(special, special, special),
        *np.clip(sphere, -1.0, 1.0).tolist(),
        *rng.uniform(-1.0, 1.0, (2000, 3)).tolist(),
    ]
    for x, y, z in triples:
        assert _bits(delta3(-x, -y, -z)) == _bits(delta3(x, y, z)), (x, y, z)


# Zero, 1 and one ulp inside each, and any float of [-1, 1]; a triple takes
# its values from a draw of one to three of them and their negations, so
# signed zeros, repeated values (the ties of delta3's stable order) and
# values of equal magnitude are frequent.
_HARD = st.one_of(
    st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0)]),
    st.floats(-1.0, 1.0),
)
_TRIPLES = st.lists(_HARD, min_size=1, max_size=3).flatmap(
    lambda values: st.tuples(*[st.sampled_from([*values, *(-t for t in values)])] * 3)
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(triple=_TRIPLES)
def test_delta3_permutations_and_negation_keep_bits(triple):
    base = _bits(delta3(*triple))
    assert {_bits(delta3(*p)) for p in permutations(triple)} == {base}
    assert _bits(delta3(*(-t for t in triple))) == base


def test_delta3_propagates_domain_errors():
    with pytest.raises(DomainError):
        delta3(0.0, 0.0, 1.5)


def test_alpha_gamma_zero_matches_alpha_bitwise():
    for u in np.linspace(-1.0, 1.0, 41):
        for v in np.linspace(-1.0, 1.0, 41):
            assert alpha_gamma(0.0, float(u), float(v)) == alpha(float(u), float(v))


def test_alpha_gamma_frozen_oracle_value():
    assert abs(alpha_gamma(math.pi / 4, 0.1, 0.2) - ALPHA_GAMMA_PI4_01_02) < 1e-9


def test_alpha_gamma_corner_region_linear():
    g = math.pi / 8
    sg = math.sin(g)
    # beyond the top-right chord the value is (u + v - 1)/4
    for u, v in ((0.95, 0.95), (0.99, 0.7), (0.8, 0.9)):
        assert u + v > 1.0 + sg
        assert alpha_gamma(g, u, v) == (u + v - 1.0) / 4.0


def test_alpha_gamma_negation_symmetry():
    rng = np.random.default_rng(13)
    for g in (-math.pi / 4, math.pi / 8, math.pi / 3, 0.3):
        for _ in range(200):
            u, v = rng.uniform(-1.0, 1.0, 2)
            assert abs(alpha_gamma(-g, -u, v) + alpha_gamma(g, u, v)) <= 1e-12


def test_alpha_gamma_domain():
    with pytest.raises(DomainError):
        alpha_gamma(math.pi / 2, 0.0, 0.0)
    with pytest.raises(DomainError):
        alpha_gamma(-math.pi / 2, 0.0, 0.0)
    with pytest.raises(DomainError):
        alpha_gamma(0.1, 1.5, 0.0)


def test_h_identity_constant():
    # Besides the benign points: a subnormal x^2 + y^2, points near the x
    # axis and near the circle, and a zero or the least subnormal coordinate.
    for x, y in (
        (0.3, 0.4), (0.7, 0.1), (1e-4, 1e-4), (1e-160, 1e-160), (0.999999, 1e-8),
        (0.6, 0.8 - 1e-16), (0.5, -0.0), (-0.0, 0.5), (5e-324, 0.5),
    ):
        assert abs(h_identity(x, y) - math.pi / 2) <= 1e-12
    for x in np.linspace(0.01, 0.70, 50):
        for y in np.linspace(0.01, 0.70, 50):
            assert abs(h_identity(float(x), float(y)) - math.pi / 2) <= 1e-12


def test_h_identity_domain():
    with pytest.raises(DomainError):
        h_identity(0.0, 0.0)
    with pytest.raises(DomainError):
        h_identity(0.8, 0.8)
    with pytest.raises(DomainError):
        h_identity(-0.1, 0.5)


def test_cap_area_orthogonal_hemispheres():
    half = math.pi / 2
    assert abs(cap_intersection_area(half, half, half) - math.pi) <= 1e-12


def test_cap_area_tangent_caps():
    rng = np.random.default_rng(23)
    for _ in range(50):
        r1, r2 = rng.uniform(0.1, math.pi / 2, 2)
        assert abs(cap_intersection_area(r1, r2, r1 + r2)) <= 1e-6


@pytest.mark.parametrize(
    "r1, r2, d", [(1e-300, 1e-300, 1e-300), (1e-170, 1e-170, 2e-170), (1e-200, 1e-200, 1.5e-200)]
)
def test_cap_area_of_tiny_caps_is_zero(r1, r2, d):
    # Single lenses whose sine products underflow to 0.0; the lens, at
    # most pi * max(r)^2, rounds to 0.0.
    assert cap_intersection_area(r1, r2, d) == 0.0


def test_cap_area_matches_circular_tail():
    area = cap_intersection_area(math.acos(0.3), math.acos(0.4), math.pi / 2)
    assert abs(area - CAP_AREA_03_04) <= 1e-9
    assert abs(area - 4.0 * math.pi * circular_survival(0.3, 0.4)) <= 1e-9


def _cap_area_exact(r1, r2, d):
    # cap_intersection_area's own formula at 60 digits, from the exact values
    # of the float inputs.
    with mpmath.workdps(60):
        r1, r2, d = map(mpmath.mpf, (r1, r2, d))
        c1, s1 = mpmath.cos(r1), mpmath.sin(r1)
        c2, s2 = mpmath.cos(r2), mpmath.sin(r2)
        cd, sd = mpmath.cos(d), mpmath.sin(d)
        a0 = mpmath.acos((cd - c1 * c2) / (s1 * s2))
        a1 = mpmath.acos((cd * c1 - c2) / (sd * s1))
        a2 = mpmath.acos((cd * c2 - c1) / (sd * s2))
        return float(2 * mpmath.pi * (1 - (c1 + c2)) - 2 * a0 + 2 * (c1 * a1 + c2 * a2))


# The lens of small caps cancels in cd - c1*c2, cd*c1 - c2 and 1 - (c1 + c2):
# at r1 = r2 = d = 1e-6 the area is 1.2e-12 and the function returns 3.1e-4.
_SMALL_CAPS = pytest.mark.xfail(
    strict=True, reason="cap_intersection_area cancels for small caps (ROADMAP item 10)"
)


@pytest.mark.parametrize(
    "t", [0.1, *(pytest.param(t, marks=_SMALL_CAPS) for t in (1e-4, 1e-5, 1e-6))]
)
def test_cap_area_relative_accuracy(t):
    want = _cap_area_exact(t, t, t)
    assert abs(cap_intersection_area(t, t, t) - want) <= 1e-9 * want


def test_cap_area_symmetry():
    rng = np.random.default_rng(29)
    for _ in range(100):
        r1, r2 = rng.uniform(0.1, math.pi / 2, 2)
        d = abs(r1 - r2) + rng.uniform(0.05, 0.95) * (r1 + r2 - abs(r1 - r2))
        assert abs(
            cap_intersection_area(r1, r2, d) - cap_intersection_area(r2, r1, d)
        ) <= 1e-12


def test_cap_area_rejects_bad_configurations():
    half = math.pi / 2
    with pytest.raises(PreconditionError):
        cap_intersection_area(0.2, 0.8, 0.5)  # nested: d <= |r1 - r2|
    with pytest.raises(PreconditionError):
        cap_intersection_area(0.3, 0.3, 0.7)  # disjoint: d > r1 + r2
    with pytest.raises(PreconditionError):
        cap_intersection_area(0.0, half, half)  # zero radius
    with pytest.raises(PreconditionError):
        cap_intersection_area(2.0, half, half)  # radius beyond pi/2
    with pytest.raises(PreconditionError):
        cap_intersection_area(half, half, math.nan)
