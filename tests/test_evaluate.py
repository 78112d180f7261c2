"""The array entry point ``evaluate`` and the array corner sum against the
scalar closed forms, bit for bit."""

import inspect
import math
import tracemalloc
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballcopulas import (
    CircularCopula,
    DomainError,
    EllipticalCopula,
    NonlinearDiskCopula,
    NotAbsolutelyContinuousError,
    Rectangle,
    SphericalCopula,
    alpha,
    alpha_gamma,
    cdf_volume,
    delta3,
    evaluate,
    h_identity,
    spherical_cdf,
)
from ballcopulas import copulas, special_math
from ballcopulas.copulas import _clamp01, _clamp01_array, _corner_sum, _max_exact, _min_exact, _sign_exact
from ballcopulas.copulas import _SLAB, _alpha_array, _alpha_gamma_array, _asin_exact, _atan2_exact, _atan2_map
from ballcopulas.copulas import _PAIR_TERMS, _h_identity_array, _overlap_array, _overlap_atan2
from ballcopulas.oracle import _first_min
from ballcopulas.special_math import _alpha, _clamp_unit, _clamped_asin, _max, _middle, _min, sigma

HALF_PI = 0.5 * math.pi
GAMMAS = [0.0, math.pi / 8, -math.pi / 4, 1.5707963, -1.5707963, HALF_PI - 1e-12, -(HALF_PI - 1e-12)]
MODELS = [
    CircularCopula(),
    SphericalCopula(),
    NonlinearDiskCopula(),
    *(EllipticalCopula(g) for g in GAMMAS),
]
CASES = [
    (m, q) for m in MODELS for q in ("pdf", "cdf", "survival") if not (m.dim == 3 and q == "pdf")
]
SPECIAL = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]


def case_id(case):
    model, quantity = case
    return f"{model.describe()}-{quantity}"


def assert_bits(model, quantity, columns):
    # evaluate on the columns as given, against the scalar calls at every
    # point of their broadcast.
    columns = [np.asarray(c, dtype=float) for c in columns]
    got = evaluate(model, quantity, *columns)
    fn = getattr(model, quantity)
    flat = [c.ravel() for c in np.broadcast_arrays(*columns)]
    want = np.array([fn(*p) for p in zip(*(c.tolist() for c in flat))], dtype=float)
    assert got.dtype == np.float64 and got.shape == np.broadcast_shapes(*(c.shape for c in columns))
    # Compared as bit patterns, so 0.0 and -0.0 differ.
    got = got.ravel()
    wrong = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert wrong.size == 0, [
        (tuple(float(c[i]) for c in flat), float(got[i]), float(want[i])) for i in wrong[:5]
    ]


def near(values):
    """Each value and its neighbours one ulp either side, kept in [-1, 1]."""
    values = np.asarray(values, dtype=float)
    out = np.concatenate([values, np.nextafter(values, -2.0), np.nextafter(values, 2.0)])
    return np.clip(out, -1.0, 1.0)


def planar_points(gamma):
    grid = np.linspace(-1.0, 1.0, 41)
    points = [np.array(p) for p in product(grid, grid)]
    points += [np.array(p) for p in product(SPECIAL, SPECIAL)]
    # The boundary of the support, (cos t, sin(t + gamma)), and one ulp on
    # either side of it in each coordinate.
    t = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    u, v = np.cos(t), np.sin(t + gamma)
    points += [np.array(p) for p in product(near(u[:1]), near(v[:1]))]
    us, vs = near(u), near(v)
    points += list(np.column_stack((np.tile(us[:400], 3), vs)))
    points += list(np.column_stack((us, np.tile(vs[:400], 3))))
    rng = np.random.default_rng(5)
    points += list(rng.uniform(-1.0, 1.0, (2000, 2)))
    return np.array(points).T


def spatial_points():
    grid = np.linspace(-1.0, 1.0, 13)
    points = [np.array(p) for p in product(grid, grid, grid)]
    points += [np.array(p) for p in product(SPECIAL, SPECIAL, SPECIAL)]
    # The sphere one ulp either side, in every orthant.
    rng = np.random.default_rng(6)
    for signs in product((-1.0, 1.0), repeat=3):
        d = np.abs(rng.normal(size=(100, 3)))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        d *= signs
        points += list(np.clip(d, -1.0, 1.0))
        points += list(np.clip(np.nextafter(d, 0.0), -1.0, 1.0))
        points += list(np.clip(np.nextafter(d, 2.0 * d), -1.0, 1.0))
        points += list(np.abs(rng.uniform(-1.0, 1.0, (200, 3))) * signs)
    return np.array(points).T


def sparse_axes(shift=0):
    """Axes of a sparse grid whose sphere cuts through it, with signed zeros
    and points outside the ball; the long pair has more points than a slab.
    ``shift`` rotates the axes."""
    long_x = np.concatenate([np.linspace(-1.0, 1.0, 91), [-0.0, 0.0, 0.6, -0.8, 0.5**0.5, -(0.5**0.5)]])
    long_z = np.concatenate([np.linspace(-1.0, 1.0, 90), [0.0, -0.0, 0.8, -0.6, 0.5, -0.5]])
    axes = [long_x, np.array([-0.0, 0.6, 1.0]), long_z]
    assert long_x.size * long_z.size > _SLAB
    return axes[shift:] + axes[:shift]


def assert_sparse_bits(model, quantity, axes):
    # The sparse grid gives the dense grid's values, and those the scalar
    # calls', bit for bit.
    sparse = np.meshgrid(*axes, indexing="ij", sparse=True)
    dense = np.meshgrid(*axes, indexing="ij")
    got = evaluate(model, quantity, *sparse)
    assert got.shape == dense[0].shape
    assert got.tobytes() == evaluate(model, quantity, *dense).tobytes()
    assert_bits(model, quantity, [c.ravel() for c in dense])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_evaluate_bitwise_equal_to_scalar(case):
    model, quantity = case
    if model.dim == 2:
        columns = planar_points(getattr(model, "gamma", 0.0))
    else:
        columns = spatial_points()
    assert_bits(model, quantity, columns)


def test_spherical_survival_every_orthant():
    # Every orthant, each reflected into a different orthant of the CDF.
    model = SphericalCopula()
    rng = np.random.default_rng(7)
    base = rng.uniform(0.0, 1.0, (300, 3))
    for signs in product((-1.0, 1.0), repeat=3):
        assert_bits(model, "survival", (base * signs).T)
    for shift in range(3):
        assert_sparse_bits(model, "survival", sparse_axes(shift))


def test_evaluate_across_slabs_and_shapes():
    model = EllipticalCopula(-math.pi / 8)
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, 9001)
    y = rng.uniform(-1.0, 1.0, 9001)
    assert_bits(model, "cdf", [x, y])
    grid = evaluate(model, "cdf", x[:7, None], y[None, :5])
    assert grid.shape == (7, 5)
    assert grid[3, 4] == model.cdf(float(x[3]), float(y[4]))
    assert evaluate(model, "pdf", [], []).shape == (0,)
    assert evaluate(model, "survival", 0.25, -0.5) == model.survival(0.25, -0.5)
    # The inputs that the iterator hands out strided or through its buffer:
    # Fortran order, negative strides, a transpose, a 0-d coordinate, and
    # empty broadcasts.
    square = rng.uniform(-1.0, 1.0, (90, 110))
    fortran = np.asfortranarray(square)
    planar = [
        (fortran, fortran[::-1]),
        (square[::-1, ::-3], square[:, ::-3]),
        (square.T, fortran.T),
        (np.array(0.25), square),
        (square[:, 0], np.array(-0.5)),
        (np.zeros(0), np.array(0.5)),
        (np.zeros((3, 0)), np.zeros((1, 0))),
    ]
    for columns, quantity in product(planar, ("pdf", "cdf", "survival")):
        assert_bits(model, quantity, columns)
    sphere = SphericalCopula()
    spatial = [
        (fortran, np.array(0.5), square[::-1, :1]),
        (square.T, np.array(-0.25), np.array(0.75)),
        (np.zeros((3, 0)), square[:3, :1], np.array(0.5)),
    ]
    for columns, quantity in product(spatial, ("cdf", "survival")):
        assert_bits(sphere, quantity, columns)
    assert_sparse_bits(sphere, "cdf", sparse_axes())
    for axes in (sparse_axes(), [[], [0.5], [0.0, 0.1]]):
        with pytest.raises(NotAbsolutelyContinuousError):
            evaluate(sphere, "pdf", *np.meshgrid(*axes, indexing="ij", sparse=True))


def test_evaluate_memory_bounded_by_the_output():
    # No coordinate and no spherical pair column is copied to the broadcast
    # shape, and the planar pair terms are gathered from their orbit table
    # slab by slab: on a sparse 101^3 or 1001^2 mesh the traced peak stays
    # below twice the output.
    for model, n in ((SphericalCopula(), 101), (CircularCopula(), 1001), (NonlinearDiskCopula(), 1001)):
        mesh = np.meshgrid(*[np.linspace(-1.0, 1.0, n)] * model.dim, indexing="ij", sparse=True)
        tracemalloc.start()
        try:
            out = evaluate(model, "cdf", *mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes, model


# The CLI's axis, -1 + 2i/n, is not exactly symmetric: 71 of its 101
# magnitudes are distinct.
CLI_AXIS = [-1.0 + 2.0 * i / 100 for i in range(101)]
SIGNED = [-1.0, -0.0, 0.0, 1.0, 0.5, -0.5, 0.5, 0.25, -0.25, 0.6, -0.8]
UNEQUAL = np.concatenate([np.linspace(-1.0, 1.0, 37), [0.0, -0.0, 0.8, 0.5**0.5, -(0.5**0.5)]])
ORBIT_AXES = {
    "cli": [CLI_AXIS, CLI_AXIS],
    "signed-unequal": [SIGNED, UNEQUAL],
    "unequal-signed": [UNEQUAL, SIGNED],
    "mirrored": [UNEQUAL, -UNEQUAL],
    "one-point": [CLI_AXIS, [0.3]],
    "zero-point": [[-0.0], SIGNED],
}


@pytest.mark.parametrize("axes", list(ORBIT_AXES.values()), ids=list(ORBIT_AXES))
@pytest.mark.parametrize("model", [CircularCopula(), NonlinearDiskCopula()], ids=lambda m: m.name)
@pytest.mark.parametrize("quantity", ["cdf", "survival"])
def test_orbit_tables_keep_the_scalar_bits(model, quantity, axes):
    # Sparse meshes take the pair term from its orbit table: signed zeros
    # together, +-1, repeated values, axes of unequal length, a mirrored
    # axis, the CLI's axis, and a one-point axis, which stays on the
    # present path.
    assert_sparse_bits(model, quantity, axes)


@pytest.mark.parametrize("quantity", ["cdf", "survival"])
def test_spherical_orbit_table_on_a_shared_axis(quantity):
    for axis in (CLI_AXIS[::5], SIGNED, UNEQUAL):
        assert_sparse_bits(SphericalCopula(), quantity, [axis] * 3)


def test_pair_term_once_per_orbit(monkeypatch):
    # The pair term runs once per distinct pair of magnitudes: on the CLI's
    # 101^2 mesh, the triangle of its 71 distinct |x|, and on a cube mesh
    # of the spherical model, one triangle for all three pairs.  Flat
    # columns and corner meshes take it at every point.
    seen = []
    for model, pair in list(_PAIR_TERMS.items()):
        monkeypatch.setitem(_PAIR_TERMS, model, lambda a, b, pair=pair: seen.append(a.size) or pair(a, b))
    distinct = np.unique(np.abs(CLI_AXIS)).size
    assert distinct == 71
    axis = np.array(CLI_AXIS)
    for model in (CircularCopula(), NonlinearDiskCopula(), SphericalCopula()):
        seen.clear()
        evaluate(model, "cdf", *np.meshgrid(*[axis] * model.dim, indexing="ij", sparse=True))
        assert sum(seen) == distinct * (distinct + 1) // 2
    seen.clear()
    evaluate(CircularCopula(), "survival", axis[:, None], np.array(UNEQUAL))
    assert sum(seen) == distinct * np.unique(np.abs(UNEQUAL)).size
    seen.clear()
    evaluate(CircularCopula(), "cdf", axis, axis[::-1])
    assert sum(seen) == axis.size
    seen.clear()
    corners = np.stack((axis[:50], axis[50:100]))
    evaluate(CircularCopula(), "cdf", corners[:, None, :], corners[None, :, :])
    assert sum(seen) == 4 * 50


def test_evaluate_validation():
    with pytest.raises(DomainError):
        evaluate(CircularCopula(), "cdf", [0.0, 1.5], [0.0, 0.0])
    with pytest.raises(DomainError):
        evaluate(CircularCopula(), "cdf", [math.nan], [0.0])
    # The first point outside in the broadcast's C order is named; an empty
    # broadcast has no point, so a value outside in a coordinate raises
    # nothing there.
    with pytest.raises(DomainError, match=r"\(0\.0, 2\.0\)"):
        evaluate(CircularCopula(), "cdf", [[0.0], [3.0]], [0.5, 2.0])
    assert evaluate(CircularCopula(), "cdf", [2.0], np.zeros(0)).shape == (0,)
    with pytest.raises(DomainError):
        evaluate(CircularCopula(), "cdf", [0.0], [0.0], [0.0])
    with pytest.raises(DomainError):
        evaluate(CircularCopula(), "quantile", [0.0], [0.0])
    # Shapes that do not broadcast are named, not left to numpy's error.
    with pytest.raises(DomainError, match=r"\(0, 4\), \(3, 1\)"):
        evaluate(CircularCopula(), "cdf", np.zeros((0, 4)), np.zeros((3, 1)))
    # A broadcast whose size numpy cannot index is a size beyond memory, not
    # a mismatch: the 2100000^3 mesh, from zero-stride views.
    n = 2_100_000
    mesh = [np.broadcast_to(0.5, shape) for shape in ((n, 1, 1), (1, n, 1), (1, 1, n))]
    with pytest.raises(MemoryError, match="too large to index"):
        evaluate(SphericalCopula(), "cdf", *mesh)
    with pytest.raises(DomainError, match="do not broadcast"):
        evaluate(SphericalCopula(), "cdf", *mesh[:2], np.zeros((3, 1, 1)))
    for point in ([0.0], []):
        with pytest.raises(NotAbsolutelyContinuousError):
            evaluate(SphericalCopula(), "pdf", point, point, point)


def test_elementwise_primitives_match_python():
    # The scalar primitives must return the very object that max and min
    # return, and the clamps and the array primitives the builtins' bits:
    # ties between 0.0 and -0.0, and NaN, go as they go in max, min and the
    # integer sigma.
    ties = [
        0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
        math.nextafter(1.0, 0.0),
    ]

    def same(got, want):
        return np.float64(got).tobytes() == np.float64(want).tobytes()

    for a, b in product(ties, ties):
        assert _max(a, b) is max(a, b) and _min(a, b) is min(a, b)
        assert same(_max_exact(a, np.array([b]))[0], max(a, b))
        assert same(_min_exact(a, np.array([b]))[0], min(a, b))
    for t in ties:
        want = min(1.0, max(0.0, t))
        assert same(_clamp01(t), want) and same(_clamp01_array(np.array([t]))[0], want)
        if abs(t) > 1.0 + 1e-12:
            with pytest.raises(DomainError):
                _clamp_unit(t, "clamp")
        else:
            assert same(_clamp_unit(t, "clamp"), min(1.0, max(-1.0, t)))
    values = [0.0, -0.0, 0.5, -0.5, 1.0]
    for x, y, z in product(values, repeat=3):
        for t in (0.25, -0.25, 0.0, -0.0):
            got = _sign_exact(np.array([x])) * _sign_exact(np.array([y])) * _sign_exact(np.array([z])) * t
            want = sigma(x) * sigma(y) * sigma(z) * t
            assert got.tobytes() == np.array([want]).tobytes()


def test_no_default_argument_is_builtin_max_or_min():
    # The scalar kernels take _max and _min by default, which choose as the
    # builtins do and cost less on Python 3.11.
    checked = 0
    for module in (special_math, copulas):
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                functions = [f for f in vars(obj).values() if inspect.isfunction(f)]
            elif inspect.isfunction(obj) or isinstance(obj, partial):
                functions = [obj]
            else:
                continue
            for f in functions:
                defaults = [p.default for p in inspect.signature(f).parameters.values()]
                assert not any(d is max or d is min for d in defaults), f
                checked += 1
    assert checked > 50


def test_middle_is_stable_like_sorted():
    # 0.0 and -0.0 compare equal, so only the stable order of sorted() says
    # which of them is the middle value, and that fixes the signs of zero
    # delta3 sums.
    triples = list(product([-0.0, 0.0, 0.5, -0.5], repeat=3))
    want = [sorted(range(3), key=t.__getitem__)[1] for t in triples]
    assert [_middle(*t) for t in triples] == want
    got = _middle(*(np.array(c) for c in zip(*triples)))
    assert got.dtype.kind == "i" and got.tolist() == want


@pytest.mark.parametrize(
    "values",
    [[0.0, -0.0], [-0.0, 0.0], [1.0, 0.0, -0.0, 2.0], [1.0, -0.0, 0.0, 2.0], [0.3, -1e-17, 0.1]],
)
def test_first_min_keeps_python_choice(values):
    got = _first_min(np.array(values))
    want = min(values)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
def test_array_corner_sum_equals_cdf_volume(model):
    rng = np.random.default_rng(9)
    a = rng.uniform(-1.0, 1.0, (400, model.dim))
    b = rng.uniform(-1.0, 1.0, (400, model.dim))
    lows, highs = np.minimum(a, b), np.maximum(a, b)
    # Degenerate rectangles: one side of zero width, all sides, and the
    # whole cube.
    highs[::5, 0] = lows[::5, 0]
    highs[::7] = lows[::7]
    lows[3], highs[3] = -1.0, 1.0
    got = _corner_sum(partial(evaluate, model, "cdf"), lows.T, highs.T)
    want = np.array(
        [cdf_volume(model, Rectangle(tuple(lo), tuple(hi))) for lo, hi in zip(lows, highs)]
    )
    assert got.tobytes() == want.tobytes()


def test_atan2_exact_matches_math_atan2_on_and_off_the_support():
    # On and outside the support w is +0.0, where atan2 is not called.
    tiny = [1e-300, -1e-300, 0.5, -0.5, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]
    a = np.array(tiny)
    got = _atan2_exact(a, np.zeros_like(a))
    want = np.array([math.atan2(t, 0.0) for t in tiny])
    assert got.tobytes() == want.tobytes()
    # Mixed slabs: zeros interleaved with positive w, and no zero at all.
    rng = np.random.default_rng(10)
    a = rng.choice(np.array(tiny), 3000) * rng.uniform(0.0, 2.0, 3000)
    w = np.where(rng.random(3000) < 0.5, 0.0, rng.uniform(0.0, 1.0, 3000))
    w[::7] = 5e-324
    for ws in (w, np.abs(w) + 0.25):
        got = _atan2_exact(a, ws)
        want = np.array([math.atan2(s, t) for s, t in zip(a.tolist(), ws.tolist())])
        assert got.tobytes() == want.tobytes()
    # The map itself, cmath.phase of w + a*1j, on numerators from zero and
    # the smallest subnormal up to 2 against every kind of w up to 1.
    one_less = math.nextafter(1.0, 0.0)
    numerators = [s * t for t in (0.0, 5e-324, 1e-310, 1e-300, 0.5, 1.0, one_less, 2.0) for s in (1.0, -1.0)]
    pairs = list(product(numerators, [5e-324, 1e-310, 1e-10, 0.5, one_less, 1.0]))
    a, w = map(np.array, zip(*pairs))
    got = _atan2_map(a, w)
    assert [v.hex() for v in got.tolist()] == [math.atan2(s, t).hex() for s, t in pairs]
    # alpha's three numerators y, x and x*y at seeded points of the disk.
    r = np.sqrt(rng.random(10**5))
    theta = rng.uniform(0.0, 2.0 * math.pi, 10**5)
    x, y = r * np.cos(theta), r * np.sin(theta)
    w = np.sqrt(np.maximum(0.0, 1.0 - (x * x + y * y)))
    for a in (y, x, x * y):
        want = [math.atan2(s, t).hex() for s, t in zip(a.tolist(), w.tolist())]
        assert [v.hex() for v in _atan2_map(a, w).tolist()] == want


def test_h_identity_array_matches_scalar():
    # The kernel of h_identity on the arrays of verify's 50x50 grid, and
    # the exact asin map on the clamp's edge cases: -0.0, +-1 and values
    # beyond 1 by at most 1e-12, which clamp; NaN, which clamps to -1 as
    # max(-1.0, nan) does; and beyond 1 + 1e-12, which raises.
    axis = np.linspace(0.01, 0.70, 50)
    x, y = (t.ravel() for t in np.meshgrid(axis, axis, indexing="ij"))
    want = np.array([h_identity(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert _h_identity_array(x, y).tobytes() == want.tobytes()
    t = np.array([-1.0 - 1e-12, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 5e-13, math.nan])
    want = np.array([_clamped_asin(v) for v in t.tolist()])
    assert _asin_exact(t).tobytes() == want.tobytes()
    with pytest.raises(DomainError, match="exceeds 1 in magnitude"):
        _asin_exact(np.array([0.5, -1.0 - 3e-12, 0.0]))


def test_spherical_outside_ball_equals_scalar():
    # Outside the ball both paths reuse the three pair alphas up to sign.
    # Points on the sphere, ties
    # |x| == |y| with mixed signs, and +-0.0 in every position.
    model = SphericalCopula()
    rng = np.random.default_rng(11)
    d = rng.normal(size=(500, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    points = list(np.clip(d, -1.0, 1.0))
    for t, s in product([0.5, 0.6, 0.8, 1.0, 0.75], repeat=2):
        for sx, sy, sz in product((-1.0, 1.0), repeat=3):
            points.append((sx * t, sy * t, sz * s))
            points.append((sx * t, sz * s, sy * t))
            points.append((sz * s, sx * t, sy * t))
    for k in range(3):
        for zero in (0.0, -0.0):
            for rest in product([1.0, -1.0, 0.8, -0.8, 0.6, -0.6, 0.0, -0.0], repeat=2):
                p = list(rest)
                p.insert(k, zero)
                points.append(tuple(p))
    columns = np.array(points, dtype=float).T
    outside = (columns ** 2).sum(axis=0) >= 1.0
    assert outside.mean() > 0.5
    for quantity in ("cdf", "survival"):
        assert_bits(model, quantity, columns)


def reference_delta3(x, y, z):
    # The sort-based summation, frozen: alpha over the sorted (a, b, c).
    a, b, c = sorted((x, y, z))
    return alpha(a, c) + (alpha(a, b) + alpha(b, c))


def reference_spherical_cdf(x, y, z):
    # The two-delta3 form of the spherical CDF, frozen.
    val = (1.0 + x + y + z) / 8.0 + reference_delta3(x, y, z) / 2.0
    if x * x + y * y + z * z >= 1.0:
        ax, ay, az = -abs(x), -abs(y), -abs(z)
        tail = (1.0 + ax + ay + az) / 8.0 + reference_delta3(ax, ay, az) / 2.0
        val += sigma(x) * sigma(y) * sigma(z) * tail
    return min(1.0, max(0.0, val))


def snapped_points(n, seed):
    # Uniform points of the cube with about 40% of the coordinates snapped
    # to values that tie in magnitude, land on the sphere or are +-0.0.
    rng = np.random.default_rng(seed)
    snaps = np.array([0.0, 1.0, 0.5, 0.6, 0.8, math.sqrt(0.5), 1.0 / 3.0])
    snaps = np.concatenate([snaps, -snaps])
    points = rng.uniform(-1.0, 1.0, (n, 3))
    snap = rng.random((n, 3)) < 0.4
    points[snap] = rng.choice(snaps, snap.sum())
    return points


def test_spherical_kernels_match_sort_based_reference():
    model = SphericalCopula()
    points = snapped_points(20000, 12)
    assert ((points == 0.0) & np.signbit(points)).any() and (points ** 2).sum(axis=1).max() >= 1.0
    triples = points.tolist()

    def bits(values):
        return np.array(values, dtype=float).view(np.int64)

    want_delta3 = bits([reference_delta3(*p) for p in triples])
    want_cdf = bits([reference_spherical_cdf(*p) for p in triples])
    want_survival = bits([reference_spherical_cdf(-x, -y, -z) for x, y, z in triples])
    assert (bits([delta3(*p) for p in triples]) == want_delta3).all()
    assert (bits([spherical_cdf(*p) for p in triples]) == want_cdf).all()
    assert (bits([model.survival(*p) for p in triples]) == want_survival).all()
    assert (evaluate(model, "cdf", *points.T).view(np.int64) == want_cdf).all()
    assert (evaluate(model, "survival", *points.T).view(np.int64) == want_survival).all()


# Zero, 1 and one ulp inside each, and any float of [-1, 1]; each triple
# takes its coordinates from one to three of them and their negations, so
# ties (x == y, and 0.0 == -0.0), signed zeros and points on and outside
# the sphere are frequent.  A batch of such triples goes to evaluate at
# once, so the delta3 term picked element by element meets every order.
_HARD = st.one_of(
    st.sampled_from([0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0)]),
    st.floats(-1.0, 1.0),
)
_TRIPLE = st.lists(_HARD, min_size=1, max_size=3).flatmap(
    lambda values: st.tuples(*[st.sampled_from([*values, *(-t for t in values)])] * 3)
)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(triples=st.lists(_TRIPLE, min_size=1, max_size=40))
def test_spherical_evaluate_keeps_the_scalar_bits(triples):
    # assert_bits compares with SphericalCopula().cdf, which is spherical_cdf.
    assert_bits(SphericalCopula(), "cdf", np.array(triples, dtype=float).T)


# --- the bit promises as properties ------------------------------------

# +-0.0, +-1 and one ulp inside each, or any float of [-1, 1].
_COORD = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
        math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0),
    ]),
    st.floats(-1.0, 1.0),
)


@st.composite
def _point(draw, dim, gamma):
    # A point of hard coordinates, or one within 1e-12 (relative) of the
    # boundary of the support: the circle, the ellipse of gamma, or the
    # sphere.
    if draw(st.booleans()):
        return draw(st.tuples(*[_COORD] * dim))
    scale = 1.0 + draw(st.floats(-1e-12, 1e-12))
    if dim == 3:
        direction = draw(st.tuples(*[_COORD] * 3))
        norm = math.hypot(*direction)
        boundary = [t / norm for t in direction] if norm > 0.0 else [1.0, 0.0, 0.0]
    else:
        t = draw(st.floats(0.0, 2.0 * math.pi))
        boundary = [math.cos(t), math.sin(t + gamma)]
    return [min(1.0, max(-1.0, scale * c)) for c in boundary]


@st.composite
def _points(draw, dim, gamma=0.0):
    # Hard and boundary points, and 32 uniform points of the cube from a
    # drawn seed: hypothesis draws few generic floats, and an atan2 that
    # misses by an ulp does so on a few percent of them.
    hard = draw(st.lists(_point(dim, gamma), min_size=1, max_size=20))
    bulk = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (32, dim))
    return hard + bulk.tolist()


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_survival_is_the_cdf_at_the_reflected_point_bitwise(model, data):
    # survival(p) == cdf(-p) for every model, on the scalar path and on the
    # array path, and the two paths agree.
    points = data.draw(_points(model.dim, getattr(model, "gamma", 0.0)))
    columns = np.array(points).T
    want = _bits([model.survival(*p) for p in points])
    assert _bits([model.cdf(*(-t for t in p)) for p in points]) == want
    assert _bits(evaluate(model, "survival", *columns)) == want
    assert _bits(evaluate(model, "cdf", *-columns)) == want


@st.composite
def _near_circle(draw):
    # A point of the unit circle, each coordinate moved by at most one ulp.
    t = draw(st.floats(0.0, 2.0 * math.pi))
    point = []
    for c in (math.cos(t), math.sin(t)):
        step = draw(st.sampled_from([-2.0, 0.0, 2.0]))
        point.append(min(1.0, max(-1.0, math.nextafter(c, step) if step else c)))
    return point


@st.composite
def _pair_points(draw):
    return draw(st.lists(_near_circle(), max_size=10)) + draw(_points(2))


# The pair terms of the circular and nonlinear CDFs (and of each spherical
# pair), on the scalar and the array path.
PAIR_TERMS = [
    pytest.param(_alpha, _alpha_array, id="alpha"),
    pytest.param(_overlap_atan2, _overlap_array, id="overlap"),
]


@pytest.mark.parametrize("scalar, array", PAIR_TERMS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(points=_pair_points())
def test_pair_terms_symmetric_under_the_swap_bitwise(scalar, array, points):
    x, y = np.array(points).T
    want = _bits([scalar(*p) for p in points])
    assert _bits([scalar(b, a) for a, b in points]) == want
    assert _bits(array(x, y)) == want
    assert _bits(array(y, x)) == want


@pytest.mark.parametrize("scalar, array", PAIR_TERMS)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(points=_pair_points())
def test_pair_terms_odd_in_each_sign_bitwise(scalar, array, points):
    # term(e*|x|, d*|y|) is e*d*term(|x|, |y|) bit for bit where it is not
    # zero, on both paths; a zero may carry either sign.
    x, y = np.abs(np.array(points)).T
    base = array(x, y)
    assert _bits(base) == _bits([scalar(*p) for p in zip(x.tolist(), y.tolist())])
    for e, d in product((1.0, -1.0), repeat=2):
        want = e * d * base
        got = array(e * x, d * y)
        scalar_got = np.array([scalar(e * a, d * b) for a, b in zip(x.tolist(), y.tolist())])
        for values in (got, scalar_got):
            assert (values == want).all()
            nonzero = want != 0.0
            assert _bits(values[nonzero]) == _bits(want[nonzero])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(zero=st.sampled_from([0.0, -0.0]), points=_points(2))
def test_alpha_gamma_at_zero_is_alpha_bitwise(zero, points):
    u, v = np.array(points).T
    want = _bits([alpha(*p) for p in points])
    assert _bits([alpha_gamma(zero, *p) for p in points]) == want
    assert _bits(_alpha_gamma_array(zero, u, v)) == want
    assert _bits(_alpha_array(u, v)) == want


@pytest.mark.parametrize("model", [m for m in MODELS if m.dim == 2], ids=lambda m: m.describe())
@settings(derandomize=True, deadline=None, max_examples=10)
@given(data=st.data())
def test_evaluate_pdf_is_the_scalar_pdf_bitwise(model, data):
    # The density on the array path, where np.where stands for the scalar
    # branches on the support's boundary and the square's corners.
    points = data.draw(_points(2, getattr(model, "gamma", 0.0)))
    want = _bits([model.pdf(*p) for p in points])
    assert _bits(evaluate(model, "pdf", *np.array(points).T)) == want
