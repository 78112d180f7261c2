"""Acceptance gate: one test per criterion, each printed as a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import json
import math
import time
from functools import partial
from itertools import permutations

import numpy as np
import pytest

from ballcopulas import (
    CircularCopula,
    DimensionError,
    EllipticalCopula,
    NonlinearDiskCopula,
    Rectangle,
    SphericalCopula,
    alpha,
    cap_intersection_area,
    cdf_volume,
    circular_cdf,
    circular_survival,
    ellipse_intersection_area,
    evaluate,
    h_identity,
    ks_uniform,
    moment_check,
    quad_mass_2d,
    quad_survival_circular,
    spherical_cdf,
    spherical_survival,
)
from ballcopulas.cli import main as cli_main
from ballcopulas.copulas import _corner_sum
from ballcopulas.oracle import _rect_masses, _tail_integrals


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:2d}: PASS  ({detail})")


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def _quarter_disk_points(count: int) -> list[tuple[float, float]]:
    pts = []
    i = 1
    while len(pts) < count:
        x, y = _halton(i, 2), _halton(i, 3)
        i += 1
        if x * x + y * y < 1.0:
            pts.append((x, y))
    return pts


def _octant_ball_points(count: int) -> list[tuple[float, float, float]]:
    pts = []
    i = 1
    while len(pts) < count:
        x, y, z = _halton(i, 2), _halton(i, 3), _halton(i, 5)
        i += 1
        if x * x + y * y + z * z < 1.0 and min(x, y, z) > 0.0:
            pts.append((x, y, z))
    return pts


def test_criterion_01_circular_closed_form_vs_integral():
    start = time.perf_counter()
    worst = 0.0
    for x, y in _quarter_disk_points(200):
        diff = abs(circular_survival(x, y) - quad_survival_circular(x, y))
        worst = max(worst, diff)
        assert diff <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(1, f"200 low-discrepancy points, max |closed - integral| = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_spherical_closed_form_vs_integral():
    start = time.perf_counter()
    worst = 0.0
    points = _octant_ball_points(200)
    # Every permutation of every point in one batch of tail integrals.
    tails = iter(_tail_integrals([q for p in points for q in permutations(p)], 1e-9))
    for x, y, z in points:
        closed = spherical_survival(x, y, z)
        for _ in range(6):
            diff = abs(closed - next(tails))
            worst = max(worst, diff)
            assert diff <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(2, f"200 points x 6 permutations, max diff = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_03_margin_collapse():
    worst = max(
        abs(spherical_cdf(float(x), float(y), 1.0) - circular_cdf(float(x), float(y)))
        for x in np.linspace(-1.0, 1.0, 41)
        for y in np.linspace(-1.0, 1.0, 41)
    )
    assert worst <= 1e-12
    _report(3, f"41x41 grid, max |F3(x,y,1) - F2(x,y)| = {worst:.3e}")


def test_criterion_04_h_identity():
    worst = max(
        abs(h_identity(float(x), float(y)) - math.pi / 2)
        for x in np.linspace(0.01, 0.70, 50)
        for y in np.linspace(0.01, 0.70, 50)
    )
    assert worst <= 1e-12
    _report(4, f"50x50 grid, max |h - pi/2| = {worst:.3e}")


def test_criterion_05_alpha_boundary_continuity():
    shrink = 1.0 - 1e-10
    worst = 0.0
    for k in range(200):
        t = (k + 0.5) * (math.pi / 2) / 200
        x, y = math.cos(t), math.sin(t)
        diff = abs(alpha(shrink * x, shrink * y) - alpha(x, y))
        worst = max(worst, diff)
        assert diff <= 1e-8
    _report(5, f"200 circle points, max branch gap = {worst:.3e}")


def test_criterion_06_marginal_uniformity():
    start = time.perf_counter()
    n = 10**6
    crit = 1.63 / math.sqrt(n)
    models = [
        CircularCopula(),
        SphericalCopula(),
        EllipticalCopula(-math.pi / 4),
        EllipticalCopula(math.pi / 8),
        EllipticalCopula(math.pi / 4),
        NonlinearDiskCopula(),
    ]
    worst = 0.0
    for i, model in enumerate(models):
        pts = model.sample(n, 1600 + i).points
        for k in range(model.dim):
            stat = ks_uniform(pts[:, k])
            worst = max(worst, stat)
            assert stat <= crit, (model.describe(), k, stat, crit)
    # negative control: semicircle-law coordinates must fail the same test
    rng = np.random.default_rng(606)
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    t = rng.uniform(0.0, 2.0 * math.pi, n)
    control = ks_uniform(r * np.cos(t))
    assert control > crit
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        6,
        f"6 models x 1e6 samples, max KS = {worst:.5f} <= {crit:.5f}; "
        f"negative control KS = {control:.4f}; {elapsed:.1f}s",
    )


def test_criterion_07_correlation_law():
    n = 10**6
    details = []
    for i, g in enumerate((-math.pi / 4, 0.0, math.pi / 8, math.pi / 4)):
        pts = EllipticalCopula(g).sample(n, 700 + i).points
        corr = float(np.corrcoef(pts[:, 0], pts[:, 1])[0, 1])
        target = math.sin(g)
        band = 4.0 * (1.0 - target * target) / math.sqrt(n)
        assert abs(corr - target) <= band, (g, corr, target, band)
        details.append(f"{corr - target:+.1e}")
    pts = NonlinearDiskCopula().sample(n, 777).points
    uv = pts[:, 0] * pts[:, 1]
    band = 4.0 * float(np.std(uv, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(uv))) <= band
    _report(7, f"corr errors {details}; nonlinear E(UV) = {np.mean(uv):+.1e} within 4 sigma")


def test_criterion_08_second_moment_and_dimension_guard():
    batch = SphericalCopula().sample(10**6, 808)
    for est in moment_check(batch):
        assert abs(est.value - 1.0 / 3.0) <= 4.0 * est.std_error
    for dim in (4, 5, 8):
        with pytest.raises(DimensionError):
            SphericalCopula(dim=dim)
    _report(8, "each E(Z_i^2) within 4 sigma of 1/3; dims 4, 5, 8 rejected")


def test_criterion_09_density_normalization():
    full = Rectangle((-1.0, -1.0), (1.0, 1.0))
    worst = 0.0
    for model in (CircularCopula(), EllipticalCopula(math.pi / 4), NonlinearDiskCopula()):
        diff = abs(quad_mass_2d(model, full) - 1.0)
        worst = max(worst, diff)
        assert diff <= 1e-6
    _report(9, f"max |mass(C2) - 1| = {worst:.3e}")


def test_criterion_10_d_increasing_and_rectangle_mass():
    models = [
        CircularCopula(),
        SphericalCopula(),
        EllipticalCopula(math.pi / 4),
        EllipticalCopula(-math.pi / 4),
        NonlinearDiskCopula(),
    ]
    min_vol = math.inf
    for i, model in enumerate(models):
        # The corners a, b of each rectangle in turn from one stream, as a
        # per-rectangle loop draws them; the array corner sum gives each
        # rectangle's cdf_volume to the bit.
        corners = np.random.default_rng(1000 + i).uniform(-1.0, 1.0, (10**4, 2, model.dim))
        a, b = corners[:, 0], corners[:, 1]
        vols = _corner_sum(partial(evaluate, model, "cdf"), np.minimum(a, b).T, np.maximum(a, b).T)
        min_vol = min(min_vol, vols.min())
        assert np.all(vols >= -1e-12)

    worst_mass = 0.0
    for i, model in enumerate(
        (CircularCopula(), EllipticalCopula(math.pi / 4), NonlinearDiskCopula())
    ):
        rng = np.random.default_rng(2000 + i)
        rects = []
        for _ in range(10**3):
            a = rng.uniform(-1.0, 1.0, 2)
            b = rng.uniform(-1.0, 1.0, 2)
            rects.append(Rectangle(tuple(np.minimum(a, b)), tuple(np.maximum(a, b))))
        # One batch of integrals per model: each mass is quad_mass_2d's.
        for rect, mass in zip(rects, _rect_masses(model, rects, 1e-9)):
            diff = abs(cdf_volume(model, rect) - mass)
            worst_mass = max(worst_mass, diff)
            assert diff <= 1e-6

    # spherical: rectangle mass vs Monte-Carlo inclusion-exclusion (counting
    # a shared batch equals the alternating sum of its empirical CDF)
    sph = SphericalCopula()
    n = 200000
    pts = sph.sample(n, 3000).points
    # The points sorted once per axis: searchsorted finds the slab lo < t <= hi
    # of each axis, and only the narrowest slab is tested on all three.
    by_axis = [pts[np.argsort(pts[:, k])] for k in range(3)]
    rng = np.random.default_rng(3001)
    for _ in range(10**3):
        a = rng.uniform(-1.0, 1.0, 3)
        b = rng.uniform(-1.0, 1.0, 3)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        rect = Rectangle(tuple(lo), tuple(hi))
        vol = cdf_volume(sph, rect)
        slabs = [np.searchsorted(p[:, k], (lo[k], hi[k]), side="right") for k, p in enumerate(by_axis)]
        k = int(np.argmin([stop - start for start, stop in slabs]))
        box = by_axis[k][slabs[k][0]:slabs[k][1]]
        emp = np.count_nonzero(np.all((box > lo) & (box <= hi), axis=1)) / n
        sigma = math.sqrt(max(vol * (1.0 - vol), 0.0) / n)
        assert abs(vol - emp) <= 4.0 * sigma + 1e-9
    _report(
        10,
        f"5 models x 1e4 rects, min volume = {min_vol:.2e} >= -1e-12; "
        f"1e3 rect masses vs quadrature, max diff = {worst_mass:.2e}; "
        f"1e3 spherical rects within 4 sigma of MC",
    )


def test_criterion_11_cap_and_ellipse_areas():
    half = math.pi / 2
    assert abs(cap_intersection_area(half, half, half) - math.pi) <= 1e-12

    rng = np.random.default_rng(1100)
    worst_cap = 0.0
    count = 0
    while count < 100:
        x, y = rng.uniform(0.02, 0.95, 2)
        if x * x + y * y >= 0.999:
            continue
        count += 1
        area = cap_intersection_area(math.acos(x), math.acos(y), half)
        diff = abs(area - 4.0 * math.pi * circular_survival(x, y))
        worst_cap = max(worst_cap, diff)
        assert diff <= 1e-9

    for v in np.linspace(0.01, 0.99, 50):
        assert abs(ellipse_intersection_area(1.0, float(v)) - math.pi * v) <= 1e-12

    n = 10**7
    rng = np.random.default_rng(1101)
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    x2 = pts[:, 0] ** 2
    y2 = pts[:, 1] ** 2
    for _ in range(20):
        u, v = rng.uniform(0.05, 0.95, 2)
        inside = (x2 / (u * u) + y2 <= 1.0) & (x2 + y2 / (v * v) <= 1.0)
        frac = float(np.mean(inside))
        est = 4.0 * frac  # square has area 4
        sigma = 4.0 * math.sqrt(frac * (1.0 - frac) / n)  # std error of est
        assert abs(est - ellipse_intersection_area(u, v)) <= 4.0 * sigma
    _report(
        11,
        f"hemisphere lens = pi; 100 cap areas vs tail (max diff {worst_cap:.1e}); "
        f"edge areas exact; 20 ellipse overlaps within 4 sigma of 1e7-sample MC",
    )


def test_criterion_12_cli_determinism(tmp_path):
    def run_sample(path):
        code = cli_main(
            ["sample", "--model", "elliptical", "--gamma", "pi/8", "--n", "200",
             "--seed", "321", "--out", str(path), "--no-timestamp"]
        )
        assert code == 0

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    run_sample(s1)
    run_sample(s2)
    assert s1.read_bytes() == s2.read_bytes()
    assert (tmp_path / "s1.csv.meta.json").read_bytes() == (
        tmp_path / "s2.csv.meta.json"
    ).read_bytes()

    def run_verify(path):
        return cli_main(["verify", "--seed", "20260810", "--out", str(path), "--no-timestamp"])

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = run_verify(r1)
    code2 = run_verify(r2)
    assert code1 == 0 and code2 == 0
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["global_pass"] is True
    _report(
        12,
        f"sample and verify byte-identical across runs; default verify: "
        f"{len(doc['checks'])} checks, exit 0",
    )
