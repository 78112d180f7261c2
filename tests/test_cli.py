import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import ballcopulas
from ballcopulas import VerificationReport, VerifyConfig, cli, model_from_name
from ballcopulas.cli import _BLOCK_LINES, _cells, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_small_grid_csv(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, _ = run(
        ["eval", "--model", "circular", "--quantity", "cdf", "--grid", "3",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    text = out.read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 9
    assert [r for r in rows[0]] == ["x", "y", "value"]
    by_point = {(float(r["x"]), float(r["y"])): float(r["value"]) for r in rows}
    assert by_point[(1.0, 1.0)] == 1.0
    assert by_point[(0.0, 0.0)] == 0.25
    assert by_point[(-1.0, -1.0)] == 0.0
    # row-major over the grid: x varies slowest
    assert [float(r["x"]) for r in rows] == [-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    # LF endings, '.' decimals
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert b"," in raw


def test_eval_json_matches_csv(tmp_path, capsys):
    out_csv = tmp_path / "g.csv"
    out_json = tmp_path / "g.json"
    run(["eval", "--model", "nonlinear", "--quantity", "cdf", "--grid", "5",
         "--out", str(out_csv)], capsys)
    run(["eval", "--model", "nonlinear", "--quantity", "cdf", "--grid", "5",
         "--format", "json", "--out", str(out_json)], capsys)
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    records = json.loads(out_json.read_text())
    assert len(rows) == len(records) == 25
    for row, record in zip(rows, records):
        assert float(row["x"]) == record["x"]
        assert float(row["y"]) == record["y"]
        assert float(row["value"]) == record["value"]


def test_eval_spherical_grid_has_z(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run(
        ["eval", "--model", "spherical", "--quantity", "cdf", "--grid", "3",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 27
    assert list(rows[0]) == ["x", "y", "z", "value"]
    full = [r for r in rows if r["x"] == "1.0" and r["y"] == "1.0" and r["z"] == "1.0"]
    assert float(full[0]["value"]) == 1.0


def test_eval_spherical_survival_all_orthants(tmp_path, capsys):
    out = tmp_path / "surv.csv"
    code, _, _ = run(
        ["eval", "--model", "spherical", "--quantity", "survival", "--grid", "3",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    by_point = {(r["x"], r["y"], r["z"]): float(r["value"]) for r in rows}
    assert by_point[("-1.0", "-1.0", "-1.0")] == 1.0
    assert by_point[("0.0", "0.0", "0.0")] == 0.125


def test_eval_pdf_of_spherical_is_unsupported(capsys):
    code, _, err = run(["eval", "--model", "spherical", "--quantity", "pdf"], capsys)
    assert code == 3
    assert "not absolutely continuous" in err


def test_eval_gamma_contract(capsys):
    code, _, err = run(["eval", "--model", "elliptical", "--quantity", "cdf"], capsys)
    assert code == 2
    assert "gamma" in err
    code, _, err = run(
        ["eval", "--model", "circular", "--quantity", "cdf", "--gamma", "0.5"], capsys
    )
    assert code == 2
    code, _, err = run(
        ["eval", "--model", "elliptical", "--quantity", "cdf", "--gamma", "pi/3"],
        capsys,
    )
    assert code == 2


def test_eval_bad_grid(capsys):
    code, _, _ = run(
        ["eval", "--model", "circular", "--quantity", "cdf", "--grid", "1"], capsys
    )
    assert code == 2


def test_eval_stdout_value(capsys):
    code, out, _ = run(
        ["eval", "--model", "elliptical", "--gamma", "pi/8", "--quantity", "cdf",
         "--grid", "2"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert float(rows[-1]["value"]) == 1.0


def test_eval_gamma_literals(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run(["eval", "--model", "elliptical", "--gamma", "pi/4", "--quantity", "cdf",
         "--grid", "5", "--out", str(out_a)], capsys)
    run(["eval", "--model", "elliptical", "--gamma", repr(math.pi / 4),
         "--quantity", "cdf", "--grid", "5", "--out", str(out_b)], capsys)
    assert out_a.read_bytes() == out_b.read_bytes()


def test_eval_grid_cells_match_mass_oracle(tmp_path, capsys):
    # rectangle masses assembled from the emitted CDF grid agree with the
    # density-mass quadrature
    from ballcopulas import EllipticalCopula, Rectangle, quad_mass_2d

    out = tmp_path / "ell.csv"
    code, _, _ = run(
        ["eval", "--model", "elliptical", "--gamma", "pi/4", "--quantity", "cdf",
         "--grid", "9", "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    values = {(float(r["x"]), float(r["y"])): float(r["value"]) for r in rows}
    axis = [-1.0 + 0.25 * i for i in range(9)]
    model = EllipticalCopula(math.pi / 4)
    for i in (0, 2, 5):
        for j in (1, 4, 7):
            x0, x1 = axis[i], axis[i + 1]
            y0, y1 = axis[j], axis[j + 1]
            cell = (
                values[(x1, y1)] - values[(x0, y1)] - values[(x1, y0)] + values[(x0, y0)]
            )
            oracle = quad_mass_2d(model, Rectangle((x0, y0), (x1, y1)))
            assert abs(cell - oracle) <= 1e-6


def test_sample_determinism_and_metadata(tmp_path, capsys):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    for out in (out1, out2):
        code, _, _ = run(
            ["sample", "--model", "circular", "--n", "50", "--seed", "42",
             "--out", str(out), "--no-timestamp"],
            capsys,
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta1 = (tmp_path / "s1.csv.meta.json").read_bytes()
    meta2 = (tmp_path / "s2.csv.meta.json").read_bytes()
    assert meta1 == meta2
    meta = json.loads(meta1)
    assert meta == {"model": "circular", "seed": 42, "rng_algorithm": "PCG64", "n": 50}


EVAL_CASES = [
    pytest.param(
        [] if text is None else [f"--gamma={text}"],
        model_from_name(name, gamma),
        quantity,
        id=f"{name}-{quantity}" if text is None else f"{name}({text})-{quantity}",
    )
    for name, text, gamma in [
        ("circular", None, None),
        ("spherical", None, None),
        ("elliptical", "-pi/8", -math.pi / 8),
        ("elliptical", "1.5707963", 1.5707963),
        ("nonlinear", None, None),
    ]
    for quantity in ("pdf", "cdf", "survival")
    if not (name == "spherical" and quantity == "pdf")
]


def grid_axis(n):
    return [-1.0 + 2.0 * i / (n - 1) for i in range(n)]


def reference_eval(model, quantity, n, fmt):
    """The output of a per-point loop over the grid, x slowest."""
    coords = ("x", "y", "z")[: model.dim]
    fn = getattr(model, quantity)
    rows = [(*p, fn(*p)) for p in product(grid_axis(n), repeat=model.dim)]
    if fmt == "csv":
        lines = [",".join(coords) + ",value"]
        lines.extend(",".join(repr(float(t)) for t in row) for row in rows)
        return "\n".join(lines) + "\n"
    records = [{**dict(zip(coords, row[:-1])), "value": row[-1]} for row in rows]
    return json.dumps(records, indent=2) + "\n"


@pytest.mark.parametrize("n", [2, 3, 5, 21])
@pytest.mark.parametrize("flags, model, quantity", EVAL_CASES)
def test_eval_bytes_equal_per_point_reference(tmp_path, capsys, flags, model, quantity, n):
    for fmt in ("csv", "json"):
        out = tmp_path / f"grid.{fmt}"
        code, _, _ = run(
            ["eval", "--model", model.name, *flags, "--quantity", quantity, "--grid", str(n),
             "--format", fmt, "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.read_text() == reference_eval(model, quantity, n, fmt)
    if n == 21:
        # The middle grid line is an exact 0.0.
        assert 0.0 in grid_axis(n)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 0.25, -0.0, 0.0, 0.25, 1.0, 0.0],
        [0.1 * k - 1.0 for k in range(21)],
        [0.3],
        [],
    ],
    ids=["signed-zeros", "distinct", "single", "empty"],
)
def test_reprs_equals_repr_per_value(values):
    # The CSV cells: repr of each value and the cell's separator, made once
    # per distinct bit pattern.
    for end in ("", ",", "\n"):
        got = _cells(np.array(values, dtype=float), end)
        assert got == [repr(v) + end for v in values]


# sha256 of the eval CSV for the grid-eval benchmark ops and the 41^3
# spherical CDF grid, pinned before the grid path was tuned: any change of
# value, sign of zero or formatting shows here.
GOLDEN_EVAL = [
    pytest.param(
        ["--model", "circular"], "cdf", 101,
        "875ed0cf84ca3001dc33ef08399263612cc27c8f843bdee0442d7666d8c70ecf",
        id="circular-cdf-101",
    ),
    pytest.param(
        ["--model", "elliptical", "--gamma", "pi/4"], "pdf", 101,
        "b6dc372363b99d023dbd55cf0997fac779f8b986d28a74991bb9ed4b4c22e735",
        id="elliptical(pi/4)-pdf-101",
    ),
    pytest.param(
        ["--model", "elliptical", "--gamma=-pi/8"], "cdf", 101,
        "fc493ca3dbc47941d8f8126e9f1801197202fee44b3f4fa3efcbd263b9de8772",
        id="elliptical(-pi/8)-cdf-101",
    ),
    pytest.param(
        ["--model", "nonlinear"], "survival", 101,
        "2a60eda2e18bc09a004b6df1bffd37c4e0cb0c991b48ff29daa54466bc65a629",
        id="nonlinear-survival-101",
    ),
    pytest.param(
        ["--model", "spherical"], "survival", 21,
        "27eea1fab6f85fa8d165ed36c7e137ae3ab07ed49f5f89790a4340e3a57cf120",
        id="spherical-survival-21",
    ),
    pytest.param(
        ["--model", "elliptical", "--gamma", "1.5707963"], "cdf", 101,
        "9b51861c73a97dbdde86af8811777601103c861c19dd474cf3113e5e355b4278",
        id="elliptical(1.5707963)-cdf-101",
    ),
    pytest.param(
        ["--model", "spherical"], "cdf", 41,
        "704f378159d4a3e81b80a2f21a9ae0bcd3d6d8b39abc94eec44c46a1695f4255",
        id="spherical-cdf-41",
    ),
]


@pytest.mark.parametrize("flags, quantity, n, digest", GOLDEN_EVAL)
def test_eval_csv_golden_sha256(tmp_path, capsys, flags, quantity, n, digest):
    out = tmp_path / "grid.csv"
    code, _, _ = run(
        ["eval", *flags, "--quantity", quantity, "--grid", str(n), "--out", str(out)], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["circular", "spherical", "elliptical", "nonlinear"])
def test_sample_csv_equals_per_row_reference(tmp_path, capsys, name):
    flags = ["--model", name] + (["--gamma", "pi/4"] if name == "elliptical" else [])
    out = tmp_path / "s.csv"
    code, _, _ = run(
        ["sample", *flags, "--n", "500", "--seed", "321", "--out", str(out), "--no-timestamp"],
        capsys,
    )
    assert code == 0
    model = model_from_name(name, math.pi / 4 if name == "elliptical" else None)
    lines = [",".join(("x", "y", "z")[: model.dim])]
    lines.extend(",".join(repr(float(t)) for t in row) for row in model.sample(500, 321).points)
    assert out.read_text() == "\n".join(lines) + "\n"


GOLDEN_SAMPLE = [
    pytest.param(
        ["--model", "circular"],
        "9148089d240bac28ca066bde37d01ac81b8cecfa1aad69c8e022629a311341eb",
        id="circular",
    ),
    pytest.param(
        ["--model", "spherical"],
        "95d58757147d2e4c726f8090b9cb2bb55c4a36f2b6aeba37f981cb215572dae3",
        id="spherical",
    ),
    pytest.param(
        ["--model", "nonlinear"],
        "f1def1ca0db30e384d9ee18260eadca59eb4842ef07fa872cd9c26da896827b3",
        id="nonlinear",
    ),
    pytest.param(
        ["--model", "elliptical", "--gamma", "pi/4"],
        "7172a0a582d7243d36f016dc8faffe71796b8a8a16f26dabe091aebbecb7c8c4",
        id="elliptical(pi/4)",
    ),
    pytest.param(
        ["--model", "elliptical", "--gamma", "1.5707963"],
        "8f671722a78dbecfa4b290a13f67a49c923b0affd8d6b5834a36658cdec90901",
        id="elliptical(1.5707963)",
    ),
]


@pytest.mark.parametrize("flags, digest", GOLDEN_SAMPLE)
def test_sample_csv_golden_sha256(tmp_path, capsys, flags, digest):
    # Pins the samplers' bits, not just the CLI's agreement with the library.
    out = tmp_path / "s.csv"
    code, _, _ = run(
        ["sample", *flags, "--n", "2000", "--seed", "321", "--out", str(out), "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["circular", "spherical"])
def test_sample_csv_across_blocks(tmp_path, capsys, name):
    # More lines than one block, against a plain join of the rows.
    n = _BLOCK_LINES + 7
    out = tmp_path / "s.csv"
    code, _, _ = run(
        ["sample", "--model", name, "--n", str(n), "--seed", "5", "--out", str(out), "--no-timestamp"],
        capsys,
    )
    assert code == 0
    model = model_from_name(name)
    lines = [",".join(("x", "y", "z")[: model.dim])]
    lines.extend(",".join(map(repr, row)) for row in model.sample(n, 5).points.tolist())
    assert out.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, n", [("circular", 182), ("spherical", 33)])
def test_eval_csv_across_blocks(tmp_path, capsys, name, n):
    model = model_from_name(name)
    assert n**model.dim > _BLOCK_LINES
    out = tmp_path / "grid.csv"
    code, _, _ = run(["eval", "--model", name, "--quantity", "cdf", "--grid", str(n), "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text() == reference_eval(model, "cdf", n, "csv")


def run_capped(argv):
    """ballcop in a child process whose address space is capped at 4 GiB, so
    that an allocation of terabytes fails whatever the host's overcommit
    policy, and never touches memory."""
    cap = 4 << 30
    env = {**os.environ, "PYTHONPATH": str(Path(ballcopulas.__file__).resolve().parent.parent)}
    return subprocess.run(
        [sys.executable, "-m", "ballcopulas.cli", *argv], capture_output=True, text=True, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)), timeout=120,
    )


@pytest.mark.parametrize(
    "argv, size",
    [
        (["eval", "--model", "circular", "--quantity", "cdf", "--grid", "1000000"], "1000000^2"),
        (["sample", "--model", "circular", "--n", str(10**12), "--seed", "1"], "1000000000000 samples"),
    ],
    ids=["eval", "sample"],
)
def test_sizes_beyond_memory_are_usage_errors(tmp_path, argv, size):
    # The values are made before the output is opened: the exit is 2, the
    # message names the size, and no file is written.
    out = tmp_path / "big.csv"
    done = run_capped([*argv, "--out", str(out)])
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and size in done.stderr
    assert "do not fit in memory" in done.stderr and "internal" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_sample_values_round_trip(tmp_path, capsys):
    out = tmp_path / "sph.csv"
    run(["sample", "--model", "spherical", "--n", "200", "--seed", "9",
         "--out", str(out), "--no-timestamp"], capsys)
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 200
    pts = np.array([[float(r["x"]), float(r["y"]), float(r["z"])] for r in rows])
    assert np.max(np.abs(np.sum(pts * pts, axis=1) - 1.0)) <= 1e-12


def test_sample_requires_n_seed_out(capsys):
    assert run(["sample", "--model", "circular", "--seed", "1", "--out", "x.csv"], capsys)[0] == 2
    assert run(["sample", "--model", "circular", "--n", "5", "--out", "x.csv"], capsys)[0] == 2
    assert run(["sample", "--model", "circular", "--n", "5", "--seed", "1"], capsys)[0] == 2


def test_sample_timestamp_present_by_default(tmp_path, capsys):
    out = tmp_path / "t.csv"
    run(["sample", "--model", "nonlinear", "--n", "5", "--seed", "3",
         "--out", str(out)], capsys)
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert "timestamp" in meta


def test_caparea(capsys):
    half = repr(math.pi / 2)
    code, out, _ = run(["caparea", half, half, half], capsys)
    assert code == 0
    assert abs(float(out.strip()) - math.pi) <= 1e-12
    # printed with 15 significant digits
    assert out.strip() == "3.14159265358979"
    code, out, _ = run(["caparea", "0.5", "0.5", "1.0"], capsys)
    assert code == 0
    assert float(out.strip()) == 0.0


def test_caparea_tiny_caps(capsys):
    # Inside the documented domain, so a value and exit 0, not an internal
    # error.
    assert run(["caparea", "1e-300", "1e-300", "1e-300"], capsys)[:2] == (0, "0\n")


def test_caparea_bad_configuration(capsys):
    code, _, err = run(["caparea", "0.2", "0.8", "0.5"], capsys)
    assert code == 2
    assert "lens" in err


def test_verify_exit_codes_and_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, _, err = run(
        ["verify", "--seed", "7", "--n", "2000", "--rects", "200",
         "--out", str(out), "--no-timestamp"],
        capsys,
    )
    assert code == 0
    assert "PASS" in err
    doc = json.loads(out.read_text())
    assert doc["global_pass"] is True
    assert doc["rng_algorithm"] == "PCG64"
    assert {"name", "model", "input", "closed_form", "oracle", "abs_diff", "tol", "pass"} == set(
        doc["checks"][0]
    )


def test_verify_flags_set_one_config_field_each(tmp_path, capsys, monkeypatch):
    # VerifyConfig has one field per verify flag, each set by that flag
    # alone; --out only names the report's path.
    flags = {
        "seed": ["--seed", "5"],
        "n_samples": ["--n", "5000"],
        "rect_count": ["--rects", "3"],
        "abs_tol": ["--abs-tol", "1e-7"],
        "tol_scale": ["--tol-scale", "2.0"],
        "include_timestamp": ["--no-timestamp"],
    }
    names = [f.name for f in dataclasses.fields(VerifyConfig)]
    assert names == list(flags)
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {o for a in subparsers.choices["verify"]._actions for o in a.option_strings}
    assert options == {"-h", "--help", "--out", *(argv[0] for argv in flags.values())}
    configs = []
    monkeypatch.setattr(
        cli, "verify_suite", lambda cfg: configs.append(cfg) or VerificationReport(cfg.seed, ())
    )
    base = ["verify", "--seed", "1", "--out", str(tmp_path / "rep.json")]
    assert run(base, capsys)[0] == 0
    assert configs == [VerifyConfig(seed=1)]
    for name, argv in flags.items():
        assert run(base + argv, capsys)[0] == 0
        assert {n for n in names if getattr(configs[-1], n) != getattr(configs[0], n)} == {name}


def test_verify_requires_seed(capsys):
    assert run(["verify"], capsys)[0] == 2
    # The samplers' seed rule holds for verify too: -1 must not run the
    # checks of the derived streams of 2**63 - 1.
    for seed in ("-1", str(2**64)):
        code, out, err = run(["verify", "--seed", seed, "--n", "1000", "--rects", "1"], capsys)
        assert (code, out) == (2, "")
        assert "seed must be a 64-bit unsigned integer" in err


def test_verify_zero_tolerance_fails(tmp_path, capsys):
    out = tmp_path / "rep0.json"
    code, _, _ = run(
        ["verify", "--seed", "5", "--n", "2000", "--rects", "100",
         "--tol-scale", "0", "--out", str(out), "--no-timestamp"],
        capsys,
    )
    assert code == 1
    assert json.loads(out.read_text())["global_pass"] is False


def test_verify_rejects_too_few_samples_or_rectangles(capsys):
    code, _, err = run(["verify", "--seed", "7", "--n", "5"], capsys)
    assert code == 2
    assert "1000 samples" in err
    code, _, err = run(["verify", "--seed", "7", "--rects", "0"], capsys)
    assert code == 2
    assert "rectangle" in err


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_tol_scale(capsys, scale):
    code, out, err = run(["verify", "--seed", "7", f"--tol-scale={scale}"], capsys)
    assert code == 2
    assert out == ""
    assert "tol_scale must be finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_verify_rejects_non_finite_abs_tol(capsys, tol):
    code, out, err = run(["verify", "--seed", "7", f"--abs-tol={tol}"], capsys)
    assert code == 2
    assert out == ""
    assert "abs_tol must be finite" in err


def test_unwritable_out_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    code, _, err = run(
        ["eval", "--model", "circular", "--quantity", "cdf", "--grid", "3",
         "--out", str(missing)],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: cannot write {missing}")
    code, _, err = run(
        ["sample", "--model", "circular", "--n", "5", "--seed", "1",
         "--out", str(missing)],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"error: cannot write {missing}")


def test_unknown_arguments_exit_2(capsys):
    assert run(["eval", "--bogus"], capsys)[0] == 2
    assert run(["frobnicate"], capsys)[0] == 2
    assert run(["eval", "--model", "circular", "--quantity", "quantile"], capsys)[0] == 2


def test_eval_elliptical_near_right_angle(capsys):
    code, out, err = run(
        ["eval", "--model", "elliptical", "--gamma", "1.5707963", "--quantity", "cdf",
         "--grid", "11"],
        capsys,
    )
    assert code == 0, err
    values = [float(line.split(",")[-1]) for line in out.splitlines()[1:]]
    assert len(values) == 121
    assert all(0.0 <= v <= 1.0 for v in values)


def test_internal_error_exit_4(monkeypatch, capsys):
    def boom(model, quantity, *coords):
        raise RuntimeError("boom")

    monkeypatch.setattr("ballcopulas.cli.evaluate", boom)
    code, out, err = run(
        ["eval", "--model", "circular", "--quantity", "cdf", "--grid", "3"], capsys
    )
    assert code == 4
    assert out == ""
    assert err == "error: internal: RuntimeError: boom\n"
