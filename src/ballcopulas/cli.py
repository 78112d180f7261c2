"""Command-line front end: grid evaluation, sampling, verification, cap areas.

Subcommands
-----------
eval     evaluate pdf/cdf/survival on a regular grid, emit CSV or JSON
sample   draw reproducible samples, emit CSV plus a JSON metadata sidecar
verify   run the verification suite, emit the report JSON
caparea  print the spherical cap intersection area for (r1, r2, d)

Each input rule is checked once: argparse rejects missing, unknown,
unparsable and out-of-choice arguments, the library rejects the values it
cannot take, and this module checks only ``--grid`` and the output path.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 invalid
configuration (an argparse error or a ``BallCopulasError``, including an
output path that cannot be written, and a grid or a sample whose values do
not fit in memory), 3 unsupported quantity (the density of
the spherical model, ``NotAbsolutelyContinuousError``), 4 internal error (any
other exception; reported on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as _dt
import functools
import json
import math
import sys
from itertools import chain, product

import numpy as np

from .copulas import EllipticalCopula, evaluate, model_from_name
from .errors import BallCopulasError, NotAbsolutelyContinuousError
from .oracle import VerifyConfig, verify_suite
from .special_math import cap_intersection_area

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED_QUANTITY = 3
EXIT_INTERNAL = 4

_GAMMA_LITERALS = {
    "pi/4": math.pi / 4.0,
    "pi/8": math.pi / 8.0,
    "-pi/8": -math.pi / 8.0,
    "-pi/4": -math.pi / 4.0,
}


class CliConfigError(BallCopulasError):
    pass


def _parse_gamma(text: str) -> float:
    key = text.strip().replace(" ", "")
    if key in _GAMMA_LITERALS:
        return _GAMMA_LITERALS[key]
    try:
        return float(key)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid gamma {text!r}: expected a decimal in radians or one of "
            f"{sorted(_GAMMA_LITERALS)}"
        ) from None


# Lines per block of a CSV body.  Each block is formatted, joined and
# written on its own, so the text in memory is bounded whatever the size.
_BLOCK_LINES = 2**15


def _cells(values: np.ndarray, end: str) -> list[str]:
    # [repr(v) + end for v in values.tolist()], with each text made once per
    # distinct bit pattern, so that 0.0 and -0.0 stay apart.  repr is the
    # shortest round-trip decimal form, locale independent.
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) + end for v in bits.view(float).tolist()], dtype=object)
    return texts[inverse].tolist()


def _blocks(values: np.ndarray, end: str):
    # The cells of a column, one list per block of lines.
    for start in range(0, values.size, _BLOCK_LINES):
        yield _cells(values[start:start + _BLOCK_LINES], end)


def _grid_blocks(labels: np.ndarray, inner: int, rows: int):
    # The cells of a coordinate column of a grid in C order, one list per
    # block of lines: each label fills inner consecutive rows, and the
    # labels repeat until rows lines are filled.
    for start in range(0, rows, _BLOCK_LINES):
        index = np.arange(start, min(start + _BLOCK_LINES, rows)) // inner % labels.size
        yield labels[index].tolist()


def _csv(header: str, columns):
    # The CSV text in pieces: the header line, then one piece per block of
    # lines.  columns holds one iterator of blocks per column of the body,
    # each cell ending with its separator.  map, unlike zip, holds no block
    # once its piece is made, so the cells are freed before it is written.
    return chain([header + "\n"], map(_lines, *columns))


def _lines(*block: list[str]) -> str:
    # A block's lines, joined in one pass over its columns' cells
    # interleaved.
    cells = [None] * sum(map(len, block))
    for k, texts in enumerate(block):
        cells[k::len(block)] = texts
    return "".join(cells)


def _emit(pieces, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out_path, "w", newline="\n") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise CliConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _in_memory(size: str):
    # An array too large for memory is a usage error that names the size;
    # the arrays are made before any output is opened.
    try:
        yield
    except MemoryError as exc:
        raise CliConfigError(f"{size} do not fit in memory: {exc}") from None


def cmd_eval(args: argparse.Namespace) -> int:
    model = model_from_name(args.model, args.gamma)
    if args.grid < 2:
        raise CliConfigError("grid needs at least 2 points per axis")
    n = args.grid - 1
    axes = [[-1.0 + 2.0 * i / n for i in range(n + 1)]] * model.dim
    coords = ("x", "y") if model.dim == 2 else ("x", "y", "z")
    # Row-major over the grid: x varies slowest.
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    with _in_memory(f"the {args.grid}^{model.dim} values of the grid"):
        values = evaluate(model, args.quantity, *mesh).ravel()

    if args.format == "csv":
        # A row's cells are the prefix "x," or "x,y," of its leading
        # coordinates, its last coordinate and its value.  Each axis
        # coordinate is formatted once, and each distinct value once: a
        # grid repeats many of its values (0 and 1, the mirror images of a
        # symmetric model, and off the support values that depend on one
        # coordinate only).
        labels = [repr(t) + "," for t in axes[0]]
        leading = np.array(list(map("".join, product(labels, repeat=model.dim - 1))), dtype=object)
        columns = [
            _grid_blocks(leading, n + 1, values.size),
            _grid_blocks(np.array(labels, dtype=object), 1, values.size),
            _blocks(values, "\n"),
        ]
        _emit(_csv(",".join(coords) + ",value", columns), args.out)
    else:
        records = [
            {**dict(zip(coords, point)), "value": value}
            for point, value in zip(product(*axes), values.tolist())
        ]
        _emit([json.dumps(records, indent=2) + "\n"], args.out)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    model = model_from_name(args.model, args.gamma)
    with _in_memory(f"{args.n} samples"):
        batch = model.sample(args.n, args.seed)
    coords = ("x", "y") if model.dim == 2 else ("x", "y", "z")
    # Block by block from the batch's contiguous columns, since a C-order
    # ravel would copy the column-major batch.
    ends = [","] * (model.dim - 1) + ["\n"]
    columns = [_blocks(column, end) for column, end in zip(batch.points.T, ends)]
    _emit(_csv(",".join(coords), columns), args.out)

    meta = {
        "model": model.name,
        "seed": batch.seed,
        "rng_algorithm": batch.rng_algorithm,
        "n": int(args.n),
    }
    if isinstance(model, EllipticalCopula):
        meta["gamma"] = model.gamma
    if not args.no_timestamp:
        meta["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    _emit([json.dumps(meta, indent=2) + "\n"], args.out + ".meta.json")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # One VerifyConfig field per flag; the flags' defaults are the fields'.
    config = VerifyConfig(
        seed=args.seed, n_samples=args.n, rect_count=args.rects,
        abs_tol=args.abs_tol, tol_scale=args.tol_scale,
        include_timestamp=not args.no_timestamp,
    )
    report = verify_suite(config)
    _emit([report.to_json()], args.out)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} [{check.model}]", file=sys.stderr)
    print(
        f"{'PASS' if report.global_pass else 'FAIL'}: "
        f"{len(report.checks) - len(report.failures())}/{len(report.checks)} checks passed",
        file=sys.stderr,
    )
    return EXIT_OK if report.global_pass else EXIT_VERIFY_FAILED


def cmd_caparea(args: argparse.Namespace) -> int:
    area = cap_intersection_area(args.r1, args.r2, args.d)
    print(f"{area:.15g}")
    return EXIT_OK


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model",
        required=True,
        choices=("circular", "spherical", "elliptical", "nonlinear"),
        help="copula model",
    )
    p.add_argument(
        "--gamma",
        type=_parse_gamma,
        default=None,
        help="skew angle in radians for the elliptical model; accepts decimals "
        "or the literals pi/4, pi/8, -pi/8, -pi/4",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser as it found it.
    parser = argparse.ArgumentParser(
        prog="ballcop",
        description="Closed-form disk/ball/sphere copulas: grid evaluation, "
        "sampling, cap areas and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a quantity on a grid")
    _add_model_flags(p_eval)
    p_eval.add_argument(
        "--quantity", required=True, choices=("pdf", "cdf", "survival")
    )
    p_eval.add_argument("--grid", type=int, default=101, help="points per axis")
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")
    p_eval.add_argument("--out", default=None, help="output path (default stdout)")
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw reproducible samples")
    _add_model_flags(p_sample)
    p_sample.add_argument("--n", type=int, required=True, help="number of samples")
    p_sample.add_argument("--seed", type=int, required=True, help="RNG seed")
    p_sample.add_argument("--out", required=True, help="CSV output path")
    p_sample.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp from the metadata sidecar",
    )
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--seed", type=int, required=True, help="master seed")
    p_verify.add_argument(
        "--n", type=int, default=VerifyConfig.n_samples,
        help="samples per model, one batch that every sampled check reads (at least 1000)",
    )
    p_verify.add_argument(
        "--rects", type=int, default=VerifyConfig.rect_count,
        help="random rectangles per model of rect_mass_nonnegative (at least 1)",
    )
    p_verify.add_argument(
        "--tol-scale", type=float, default=VerifyConfig.tol_scale, help="scale all check tolerances"
    )
    p_verify.add_argument(
        "--abs-tol", type=float, default=VerifyConfig.abs_tol, help="quadrature absolute tolerance"
    )
    p_verify.add_argument("--out", default=None, help="report path (default stdout)")
    p_verify.add_argument(
        "--no-timestamp", action="store_true", help="omit the report timestamp"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_cap = sub.add_parser(
        "caparea", help="area of the intersection of two spherical caps"
    )
    p_cap.add_argument("r1", type=float, help="angular radius of the first cap")
    p_cap.add_argument("r2", type=float, help="angular radius of the second cap")
    p_cap.add_argument("d", type=float, help="angular distance between cap centers")
    p_cap.set_defaults(func=cmd_caparea)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except NotAbsolutelyContinuousError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_QUANTITY
    except BallCopulasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        # A defect, not a usage error: report it in one line.
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
