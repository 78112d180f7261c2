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
output path that cannot be written), 3 unsupported quantity (the density of
the spherical model, ``NotAbsolutelyContinuousError``), 4 internal error (any
other exception; reported on stderr, no traceback).
"""

from __future__ import annotations

import argparse
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


def _csv(header: str, rows) -> str:
    # ``rows`` yields tuples of formatted cells.  Floats are formatted with
    # repr: the shortest round-trip decimal form, locale independent.
    return "\n".join(chain((header,), map(",".join, rows))) + "\n"


def _reprs(values: np.ndarray) -> list[str]:
    # list(map(repr, values.tolist())) with repr taken once per distinct bit
    # pattern, so that 0.0 and -0.0 stay apart.
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    texts = np.array(list(map(repr, values[first].tolist())), dtype=object)
    return texts[inverse].tolist()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliConfigError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def cmd_eval(args: argparse.Namespace) -> int:
    model = model_from_name(args.model, args.gamma)
    if args.grid < 2:
        raise CliConfigError("grid needs at least 2 points per axis")
    n = args.grid - 1
    axes = [[-1.0 + 2.0 * i / n for i in range(n + 1)]] * model.dim
    coords = ("x", "y") if model.dim == 2 else ("x", "y", "z")
    # Row-major over the grid: x varies slowest.
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    values = evaluate(model, args.quantity, *mesh).ravel()

    if args.format == "csv":
        # Each axis coordinate and each distinct value is formatted once,
        # not once per row: a grid repeats many of its values (0 and 1, the
        # mirror images of a symmetric model, and off the support values
        # that depend on one coordinate only).
        labels = [list(map(repr, axis)) for axis in axes]
        rows = zip(map(",".join, product(*labels)), _reprs(values))
        _emit(_csv(",".join(coords) + ",value", rows), args.out)
    else:
        records = [
            {**dict(zip(coords, point)), "value": value}
            for point, value in zip(product(*axes), values.tolist())
        ]
        _emit(json.dumps(records, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_sample(args: argparse.Namespace) -> int:
    model = model_from_name(args.model, args.gamma)
    batch = model.sample(args.n, args.seed)
    coords = ("x", "y") if model.dim == 2 else ("x", "y", "z")
    # Row by row from the batch's columns, since a C-order ravel would copy
    # the column-major batch.  strict=True runs every column's iterator to
    # its end, which frees that column's floats before the CSV is joined.
    rows = zip(*(map(repr, column.tolist()) for column in batch.points.T), strict=True)
    _emit(_csv(",".join(coords), rows), args.out)

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
    _emit(json.dumps(meta, indent=2) + "\n", args.out + ".meta.json")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # One VerifyConfig field per flag; the flags' defaults are the fields'.
    config = VerifyConfig(
        seed=args.seed, n_samples=args.n, rect_count=args.rects,
        abs_tol=args.abs_tol, tol_scale=args.tol_scale,
        include_timestamp=not args.no_timestamp,
    )
    report = verify_suite(config)
    _emit(report.to_json(), args.out)
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
