"""Summarise perfbench runs of a parent commit and of a change into one
``BENCH_<n>.json`` file, the repository's performance history.

Every perfbench run ends with two lines: ``meta {...}``, the run's metadata,
and ``{...}``, its result.  Collect those two lines of each run in one file
per side, runs of the two sides alternated in time, for example:

    (cd ../parent && python3 -m compileall -q src perfbench)
    python3 -m compileall -q src perfbench
    for seed in 1 2 3 4 5; do
        (cd ../parent && python3 perfbench/run.py --workload verify --seed $seed --seconds 15) | tail -n 2 >> parent.txt
        python3 perfbench/run.py --workload verify --seed $seed --seconds 15 | tail -n 2 >> change.txt
    done
    python3 tools/bench_history.py --parent parent.txt --change change.txt --out BENCH_$N.json

Compile the bytecode of each checkout before timing, as the first two lines
do.  Under ``PYTHONDONTWRITEBYTECODE=1`` a checkout whose ``__pycache__`` is
stale recompiles every edited module in each fresh interpreter, and that
cost lands in perfbench's ``setup_s`` and ``peak_rss_mb`` though no program
change caused it: on 2 shared CPUs, an edited but uncompiled tree read
grid-eval ``setup_s`` 0.253 s against 0.210 s, and 39.6 against 38.2 MB,
over 6 alternated pairs; compiled, the same code read 0.188 against 0.195 s.

The file holds, for each workload and side, the median of every metric over
the side's runs and each run's values in the order given, next to git HEAD
(and whether the tree differs from it), the line count of ``src/`` as
perfbench counts it, the Tier-1 wall time when ``--tier1-seconds`` gives it,
the Python and numpy versions, and the OpenBLAS core that numpy runs on, or
null where it cannot be read.  Timings are recorded here, not gated.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def read_runs(path: Path) -> dict[str, list[tuple[dict, dict]]]:
    """The (meta, result) pairs of a file of perfbench lines, by workload."""
    runs: dict[str, list[tuple[dict, dict]]] = {}
    meta = None
    for line in path.read_text().splitlines():
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        elif line.startswith("{"):
            if meta is None:
                raise SystemExit(f"{path}: a result line without its meta line")
            runs.setdefault(meta["workload"], []).append((meta, json.loads(line)))
            meta = None
    return runs


def summarise(pairs: list[tuple[dict, dict]]) -> dict:
    values: dict[str, list[float]] = {}
    for _, result in pairs:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {
        "runs": len(pairs),
        "seeds": [meta["seed"] for meta, _ in pairs],
        "all_correct": all(r["correct"] is True and r["failed"] == 0 for _, r in pairs),
        "median": {name: statistics.median(v) for name, v in values.items()},
        "values": values,
    }


def git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def blas_core() -> str | None:
    # The core that OpenBLAS picked for this CPU, from the library that the
    # numpy wheel bundles; null for another BLAS or another build.
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="perfbench lines of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="perfbench lines of the change")
    parser.add_argument("--tier1-seconds", type=float, help="wall time of the Tier-1 suite")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    sides = {"parent": read_runs(args.parent) if args.parent else {}, "change": read_runs(args.change)}
    workloads = sorted(set(sides["parent"]) | set(sides["change"]))
    head = git("rev-parse", "HEAD")
    doc = {
        "git_head": head,
        "git_dirty": None if head is None else bool(git("status", "--porcelain", "--untracked-files=no")),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
        "tier1_seconds": args.tier1_seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_core": blas_core(),
        "workloads": {
            w: {side: summarise(runs[w]) if w in runs else None for side, runs in sides.items()}
            for w in workloads
        },
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for w in workloads:
        for side in sides:
            if w in sides[side]:
                print(w, side, json.dumps(doc["workloads"][w][side]["median"]))


if __name__ == "__main__":
    main()
