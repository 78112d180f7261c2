"""Compare the verify reports of two checkouts over many seeds.

Runs ``verify_suite`` for seeds 0..N-1 at two sizes, the default one and
perfbench's (``n_samples=50000``, ``rect_count=2500``), in each checkout,
one fresh interpreter per checkout and size, with that checkout's ``src`` on
``PYTHONPATH``.  For each row name it prints how many rows moved (a row
moved when its closed-form value, oracle value or gap changed in any bit),
how many have a larger gap than before, and the worst gap on each side.
Then it lists every (size, seed, row, model) that fails on one side only.
Run it from the change's checkout, with a copy of the parent commit next to
it:

    git archive <parent> | tar -x -C ../parent
    python3 tools/verify_sweep.py --parent ../parent

Every change that moves bytes of the verify report shows this sweep next
to its old and new report hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIZES = {"default": {}, "perfbench": {"n_samples": 50_000, "rect_count": 2_500}}

# Prints one line per seed: each row as [name, model, closed_form, oracle,
# abs_diff, passed], in report order.
WORKER = """
import json, sys
from ballcopulas import VerifyConfig, verify_suite
sizes = json.loads(sys.argv[1])
for seed in range(int(sys.argv[2])):
    report = verify_suite(VerifyConfig(seed=seed, include_timestamp=False, **sizes))
    rows = [[c.name, c.model, c.closed_form, c.oracle, c.abs_diff, c.passed] for c in report.checks]
    print(json.dumps(rows), flush=True)
"""


def start(checkout: Path, sizes: dict, seeds: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, json.dumps(sizes), str(seeds)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
    )


def collect(process: subprocess.Popen) -> list[list]:
    out, _ = process.communicate()
    if process.returncode != 0:
        raise SystemExit(f"verify_suite exited {process.returncode} in {process.args}")
    return [json.loads(line) for line in out.splitlines()]


def compare(runs: dict[str, dict[str, list]]) -> tuple[dict, list]:
    # Per row name: [rows, moved, grown, worst parent gap, worst change
    # gap]; and the rows that pass on one side only.
    table: dict[str, list] = {}
    flips = []
    for size in SIZES:
        parent, change = runs["parent"][size], runs["change"][size]
        for seed, (old_rows, new_rows) in enumerate(zip(parent, change)):
            if [r[:2] for r in old_rows] != [r[:2] for r in new_rows]:
                raise SystemExit(f"{size} seed {seed}: the two sides report different rows")
            for old, new in zip(old_rows, new_rows):
                entry = table.setdefault(old[0], [0, 0, 0, 0.0, 0.0])
                entry[0] += 1
                # repr tells every float apart, -0.0 and NaN included.
                entry[1] += repr(old[2:5]) != repr(new[2:5])
                entry[2] += new[4] > old[4]
                entry[3] = max(entry[3], old[4])
                entry[4] = max(entry[4], new[4])
                if old[5] != new[5]:
                    flips.append((size, seed, old[0], old[1], "newly passing" if new[5] else "newly failing"))
    return table, flips


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--seeds", type=int, default=64, help="sweep seeds 0 .. SEEDS - 1 (default 64)")
    args = parser.parse_args(argv)
    runs: dict[str, dict[str, list]] = {"parent": {}, "change": {}}
    for size, sizes in SIZES.items():
        # The two sides of one size run side by side, on two processes.
        started = {side: start(getattr(args, side).resolve(), sizes, args.seeds) for side in runs}
        for side, process in started.items():
            runs[side][size] = collect(process)
    table, flips = compare(runs)
    print(f"{'row':40} {'rows':>5} {'moved':>5} {'grown':>5} {'worst gap, parent':>18} {'worst gap, change':>18}")
    for name in sorted(table):
        rows, moved, grown, old, new = table[name]
        print(f"{name:40} {rows:5d} {moved:5d} {grown:5d} {old:18.3g} {new:18.3g}")
    fails = {side: sum(not r[5] for s in runs[side].values() for rows in s for r in rows) for side in runs}
    print(f"failing rows: parent {fails['parent']}, change {fails['change']}")
    for size, seed, name, model, what in flips:
        print(f"{what}: {size} seed {seed} {name} {model}")
    if not flips:
        print("no row fails on one side only")


if __name__ == "__main__":
    main()
