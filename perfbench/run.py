"""Benchmark of the ballcopulas package, end to end and layer by layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload grid-eval --seed 1 --seconds 34 --trace 0

Workloads (see perfbench/design.json for why each was chosen):

    grid-eval      ballcop eval to CSV on dense regular grids
    verify         ballcop verify at a quarter of the default sizes
    point-queries  single-point pdf/cdf/survival calls on the model objects

The benchmark is one process with one thread.  It drives the package's
public entry points in-process (``ballcopulas.cli.main`` and the model
methods) from ``src/``, makes its inputs from ``--seed``, repeats rounds of
identical work for ``--seconds`` seconds and checks every output outside the
timed region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it carries the run metadata.  A JSON record of the run (and,
when traced, the per-op spans) is written under ``perfbench/out/``.

A traced run alternates untraced and traced rounds; the traced rounds give
the per-layer metrics and the ratio of the two gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set before numpy is imported, here and in the set-up probes, which inherit
# the environment.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}:\n{err}")
    return elapsed


def _setup(workload: str, seed: int):
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, OUT / "work" / workload)
    wl.warm_up()
    return wl


def _measure(wl, seconds: float, tracer) -> None:
    """Run whole rounds until ``seconds`` have passed.  With a tracer,
    untraced and traced rounds alternate."""
    deadline = time.perf_counter() + seconds
    while True:
        wl.run_round()
        if tracer is not None:
            tracer.install()
            try:
                wl.run_round(tracer)
            finally:
                tracer.uninstall()
        if time.perf_counter() >= deadline:
            return


def _metadata(args) -> dict:
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30).stdout.strip()

    head = dirty = None
    if (ROOT / ".git").exists():
        head = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_head": head,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _end_to_end(plain, setup_s: float, peak_rss_mb: float) -> dict:
    p50, p99 = plain.latency()
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (plain.items_per_s(), "1/s"),
        "op_ms_p50": (p50 * 1e3, "ms"),
        "op_ms_p99": (p99 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(plain, traced, tracer) -> dict:
    from tracer import QUANTITIES, method_names

    rounds = traced.rounds
    metrics = {}

    def layer(metric: str, names, fields=("calls", "self_s")):
        calls, self_s, failed = tracer.totals(names)
        values = {"calls": (calls, "count/round"), "self_s": (self_s, "s/round"), "failed": (failed, "count/round")}
        for field in fields:
            value, unit = values[field]
            metrics[f"{metric}.{field}"] = (value / rounds, unit)

    for fn in ("alpha", "alpha_gamma", "delta3"):
        layer(f"special_math.{fn}", [f"special_math.{fn}"])
    for quantity in QUANTITIES:
        calls, self_s = tracer.quantities[quantity]
        metrics[f"copulas.{quantity}.calls"] = (calls / rounds, "count/round")
        metrics[f"copulas.{quantity}.self_s"] = (self_s / rounds, "s/round")
    layer("copulas.cdf_volume", ["copulas.cdf_volume"])
    metrics["copulas.sample.points"] = (tracer.counts["copulas.sample.points"] / rounds, "count/round")
    layer("copulas.sample", method_names("sample"), ("self_s",))
    layer("oracle.integrate_adaptive", ["oracle.integrate_adaptive"])
    for count in ("f_evals", "f_points"):
        metrics[f"oracle.integrate_adaptive.{count}"] = (tracer.counts[f"oracle.integrate_adaptive.{count}"] / rounds, "count/round")
    for fn in ("mc_cdf", "ks_uniform", "moment_check", "verify_suite"):
        layer(f"oracle.{fn}", [f"oracle.{fn}"], ("self_s",))
    layer("cli.main", ["cli.main"], ("calls", "self_s", "failed"))
    metrics["cli.bytes_out"] = (traced.bytes_out / rounds, "B/round")
    metrics["trace_overhead_frac"] = (traced.round_s() / plain.round_s() - 1.0, "frac")
    metrics["fail_frac"] = ((plain.failed + traced.failed) / (plain.attempted + traced.attempted), "frac")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid-eval", "verify", "point-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ballcopulas" / "__init__.py").is_file():
        print(f"error: no ballcopulas package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    # Set-up time is the 90th percentile of several fresh interpreters, like
    # the CLI ops (see workloads.Summary): a verify set-up lasts about a
    # second and finds the host's fast mode in some runs only.  Half of them
    # start before the timed loop and half after it.
    probes = []
    if not args.trace:
        probes += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]

    import ballcopulas

    if Path(ballcopulas.__file__).resolve().parent != SRC / "ballcopulas":
        raise RuntimeError(f"imported ballcopulas from {ballcopulas.__file__}, not from {SRC}")
    wl = _setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    _measure(wl, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = wl.finish()
    if not args.trace:
        probes += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - len(probes))]

    plain, traced = wl.summary(traced=False), wl.summary(traced=True)
    if args.trace:
        metrics = _per_layer(plain, traced, tracer)
    else:
        from workloads import p90

        metrics = _end_to_end(plain, p90(probes), peak_rss_mb)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    problems = {label: c["problems"] for label, c in checks.items() if c.get("problems")}
    meta = _metadata(args)

    metric_doc = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": meta,
        "metrics": metric_doc,
        "rounds": {"untraced": plain.rounds, "traced": traced.rounds},
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "unit_seconds": {"untraced": plain.unit_seconds(), "traced": traced.unit_seconds()},
        "setup_probes_s": probes,
    }
    if tracer is not None:
        record["trace"] = {"functions": tracer.table(), "counts": dict(tracer.counts)}
        tracer.save_spans(OUT / f"spans-{args.workload}.npy")
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    if problems:
        print("problems " + json.dumps(problems), file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metric_doc}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
