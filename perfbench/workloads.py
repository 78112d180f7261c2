"""The three benchmark workloads.

Each workload is a closed loop with one caller: the next op is issued only
when the previous one returns.  A *round* is one pass over the workload's
ops on the same inputs, so every round does identical work.  Every op runs
under a catch-all: an exception of any type, a nonzero exit code or a failed
output check counts as a failed op, and the run goes on.  Outputs are
checked after the timed loop, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ballcopulas import cli, copulas, oracle

ORACLE_ROWS = 120
ORACLE_TOL = 1e-8

# The seed of every verify op: the one the README documents, on which the
# default suite passes.  The suite's KS checks are tests at the 1% level, so
# an arbitrary seed fails one now and then by chance, and a failing seed
# would fail every round of a run.  The workload seed is therefore not
# passed on.
VERIFY_SEED = 20260810


def p90(values: list[float]) -> float:
    return float(np.percentile(values, 90))


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _failure_text() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


class Summary:
    """Totals of a set of rounds, and one time per repeated unit.

    A unit is one op of a CLI workload, or one chunk of CHUNK consecutive
    calls of point-queries.  On a shared 2-vCPU virtual machine a unit runs
    in one of two modes that follow the neighbours' load: a fast one, and
    one 1.6-2x slower that is the usual state.  Most runs meet both, in
    phases from under a second to minutes, and some meet only the slow mode
    for the whole run.  A unit's best repetition, as timeit takes it, finds
    the fast mode in a run that meets it; its median follows the mix of the
    two modes.  The chunks of point-queries (about 15 ms) found the fast
    mode in every run measured, so that workload takes the best chunk.  The
    CLI ops (1-250 ms) and verify suites (1.3-3 s) missed it in some runs,
    so those workloads take each unit's 90th percentile: its time in the
    slow mode, which every run meets.
    """

    def __init__(self, statistic) -> None:
        self.statistic = statistic
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0
        self.reps: dict[int, list[list]] = {}  # unit -> [[seconds, items, ok], ...]
        self.chunk_p50: list[float] = []  # per chunk (point-queries)
        self.chunk_p99: list[float] = []

    def add(self, unit: int, seconds: float, items: int, ok: bool) -> None:
        self.reps.setdefault(unit, []).append([seconds, items, ok])

    def round_s(self) -> float:
        """A round's time, every unit at its statistic over the repetitions."""
        return sum(self.statistic([r[0] for r in reps]) for reps in self.reps.values())

    def items_per_s(self) -> float:
        items = sum(statistics.fmean(r[1] for r in reps) for reps in self.reps.values())
        return items / self.round_s()

    def latency(self) -> tuple[float, float]:
        """Median and 99th percentile of one successful op, in seconds: per
        chunk, at the statistic over the chunks, for point-queries; over
        each op's statistic of its successful repetitions for the CLI
        workloads (of all repetitions if none succeeded)."""
        stat = self.statistic
        if self.chunk_p50:
            return stat(self.chunk_p50), stat(self.chunk_p99)
        ok = [stat([r[0] for r in reps if r[2]]) for reps in self.reps.values() if any(r[2] for r in reps)]
        p50, p99 = np.percentile(ok or [stat([r[0] for r in reps]) for reps in self.reps.values()], [50, 99])
        return float(p50), float(p99)

    def unit_seconds(self) -> dict[int, list[float]]:
        """Every repetition's time, per unit, for the run record."""
        return {unit: [r[0] for r in reps] for unit, reps in self.reps.items()}


# ---------------------------------------------------------------------------
# workloads driven through ballcopulas.cli.main
# ---------------------------------------------------------------------------


class CliOp:
    """One ``ballcop`` invocation, and the same one at reduced size for the
    warm-up."""

    def __init__(self, label: str, argv: list[str], warmup: list[str], out: Path, items: int):
        self.label = label
        self.argv = argv + ["--out", str(out)]
        self.warmup = warmup + ["--out", str(out)]
        self.out = out
        self.items = items


@dataclass(slots=True)
class Attempt:
    round: int
    traced: bool
    op: int
    seconds: float
    error: str | None
    digest: str | None
    bytes_out: int


class CliWorkload:
    """Ops are ``ballcop`` invocations run in-process through ``cli.main``."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        workdir.mkdir(parents=True, exist_ok=True)
        self.ops: list[CliOp] = []
        self.attempts: list[Attempt] = []
        self.rounds = 0

    def run_cli(self, argv: list[str]) -> str | None:
        """Run one invocation; return None on success, else the reason."""
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc = cli.main(argv)
        except (Exception, SystemExit):
            return _failure_text()
        if rc != 0:
            return f"exit code {rc}"
        return None

    def check(self, op: CliOp) -> list[str]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed pass over the ops at reduced size; failures ignored."""
        for op in self.ops:
            self.run_cli(op.warmup)

    def run_round(self, tracer=None) -> None:
        for index, op in enumerate(self.ops):
            op.out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            error = self.run_cli(op.argv)
            seconds = time.perf_counter() - t0
            digest, size = self._digest(op) if error is None else (None, 0)
            self.attempts.append(Attempt(self.rounds, tracer is not None, index, seconds, error, digest, size))
            if tracer is not None:
                tracer.add_spans([index], [t0], [seconds], [error is not None])
        self.rounds += 1

    @staticmethod
    def _digest(op: CliOp) -> tuple[str | None, int]:
        if not op.out.exists():
            return None, 0
        data = op.out.read_bytes()
        return hashlib.sha256(data).hexdigest(), len(data)

    def finish(self) -> dict:
        """Check the outputs; an attempt whose output is wrong, or differs
        from a rerun of the same op, becomes a failed attempt."""
        report = {}
        for index, op in enumerate(self.ops):
            mine = [a for a in self.attempts if a.op == index]
            ok = [a for a in mine if a.error is None]
            entry = {"attempts": len(mine), "ok": len(ok)}
            errors = sorted({a.error for a in mine if a.error})
            if errors:
                entry["errors"] = errors
            if ok:
                if len(ok) < 2:
                    # One more untimed run, so that determinism is always checked.
                    rerun = self.run_cli(op.argv)
                    ok.append(Attempt(-1, False, index, 0.0, rerun, self._digest(op)[0], 0))
                final = self._digest(op)[0]
                try:
                    problems = self.check(op) if final else ["output missing"]
                except Exception:
                    problems = [_failure_text()]
                if any(a.digest != final or a.error for a in ok):
                    problems.append("output differs between runs of the same op")
                entry["sha256"] = final
                entry["problems"] = problems
                if problems:
                    for a in ok:
                        a.error = a.error or "output check failed"
            report[op.label] = entry
        return report

    def summary(self, traced: bool) -> Summary:
        s = Summary(p90)
        s.rounds = len({a.round for a in self.attempts if a.traced == traced})
        for a in self.attempts:
            if a.traced == traced:
                ok = not a.error
                s.add(a.op, a.seconds, self.ops[a.op].items if ok else 0, ok)
                s.attempted += 1
                s.failed += not ok
                s.bytes_out += a.bytes_out
        return s


def _read_csv(path: Path, header: str) -> np.ndarray:
    lines = path.read_text().split("\n")
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}, expected {header!r}")
    if lines[-1] != "":
        raise ValueError("missing final newline")
    body = lines[1:-1]
    ncols = header.count(",") + 1
    return np.array(",".join(body).split(","), dtype=float).reshape(len(body), ncols)


# --- independent oracles built from the package's quadrature ------------


def _circular_survival_oracle(x: float, y: float) -> float:
    """P[X > x, Y > y] of the circular model by quad_survival_circular,
    reflected into the first quadrant through the symmetry X -> -X."""
    if x < 0.0:
        return (1.0 - y) / 2.0 - _circular_survival_oracle(-x, y)
    if y < 0.0:
        return (1.0 - x) / 2.0 - _circular_survival_oracle(x, -y)
    if x * x + y * y >= 1.0:
        return 0.0
    return oracle.quad_survival_circular(x, y)


def _spherical_survival_oracle(x: float, y: float, z: float) -> float:
    """P[X > x, Y > y, Z > z] of the spherical model by
    quad_survival_spherical, reflected into the first octant.  Each pair of
    coordinates of the sphere follows the circular model."""
    if x < 0.0:
        return _circular_survival_oracle(y, z) - _spherical_survival_oracle(-x, y, z)
    if y < 0.0:
        return _circular_survival_oracle(x, z) - _spherical_survival_oracle(x, -y, z)
    if z < 0.0:
        return _circular_survival_oracle(x, y) - _spherical_survival_oracle(x, y, -z)
    if x * x + y * y + z * z >= 1.0:
        return 0.0
    return oracle.quad_survival_spherical(x, y, z)


def _circular_cdf_oracle(x: float, y: float) -> float:
    return (x + y) / 2.0 + _circular_survival_oracle(x, y)


def _elliptical_cdf_oracle(gamma: float):
    """Mass of [-1, u] x [-1, v] by quad_mass_2d, summed over strips.

    The outer integrand of quad_mass_2d has kinks where the edge v = const
    meets the support ellipse, at s = v*sin(g) +- cos(g)*sqrt(1 - v^2), and
    where the bottom edge touches it, at s = -sin(g).  The adaptive rule
    converges falsely across a kink (by up to 1.3e-5 on the 401 grid at
    g = -pi/8), so the strip [-1, u] is cut there and each piece integrated
    on its own.
    """
    model = copulas.EllipticalCopula(gamma)
    sg, cg = math.sin(gamma), math.cos(gamma)

    def cdf(u: float, v: float) -> float:
        root = cg * math.sqrt(max(1.0 - v * v, 0.0))
        kinks = sorted(k for k in (v * sg - root, v * sg + root, -sg) if -1.0 < k < u)
        edges = [-1.0, *kinks, u]
        return sum(
            oracle.quad_mass_2d(model, copulas.Rectangle((lo, -1.0), (hi, v)))
            for lo, hi in zip(edges, edges[1:])
        )

    return cdf


def _mass_below(model):
    return lambda x, y: oracle.quad_mass_2d(model, copulas.Rectangle((-1.0, -1.0), (x, y)))


def _mass_above(model):
    return lambda x, y: oracle.quad_mass_2d(model, copulas.Rectangle((x, y), (1.0, 1.0)))


def _survival_from_cdf(cdf):
    # Inclusion-exclusion with uniform[-1, 1] marginals.
    return lambda u, v: 1.0 - (u + 1.0) / 2.0 - (v + 1.0) / 2.0 + cdf(u, v)


def _sheared_pdf(gamma: float):
    # The elliptical pair is (X, X*sin(g) + Y*cos(g)) with (X, Y) circular,
    # so its density is the circular density at the unsheared point divided
    # by the Jacobian cos(g).
    sg, cg = math.sin(gamma), math.cos(gamma)

    def pdf(u: float, v: float) -> float:
        y = (v - u * sg) / cg
        return copulas.circular_pdf(u, y) / cg if abs(y) <= 1.0 else 0.0

    return pdf


# --- grid-eval ----------------------------------------------------------


class GridEval(CliWorkload):
    """``ballcop eval`` to CSV on the dense regular grids plotting users run."""

    name = "grid-eval"
    # label, model flags, quantity, points per axis, oracle
    SPECS = [
        ("circular-cdf-101", ["--model", "circular"], "cdf", 101, _circular_cdf_oracle),
        ("elliptical-pi/4-pdf-101", ["--model", "elliptical", "--gamma", "pi/4"], "pdf", 101, _sheared_pdf(math.pi / 4)),
        ("elliptical--pi/8-cdf-101", ["--model", "elliptical", "--gamma=-pi/8"], "cdf", 101, _elliptical_cdf_oracle(-math.pi / 8)),
        ("nonlinear-survival-101", ["--model", "nonlinear"], "survival", 101, _mass_above(copulas.NonlinearDiskCopula())),
        ("spherical-survival-21", ["--model", "spherical"], "survival", 21, _spherical_survival_oracle),
        # ROADMAP defect D1: raises ZeroDivisionError at the corner (-1, -1).
        ("elliptical-1.5707963-cdf-101", ["--model", "elliptical", "--gamma", "1.5707963"], "cdf", 101, _elliptical_cdf_oracle(1.5707963)),
    ]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.specs = {}
        for i, (label, flags, quantity, n, ref) in enumerate(self.SPECS):
            dim = 3 if "spherical" in flags else 2
            argv = ["eval", *flags, "--quantity", quantity, "--grid"]
            self.ops.append(CliOp(label, argv + [str(n)], argv + ["5"], workdir / f"op{i}.csv", n**dim))
            self.specs[label] = (i, quantity, n, dim, ref)

    def check(self, op: CliOp) -> list[str]:
        index, quantity, n, dim, ref = self.specs[op.label]
        rows = _read_csv(op.out, "x,y,value" if dim == 2 else "x,y,z,value")
        if rows.shape[0] != op.items:
            return [f"{rows.shape[0]} rows, expected {op.items}"]
        problems = []
        axis = np.linspace(-1.0, 1.0, n)
        grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        if np.max(np.abs(rows[:, :-1] - grid)) > 1e-15:
            problems.append("coordinates are not the regular grid in row order")
        values = rows[:, -1]
        if not np.all(np.isfinite(values)):
            problems.append("non-finite values")
        elif quantity == "pdf" and np.min(values) < 0.0:
            problems.append("negative density")
        elif quantity != "pdf" and (np.min(values) < 0.0 or np.max(values) > 1.0):
            problems.append("probability outside [0, 1]")
        rng = np.random.Generator(np.random.PCG64(derived_seed(self.seed, 100 + index)))
        worst = 0.0
        for i in rng.choice(rows.shape[0], ORACLE_ROWS, replace=False):
            expected = ref(*(float(t) for t in rows[i, :-1]))
            scale = max(1.0, abs(expected)) if quantity == "pdf" else 1.0
            worst = max(worst, abs(rows[i, -1] - expected) / scale)
        if worst > ORACLE_TOL:
            problems.append(f"oracle mismatch {worst:.3g} > {ORACLE_TOL}")
        return problems


# --- verify ---------------------------------------------------------------


class Verify(CliWorkload):
    """``ballcop verify``: the trust path."""

    name = "verify"
    # A quarter of the default samples and rectangles per model: 1.3-2 s per
    # suite instead of about 3 s, so a run holds more suites.  The 41^3
    # spherical CDF grid and every check of the default suite stay.
    SIZES = ["--n", "50000", "--rects", "2500"]

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        argv = ["verify", "--seed", str(VERIFY_SEED), "--no-timestamp"]
        self.ops.append(
            CliOp("verify", argv + self.SIZES, argv + ["--n", "5000", "--rects", "1"], workdir / "report.json", 1)
        )

    def check(self, op: CliOp) -> list[str]:
        report = json.loads(op.out.read_text())
        if report.get("global_pass") is not True or not report.get("checks"):
            return ["report does not pass"]
        return []


# ---------------------------------------------------------------------------
# point-queries: scalar library calls
# ---------------------------------------------------------------------------


class PointQueries:
    """Single-point ``pdf``/``cdf``/``survival`` calls cycling through the
    four models, each call timed on its own."""

    name = "point-queries"
    N = 200_000
    # Latency percentiles and throughput are taken per chunk of calls (50
    # calls lie beyond each chunk's 99th percentile), so that a short quiet
    # spell of the host is enough for a best chunk.
    CHUNK = 5_000
    BITWISE_SUBSET = 2000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.models = [
            copulas.CircularCopula(),
            copulas.SphericalCopula(),
            copulas.EllipticalCopula(math.pi / 8),
            copulas.NonlinearDiskCopula(),
        ]
        # The spherical model has no density, so it takes cdf and survival only.
        self.combos = [(m, q) for m in self.models for q in ("pdf", "cdf", "survival") if not (m.dim == 3 and q == "pdf")]
        rng = np.random.Generator(np.random.PCG64(derived_seed(seed, 0)))
        x, y, z = (column.tolist() for column in rng.uniform(-1.0, 1.0, (3, self.N)))
        self.kinds = np.arange(self.N) % len(self.combos)
        self.kind_list = self.kinds.tolist()
        dims = [m.dim for m, _ in self.combos]
        self.args = [(x[i], y[i], z[i]) if dims[k] == 3 else (x[i], y[i]) for i, k in enumerate(self.kind_list)]
        self.is_pdf = np.isin(self.kinds, [k for k, (_, q) in enumerate(self.combos) if q == "pdf"])
        self.lat = array("d", bytes(8 * self.N))
        self.starts = array("d", bytes(8 * self.N))
        self.results: list = [None] * self.N
        self.raised = bytearray(self.N)
        self.first_values: np.ndarray | None = None
        self.first_ok: np.ndarray | None = None
        self.summaries = {False: Summary(min), True: Summary(min)}

    def warm_up(self) -> None:
        """One untimed call of each kind; failures ignored."""
        for (m, q), args in zip(self.combos, self.args):
            try:
                getattr(m, q)(*args)
            except (Exception, SystemExit):
                pass

    def run_round(self, tracer=None) -> None:
        # Bound per round, so that methods patched by the tracer apply.
        methods = [getattr(m, q) for m, q in self.combos]
        lat, starts, results, raised = self.lat, self.starts, self.results, self.raised
        clock = time.perf_counter
        for i, (k, args) in enumerate(zip(self.kind_list, self.args)):
            fn = methods[k]
            t0 = clock()
            try:
                v = fn(*args)
            except (Exception, SystemExit):
                v = math.nan
                raised[i] = 1
            lat[i] = clock() - t0
            starts[i] = t0
            results[i] = v
        self._close_round(tracer)

    def _close_round(self, tracer) -> None:
        try:
            values = np.array(self.results, dtype=float)
        except (TypeError, ValueError):
            values = np.array([v if isinstance(v, float) else math.nan for v in self.results])
        ok = np.frombuffer(self.raised, dtype=np.uint8) == 0
        ok &= np.isfinite(values) & (values >= 0.0) & (self.is_pdf | (values <= 1.0))
        if self.first_values is None:
            self.first_values = values
            self.first_ok = ok.copy()
        else:
            ok &= values == self.first_values
        lat = np.frombuffer(self.lat)
        s = self.summaries[tracer is not None]
        s.rounds += 1
        s.attempted += self.N
        s.failed += int(self.N - ok.sum())
        for lo in range(0, self.N, self.CHUNK):
            chunk = slice(lo, lo + self.CHUNK)
            good = ok[chunk]
            s.add(0, float(lat[chunk].sum()), int(good.sum()), bool(good.any()))
            if good.any():
                p50, p99 = np.percentile(lat[chunk][good], [50, 99])
                s.chunk_p50.append(float(p50))
                s.chunk_p99.append(float(p99))
        if tracer is not None:
            tracer.add_spans(self.kinds.astype(np.int32), np.frombuffer(self.starts), lat, (~ok).astype(np.int8))
        self.raised[:] = bytes(self.N)

    def _oracles(self) -> dict:
        """Independent oracles for the (model, quantity) pairs that have one."""
        ell_cdf = _elliptical_cdf_oracle(math.pi / 8)
        nonlinear = copulas.NonlinearDiskCopula()
        return {
            ("circular", "cdf"): _circular_cdf_oracle,
            ("circular", "survival"): _circular_survival_oracle,
            ("spherical", "cdf"): lambda x, y, z: _spherical_survival_oracle(-x, -y, -z),
            ("spherical", "survival"): _spherical_survival_oracle,
            ("elliptical", "pdf"): _sheared_pdf(math.pi / 8),
            ("elliptical", "cdf"): ell_cdf,
            ("elliptical", "survival"): _survival_from_cdf(ell_cdf),
            ("nonlinear", "cdf"): _mass_below(nonlinear),
            ("nonlinear", "survival"): _mass_above(nonlinear),
        }

    def finish(self) -> dict:
        """Compare a seeded subset of each query kind with its oracle, and
        check circular_survival(x, y) == circular_cdf(-x, -y) bit for bit on
        a seeded subset of the circular survival queries."""
        rng = np.random.Generator(np.random.PCG64(derived_seed(self.seed, 1)))
        oracles = self._oracles()
        report = {}
        wrong = set()
        for k, (m, q) in enumerate(self.combos):
            ref = oracles.get((m.name, q))
            if ref is None:
                continue
            worst = 0.0
            for i in rng.choice(np.flatnonzero(self.kinds == k), ORACLE_ROWS, replace=False).tolist():
                expected = ref(*self.args[i])
                scale = max(1.0, abs(expected)) if q == "pdf" else 1.0
                error = abs(self.first_values[i] - expected) / scale
                worst = max(worst, error)
                if not error <= ORACLE_TOL:
                    wrong.add(i)
            problems = [f"oracle mismatch {worst:.3g} > {ORACLE_TOL}"] if not worst <= ORACLE_TOL else []
            report[f"{m.describe()}-{q}"] = {"oracle_rows": ORACLE_ROWS, "worst": worst, "problems": problems}

        k_surv = self.combos.index((self.models[0], "survival"))
        mismatches = 0
        for i in rng.choice(np.flatnonzero(self.kinds == k_surv), self.BITWISE_SUBSET, replace=False).tolist():
            x, y = self.args[i]
            s = copulas.circular_survival(x, y)
            if not (s == copulas.circular_cdf(-x, -y) == self.first_values[i]):
                wrong.add(i)
                mismatches += 1
        problems = [f"{mismatches} circular survival values break the reflection identity"] if mismatches else []
        report["circular-survival-reflection"] = {"rows": self.BITWISE_SUBSET, "problems": problems}

        # Each wrong value was returned once per round, in its chunk.  A
        # value that failed the range checks was already counted then.
        wrong = {i for i in wrong if self.first_ok[i]}
        chunks = -(-self.N // self.CHUNK)
        wrong_per_chunk = Counter(i // self.CHUNK for i in wrong)
        for summary in self.summaries.values():
            summary.failed += len(wrong) * summary.rounds
            for j, rep in enumerate(summary.reps.get(0, [])):
                rep[1] -= wrong_per_chunk[j % chunks]
        return report

    def summary(self, traced: bool) -> Summary:
        return self.summaries[traced]


WORKLOADS = {w.name: w for w in (GridEval, Verify, PointQueries)}
