"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces the public functions of ``special_math``, ``copulas``
and ``oracle`` (the names in each module's ``__all__``), the model methods
``pdf``/``cdf``/``survival``/``sample`` and ``cli.main`` with timing
wrappers.  A function is patched under every module attribute bound to it
(``alpha`` is bound in ``special_math``, ``copulas``, ``oracle`` and the
package namespace), so calls through any of those names are seen.  Nothing
under ``src/`` is edited, and ``uninstall`` restores every original binding.

For each (function, parent) pair the tracer keeps the call count, busy time,
self time (busy time minus the time covered by wrapped children) and the
number of failed calls.  For the closed forms of ``copulas`` it also keeps,
per quantity (pdf, cdf, survival), the calls into them from outside and the
self time of every closed form under those calls, so that a method's
closed form, clamps and checks count as the quantity's time.  The benchmark
adds one span per op.  All of it is kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Leaf helpers called several times inside each kernel.  Wrapping them would
# multiply the traced cost of the kernels they serve, so they stay unwrapped
# and their time counts as their callers' self time.
UNWRAPPED = {"sigma", "clamped_arcsin"}

MODEL_CLASSES = ("CircularCopula", "SphericalCopula", "EllipticalCopula", "NonlinearDiskCopula")
MODEL_METHODS = ("pdf", "cdf", "survival", "sample")
QUANTITIES = ("pdf", "cdf", "survival")


class Tracer:
    def __init__(self) -> None:
        self.agg: dict[tuple[str, str], list] = {}
        self.counts: defaultdict[str, int] = defaultdict(int)
        # Per quantity (pdf, cdf, survival): calls into the copulas closed
        # forms and the self time of every closed form under them.
        self.quantities: defaultdict[str, list] = defaultdict(lambda: [0, 0.0])
        # One span per op: op index within the round, start, duration, failed.
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.span_failed = array("b")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def add_spans(self, ops, starts, durs, failed) -> None:
        self.span_op.extend(ops)
        self.span_start.extend(starts)
        self.span_dur.extend(durs)
        self.span_failed.extend(failed)

    def _wrap(self, name: str, fn, count=None, failed_result=None, quantity=None):
        """``quantity`` marks a closed form of ``copulas`` (a model's pdf,
        cdf or survival method, or a module-level form such as
        ``circular_cdf``).  A closed form called by another one belongs to
        the caller's quantity: ``CircularCopula.survival`` delegates to
        ``circular_survival``, which calls ``circular_cdf``, and all of that
        is survival time."""
        stack = self._stack
        agg = self.agg
        quantities = self.quantities
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1] if stack else None
            parent = top[0] if top else "-"
            entry = quantity is not None and (top is None or top[2] is None)
            frame = [name, 0.0, quantity if entry or quantity is None else top[2]]
            stack.append(frame)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = failed_result is not None and failed_result(result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                rec[3] += failed
                if frame[2] is not None:
                    q = quantities[frame[2]]
                    q[0] += entry
                    q[1] += dt - frame[1]
                if count is not None:
                    count(args)

        return wrapper

    def _counting_integrator(self, fn):
        # Counts integrand evaluations and the points they cover by wrapping
        # the ``f`` argument.
        counts = self.counts

        @functools.wraps(fn)
        def integrate_adaptive(f, *args, **kwargs):
            def counted(s):
                counts["oracle.integrate_adaptive.f_evals"] += 1
                counts["oracle.integrate_adaptive.f_points"] += getattr(s, "size", 1)
                return f(s)

            return fn(counted, *args, **kwargs)

        return integrate_adaptive

    def _count_sample_points(self, args) -> None:
        self.counts["copulas.sample.points"] += int(args[1])

    def install(self) -> None:
        """Patch the package; calls are traced until :meth:`uninstall`."""
        from ballcopulas import cli, copulas, oracle, special_math

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "ballcopulas"]
        targets = []
        for mod in (special_math, copulas, oracle):
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if (
                    callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__
                    and attr not in UNWRAPPED
                ):
                    targets.append((f"{short}.{attr}", fn))
        targets.append(("cli.main", cli.main))

        for name, fn in targets:
            if name == "oracle.integrate_adaptive":
                wrapper = self._wrap(name, self._counting_integrator(fn))
            elif name == "cli.main":
                wrapper = self._wrap(name, fn, failed_result=lambda rc: rc != 0)
            else:
                wrapper = self._wrap(name, fn, quantity=_quantity(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)

        for cls_name in MODEL_CLASSES:
            cls = getattr(copulas, cls_name)
            for meth in MODEL_METHODS:
                count = self._count_sample_points if meth == "sample" else None
                quantity = None if meth == "sample" else meth
                wrapper = self._wrap(f"copulas.{cls_name}.{meth}", vars(cls)[meth], count, quantity=quantity)
                self._patch(cls, meth, wrapper)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def totals(self, names) -> tuple[int, float, int]:
        """Calls, self time and failures of ``names``, summed over every
        parent."""
        names = set(names)
        calls = failed = 0
        self_s = 0.0
        for (name, _), rec in self.agg.items():
            if name in names:
                calls += rec[0]
                self_s += rec[2]
                failed += rec[3]
        return calls, self_s, failed

    def save_spans(self, path) -> None:
        spans = np.zeros(len(self.span_op), dtype=[("op", "i4"), ("start_s", "f8"), ("duration_s", "f8"), ("failed", "i1")])
        spans["op"], spans["start_s"] = self.span_op, self.span_start
        spans["duration_s"], spans["failed"] = self.span_dur, self.span_failed
        np.save(path, spans)

    def table(self) -> list[dict]:
        return [
            {"function": name, "parent": parent, "calls": r[0], "busy_s": r[1], "self_s": r[2], "failed": r[3]}
            for (name, parent), r in sorted(self.agg.items())
        ]


def method_names(meth: str) -> list[str]:
    """Traced names of one model method across the four model classes."""
    return [f"copulas.{cls}.{meth}" for cls in MODEL_CLASSES]


def _quantity(name: str) -> str | None:
    """The quantity of a module-level closed form of ``copulas``, such as
    ``copulas.circular_cdf``; None for any other function."""
    module, _, attr = name.partition(".")
    if module == "copulas":
        for quantity in QUANTITIES:
            if attr.endswith(f"_{quantity}"):
                return quantity
    return None
