"""Per-layer spans and work counters, recorded from outside the library.

`Tracer.install` replaces every public function of the layer modules
(and the validators of their dataclasses) with a timing wrapper.  The
modules bind imported names at import time (``from .cylinders import
cylinder``), so each wrapper is patched into every module, the package
namespace included, that holds the original object.  `uninstall` puts
the originals back.

Each call becomes a span (id, parent, name, start, end).  A span's self
time is its duration minus the durations of its direct child spans; a
layer's self time is the sum over its spans.  Spans are kept in memory
up to a cap and written out by `write_spans`; counters and self times
cover every span, kept or not.
"""

from __future__ import annotations

import gc
import importlib
import json
from collections import Counter
from time import perf_counter

LAYERS = (
    "sadic",
    "cylinders",
    "combos",
    "measure",
    "dimension",
    "normality",
    "acceptance",
    "cli",
)

# Functions whose time is booked under a sub-layer name instead of the
# module's own ``<layer>.self_s``.
_SELF_BUCKET = {
    "dimension.box_count_estimate": "dimension.box.self_s",
    "dimension.box_count_for_alphabet": "dimension.box.self_s",
}
_DIMENSION_DEFAULT = "dimension.solve.self_s"

# Spans whose whole duration (children included) is also booked.
_INCLUSIVE = {"cylinders.point_locate": "cylinders.locate.self_s"}


def _digit_count(d) -> int:
    return len(d.preperiod) + len(d.period or ())


def _den_bits(values: Counter, cyl) -> None:
    bits = max(cyl.inf.denominator.bit_length(), cyl.sup.denominator.bit_length())
    if bits > values["cylinders.den_bits_max"]:
        values["cylinders.den_bits_max"] = bits


def _tally_cylinder(values, args, kwargs, result):
    values["cylinders.hulls"] += 1
    _den_bits(values, result)


def _tally_box(values, args, kwargs, result):
    values["dimension.box.hulls"] += len(args[0])
    values["dimension.box.boxes"] += sum(n for _, n in result.counts)


def _tally_dispatch(values, args, kwargs, result):
    values["cli.dispatches"] += 1
    values["cli.out_bytes"] += len(result[1].encode())


# Work counters, keyed by the wrapped function's "<layer>.<name>".
_TALLIES = {
    "sadic.block_encode": lambda v, a, k, r: v.update({"sadic.digits": _digit_count(r)}),
    "sadic.block_decode": lambda v, a, k, r: v.update({"sadic.digits": _digit_count(a[0])}),
    "sadic.digits_to_rational": lambda v, a, k, r: v.update({"sadic.digits": _digit_count(a[0])}),
    "sadic.rational_to_digits": lambda v, a, k, r: v.update({"sadic.digits": _digit_count(r)}),
    "sadic.element_value": lambda v, a, k, r: v.update(
        {"sadic.digits": sum(a[0].blocks) + sum(a[0].tail or ())}
    ),
    "cylinders.cylinder": _tally_cylinder,
    "cylinders.point_locate": lambda v, a, k, r: v.update({"cylinders.locate.calls": 1}),
    "combos.enumerate_prefixes": lambda v, a, k, r: v.update({"combos.prefixes": len(r)}),
    "combos.audit_extrema": lambda v, a, k, r: v.update({"combos.prefixes": r}),
    "measure.cover_stage": lambda v, a, k, r: v.update(
        {"measure.stages": 1, "measure.hulls": len(r.intervals)}
    ),
    "dimension.moran_solve": lambda v, a, k, r: v.update({"dimension.solves": 1}),
    "dimension.box_count_estimate": _tally_box,
    "normality.digit_frequencies": lambda v, a, k, r: v.update({"normality.digits": r.k}),
    "normality.structural_identity_residual": lambda v, a, k, r: v.update(
        {"normality.digits": r.k}
    ),
    "cli.dispatch": _tally_dispatch,
}


class Tracer:
    """Span recorder; create one per traced run and pass it around."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.values: Counter = Counter()
        self._next_id = 0
        self._taken_id = 0
        self._stack: list[list] = []  # [span id, layer, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._gc_t0 = 0.0

    # -- spans -----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, inclusive_key: str | None = None, root: bool = False):
        """Return ``fn`` wrapped in a span named ``<layer>.<name>``; the
        whole duration of each call is also added to ``inclusive_key``.
        Unless ``root``, calls made outside any span (the benchmark's own
        rendering and checking) pass through unrecorded."""
        qual = f"{layer}.{name}"
        self_key = _SELF_BUCKET.get(qual) or (
            _DIMENSION_DEFAULT if layer == "dimension" else f"{layer}.self_s"
        )
        inclusive_key = inclusive_key or _INCLUSIVE.get(qual)
        tally = _TALLIES.get(qual)
        calls_key = f"{layer}.calls"
        errors_key = f"{layer}.errors"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack and not root:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent is None or parent[1] != layer:
                    tracer.values[errors_key] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                values = tracer.values
                values[self_key] += dur - frame[2]
                values[calls_key] += 1
                if inclusive_key is not None:
                    values[inclusive_key] += dur
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append(
                        (sid, parent[0] if parent else -1, qual, t0, t1)
                    )
                else:
                    tracer.dropped += 1
            if tally is not None:
                tally(tracer.values, args, kwargs, result)
            return result

        return traced

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span of the benchmark itself."""
        return self.wrap("bench", name, fn, root=True)(*args)

    # -- garbage collector -----------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        # Only collections that interrupt a workload op count.
        if not self._stack:
            return
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            self.values["runtime.gc_s"] += perf_counter() - self._gc_t0
            self.values["runtime.gc_collections"] += 1

    # -- patching ----------------------------------------------------------

    def install(self, package) -> None:
        """Patch every layer module of ``package`` (see module docstring)."""
        modules = {
            layer: importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS
        }
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    post = vars(obj).get("__post_init__")
                    if post is not None:
                        self._set(obj, "__post_init__", self.wrap(layer, f"{name}.__post_init__", post))
                elif callable(obj):
                    wrapped[id(obj)] = self.wrap(layer, name, obj)
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and callable(obj) and not isinstance(obj, type):
                    self._set(mod, name, wrapped[id(obj)])
        acceptance = modules["acceptance"]
        self._set(
            acceptance,
            "CRITERIA",
            tuple((name, self._row(name, fn)) for name, fn in acceptance.CRITERIA),
        )
        gc.callbacks.append(self._on_gc)

    def _row(self, name: str, fn):
        # run_all passes ``seed`` only to rows whose code names it, so the
        # row wrapper keeps that signature.
        span = self.wrap("acceptance", name, fn, f"acceptance.{name}.wall_s")
        if "seed" in fn.__code__.co_varnames:
            return lambda seed=0: span(seed)
        return lambda: span()

    def _set(self, obj, name: str, value) -> None:
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            obj, name, value = self._patches.pop()
            setattr(obj, name, value)

    # -- output ------------------------------------------------------------

    def take_values(self) -> Counter:
        """Counters and self times since the last call; resets them."""
        values, self.values = self.values, Counter()
        values["trace.spans"] = self._next_id - self._taken_id
        self._taken_id = self._next_id
        return values

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "name": name, "start": t0, "end": t1})
                    + "\n"
                )
            fh.write(json.dumps({"kept": len(self.spans), "dropped": self.dropped}) + "\n")
