"""Outside-in tracing of fujiki_oka, from the benchmark's own files.

A :class:`Tracer` swaps the package's public functions for wrappers while it
is installed and puts the originals back when it is removed.  Function-level
calls (``build_resolution``, ``validate_fan``, ...) each get a span: name,
start, end, parent span and the group type being worked on.  Per-call
helpers (``ProperFraction.remainder``, ``GroupType.contains``,
``GroupType.primitive``, ``det_int``) only bump counters, because a span per
call would swamp the run.

Self time is a span's duration minus the time covered by its child spans.
The package is single-threaded, so no call ever waits on another: wait time
is zero by construction and is not recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Functions that get a span per call, as (module, attribute).  The metric
#: name drops the ``fujiki_oka.`` prefix: ``fan.build_resolution``.
SPANNED = (
    ("fujiki_oka.cli", "main"),
    ("fujiki_oka.verify", "sweep"),
    ("fujiki_oka.verify", "measure_type"),
    ("fujiki_oka.verify", "check_identities"),
    ("fujiki_oka.fan", "resolution_report"),
    ("fujiki_oka.fan", "build_resolution"),
    ("fujiki_oka.polynomial", "expand"),
    ("fujiki_oka.fan", "validate_fan"),
    ("fujiki_oka.fan", "cone_multiplicity"),
)

#: Per-call helpers that are only counted, as (module, class or None, attribute, name).
COUNTED = (
    ("fujiki_oka.propfrac", "ProperFraction", "remainder", "propfrac.remainder"),
    ("fujiki_oka.fan", "GroupType", "contains", "fan.GroupType.contains"),
    ("fujiki_oka.fan", "GroupType", "primitive", "fan.GroupType.primitive"),
    ("fujiki_oka.fan", None, "det_int", "fan.det_int"),
)

#: Work counts taken from the arguments or result of a spanned call.
SIZES = {
    "polynomial.expand": ("terms",),
    "fan.build_resolution": ("nodes", "leaves", "rays"),
    "fan.validate_fan": ("cones", "cone_pairs"),
}

# at most this many spans are kept for the span file; the aggregates
# behind the metrics always cover every call
MAX_SPANS = 200_000


def metric_name(module: str, attr: str) -> str:
    """``fujiki_oka.fan``, ``build_resolution`` -> ``fan.build_resolution``."""
    return f"{module.removeprefix('fujiki_oka.')}.{attr}"


def _sizes(name: str, args: tuple, kwargs: dict, result) -> tuple[int, ...]:
    if name == "polynomial.expand":
        return (len(result),)
    if name == "fan.build_resolution":
        return (len(result.nodes), len(result.max_cones), len(result.rays))
    cones = len((args[0] if args else kwargs["fan"]).max_cones)
    return (cones, cones * (cones - 1) // 2)


def type_id(args: tuple) -> str | None:
    """The group type a call works on, as ``1/r(a1,...,an)``, if its first
    argument names one (a fan, a group type, a fraction or CLI arguments)."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, list) and "-r" in first and "-w" in first:
        return f"1/{first[first.index('-r') + 1]}({first[first.index('-w') + 1]})"
    frac = getattr(getattr(first, "group", first), "fraction", first)
    if hasattr(frac, "numerators") and hasattr(frac, "denominator"):
        return f"1/{frac.denominator}({','.join(map(str, frac.numerators))})"
    return None


class Tracer:
    """Spans and counters for calls into fujiki_oka while installed.

    Use as a context manager; the package must already be imported.
    """

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module, attr in SPANNED:
            original = getattr(importlib.import_module(module), attr)
            self._replace(original, self._spanned(metric_name(module, attr), original))
        for module, cls_name, attr, name in COUNTED:
            owner = importlib.import_module(module)
            if cls_name is None:
                original = getattr(owner, attr)
                self._replace(original, self._counted(name, original))
            else:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._counted(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, original, wrapper) -> None:
        # every module holding the function under any name calls through
        # its own global, so each binding is swapped
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fujiki_oka" or mod_name.startswith("fujiki_oka.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name: str, fn):
        counts = self.counts
        calls_key = f"{name}.calls"
        if name == "propfrac.remainder":
            useful_key = f"{name}.useful"

            @functools.wraps(fn)
            def remainder(frac, i):
                counts[calls_key] += 1
                image = fn(frac, i)
                # useful: a finite image other than the zero fraction over 1
                if getattr(image, "denominator", 1) != 1:
                    counts[useful_key] += 1
                return image

            return remainder

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[calls_key] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        sizes = SIZES.get(name, ())

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            tid = type_id(args) or (parent[3] if parent else None)
            # frame: start, time covered by children, span index, type id
            frame = [0.0, 0.0, -1, tid]
            if len(self.spans) < MAX_SPANS:
                frame[2] = len(self.spans)
                self.spans.append(None)
            else:
                self.dropped += 1
            stack.append(frame)
            failed = True
            frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = name == "cli.main" and result != 0
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if failed:
                    self.failed[name] += 1
                if parent is not None:
                    parent[1] += duration
                if frame[2] >= 0:
                    self.spans[frame[2]] = (
                        name_id, frame[0], end, parent[2] if parent else -1, tid
                    )
            if sizes:
                for key, value in zip(sizes, _sizes(name, args, kwargs, result)):
                    self.counts[f"{name}.{key}"] += value
            return result

        return spanned

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON: names plus one
        ``[name, start_s, end_s, parent, type]`` row per span.  A parent is
        an index into the rows, -1 for a top-level call."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start_s", "end_s", "parent", "type"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                },
                fh,
            )
