"""Benchmark runner for fujiki-oka.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all                # every workload, one table

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, never from an installed copy.

Each workload is a closed-loop batch job, one thread, one pass at a time.
The seed fixes the inputs of a run; every pass runs all of them in a fresh
interpreter, checks the outputs and reports how long each operation took,
and passes repeat until ``--seconds`` is used up.  A fresh interpreter per
pass means no cache kept by the program carries from one pass to the next,
just as none carries between two invocations of the command line.  Timings
are per-operation medians across passes, which keeps a few slow passes on a
shared machine from moving the result.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the passes run under
:class:`tracer.Tracer` and the object holds the per-layer metrics instead.
The exit code is 1 when any output is wrong.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINS = BENCH / "pins.json"

DEFAULT_SEED = 1
#: coverage samples per validate_fan call, as criterion 09 and ``verify`` use
SAMPLES = 1000
#: a pass or a set-up that takes longer than this is a hang (they take about
#: 5 s and 0.3 s; a run must end within 180 s even when its last ones hang)
PASS_TIMEOUT_S = 100
SETUP_TIMEOUT_S = 15
#: time of the reference loop at the speed timings are scaled to (about its
#: time on an uncontended core of the 2-core machine the benchmark was
#: written on), how often it runs, and how far from an operation a probe
#: may lie and still describe it
REFERENCE_S = 0.0007
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.25
#: the program slows more than the reference loop when the host is busy:
#: raised to this power, the ratio of reference times matched the program's
#: slowdowns best over five runs of each workload (1.0 on verify_large, about
#: 1.2 on sweep, 1.3 or more on validate_many, whose many small numpy
#: allocations suffer most)
SLOWDOWN_EXPONENT = 1.2
#: interpreters that only set up, run before each pass (see run_passes)
SETUP_EXTRA = 2

# Inputs.  Runs with different seeds must do the same amount of work, or the
# seed would show in the timings as spread.  So a seed picks only among
# alternatives that cost the same on the seed code, and picks the
# validate_fan sampling seed; the alternatives are fixed here.

#: sweep: one seed-chosen n=2 order (at most 79 types; the choice moves a
#: pass's work by about 0.1%), then fixed n=3 and n=4 orders.  Any two n=3
#: orders of about this size differ in work by several percent, so they are
#: not drawn.
SWEEP_N2 = tuple(range(31, 41))
SWEEP_N3 = (18, 22)
SWEEP_N4 = 7

#: validate_many: every 3D type of these orders and every 4D type of order 4,
#: in a seed-shuffled order.  The mix of fan sizes is the point of this
#: workload (per-type times are its metric), so it does not vary by seed.
VALIDATE_ORDERS = ((3, 9), (3, 10), (3, 11), (4, 4))

#: verify_large: one weight order of 1/401(1,2,398) and one of
#: 1/101(1,2,3,95).  Every order gives a fan of the same size (401 and 233
#: cones), but the face check's fast path tries facet normals in coordinate
#: order, so its work differs by up to 15% between orders.  These are orders
#: whose face checks take the same number of dot products, within 0.2% (3D)
#: and 0.5% (4D).
VERIFY_3D = (401, ((2, 398, 1), (398, 2, 1)))
VERIFY_4D = (101, ((1, 2, 3, 95), (1, 3, 2, 95), (2, 1, 3, 95),
                   (2, 95, 1, 3), (95, 2, 3, 1), (3, 1, 2, 95)))


def type_count(dim: int, r: int) -> int:
    """Weight tuples in [0, r)^dim with some entry 1: the types of one order."""
    return r**dim - (r - 1) ** dim


def all_weights(dim: int, r: int):
    for weights in product(range(r), repeat=dim):
        if 1 in weights:
            yield weights


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of every pass of a run; they depend only on workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return {"orders": [(2, rng.choice(SWEEP_N2)), *((3, r) for r in SWEEP_N3), (4, SWEEP_N4)]}
    if workload == "verify_large":
        return {"types": [(r, rng.choice(orders)) for r, orders in (VERIFY_3D, VERIFY_4D)],
                "sample_seed": rng.randrange(2**32)}
    types = [(r, w) for dim, r in VALIDATE_ORDERS for w in all_weights(dim, r)]
    rng.shuffle(types)
    return {"types": types, "sample_seed": rng.randrange(2**32)}


def check_checkout() -> None:
    if not (SRC / "fujiki_oka" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package at {SRC / 'fujiki_oka'}; run from a full checkout")


def load_program():
    """Import fujiki_oka from ``src/`` of this checkout, or exit with an error."""
    check_checkout()
    sys.path.insert(0, str(SRC))
    import fujiki_oka
    import fujiki_oka.cli

    if Path(fujiki_oka.__file__).resolve().parent != SRC / "fujiki_oka":
        raise SystemExit(f"bench: imported fujiki_oka from {fujiki_oka.__file__}, not {SRC}")
    return fujiki_oka


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one pass, run inside a fresh interpreter


def reference_time() -> float:
    """Time of a fixed pure-Python loop: how fast this interpreter runs on
    the machine right now."""
    t = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return time.perf_counter() - t


class Clock:
    """Times operations, and probes the machine's speed while they run.

    A shared host runs the same code up to half again as slowly for seconds
    at a time.  While the clock is entered, a timer signal runs the
    reference loop every PROBE_EVERY_S, in the middle of operations too;
    its time is taken out of the operation's.  Each operation's time is then
    scaled by REFERENCE_S over the median reference time of the probes
    around it, raised to SLOWDOWN_EXPONENT, so timings read as seconds at
    one fixed speed.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        #: key, start, end, the time spent probing in between, and the
        #: process (CPU) time the operation took, probing included
        self.ops: list[tuple[str, float, float, float, float]] = []
        self.probing_s = 0.0

    def probe(self, *_signal) -> None:
        t = time.perf_counter()
        self.probes.append((t, reference_time()))
        self.probing_s += time.perf_counter() - t

    def __enter__(self) -> "Clock":
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    @contextlib.contextmanager
    def op(self, key: str):
        probing = self.probing_s
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.ops.append((key, start, time.perf_counter(), self.probing_s - probing,
                             time.process_time() - cpu))

    def raw_s(self) -> dict[str, float]:
        """Per operation: unscaled seconds, probing left out."""
        return {key: end - start - probing for key, start, end, probing, _ in self.ops}

    def cpu_s(self) -> dict[str, float]:
        """Per operation: process time, probing left out (recorded only, to
        compare with the scaled times)."""
        return {key: cpu - probing for key, _, _, probing, cpu in self.ops}

    def factor(self, start: float, end: float) -> float:
        """(REFERENCE_S / median time of the probes around [start, end])
        to the power SLOWDOWN_EXPONENT."""
        near = [d for t, d in self.probes if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S]
        return (REFERENCE_S / statistics.median(near)) ** SLOWDOWN_EXPONENT

    def factors(self) -> dict[str, float]:
        """Per operation: its scale factor."""
        return {key: self.factor(start, end) for key, start, end, *_ in self.ops}


@dataclass
class PassResult:
    """One pass: ms per type, and the check outcome."""

    #: type -> (operation it ran in, unscaled ms)
    type_ms: dict[str, tuple[str, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def sweep_csv_digest(fo, records) -> str:
    """sha256 of the sweep CSV with the wall-clock ``ms`` column removed."""
    buf = io.StringIO()
    fo.write_sweep_csv(records, buf)
    rows = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def check_sweep_order(fo, dim: int, r: int, records, pins: dict, result: PassResult) -> None:
    expected = type_count(dim, r)
    result.attempted += expected
    key = f"{dim}/{r}"
    if len(records) != expected:
        result.fail(expected, f"sweep {key}: {len(records)} records, expected {expected}")
    elif not fo.summarize(records)["all_ok"]:
        result.fail(expected, f"sweep {key}: summarize reports failures")
    elif sweep_csv_digest(fo, records) != pins["sweep"].get(key):
        result.fail(expected, f"sweep {key}: CSV digest differs from the pinned one")


def sweep_pass(fo, inputs: dict, pins: dict, clock: Clock) -> PassResult:
    result = PassResult()
    # Per-type times are taken here, not from the ms column the program
    # records: sweep() resolves each type with one call to
    # verify.measure_type, which is timed from outside, probing left out.
    verify = importlib.import_module("fujiki_oka.verify")
    measure = verify.measure_type
    type_ms: dict[str, float] = {}

    def timed(group):
        probing, start = clock.probing_s, time.perf_counter()
        record = measure(group)
        type_ms[f"1/{record.r}{record.weights}"] = (
            time.perf_counter() - start - (clock.probing_s - probing)) * 1e3
        return record

    verify.measure_type = timed
    try:
        for dim, r in inputs["orders"]:
            key = f"{dim}/{r}"
            type_ms.clear()
            try:
                with clock.op(key):
                    records = fo.sweep(dim=dim, r_min=r, r_max=r)
            except Exception as exc:  # a crash is a failed operation; the pass goes on
                result.attempted += type_count(dim, r)
                result.fail(type_count(dim, r), f"sweep {key}: {exc!r}")
                continue
            types = [f"1/{rec.r}{rec.weights}" for rec in records]
            if not all(t in type_ms for t in types):
                raise SystemExit("bench: sweep() no longer resolves each type through "
                                 "verify.measure_type; per-type timing in sweep_pass must follow")
            result.type_ms.update((t, (key, type_ms[t])) for t in types)
            check_sweep_order(fo, dim, r, records, pins, result)
    finally:
        verify.measure_type = measure
    return result


def check_validation(validation, samples: int) -> bool:
    """A fan passes only with every check passed on a positive sample count."""
    return validation.passed and validation.samples == samples > 0


def validate_pass(fo, inputs: dict, pins: dict, clock: Clock) -> PassResult:
    seed = inputs["sample_seed"]
    result = PassResult(attempted=len(inputs["types"]))
    for r, weights in inputs["types"]:
        group = fo.GroupType.from_weights(r, weights)
        try:
            with clock.op(str(group)):
                fan = fo.build_resolution(group)
                validation = fo.validate_fan(fan, samples=SAMPLES, seed=seed)
        except Exception as exc:  # a crash is a failed operation; the pass goes on
            result.fail(1, f"validate {group}: {exc!r}")
            continue
        if not check_validation(validation, SAMPLES):
            result.fail(1, f"validate {group}: {validation}")
    return result


def check_verify_output(r: int, weights, code: int, text: str, pins: dict) -> str | None:
    """None when ``verify`` on one type passed its gate, else the problem."""
    lines = text.splitlines()
    if code != 0 or not lines or lines[-1] != "PASS":
        return f"exit {code}, last line {lines[-1] if lines else ''!r}"
    fields = lines[1].split() if len(lines) > 1 else []
    euler = int(fields[1]) if fields[:1] == ["euler"] else None
    # chi = r is the theorem for Gorenstein 3D types; 4D types are pinned
    expected = r if len(weights) == 3 else pins["verify_large"].get(f"4/{r}")
    if euler != expected:
        return f"euler {euler}, expected {expected}"
    return None


def verify_pass(fo, inputs: dict, pins: dict, clock: Clock) -> PassResult:
    result = PassResult(attempted=len(inputs["types"]))
    for r, weights in inputs["types"]:
        argv = ["verify", "-r", str(r), "-w", ",".join(map(str, weights)),
                "--samples", str(SAMPLES), "--seed", str(inputs["sample_seed"])]
        buf = io.StringIO()
        key = f"1/{r}{tuple(weights)}"
        try:
            with clock.op(key), contextlib.redirect_stdout(buf):
                code = fo.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation; the pass goes on
            result.fail(1, f"verify {key}: {exc!r}")
            continue
        problem = check_verify_output(r, weights, code, buf.getvalue(), pins)
        if problem:
            result.fail(1, f"verify {key}: {problem}")
    return result


PASSES = {"sweep": sweep_pass, "verify_large": verify_pass, "validate_many": validate_pass}


# ---------------------------------------------------------------------------
# known-bad fans: validate_fan must reject them, or it is no gate at all


def largest_cone(fan, seed: int) -> int:
    """Index of the cone that holds the most of 1000 points drawn as
    validate_fan draws its samples (uniform in a box in the positive
    orthant): the cone whose loss the coverage check is surest to see."""
    import numpy as np

    n = fan.group.n
    pts = np.random.default_rng(seed).integers(1, 10**6 + 1, size=(1000, n)).astype(float)
    gens = np.array([cone.generators for cone in fan.max_cones], dtype=float)
    # coefficients of each point in each cone's generators: (points, cones, n)
    coef = np.einsum("cij,pj->pci", np.linalg.inv(np.transpose(gens, (0, 2, 1))), pts)
    return int((coef >= 0).all(axis=2).sum(axis=0).argmax())


def tamper(fan, rng: random.Random):
    """A copy of ``fan`` with three defects that validate_fan must each
    report, and what it must report for them.

    * A cone C next to a cone D (sharing the wall C - {x}), the two
      furthest apart in the cone order of all such pairs, has one wall
      generator a replaced by a + w, w another wall generator.  C keeps
      multiplicity 1 and lies inside its old place, but its face
      cone(w, a + w, ...) is only part of the wall, so C and D no longer
      meet in a common face: (C, D) must be among the bad pairs.
    * The cone that holds most sample points is dropped: points must be
      reported uncovered.
    * An exceptional ray is doubled: it must be reported not primitive.

    The fan must be of dimension 3 or more (a wall has two generators) and
    have at least three cones.
    """
    cones = list(fan.max_cones)
    walls: dict[frozenset, list[int]] = {}
    for idx, cone in enumerate(cones):
        for g in cone.generators:
            walls.setdefault(frozenset(cone.generators) - {g}, []).append(idx)
    pairs = sorted(tuple(found) for found in walls.values() if len(found) == 2)
    # of the neighbours furthest apart in the cone order, so that a face
    # check which skips pairs far apart misses it
    gap = max(j - i for i, j in pairs)
    i, j = rng.choice([(i, j) for i, j in pairs if j - i == gap])
    w, a = [g for g in cones[i].generators if g in cones[j].generators][:2]
    moved = tuple(tuple(x + y for x, y in zip(a, w)) if g == a else g
                  for g in cones[i].generators)
    cones[i] = replace(cones[i], generators=moved)

    others = [k for k in range(len(cones)) if k not in (i, j)]
    drop = others[largest_cone(replace(fan, max_cones=tuple(cones[k] for k in others)),
                               rng.randrange(2**32))]
    del cones[drop]
    bad_pair = tuple(k - (k > drop) for k in (i, j))

    rays = list(fan.rays)
    k = rng.choice([idx for idx, ray in enumerate(rays) if ray.exceptional])
    doubled = tuple(2 * x for x in rays[k].scaled)
    rays[k] = replace(rays[k], scaled=doubled)
    return replace(fan, max_cones=tuple(cones), rays=tuple(rays)), bad_pair, doubled


def check_tampered(fo, group, seed: int, rng: random.Random) -> str | None:
    """None when validate_fan rejects a tampered resolution of ``group`` for
    each of its defects, else what it let through."""
    fan, bad_pair, doubled = tamper(fo.build_resolution(group), rng)
    v = fo.validate_fan(fan, samples=SAMPLES, seed=seed)
    missed = [name for name, caught in (
        ("the whole fan", not v.passed),
        ("the sample count", v.samples == SAMPLES),
        (f"wall mismatch {bad_pair}", bad_pair in v.bad_pairs),
        ("dropped cone", v.uncovered > 0),
        (f"non-primitive ray {doubled}", doubled in v.bad_rays),
    ) if not caught]
    return f"passed a tampered {group}: {', '.join(missed)}" if missed else None


def tampered_types(fo, workload: str, inputs: dict) -> list:
    """The types whose resolutions are tampered with: on verify_large both,
    on validate_many the first 3D and the first 4D type of its list with at
    least ten cones."""
    if workload == "verify_large":
        return [fo.GroupType.from_weights(r, weights) for r, weights in inputs["types"]]
    chosen = {}
    for r, weights in inputs["types"]:
        group = fo.GroupType.from_weights(r, weights)
        if len(weights) not in chosen and len(fo.build_resolution(group).max_cones) >= 10:
            chosen[len(weights)] = group
    return list(chosen.values())


def negative_checks(fo, workload: str, inputs: dict, seed: int, result: PassResult) -> None:
    """Tamper with fans sized like the workload's and count each one
    validate_fan accepts as a failed operation.  Run in the first pass of a
    run, outside the timed region and outside tracing: the verdicts depend
    only on the seed, so one pass settles them, and on verify_large the
    checks take as long as the pass itself."""
    if workload == "sweep":
        return
    rng = random.Random(f"tamper:{workload}:{seed}")
    for group in tampered_types(fo, workload, inputs):
        result.attempted += 1
        try:
            problem = check_tampered(fo, group, inputs["sample_seed"], rng)
        except Exception as exc:  # a crash is a failed check too
            problem = f"tampered {group}: {exc!r}"
        if problem:
            result.fail(1, problem)


def set_up(workload: str, seed: int):
    """The program's set-up, and how long it took: import fujiki_oka, read
    the pins, make the inputs.  Interpreter start and the numpy import come
    before it and are not the program's work."""
    start = time.perf_counter()
    fo = load_program()
    pins = load_pins()
    inputs = make_inputs(workload, seed)
    return time.perf_counter() - start, fo, pins, inputs


def run_set_up(args) -> int:
    """Child mode: only the set-up, in this fresh interpreter; its time out."""
    import numpy  # noqa: F401  (before the timed set-up, as in a pass)

    print(json.dumps(set_up(args.workload, args.seed)[0]))
    return 0


def run_pass(args) -> int:
    """Child mode: one pass in this fresh interpreter, one JSON line out."""
    import numpy

    setup_s, fo, pins, inputs = set_up(args.workload, args.seed)
    tracer = contextlib.nullcontext()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with Clock() as clock, tracer:
        result = PASSES[args.workload](fo, inputs, pins, clock)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.tamper:
        negative_checks(fo, args.workload, inputs, args.seed, result)

    factor = clock.factors()
    raw_op_s = clock.raw_s()
    out = {
        "setup_s": [setup_s],
        "op_s": {key: raw_op_s[key] * factor[key] for key in raw_op_s},
        "raw_op_s": raw_op_s,
        "cpu_op_s": clock.cpu_s(),
        # traced self times cannot leave the probing out
        "probing_s": sum(probing for _, _, _, probing, _ in clock.ops),
        # where a pass records no per-type times, each operation is one type
        "type_ms": {key: ms * factor[op] for key, (op, ms) in (
            result.type_ms or {key: (key, t * 1e3) for key, t in raw_op_s.items()}).items()},
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems[:20],
        "rss_mb": rss_mb,
        "versions": {"numpy": numpy.__version__, "fujiki_oka": fo.__version__},
    }
    if args.trace:
        out["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                         "failed": tracer.failed, "counts": tracer.counts}
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# the run: passes in fresh interpreters until the time is up


def child(args, timeout: float, mode: str, *extra: str) -> str:
    """Run this file in a fresh interpreter in a child mode; its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: {mode} child exited with {proc.returncode}")
    return proc.stdout.splitlines()[-1]


def run_passes(args, spans: Path | None) -> list[dict]:
    """Closed loop: passes until the next one would overrun ``--seconds``.
    Each pass is preceded by SETUP_EXTRA interpreters that only set up, so
    that ``setup_s``, one short time per interpreter, rests on more samples
    than there are passes."""
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        spawned = time.perf_counter()
        # traced runs report no setup_s
        setups = [json.loads(child(args, SETUP_TIMEOUT_S, "--set-up"))
                  for _ in range(0 if args.trace else SETUP_EXTRA)]
        extra = []
        if not passes:
            extra += ["--tamper"]
            if spans is not None:
                extra += ["--spans", str(spans)]
        passes.append(json.loads(child(args, PASS_TIMEOUT_S, "--pass", *extra)))
        passes[-1]["setup_s"] += setups
        durations.append(time.perf_counter() - spawned)
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            return passes


def medians(passes: list[dict], key: str) -> dict[str, float]:
    """Per-operation median across passes of ``pass[key]`` (a name -> value
    map), over the names every pass has."""
    names = [name for name in passes[0][key] if all(name in p[key] for p in passes)]
    if not names:
        raise SystemExit(f"bench: no operation completed in every pass ({key})")
    return {name: statistics.median(p[key][name] for p in passes) for name in names}


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes: list[dict]) -> dict:
    wall = sum(medians(passes, "op_s").values())
    type_ms = list(medians(passes, "type_ms").values())
    return {
        "setup_s": (statistics.median(t for p in passes for t in p["setup_s"]), "s"),
        "wall_s": (wall, "s"),
        "types_per_s": (len(type_ms) / wall, "1/s"),
        "type_ms_p50": (statistics.median(type_ms), "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }


def tail_ms(passes: list[dict]) -> float:
    """99th percentile of the per-type median times.  Printed and recorded
    but not a gated metric: it moved by more than 10% between runs of the
    same code, more than a bound can allow."""
    return percentile(list(medians(passes, "type_ms").values()), 99)


def per_layer(passes: list[dict]) -> dict:
    """Per-layer metrics of one pass: counts (the same in every pass) and
    the median across passes of each self time."""
    from tracer import COUNTED, SIZES, SPANNED, metric_name

    layers = [p["layers"] for p in passes]
    counts = layers[0]["counts"]
    # self times are scaled like the pass's operations; the share is unscaled
    raw = [sum(p["raw_op_s"].values()) + p["probing_s"] for p in passes]
    scale = [sum(p["op_s"].values()) / r for p, r in zip(passes, raw)]
    out = {}
    calls = counts.get("propfrac.remainder.calls", 0)
    out["propfrac.remainder.calls"] = (calls, "count")
    out["propfrac.remainder.useful_ratio"] = (
        counts.get("propfrac.remainder.useful", 0) / calls if calls else 0.0, "ratio")
    for *_, name in COUNTED[1:]:
        out[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
    self_s = {}
    for module, attr in SPANNED:
        name = metric_name(module, attr)
        self_s[name] = statistics.median(
            layer["self_s"].get(name, 0.0) * k for layer, k in zip(layers, scale))
        out[f"{name}.calls"] = (layers[0]["calls"].get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.failed"] = (layers[0]["failed"].get(name, 0), "count")
        for key in SIZES.get(name, ()):
            out[f"{name}.{key}"] = (counts.get(f"{name}.{key}", 0), "count")
    pairs = counts.get("fan.validate_fan.cone_pairs", 0)
    out["fan.validate_fan.self_us_per_pair"] = (
        self_s["fan.validate_fan"] / pairs * 1e6 if pairs else 0.0, "us")
    out["trace.wall_s"] = (sum(medians(passes, "op_s").values()), "s")
    out["trace.self_share"] = (
        statistics.median(sum(layer["self_s"].values()) / r for layer, r in zip(layers, raw)),
        "ratio")
    out["trace.passes"] = (len(passes), "count")
    return out


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    cpus = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "python": platform.python_version(),
        "nproc": cpus,
        "machine": platform.machine(),
        "commit": git_commit(),
        "load_start": load,
        # other work on more than one core before the run starts (a run just
        # before this one leaves the 1-minute average near 1 by itself)
        "loaded": load > cpus - 0.5,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_one(args) -> int:
    check_checkout()
    env = environment()
    if env["loaded"]:
        print(f"warning: load average {env['load_start']:.2f} on {env['nproc']} cores "
              "at start; timings are not comparable", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
    spans = OUT / f"{stem}-spans.json" if args.trace else None
    passes = run_passes(args, spans)
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    if args.trace and any(p["layers"]["counts"] != passes[0]["layers"]["counts"] for p in passes):
        print("warning: per-layer counts differ between passes of the same inputs",
              file=sys.stderr)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    env.update(passes[0]["versions"], load_end=os.getloadavg()[0])
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, samples=SAMPLES, env=env, problems=problems[:50],
                  passes=len(passes), types=len(passes[0]["type_ms"]),
                  raw_wall_s=sum(medians(passes, "raw_op_s").values()),
                  cpu_wall_s=sum(medians(passes, "cpu_op_s").values()),
                  type_ms_p99=tail_ms(passes),
                  pass_raw_op_s=[p["raw_op_s"] for p in passes],
                  pass_cpu_op_s=[p["cpu_op_s"] for p in passes],
                  pass_wall_s=[sum(p["op_s"].values()) for p in passes],
                  pass_op_s=[p["op_s"] for p in passes],
                  pass_setup_s=[p["setup_s"] for p in passes])
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes of "
          f"{record['types']} types, {failed}/{attempted} operations failed")
    for problem in problems[:10]:
        print(f"  FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':40s} {failed / max(attempted, 1):14.6g} ratio")
    print(f"  {'type_ms_p99 (not gated)':40s} {record['type_ms_p99']:14.6g} ms")
    print(f"  {'unscaled wall_s':40s} {record['raw_wall_s']:14.6g} s")
    print(f"  {'process-time wall_s':40s} {record['cpu_wall_s']:14.6g} s")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own run; one table, nonzero on any failure."""
    me = str(Path(__file__).resolve())
    status = 0
    table = {}
    for workload in PASSES:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, me, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=args.seconds + 3 * PASS_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0:
                status = 1
                print("\n".join(lines[:-1]))
            if not lines or not lines[-1].startswith("{"):
                print(f"{workload} trace {trace}: no result (exit {proc.returncode})")
                continue
            metrics = json.loads(lines[-1])["metrics"]
            table.update({(workload, trace, k): v for k, v in metrics.items()})
    for workload in PASSES:
        print(workload)
        for (w, trace, name), m in table.items():
            if w == workload and trace == 0:
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        if (workload, 1, "trace.wall_s") in table and (workload, 0, "wall_s") in table:
            overhead = table[(workload, 1, "trace.wall_s")]["value"]
            overhead -= table[(workload, 0, "wall_s")]["value"]
            print(f"  {'trace overhead (traced - untraced wall)':40s} {overhead:14.6g} s")
    print("PASS" if status == 0 else "FAIL")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*PASSES, "all"], required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # child modes, one pass or one set-up: started by run_passes
    parser.add_argument("--pass", dest="one_pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--set-up", dest="set_up_only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.one_pass:
        return run_pass(args)
    if args.set_up_only:
        return run_set_up(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
