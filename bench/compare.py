"""Compare benchmark results of two commits.

    python3 bench/compare.py BASE_DIR CHANGE_DIR [--workload NAME]

Each directory holds the ``.bench_out/*.json`` result files of one commit,
untraced runs only.  For every workload and end-to-end metric it prints both
sides' median and quartiles over their runs, the change's median relative to
the base's, and how many seed-matched pairs the change won.  The rule for
claiming a gain: the change wins at least 9 in 10 pairs and the medians
differ by more than the base's own quartile spread.  A regression is a
median worse than the base's by more than the metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """(workload, metric) -> {seed: value}, from untraced result files."""
    out: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if "metrics" not in record or record.get("trace", 1) or not record.get("correct"):
            continue
        for name, metric in record["metrics"].items():
            out[(record["workload"], name)][record["seed"]] = metric["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, change = load(args.base), load(args.change)
    regressed = False
    print(f"{'workload':14s} {'metric':12s} {'base q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'change/base':>11s} {'wins':>7s}  verdict")
    for key in sorted(base.keys() & change.keys()):
        workload, name = key
        if name not in metrics or (args.workload and workload != args.workload):
            continue
        b, c = base[key], change[key]
        bq, cq = quartiles(list(b.values())), quartiles(list(c.values()))
        lower = metrics[name]["better"] == "lower"
        seeds = b.keys() & c.keys()
        wins = sum(1 for s in seeds if (c[s] < b[s]) == lower and c[s] != b[s])
        ratio = cq[1] / bq[1]
        worse = ratio - 1 if lower else 1 - ratio
        if worse > metrics[name]["bound"]:
            verdict = "REGRESSION"
            regressed = True
        elif wins >= 0.9 * len(seeds) and abs(cq[1] - bq[1]) > bq[2] - bq[0]:
            verdict = "gain"
        else:
            verdict = "no change shown"
        print(f"{workload:14s} {name:12s} {'%.4g/%.4g/%.4g' % bq:>30s} "
              f"{'%.4g/%.4g/%.4g' % cq:>30s} {ratio:11.4f} {wins:3d}/{len(seeds):<3d}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
