"""Regenerate ``bench/pins.json``, the expected outputs the runner checks.

    python3 bench/pin.py

Pins come from the code in ``src/`` and are only as good as that code:
regenerate them on a commit whose test suite passes, never to make a
failing benchmark pass.  Sweep pins are sha256 digests of the sweep CSV
without its ``ms`` column, one per (dimension, order) that a sweep pass can
draw; verify_large pins the Euler characteristic of each 4D type it can
draw (for the 3D types, euler == r is the theorem being checked).
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    fo = run.load_program()
    orders = sorted(
        {(2, r) for r in run.SWEEP_N2}
        | {(3, r) for r in run.SWEEP_N3}
        | {(4, run.SWEEP_N4)}
    )
    sweep = {}
    for dim, r in orders:
        records = fo.sweep(dim=dim, r_min=r, r_max=r)
        if not fo.summarize(records)["all_ok"]:
            raise SystemExit(f"sweep {dim}/{r} fails its identities; refusing to pin")
        sweep[f"{dim}/{r}"] = run.sweep_csv_digest(fo, records)
    r, orders = run.VERIFY_4D
    eulers = {fo.build_resolution(fo.GroupType.from_weights(r, w)).euler for w in orders}
    if len(eulers) != 1:
        raise SystemExit(f"weight orders of 4D order {r} disagree on euler: {eulers}")
    verify = {f"4/{r}": eulers.pop()}
    with open(run.PINS, "w") as fh:
        json.dump({"sweep": sweep, "verify_large": verify}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(sweep)} sweep orders and {len(verify)} verify types in {run.PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
