"""Per-stage table of ``verify`` on grid-M, both model kinds.

    python3 benchmarks/table.py [--seed 1]

Regenerates the baseline table of ROADMAP open item 1 for grid-19, grid-49
and grid-69 with the benchmark's span recorder: each figure is the median
over REPEATS traced runs of the inclusive time of one stage, and ``total``
is the whole verify call. The programs come from the benchmark's grid
generator with ``--seed``.
"""

from __future__ import annotations

import argparse
import random
import statistics

import run
import workloads
from spans import Recorder

SIZES = (19, 49, 69)
REPEATS = 3
STAGES = {
    "network chain": "prism.build_network_chain",
    "collapse": "equivalence.collapse",
    "jump": "equivalence.jump_chain",
    "refine": "equivalence.bisimilar",
    "total": "verify",
}


def measure(text: str) -> tuple[dict, dict]:
    """Median inclusive seconds per stage, and the raw state counts."""
    times: dict[str, list[float]] = {k: [] for k in STAGES}
    states = {}
    for _ in range(REPEATS):
        rec = Recorder()
        sides: dict = {}
        rec.install(run.layer_targets(sides))
        try:
            with rec.span("verify"):
                report = run.verify(text)
        finally:
            rec.uninstall()
        for col, name in STAGES.items():
            spans = [s for s in rec.spans if s.name == name]
            times[col].append(sum(s.end - s.start for s in spans) if spans else float("nan"))
        states = report["states"]
    return {k: statistics.median(v) for k, v in times.items()}, states


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    run.use_checkout_src()

    print(f"seed {args.seed}, state budget {run.MAX_STATES}, median of {REPEATS}\n")
    print("| program | source / network states | " + " | ".join(STAGES) + " |")
    print("|---" * (len(STAGES) + 2) + "|")
    for m in SIZES:
        for kind in ("ctmc", "dtmc"):
            text = workloads.grid_text(m, kind, random.Random(args.seed))
            t, st = measure(text)
            cells = " | ".join("–" if t[k] != t[k] else f"{t[k]:.3g} s" for k in STAGES)
            print(f"| grid-{m} {kind} | {st['chor_raw']:,} / {st['net_raw']:,} | {cells} |",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
