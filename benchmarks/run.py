"""chorprism benchmark: time to a verify verdict and to PRISM text.

    python3 benchmarks/run.py --workload grid-dtmc|stages-ctmc|corpus
                              [--seed 1] [--seconds 30] [--trace 0|1]

Runs the library from ``src/`` of the checkout that holds this file, in a
closed loop: one program at a time, each step waiting for the previous one.

1. Warm-up, outside the window: one check, compile and verify, reported
   as ``first_pass_s``; for grid and stages it also counts observations.
   Then one untimed pass over every input sets aside the programs whose
   wrong verdict falls in a documented defect class (see ``screen``).
2. Measurement, for ``--seconds`` and until every input has run once: each
   program goes through check, compile and verify, each step loading the
   program from text as the command line would. After each pass the
   compile step is repeated for COMPILE_SHARE of the pass's time, so that
   the cheap compile gets many samples spread over the window. Between
   steps, at most every CALIB_EVERY seconds, a fixed pure-Python loop
   measures the host's current speed (see ``HostSpeed``).
3. Set-up, spread evenly over the window between passes: SETUP_PROBES
   fresh interpreters each import ``chorprism`` and build the workload's
   inputs, each followed by a reference start (see ``reference_start``);
   ``setup_s`` is the median of their normalized times, process start to
   inputs ready. Spreading them lets the probes see the same mix of host
   speeds as the passes, instead of the few seconds before the window.

The end-to-end times are host-normalized: each step's wall time is scaled
to a host on which the reference loop takes REF_S seconds, using the loop
times of the second before it ends, and each set-up probe's to a host on
which the reference start takes REF_START_S. On a shared virtual machine
the speed of every pure-Python step moves by up to a third from minute to
minute; the scaled times move far less. The plain wall times are per-layer
metrics.

Every verdict is checked against the projection theorem (all inputs are
strongly connected, so every verdict must be "equivalent"); for the grid
and stages programs both chains must also reach exactly (M+1)^2 distinct
observations. A wrong verdict, an error or a budget overrun counts as a
failed operation. ``correct`` turns false on any failed operation in the
window, when the known defect classes cover more than KNOWN_DEFECT_SHARE
of the inputs, when a count differs between two runs of the same program,
or when the traced run disagrees with the untraced one.

With ``--trace 1`` each pass runs twice, untraced and traced (alternating
which goes first), and the run reports the per-layer metrics: self time
per program of each layer, exact counts summed over the distinct inputs,
and the tracing overhead. Spans are written to benchmarks/out/ when the
run ends. Metric names and units come from BENCHMARK.json; the last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import Recorder

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MAX_STATES = 200_000  # the benchmark's own state budget, passed explicitly
SETUP_PROBES = 12
COMPILE_SHARE = 0.1
REF_S = 0.010  # normalized times are for a host on which the reference loop takes this
CALIB_EVERY = 0.2  # seconds between reference loops
CALIB_SPAN = 1.0  # the host's speed is the median of the loops of the last second
REF_START_S = 0.25  # normalized set-up times are for a host whose reference start takes this
KNOWN_DEFECT_SHARE = 0.05  # seeds 1 to 10 of the corpus set aside at most 1 in 400


def use_checkout_src() -> None:
    """Import chorprism from this checkout's sources and nowhere else."""
    if not (SRC / "chorprism" / "__init__.py").is_file():
        sys.exit(f"error: no chorprism sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import chorprism

    if Path(chorprism.__file__).resolve().parent != SRC / "chorprism":
        sys.exit(f"error: chorprism was imported from {chorprism.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# the three user-facing steps, called through the package namespace so that
# installed wrappers see them
# ---------------------------------------------------------------------------

def check(text: str) -> bool:
    import chorprism as cp

    prog = cp.load_program(text)
    if cp.check_well_formed(prog):
        return False
    prog = cp.auto_annotate(prog)
    return not cp.check_annotations(prog) and cp.s_conn(prog)


def compile_text(text: str) -> str:
    import chorprism as cp

    prog = cp.auto_annotate(cp.load_program(text))
    net, _ctx = cp.project(prog)
    return cp.emit(cp.fuse_resets(net), prog)


def verify(text: str) -> dict:
    import chorprism as cp

    return cp.verify_projection(cp.load_program(text), max_states=MAX_STATES)


# ---------------------------------------------------------------------------
# layers: wrapped function -> (time metric, count function)
# ---------------------------------------------------------------------------

def _chain_counts(chain, _args):
    return {"states": chain.num_states, "transitions": chain.num_transitions}


def _project_counts(result, _args):
    net, ctx = result
    from chorprism.prism import network_modules

    return {
        "commands": sum(len(m.commands) for m in network_modules(net)),
        "slots": ctx.counter_max + 1,
    }


LAYERS = {
    ("chorprism.sugar", "load_program"): ("parser.load_s", None),
    ("chorprism.parser", "tokenize"): ("parser.load_s", lambda r, a: {"tokens": len(r)}),
    ("chorprism.sugar", "auto_annotate"): ("sugar.annotate_s", None),
    ("chorprism.analysis", "check_well_formed"): ("analysis.well_formed_s", None),
    ("chorprism.analysis", "check_annotations"): ("analysis.annotations_s", None),
    ("chorprism.analysis", "s_conn"): ("analysis.sconn_s", None),
    ("chorprism.projection", "project"): ("projection.project_s", _project_counts),
    ("chorprism.projection", "fuse_resets"): ("projection.fuse_s", None),
    ("chorprism.emit", "emit"): ("emit.emit_s", lambda r, a: {"bytes": len(r.encode())}),
    ("chorprism.semantics", "build_chain"): ("semantics.chain_s", _chain_counts),
    ("chorprism.prism", "derive_commands"): ("prism.derive_s", lambda r, a: {"commands": len(r)}),
    ("chorprism.prism", "build_network_chain"): ("prism.chain_s", _chain_counts),
    ("chorprism.equivalence", "collapse"): ("equivalence.collapse_s", None),
    ("chorprism.equivalence", "jump_chain"): ("equivalence.jump_s", None),
    ("chorprism.equivalence", "bisimilar"): (
        "equivalence.refine_s", lambda r, a: {"blocks": len(set(r[1]))}),
    ("chorprism.equivalence", "explain_difference"): ("equivalence.explain_s", None),
    ("chorprism.equivalence", "verify_projection"): ("equivalence.verify_self_s", None),
}
TIME_METRIC = {f"{m.rsplit('.', 1)[-1]}.{f}": metric for (m, f), (metric, _) in LAYERS.items()}
TIME_METRICS = sorted(set(TIME_METRIC.values()))

# per-layer count metric -> (span name, count key); the value for one
# program is taken from the first such span of its first traced pass
COUNT_METRICS = {
    "parser.tokens": ("parser.tokenize", "tokens"),
    "projection.commands": ("projection.project", "commands"),
    "projection.slots": ("projection.project", "slots"),
    "emit.bytes": ("emit.emit", "bytes"),
    "semantics.states": ("semantics.build_chain", "states"),
    "semantics.transitions": ("semantics.build_chain", "transitions"),
    "prism.states": ("prism.build_network_chain", "states"),
    "prism.transitions": ("prism.build_network_chain", "transitions"),
    "prism.derived_commands": ("prism.derive_commands", "commands"),
    "equivalence.blocks": ("equivalence.bisimilar", "blocks"),
}


def layer_targets(sides: dict):
    """Wrapper targets; ``sides`` maps id(chain) -> (chain, side) so that
    the two collapse calls of one verify can be told apart."""
    def remember(side, inner):
        def count(chain, args):
            sides[id(chain)] = (chain, side)
            return inner(chain, args)
        return count

    def collapsed(chain, args):
        _, side = sides.get(id(args[0]), (None, "unknown"))
        return {f"collapsed_states.{side}": chain.num_states}

    out = {key: count for key, (_m, count) in LAYERS.items()}
    out[("chorprism.semantics", "build_chain")] = remember("source", _chain_counts)
    out[("chorprism.prism", "build_network_chain")] = remember("network", _chain_counts)
    out[("chorprism.equivalence", "collapse")] = collapsed
    return out


# ---------------------------------------------------------------------------
# one program through check, compile and verify
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    check_s: float = math.nan
    compile_s: float = math.nan
    verify_s: float = math.nan
    failure: str | None = None  # None when every answer was the known one
    report: dict | None = None
    counts: tuple = ()  # what must repeat exactly across runs of one program


def run_pass(text: str, rec: Recorder | None = None) -> Pass:
    from chorprism import StateBudgetExceeded

    p = Pass()

    def step(name, fn):
        t = time.perf_counter()
        if rec is None:
            out = fn(text)
        else:
            with rec.span(name):
                out = fn(text)
        return out, time.perf_counter() - t

    try:
        ok, p.check_s = step("check", check)
        emitted, p.compile_s = step("compile", compile_text)
        p.report, p.verify_s = step("verify", verify)
    except StateBudgetExceeded as e:
        p.failure = f"budget: {e}"
        return p
    except Exception as e:  # noqa: BLE001 - any crash is a failed operation, reported
        p.failure = f"error: {type(e).__name__}: {e}"
        return p
    st = p.report["states"]
    p.counts = (ok, p.report["equivalent"], st["chor_raw"], st["chor_collapsed"],
                st["net_raw"], st["net_collapsed"], len(emitted.encode()))
    if not ok:
        p.failure = "check: not well-formed or not strongly connected"
    elif not p.report["equivalent"]:
        p.failure = "verdict: not equivalent"
    return p


def known_defect(case: workloads.Case, p: Pass) -> str | None:
    """Name the documented defect class a wrong verdict falls in, if any.

    Only random corpus programs can fall in one: the grid and stages
    programs avoid both triggers by construction, so any failure there is
    unexplained.
    """
    if case.observations is not None or p.failure is None or not p.failure.startswith("verdict"):
        return None
    if case.kind == "dtmc" and any(f.startswith("dtmc_renormalized") for f in p.report["findings"]):
        return "dtmc renormalization (README caveat 5)"
    if case.kind == "ctmc":
        # Two rate-0.5 moves into one state merge into a weight-1 edge that
        # collapse takes for bookkeeping; any other rate must fix it.
        moved = re.sub(r"\brate 0\.5\b", "rate 0.75", case.text)
        if moved != case.text and verify(moved)["equivalent"]:
            return "weight-1 bookkeeping collapse (README caveat 3)"
    return None


def screen(cases: list[workloads.Case]) -> tuple[list[workloads.Case], dict[str, str]]:
    """One untimed pass over every input, before the window.

    A program whose wrong verdict falls in a documented defect class is
    set aside: the window times only programs with a known right answer, so
    that no operation in it fails. The set-aside programs are verified here
    on every run, named in the output and counted as ``known_defects``, so
    a fix or a new case shows. Returns the programs kept and the class of
    each program set aside.
    """
    kept, defects = [], {}
    for case in cases:
        cls = known_defect(case, run_pass(case.text))
        if cls is None:
            kept.append(case)
        else:
            defects[case.name] = cls
    return kept, defects


def explain_time(cases: list[workloads.Case]) -> float:
    """Mean self time of ``explain_difference`` over one traced verify of
    each program set aside by ``screen``: only those reach it, and they are
    not run in the window."""
    if not cases:
        return 0.0
    rec = Recorder()
    rec.install(layer_targets({}))
    try:
        for case in cases:
            verify(case.text)
    finally:
        rec.uninstall()
    return sum(s.self_time for s in rec.spans if s.name == "equivalence.explain_difference") / len(cases)


def warm_up(case: workloads.Case) -> tuple[float, tuple[int, int] | None]:
    """The first pass of the process: check, compile and verify one program,
    lazy imports and first-call costs included. Returns its seconds and,
    when the program has a closed form, the number of distinct observations
    the source and network chains reached."""
    rec = Recorder()
    sides: dict = {}
    t = time.perf_counter()
    check(case.text)
    compile_text(case.text)
    rec.install(layer_targets(sides))
    try:
        verify(case.text)
    finally:
        rec.uninstall()
    seconds = time.perf_counter() - t
    if case.observations is None:
        return seconds, None
    found = {side: len({chain.observation(s, workloads.OBSERVED) for s in range(chain.num_states)})
             for chain, side in sides.values()}
    return seconds, (found.get("source", -1), found.get("network", -1))


# ---------------------------------------------------------------------------
# set-up, host calibration
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: import, build inputs, report, exit."""
    t0 = time.perf_counter()
    use_checkout_src()
    import chorprism  # noqa: F401

    t1 = time.perf_counter()
    workloads.build(workload, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
    os._exit(0)  # interpreter teardown is not part of set-up


def setup_probe(workload: str, seed: int) -> dict:
    """One fresh interpreter, from process start until the inputs are ready."""
    t = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    wall = time.perf_counter() - t
    row = json.loads(out.stdout.strip().splitlines()[-1])
    return {"setup.wall_s": wall, "setup.import_s": row["import_s"], "setup.inputs_s": row["inputs_s"]}


def reference_start() -> float:
    """Wall time of the reference start: a fresh interpreter that imports
    numpy and exits. It shares the costs of a set-up probe that the
    reference loop does not see (process start, file reads, loading shared
    libraries), and its work is fixed."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import os, numpy; os._exit(0)"],
                   capture_output=True, check=True, timeout=120)
    return time.perf_counter() - t


def calibrate() -> float:
    """The reference loop: fixed pure-Python work whose time moves only
    with the host. About 10 ms on a 2.1 GHz Xeon virtual machine."""
    t = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


class HostSpeed:
    """The host's current speed, from the reference loop run between steps.

    On a shared 2-vCPU virtual machine the reference loop and a grid-19
    verify slowed and sped up together: over 10-second stretches of one
    process, the verify's mean wall time moved by 17% either way, and its
    ratio to the median loop time by 5%. The loops of the last second track
    the host better than a fixed number of loops: over five 30-second
    stages-ctmc runs, normalized verify time spread 0.10 with them and 0.13
    with the last five loops, which span three seconds there.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self._ends: list[float] = []

    def tick(self) -> None:
        """Run the reference loop if CALIB_EVERY seconds have passed."""
        if not self._ends or time.perf_counter() - self._ends[-1] >= CALIB_EVERY:
            self.loops.append(calibrate())
            self._ends.append(time.perf_counter())

    def norm(self, seconds: float) -> float:
        """``seconds`` of wall time just spent, scaled to a host whose loop
        takes REF_S."""
        first = bisect.bisect_left(self._ends, time.perf_counter() - CALIB_SPAN)
        recent = self.loops[min(first, len(self.loops) - 1):]
        return seconds * REF_S / statistics.median(recent)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    unexplained: list[str] = field(default_factory=list)
    first: dict[int, tuple] = field(default_factory=dict)  # case index -> counts

    def record(self, i: int, case: workloads.Case, p: Pass) -> None:
        self.attempted += 1
        if i in self.first:
            if self.first[i] != (p.failure, p.counts):
                self.unexplained.append(f"{case.name}: outcome changed between runs")
        else:
            self.first[i] = (p.failure, p.counts)
            if p.failure is not None:
                self.unexplained.append(f"{case.name}: {p.failure}")
        if p.failure is not None:
            self.failed += 1


class Samples(dict):
    """Timings per program (input index -> seconds of each run).

    A workload's time is a quantile over its programs of one figure per
    program: the mean of its runs for verify and whole passes, the median
    for compile, which has many more runs. The rate is taken at the
    median program because a corpus pass spends 17 to 44% of its time,
    depending on the seed, in its ten largest programs.
    """

    def add(self, i: int, t: float) -> None:
        self.setdefault(i, []).append(t)

    def count(self) -> int:
        return sum(len(v) for v in self.values())

    def over_programs(self, per_program, q: float = 0.5) -> float:
        """Nearest-rank q-quantile over programs of ``per_program(runs)``."""
        s = sorted(per_program(v) for v in self.values())
        return s[max(0, math.ceil(q * len(s)) - 1)] if s else math.nan


def layer_metrics(rec: Recorder, traced_programs: dict[str, int]) -> dict:
    """Per-layer self time per program (mean over traced passes) and exact
    counts summed over the distinct programs."""
    times = dict.fromkeys(TIME_METRICS, 0.0)
    for s in rec.spans:
        metric = TIME_METRIC.get(s.name)
        if metric is not None:
            times[metric] += s.self_time
    n = max(1, sum(1 for s in rec.spans if s.name == "verify"))
    out = {k: v / n for k, v in times.items()}

    first: dict[str, dict] = {}  # program -> metric -> value, first traced pass only
    for s in rec.spans:
        case, _, attempt = s.program.rpartition("#")
        if traced_programs.get(case) != int(attempt):
            continue
        seen = first.setdefault(case, {})
        for metric, (name, key) in COUNT_METRICS.items():
            if s.name == name and metric not in seen and key in s.counts:
                seen[metric] = s.counts[key]
        for key, v in s.counts.items():
            if key.startswith("collapsed_states.") and f"equivalence.{key}" not in seen:
                seen[f"equivalence.{key}"] = v
    names = list(COUNT_METRICS) + ["equivalence.collapsed_states.source",
                                    "equivalence.collapsed_states.network"]
    for metric in names:
        out[metric] = sum(seen.get(metric, 0) for seen in first.values())
    pairs = sum(seen.get("prism.states", 0) * seen.get("prism.derived_commands", 0)
                for seen in first.values())
    out["prism.useful_ratio"] = out["prism.transitions"] / pairs if pairs else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        cases: list[workloads.Case] | None = None, probe: bool = True) -> dict:
    """One benchmark run; returns the result object (without printing)."""
    host = HostSpeed()
    if probe:
        setup_probe(workload, seed)  # fills the bytecode and file caches; not counted
    probes: list[dict] = []
    if cases is None:
        cases = workloads.build(workload, seed)
    inputs = len(cases)
    tally = Tally()

    first_pass_s, observed = warm_up(cases[0])
    if observed not in (None, (cases[0].observations,) * 2):
        tally.unexplained.append(
            f"{cases[0].name}: reached {observed} observations, expected {cases[0].observations}")
    kept, defects = screen(cases)
    if len(defects) > KNOWN_DEFECT_SHARE * inputs:
        tally.unexplained.append(
            f"known defect classes cover {len(defects)} of {inputs} programs; "
            "they explain rare failures, not a broken pipeline")
        kept = cases  # time them all, so that every failure is counted
    explain_s = explain_time([c for c in cases if c.name in defects]) if trace else 0.0
    cases = kept

    # wall seconds and normalized seconds, per step
    wall = {k: Samples() for k in ("compile", "verify", "pass")}
    norm = {k: Samples() for k in ("compile", "verify", "pass")}
    traced_verify, untraced_verify = Samples(), Samples()
    rec = Recorder()
    sides: dict = {}
    traced_programs: dict[str, int] = {}

    def add(idx: int, step: str, t: float) -> None:
        wall[step].add(idx, t)
        norm[step].add(idx, host.norm(t))

    def traced_pass(i: int, case: workloads.Case) -> Pass:
        rec.program = f"{case.name}#{i}"
        traced_programs.setdefault(case.name, i)
        gc.collect()
        rec.install(layer_targets(sides))
        try:
            return run_pass(case.text, rec)
        finally:
            rec.uninstall()
            sides.clear()

    def extra_compiles(idx: int, case: workloads.Case, p: Pass) -> None:
        """Repeat the cheap compile step for a share of the pass's time, so
        that compile_s has many samples spread over the whole window."""
        budget = COMPILE_SHARE * (p.check_s + p.compile_s + p.verify_s)
        spent = 0.0
        while spent < budget:
            host.tick()
            t = time.perf_counter()
            emitted = compile_text(case.text)
            dt = time.perf_counter() - t
            spent += dt
            add(idx, "compile", dt)
            if len(emitted.encode()) != p.counts[-1]:
                tally.unexplained.append(f"{case.name}: compile output changed between runs")
                return

    def probe_once() -> None:
        row = setup_probe(workload, seed)
        row["setup.reference_s"] = reference_start()
        row["setup_s"] = row["setup.wall_s"] * REF_START_S / row["setup.reference_s"]
        probes.append(row)

    start = time.perf_counter()
    i = 0
    while i < len(cases) or time.perf_counter() - start < seconds:
        due = len(probes) * seconds / SETUP_PROBES
        if probe and len(probes) < SETUP_PROBES and time.perf_counter() - start >= due:
            probe_once()
        idx = i % len(cases)
        case = cases[idx]
        traced_first = trace and i % 2 == 1  # alternate, so order effects cancel
        if traced_first:
            q = traced_pass(i, case)
        gc.collect()
        host.tick()
        p = run_pass(case.text)
        tally.record(idx, case, p)
        if p.failure is None or p.failure.startswith("verdict"):
            add(idx, "compile", p.compile_s)
            add(idx, "verify", p.verify_s)
            add(idx, "pass", p.check_s + p.compile_s + p.verify_s)
            if not trace:
                extra_compiles(idx, case, p)
        if trace:
            if not traced_first:
                q = traced_pass(i, case)
            if not math.isnan(p.verify_s + q.verify_s):
                untraced_verify.add(idx, p.verify_s)
                traced_verify.add(idx, q.verify_s)
            if (q.failure, q.counts) != (p.failure, p.counts):
                tally.unexplained.append(f"{case.name}: traced run differs from untraced")
        i += 1
    while probe and len(probes) < SETUP_PROBES:
        probe_once()
    setup = {k: statistics.median(p[k] for p in probes) for k in probes[0]} if probes else {}

    if not wall["verify"]:
        tally.unexplained.append("no verify completed")
    result = {
        "workload": workload,
        "seed": seed,
        "max_states": MAX_STATES,
        "inputs": inputs,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": not tally.unexplained,
        "unexplained": tally.unexplained,
        "known_defects": defects,
        "samples": {"compile": wall["compile"].count(), "verify": wall["verify"].count(),
                    "reference loop": len(host.loops)},
        "end_to_end": {
            **({"setup_s": setup["setup_s"]} if setup else {}),
            "verify_norm_s": norm["verify"].over_programs(statistics.fmean),
            "compile_norm_s": norm["compile"].over_programs(statistics.median),
            "programs_per_norm_s": 1 / norm["pass"].over_programs(statistics.fmean),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "per_layer": {
            "verify_s": wall["verify"].over_programs(statistics.fmean),
            "compile_s": wall["compile"].over_programs(statistics.median),
            "programs_per_s": 1 / wall["pass"].over_programs(statistics.fmean),
            "verify_p95_s": wall["verify"].over_programs(statistics.fmean, 0.95),
            "first_pass_s": first_pass_s,
            "known_defects": len(defects),
            "host.calib_s": statistics.median(host.loops),
            "failed_share": tally.failed / tally.attempted,
            **{k: v for k, v in setup.items() if k != "setup_s"},
        },
    }
    if trace:
        layers = layer_metrics(rec, traced_programs)
        layers["trace.overhead_s"] = (traced_verify.over_programs(statistics.fmean)
                                      - untraced_verify.over_programs(statistics.fmean))
        if defects:  # the window holds no negative verdict; see explain_time
            layers["equivalence.explain_s"] = explain_s
        result["per_layer"].update(layers)
        result["accounting"] = verify_accounting(rec, [t for v in untraced_verify.values() for t in v])
        result["spans"] = rec
    return result


def verify_accounting(rec: Recorder, untraced: list[float]) -> dict:
    """Means per program: layer self times inside the verify step, the
    recorder's counting, the benchmark's own share, the traced total and
    the untraced one. The first three add up to the traced total."""
    by_id = {s.id: s for s in rec.spans}
    roots = [s for s in rec.spans if s.name == "verify"]
    root_ids = {s.id for s in roots}

    def under_verify(s) -> bool:
        while s.parent is not None:
            if s.parent in root_ids:
                return True
            s = by_id[s.parent]
        return False

    n = max(1, len(roots))
    inner = [s for s in rec.spans if s.name in TIME_METRIC and under_verify(s)]
    return {
        "layers_s": sum(s.self_time for s in inner) / n,
        "counting_s": sum(s.count_time for s in inner) / n,
        "harness_s": sum(s.self_time for s in roots) / n,
        "traced_s": sum(s.end - s.start for s in roots) / n,
        "untraced_s": statistics.fmean(untraced),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
    use_checkout_src()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    r = run(args.workload, args.seed, args.seconds, bool(args.trace))

    def unit(name: str) -> str:
        if name in units:
            return units[name]
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith(("_share", "_ratio")) else "count"

    print(f"workload {r['workload']} seed {r['seed']}: {r['inputs']} input(s), "
          f"state budget {r['max_states']}, samples {r['samples']}")
    print(f"attempted {r['attempted']} failed {r['failed']} correct {r['correct']}")
    for name, cls in r["known_defects"].items():
        print(f"known defect, set aside: {name}: {cls}")
    for line in r["unexplained"]:
        print(f"UNEXPLAINED: {line}")
    for group in ("end_to_end", "per_layer"):
        for name, v in r[group].items():
            print(f"{group} {name} {v:.6g} {unit(name)}")
    if args.trace:
        a = r["accounting"]
        print(f"verify accounting (mean per program): layers {a['layers_s']:.6g} s + "
              f"counting {a['counting_s']:.6g} s + benchmark {a['harness_s']:.6g} s = "
              f"traced {a['traced_s']:.6g} s; "
              f"untraced {a['untraced_s']:.6g} s; "
              f"tracing overhead {a['traced_s'] - a['untraced_s']:.6g} s")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{r['workload']}-seed{r['seed']}.jsonl"
        r["spans"].write(path)
        print(f"spans: {len(r['spans'].spans)} written to {path.relative_to(HERE.parent)}")

    measured = {**r["end_to_end"], **r["per_layer"]}
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": r["correct"],
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
