"""The benchmark's own checks, at a tiny size.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import run
import workloads

run.use_checkout_src()

TINY = {"grid_m": 4, "stages_k": 4, "stages_m": 1, "corpus_pairs": 12}


def traced(workload: str, seed: int) -> dict:
    cases = workloads.build(workload, seed, **TINY)
    return run.run(workload, seed, 0, True, cases=cases, probe=False)


def counts(result: dict) -> dict:
    return {k: v for k, v in result["per_layer"].items()
            if k in run.COUNT_METRICS or k.startswith("equivalence.collapsed_states")}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_and_answers_hold(workload):
    first, second = traced(workload, 7), traced(workload, 7)
    assert first["correct"] and second["correct"], first["unexplained"] + second["unexplained"]
    assert counts(first) == counts(second)
    assert first["known_defects"] == second["known_defects"]
    assert all(counts(first).values())


def test_closed_form_observations():
    for workload in ("grid-dtmc", "stages-ctmc"):
        (case,) = workloads.build(workload, 3, **TINY)
        assert run.warm_up(case)[1] == (case.observations, case.observations)


def test_traced_layers_account_for_verify():
    """The wrapped layers cover the verify step, apart from the benchmark's
    own calls into them, and their traced self times stay close to the
    untraced verify time. Tolerances are wide: the figures are timings."""
    a = traced("corpus", 2)["accounting"]
    assert a["harness_s"] < 0.1 * a["untraced_s"]
    assert 0.7 * a["untraced_s"] < a["layers_s"] + a["harness_s"] < 1.5 * a["untraced_s"]


def test_recorded_known_defects():
    """The three spurious verdicts recorded in BASELINE.md, from seed 1 of
    the one-stream draw of tests/corpus.py, still fail in the documented
    way, and the screen sets aside only them."""
    cases = {c.name: c for c in workloads.corpus_cases(1, 200, shape_seed=None)}
    expected = {
        "pair57-ctmc": "weight-1 bookkeeping collapse (README caveat 3)",
        "pair139-ctmc": "weight-1 bookkeeping collapse (README caveat 3)",
        "pair111-dtmc": "dtmc renormalization (README caveat 5)",
    }
    for name, cls in expected.items():
        p = run.run_pass(cases[name].text)
        assert p.failure == "verdict: not equivalent"
        assert run.known_defect(cases[name], p) == cls
    kept, defects = run.screen([cases[n] for n in (*expected, "pair57-dtmc")])
    assert defects == expected
    assert [c.name for c in kept] == ["pair57-dtmc"]
    assert run.explain_time([cases["pair111-dtmc"]]) > 0


def test_fails_without_sources(tmp_path):
    here = pathlib.Path(run.__file__).parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "corpus", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
