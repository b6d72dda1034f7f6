"""Collapse, jump chains, bisimulation, and the end-to-end verifier."""

from __future__ import annotations

import dataclasses
import importlib
import math
import pathlib
import random
import time
import tracemalloc
import weakref

import pytest

from chorprism import equivalence
from chorprism.chain import MarkovChain
from chorprism.equivalence import (
    bisimilar,
    collapse,
    explain_difference,
    jump_chain,
    verify_projection,
)
from chorprism.errors import (
    EvalError,
    NotStronglyConnected,
    StateBudgetExceeded,
    StutterGroupTooLarge,
)
from chorprism.prism import build_network_chain
from chorprism.projection import project
from chorprism.semantics import build_chain, eval_weight
from chorprism.sugar import auto_annotate, load_program
from chorprism.syntax import Interaction, subterms

import bisim_ref
import collapse_ref
import jump_ref
from corpus import random_program

OBS = ("x",)
DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = sorted(p.name for p in DATA.glob("*.chor"))


def mk(kind, states, edges, init=0, names=OBS):
    return MarkovChain(kind, names, list(states), init, [dict(e) for e in edges])


def random_chain(rng: random.Random) -> MarkovChain:
    n = rng.randint(3, 9)
    states = [(rng.randint(0, 2),) for _ in range(n)]
    edges = []
    for _ in range(n):
        out = {}
        for _ in range(rng.randint(0, 2)):
            out[rng.randrange(n)] = rng.choice([1.0, 1.0, 0.5, 2.0, 3.0])
        edges.append(out)
    return mk("ctmc", states, edges)


# ---------------------------------------------------------------------------
# collapse
# ---------------------------------------------------------------------------


def test_collapse_contracts_weight_one_silent_prefix():
    c = mk("ctmc", [(0,), (0,), (1,)], [{1: 1.0}, {2: 2.5}, {}])
    got = collapse(c, OBS)
    assert got.num_states == 2
    assert got.states == [(0,), (1,)]
    assert got.edges == [{1: 2.5}, {}]
    assert got.init == 0


def test_collapse_folds_interleaving_diamond():
    # two administrative orders join before the first real move
    c = mk(
        "ctmc",
        [(0,), (0,), (0,), (0,), (1,)],
        [{1: 1.0, 2: 1.0}, {3: 1.0}, {3: 1.0}, {4: 7.0}, {}],
    )
    got = collapse(c, OBS)
    assert got.states == [(0,), (1,)]
    assert got.edges == [{1: 7.0}, {}]


def test_collapse_keeps_probabilistic_branching():
    c = mk("dtmc", [(0,), (0,), (0,)], [{1: 0.5, 2: 0.5}, {}, {}])
    got = collapse(c, OBS)
    assert got.num_states == 3
    assert got.edges[0] == {1: 0.5, 2: 0.5}


def test_collapse_keeps_observable_moves():
    c = mk("dtmc", [(0,), (1,)], [{1: 1.0}, {}])
    got = collapse(c, OBS)
    assert got.num_states == 2
    assert got.edges == [{1: 1.0}, {}]


def test_collapse_keeps_administrative_cycles():
    c = mk("ctmc", [(0,), (0,)], [{1: 1.0}, {0: 1.0}])
    got = collapse(c, OBS)
    assert got.num_states == 2
    assert got.edges == [{1: 1.0}, {0: 1.0}]


def test_collapse_rate_one_moves_count_as_administrative():
    # The contraction criterion is purely structural (weight 1, observation
    # unchanged), so a source-level rate-1 move that happens to rewrite a
    # variable to its current value is folded as if it were bookkeeping.
    c = mk("ctmc", [(0,), (0,), (1,)], [{1: 1.0}, {2: 5.0}, {}])
    assert collapse(c, OBS).num_states == 2


def test_collapse_idempotent_on_random_chains():
    rng = random.Random(20240815)
    for _ in range(60):
        c = random_chain(rng)
        once = collapse(c, OBS)
        twice = collapse(once, OBS)
        assert twice.states == once.states
        assert twice.edges == once.edges
        assert twice.init == once.init


def test_collapse_is_one_pass():
    # 1 and 2 contract into 3, so 0's two 0.5 moves merge into one weight-1
    # edge, which only a second pass reads as bookkeeping
    c = mk("dtmc", [(0,)] * 4, [{1: 0.5, 2: 0.5}, {3: 1.0}, {3: 1.0}, {}])
    once = collapse(c, OBS)
    assert once.states == [(0,), (0,)]
    assert once.edges == [{1: 1.0}, {}]
    twice = collapse(once, OBS)
    assert twice.states == [(0,)]
    assert twice.edges == [{}]


def test_collapse_example2_reaches_three_observation_classes(data_text):
    prog = load_program(data_text("example2.chor"))
    got = collapse(build_chain(prog), ("x", "y"))
    assert got.num_states == 3
    obs = got.observations(("x", "y"))
    assert len(set(obs)) == 3
    by_obs = {
        obs[s]: {obs[t]: w for t, w in got.edges[s].items()} for s in range(3)
    }
    assert by_obs == {
        (0, 0): {(1, 2): 2.0, (3, 1): 3.0},
        (1, 2): {(1, 2): 2.0, (3, 1): 3.0},
        (3, 1): {(1, 2): 2.0, (3, 1): 3.0},
    }


def random_admin_chain(rng: random.Random) -> MarkovChain:
    """A chain in which most states move only by weight-1 moves that keep
    their observation, mostly to lower ids, so that resolving them takes
    several forward passes, and some into administrative cycles."""
    n = rng.randint(2, 12)
    states = [(rng.randint(0, 1),) for _ in range(n)]
    edges = []
    for x in range(n):
        same = [y for y in range(n) if states[y] == states[x]]
        lower = [y for y in same if y < x] or same
        if rng.random() < 0.7:  # every move administrative
            edges.append({rng.choice(lower if rng.random() < 0.8 else same): 1.0
                          for _ in range(rng.randint(1, 2))})
        else:
            edges.append({rng.randrange(n): rng.choice([0.5, 1.0, 2.0])
                          for _ in range(rng.randint(0, 2))})
    return mk(rng.choice(["ctmc", "dtmc"]), states, edges, init=rng.randrange(n))


def _collapsed(collapse_fn, chain):
    c = collapse_fn(chain, OBS)
    return c.kind, c.states, c.init, [[(y, w.hex()) for y, w in row.items()] for row in c.edges]


def test_collapse_matches_the_forward_order_passes_on_random_chains():
    rng = random.Random(20261020)
    contracted = 0
    for _ in range(2000):
        chain = random_admin_chain(rng)
        got = _collapsed(collapse, chain)
        assert got == _collapsed(collapse_ref.collapse, chain)
        contracted += len(got[1]) < chain.num_states
    assert contracted > 500


# ---------------------------------------------------------------------------
# jump chains (discrete stutter absorption)
# ---------------------------------------------------------------------------


def test_jump_chain_absorbs_stutter_prefix():
    c = mk("dtmc", [(0,), (0,), (1,)], [{1: 0.5, 2: 0.5}, {2: 1.0}, {2: 1.0}])
    got = jump_chain(c, OBS)
    # the interior state 1 is never reached
    assert got.states == [(0,), (1,)]
    assert got.edges[0] == pytest.approx({1: 1.0})
    assert got.edges[1] == pytest.approx({1: 1.0})  # absorbing: diverges
    from_interior = jump_chain(dataclasses.replace(c, init=1), OBS)
    assert from_interior.states == [(0,), (1,)]
    assert from_interior.edges[0] == pytest.approx({1: 1.0})


def test_jump_chain_splits_mass_after_stutter_loop():
    c = mk("dtmc", [(0,), (1,), (2,)], [{0: 0.2, 1: 0.4, 2: 0.4}, {}, {}])
    got = jump_chain(c, OBS)
    assert got.edges[0] == pytest.approx({1: 0.5, 2: 0.5})


def test_jump_chain_divergence_becomes_self_loop():
    c = mk("dtmc", [(0,), (0,)], [{1: 1.0}, {0: 1.0}])
    got = jump_chain(c, OBS)
    assert got.states == [(0,)]
    assert got.edges == [{0: 1.0}]


def test_jump_chain_partial_divergence_keeps_mass_on_self_loop():
    # half the mass reaches the observation change, half gets stuck
    c = mk("dtmc", [(0,), (0,), (1,)], [{1: 0.5, 2: 0.5}, {1: 1.0}, {}])
    got = jump_chain(c, OBS)
    assert got.states == [(0,), (1,)]
    assert got.edges[0] == pytest.approx({1: 0.5, 0: 0.5})
    assert got.edges[1] == {1: 1.0}
    assert jump_chain(dataclasses.replace(c, init=1), OBS).edges == [{0: 1.0}]


LOOP_ROUNDS_TO_1 = "dtmc; role p, q; var x @ p : [0..1] init 0; def C = p -> q : { %s }; %s main C;"


@pytest.mark.parametrize("branches, more", [
    pytest.param("rate 1e-17 : {x'=1-x}; C | rate 1 : {}; C", "", id="self-loop"),
    pytest.param("rate 1e-17 : {}; D | rate 1 : {}; C",
                 "def D = p -> q : { rate 0.5 : {x'=1-x}; C | rate 0.5 : {}; C };", id="stutter-cycle"),
])
def test_jump_chain_leaves_a_loop_that_rounds_to_1_by_what_else_leaves(branches, more):
    # C's loop weighs 1.0 once rounded, so 1 - loop is 0: the exit row is
    # divided by the rest of C's mass instead, in a lone state or while
    # eliminating a stutter cycle's members
    prog = load_program(LOOP_ROUNDS_TO_1 % (branches, more))
    jumps = jump_chain(collapse(build_chain(prog), OBS), OBS)
    assert {jumps.observation(y, OBS): w for y, w in jumps.edges[0].items()} == {(1,): 1.0}
    assert verify_projection(prog)["equivalent"] is True


def test_jump_chain_limits_the_solve_of_a_stutter_cycle_only(monkeypatch):
    # the limit counts one stutter cycle: 0 -> 1 -> 2 -> 0, each leaving to
    # 3, whose elimination takes 2 + 2 multiply-adds and back-substitution
    # 1 + 1
    cycle = mk(
        "dtmc",
        [(0,), (0,), (0,), (1,)],
        [{1: 0.5, 3: 0.5}, {2: 0.5, 3: 0.5}, {0: 0.5, 3: 0.5}, {}],
    )
    monkeypatch.setattr(equivalence, "MAX_SOLVE_WORK", 5)
    with pytest.raises(StutterGroupTooLarge, match="group of 3 states") as exc:
        jump_chain(cycle, OBS)
    assert isinstance(exc.value, StateBudgetExceeded)
    assert exc.value.exit_code == 3
    # a run of three stutter states without a cycle needs no solve
    run = mk("dtmc", [(0,), (0,), (0,), (1,)], [{1: 1.0}, {2: 1.0}, {3: 1.0}, {}])
    monkeypatch.setattr(equivalence, "MAX_SOLVE_WORK", 0)
    assert jump_chain(run, OBS).edges[0] == {1: 1.0}
    monkeypatch.setattr(equivalence, "MAX_SOLVE_WORK", 6)
    assert jump_chain(cycle, OBS).edges[0] == pytest.approx({1: 1.0})


def test_jump_chain_walks_a_deep_stutter_run_without_recursion(monkeypatch):
    n = 20_000
    line = mk(
        "dtmc",
        [(0,)] * n + [(1,)],
        [{x + 1: 1.0} for x in range(n)] + [{}],
    )
    # a solve of any stutter cycle would raise
    monkeypatch.setattr(equivalence, "MAX_SOLVE_WORK", 0)
    got = jump_chain(line, OBS)
    assert got.states == [(0,), (1,)]
    assert got.edges == [{1: 1.0}, {1: 1.0}]


def test_jump_chain_solves_no_undirected_stutter_group(monkeypatch):
    # 0, 1 and 2 form one undirected stutter group of three states that
    # can all leave it, but 0 and 2 each reach only themselves and 1, so
    # the reference solves the group and jump_chain solves no cycle
    c = mk(
        "dtmc",
        [(0,), (0,), (0,), (1,)],
        [{1: 0.5, 3: 0.5}, {3: 1.0}, {1: 0.5, 3: 0.5}, {2: 1.0}],
    )
    monkeypatch.setattr(equivalence, "MAX_SOLVE_WORK", 0)
    monkeypatch.setattr(jump_ref, "MAX_DENSE_GROUP", 2)
    with pytest.raises(StutterGroupTooLarge, match="group of 3 states"):
        jump_ref.jump_chain(c, OBS)
    got = jump_chain(c, OBS)
    assert got.states == [(0,), (1,), (0,)]
    assert got.edges == [pytest.approx({1: 1.0}), {2: 1.0}, pytest.approx({1: 1.0})]


def test_jump_chain_numbers_states_breadth_first():
    # state 1 is unreachable; jumps are listed by target id, so 2 is
    # reached before 3
    c = mk(
        "dtmc",
        [(0,), (5,), (2,), (3,)],
        [{3: 0.25, 2: 0.75}, {0: 1.0}, {2: 1.0}, {0: 0.5, 3: 0.5}],
    )
    got = jump_chain(c, OBS)
    assert got.states == [(0,), (2,), (3,)]
    assert got.init == 0
    assert [list(row) for row in got.edges] == [[1, 2], [1], [0]]
    assert got.edges == [pytest.approx({1: 0.75, 2: 0.25}), {1: 1.0}, pytest.approx({0: 1.0})]


# ---------------------------------------------------------------------------
# bisimulation
# ---------------------------------------------------------------------------


def test_bisimilar_chain_with_its_own_unrolling():
    c1 = mk("dtmc", [(0,)], [{0: 1.0}])
    c2 = mk("dtmc", [(0,), (0,)], [{1: 1.0}, {0: 1.0}])
    ok, _ = bisimilar(c1, c2, OBS)
    assert ok


def test_bisimilar_detects_weight_change():
    c1 = mk("ctmc", [(0,), (1,)], [{1: 2.0}, {}])
    c2 = mk("ctmc", [(0,), (1,)], [{1: 3.0}, {}])
    ok, blocks = bisimilar(c1, c2, OBS)
    assert not ok
    msg = explain_difference(c1, c2, blocks, OBS)
    assert "is 2 in the source but 3 in the network" in msg


def test_bisimilar_initial_observation_mismatch():
    c1 = mk("dtmc", [(1,)], [{}])
    c2 = mk("dtmc", [(0,)], [{}])
    ok, blocks = bisimilar(c1, c2, OBS)
    assert not ok
    assert explain_difference(c1, c2, blocks, OBS).startswith(
        "initial states disagree"
    )


def test_exclude_own_block_ignores_internal_rate():
    # rate chains ignore the rate into a state's own block; probability
    # chains compare in full
    flip = [(0,), (0,)], [{1: 5.0}, {0: 5.0}]
    still = [(0,)], [{}]
    assert bisimilar(mk("ctmc", *flip), mk("ctmc", *still), OBS)[0]
    assert not bisimilar(mk("dtmc", *flip), mk("dtmc", *still), OBS)[0]
    with pytest.raises(ValueError, match="ctmc chain with a dtmc chain"):
        bisimilar(mk("ctmc", *flip), mk("dtmc", *still), OBS)


def test_bisimilar_symmetric_on_random_chains():
    rng = random.Random(7)
    for _ in range(40):
        a, b = random_chain(rng), random_chain(rng)
        for kind in ("dtmc", "ctmc"):
            ka, kb = (dataclasses.replace(c, kind=kind) for c in (a, b))
            assert bisimilar(ka, kb, OBS)[0] == bisimilar(kb, ka, OBS)[0]


def test_bisimilar_reflexive_on_random_chains():
    rng = random.Random(8)
    for _ in range(40):
        a = random_chain(rng)
        assert bisimilar(a, a, OBS)[0]


# ---------------------------------------------------------------------------
# refinement against the full re-sign of every state in every round
# ---------------------------------------------------------------------------


def _signed_rounds(c1, c2, obs=OBS):
    """``bisimilar(c1, c2, obs)``, the full re-sign's result on them, and
    per round of the former the partition it signed against and the states
    it signed. Checks that each round after the first signs only blocks of
    two or more states holding a predecessor of a state whose block split
    in the round before."""
    edges = c1.edges + c2.edges
    state_of = {id(row): x for x, row in enumerate(edges)}
    rounds: list[tuple[tuple[int, ...], list[int]]] = []
    signature = equivalence._signature

    def recording(row, blocks, offset, own):
        if not rounds or rounds[-1][0] != tuple(blocks):
            rounds.append((tuple(blocks), []))
        rounds[-1][1].append(state_of[id(row)])
        return signature(row, blocks, offset, own)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(equivalence, "_signature", recording)
        got = bisimilar(c1, c2, obs)
    everyone = range(len(edges))
    preds = [set() for _ in edges]
    for x, row in enumerate(edges):
        for y in row:
            preds[y if x < c1.num_states else y + c1.num_states].add(x)
    for (before, _), (now, signed) in zip(rounds, rounds[1:]):
        split = [y for y in everyone if len({now[z] for z in everyone if before[z] == before[y]}) > 1]
        for x in signed:
            block = {z for z in everyone if now[z] == now[x]}
            assert len(block) > 1
            assert any(preds[y] & block for y in split)
    return got, bisim_ref.bisimilar(c1, c2, obs), rounds


def test_bisimilar_matches_the_full_re_sign_on_random_chains():
    rng = random.Random(20261021)
    for _ in range(300):
        a, b = random_chain(rng), random_chain(rng)
        for kind in ("ctmc", "dtmc"):
            ka, kb = (dataclasses.replace(c, kind=kind) for c in (a, b))
            got, want, _ = _signed_rounds(ka, kb)
            assert got == want
        a, b = random_substochastic_chain(rng), random_substochastic_chain(rng)
        got, want, _ = _signed_rounds(a, b)
        assert got == want


def line(n: int, kind: str, last: float = 1.0) -> MarkovChain:
    """States 0..n-1 in a row, each moving to the next, all observing 0
    but the last, which observes 1; the move into it has weight ``last``.
    Each round of refinement splits one more state off the row's end."""
    edges = [{x + 1: 1.0} for x in range(n - 1)] + [{}]
    edges[n - 2][n - 1] = last
    return mk(kind, [(0,)] * (n - 1) + [(1,)], edges)


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_bisimilar_moves_one_state_per_round_along_a_line_like_the_full_re_sign(kind):
    for c1, c2, alike in ((line(12, kind), line(12, kind), True),
                          (line(12, kind), line(13, kind), False),
                          (line(12, kind), line(12, kind, 2.0), False)):
        got, want, rounds = _signed_rounds(c1, c2)
        assert got == want and got[0] is alike
        assert len(rounds) >= 10


# every fixture but those verify refuses before it compares two chains
COMPARED = [name for name in FIXTURES if name not in (
    "annot_dup.chor", "label_clash.chor", "cond_cycle.chor", "cond_cycle_unreached.chor",
    "entry_cycle.chor", "thinkteam.chor")]


def compared_chains(prog):
    """The chains ``verify_projection`` hands to ``bisimilar``, and its
    report with the full re-sign in the place of ``bisimilar``."""
    seen = []

    def recording(c1, c2, obs_names):
        seen.append((c1, c2))
        return bisim_ref.bisimilar(c1, c2, obs_names)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(equivalence, "bisimilar", recording)
        report = verify_projection(prog, require_sconn=False)
    (c1, c2), = seen
    return c1, c2, report


@pytest.mark.parametrize("name", COMPARED)
def test_bisimilar_matches_the_full_re_sign_on_fixture_chains(name, data_text):
    prog = load_program(data_text(name))
    c1, c2, report = compared_chains(prog)
    obs = tuple(d.name for d in prog.var_decls)
    got, want, _ = _signed_rounds(c1, c2, obs)
    assert got == want
    assert verify_projection(prog, require_sconn=False) == report


def test_bisimilar_matches_the_full_re_sign_on_stages_in_five_rounds(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "benchmarks"))
    workloads = importlib.import_module("workloads")
    prog = load_program(workloads.stages_text(40, 1, random.Random(1)))
    c1, c2, _ = compared_chains(prog)
    obs = tuple(d.name for d in prog.var_decls)
    got, want, rounds = _signed_rounds(c1, c2, obs)
    assert got == want and got[0] is True
    # the full re-sign signs all 160 states in each of 5 rounds; from the
    # third round on, most blocks hold no predecessor of a split one
    assert len(rounds) == 5 and c1.num_states + c2.num_states == 160
    assert [len(signed) for _, signed in rounds] == [160, 160, 116, 8, 8]


@pytest.mark.parametrize("name", ["sconn_pos.chor", "nonsconn.chor"])
def test_explain_difference_reads_the_same_blocks_as_the_full_re_sign(name, data_text):
    prog = load_program(data_text(name))
    c1, c2, report = compared_chains(prog)
    obs = tuple(d.name for d in prog.var_decls)
    ok, blocks = bisimilar(c1, c2, obs)
    assert not ok and (ok, blocks) == bisim_ref.bisimilar(c1, c2, obs)
    assert explain_difference(c1, c2, blocks, obs) == report["counterexample"]


# ---------------------------------------------------------------------------
# verify_projection
# ---------------------------------------------------------------------------


def test_verify_example2_ctmc_report(data_text):
    report = verify_projection(load_program(data_text("example2.chor")))
    assert report == {
        "equivalent": True,
        "kind": "ctmc",
        "sconn": True,
        "states": {
            "chor_raw": 3,
            "chor_collapsed": 3,
            "net_raw": 9,
            "net_collapsed": 3,
        },
        "findings": [],
        "counterexample": None,
    }


def test_verify_example2_dtmc_report(data_text):
    report = verify_projection(load_program(data_text("example2_dtmc.chor")))
    assert report["equivalent"] is True
    assert report["kind"] == "dtmc"
    assert report["states"] == {
        "chor_raw": 3,
        "chor_collapsed": 3,
        "net_raw": 19,
        "net_collapsed": 11,
        "chor_jump": 3,
        "net_jump": 3,
    }
    # two bookkeeping moves race at one network state; the builder rescales
    assert (
        "dtmc_renormalized: outgoing probability mass 2 at state "
        "p_STATE=3,x=1,q_STATE=1,y=2" in report["findings"]
    )


@pytest.mark.parametrize("name, states", [
    # thinkteam.chor with its counts kept in range
    ("dispatcher.chor", (32, 32, 389, 32)),
    # the guard divides by a variable that is 0 while control is elsewhere
    ("guarded_division.chor", (2, 2, 10, 2)),
])
def test_verify_fixture_reports(name, states, data_text):
    report = verify_projection(load_program(data_text(name)))
    assert report["equivalent"] is True
    assert report["findings"] == []
    st = report["states"]
    assert (st["chor_raw"], st["chor_collapsed"], st["net_raw"], st["net_collapsed"]) == states


# a role that takes no part in a choice follows only its first branch or its
# then arm, and the network deadlocks on any other; merging (ROADMAP.md)
BYSTANDERS = ["bystander.chor", "bystander_dtmc.chor", "bystander_updates.chor",
              "else_bystander.chor"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a bystander follows only a choice's first branch")
@pytest.mark.parametrize("name", BYSTANDERS)
def test_a_bystander_follows_every_branch_of_a_choice(name, data_text):
    assert verify_projection(load_program(data_text(name)))["equivalent"] is True


def test_verify_families_foreach_report(data_text):
    # the only fixture whose foreach clauses go through verify
    report = verify_projection(load_program(data_text("families_foreach.chor")))
    assert report["equivalent"] is True
    assert report["counterexample"] is None
    assert report["states"] == {
        "chor_raw": 21,
        "chor_collapsed": 21,
        "net_raw": 605,
        "net_collapsed": 534,
        "chor_jump": 17,
        "net_jump": 94,
    }
    # moves of total weight 4 race at one network state; the builder rescales
    assert report["findings"] == [
        "dtmc_renormalized: outgoing probability mass 4 at state "
        "m_STATE=3,k=0,c1_STATE=1,f1=0,c2_STATE=1,f2=0,c3_STATE=1,f3=0"
    ]


def test_finding_and_counterexample_write_a_bool_alike(monkeypatch):
    # pair 111 of the one-stream draw renormalizes and fails; a bool added
    # to it must read the same, in source syntax, in both messages
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "benchmarks"))
    workloads = importlib.import_module("workloads")
    (case,) = [c for c in workloads.corpus_cases(1, 200, shape_seed=None)
               if c.name == "pair111-dtmc"]
    text = case.text.replace("role p, q, r;\n", "role p, q, r;\nvar b @ p : bool init false;\n")
    report = verify_projection(load_program(text))
    assert report["equivalent"] is False
    (finding,) = report["findings"]
    assert finding.startswith("dtmc_renormalized:")
    assert ",b=false," in finding
    assert "observing b=false," in report["counterexample"]
    assert "False" not in finding + report["counterexample"]


GRID3_DTMC = """
dtmc;
role p, q, r;
var x @ q : [0..3] init 0;
var y @ r : [0..3] init 2;
def G = p -> q, r : { rate 0.25 : {x'=mod(x+1, 4)}; G
                    | rate 0.75 : {y'=mod(y+1, 4)}; G };
main G;
"""


def test_verify_reports_trimmed_jump_chain_sizes():
    report = verify_projection(load_program(GRID3_DTMC))
    assert report["equivalent"] is True
    assert report["states"] == {
        "chor_raw": 16,
        "chor_collapsed": 16,
        "net_raw": 464,
        "net_collapsed": 304,
        "chor_jump": 16,
        "net_jump": 33,
    }
    # a corpus program whose source jump chain loses interior states too
    st = verify_projection(random_program(random.Random(2), "dtmc"))["states"]
    assert (st["chor_collapsed"], st["chor_jump"]) == (8, 4)
    assert (st["net_collapsed"], st["net_jump"]) == (16, 4)


def test_verify_sconn_pos_as_dtmc(data_text):
    prog = load_program(data_text("sconn_pos.chor"))
    probs = {"lambda1": 0.4, "lambda1p": 1.0, "lambda2": 0.6}
    report = verify_projection(
        dataclasses.replace(prog, kind="dtmc", constants=probs)
    )
    assert report["equivalent"] is True
    assert report["states"]["chor_raw"] == 6


def test_verify_ctmc_partial_participation_is_conservative(data_text):
    # The outer exchange involves only p and q, so r can still be finishing
    # its bookkeeping while the next exchange is already enabled; that extra
    # sojourn is visible to exact rate comparison and the check refuses to
    # equate the chains even though the program is in the certified fragment.
    report = verify_projection(load_program(data_text("sconn_pos.chor")))
    assert report["sconn"] is True
    assert report["equivalent"] is False
    assert report["counterexample"]


def test_verify_rejects_non_sconn_by_default(data_text):
    for name in ("nonsconn.chor", "p2p.chor"):
        with pytest.raises(NotStronglyConnected):
            verify_projection(load_program(data_text(name)))


def test_verify_nonsconn_override_reports_informational(data_text):
    report = verify_projection(
        load_program(data_text("nonsconn.chor")), require_sconn=False
    )
    assert report["sconn"] is False
    assert report["findings"][0].startswith("sconn:")
    # the projected network lets r1 -> r2 fire before p -> q has happened
    assert report["equivalent"] is False
    assert report["counterexample"]


def test_verify_p2p_override_finds_sequencing_race(data_text):
    report = verify_projection(
        load_program(data_text("p2p.chor")), require_sconn=False
    )
    assert report["sconn"] is False
    assert report["equivalent"] is False
    assert "in the source but" in report["counterexample"]
    assert report["states"]["chor_raw"] == 24


def test_verify_detects_mutated_rate(data_text):
    prog = auto_annotate(load_program(data_text("example2.chor")))
    net, _ = project(prog)
    obs = ("x", "y")
    chor = collapse(build_chain(prog), obs)
    mutated = dict(prog.constants)
    mutated["lambda2"] = 4
    netc = collapse(build_network_chain(net, "ctmc", mutated), obs)
    ok, blocks = bisimilar(chor, netc, obs)
    assert not ok
    msg = explain_difference(chor, netc, blocks, obs)
    assert msg.startswith("from the initial state")
    assert "in the source but" in msg
    # the full re-sign gives the same blocks, so the same text
    assert (ok, blocks) == bisim_ref.bisimilar(chor, netc, obs)


def test_verify_respects_state_budget(data_text):
    with pytest.raises(StateBudgetExceeded):
        verify_projection(load_program(data_text("example2.chor")), max_states=2)


def test_verify_releases_each_raw_chain_before_the_jump_chains(monkeypatch, data_text):
    raw = []

    def recorded(build):
        def wrapper(*args, **kwargs):
            chain = build(*args, **kwargs)
            raw.append(weakref.ref(chain))
            return chain

        return wrapper

    alive = []

    def jump(chain, obs_names):
        alive.append([ref() is not None for ref in raw])
        return jump_chain(chain, obs_names)

    monkeypatch.setattr(equivalence, "build_chain", recorded(build_chain))
    monkeypatch.setattr(equivalence, "build_network_chain", recorded(build_network_chain))
    monkeypatch.setattr(equivalence, "jump_chain", jump)
    report = verify_projection(load_program(data_text("example2_dtmc.chor")))
    assert report["equivalent"] is True
    assert alive == [[False, False], [False, False]]


# grid-19 of the benchmark's grid-dtmc workload, seed 1: 11,600 network states
GRID_19 = """dtmc;
role p, q, r;
var x @ q : [0..19] init 18;
var y @ r : [0..19] init 2;
def G = p -> q, r : { rate 0.25 : {x'=mod(x+1, 20)}; G
                    | rate 0.75 : {y'=mod(y+1, 20)}; G };
main G;
"""


def test_verify_peaks_under_twice_its_raw_network_chain(monkeypatch):
    sizes = []

    def measured(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        chain = build_network_chain(*args, **kwargs)
        sizes.append(tracemalloc.get_traced_memory()[0] - before)
        return chain

    monkeypatch.setattr(equivalence, "build_network_chain", measured)
    prog = load_program(GRID_19)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = verify_projection(prog)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report["equivalent"] is True
    assert report["states"]["net_raw"] == 11_600
    assert peak <= 2 * sizes[0]


def test_verify_init_overrides_apply_to_both_sides(data_text):
    report = verify_projection(
        load_program(data_text("example2.chor")), init_overrides={"x": 1}
    )
    assert report["equivalent"] is True
    assert report["states"]["chor_raw"] == 3


def test_only_the_network_chain_takes_a_roles_counter_as_an_initial_override(data_text):
    # build_network_chain's overrides name network variables, counters
    # included; verify checks them against the program's, through build_chain
    prog = load_program(data_text("example2.chor"))
    net, _ctx = project(auto_annotate(prog))
    chain = build_network_chain(net, prog.kind, prog.constants, init_overrides={"p_STATE": 1})
    assert chain.states[chain.init][chain.var_names.index("p_STATE")] == 1
    for check in (build_chain, verify_projection):
        with pytest.raises(EvalError, match="^no variable named p_STATE$"):
            check(prog, init_overrides={"p_STATE": 1})


# pair 65 (dtmc) of the benchmark corpus, seed 1: a discrete program whose
# verdict depends on collapse running before the jump chains
PAIR65_DTMC = """
dtmc;
role p, q, r;
var u @ p : [0..3] init 3;
var v @ q : [0..3] init 2;
var w @ r : [0..3] init 0;
def Main =
  q -> p, r : {
      rate 0.25 : {u'=mod(u + 1, 4), w'=0}; Aux
    | rate 0.75 : {u'=3}; r -> p, q : {
        rate 0.375 : {}; r -> p, q : {
          rate 1 : {v'=2}; Main
      }
      | rate 0.625 : {}; q -> p, r : {
          rate 1 : {v'=mod(v + 1, 4)}; p -> q, r : {
            rate 0.5 : {u'=mod(u + 1, 4), v'=2}; Main
          | rate 0.5 : {w'=0}; end
        }
      }
    }
  };
def Aux =
  q -> p, r : {
      rate 0.75 : {}; p -> q, r : {
        rate 0.75 : {}; q -> p, r : {
          rate 0.75 : {u'=mod(u + 1, 4), w'=0}; r -> p, q : {
            rate 1 : {u'=mod(u + 1, 4)}; Main
        }
        | rate 0.25 : {w'=mod(w + 1, 4), u'=1}; Main
      }
      | rate 0.25 : {w'=mod(w + 1, 4)}; r -> p, q : {
          rate 1 : {v'=mod(v + 1, 4), w'=mod(w + 1, 4)}; q -> p, r : {
            rate 1 : {w'=1}; end
        }
      }
    }
    | rate 0.25 : {}; p -> q, r : {
        rate 0.375 : {}; p -> q, r : {
          rate 0.5 : {v'=1}; q -> p, r : {
            rate 0.5 : {}; Main
          | rate 0.5 : {w'=2}; end
        }
        | rate 0.5 : {}; q -> p, r : {
            rate 0.75 : {v'=mod(v + 1, 4), u'=3}; Main
          | rate 0.25 : {}; Main
        }
      }
      | rate 0.625 : {}; end
    }
  };
main Main;
"""


def test_discrete_verdict_needs_collapse_before_jump_chains():
    prog = auto_annotate(load_program(PAIR65_DTMC))
    report = verify_projection(prog)
    assert report["equivalent"] is True
    assert [f.split(":")[0] for f in report["findings"]] == ["dtmc_renormalized"]

    # Without collapse the reference's jump chains are told apart, but only
    # by a rounding tie (see the reference test below); the jump chains
    # solved one stutter component at a time are not.
    obs = tuple(d.name for d in prog.var_decls)
    net, _ = project(prog)
    source, network = build_chain(prog), build_network_chain(net, "dtmc", prog.constants)
    ok, _ = bisimilar(jump_ref.jump_chain(source, obs), jump_ref.jump_chain(network, obs), obs)
    assert not ok
    ok, _ = bisimilar(jump_chain(source, obs), jump_chain(network, obs), obs)
    assert ok


def _discrete_chains(prog):
    prog = auto_annotate(prog)
    obs = tuple(d.name for d in prog.var_decls)
    net, _ = project(prog, require_sconn=False)
    return build_chain(prog), build_network_chain(net, "dtmc", prog.constants), obs


def _reference_jump_chain(chain, obs):
    """jump_chain of ``chain``, checked against the reference: the same
    states, the same row key order and weights within 1e-12."""
    got, want = jump_chain(chain, obs), jump_ref.trimmed_jump_chain(chain, obs)
    assert got.states == want.states
    assert got.init == want.init == 0
    assert [list(row) for row in got.edges] == [list(row) for row in want.edges]
    for g, w in zip(got.edges, want.edges):
        assert all(abs(g[t] - w[t]) <= 1e-12 for t in g)
    return got, want


def _assert_same_verdicts(source, network, obs):
    """The two chains' jump chains match the reference, and bisimilar gives
    the same verdict and explanation on them as on the reference's."""
    (j1, r1), (j2, r2) = _reference_jump_chain(source, obs), _reference_jump_chain(network, obs)
    verdicts = []
    for c1, c2 in ((j1, j2), (r1, r2)):
        ok, blocks = bisimilar(c1, c2, obs)
        verdicts.append((ok, None if ok else explain_difference(c1, c2, blocks, obs)))
    assert verdicts[0] == verdicts[1]
    return verdicts[0]


def test_jump_chain_matches_the_reference_on_programs(data_text):
    programs = [random_program(random.Random(seed), "dtmc") for seed in range(200)]
    programs += [load_program(GRID3_DTMC), load_program(PAIR65_DTMC)]
    programs.append(load_program(data_text("example2_dtmc.chor")))
    for prog in programs:
        source, network, obs = _discrete_chains(prog)
        _assert_same_verdicts(collapse(source, obs), collapse(network, obs), obs)


def test_jump_chain_matches_the_reference_without_collapse():
    """pair65's uncollapsed network jump chain holds 9/1024 = 0.0087890625,
    a tie of round(v, 9). The reference's whole-group solve puts some copies
    one ulp above it, which bisimilar rounds up and so splits their blocks;
    the forward-closure solves hit the tie exactly."""
    source, network, obs = _discrete_chains(load_program(PAIR65_DTMC))
    (j1, r1), (j2, r2) = _reference_jump_chain(source, obs), _reference_jump_chain(network, obs)
    tie = 9 / 1024
    split = {
        (g[t], w[t])
        for g, w in zip(j1.edges + j2.edges, r1.edges + r2.edges)
        for t in g
        if round(g[t], 9) != round(w[t], 9)
    }
    assert split == {(tie, math.nextafter(tie, 1.0))}
    ok, blocks = bisimilar(r1, r2, obs)
    assert ok is False
    why = explain_difference(r1, r2, blocks, obs)
    assert why.startswith("from the initial state, total weight into states observing")
    assert bisimilar(j1, j2, obs)[0] is True


def random_substochastic_chain(rng: random.Random) -> MarkovChain:
    """A dtmc whose rows sum to at most 1, with stutter cycles, states that
    never leave their observation, and an initial state that need not be 0."""
    n = rng.randint(1, 9)
    states = [(rng.randint(0, 2),) for _ in range(n)]
    edges = []
    for _ in range(n):
        out = {}
        for _ in range(rng.randint(0, 3)):
            y = rng.randrange(n)
            out[y] = out.get(y, 0.0) + rng.choice([0.125, 0.25, 0.5, 1.0, rng.random()])
        total = sum(out.values())
        mass = rng.choice([1.0, 1.0, rng.uniform(0.25, 1.0)])
        edges.append({y: w / total * mass for y, w in out.items()})
    return mk("dtmc", states, edges, init=rng.randrange(n))


def test_jump_chain_matches_the_reference_on_random_chains():
    rng = random.Random(20261018)
    for _ in range(1000):
        _assert_same_verdicts(
            random_substochastic_chain(rng), random_substochastic_chain(rng), OBS
        )


def random_stutter_component(rng: random.Random) -> MarkovChain:
    """One stutter cycle through n members observing 0, with more stutter
    moves (self-loops, and moves drawn twice into one state) and exits to up
    to three states observing something else, or none at all."""
    n = rng.randint(2, 40)
    exits = rng.choice([0, 1, 3])
    edges = []
    for x in range(n):
        row = {(x + 1) % n: rng.random()}
        for _ in range(rng.randint(0, 4)):
            y = rng.choice([x, rng.randrange(n)])
            row[y] = row.get(y, 0.0) + rng.random()
        if exits and rng.random() < 0.5:
            t = n + rng.randrange(exits)
            row[t] = row.get(t, 0.0) + rng.random()
        total = sum(row.values())
        edges.append({y: w / total for y, w in row.items()})
    states = [(0,)] * n + [(t,) for t in range(1, exits + 1)]
    return mk("dtmc", states, edges + [{}] * exits, init=rng.randrange(n))


def test_jump_chain_solves_stutter_cycles_like_the_reference():
    rng = random.Random(15)
    for _ in range(300):
        _reference_jump_chain(random_stutter_component(rng), OBS)


def stutter_component(n: int, moves, leave: float = 0.1) -> MarkovChain:
    """Members 0..n-1 observing 0, each moving to ``moves(x)`` in equal
    shares of 1 - ``leave``; member 0 leaves to state n, the others to n+1."""
    edges = []
    for x in range(n):
        row = dict.fromkeys(moves(x), (1.0 - leave) / len(moves(x)))
        row[n if x == 0 else n + 1] = leave
        edges.append(row)
    return mk("dtmc", [(0,)] * n + [(1,), (2,)], edges + [{}, {}])


RING, LONG_RING, SIDE = 2900, 6000, 53


def ring_moves(n: int):
    return lambda x: [(x + 1) % n]


def torus_moves(x: int) -> list[int]:
    row, col = divmod(x, SIDE)
    return [((row + dr) % SIDE) * SIDE + (col + dc) % SIDE
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))]


@pytest.mark.parametrize("n, ring", [(RING, True), (LONG_RING, True), (SIDE * SIDE, False)],
                         ids=["ring", "long-ring", "torus"])
def test_jump_chain_solves_a_sparse_cycle_quickly(n, ring):
    # a cycle's member count is no limit: the ring adds one entry per
    # elimination, the torus 100,488 entries in 3.9 million multiply-adds
    start = time.perf_counter()
    got = jump_chain(stutter_component(n, ring_moves(n) if ring else torus_moves), OBS)
    assert time.perf_counter() - start < 5.0
    row = got.edges[0]
    assert sorted(got.states[t] for t in row) == [(1,), (2,)]
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)
    if ring:  # member 0 leaves at once, or after a full turn
        assert row[got.states.index((1,))] == pytest.approx(0.1 / (1 - 0.9**n), abs=1e-12)


CUBE = 14
# a random cycle: each member moves on round the ring and to two others
_rng = random.Random(3)
RANDOM_MOVES = [[(x + 1) % RING, _rng.randrange(RING), _rng.randrange(RING)] for x in range(RING)]


def cube_moves(x: int) -> list[int]:
    layer, rest = divmod(x, CUBE * CUBE)
    row, col = divmod(rest, CUBE)
    return [((layer + dl) % CUBE * CUBE + (row + dr) % CUBE) * CUBE + (col + dc) % CUBE
            for dl, dr, dc in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]


@pytest.mark.parametrize("n, moves", [(CUBE**3, cube_moves), (RING, RANDOM_MOVES.__getitem__)],
                         ids=["torus3", "random"])
def test_jump_chain_stops_a_cycle_past_the_fill_in_limit_quickly(n, moves):
    # eliminating either makes rows dense
    chain = stutter_component(n, moves)
    start = time.perf_counter()
    with pytest.raises(StutterGroupTooLarge, match=f"group of {n} states .* fill-in limit") as exc:
        jump_chain(chain, OBS)
    assert time.perf_counter() - start < 5.0
    assert exc.value.exit_code == 3


def test_jump_chain_stops_a_densely_linked_cycle_past_the_work_limit_quickly():
    # every member moves to every other, so eliminating adds no entry, but
    # each elimination takes a multiply-add per live predecessor and stay
    n = 400
    chain = stutter_component(n, lambda x: [y for y in range(n) if y != x])
    start = time.perf_counter()
    with pytest.raises(StutterGroupTooLarge, match=f"group of {n} states .* work limit of "
                       f"{equivalence.MAX_SOLVE_WORK} multiply-adds in its solve") as exc:
        jump_chain(chain, OBS)
    assert time.perf_counter() - start < 5.0
    assert exc.value.exit_code == 3


def test_jump_chain_stops_a_cycle_with_many_exit_rows_past_the_work_limit_quickly():
    # each member of a ring leaves to a state of its own, so every member's
    # exit row names all n of them: back-substitution would write n * n
    # entries, and its multiply-adds count before it starts
    n = 4000
    edges = [{(x + 1) % n: 0.9, n + x: 0.1} for x in range(n)] + [{}] * n
    chain = mk("dtmc", [(0,)] * n + [(1,)] * n, edges)
    start = time.perf_counter()
    with pytest.raises(StutterGroupTooLarge, match=f"group of {n} states .* work limit") as exc:
        jump_chain(chain, OBS)
    assert time.perf_counter() - start < 5.0
    assert exc.value.exit_code == 3


def stutter_path(n: int) -> MarkovChain:
    """n stutter states in a row, each also leaving to a state of its own."""
    edges = [{x + 1: 0.9, n + x: 0.1} for x in range(n - 1)] + [{2 * n - 1: 1.0}]
    return mk("dtmc", [(0,)] * n + [(1,)] * n, edges + [{}] * n)


def test_jump_chain_stops_a_stutter_path_with_many_exit_rows_quickly():
    # no state of the path is in a cycle, so nothing is solved, but each
    # state's exit row adds up its successor's: n * n / 2 entries in all
    start = time.perf_counter()
    with pytest.raises(StutterGroupTooLarge, match=f"group of .* states .* limit of "
                       f"{equivalence.MAX_FILL_IN} entries added along its stutter moves") as exc:
        jump_chain(stutter_path(4000), OBS)
    assert time.perf_counter() - start < 5.0
    assert exc.value.exit_code == 3
    row = jump_chain(stutter_path(600), OBS).edges[0]
    assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the source chain has interactions only
# ---------------------------------------------------------------------------


def test_verify_end_arm_is_certified(data_text):
    # an ended arm offers no action, as a branch that ends does, so the
    # choice is strongly connected and no sconn finding is made
    report = verify_projection(load_program(data_text("end_arm.chor")))
    assert report["sconn"] is True
    assert report["equivalent"] is True
    assert not [f for f in report["findings"] if f.startswith("sconn:")]


def test_verify_annot_ok_is_certified(data_text):
    report = verify_projection(load_program(data_text("annot_ok.chor")))
    assert (report["sconn"], report["equivalent"], report["findings"]) == (True, True, [])


def _weights(prog):
    return {
        eval_weight(b.weight, prog.constants)
        for body in prog.defs.values()
        for t in subterms(body) if isinstance(t, Interaction)
        for b in t.branches
    }


# every fixture with no weight-1 branch, which collapse could read as a
# bookkeeping move; thinkteam.chor's chain overflows a variable, and the
# three cycle fixtures lead into a cycle with no action, so no chain
NO_WEIGHT_ONE = [
    name for name in FIXTURES
    if name not in ("thinkteam.chor", "cond_cycle.chor", "cond_cycle_unreached.chor",
                    "entry_cycle.chor")
    and 1.0 not in _weights(load_program(DATA.joinpath(name).read_text(encoding="utf-8")))
]


def _is_its_own_collapse(prog):
    chain = build_chain(prog)
    assert 1.0 not in _weights(prog)
    assert collapse(chain, tuple(d.name for d in prog.var_decls)).num_states == chain.num_states


def test_source_chain_is_its_own_collapse_on_the_benchmark_shapes(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "benchmarks"))
    workloads = importlib.import_module("workloads")
    stages = load_program(workloads.stages_text(40, 1, random.Random(1)))
    grid = load_program(GRID_19)
    _is_its_own_collapse(stages)
    _is_its_own_collapse(grid)
    assert (build_chain(grid).num_states, build_chain(stages).num_states) == (400, 80)


@pytest.mark.parametrize("name", NO_WEIGHT_ONE)
def test_source_chain_is_its_own_collapse_on_fixtures(name, data_text):
    _is_its_own_collapse(load_program(data_text(name)))
