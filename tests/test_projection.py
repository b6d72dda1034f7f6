"""Endpoint projection: counter allocation, per-role commands, and the
reset-fusion cleanup pass."""

from __future__ import annotations

import pathlib

import pytest

from chorprism import (
    NotStronglyConnected,
    auto_annotate,
    build_chain,
    build_network_chain,
    collapse,
    bisimilar,
    fuse_resets,
    load_program,
    project,
    proj_update,
    verify_projection,
)
from chorprism.prism import PrismCommand, PrismModule, alphabet
from chorprism.projection import alloc_defs
from chorprism.sugar import branch_label
from chorprism.syntax import Assign, Binary, Lit, Var, VarDecl, subterms, Interaction


def load(data_text, name, kind=None):
    prog = load_program(data_text(name))
    if kind:
        import dataclasses

        prog = dataclasses.replace(prog, kind=kind)
    return auto_annotate(prog)


def guard_slot(cmd):
    """Counter value in the leftmost equality of the guard."""
    g = cmd.guard
    while isinstance(g, Binary) and g.op == "and":
        g = g.left
    assert isinstance(g, Binary) and g.op == "="
    return g.right.value


def counter_targets(cmd, counter):
    return [
        a.expr.value for _, upd in cmd.alts for a in upd if a.var == counter
    ]


def module_of(net, name):
    (m,) = [m for m in net if m.name == name]
    return m


# ---------------------------------------------------------------------------
# allocation
# ---------------------------------------------------------------------------

def test_slot_allocation_puts_the_entry_first(data_text):
    prog = load(data_text, "thinkteam.chor")
    ctx = alloc_defs(prog)
    assert ctx.defs_start == {"C0": 0, "C1": 3, "C2": 5}
    assert ctx.counter_max == 7
    assert ctx.counter_var == {
        "CheckOut": "CheckOut_STATE",
        "User1": "User1_STATE",
        "User2": "User2_STATE",
    }


def test_counter_names_dodge_declared_variables():
    src = (
        "ctmc;\nrole p, q;\n"
        "var p_STATE @ p : [0..1] init 0;\n"
        "def M = p -> q : { rate 1 : {p_STATE'=1}; end };\nmain M;\n"
    )
    ctx = alloc_defs(auto_annotate(load_program(src)))
    assert ctx.counter_var["p"] == "p_STATE_"
    assert ctx.counter_var["q"] == "q_STATE"


def test_branch_labels_come_from_annotations_or_source(data_text):
    prog = load(data_text, "thinkteam.chor")
    net, _ = project(prog)
    assert [branch_label(prog.defs["C0"], j) for j in (0, 1)] == ["MMHOL", "FFSFW"]
    assert [branch_label(prog.defs["C2"], j) for j in (0, 1)] == ["YHHWG", "XWSAO"]
    # every label the network synchronizes on is one written in the source
    assert alphabet(net) == {"MMHOL", "FFSFW", "ULCFN", "YHHWG", "XWSAO"}


# ---------------------------------------------------------------------------
# update splitting
# ---------------------------------------------------------------------------

def test_proj_update_keeps_own_assignments_in_order(data_text):
    prog = load(data_text, "example2.chor")
    upd = prog.defs["C"].branches[0].update
    assert proj_update(upd, "p", prog) == (Assign("x", Lit(1)),)
    assert proj_update(upd, "q", prog) == (Assign("y", Lit(2)),)
    assert proj_update((), "p", prog) == ()


def test_proj_update_distributes_over_concatenation(data_text):
    prog = load(data_text, "example2.chor")
    u1 = prog.defs["C"].branches[0].update
    u2 = prog.defs["C"].branches[1].update
    for role in ("p", "q"):
        assert proj_update(u1 + u2, role, prog) == (
            proj_update(u1, role, prog) + proj_update(u2, role, prog)
        )


# ---------------------------------------------------------------------------
# continuous-time projection
# ---------------------------------------------------------------------------

def test_recursive_exchange_projects_to_four_commands_per_role(data_text):
    prog = load(data_text, "example2.chor")
    net, ctx = project(prog)
    ann = prog.defs["C"].annotation

    p = module_of(net, "p")
    assert [d.name for d in p.var_decls] == ["p_STATE", "x"]
    assert p.var_decls[0].lo == 0 and p.var_decls[0].hi == 2
    assert len(p.commands) == 4
    send1, send2, reset1, reset2 = p.commands

    assert send1.label == f"{ann}_1"
    assert guard_slot(send1) == 0
    assert send1.alts == ((Var("lambda1"), (Assign("x", Lit(1)), Assign("p_STATE", Lit(1)))),)

    assert send2.label == f"{ann}_2"
    assert guard_slot(send2) == 0
    assert send2.alts == ((Var("lambda2"), (Assign("x", Lit(3)), Assign("p_STATE", Lit(2)))),)

    assert (reset1.label, reset2.label) == (None, None)
    assert [guard_slot(c) for c in (reset1, reset2)] == [1, 2]
    assert reset1.alts == ((Lit(1), (Assign("p_STATE", Lit(0)),)),)
    assert reset2.alts == ((Lit(1), (Assign("p_STATE", Lit(0)),)),)

    # the receiver mirrors the structure with weight 1 and its own update
    q = module_of(net, "q")
    recv1, recv2, qr1, qr2 = q.commands
    assert recv1.label == f"{ann}_1" and recv2.label == f"{ann}_2"
    assert recv1.alts == ((Lit(1), (Assign("y", Lit(2)), Assign("q_STATE", Lit(1)))),)
    assert recv2.alts == ((Lit(1), (Assign("y", Lit(1)), Assign("q_STATE", Lit(2)))),)
    assert [guard_slot(c) for c in (recv1, recv2, qr1, qr2)] == [0, 0, 1, 2]


def test_two_message_projection_chains_slots(data_text):
    prog = load(data_text, "example1.chor")
    net, _ = project(prog)
    p = module_of(net, "p")
    assert [guard_slot(c) for c in p.commands] == [0, 1]
    assert [counter_targets(c, "p_STATE") for c in p.commands] == [[1], [2]]
    # the final slot is inaction: nothing is guarded on it
    assert all(guard_slot(c) != 2 for c in p.commands)


def test_conditional_projects_to_silent_hops_of_the_decider(data_text):
    prog = load(data_text, "annot_ok.chor")
    net, ctx = project(prog, require_sconn=False)
    p = module_of(net, "p")
    decided = [
        c for c in p.commands
        if c.label is None and isinstance(c.guard, Binary) and c.guard.op == "and"
    ]
    # one hop for the then-arm, one for the else-arm
    assert len(decided) == 2
    then_hop, else_hop = decided
    cond = prog.defs["Main"].branches[1].cont
    assert then_hop.guard.right == cond.guard
    from chorprism.syntax import Unary

    assert else_hop.guard.right == Unary("not", cond.guard)
    # uninvolved roles do not move for the decision
    r = module_of(net, "r")
    assert all(not (c.label is None and isinstance(c.guard, Binary) and c.guard.op == "and")
               for c in r.commands)


def test_all_roles_hop_on_calls(data_text):
    prog = load(data_text, "sconn_pos.chor")
    net, ctx = project(prog)
    for m in net:
        counter = m.var_decls[0].name
        calls = [
            c for c in m.commands
            if c.label is None and counter_targets(c, counter) == [0]
        ]
        # X recurses twice: once in each branch, and every role follows
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# discrete-time projection
# ---------------------------------------------------------------------------

def test_discrete_initiator_commits_internally_first(data_text):
    prog = load(data_text, "example2_dtmc.chor")
    net, ctx = project(prog)
    ann = prog.defs["C"].annotation
    assert ctx.counter_max == 4  # 1 head + 2 commitments + 2 call slots

    p = module_of(net, "p")
    assert len(p.commands) == 5
    commit = p.commands[0]
    assert commit.label is None
    assert guard_slot(commit) == 0
    assert commit.alts == (
        (Var("lambda1"), (Assign("p_STATE", Lit(1)),)),
        (Var("lambda2"), (Assign("p_STATE", Lit(2)),)),
    )
    offer1, offer2 = p.commands[1], p.commands[2]
    assert offer1.label == f"{ann}_1" and guard_slot(offer1) == 1
    assert offer1.alts == ((Lit(1), (Assign("x", Lit(1)), Assign("p_STATE", Lit(3)))),)
    assert offer2.label == f"{ann}_2" and guard_slot(offer2) == 2
    assert offer2.alts == ((Lit(1), (Assign("x", Lit(3)), Assign("p_STATE", Lit(4)))),)
    assert [guard_slot(c) for c in p.commands[3:]] == [3, 4]

    # receivers skip the commitment slots but respect the same arithmetic
    q = module_of(net, "q")
    assert len(q.commands) == 4
    recv1, recv2 = q.commands[0], q.commands[1]
    assert [guard_slot(recv1), guard_slot(recv2)] == [0, 0]
    assert counter_targets(recv1, "q_STATE") == [1]
    assert counter_targets(recv2, "q_STATE") == [2]


# ---------------------------------------------------------------------------
# whole-network invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name",
    [
        "example1.chor",
        "example2.chor",
        "example2_dtmc.chor",
        "thinkteam.chor",
        "sconn_pos.chor",
        "p2p.chor",
    ],
)
def test_labels_span_exactly_the_participants(name, data_text):
    prog = load(data_text, name)
    net, _ = project(prog, require_sconn=False)
    participant_count = {}
    for name_, body in prog.defs.items():
        for t in subterms(body):
            if isinstance(t, Interaction) and t.receivers:
                for j in range(len(t.branches)):
                    participant_count[branch_label(t, j)] = 1 + len(t.receivers)
    for lbl, expected in participant_count.items():
        carrying = [
            m.name for m in net
            if any(c.label == lbl for c in m.commands)
        ]
        assert len(carrying) == expected, lbl


def test_counter_slots_stay_inside_the_allocated_range(data_text):
    for name in ("example2.chor", "thinkteam.chor", "sconn_pos.chor", "p2p.chor"):
        prog = load(data_text, name)
        net, ctx = project(prog, require_sconn=False)
        for m in net:
            counter = m.var_decls[0].name
            assert (m.var_decls[0].lo, m.var_decls[0].hi) == (0, ctx.counter_max)
            for c in m.commands:
                assert 0 <= guard_slot(c) <= ctx.counter_max
                for t in counter_targets(c, counter):
                    assert 0 <= t <= ctx.counter_max


def test_self_messages_project_to_silent_commands(data_text):
    prog = load(data_text, "p2p.chor")
    net, _ = project(prog, require_sconn=False)
    assert alphabet(net) == frozenset()
    for m in net:
        assert all(c.label is None for c in m.commands)


@pytest.mark.parametrize("name, idle", [("idle_role.chor", "r"), ("constants.chor", "c1")])
def test_a_role_in_no_statement_gets_no_commands(name, idle, data_text):
    # a counter hop of its own would be a silent rate-1 move that collapse
    # cannot tell from the source's, and the verdict would be "not equivalent"
    prog = load(data_text, name)
    net, ctx = project(prog)
    m = module_of(net, idle)
    assert m.commands == ()
    # a counter that never moves is declared over its one value
    assert m.var_decls == (VarDecl(ctx.counter_var[idle], idle, 0, 0, 0),)
    assert all(other.commands for other in net if other is not m)
    assert verify_projection(prog)["equivalent"] is True


def test_a_role_gets_no_commands_where_it_acts_no_more(data_text):
    # r acts in M only, then idles in the loop N for good: N's call to
    # itself would be a silent rate-1 self-loop of r's counter
    prog = load(data_text, "idle_later.chor")
    net, ctx = project(prog)
    r = module_of(net, "r")
    assert [(c.label, guard_slot(c)) for c in r.commands] == [("A1_1", ctx.defs_start["M"])]
    # p and q act in N, so each keeps a hop into it from M and one from N
    assert [len([c for c in m.commands if c.label is None]) for m in net] == [2, 2, 0]
    report = verify_projection(prog)
    assert report["equivalent"] is True
    assert report["states"]["net_raw"] == 17


def test_projection_outside_the_fragment_is_refused(data_text):
    prog = load(data_text, "nonsconn.chor")
    with pytest.raises(NotStronglyConnected):
        project(prog)
    net, _ = project(prog, require_sconn=False)
    assert len(net) == 4


# ---------------------------------------------------------------------------
# reset fusion
# ---------------------------------------------------------------------------

def test_fusion_shrinks_the_dispatcher_module(data_text):
    prog = load(data_text, "thinkteam.chor")
    net, _ = project(prog)
    raw = module_of(net, "CheckOut")
    assert len(raw.commands) == 10
    assert [guard_slot(c) for c in raw.commands] == [0, 0, 1, 2, 3, 4, 5, 5, 6, 7]

    fused = module_of(fuse_resets(net), "CheckOut")
    assert len(fused.commands) == 5
    assert [c.label for c in fused.commands] == [
        "MMHOL", "FFSFW", "ULCFN", "YHHWG", "XWSAO",
    ]
    assert [guard_slot(c) for c in fused.commands] == [0, 0, 1, 2, 2]
    assert [counter_targets(c, "CheckOut_STATE") for c in fused.commands] == [
        [1], [2], [0], [1], [2],
    ]
    decl = fused.var_decls[0]
    assert (decl.lo, decl.hi) == (0, 2)


def test_fusion_is_idempotent_and_label_preserving(data_text):
    for name in ("example2.chor", "thinkteam.chor", "sconn_pos.chor"):
        net, _ = project(load(data_text, name))
        fused = fuse_resets(net)
        assert fuse_resets(fused) == fused
        assert alphabet(fused) == alphabet(net)


# every fixture but the two whose annotations clash, which project refuses
PROJECTED = sorted(
    p.name for p in (pathlib.Path(__file__).parent / "data").glob("*.chor")
    if p.name not in ("annot_dup.chor", "label_clash.chor")
)


@pytest.mark.parametrize("name", PROJECTED)
def test_every_fused_counter_holds_only_the_values_its_module_uses(name, data_text):
    net, _ = project(load(data_text, name), require_sconn=False)
    for m in fuse_resets(net):
        decl = m.var_decls[0]
        used = {decl.init}
        for c in m.commands:
            used.add(guard_slot(c))
            used.update(counter_targets(c, decl.name))
        assert used == set(range(decl.hi + 1)), m.name


def test_fusion_renumbers_a_module_with_no_hop(data_text):
    # r's one command moves its counter from M's slot to M's continuation,
    # so the fused counter holds those two values
    net, _ = project(load(data_text, "idle_later.chor"))
    fused = fuse_resets(net)
    r = module_of(fused, "r")
    assert [(c.label, guard_slot(c), counter_targets(c, "r_STATE")) for c in r.commands] == [
        ("A1_1", 0, [1])
    ]
    assert r.var_decls[0] == VarDecl("r_STATE", "r", 0, 0, 1)
    # a module with no hop, already numbered densely, is kept as it is
    assert all(again is m for again, m in zip(fuse_resets(fused), fused))


def test_fusion_preserves_behaviour(data_text):
    for name in ("example2.chor", "dispatcher.chor"):
        prog = load(data_text, name)
        net, _ = project(prog)
        obs = tuple(d.name for d in prog.var_decls)
        raw = collapse(build_network_chain(net, prog.kind, prog.constants), obs)
        slim = collapse(
            build_network_chain(fuse_resets(net), prog.kind, prog.constants), obs
        )
        same, _ = bisimilar(raw, slim, obs)
        assert same, name


def test_fusion_can_change_the_verdict(data_text):
    # verify checks the unfused network; on sconn_pos.chor that network is
    # not equivalent to the source, while the fused one is
    prog = load(data_text, "sconn_pos.chor")
    net, _ = project(prog)
    obs = tuple(d.name for d in prog.var_decls)
    source = collapse(build_chain(prog), obs)

    def matches_source(n):
        chain = collapse(build_network_chain(n, prog.kind, prog.constants), obs)
        return bisimilar(source, chain, obs)[0]

    assert not matches_source(net)
    assert matches_source(fuse_resets(net))


def hop_module(*moves, hi):
    """Module ``p`` over its counter ``p_STATE`` in [0..hi], with one
    weight-1 command per ``(label, slot, target)``, guarded by the bare test
    of its slot: with label None, the shape of a call's projection."""
    c = "p_STATE"
    return PrismModule("p", (VarDecl(c, "p", 0, 0, hi),), tuple(
        PrismCommand(label, Binary("=", Var(c), Lit(at)), ((Lit(1), (Assign(c, Lit(to)),)),))
        for label, at, to in moves
    ))


def test_fusion_keeps_pure_counter_cycles():
    # no role acts on the call cycle L <-> L2, so projection gives it no hops
    src = (
        "ctmc;\nrole p, q;\n"
        "def M = p -> q : { rate 1 : {}; L };\n"
        "def L = L2;\ndef L2 = L;\n"
        "main M;\n"
    )
    prog = auto_annotate(load_program(src))
    net, _ = project(prog, require_sconn=False)
    assert [[c.label for c in m.commands] for m in net] == [["A1_1"], ["A1_1"]]
    # a pure reset cycle, as those calls would project to, survives fusion:
    # fusing it away entirely would leave dangling targets
    m = hop_module(("A1_1", 0, 1), (None, 1, 2), (None, 2, 3), (None, 3, 2), hi=3)
    (fused,) = fuse_resets((m,))
    # the hops at slots 2 and 3 stay as a two-command cycle
    silent = [c for c in fused.commands if c.label is None]
    assert len(silent) == 2


def test_fusion_follows_a_chain_of_resets():
    # M's continuation calls A, which calls B, which calls M: three resets
    # in a row, all fused into one jump back to slot 0
    src = (
        "ctmc;\nrole p, q;\nvar x @ q : [0..1] init 0;\n"
        "def M = p -> q : { rate 2 : {x'=1-x}; A };\n"
        "def A = B;\ndef B = M;\n"
        "main M;\n"
    )
    net, _ = project(auto_annotate(load_program(src)))
    for m in net:
        assert (m.var_decls[0].lo, m.var_decls[0].hi) == (0, 3)
    for m in fuse_resets(net):
        counter = m.var_decls[0]
        assert (counter.init, counter.lo, counter.hi) == (0, 0, 0)
        assert [c.label for c in m.commands] == ["A1_1"]
        assert counter_targets(m.commands[0], counter.name) == [0]


def test_fusion_ends_a_chain_at_the_entry_of_a_cycle():
    # L -> L2 -> L3 -> L2: the hop from L is fused into the jump onto L2,
    # and the L2 <-> L3 cycle stays
    src = (
        "ctmc;\nrole p, q;\n"
        "def M = p -> q : { rate 1 : {}; L };\n"
        "def L = L2;\ndef L2 = L3;\ndef L3 = L2;\n"
        "main M;\n"
    )
    net, ctx = project(auto_annotate(load_program(src)), require_sconn=False)
    assert [ctx.defs_start[n] for n in ("L", "L2", "L3")] == [2, 3, 4]
    # no role acts from L on, so projection gives none of these calls a hop
    assert [c.label for c in module_of(net, "p").commands] == ["A1_1"]
    m = hop_module(("A1_1", 0, 1), (None, 1, 2), (None, 2, 3), (None, 3, 4), (None, 4, 3), hi=4)
    (p,) = fuse_resets((m,))
    assert [(c.label, guard_slot(c), counter_targets(c, "p_STATE")) for c in p.commands] == [
        ("A1_1", 0, [1]),
        (None, 1, [2]),
        (None, 2, [1]),
    ]
    assert p.var_decls[0].hi == 2


def test_fusion_keeps_a_reset_that_shares_its_slot():
    # at slot 0 the reset races a labelled command, so it is a choice, not
    # plumbing; only the reset alone at slot 1 goes
    def at(v):
        return Binary("=", Var("s"), Lit(v))

    def goto(v):
        return ((Lit(1), (Assign("s", Lit(v)),)),)

    m = PrismModule(
        "p",
        (VarDecl("s", "p", 0, 0, 2, False),),
        (
            PrismCommand(None, at(0), goto(1)),
            PrismCommand("a", at(0), goto(2)),
            PrismCommand(None, at(1), goto(2)),
            PrismCommand("b", at(2), goto(0)),
        ),
    )
    (fused,) = fuse_resets((m,))
    assert fused.commands == (
        PrismCommand(None, at(0), goto(1)),
        PrismCommand("a", at(0), goto(1)),
        PrismCommand("b", at(1), goto(0)),
    )
