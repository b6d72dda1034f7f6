"""Guarded-command networks: composition, command derivation, the
per-command transition weight, and joint-chain exploration, compared with
the tree-walking reference semantics of ``tests/nets.py``."""

from __future__ import annotations

import itertools
import pathlib
import random

import pytest

from chorprism import (
    ChorError,
    EvalError,
    RangeViolation,
    StateBudgetExceeded,
    TypeMismatch,
    alphabet,
    auto_annotate,
    build_network_chain,
    derive_commands,
    load_program,
    project,
)
from chorprism import prism
from chorprism.cli import main
from chorprism.prism import PrismCommand, PrismModule, network_var_decls, split_tests
from chorprism.semantics import build_chain, eval_expr, override_initial
from chorprism.syntax import Assign, Binary, Lit, Unary, Var, VarDecl

from corpus import random_program_pair
from nets import eq, mu, oracle_chain, racing_pair, step_network, synced_pair


def decls_of(net):
    return {d.name: d for d in network_var_decls(net)}


# ---------------------------------------------------------------------------
# composition: each module synchronizes with the modules before it
# ---------------------------------------------------------------------------

def test_racing_pair_synchronizes_only_on_the_shared_label():
    p, q = racing_pair()
    cmds = derive_commands((p, q))
    assert alphabet((p, q)) == frozenset({"a"})
    # silent commands pass through, left module first; then the product
    assert [c.label for c in cmds] == [None, None, "a"]
    assert cmds[:2] == (p.commands[0], q.commands[0])
    assert cmds[2].guard == Binary("and", p.commands[1].guard, q.commands[1].guard)


def test_later_modules_synchronize_with_everything_before_them():
    def tiny(name, labels):
        """One silent command, then one command per label; each guard is
        a variable named after its module and label."""
        cmds = tuple(
            PrismCommand(l, Var(name + (l or "")), ((Lit(1), ()),))
            for l in [None, *labels]
        )
        return PrismModule(name, (), cmds)

    def g(*names):
        return Binary("and", *map(Var, names))

    cmds = derive_commands((tiny("m1", ["a", "b"]), tiny("m2", ["b", "c"]), tiny("m3", ["a", "c"])))
    # m2 pairs with m1 on b; m3 then pairs with what m1 and m2 derived on
    # a (from m1) and c (from m2), in label order
    assert [(c.label, c.guard) for c in cmds] == [
        (None, Var("m1")),
        (None, Var("m2")),
        ("b", g("m1b", "m2b")),
        (None, Var("m3")),
        ("a", g("m1a", "m3a")),
        ("c", g("m2c", "m3c")),
    ]


# ---------------------------------------------------------------------------
# command derivation
# ---------------------------------------------------------------------------

def test_derived_commands_of_the_racing_pair():
    net = tuple(racing_pair())
    cmds = derive_commands(net)
    assert len(cmds) == 3

    silent = [c for c in cmds if c.label is None]
    assert [c.guard for c in silent] == [eq("x", 0), eq("y", 0)]

    (combined,) = [c for c in cmds if c.label == "a"]
    assert combined.guard == Binary(
        "and", Binary("<", Var("y"), Lit(1)), Binary("<", Var("x"), Lit(1))
    )
    weights = [w for w, _ in combined.alts]
    assert weights == [Lit(0.2), Lit(0.2), Lit(0.3), Lit(0.3)]
    assert combined.alts[0][1] == (
        Assign("x", Binary("+", Var("x"), Lit(1))),
        Assign("y", Binary("+", Var("y"), Lit(1))),
    )
    assert combined.alts[3][1] == (Assign("x", Var("x")), Assign("y", Var("y")))


def test_derived_commands_of_the_synced_pair():
    modules, _ = synced_pair()
    cmds = derive_commands(tuple(modules))
    # four silent resets pass through, one product per shared label
    assert len(cmds) == 6
    by_label = {}
    for c in cmds:
        by_label.setdefault(c.label, []).append(c)
    assert len(by_label[None]) == 4

    (f1,) = by_label["a"]
    assert f1.guard == Binary("and", eq("s_p", 0), eq("s_q", 0))
    assert f1.alts == (
        (
            Binary("*", Var("mu1"), Var("gamma1")),
            (
                Assign("x", Lit(1)),
                Assign("s_p", Lit(1)),
                Assign("y", Lit(2)),
                Assign("s_q", Lit(1)),
            ),
        ),
    )

    (f2,) = by_label["b"]
    assert f2.alts[0][0] == Binary("*", Var("mu2"), Var("gamma2"))
    assert set(f2.alts[0][1]) == {
        Assign("x", Lit(3)),
        Assign("y", Lit(1)),
        Assign("s_p", Lit(2)),
        Assign("s_q", Lit(2)),
    }


def test_product_alternatives_multiply_out():
    def module(name, var, weights):
        alts = tuple((Lit(w), (Assign(var, Lit(i)),)) for i, w in enumerate(weights))
        return PrismModule(
            name,
            (VarDecl(var, name, 0, 0, len(weights)),),
            (PrismCommand("a", Lit(True), alts),),
        )

    m1 = module("m1", "u", [1, 2])
    m2 = module("m2", "v", [3, 4, 5])
    m3 = module("m3", "w", [6, 7])
    cmds = derive_commands((m1, m2, m3))
    assert len(cmds) == 1
    (c,) = cmds
    assert len(c.alts) == 2 * 3 * 2
    assert c.guard == Binary("and", Binary("and", Lit(True), Lit(True)), Lit(True))
    # weights multiply pairwise, left organized outermost
    values = [w.value for w, _ in c.alts]
    assert values == [
        lw * mw * rw for lw in (1, 2) for mw in (3, 4, 5) for rw in (6, 7)
    ]


def test_weight_one_literals_fold_away():
    left = PrismCommand("a", Lit(True), ((Lit(1), ()),))
    right = PrismCommand("a", Lit(True), ((Var("r"), ()),))
    m1 = PrismModule("m1", (), (left,))
    m2 = PrismModule("m2", (), (right,))
    (c,) = derive_commands((m1, m2))
    assert c.alts[0][0] == Var("r")  # 1 * r stays r, not Binary("*")


# ---------------------------------------------------------------------------
# per-command transition weight
# ---------------------------------------------------------------------------

def racing_states():
    s0 = {"x": 0, "y": 0}
    s1 = {"x": 1, "y": 0}
    s2 = {"x": 0, "y": 1}
    s3 = {"x": 1, "y": 1}
    return s0, s1, s2, s3


def test_mu_on_the_racing_pair():
    net = tuple(racing_pair())
    decl_of = decls_of(net).__getitem__
    cmds = derive_commands(net)
    silent_x, silent_y = [c for c in cmds if c.label is None]
    (f,) = [c for c in cmds if c.label == "a"]
    s0, s1, s2, s3 = racing_states()

    assert mu(silent_x, s0, s1, decl_of, {}) == 1
    assert mu(silent_y, s0, s2, decl_of, {}) == 1
    assert mu(f, s0, s1, decl_of, {}) == pytest.approx(0.2)
    assert mu(f, s0, s2, decl_of, {}) == pytest.approx(0.3)
    assert mu(f, s0, s0, decl_of, {}) == pytest.approx(0.3)
    assert mu(f, s0, s3, decl_of, {}) == pytest.approx(0.2)
    # guard false: x<1 & y<1 fails at s3
    assert mu(f, s3, s3, decl_of, {}) == 0.0


def test_raw_transition_weights_sum_over_commands():
    net = tuple(racing_pair())
    decl_of = decls_of(net).__getitem__
    cmds = derive_commands(net)
    s0, s1, s2, s3 = racing_states()

    def total(src, dst):
        return sum(mu(c, src, dst, decl_of, {}) for c in cmds)

    assert total(s0, s1) == pytest.approx(1.2)
    assert total(s0, s2) == pytest.approx(1.3)
    assert total(s0, s0) == pytest.approx(0.3)
    assert total(s0, s3) == pytest.approx(0.2)


def test_mu_is_additive_over_alternatives():
    # when the guard holds, the weights into all successors sum to the
    # command's total weight, whatever the overlaps between alternatives
    rng = random.Random(20240817)
    decls = {"u": VarDecl("u", "m", 0, 0, 5)}
    for _ in range(25):
        alts = tuple(
            (Lit(rng.randint(1, 4)), (Assign("u", Lit(rng.randint(0, 5))),))
            for _ in range(rng.randint(1, 4))
        )
        cmd = PrismCommand(None, Lit(True), alts)
        src = {"u": rng.randint(0, 5)}
        successors = [dict(src, u=a[1][0].expr.value) for a in alts]
        seen = []
        acc = 0.0
        for dst in successors:
            if dst in seen:
                continue
            seen.append(dst)
            acc += mu(cmd, src, dst, decls.__getitem__, {})
        assert acc == pytest.approx(sum(w.value for w, _ in alts))


# ---------------------------------------------------------------------------
# network chains
# ---------------------------------------------------------------------------

def test_racing_pair_dtmc_chain_normalizes():
    net = tuple(racing_pair())
    c = build_network_chain(net, "dtmc", {})
    assert c.var_names == ("x", "y")
    assert c.states[0] == (0, 0)
    out = c.edges[0]
    by_val = {c.states[t]: w for t, w in out.items()}
    assert by_val[(1, 0)] == pytest.approx(1.2 / 3)
    assert by_val[(0, 1)] == pytest.approx(1.3 / 3)
    assert by_val[(0, 0)] == pytest.approx(0.1)
    assert by_val[(1, 1)] == pytest.approx(0.2 / 3)
    assert any("dtmc_renormalized" in f and "mass 3" in f for f in c.findings)
    # every row of a discrete chain is a distribution
    for row in c.edges:
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_racing_pair_ctmc_chain_keeps_raw_weights():
    net = tuple(racing_pair())
    c = build_network_chain(net, "ctmc", {})
    by_val = {c.states[t]: w for t, w in c.edges[0].items()}
    assert by_val[(1, 0)] == pytest.approx(1.2)
    assert by_val[(0, 1)] == pytest.approx(1.3)
    assert by_val[(0, 0)] == pytest.approx(0.3)
    assert by_val[(1, 1)] == pytest.approx(0.2)
    assert c.findings == []
    assert c.edges[3] == {}  # continuous chains do not self-absorb


def test_synced_pair_steps_with_multiplied_rates():
    modules, constants = synced_pair()
    net = tuple(modules)
    init = override_initial(network_var_decls(net), None)
    moves = {tuple(sorted(v.items())): w for v, w in step_network(net, init, "ctmc", constants)}
    assert len(moves) == 2
    a_move = tuple(sorted({"s_p": 1, "x": 1, "s_q": 1, "y": 2}.items()))
    b_move = tuple(sorted({"s_p": 2, "x": 3, "s_q": 2, "y": 1}.items()))
    assert moves[a_move] == pytest.approx(2.0)  # mu1 * gamma1
    assert moves[b_move] == pytest.approx(3.0)  # mu2 * gamma2


def test_synced_pair_chain_loops_back():
    modules, constants = synced_pair()
    c = build_network_chain(tuple(modules), "ctmc", constants)
    # 0: fresh, 2 post-message states, 2 reset diamonds of 2 states each,
    # finally the two settled states that re-branch
    assert c.states[0] == (0, 0, 0, 0)
    assert c.num_states == 9
    for row in c.edges:
        assert row  # the protocol never deadlocks


def test_deadlocked_discrete_network_self_loops():
    m = PrismModule(
        "m",
        (VarDecl("u", "m", 0, 0, 1),),
        (PrismCommand(None, eq("u", 1), ((Lit(1), (Assign("u", Lit(0)),)),)),),
    )
    c = build_network_chain((m,), "dtmc", {})
    assert c.edges[0] == {0: 1.0}
    assert c.findings == []


def test_initial_valuation_overrides_are_validated():
    modules, _ = synced_pair()
    decls = network_var_decls(tuple(modules))
    val = override_initial(decls, {"x": 2})
    assert val["x"] == 2 and val["s_p"] == 0
    with pytest.raises(RangeViolation):
        override_initial(decls, {"x": 99})
    with pytest.raises(EvalError):
        override_initial(decls, {"nope": 1})


# ---------------------------------------------------------------------------
# the compiled explorer against the tree-walking oracle
# ---------------------------------------------------------------------------

def outcome(build, net, kind, constants, **kw):
    """Everything a chain build yields, edge insertion order included, or
    the class and message of the error it raised."""
    try:
        c = build(net, kind, constants, **kw)
    except ChorError as e:
        return type(e), str(e)
    return c.var_names, c.states, [list(row.items()) for row in c.edges], c.findings


def assert_same_as_oracle(net, kind, constants, **kw):
    got = outcome(build_network_chain, net, kind, constants, **kw)
    assert got == outcome(oracle_chain, net, kind, constants, **kw)
    return got


@pytest.mark.parametrize("seed", range(200))
def test_compiled_matches_oracle_on_random_programs(seed):
    for prog in random_program_pair(random.Random(seed)):
        net, _ = project(auto_annotate(prog))
        got = assert_same_as_oracle(net, prog.kind, prog.constants)
        assert isinstance(got[1], list)  # a chain, not an error


# annot_dup.chor and label_clash.chor are rejected before projection, so
# they have no network
FIXTURES = sorted(
    p.name for p in (pathlib.Path(__file__).parent / "data").glob("*.chor")
    if p.name not in ("annot_dup.chor", "label_clash.chor")
)


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
@pytest.mark.parametrize("name", FIXTURES)
def test_compiled_matches_oracle_on_fixtures(name, kind, data_text):
    # the network is explored in both kinds, whatever kind it was projected in
    prog = auto_annotate(load_program(data_text(name)))
    net, _ = project(prog, require_sconn=False)
    assert_same_as_oracle(net, kind, prog.constants)


def mixed_guards_module() -> tuple[PrismModule, dict]:
    """Guards built from or, not and <, guards with no equality conjunct,
    constants on either side, a zero weight, and sequential updates."""
    s, u, b = Var("s"), Var("u"), Var("b")
    constants = {"K": 2.0, "lam": 3.0}
    cmds = (
        PrismCommand(
            None,
            Binary("and", eq("s", 0), Binary("or", Binary("<", u, Lit(2)), Unary("not", b))),
            (
                (Binary("/", Var("lam"), Lit(2)), (Assign("u", Binary("+", u, Lit(1))),)),
                (Lit(0), (Assign("u", Lit(99)),)),
                (Lit(1), (Assign("u", Binary("+", u, Lit(1))), Assign("s", Binary("/", u, Lit(2))))),
            ),
        ),
        PrismCommand(
            None,
            Binary("and", Unary("not", eq("s", 1)), Binary(">=", u, Lit(1))),
            ((Lit(0.5), (Assign("u", Binary("-", u, Lit(1))), Assign("b", Unary("not", b)))),),
        ),
        PrismCommand(
            "a",
            Binary("and", Binary("=", s, Var("K")), Binary("=", b, Lit(True))),
            ((Var("K"), (Assign("s", Lit(3)),)),),
        ),
        PrismCommand(None, Binary("or", b, Binary("=", u, Lit(4))), ((Lit(1), (Assign("s", Lit(0)),)),)),
        PrismCommand(None, Binary("<=", Binary("max", u, s), Var("K")), ((Lit(2), (Assign("s", Lit(1)),)),)),
    )
    decls = (
        VarDecl("s", "m", 0, 0, 3),
        VarDecl("u", "m", 0, 0, 4),
        VarDecl("b", "m", False, is_bool=True),
    )
    return PrismModule("m", decls, cmds), constants


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_compiled_matches_oracle_on_hand_written_nets(kind):
    assert_same_as_oracle(tuple(racing_pair()), kind, {})
    modules, constants = synced_pair()
    assert_same_as_oracle(tuple(modules), kind, constants)
    module, constants = mixed_guards_module()
    got = assert_same_as_oracle((module,), kind, constants)
    assert len(got[1]) > 5
    silent_only = PrismModule("m", racing_pair()[0].var_decls, racing_pair()[0].commands[:1])
    assert_same_as_oracle((silent_only,), kind, {})


def test_renormalization_finding_matches_oracle():
    _, _, _, findings = assert_same_as_oracle(tuple(racing_pair()), "dtmc", {})
    assert findings == ["dtmc_renormalized: outgoing probability mass 3 at state x=0,y=0"]


# ---------------------------------------------------------------------------
# revisited counter tuples: the planned moves against the oracle
# ---------------------------------------------------------------------------

def counter_tuples(*commands, hi=3):
    """A module over a counter ``p`` in [0..1], which every command tests
    leftmost, and an int ``x`` in [0..hi]; ``commands`` are (guard,
    alternatives) pairs. Every state with the same ``p`` has the same
    counter tuple, so in discrete mode a plan built at its first state
    serves it wherever no command keeps a guard past its counter test and
    its moves land on counter tuples that differ pairwise."""
    decls = (VarDecl("p", "m", 0, 0, 1), VarDecl("x", "m", 0, 0, hi))
    return (PrismModule("m", decls, tuple(PrismCommand(None, g, alts) for g, alts in commands)),)


X = Var("x")


def set_x(e):
    return (Assign("x", e),)


def up(e):  # x + 1, capped at 3
    return Binary("min", Binary("+", e, Lit(1)), Lit(3))


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_moves_of_a_revisited_tuple_into_one_state_add_up_before_dividing(kind):
    # at x = 2 and x = 3 the first two moves land on x = 3; in discrete
    # mode (0.1 + 0.2) / 0.4 and 0.1 / 0.4 + 0.2 / 0.4 differ in the last bit
    net = counter_tuples(
        (eq("p", 0), ((Lit(0.1), set_x(up(X))), (Lit(0.2), set_x(Lit(3))), (Lit(0.1), set_x(Lit(0))))),
    )
    got = assert_same_as_oracle(net, kind, {})
    assert got[1] == [(0, 0), (0, 1), (0, 3), (0, 2)]
    merged = dict(got[2][2])[2]
    assert merged == (0.30000000000000004 / 0.4 if kind == "dtmc" else 0.30000000000000004)


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_a_zero_weight_move_of_a_revisited_tuple_is_never_taken(kind):
    net = counter_tuples((eq("p", 0), ((Lit(0), set_x(Lit(3))), (Lit(1), set_x(Binary("min", up(X), Lit(2)))))))
    got = assert_same_as_oracle(net, kind, {})
    assert got[1] == [(0, 0), (0, 1), (0, 2)]


def test_the_renormalization_finding_names_the_first_state_breadth_first():
    # p = 0 moves to p = 1 with its whole mass; every state with p = 1
    # then sends 0.5 in all, so each is renormalized, the first of them
    # the one to report
    net = counter_tuples(
        (eq("p", 0), ((Lit(1), (Assign("p", Lit(1)),)),)),
        (eq("p", 1), ((Lit(0.25), set_x(up(X))), (Lit(0.25), set_x(Binary("max", Binary("-", X, Lit(1)), Lit(0)))))),
    )
    got = assert_same_as_oracle(net, "dtmc", {})
    assert got[1] == [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert got[3] == ["dtmc_renormalized: outgoing probability mass 0.5 at state p=1,x=0"]


def test_an_update_of_a_revisited_tuple_leaves_its_range_at_a_later_state():
    net = counter_tuples((eq("p", 0), ((Lit(1), set_x(Binary("+", X, Lit(1)))),)), hi=2)
    got = assert_same_as_oracle(net, "ctmc", {})
    assert got == (RangeViolation, "update x'=x + 1 assigns 3 to x, outside [0..2] at state p=0,x=2")


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_a_revisited_tuple_that_keeps_a_guard_tests_it_at_every_state(kind):
    net = counter_tuples(
        (conj(eq("p", 0), Binary("<", X, Lit(2))), ((Lit(0.5), set_x(Binary("+", X, Lit(1)))),)),
        (eq("p", 0), ((Lit(0.5), set_x(X)),)),
    )
    got = assert_same_as_oracle(net, kind, {})
    assert got[1] == [(0, 0), (0, 1), (0, 2)]


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_moves_whose_counter_is_computed_can_meet_after_the_plan_is_built(kind):
    # at p = 0 the first move counts x up and the next two leave, the second
    # to p = 2 while x <= 2 and to p = 1 from x = 3 on, where the third goes.
    # At (0, 0), the first state with p = 0, the three land on p = 0, 2 and 1;
    # at (0, 3) the last two meet at (1, 0). A proof that compared where the
    # moves land at the state that plans them would serve (0, 3) with the
    # weights divided before they add up
    decls = (VarDecl("p", "m", 0, 0, 2), VarDecl("x", "m", 0, 0, 3))
    late = Binary("min", Binary("max", Binary("-", X, Lit(2)), Lit(0)), Lit(1))
    alts = ((Lit(0.1), set_x(up(X))),
            (Lit(0.1), (Assign("p", Binary("-", Lit(2), late)), Assign("x", Lit(0)))),
            (Lit(0.2), (Assign("p", Lit(1)), Assign("x", Lit(0)))))
    net = (PrismModule("m", decls, (PrismCommand(None, eq("p", 0), alts),)),)
    got = assert_same_as_oracle(net, kind, {})
    assert got[1] == [(0, 0), (0, 1), (2, 0), (1, 0), (0, 2), (0, 3)]
    merged = dict(got[2][5])[3]
    assert merged == (0.30000000000000004 / 0.4 if kind == "dtmc" else 0.30000000000000004)
    assert merged != 0.1 / 0.4 + 0.2 / 0.4


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
@pytest.mark.parametrize("leave", [False, True])
def test_a_planned_tuple_spends_the_state_budget_where_the_oracle_does(kind, leave):
    # x counts up from 0 at p = 0, in discrete mode a one-move plan from
    # x = 0 on; with ``leave`` each state also moves to p = 1, a two-move plan
    alts = ((Lit(0.5), set_x(Binary("min", Binary("+", X, Lit(1)), Lit(7)))),)
    if leave:
        alts += ((Lit(0.5), (Assign("p", Lit(1)),)),)
    net = counter_tuples((eq("p", 0), alts), hi=7)
    spent = []
    for max_states in range(1, 18):
        got = assert_same_as_oracle(net, kind, {}, max_states=max_states)
        if got[0] is StateBudgetExceeded:
            spent.append(max_states)
    assert spent == list(range(1, 16 if leave else 8))


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_a_one_move_plan_lands_on_a_state_already_numbered(kind):
    # x cycles 0, 1, 2, 3 at p = 0; in discrete mode (0, 3), served by the
    # plan built at (0, 0), moves back to the initial state
    net = counter_tuples((eq("p", 0), ((Lit(1), set_x(Binary("mod", Binary("+", X, Lit(1)), Lit(4)))),)))
    got = assert_same_as_oracle(net, kind, {})
    assert got[1] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert got[2] == [[(1, 1.0)], [(2, 1.0)], [(3, 1.0)], [(0, 1.0)]]


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
@pytest.mark.parametrize("guarded", [False, True])
def test_an_error_of_a_later_move_wins_over_the_state_budget_as_in_the_oracle(kind, guarded):
    # at p = 0 one move leaves to p = 1 and one counts x up, which leaves
    # [0..3] at (0, 3), the seventh state. With a budget of 7 its first move
    # needs an eighth state, yet the oracle raises the second move's error,
    # since it steps a whole state before numbering what it reaches. In
    # discrete mode the tuple p = 0 is planned at (0, 0); ``guarded`` gives
    # the count its own command, whose guard keeps ``x >= 0``, so no plan
    # serves it
    leave, count = (Lit(0.5), (Assign("p", Lit(1)),)), (Lit(0.5), set_x(Binary("+", X, Lit(1))))
    if guarded:
        net = counter_tuples((eq("p", 0), (leave,)), (conj(eq("p", 0), Binary(">=", X, Lit(0))), (count,)))
    else:
        net = counter_tuples((eq("p", 0), (leave, count)))
    spent = []
    for max_states in range(1, 10):
        got = assert_same_as_oracle(net, kind, {}, max_states=max_states)
        if got[0] is StateBudgetExceeded:
            spent.append(max_states)
    assert spent == list(range(1, 7))
    assert got == (RangeViolation, "update x'=x + 1 assigns 4 to x, outside [0..3] at state p=0,x=3")


def test_a_planned_tuple_whose_mass_is_not_1_is_divided_as_in_the_oracle():
    # at p = 0 the weights 0.25 and 0.5 land on p = 0 and p = 1, so the plan
    # built at (0, 0) divides each by 0.75, and (0, 0) reports the mass
    net = counter_tuples((eq("p", 0), ((Lit(0.25), set_x(up(X))), (Lit(0.5), (Assign("p", Lit(1)),)))))
    got = assert_same_as_oracle(net, "dtmc", {})
    assert got[1] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (0, 3), (1, 2), (1, 3)]
    assert got[2][5] == [(5, 0.25 / 0.75), (7, 0.5 / 0.75)]
    assert got[3] == ["dtmc_renormalized: outgoing probability mass 0.75 at state p=0,x=0"]


# ---------------------------------------------------------------------------
# errors on the compiled path: same class and message as the oracle
# ---------------------------------------------------------------------------

def one_command(guard, update, weight=Lit(1), decls=None):
    """A module whose first command moves ``s`` from 0 to 1 and whose
    second is the one under test. Nothing ever writes ``z``, so ``z = 1``
    never holds: as a leftmost conjunct, it keeps the rest of the guard
    from ever being evaluated."""
    decls = decls or (VarDecl("s", "m", 0, 0, 1), VarDecl("z", "m", 0, 0, 1))
    return (PrismModule("m", decls, (
        PrismCommand(None, eq("s", 0), ((Lit(1), (Assign("s", Lit(1)),)),)),
        PrismCommand(None, guard, ((weight, update),)),
    )),)


def assert_raises_like_oracle(net, error, match, **kw):
    with pytest.raises(error, match=match):
        build_network_chain(net, "ctmc", {}, **kw)
    assert_same_as_oracle(net, "ctmc", {}, **kw)


def test_out_of_range_assignment_raises_range_violation():
    net = one_command(eq("s", 1), (Assign("z", Binary("+", Var("z"), Lit(5))),))
    assert_raises_like_oracle(net, RangeViolation, "assigns 5 to z, outside")


def test_an_error_names_the_network_state():
    # x leaves its range; the message names every network variable,
    # the role counters included
    prog = load_program(
        "ctmc; role p, q; var x @ p : [0..2] init 0;\n"
        "def C = p -> q : { rate 1 : {x'=x+1}; C }; main C;"
    )
    net, _ = project(auto_annotate(prog))
    got = assert_same_as_oracle(net, "ctmc", {})
    assert got == (RangeViolation, "update x'=x + 1 assigns 3 to x, outside [0..2] "
                                   "at state p_STATE=0,x=2,q_STATE=0")


@pytest.mark.parametrize("op, message", [("mod", "mod by zero"), ("/", "division by zero")])
def test_division_by_zero_raises_eval_error(op, message):
    # in a guard, where its leftmost conjunct holds
    guard = Binary("and", eq("s", 1), Binary("=", Binary(op, Var("s"), Var("z")), Lit(0)))
    assert_raises_like_oracle(one_command(guard, ()), EvalError, message)
    # behind a false leftmost conjunct the division is never evaluated
    guard = Binary("and", eq("z", 1), Binary("=", Binary(op, Var("s"), Var("z")), Lit(0)))
    assert assert_same_as_oracle(one_command(guard, ()), "ctmc", {})[1] == [(0, 0), (1, 0)]
    # ahead of a false conjunct it is, at the initial state already
    guard = Binary("and", Binary("=", Binary(op, Var("s"), Var("z")), Lit(0)), eq("z", 1))
    assert_raises_like_oracle(one_command(guard, ()), EvalError, message)
    # in an update, on reaching it
    update = (Assign("s", Binary(op, Lit(1), Var("z"))),)
    assert_raises_like_oracle(one_command(eq("s", 1), update), EvalError, message)
    # literal operands alone, but never reached: no error
    update = (Assign("s", Binary(op, Lit(1), Lit(0))),)
    assert assert_same_as_oracle(one_command(eq("z", 1), update), "ctmc", {})[1] == [(0, 0), (1, 0)]


@pytest.mark.parametrize("guard, message", [
    (Binary("+", Var("s"), Lit(1)), "command guard is not boolean"),
    (Binary("and", eq("s", 1), Var("s")), "'and' applied to non-bool value"),
    (Binary("and", eq("s", 1), Binary("<", Lit(True), Var("s"))), "'<' applied to bool value"),
])
def test_non_bool_guard_raises_type_mismatch(guard, message):
    assert_raises_like_oracle(one_command(guard, ()), TypeMismatch, message)


@pytest.mark.parametrize("op", ["and", "or"])
def test_a_deciding_left_operand_skips_the_right_one(op):
    # the right operand would raise; neither left operand is an equality,
    # so the command is evaluated at every state
    left = Binary(">" if op == "and" else "<", Var("z"), Lit(1))
    guard = Binary(op, left, Binary("<", Lit(True), Var("s")))
    net = one_command(guard, (Assign("s", Lit(0)),))
    assert assert_same_as_oracle(net, "ctmc", {})[1] == [(0, 0), (1, 0)]


def test_ill_typed_initial_value_raises_where_a_guard_reaches_it():
    # z starts as a bool although declared int: the guard raises once its
    # leftmost conjunct holds, and is skipped where that conjunct is false
    decls = (VarDecl("s", "m", 0, 0, 1), VarDecl("z", "m", True, 0, 1))
    guard = Binary("and", Binary("=", Var("s"), Lit(1)), Binary("<", Var("z"), Lit(1)))
    net = one_command(guard, (), decls=decls)
    assert_raises_like_oracle(net, TypeMismatch, "'<' applied to bool value")
    guard = Binary("and", Binary("=", Var("s"), Lit(7)), Binary("<", Var("z"), Lit(1)))
    got = assert_same_as_oracle(one_command(guard, (), decls=decls), "ctmc", {})
    assert got[1] == [(0, True), (1, True)]


def test_assignment_to_undeclared_variable_raises_eval_error():
    net = one_command(eq("s", 1), (Assign("nope", Lit(1)),))
    assert_raises_like_oracle(net, EvalError, "assignment to undeclared variable nope")


def test_bad_weight_raises_when_the_network_is_compiled():
    # a weight reads the constants alone, so it is evaluated once, before
    # any state is explored: a bad one raises even on a command never enabled
    for guard in (eq("s", 1), Binary("=", Var("z"), Lit(1))):
        net = one_command(guard, (), weight=Var("s"))
        with pytest.raises(EvalError, match="^unbound name s$"):
            build_network_chain(net, "ctmc", {})


def test_a_negative_weight_raises_when_the_network_is_compiled():
    # check refuses negative weights, so only a hand-built module has one;
    # it raises before any state is explored, even on a command never
    # enabled, and so never cancels a positive weight into no move
    for guard in (eq("s", 1), eq("z", 1)):
        net = one_command(guard, (), weight=Binary("-", Var("lam"), Lit(3)))
        with pytest.raises(EvalError, match="^negative weight lam - 3$"):
            build_network_chain(net, "ctmc", {"lam": 2.0})


@pytest.mark.parametrize("weight, text", [
    (Var("big"), "big"), (Binary("-", Var("big"), Var("big")), "big - big")], ids=["inf", "nan"])
def test_a_weight_that_is_not_finite_raises_when_the_network_is_compiled(weight, text):
    # as a negative weight does: check refuses it, and an infinite or NaN
    # weight has no distribution to divide or compare
    for guard in (eq("s", 1), eq("z", 1)):
        with pytest.raises(EvalError, match=f"^non-finite weight {text}$"):
            build_network_chain(one_command(guard, (), weight=weight), "ctmc", {"big": float("inf")})


def test_a_literal_assignment_that_fails_its_check_raises_only_where_reached():
    update = (Assign("z", Lit(5)),)  # z is declared over [0..1]
    got = assert_same_as_oracle(one_command(eq("z", 1), update), "ctmc", {})
    assert got[1] == [(0, 0), (1, 0)]
    assert_raises_like_oracle(one_command(eq("s", 1), update), RangeViolation,
                              r"^update z'=5 assigns 5 to z, outside \[0\.\.1\] at state s=1,z=0$")


def test_an_unbound_name_raises_at_the_state_that_reaches_it():
    message = "^unbound name nope at state s=1,z=0$"
    guard = Binary("and", eq("s", 1), Binary("<", Var("nope"), Lit(1)))
    assert_raises_like_oracle(one_command(guard, ()), EvalError, message)
    update = (Assign("s", Var("nope")),)
    assert_raises_like_oracle(one_command(eq("s", 1), update), EvalError, message)
    got = assert_same_as_oracle(one_command(eq("z", 1), update), "ctmc", {})
    assert got[1] == [(0, 0), (1, 0)]


def test_an_unknown_operator_raises_eval_error():
    bad = Binary("xor", Var("s"), Lit(1))
    with pytest.raises(EvalError, match="^unknown operator xor$"):
        eval_expr(bad, {"s": 0})
    message = "^unknown operator xor at state s=1,z=0$"
    assert_raises_like_oracle(one_command(Binary("and", eq("s", 1), bad), ()), EvalError, message)
    assert_raises_like_oracle(one_command(eq("s", 1), (Assign("z", bad),)), EvalError, message)


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_a_constant_reads_like_a_literal(kind):
    K, s, z = Var("K"), Var("s"), Var("z")
    constants = {"K": 2.0}
    # in a leading guard conjunct, and inside an update
    decls = (VarDecl("s", "m", 0, 0, 3), VarDecl("z", "m", 0, 0, 1))
    net = (PrismModule("m", decls, (
        PrismCommand(None, conj(Binary("=", s, K), eq("z", 0)), ((Lit(1), (Assign("z", Lit(1)),)),)),
        PrismCommand(None, Binary("<", s, Binary("+", K, Lit(1))), (
            (Lit(1), (Assign("s", Binary("mod", Binary("+", s, Lit(1)), Binary("+", K, Lit(1)))),)),
        )),
    )),)
    got = assert_same_as_oracle(net, kind, constants)
    assert got[1] == [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1), (1, 1)]
    # in a subexpression that raises, only where a state reaches it
    division = Binary("/", s, Binary("-", K, Lit(2)))
    for net in (one_command(conj(eq("z", 1), Binary(">", division, Lit(0))), ()),
                one_command(eq("z", 1), (Assign("s", division),))):
        assert assert_same_as_oracle(net, kind, constants)[1] == [(0, 0), (1, 0)]
    for net in (one_command(conj(eq("s", 1), Binary(">", division, Lit(0))), ()),
                one_command(eq("s", 1), (Assign("s", division),))):
        with pytest.raises(EvalError, match="^division by zero at state s=1,z=0$"):
            build_network_chain(net, kind, constants)
        assert_same_as_oracle(net, kind, constants)


def test_not_on_a_non_bool_raises_where_it_is_reached():
    net = one_command(Binary("and", eq("s", 1), Unary("not", Var("z"))), ())
    assert_raises_like_oracle(net, TypeMismatch, "^'not' applied to non-bool value at state")


def counter_module(guard, update=(), x_init=1):
    """A module with counters ``p`` and ``q``, which the first two commands
    make index slots by testing them leftmost (neither is ever enabled),
    a slot ``z`` that no command tests leftmost and that the third command
    sets to 1, an int ``x`` and the command under test, last."""
    decls = (
        VarDecl("p", "m", 0, 0, 1),
        VarDecl("q", "m", 0, 0, 1),
        VarDecl("z", "m", 0, 0, 1),
        VarDecl("x", "m", x_init, 0, 3),
    )
    return (PrismModule("m", decls, (
        PrismCommand(None, eq("p", 1), ((Lit(1), (Assign("p", Lit(0)),)),)),
        PrismCommand(None, eq("q", 1), ((Lit(1), (Assign("q", Lit(0)),)),)),
        PrismCommand(None, Binary(">=", Var("x"), Lit(0)), ((Lit(1), (Assign("z", Lit(1)),)),)),
        PrismCommand(None, guard, ((Lit(1), update),)),
    )),)


def conj(*parts):
    """``parts`` and-ed together left to right, as derivation builds them."""
    guard = parts[0]
    for part in parts[1:]:
        guard = Binary("and", guard, part)
    return guard


def test_counter_tests_then_a_non_bool_conjunct_raise_the_and_message():
    # p = 0 and q = 0 are decided per counter tuple; x is an int, and the
    # division after it would raise a different error if it were reached
    division = Binary("=", Binary("/", Var("x"), Var("z")), Lit(0))
    guard = conj(eq("p", 0), eq("q", 0), Var("x"), division)
    assert_raises_like_oracle(counter_module(guard), TypeMismatch,
                              "'and' applied to non-bool value")
    assert_raises_like_oracle(counter_module(conj(eq("p", 0), Var("x"))), TypeMismatch,
                              "'and' applied to non-bool value")


def test_a_counter_test_after_a_raising_conjunct_is_not_decided_early():
    # q = 1 never holds, but the division ahead of it raises first
    division = Binary(">", Binary("/", Var("x"), Lit(0)), Lit(1))
    for guard in (conj(division, eq("p", 1)), conj(eq("p", 0), division, eq("q", 1))):
        assert_raises_like_oracle(counter_module(guard), EvalError, "division by zero")


def test_a_leading_test_outside_the_index_stays_in_the_guard():
    # z is no index slot: z = 1 holds only after the third command, at the
    # same counter tuple as the initial state
    net = counter_module(conj(eq("p", 0), eq("z", 1), eq("q", 0)), (Assign("x", Lit(2)),))
    got = assert_same_as_oracle(net, "ctmc", {})
    assert got[1] == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 2)]
    net = counter_module(conj(eq("p", 0), eq("z", 1), Var("x")))
    assert_raises_like_oracle(net, TypeMismatch, "'and' applied to non-bool value")
    net = counter_module(conj(eq("p", 0), eq("z", 1), eq("q", 0), Var("x")), x_init=0)
    assert_raises_like_oracle(net, TypeMismatch, "'and' applied to non-bool value")


def test_computed_assignments_are_checked_like_the_oracle():
    # an integral float is narrowed to int, a bool or a fraction is refused
    bump = (Assign("x", Binary("+", Var("x"), Lit(1.0))),)
    below = conj(eq("z", 1), Binary("<", Var("x"), Lit(3)))
    got = assert_same_as_oracle(counter_module(below, bump), "ctmc", {})
    assert got[1][-1] == (0, 0, 1, 3) and all(type(v) is int for row in got[1] for v in row)
    to_bool = (Assign("x", Binary("=", Var("x"), Lit(1))),)
    assert_raises_like_oracle(counter_module(eq("z", 1), to_bool), TypeMismatch,
                              "assigning bool value to x")
    half = (Assign("x", Binary("+", Var("x"), Lit(0.5))),)
    assert_raises_like_oracle(counter_module(eq("z", 1), half), TypeMismatch,
                              "assigning non-integer 1.5 to x")
    decls = (VarDecl("s", "m", 0, 0, 1), VarDecl("b", "m", False, is_bool=True))
    to_int = (Assign("b", Binary("-", Var("s"), Lit(1))),)
    assert_raises_like_oracle(one_command(eq("s", 1), to_int, decls=decls), TypeMismatch,
                              "assigning non-bool value to b")


def test_tiny_state_budget_raises_and_verify_exits_3(capsys, data_path):
    net = tuple(racing_pair())
    assert_raises_like_oracle(net, StateBudgetExceeded, "budget of 2 states", max_states=2)
    assert main(["verify", data_path("example2.chor"), "--max-states", "2"]) == 3
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the commands picked per counter tuple against a brute-force scan
# ---------------------------------------------------------------------------

def scanned(module: PrismModule, row: tuple) -> list[int]:
    """The numbers of the commands whose held tests all hold at ``row``, in
    derivation order, found by testing every command: a command's held
    tests are its leading ``var = literal`` tests of index slots, the
    slots that some command tests in its leftmost conjunct."""
    slot_of = {d.name: i for i, d in enumerate(module.var_decls)}
    leading = [split_tests(c.guard)[0] for c in module.commands]
    index = {slot_of[t[0].left.name] for t in leading if t and t[0].left.name in slot_of}
    picked = []
    for i, tests in enumerate(leading):
        held = []
        for t in tests:
            if slot_of.get(t.left.name) not in index:
                break
            held.append(t)
        if all(row[slot_of[t.left.name]] == t.right.value for t in held):
            picked.append(i)
    return picked


def picked(module: PrismModule, constants: dict, rows) -> list[list[int]]:
    """Per row, the numbers of the commands ``prism._commands`` leaves to
    evaluate there. Each alternative's weight is compiled as its command's
    number plus 1, which names the command among the candidates."""
    assert all(c.alts for c in module.commands)
    owners = iter([i + 1.0 for i, c in enumerate(module.commands) for _ in c.alts])
    slot_of = {d.name: i for i, d in enumerate(module.var_decls)}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(prism, "_weight", lambda w, constants: next(owners))
        _, candidates = prism._commands(module, constants, slot_of)
    return [[int(alts[0][0]) - 1 for _, alts in candidates(row)] for row in rows]


def explored_modules(prog) -> list[tuple[PrismModule, dict, list[tuple]]]:
    """The source lowering's and the network's module, each with its
    constants and the states explored from it, program counter included."""
    seen = []
    explore = prism.explore_module

    def recording(module, kind, constants, init, max_states):
        chain = explore(module, kind, constants, init, max_states)
        seen.append((module, constants, list(chain.states)))
        return chain

    with pytest.MonkeyPatch.context() as m:
        m.setattr(prism, "explore_module", recording)
        build_chain(prog)
        net, _ = project(prog, require_sconn=False)
        build_network_chain(net, prog.kind, prog.constants)
    assert len(seen) == 2
    return seen


# every fixture whose two chains can be explored
EXPLORED = [name for name in FIXTURES if name not in (
    "cond_cycle.chor", "cond_cycle_unreached.chor", "entry_cycle.chor", "thinkteam.chor")]


@pytest.mark.parametrize("name", EXPLORED)
def test_the_commands_picked_per_counter_tuple_are_those_a_scan_finds(name, data_text):
    for module, constants, states in explored_modules(auto_annotate(load_program(data_text(name)))):
        assert picked(module, constants, states) == [scanned(module, row) for row in states]


def test_the_commands_picked_on_random_programs_are_those_a_scan_finds():
    for seed in range(20):
        for prog in random_program_pair(random.Random(seed)):
            for module, constants, states in explored_modules(auto_annotate(prog)):
                assert picked(module, constants, states) == [scanned(module, row) for row in states]


def test_the_commands_picked_on_hand_built_tests_are_those_a_scan_finds():
    # p and q are counters; b and x become index slots by a leftmost test;
    # p = 1 and p = 2 never both hold, and b and x are tested against both
    # a bool and an int literal, which the scan compares with ==
    decls = (VarDecl("p", "m", 0, 0, 2), VarDecl("q", "m", 0, 0, 1),
             VarDecl("b", "m", False, is_bool=True), VarDecl("x", "m", 0, 0, 2),
             VarDecl("z", "m", 0, 0, 1))
    guards = [
        eq("p", 0),
        conj(eq("p", 1), eq("p", 2)),
        conj(eq("p", 1), eq("p", 1), eq("q", 0)),
        conj(eq("p", 2), eq("q", 1), eq("z", 1), eq("q", 1)),
        Binary("=", Var("b"), Lit(True)),
        conj(Binary("=", Var("b"), Lit(1)), eq("p", 0)),
        conj(Binary("=", Var("x"), Lit(True)), eq("q", 1)),
        conj(eq("x", 2), Binary("=", Var("b"), Lit(False))),
        conj(eq("q", 1), eq("p", 0)),
        conj(eq("z", 0), eq("p", 1)),
        Binary(">", Var("x"), Lit(0)),
        conj(Binary(">", Var("x"), Lit(0)), eq("p", 1)),
    ]
    module = PrismModule("m", decls, tuple(
        PrismCommand(None, g, ((Lit(1), (Assign("z", Lit(1)),)),)) for g in guards))
    rows = list(itertools.product(range(3), range(2), (False, True), range(3), range(2)))
    got = picked(module, {}, rows)
    assert got == [scanned(module, row) for row in rows]
    assert not any(1 in found for found in got)
    assert [found for row, found in zip(rows, got) if row == (1, 0, True, 1, 0)] == [[2, 4, 9, 10, 11]]
