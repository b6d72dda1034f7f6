"""Behavioural semantics: expression evaluation, the reference
tree-walking semantics in ``tests/chor_ref.py``, and exhaustive chain
construction compared against it."""

from __future__ import annotations

import dataclasses
import pathlib
import random

import pytest

from chorprism import (
    ChorError,
    EvalError,
    RangeViolation,
    StateBudgetExceeded,
    TypeMismatch,
    UnguardedRecursion,
    build_chain,
    eval_expr,
    eval_weight,
    load_program,
)
from chorprism.semantics import PC, override_initial
from chorprism.syntax import (
    Assign,
    Binary,
    Branch,
    CallTerm,
    ChorProgram,
    Conditional,
    Inact,
    Interaction,
    Lit,
    Unary,
    Var,
    VarDecl,
)

from chor_ref import apply_assignments, ref_chain, step
from corpus import random_program_pair


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def test_eval_expr_arithmetic():
    env = {"x": 7}
    assert eval_expr(Binary("mod", Var("x"), Lit(3)), env) == 1
    assert eval_expr(Binary("/", Var("x"), Lit(2)), env) == 3  # rounds down
    assert eval_expr(Binary("/", Lit(-7), Lit(2)), env) == -4
    assert eval_expr(Binary("min", Var("x"), Lit(3)), env) == 3
    assert eval_expr(Binary("max", Var("x"), Lit(3)), env) == 7
    assert eval_expr(Unary("neg", Lit(5)), env) == -5


def test_eval_expr_booleans():
    env = {"b": True}
    assert eval_expr(Binary("and", Var("b"), Lit(False)), env) is False
    assert eval_expr(Binary("or", Var("b"), Lit(False)), env) is True
    assert eval_expr(Binary("=", Lit(2), Lit(2)), env) is True
    assert eval_expr(Binary("<=", Lit(2), Lit(3)), env) is True


def test_eval_expr_errors():
    with pytest.raises(EvalError):
        eval_expr(Var("ghost"), {})
    with pytest.raises(EvalError):
        eval_expr(Binary("/", Lit(1), Lit(0)), {})
    with pytest.raises(TypeMismatch):
        eval_expr(Binary("and", Lit(1), Lit(True)), {})
    with pytest.raises(TypeMismatch):
        eval_expr(Binary("and", Lit(True), Lit(1)), {})
    with pytest.raises(TypeMismatch):
        eval_expr(Binary("<", Lit(True), Lit(1)), {})


def test_and_or_stop_at_a_deciding_left_operand():
    div0 = Binary("=", Binary("/", Lit(1), Var("x")), Lit(0))
    env = {"x": 0}
    assert eval_expr(Binary("and", Lit(False), div0), env) is False
    assert eval_expr(Binary("or", Lit(True), div0), env) is True
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(Binary("and", Lit(True), div0), env)
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(Binary("or", Lit(False), div0), env)


def test_eval_weight_divides_exactly():
    assert eval_weight(Binary("/", Lit(1), Lit(2)), {}) == 0.5
    assert eval_weight(Binary("*", Var("lambda1"), Lit(2)), {"lambda1": 3}) == 6.0
    with pytest.raises(TypeMismatch):
        eval_weight(Binary("=", Lit(1), Lit(1)), {})


# ---------------------------------------------------------------------------
# updates, in the reference semantics
# ---------------------------------------------------------------------------

def two_var_program(**kw):
    return ChorProgram(
        kind=kw.get("kind", "ctmc"),
        roles=("p", "q"),
        var_decls=(
            VarDecl("x", "p", 0, 0, 3),
            VarDecl("y", "q", 0, 0, 3),
        ),
        defs={"M": kw.get("body", Inact())},
        main="M",
    )


def apply_update(update, valuation, prog):
    return apply_assignments(update, valuation, prog.var, prog.constants)


def test_updates_apply_left_to_right():
    prog = two_var_program()
    upd = (Assign("x", Lit(1)), Assign("y", Binary("+", Var("x"), Lit(1))))
    assert apply_update(upd, {"x": 0, "y": 0}, prog) == {"x": 1, "y": 2}
    # swapping the assignments changes the result: y reads the old x
    assert apply_update(upd[::-1], {"x": 0, "y": 0}, prog) == {"x": 1, "y": 1}


def test_update_out_of_range_is_rejected():
    prog = two_var_program()
    with pytest.raises(RangeViolation):
        apply_update((Assign("x", Lit(4)),), {"x": 0, "y": 0}, prog)


def test_update_type_errors():
    prog = two_var_program()
    with pytest.raises(TypeMismatch):
        apply_update((Assign("x", Lit(True)),), {"x": 0, "y": 0}, prog)


def test_initial_valuation_overrides():
    decls = two_var_program().var_decls
    assert override_initial(decls, None) == {"x": 0, "y": 0}
    assert override_initial(decls, {"x": 2}) == {"x": 2, "y": 0}
    with pytest.raises(RangeViolation):
        override_initial(decls, {"x": 9})
    with pytest.raises(EvalError, match="no variable named nope"):
        override_initial(decls, {"nope": 1})


# ---------------------------------------------------------------------------
# small steps, in the reference semantics
# ---------------------------------------------------------------------------

def test_a_call_steps_as_the_body_it_names():
    body = Interaction("p", ("q",), (Branch(Lit(1), (), Inact()),))
    prog = two_var_program(body=body)
    prog.defs["M"] = body
    moves = step(CallTerm("M"), {"x": 0, "y": 0}, prog)
    assert moves == step(body, {"x": 0, "y": 0}, prog) == [(1.0, {"x": 0, "y": 0}, Inact())]


def test_a_conditional_steps_as_the_arm_its_guard_picks():
    send = Interaction("p", ("q",), (Branch(Lit(2), (Assign("y", Lit(1)),), Inact()),))
    t = Conditional(Binary("=", Var("x"), Lit(0)), "p", Inact(), send)
    prog = two_var_program(body=t)
    assert step(t, {"x": 0, "y": 0}, prog) == []
    assert step(t, {"x": 1, "y": 0}, prog) == [(2.0, {"x": 1, "y": 1}, Inact())]


def test_non_boolean_guard_fails_at_evaluation_time():
    t = Conditional(Lit(1), "p", Inact(), Inact())
    prog = two_var_program(body=t)
    with pytest.raises(TypeMismatch):
        step(t, {"x": 0, "y": 0}, prog)


def test_zero_weight_branches_are_dropped():
    body = Interaction(
        "p",
        ("q",),
        (
            Branch(Lit(0), (Assign("x", Lit(1)),), Inact()),
            Branch(Lit(2), (Assign("x", Lit(2)),), Inact()),
        ),
    )
    prog = two_var_program(body=body)
    moves = step(body, {"x": 0, "y": 0}, prog)
    assert len(moves) == 1 and moves[0][1]["x"] == 2


# ---------------------------------------------------------------------------
# whole chains
# ---------------------------------------------------------------------------

def test_two_message_chain_shape(data_text):
    c = build_chain(load_program(data_text("example1.chor")))
    assert c.kind == "ctmc"
    assert c.num_states == 3
    assert c.num_transitions == 2
    assert c.states[0] == (0, 0)
    # both messages write the same value; the states differ in progress only
    assert c.states[1] == (1, 0) and c.states[2] == (1, 0)
    assert c.edges[0] == {1: 2.0}
    assert c.edges[1] == {2: 3.0}
    assert c.edges[2] == {}


def test_recursive_exchange_chain_shape(data_text):
    c = build_chain(load_program(data_text("example2.chor")))
    assert c.num_states == 3
    assert len(set(c.states)) == 3  # three distinct valuations
    assert c.states[0] == (0, 0)
    # a call is no move: each post-message state is the body again, and
    # branches exactly like the root does
    assert c.edges[0] == {1: 2.0, 2: 3.0}
    assert c.edges[1] == {1: 2.0, 2: 3.0}
    assert c.edges[2] == {1: 2.0, 2: 3.0}


def test_exploration_starts_at_the_entry_body():
    src = "ctmc;\nrole p;\ndef Z = end;\nmain Z;\n"
    c = build_chain(load_program(src))
    assert c.num_states == 1 and c.num_transitions == 0


def test_terminal_states_absorb_in_discrete_mode():
    src = (
        "dtmc;\nrole p, q;\nvar x @ p : [0..1] init 0;\n"
        "def M = p -> q : { rate 1 : {x'=1}; end };\nmain M;\n"
    )
    c = build_chain(load_program(src))
    assert c.edges[1] == {1: 1.0}


def test_parallel_edges_merge_by_summing_weights():
    src = (
        "ctmc;\nrole p, q;\nvar x @ p : [0..1] init 0;\n"
        "def M = p -> q : { rate 2 : {x'=1}; end | rate 3 : {x'=1}; end };\n"
        "main M;\n"
    )
    c = build_chain(load_program(src))
    assert c.num_states == 2
    assert c.edges[0] == {1: 5.0}


def test_state_budget_is_enforced(data_text):
    with pytest.raises(StateBudgetExceeded) as exc:
        build_chain(load_program(data_text("example2.chor")), max_states=2)
    assert exc.value.exit_code == 3


def test_initial_overrides_flow_into_the_chain(data_text):
    c = build_chain(
        load_program(data_text("example2.chor")), init_overrides={"x": 3, "y": 1}
    )
    assert c.states[c.init] == (3, 1)
    # (3,1) is also a reachable interior valuation, so the chain shrinks
    assert c.num_states == 2


def test_non_boolean_conditional_guard_raises_the_shared_message():
    # the then arm's first command is guarded by 'pc = k and g', as in the
    # projected network's deciding role, so the conjunction reports the
    # non-bool operand; an arm that does not act has no command to guard
    send = Interaction("p", ("q",), (Branch(Lit(1), (), Inact()),))
    t = Conditional(Binary("+", Var("x"), Lit(1)), "p", send, Inact())
    with pytest.raises(TypeMismatch, match="^'and' applied to non-bool value at state x=0,y=0$"):
        build_chain(two_var_program(body=t))


def test_a_call_and_a_conditional_are_no_moves(data_text):
    # guarded_division.chor: C decides and sends, D sends back to C
    c = build_chain(load_program(data_text("guarded_division.chor")))
    assert c.states == [(1,), (0,)]
    assert c.edges == [{1: 2.0}, {0: 3.0}]


def test_a_cycle_through_conditionals_alone_is_refused():
    src = (
        "ctmc;\nrole p, q;\nvar x @ p : [0..1] init 1;\n"
        "def A = if x = 0 @ p then { A } else { p -> q : { rate 2 : {x'=0}; A } };\n"
        "main A;\n"
    )
    with pytest.raises(UnguardedRecursion, match="^conditional x = 0 @ p recurses without "
                       "an intervening action$"):
        build_chain(load_program(src))


def test_an_error_names_the_state_without_the_program_counter():
    # the update leaves x's range after a call hop; the message names the
    # declared variables at the state the update ran from, never the pc
    bump = (Assign("x", Binary("+", Var("x"), Lit(1))),)
    loop = Interaction("p", ("q",), (Branch(Lit(1), bump, CallTerm("M")),))
    with pytest.raises(RangeViolation) as exc:
        build_chain(two_var_program(body=loop))
    assert str(exc.value) == "update x'=x + 1 assigns 4 to x, outside [0..3] at state x=3,y=0"
    assert PC not in str(exc.value)


# ---------------------------------------------------------------------------
# build_chain against the tree-walking reference
# ---------------------------------------------------------------------------

def outcome(build, prog, **kw):
    """Everything a chain build yields, edge insertion order and weights
    bit for bit included, or the class and message of the error it raised."""
    try:
        c = build(prog, **kw)
    except ChorError as e:
        return type(e), str(e)
    edges = [[(dst, w.hex()) for dst, w in row.items()] for row in c.edges]
    return c.kind, c.var_names, c.states, c.init, edges, c.findings


def assert_same_as_reference(prog, **kw):
    got = outcome(build_chain, prog, **kw)
    assert got == outcome(ref_chain, prog, **kw)
    return got


@pytest.mark.parametrize("seed", range(200))
def test_build_chain_matches_the_reference_on_random_programs(seed):
    for prog in random_program_pair(random.Random(seed)):
        got = assert_same_as_reference(prog)
        assert isinstance(got[2], list)  # a chain, not an error


FIXTURES = sorted(p.name for p in (pathlib.Path(__file__).parent / "data").glob("*.chor"))


@pytest.mark.parametrize("name", FIXTURES)
def test_build_chain_matches_the_reference_on_fixtures(name, data_text):
    assert_same_as_reference(load_program(data_text(name)))


@pytest.mark.parametrize("name, message", [
    ("cond_cycle.chor", "conditional x = 0 @ p recurses without an intervening action"),
    ("entry_cycle.chor", "definition A recurses without an intervening action"),
])
def test_a_program_without_a_first_action_has_no_chain(name, message, data_text):
    with pytest.raises(UnguardedRecursion, match=f"^{message}$"):
        build_chain(load_program(data_text(name)))


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
def test_a_cycle_no_valuation_leads_into_is_refused_like_the_reference(kind, data_text):
    # x only ever holds 1, so no state takes the arm back to the decision
    prog = dataclasses.replace(load_program(data_text("cond_cycle_unreached.chor")), kind=kind)
    got = assert_same_as_reference(prog)
    assert got == (UnguardedRecursion,
                   "conditional x = 0 @ p recurses without an intervening action")


def test_build_chain_matches_the_reference_on_errors_and_limits(data_text):
    # thinkteam.chor overflows x; the budget and overrides bound the rest
    got = assert_same_as_reference(load_program(data_text("thinkteam.chor")))
    assert got == (RangeViolation,
                   "update x'=x + 1 assigns 11 to x, outside [0..10] at state x=10,y=0")
    prog = load_program(data_text("example2.chor"))
    assert assert_same_as_reference(prog, max_states=2)[0] is StateBudgetExceeded
    assert_same_as_reference(prog, init_overrides={"x": 3, "y": 1})
    assert assert_same_as_reference(prog, init_overrides={"nope": 1})[0] is EvalError
    # the hidden program counter is not a variable either
    got = assert_same_as_reference(prog, init_overrides={PC: 1})
    assert got == (EvalError, f"no variable named {PC}")
