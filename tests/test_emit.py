"""PRISM text generation: exact rendering, determinism, and meaning
preservation through an independent re-parse."""

from __future__ import annotations

import random

import pytest

from chorprism import (
    auto_annotate,
    build_network_chain,
    emit,
    fuse_resets,
    load_program,
    project,
)
from chorprism.emit import render_command, render_expr, render_update
from chorprism.prism import PrismCommand
from chorprism.syntax import FUNCTIONS, PREC, Assign, Binary, Lit, Unary, Var

from reparse import parse_expr, reparse


def cmd(label, guard, *alts):
    return PrismCommand(label, guard, tuple(alts))


# ---------------------------------------------------------------------------
# rendering pieces
# ---------------------------------------------------------------------------

def test_render_single_send_command():
    c = cmd(
        "a_1",
        Binary("=", Var("p_STATE"), Lit(0)),
        (Lit(2), (Assign("x", Lit(1)), Assign("p_STATE", Lit(1)))),
    )
    assert render_command(c) == "[a_1] (p_STATE=0) -> 2 : (x'=1)&(p_STATE'=1);"


def test_render_silent_multi_alternative_command():
    c = cmd(
        None,
        Lit(True),
        (Var("lambda1"), (Assign("s", Lit(1)),)),
        (Var("lambda2"), (Assign("s", Lit(2)),)),
    )
    assert render_command(c) == "[] (true) -> lambda1 : (s'=1) + lambda2 : (s'=2);"


def test_render_empty_update_is_true():
    assert render_update(()) == "true"
    c = cmd(None, Lit(True), (Lit(1), ()))
    assert render_command(c) == "[] (true) -> 1 : true;"


def test_render_expr_operators():
    x, y = Var("x"), Var("y")
    assert render_expr(Binary("and", Binary("=", x, Lit(1)), Binary("<", y, Lit(2)))) \
        == "x=1&y<2"
    # comparison binds tighter than negation, so no parentheses are needed
    assert render_expr(Unary("not", Binary("=", x, Lit(1)))) == "!x=1"
    assert render_expr(Unary("not", Binary("and", Var("a"), Var("b")))) == "!(a&b)"
    assert render_expr(Binary("or", Binary("=", x, Lit(0)), Binary("=", x, Lit(1)))) \
        == "x=0|x=1"
    assert render_expr(Binary("*", Binary("+", x, Lit(1)), Lit(2))) == "(x+1)*2"
    assert render_expr(Binary("+", x, Binary("*", Lit(1), Lit(2)))) == "x+1*2"
    assert render_expr(Binary("mod", x, Lit(3))) == "mod(x,3)"
    assert render_expr(Binary("min", x, y)) == "min(x,y)"
    # numbers take the shortest form that reads back as the same double
    assert render_expr(Lit(0.375)) == "0.375"
    assert render_expr(Lit(0.1)) == "0.1"
    # subtraction is left associative: the right operand keeps its parens
    assert render_expr(Binary("-", x, Binary("-", y, Lit(1)))) == "x-(y-1)"


def test_unary_minus_is_prism_minus():
    x = Var("x")
    assert render_expr(Unary("neg", x)) == "-x"
    assert render_expr(Unary("neg", Binary("+", x, Lit(1)))) == "-(x+1)"
    assert render_expr(Binary("*", Lit(2), Unary("neg", x))) == "2*-x"
    assert render_expr(Unary("not", Binary("<", Unary("neg", x), Lit(0)))) == "!-x<0"


def test_integer_division_floors_in_state_expressions_only():
    e = Binary("/", Var("x"), Lit(2))
    assert render_expr(e) == "floor(x/2)"
    assert render_expr(e, weight=True) == "x/2"
    # floor's operands keep the parentheses they need as operands of /
    x, y = Var("x"), Var("y")
    e = Binary("/", Binary("+", x, Lit(1)), Binary("*", y, Lit(2)))
    assert render_expr(e) == "floor((x+1)/(y*2))"
    assert render_expr(e, weight=True) == "(x+1)/(y*2)"
    assert render_expr(Binary("/", Binary("/", x, y), Lit(2))) == "floor(floor(x/y)/2)"


def random_prism_expr(rng: random.Random, depth: int):
    """A random expression tree over ``x`` and ``y`` and every operator;
    literals are ones the PRISM text reads back as they are."""
    pick = rng.random()
    if depth == 0 or pick < 0.2:
        return rng.choice([Lit(0), Lit(7), Lit(0.5), Lit(0.1), Lit(1e-05), Lit(True), Lit(False),
                           Var("x"), Var("y")])
    if pick < 0.35:
        return Unary(rng.choice(["not", "neg"]), random_prism_expr(rng, depth - 1))
    op = rng.choice([*(op for op in PREC if op not in ("not", "neg")), *FUNCTIONS])
    return Binary(op, random_prism_expr(rng, depth - 1), random_prism_expr(rng, depth - 1))


@pytest.mark.parametrize("weight", [False, True], ids=["state", "weight"])
@pytest.mark.parametrize("seed", range(5))
def test_prism_expressions_parse_back_to_the_same_tree(seed, weight):
    rng = random.Random(seed)
    for _ in range(200):
        e = random_prism_expr(rng, 5)
        text = render_expr(e, weight=weight)
        assert parse_expr(text) == e, text


# ---------------------------------------------------------------------------
# whole models
# ---------------------------------------------------------------------------

def compiled(data_text, name):
    prog = auto_annotate(load_program(data_text(name)))
    net, _ = project(prog, require_sconn=False)
    return prog, net


def test_two_message_model_golden(data_text):
    prog, net = compiled(data_text, "example1.chor")
    assert emit(net, prog) == """ctmc

const double lambda1 = 2;
const double lambda2 = 3;

module p
  p_STATE : [0..2] init 0;
  x : [0..3] init 0;
  [A1_1] (p_STATE=0) -> lambda1 : (x'=1)&(p_STATE'=1);
  [A2_1] (p_STATE=1) -> lambda2 : (x'=1)&(p_STATE'=2);
endmodule

module q
  q_STATE : [0..2] init 0;
  y : [0..3] init 0;
  [A1_1] (q_STATE=0) -> 1 : (q_STATE'=1);
  [A2_1] (q_STATE=1) -> 1 : (q_STATE'=2);
endmodule
"""


def test_constants_print_in_their_shortest_form(data_text):
    prog, net = compiled(data_text, "example2_dtmc.chor")
    lines = emit(net, prog).splitlines()
    assert "const double lambda1 = 0.4;" in lines
    assert "const double lambda2 = 0.6;" in lines


def test_a_commandless_counter_is_declared_over_one_value(data_text):
    # c1 takes part in no statement, fused or not
    prog, net = compiled(data_text, "constants.chor")
    for n in (net, fuse_resets(net)):
        assert "  c1_STATE : [0..0] init 0;" in emit(n, prog).splitlines()


def test_emission_is_deterministic(data_text):
    a = emit(*reversed(compiled(data_text, "thinkteam.chor")))
    b = emit(*reversed(compiled(data_text, "thinkteam.chor")))
    assert a == b


# ---------------------------------------------------------------------------
# meaning preservation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name,fused",
    [
        ("example1.chor", False),
        ("example2.chor", False),
        ("example2.chor", True),
        ("example2_dtmc.chor", False),
        ("sconn_pos.chor", True),
        ("p2p.chor", False),
    ],
)
def test_emitted_text_reparses_to_the_same_chain(name, fused, data_text):
    prog, net = compiled(data_text, name)
    if fused:
        net = fuse_resets(net)
    assert_reparses_to_the_same_chain(prog, net)


def test_unary_minus_reparses_to_the_same_chain():
    prog = auto_annotate(load_program(
        "ctmc;\nrole p, q;\nvar x @ p : [0..3] init 1;\n"
        "def M = p -> q : { rate 1 : {x'=-x+3}; if -x < -1 @ p then { M } else { end } };\n"
        "main M;\n"
    ))
    net, _ = project(prog, require_sconn=False)
    assert "(x'=-x+3)" in emit(net, prog)
    assert_reparses_to_the_same_chain(prog, net)


def test_comparison_of_a_comparison_reparses_to_the_same_chain():
    prog = auto_annotate(load_program(
        "ctmc;\nrole p, q;\nvar x @ p : [0..1] init 0;\nvar y @ p : [0..1] init 1;\n"
        "var b @ p : bool init false;\n"
        "def M = p -> q : { rate 1 : {x'=1-x}; if (x = y) = b @ p then { M } else { end } };\n"
        "main M;\n"
    ))
    net, _ = project(prog, require_sconn=False)
    assert "(x=y)=b)" in emit(net, prog)
    assert_reparses_to_the_same_chain(prog, net)


def test_floor_division_of_a_sum_reparses_to_the_same_chain():
    prog = auto_annotate(load_program(
        "ctmc;\nrole p, q;\nvar x @ p : [0..3] init 0;\n"
        "def M = p -> q : { rate 1 : {x'=mod(x+1, 4)}; if (x+1)/2 = 1 @ p then { M } else { end } };\n"
        "main M;\n"
    ))
    net, _ = project(prog, require_sconn=False)
    assert "floor((x+1)/2)=1" in emit(net, prog)
    assert_reparses_to_the_same_chain(prog, net)


def test_fused_decider_keeps_its_guards_and_reparses_to_the_same_chain():
    # p decides and recurses: fusion renumbers its slots, so each guarded
    # decision command is rebuilt around the new counter test. (q cannot
    # follow the else arm, a projection fault of its own, so only p is pinned.)
    prog = auto_annotate(load_program(
        "ctmc;\nrole p, q;\nvar x @ p : [0..1] init 0;\n"
        "def C = if x = 0 @ p then { p -> q : { rate 2 : {x'=1}; C } }\n"
        "        else { p -> q : { rate 3 : {x'=0}; C } };\nmain C;\n"
    ))
    net, _ = project(prog)
    net = fuse_resets(net)
    text = emit(net, prog)
    assert text[text.index("module p"):text.index("module q")] == (
        "module p\n"
        "  p_STATE : [0..2] init 0;\n"
        "  x : [0..1] init 0;\n"
        "  [] (p_STATE=0&x=0) -> 1 : (p_STATE'=1);\n"
        "  [] (p_STATE=0&!x=0) -> 1 : (p_STATE'=2);\n"
        "  [A1_1] (p_STATE=1) -> 2 : (x'=1)&(p_STATE'=0);\n"
        "  [A2_1] (p_STATE=2) -> 3 : (x'=0)&(p_STATE'=0);\n"
        "endmodule\n\n"
    )
    assert_reparses_to_the_same_chain(prog, net)


def assert_reparses_to_the_same_chain(prog, net):
    kind, constants, net2 = reparse(emit(net, prog))

    assert kind == prog.kind
    assert constants == prog.constants

    budget = 3000
    c1 = build_network_chain(net, prog.kind, prog.constants, max_states=budget)
    c2 = build_network_chain(net2, kind, constants, max_states=budget)
    assert c1.var_names == c2.var_names
    assert c1.states == c2.states
    assert c1.init == c2.init
    assert len(c1.edges) == len(c2.edges)
    for r1, r2 in zip(c1.edges, c2.edges):
        assert r1.keys() == r2.keys()
        for t in r1:
            assert r1[t] == pytest.approx(r2[t], abs=1e-12)
