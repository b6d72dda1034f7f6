"""Static analyses: the slot-count measure, head roles, strong
connectedness, annotation checking, and well-formedness findings."""

from __future__ import annotations

import pytest

from chorprism import (
    AnnotationError,
    UnguardedRecursion,
    WellFormednessError,
    auto_annotate,
    build_chain,
    check_annotations,
    check_well_formed,
    load_program,
    nodes,
    require_annotated,
    s_conn,
    verify_projection,
)
from chorprism.analysis import h_mods, type_of, wire_label
from chorprism.syntax import (
    Binary,
    Branch,
    CallTerm,
    Conditional,
    Inact,
    Interaction,
    Lit,
    Unary,
    Var,
    unfold,
)


def inter(initiator, receivers, *conts):
    branches = tuple(Branch(Lit(1), (), c) for c in conts)
    return Interaction(initiator, tuple(receivers), branches)


# ---------------------------------------------------------------------------
# slot counts
# ---------------------------------------------------------------------------

def test_nodes_leaves():
    for kind in ("ctmc", "dtmc"):
        assert nodes(Inact(), kind) == 1
        assert nodes(CallTerm("X"), kind) == 1


def test_nodes_conditional_sums_branches():
    t = Conditional(Lit(True), "p", inter("p", ["q"], Inact()), Inact())
    # 1 for the decision + 2 for the then-arm + 1 for the else-arm
    assert nodes(t, "ctmc") == 4
    # the then-arm's single branch additionally reserves a commitment slot
    assert nodes(t, "dtmc") == 5


def test_nodes_interaction_reserves_commitment_slots_in_dtmc():
    two = inter("p", ["q"], CallTerm("C"), CallTerm("C"))
    assert nodes(two, "ctmc") == 1 + 1 + 1
    assert nodes(two, "dtmc") == 1 + 2 + 1 + 1


def test_nodes_example_recursive_exchange(data_text):
    prog = load_program(data_text("example2.chor"))
    body = prog.defs["C"]
    assert nodes(body, "ctmc") == 3
    assert nodes(body, "dtmc") == 5


# ---------------------------------------------------------------------------
# head roles and strong connectedness
# ---------------------------------------------------------------------------

def test_head_roles_of_interaction_are_all_participants():
    t = inter("p", ["q", "r"], Inact())
    assert h_mods(t, {}) == frozenset({"p", "q", "r"})


def test_head_roles_of_conditional_is_the_decider_only():
    t = Conditional(Lit(True), "p", inter("q", ["r"], Inact()), Inact())
    assert h_mods(t, {}) == frozenset({"p"})


def test_head_roles_follow_calls():
    defs = {"X": inter("p", ["q"], Inact())}
    assert h_mods(CallTerm("X"), defs) == frozenset({"p", "q"})
    assert h_mods(Inact(), defs) == frozenset()


def test_call_cycle_without_action_is_rejected():
    defs = {"A": CallTerm("B"), "B": CallTerm("A")}
    with pytest.raises(UnguardedRecursion):
        h_mods(CallTerm("A"), defs)


def test_unfold_gives_the_statement_a_term_starts_with():
    body = inter("p", ["q"], Inact())
    defs = {"X": CallTerm("Y"), "Y": body}
    assert unfold(CallTerm("X"), defs) is body
    for term in (body, Inact(), Conditional(Lit(True), "p", CallTerm("X"), Inact())):
        assert unfold(term, defs) is term


def test_unfold_names_the_first_definition_met_again():
    defs = {"A": CallTerm("B"), "B": CallTerm("A"), "M": CallTerm("A")}
    message = "^definition A recurses without an intervening action$"
    with pytest.raises(UnguardedRecursion, match=message):
        unfold(CallTerm("M"), defs)


def test_a_call_to_an_undefined_name_is_a_well_formedness_error():
    with pytest.raises(WellFormednessError, match="^call to undefined D$"):
        unfold(CallTerm("D"), {})
    # the public walks that follow calls raise it on an unchecked program
    prog = load_program("ctmc; role p, q; def C = p -> q : { rate 2 : {}; D }; main C;")
    for walk in (s_conn, build_chain):
        with pytest.raises(WellFormednessError, match="^call to undefined D$"):
            walk(prog)


def test_sconn_fixtures(data_text):
    assert s_conn(load_program(data_text("sconn_pos.chor"))) is True
    assert s_conn(load_program(data_text("nonsconn.chor"))) is False
    assert s_conn(load_program(data_text("example2.chor"))) is True


def test_sconn_conditional_requires_decider_in_both_arms():
    src = """
    ctmc;
    role p, q;
    var x @ p : [0..1] init 0;
    def M = if x=0 @ p then { p -> q : { rate 1 : {}; end } }
            else { q -> p : { rate 1 : {}; end } };
    main M;
    """
    # the else-arm's first action does not involve the decider p... it does
    # actually (p receives), so this one is fine
    assert s_conn(load_program(src)) is True
    src_bad = src.replace("q -> p", "q -> q")
    assert s_conn(load_program(src_bad)) is False


def test_sconn_passes_an_ended_arm_as_an_ended_branch(data_text):
    # an ended continuation offers no action, whichever kind of choice
    # leads to it; an arm that starts without the decider still fails
    src = """
    ctmc;
    role p, q;
    var x @ p : [0..1] init 0;
    def M = p -> q : { rate 1 : {}; if x=0 @ p then { end } else { p -> q : { rate 1 : {}; M } } };
    main M;
    """
    assert s_conn(load_program(src)) is True
    assert s_conn(load_program(src.replace("{ p -> q", "{ q -> q"))) is False
    for name in ("end_arm.chor", "annot_ok.chor", "annot_dup.chor"):
        assert s_conn(load_program(data_text(name))) is True


def test_sconn_surfaces_unguarded_recursion():
    src = """
    ctmc;
    role p, q;
    def M = p -> q : { rate 1 : {}; A };
    def A = B;
    def B = A;
    main M;
    """
    with pytest.raises(UnguardedRecursion):
        s_conn(load_program(src))
    # a pair that no choice continues into has no first action to check
    assert s_conn(load_program(src.replace("{}; A }", "{}; M }"))) is True


@pytest.mark.parametrize("name, message", [
    # a conditional's arm leads back to it through no action
    ("cond_cycle.chor", "conditional x = 0 @ p recurses without an intervening action"),
    # the entry is a bare call into a pair that no choice continues into
    ("entry_cycle.chor", "definition A recurses without an intervening action"),
])
def test_sconn_refuses_a_program_without_a_first_action(name, message, data_text):
    with pytest.raises(UnguardedRecursion, match=f"^{message}$"):
        s_conn(load_program(data_text(name)))


def test_sconn_follows_a_conditional_arm_through_other_conditionals():
    # B's conditional picks A's and A's picks B's: a cycle of two decisions
    # with no action, reached from the exchange in M
    src = """
    ctmc;
    role p, q;
    var x @ p : [0..1] init 0;
    def M = p -> q : { rate 1 : {x'=1-x}; A };
    def A = if x = 0 @ p then { B } else { M };
    def B = if x = 1 @ p then { M } else { A };
    main M;
    """
    with pytest.raises(UnguardedRecursion, match="^conditional x = 0 @ p recurses"):
        s_conn(load_program(src))
    with pytest.raises(UnguardedRecursion, match="^conditional x = 0 @ p recurses"):
        build_chain(load_program(src))
    assert s_conn(load_program(src.replace("else { A }", "else { M }"))) is True


def test_sconn_reports_the_first_failing_statement_in_definition_order():
    # N is not strongly connected and A, B recurse unguarded. M comes first
    # and reaching A from its second branch raises, before N is checked; a
    # check that followed M's calls would find N first and say False
    src = """
    ctmc;
    role p, q, r, s;
    def M = p -> q : { rate 1 : {}; N | rate 1 : {}; A };
    def N = p -> q : { rate 1 : {}; r -> s : { rate 1 : {}; M } };
    def A = B;
    def B = A;
    main M;
    """
    with pytest.raises(UnguardedRecursion, match="definition A recurses"):
        s_conn(load_program(src))
    # without the unguarded pair the verdict is N's
    assert s_conn(load_program(src.replace("A };", "M };"))) is False


# ---------------------------------------------------------------------------
# annotations
# ---------------------------------------------------------------------------

def test_handwritten_annotations_accepted(data_text):
    prog = load_program(data_text("annot_ok.chor"))
    assert check_annotations(prog) == []


def test_duplicate_annotation_reported(data_text):
    prog = load_program(data_text("annot_dup.chor"))
    findings = check_annotations(prog)
    assert len(findings) == 1
    assert "a" in findings[0] and "used at both" in findings[0]


def test_missing_annotations_reported_then_filled(data_text):
    prog = load_program(data_text("example2.chor"))
    assert any("missing annotation" in f for f in check_annotations(prog))
    assert check_annotations(auto_annotate(prog)) == []


def test_a_wire_label_used_twice_is_reported_at_both_locations(data_text):
    # the annotations X and A1 differ, but X derives B's explicit label X_1
    prog = auto_annotate(load_program(data_text("label_clash.chor")))
    clash = "label X_1 used at both A/branch1 and B/branch1"
    assert check_annotations(prog) == [clash]
    with pytest.raises(AnnotationError, match=f"^{clash}$"):
        require_annotated(prog)


def test_two_branches_of_one_interaction_cannot_share_a_label():
    prog = load_program(
        "dtmc; role p, q; var x @ p : [0..2] init 0; var y @ q : [0..2] init 0;\n"
        "def A = p -> q : { [L] rate 0.4 : {x'=1, y'=1}; A\n"
        "                 | [L] rate 0.6 : {x'=2, y'=2}; A };\n"
        "main A;"
    )
    assert check_annotations(auto_annotate(prog)) == [
        "label L used at both A/branch1 and A/branch2"
    ]


def test_a_self_step_puts_no_label_on_the_wire():
    prog = load_program(
        "ctmc; role p; var x @ p : [0..1] init 0;\n"
        "def M = p -> p : { [L] rate 1 : {x'=1}; M | [L] rate 2 : {x'=0}; M };\n"
        "main M;"
    )
    assert check_annotations(auto_annotate(prog)) == []


def test_wire_label_is_none_for_a_self_step_and_the_branch_label_otherwise():
    step = Interaction("p", (), (Branch(Lit(1), (), Inact(), "L"),), "A")
    branches = (Branch(Lit(1), (), Inact(), "L"), Branch(Lit(1), (), Inact()))
    send = Interaction("p", ("q",), branches, "A")
    assert wire_label(step, 0) is None
    assert [wire_label(send, j) for j in range(2)] == ["L", "A_2"]


def test_auto_annotate_skips_a_name_whose_labels_are_taken():
    # A1 would derive A1_1, the label B's branch names; A takes A2 instead
    prog = load_program(
        "dtmc; role p, q, r; var x @ p : [0..1] init 0; var y @ r : [0..1] init 0;\n"
        "def A = p -> q : { rate 1 : {x'=1 - x}; B };\n"
        "def B = r -> q : { [A1_1] rate 1 : {y'=1 - y}; A };\n"
        "main A;"
    )
    annotated = auto_annotate(prog)
    assert [annotated.defs[n].annotation for n in ("A", "B")] == ["A2", "A3"]
    assert check_annotations(annotated) == []
    assert verify_projection(prog)["equivalent"] is True


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------

def test_clean_programs_have_no_findings(data_text):
    for name in ("example1.chor", "example2.chor", "thinkteam.chor", "p2p.chor",
                 "dispatcher.chor", "guarded_division.chor"):
        assert check_well_formed(load_program(data_text(name))) == []


def test_probabilities_must_sum_to_one_in_discrete_mode():
    src = """
    dtmc;
    role p, q;
    var x @ p : [0..1] init 0;
    def M = p -> q : { rate 0.5 : {}; end | rate 0.3 : {}; end };
    main M;
    """
    findings = check_well_formed(load_program(src))
    assert any("sum to 0.8" in f for f in findings)
    # the same weights are fine as rates
    assert check_well_formed(load_program(src.replace("dtmc", "ctmc"))) == []


def test_weight_may_not_read_state_variables():
    src = """
    ctmc;
    role p, q;
    var x @ p : [0..1] init 0;
    def M = p -> q : { rate x : {}; end };
    main M;
    """
    findings = check_well_formed(load_program(src))
    assert any("weight reads non-constant" in f and "x" in f for f in findings)


def test_update_may_only_touch_participants():
    src = """
    ctmc;
    role p, q, r;
    var z @ r : [0..1] init 0;
    def M = p -> q : { rate 1 : {z'=1}; end };
    main M;
    """
    findings = check_well_formed(load_program(src))
    assert any("non-participant" in f for f in findings)


def test_initiator_cannot_appear_among_receivers():
    src = """
    ctmc;
    role p, q;
    def M = p -> p, q : { rate 1 : {}; end };
    main M;
    """
    findings = check_well_formed(load_program(src))
    assert any("also a receiver" in f for f in findings)


def test_various_declaration_findings():
    src = """
    ctmc;
    role p, p;
    var x @ nobody : [2..1] init 2;
    def M = end;
    main M;
    """
    findings = check_well_formed(load_program(src))
    assert any("duplicate role" in f for f in findings)
    assert any("undeclared role nobody" in f for f in findings)
    assert any("empty range" in f for f in findings)


def test_call_to_undefined_name():
    src = """
    ctmc;
    role p, q;
    def M = p -> q : { rate 1 : {}; X };
    main M;
    """
    findings = check_well_formed(load_program(src))
    assert any("undefined X" in f for f in findings)


def test_guard_must_be_boolean():
    src = """
    ctmc;
    role p, q;
    var x @ p : [0..3] init 0;
    def M = if x+1 @ p then { end } else { end };
    main M;
    """
    findings = check_well_formed(load_program(src))
    assert any("expected bool" in f for f in findings)


WF_HEADER = "ctmc;\nrole p, q;\nvar x @ p : [0..1] init 0;\nvar b @ p : bool init false;\n"


@pytest.mark.parametrize("body, finding", [
    pytest.param("var x @ q : [0..2] init 0;\ndef M = end;\nmain M;",
                 "duplicate declaration of x", id="duplicate-declaration"),
    pytest.param("def M = end;\nmain N;", "main references undefined N", id="main-undefined"),
    pytest.param("def M = p -> q : { rate 1/0 : {}; end };\nmain M;",
                 "M/branch1: weight does not evaluate (division by zero)", id="weight-fails"),
    pytest.param("def M = p -> q : { rate -1 : {}; end };\nmain M;",
                 "M/branch1: negative weight -1.0", id="negative-weight"),
    pytest.param("def M = p -> q : { rate 1 : {z'=1}; end };\nmain M;",
                 "M/branch1: update assigns undeclared z", id="undeclared-variable"),
    pytest.param("def M = p -> q, q : { rate 1 : {}; end };\nmain M;",
                 "M: duplicate receiver", id="duplicate-receiver"),
    pytest.param("def M = p -> r : { rate 1 : {}; end };\nmain M;",
                 "M: undeclared role r", id="undeclared-role"),
    pytest.param("def M = if x = 0 @ r then { end } else { end };\nmain M;",
                 "M: conditional at undeclared role r", id="undeclared-decider"),
    pytest.param("def M = p -> q : { rate 1 : {}; if -b = 0 @ p then { end } else { M } };"
                 "\nmain M;",
                 "M/branch1: unary minus applied to bool operand", id="type-error"),
])
def test_each_finding_names_its_location(body, finding):
    assert check_well_formed(load_program(WF_HEADER + body)) == [finding]


@pytest.mark.parametrize("kind", ["ctmc", "dtmc"])
@pytest.mark.parametrize("const, weight, findings", [
    pytest.param("const k = 1e400;", "k",
                 ["constant k is not finite (inf)", "M/branch1: weight is not finite (inf)"], id="inf"),
    pytest.param("const k = 1e400;", "k - k",
                 ["constant k is not finite (inf)", "M/branch1: weight is not finite (nan)"], id="nan"),
    pytest.param("", "1e300*1e300", ["M/branch1: weight is not finite (inf)"], id="overflow"),
])
def test_a_weight_or_constant_that_is_not_finite_is_a_finding(kind, const, weight, findings):
    # a weight that is not finite adds nothing to its interaction's sum
    src = f"{kind};\nrole p, q;\n{const}\ndef M = p -> q : {{ rate {weight} : {{}}; end }};\nmain M;"
    assert check_well_formed(load_program(src)) == findings


def test_a_statements_findings_come_before_its_continuations():
    src = """
    ctmc;
    role p, q;
    def M = p -> q : { rate 0.5 : {}; q -> p : { rate 1 : {}; X } | rate 0.5 : {z'=1}; end };
    main M;
    """
    assert check_well_formed(load_program(src)) == [
        "M/branch2: update assigns undeclared z",
        "M/branch1/branch1: call to undefined X",
    ]


READ_AFTER_WRITE = """
ctmc;
role p, q;
var x @ p : [0..2] init 0;
var y @ q : [0..2] init 0;
var z @ p : [0..2] init 0;
def C = p -> q : { rate 2 : {UPDATE}; C | rate 3 : {x'=0, y'=0}; C };
main C;
"""


@pytest.mark.parametrize("update, finding", [
    ("y'=1, x'=y", "C/branch1: update x'=y reads y, which q writes in the same update"),
    ("x'=y+y, y'=1", "C/branch1: update x'=y + y reads y, which q writes in the same update"),
    ("x'=1, y'=min(x, z)", "C/branch1: update y'=min(x, z) reads x, which p writes in the same update"),
    ("x'=1, z'=x", None),  # the same owner keeps its order
    ("x'=y, z'=y", None),  # y is not written here
    ("x'=x+1, y'=y", None),
])
def test_cross_role_read_after_write_is_rejected(update, finding):
    findings = check_well_formed(load_program(READ_AFTER_WRITE.replace("UPDATE", update)))
    assert findings == ([] if finding is None else [finding])


# ---------------------------------------------------------------------------
# expression typing
# ---------------------------------------------------------------------------

def test_type_of_basics():
    env = {"x": "int", "b": "bool"}
    assert type_of(Lit(2), env) == "int"
    assert type_of(Lit(0.5), env) == "real"
    assert type_of(Binary("+", Var("x"), Lit(1)), env) == "int"
    assert type_of(Binary("<", Var("x"), Lit(1)), env) == "bool"
    assert type_of(Binary("and", Var("b"), Lit(True)), env) == "bool"
    assert type_of(Binary("/", Var("x"), Lit(2)), env) == "int"


@pytest.mark.parametrize(
    "expr",
    [
        Binary("+", Lit(True), Lit(1)),
        Binary("<", Lit(True), Lit(1)),
        Binary("and", Lit(1), Lit(True)),
        Binary("=", Lit(True), Lit(1)),
        Unary("not", Lit(1)),
        Var("ghost"),
    ],
)
def test_type_misuse_is_rejected(expr):
    with pytest.raises(WellFormednessError):
        type_of(expr, {"x": "int"})
