"""Surface syntax: parsing, pretty-printing, family expansion, the
guarded-choice table lowering, and automatic labelling."""

from __future__ import annotations

import hashlib
import importlib
import pathlib
import random

import pytest

from chorprism import (
    ParseError,
    auto_annotate,
    emit,
    fuse_resets,
    load_program,
    parse,
    pretty_print,
    project,
)
from chorprism.analysis import expr_vars
from chorprism.errors import ChorError, IndexOutOfFamily, NonStaticIndex, WellFormednessError
from chorprism.parser import expr_to_str, term_to_str, tokenize
from chorprism.sugar import branch_label, expand_indices
from chorprism.syntax import (
    FUNCTIONS,
    PREC,
    Assign,
    Binary,
    Branch,
    CallTerm,
    Conditional,
    Inact,
    Interaction,
    Lit,
    Unary,
    Var,
    render_value,
    subterms,
)

import tok_ref


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_recursive_exchange_structure(data_text):
    prog = load_program(data_text("example2.chor"))
    assert prog.kind == "ctmc"
    assert prog.roles == ("p", "q")
    assert prog.constants == {"lambda1": 2, "lambda2": 3}
    x = prog.var("x")
    assert (x.owner, x.lo, x.hi, x.init) == ("p", 0, 3, 0)
    y = prog.var("y")
    assert (y.owner, y.lo, y.hi, y.init) == ("q", 0, 2, 0)

    body = prog.defs["C"]
    assert isinstance(body, Interaction)
    assert body.initiator == "p" and body.receivers == ("q",)
    b1, b2 = body.branches
    assert b1.weight == Var("lambda1")
    assert b1.update == (Assign("x", Lit(1)), Assign("y", Lit(2)))
    assert b1.cont == CallTerm("C")
    assert b2.weight == Var("lambda2")
    assert b2.update == (Assign("x", Lit(3)), Assign("y", Lit(1)))
    assert prog.main == "C"


def test_parse_keeps_branch_labels_and_annotations(data_text):
    prog = load_program(data_text("annot_ok.chor"))
    outer = prog.defs["Main"]
    assert outer.annotation == "a"
    inner = [
        t for t in subterms(outer)
        if isinstance(t, Interaction) and t.annotation == "b"
    ]
    assert len(inner) == 1

    tt = load_program(data_text("thinkteam.chor"))
    labels = [b.label for b in tt.defs["C0"].branches]
    assert labels == ["MMHOL", "FFSFW"]


def test_self_message_normalizes_to_no_receivers():
    prog = load_program(
        "ctmc;\nrole p;\nvar x @ p : [0..1] init 0;\n"
        "def M = p -> p : { rate 1 : {x'=1}; end };\nmain M;\n"
    )
    t = prog.defs["M"]
    assert t.initiator == "p" and t.receivers == ()


x, y, z = Var("x"), Var("y"), Var("z")


def guard_program(guard: str) -> str:
    return f"ctmc;\nrole p;\ndef M = if {guard} @ p then {{ end }} else {{ end }};\nmain M;\n"


@pytest.mark.parametrize("guard, tree", [
    pytest.param("x+1*2 = 3 and not x>5",
                 Binary("and", Binary("=", Binary("+", x, Binary("*", Lit(1), Lit(2))), Lit(3)),
                        Unary("not", Binary(">", x, Lit(5)))), id="mixed"),
    pytest.param("x - y - z = 0", Binary("=", Binary("-", Binary("-", x, y), z), Lit(0)),
                 id="minus-groups-left"),
    pytest.param("x / y / z = 0", Binary("=", Binary("/", Binary("/", x, y), z), Lit(0)),
                 id="division-groups-left"),
    pytest.param("x = 0 or y = 0 and z = 0",
                 Binary("or", Binary("=", x, Lit(0)),
                        Binary("and", Binary("=", y, Lit(0)), Binary("=", z, Lit(0)))),
                 id="or-looser-than-and"),
    pytest.param("-x * y < -(x + y)",
                 Binary("<", Binary("*", Unary("neg", x), y), Unary("neg", Binary("+", x, y))),
                 id="unary-minus-tightest"),
    pytest.param("not x = y and z",
                 Binary("and", Unary("not", Binary("=", x, y)), z), id="not-takes-one-comparison"),
    pytest.param("(x = y) = z", Binary("=", Binary("=", x, y), z), id="parenthesised-comparison"),
    pytest.param("mod(x, 2) < min(y, -z)",
                 Binary("<", Binary("mod", x, Lit(2)), Binary("min", y, Unary("neg", z))),
                 id="functions"),
])
def test_operator_precedence_and_floor_division(guard, tree):
    assert parse(guard_program(guard)).defs["M"].guard == tree


@pytest.mark.parametrize("guard, message", [
    pytest.param("x < y < z", "3:18: expected '@', found '<'", id="comparisons-do-not-chain"),
    pytest.param("not x = y = z", "3:22: expected '@', found '='", id="not-takes-one-comparison"),
    pytest.param("b and x < y < z", "3:24: expected '@', found '<'", id="no-chain-after-and"),
    pytest.param("x and not", "3:22: expected an expression, found '@'", id="not-needs-an-operand"),
    pytest.param("x + not y", "3:16: expected an expression, found 'not'", id="not-is-not-an-operand"),
])
def test_expression_errors_point_at_the_offending_token(guard, message):
    with pytest.raises(ParseError) as exc:
        parse(guard_program(guard))
    assert str(exc.value) == message


def random_expr(rng: random.Random, depth: int):
    """A random expression tree over every operator; literals are ones the
    parser produces (no negative numbers, no integral floats)."""
    pick = rng.random()
    if depth == 0 or pick < 0.2:
        return rng.choice([Lit(0), Lit(7), Lit(0.5), Lit(1e-05), Lit(True), Lit(False),
                           x, y, Var("f[i+1]"), Var("g[2]")])
    if pick < 0.35:
        return Unary(rng.choice(["not", "neg"]), random_expr(rng, depth - 1))
    op = rng.choice([*(op for op in PREC if op not in ("not", "neg")), *FUNCTIONS])
    return Binary(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


@pytest.mark.parametrize("seed", range(5))
def test_printed_expressions_parse_back_to_the_same_tree(seed):
    rng = random.Random(seed)
    for _ in range(200):
        e = random_expr(rng, 5)
        assert parse(guard_program(expr_to_str(e))).defs["M"].guard == e


@pytest.mark.parametrize(
    "src",
    [
        "ctmc\nrole p;",  # missing semicolon after the kind
        "ctmc;\nrole p\ndef M = end;\nmain M;",  # missing semicolon after roles
        "ctmc;\nrole p, q;\ndef M = p -> ;\nmain M;",
        "ctmc;\nrole p, q;\ndef M = p -> q : { rate 1 {}; end };\nmain M;",
        "ctmc;\nrole p, q;\ndef M = end;\nmain M",  # missing final semicolon
        "ctmc;\nrole p, q;\ndef M = end;\n$$$\nmain M;",
    ],
)
def test_parse_errors_carry_positions(src):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.exit_code == 2
    # positions are part of the message, "line:col: reason"
    head = str(exc.value).split(" ")[0]
    assert head.count(":") == 2


@pytest.mark.parametrize(
    "src, message",
    [
        ("ctmc;\nconst a = 1;\nconst  a = 2;\nrole p;\ndef M = end;\nmain M;",
         "3:8: constant a declared twice"),
        ("ctmc;\nrole p;\ndef M = end;\n  def M =\n    end;\nmain M;",
         "4:7: definition M declared twice"),
        ("ctmc;\nrole p;\nvar b @ p : bool init 1;\ndef M = end;\nmain M;",
         "3:5: bool variable b needs a bool initial value"),
        ("ctmc;\nrole p;\n var v[1..2] @ p : [0..1] init 0;\ndef M = end;\nmain M;",
         "3:6: variable family v needs an indexed owner"),
        # a family's owner index stands for each variable's own index, so
        # only a bare index variable may be written there
        ("ctmc;\nrole c[1..2];\n var v[1..2] @ c[1] : [0..1] init 0;\ndef M = end;\nmain M;",
         "3:6: variable family v needs an owner indexed by an index variable, not c[1]"),
        ("ctmc;\nrole c[1..2];\n var v[1..2] @ c[i+1] : [0..1] init 0;\ndef M = end;\nmain M;",
         "3:6: variable family v needs an owner indexed by an index variable, not c[i+1]"),
        ("ctmc;\nconst N = 2; role c[1..2];\n var v[1..2] @ c[N] : [0..1] init 0;\n"
         "def M = end;\nmain M;",
         "3:6: variable family v needs an owner indexed by an index variable, not c[N]"),
        # the same error when the constant is declared after the family
        ("ctmc;\nrole c[1..2];\n var v[1..2] @ c[N] : [0..1] init 0;\nconst N = 2;\n"
         "def M = end;\nmain M;",
         "3:6: variable family v needs an owner indexed by an index variable, not c[N]"),
    ],
    ids=["const", "def", "bool", "family", "family-owner-literal", "family-owner-offset",
         "family-owner-constant", "family-owner-constant-later"],
)
def test_declaration_errors_point_at_the_declared_name(src, message):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "src, message",
    [
        ("role p;\ndef M = end;\nmain M;", "1:1: expected 'ctmc' or 'dtmc', found 'role'"),
        ("ctmc;\nrole p;\nmain M;\nfoo M;",
         "4:1: expected a declaration (const/role/var/def/main), found 'foo'"),
        ("ctmc;\nrole p;\ndef M = end;\n", "4:1: missing 'main' declaration"),
        ("ctmc;\nrole p;\nvar x @ p : [0..N] init 0;\ndef M = end;\nmain M;",
         "3:17: unknown constant N in range"),
        ("ctmc;\nrole p;\nvar x @ p : [0..1.5] init 0;\ndef M = end;\nmain M;",
         "3:17: range endpoint 1.5 is not an integer"),
        ("ctmc;\nrole c[1..2];\ndef M = c[1];\nmain M;",
         "3:13: expected '->' after indexed role, found ';'"),
        ("ctmc;\nrole p;\ndef M = ;\nmain M;", "3:9: expected a term, found ';'"),
        ("ctmc;\nrole p, q;\nvar f[1..2] @ q[i] : [0..1] init 0;\n"
         "def M = p -> q : { rate 1 : {foreach (j + 1) f[j]'=0}; end };\nmain M;",
         "4:41: expected a comparison operator, found '+'"),
        ("ctmc;\nrole p, q;\nvar x @ p : [0..1] init 0;\n"
         "def M = allsynch { p : x=0 -> rate 1 : {foreach (j = 1) x'=1} | q : true -> rate 1 : {} };"
         " end;\nmain M;",
         "4:63: foreach is not allowed inside allsynch"),
    ],
    ids=["kind", "declaration", "main", "range-constant", "range-integer", "indexed-call",
         "term", "foreach-comparison", "foreach-in-allsynch"],
)
def test_structure_errors_point_at_the_offending_token(src, message):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert str(exc.value) == message


def test_comments_and_whitespace_are_ignored(data_text):
    stripped = "\n".join(
        line for line in data_text("example2.chor").splitlines()
        if not line.lstrip().startswith("//")
    )
    assert load_program(stripped) == load_program(data_text("example2.chor"))


# (token count, sha256 prefix of the (kind, value, line, col) list), recorded
# from the loop tokenizer that matched one token class per call
FIXTURE_TOKENS = {
    "allsynch.chor": (93, "52f93407cb0fad82"),
    "annot_dup.chor": (94, "60213f2f69e0e814"),
    "annot_ok.chor": (94, "af50509685e4688a"),
    "cond_cycle.chor": (58, "4a96d5ca26114142"),
    "cond_cycle_unreached.chor": (58, "95b341fc95a31457"),  # from the one-regex tokenizer
    "constants.chor": (72, "b64188e58ea7dc04"),
    "dispatcher.chor": (198, "87b5e014922ba5cd"),
    "end_arm.chor": (60, "f24be7431f18a364"),
    "entry_cycle.chor": (26, "9776d7fb29c48ec1"),
    "example1.chor": (84, "8fa7ca7a0520ce42"),
    "example2.chor": (90, "1025d4893d71fc63"),
    "example2_dtmc.chor": (90, "b50e000103485d09"),
    "families_foreach.chor": (169, "79057bfc5a5ae133"),
    "guarded_division.chor": (81, "e6ab45659f380217"),
    "idle_later.chor": (71, "dc810fe947c709b7"),
    "idle_role.chor": (54, "c7773e96a2ef9538"),
    "label_clash.chor": (91, "1bf02bdb7afa7f95"),
    "nonsconn.chor": (83, "ae0fb1a22b52ad4a"),
    "p2p.chor": (115, "9e4793b6e34b3ebf"),
    "parametric.chor": (92, "4924015575943643"),
    "sconn_pos.chor": (116, "f6d0a0ac16d943f3"),
    "stutter_cycle.chor": (179, "a31d03ecb449339f"),  # from the one-regex tokenizer
    "thinkteam.chor": (178, "664ae997875b3fc2"),
}


def _token_tuples(text: str) -> list[tuple]:
    return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]


def test_every_fixture_has_pinned_tokens():
    data = pathlib.Path(__file__).parent / "data"
    assert sorted(FIXTURE_TOKENS) == sorted(p.name for p in data.glob("*.chor"))


@pytest.mark.parametrize("name", sorted(FIXTURE_TOKENS))
def test_fixture_tokens_are_pinned(name, data_text):
    toks = _token_tuples(data_text(name))
    digest = hashlib.sha256(repr(toks).encode()).hexdigest()[:16]
    assert (len(toks), digest) == FIXTURE_TOKENS[name]


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("ctmc; // last line",
         [("ctmc", "ctmc", 1, 1), (";", ";", 1, 5), ("eof", None, 1, 19)]),
        ("ctmc;\r\nrole p,\r\n  q;\r\n",
         [("ctmc", "ctmc", 1, 1), (";", ";", 1, 5), ("role", "role", 2, 1),
          ("name", "p", 2, 6), (",", ",", 2, 7), ("name", "q", 3, 3), (";", ";", 3, 4),
          ("eof", None, 4, 1)]),
        ("\tvar\tx @ p :\t[0..1]",
         [("var", "var", 1, 2), ("name", "x", 1, 6), ("@", "@", 1, 8), ("name", "p", 1, 10),
          (":", ":", 1, 12), ("[", "[", 1, 14), ("number", 0, 1, 15), ("..", "..", 1, 16),
          ("number", 1, 1, 18), ("]", "]", 1, 19), ("eof", None, 1, 20)]),
        ("[0..3] 1e-3 2.5 7E+2 3e x",
         [("[", "[", 1, 1), ("number", 0, 1, 2), ("..", "..", 1, 3), ("number", 3, 1, 5),
          ("]", "]", 1, 6), ("number", 0.001, 1, 8), ("number", 2.5, 1, 13),
          ("number", 700.0, 1, 17), ("number", 3, 1, 22), ("name", "e", 1, 23),
          ("name", "x", 1, 25), ("eof", None, 1, 26)]),
        ("end\n\n  ", [("end", "end", 1, 1), ("eof", None, 3, 3)]),
        ("", [("eof", None, 1, 1)]),
    ],
    ids=["comment-at-eof", "crlf", "tabs", "numbers", "eof-after-blank-lines", "empty"],
)
def test_token_positions(text, tokens):
    assert _token_tuples(text) == tokens
    assert [type(v) for _, v, _, _ in _token_tuples(text)] == [type(v) for _, v, _, _ in tokens]


@pytest.mark.parametrize(
    "text, message",
    [
        ("ctmc;\n\n  // a note\n\n\t $", "5:3: unexpected character '$'"),
        # numbers are ASCII digits only, not any Unicode decimal digit
        ("ctmc;\nrole q;\nvar x @ q : [0..\u0663] init 1;", "3:17: unexpected character '\u0663'"),
        ("ctmc;\nrole q;\nvar x @ q : [0..3] init \u0661;", "3:25: unexpected character '\u0661'"),
    ],
    ids=["after-blank-lines-and-comment", "arabic-indic-bound", "arabic-indic-init"],
)
def test_tokenizer_errors(text, message):
    with pytest.raises(ParseError) as exc:
        tokenize(text)
    assert str(exc.value) == message


def _tokens_or_error(tokenizer, text: str):
    """Every token with its value's type, or the error with its position."""
    try:
        return [(t.kind, t.value, type(t.value), t.line, t.col) for t in tokenizer(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def test_tokenizer_matches_the_reference_on_fixtures_and_corpora(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "benchmarks"))
    workloads = importlib.import_module("workloads")
    texts = [path.read_text(encoding="utf-8")
             for path in sorted(pathlib.Path(__file__).parent.joinpath("data").glob("*.chor"))]
    texts += [case.text for seed in (1, 7, 101) for case in workloads.corpus_cases(seed, 200)]
    for text in texts:
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(tok_ref.tokenize, text)


# pieces of random token strings: tokens, blanks of every kind, comments,
# near-tokens and non-ASCII letters and digits
TOKEN_PIECES = (
    "ctmc", "rate", "foreach", "x", "_q1", "c[i+1]", "0", "42", "2.5", "1e-3", "7E+2", "3e",
    "1.", "..", "->", "<=", "!=", ">=", "=", "-", "/", "*", "'", "{", "}", "|", ";", ":",
    " ", "  ", "\t", "\n", "\r\n", "\r", "\n\n", "// note", "//", "\u00e9", "\u00df",
    "\u0663", "\uff58", "$", "\x0c", ".",
)


def test_tokenizer_matches_the_reference_on_random_strings():
    rng = random.Random(17)
    texts = ["", "\n", "\r", "\r\n", "// end", "x // end", "x\n// end", " \t\r"]
    for _ in range(3000):
        pieces = rng.choices(TOKEN_PIECES, k=rng.randrange(30))
        texts.append("".join(pieces) + rng.choice(("", "", "\n", " // tail", "\r\n")))
    for text in texts:
        assert _tokens_or_error(tokenize, text) == _tokens_or_error(tok_ref.tokenize, text)


# ---------------------------------------------------------------------------
# pretty-printer round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name",
    [
        "example1.chor",
        "example2.chor",
        "example2_dtmc.chor",
        "thinkteam.chor",
        "dispatcher.chor",
        "guarded_division.chor",
        "sconn_pos.chor",
        "annot_ok.chor",
        "allsynch.chor",
        "parametric.chor",
        "p2p.chor",
    ],
)
def test_pretty_print_round_trips(name, data_text):
    prog = load_program(data_text(name))
    assert load_program(pretty_print(prog)) == prog
    annotated = auto_annotate(prog)
    assert load_program(pretty_print(annotated)) == annotated


def test_constants_stand_for_a_range_endpoint_a_family_index_and_a_rate(data_text):
    prog = load_program(data_text("constants.chor"))
    # an integral float constant is read as an int
    assert prog.constants == {"N": 2, "H": 3} and type(prog.constants["H"]) is int
    assert (prog.var("x").lo, prog.var("x").hi) == (0, 2)
    assert prog.defs["M"].receivers == ("c2",)
    assert "const H = 3;" in pretty_print(prog)
    assert load_program(pretty_print(prog)) == prog


def test_one_printer_writes_every_value():
    values = (True, False, 3, 3.0, 2.5, -1.0)
    assert [render_value(v) for v in values] == ["true", "false", "3", "3", "2.5", "-1"]


def test_bool_initialised_true_round_trips_and_compiles():
    src = ("ctmc;\nrole p, q;\nvar b @ p : bool init true;\n"
           "def M = p -> q : { rate 1 : {b'=not b}; M };\nmain M;\n")
    prog = load_program(src)
    assert prog.var("b").init is True
    assert "var b @ p : bool init true;" in pretty_print(prog)
    assert load_program(pretty_print(prog)) == prog
    annotated = auto_annotate(prog)
    net, _ = project(annotated)
    assert "  b : bool init true;\n" in emit(fuse_resets(net), annotated)


# ---------------------------------------------------------------------------
# indexed families
# ---------------------------------------------------------------------------

def test_lowering_shares_a_program_without_sugar(data_text):
    # no family, foreach or allsynch: every parsed body is the lowered one
    surface = parse(data_text("thinkteam.chor"))
    core = expand_indices(surface)
    assert list(core.defs) == list(surface.defs)
    assert all(core.defs[name] is body for name, body in surface.defs.items())


def test_expand_indices_order_and_wraparound(data_text):
    prog = load_program(data_text("parametric.chor"))
    assert prog.roles == ("p1", "p2", "p3", "q1", "q2", "q3")
    assert [d.name for d in prog.var_decls] == ["x1", "x2", "x3"]
    assert [d.owner for d in prog.var_decls] == ["p1", "p2", "p3"]

    pairs = [
        (t.initiator, t.receivers[0])
        for t in subterms(prog.defs["X"])
        if isinstance(t, Interaction)
    ]
    # one block per instantiation of the pings, then the wrapped-around replies
    assert pairs == [
        ("p1", "q1"), ("p2", "q2"), ("p3", "q3"),
        ("q2", "p1"), ("q3", "p2"), ("q1", "p3"),
    ]


def core_names(prog):
    """Every name in a core program: roles, variables and their owners,
    participants, conditional roles, and the names that expressions read
    and updates assign."""
    yield from prog.roles
    for d in prog.var_decls:
        yield from (d.name, d.owner)
    for body in prog.defs.values():
        for t in subterms(body):
            if isinstance(t, Interaction):
                yield from t.participants
                for b in t.branches:
                    yield from expr_vars(b.weight)
                    for a in b.update:
                        yield a.var
                        yield from expr_vars(a.expr)
            elif isinstance(t, Conditional):
                yield t.role
                yield from expr_vars(t.guard)


def test_the_core_has_no_index_left(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "benchmarks"))
    workloads = importlib.import_module("workloads")
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(pathlib.Path(__file__).parent.joinpath("data").glob("*.chor"))}
    texts.update((case.name, case.text) for case in workloads.corpus_cases(7, 25))
    indexed = {name: sorted({n for n in core_names(load_program(text)) if "[" in n})
               for name, text in texts.items()}
    assert {name: names for name, names in indexed.items() if names} == {}
    assert {"c3", "f3"} <= set(core_names(load_program(texts["families_foreach.chor"])))


def test_literal_index_out_of_range_is_an_error():
    src = (
        "ctmc;\nrole c[1..2], m;\n"
        "def M = c[3] -> m : { rate 1 : {}; end };\nmain M;\n"
    )
    with pytest.raises(IndexOutOfFamily):
        load_program(src)


FAMILIES = "ctmc;\nrole c[1..2], d[1..3], m;\nvar f[1..2] @ c[i] : [0..1] init 0;\n"
K_REAL = FAMILIES + "const K = 1.5;\n"


def lowered(body: str, head: str = FAMILIES):
    return lambda: load_program(f"{head}def M = {body};\nmain M;\n")


WFE = WellFormednessError
REACHES = "index i reaches into a branch continuation of a choice"
UNBOUND = "index i in {} is bound by no statement"


# one case per raise in the lowering passes: the error class and the message
@pytest.mark.parametrize("lower,error,message", [
    pytest.param(lowered("c[1.5] -> m : { rate 1 : {}; end }"),
                 WFE, "malformed index expression [1.5]", id="malformed-index"),
    pytest.param(lowered("c[K] -> m : { rate 1 : {}; end }", K_REAL),
                 WFE, "index constant K is not an integer", id="index-constant-not-int"),
    pytest.param(lowered("m[1] -> c[1] : { rate 1 : {}; end }"),
                 WFE, "m is not a declared family", id="literal-index-on-role"),
    pytest.param(lowered("c[1] -> m : { rate 1 : {}; c[3] -> m : { rate 1 : {}; end } }"),
                 IndexOutOfFamily, "index 3 outside c[1..2]", id="literal-index-outside"),
    pytest.param(lowered("c[i] -> m : { rate 1 : {z[i]'=1}; end }"),
                 WFE, "z is not a declared family", id="index-into-undeclared"),
    pytest.param(lowered("c[1] -> m : { rate 1 : { foreach (j < i) f[j]'=1 }; end }"),
                 WFE, "cannot infer the range of index i", id="index-range-unknown"),
    pytest.param(lowered("c[i] -> d[i] : { rate 1 : {}; end }"),
                 WFE, "index i spans families with different ranges", id="index-spans-ranges"),
    pytest.param(lowered("c[i] -> d[j] : { rate 1 : {}; end }"),
                 WFE, "statement uses several index variables: i, j", id="several-indices"),
    pytest.param(lowered("c[i] -> m : { rate 1 : {}; m -> c[1] : { rate 1 : {};"
                         " c[i] -> m : { rate 1 : {}; end } } | rate 2 : {}; end }"),
                 WFE, REACHES, id="index-reaches-interaction"),
    pytest.param(lowered("c[i] -> m : { rate 1 : {}; end"
                         " | rate 2 : {}; if f[i]=1 @ c[1] then { end } else { end } }"),
                 WFE, REACHES, id="index-reaches-conditional"),
    pytest.param(lowered("c[i] -> m : { rate 1 : {}; end"
                         " | rate 2 : {}; allsynch { m : true -> rate 1 : {f[i]'=1} }; end }"),
                 WFE, REACHES, id="index-reaches-allsynch"),
    pytest.param(lowered("c[i] -> m : { rate 1 : {}; end"
                         " | rate 2 : {}; m -> c[1] : { rate 1 : {}; end } }"),
                 WFE, "branches of an indexed choice must share one continuation",
                 id="indexed-choice-continuations"),
    # the scan for the choice's index checks no literal index in its branches
    pytest.param(lowered("c[i] -> m : { rate 1 : {}; m -> c[5] : { rate 1 : {}; end }"
                         " | rate 2 : {}; end }"),
                 WFE, "branches of an indexed choice must share one continuation",
                 id="indexed-choice-continuation-literal-fault"),
    pytest.param(lowered("c[i] -> m : { rate 1 : {}; m -> c[K] : { rate 1 : {}; end }"
                         " | rate 2 : {}; m -> c[1.5] : { rate 1 : {}; end } }", K_REAL),
                 WFE, "branches of an indexed choice must share one continuation",
                 id="indexed-choice-continuation-index-faults"),
    # only an interaction binds an index variable for its own references
    pytest.param(lowered("if true @ c[i] then { end } else { end }"),
                 WFE, UNBOUND.format("c[i]"), id="unbound-conditional-role"),
    pytest.param(lowered("if f[i] = 0 @ m then { end } else { end }"),
                 WFE, UNBOUND.format("f[i]"), id="unbound-conditional-guard"),
    pytest.param(lowered("allsynch { c[i] : true -> rate 1 : {} }; end"),
                 WFE, UNBOUND.format("c[i]"), id="unbound-allsynch-role"),
    pytest.param(lowered("allsynch { m : f[i] = 0 -> rate 1 : {} }; end"),
                 WFE, UNBOUND.format("f[i]"), id="unbound-allsynch-guard"),
    pytest.param(lowered("m -> c[1] : { rate 1 : {}; end }",
                         FAMILIES + "var x @ c[i] : [0..1] init 0;\n"),
                 WFE, UNBOUND.format("c[i]"), id="unbound-variable-owner"),
    pytest.param(lowered("p -> q : { rate 1 : {}; end }",
                         "ctmc;\nrole p, q;\nvar x[1..2] @ p[i] : [0..1] init 0;\n"),
                 WFE, "variable family x owned by non-family p", id="family-owner-not-family"),
    pytest.param(lowered("c[1] -> m : { rate 1 : {}; end }",
                         "ctmc;\nrole c[1..2], m;\nvar x[1..3] @ c[i] : [0..1] init 0;\n"),
                 WFE, "variable family x[1..3] does not match owner family c[1..2]",
                 id="family-owner-range"),
    pytest.param(lowered("c[1] -> m : { rate 1 : { foreach (j <= 2) f[1]'=1 }; end }"),
                 WFE, "foreach over j must assign f[j]", id="foreach-assigns-other"),
    pytest.param(lowered("c[1] -> m : { rate 1 : { foreach (j <= 2) g[j]'=1 }; end }"),
                 WFE, "g is not a declared family", id="foreach-undeclared"),
    # the clause's expression is resolved at every index, also where the
    # bound selects none
    pytest.param(lowered("c[1] -> m : { rate 1 : { foreach (j > 5) f[j]'=g[j] }; end }"),
                 WFE, "g is not a declared family", id="foreach-expr-undeclared-empty-bound"),
    # a bound that names the clause's own binder is neither a constant
    # nor an index of the statement
    pytest.param(lowered("c[1] -> m : { rate 1 : { foreach (j <= j) f[j]'=1 }; end }"),
                 NonStaticIndex, "foreach bound j is not a constant or enclosing index",
                 id="foreach-bound-unknown"),
    pytest.param(lowered("c[1] -> m : { rate 1 : { foreach (j <= K) f[j]'=1 }; end }", K_REAL),
                 NonStaticIndex, "foreach bound 1.5 is not an integer", id="foreach-bound-not-int"),
    # with two faults, the one reported first: a statement's own fault
    # comes before any in its continuations
    pytest.param(lowered("c[3] -> m : { rate 1 : {}; c[5] -> m : { rate 1 : {}; end } }"),
                 IndexOutOfFamily, "index 3 outside c[1..2]", id="first-error-continuation"),
    pytest.param(lowered("if f[3]=1 @ c[1] then { c[5] -> m : { rate 1 : {}; end } } else { end }"),
                 IndexOutOfFamily, "index 3 outside f[1..2]", id="first-error-guard"),
    pytest.param(lowered("c[1] -> m : { rate 1 : {};"
                         " c[1] -> m : { rate 1 : { foreach (j <= 2) f[1]'=1 }; end }"
                         " | rate 2 : { foreach (j <= 1.5) f[j]'=1 }; end }"),
                 NonStaticIndex, "foreach bound 1.5 is not an integer", id="first-error-branch-order"),
    pytest.param(lowered("c[1] -> m : { rate 1 : { foreach (j <= 2) f[1]'=1 };"
                         " c[3] -> m : { rate 1 : {}; end } }"),
                 WFE, "foreach over j must assign f[j]", id="first-error-own-interaction"),
    pytest.param(lowered("c[i] -> m : { rate 1 : { foreach (j <= i) g[j]'=1 };"
                         " c[3] -> m : { rate 1 : {}; end } }"),
                 WFE, "g is not a declared family", id="first-error-own-indexed"),
    pytest.param(lowered("if f[i] = 0 @ m then { c[3] -> m : { rate 1 : {}; end } } else { end }"),
                 WFE, UNBOUND.format("f[i]"), id="first-error-own-conditional"),
    pytest.param(lowered("allsynch { m : f[3] = 0 -> rate 1 : {} };"
                         " c[3] -> m : { rate 1 : {}; end }"),
                 IndexOutOfFamily, "index 3 outside f[1..2]", id="first-error-own-allsynch"),
    # within one statement every index fault comes before a foreach fault
    pytest.param(lowered("c[1] -> m : { rate 1 : { foreach (j <= 2) f[1]'=1 }; end"
                         " | rate 2 : {f[5]'=1}; end }"),
                 IndexOutOfFamily, "index 5 outside f[1..2]", id="first-error-index-before-foreach"),
    # one walk over the definitions in source order: a foreach fault in M
    # comes before the out-of-range index in the later N
    pytest.param(lambda: load_program(
                     FAMILIES + "def M = c[1] -> m : { rate 1 : { foreach (j <= 2) f[1]'=1 }; N };\n"
                     "def N = c[3] -> m : { rate 1 : {}; M };\nmain M;\n"),
                 WFE, "foreach over j must assign f[j]", id="first-error-definition-order"),
    pytest.param(lambda: branch_label(Interaction("p", ("q",), (Branch(Lit(1), (), Inact()),)), 0),
                 WFE, "interaction has neither labels nor annotation", id="label-without-annotation"),
])
def test_lowering_errors(lower, error, message):
    with pytest.raises(ChorError) as exc:
        lower()
    assert type(exc.value) is error
    assert str(exc.value) == message


FAMILIES_FOREACH_LOWERED = """\
dtmc;
const N = 3;
role m, c1, c2, c3;
var k @ m : [0..3] init 0;
var f1 @ c1 : [0..1] init 0;
var f2 @ c2 : [0..1] init 0;
var f3 @ c3 : [0..1] init 0;
def Reset =
  m -> c1, c2, c3 : {
      rate 0.25 : {f1'=0, f2'=0, f3'=0, k'=0}; Step
    | rate 0.75 : {f2'=1, f3'=1}; Step
  };
def Step =
  c1 -> m : {
      rate 1 : {f1'=1, k'=mod(k + 1, 4)}; c2 -> m : {
        rate 1 : {f2'=1, k'=mod(k + 1, 4)}; c3 -> m : {
          rate 1 : {f3'=1, k'=mod(k + 1, 4)}; Reset
      }
    }
  };
main Reset;
"""


def test_foreach_bounds_lower_in_the_walk(data_text):
    # a constant bound, a comparison with a literal, and the index of the
    # replicated statement around the clause
    prog = load_program(data_text("families_foreach.chor"))
    assert pretty_print(prog) == FAMILIES_FOREACH_LOWERED


def test_foreach_expands_over_the_family_range():
    src = (
        "ctmc;\nrole c[1..3], m;\n"
        "var f[1..3] @ c[i] : [0..1] init 0;\n"
        "def M = c[1] -> m : { rate 1 : { foreach (j <= 2) f[j]'=1 }; end };\n"
        "main M;\n"
    )
    upd = load_program(src).defs["M"].branches[0].update
    assert upd == (Assign("f1", Lit(1)), Assign("f2", Lit(1)))


# ---------------------------------------------------------------------------
# guarded-choice tables
# ---------------------------------------------------------------------------

def test_allsynch_lowers_to_nested_conditionals(data_text):
    prog = load_program(data_text("allsynch.chor"))
    t = prog.defs["Main"]

    assert isinstance(t, Conditional)
    assert (t.guard, t.role) == (Binary("=", Var("x"), Lit(5)), "p")

    inner = t.then_term
    assert isinstance(inner, Conditional)
    assert (inner.guard, inner.role) == (Binary("=", Var("y"), Lit(1)), "q")
    hit = inner.then_term
    assert isinstance(hit, Interaction)
    assert (hit.initiator, hit.receivers) == ("p", ("q",))
    (b,) = hit.branches
    assert b.weight == Lit(10)
    assert b.update == (Assign("x", Lit(0)), Assign("y", Lit(0)))
    assert b.cont == Inact()
    assert inner.else_term == Inact()

    low = t.else_term
    assert isinstance(low, Conditional)
    assert (low.guard, low.role) == (Binary("=", Var("x"), Lit(1)), "p")
    hit2 = low.then_term.then_term
    (b2,) = hit2.branches
    assert b2.weight == Lit(5)
    assert b2.update == (Assign("x", Lit(100)), Assign("y", Lit(0)))
    assert low.else_term == Inact()


def test_allsynch_matches_its_manual_expansion(data_text):
    # the behaviour of the lowered table equals the hand-written cascade
    manual = """
    ctmc;
    role p, q;
    var x @ p : [0..100] init 5;
    var y @ q : [0..1] init 1;
    def Main =
      if x=5 @ p then {
        if y=1 @ q then { p -> q : { rate 10 : {x'=0, y'=0}; end } } else { end }
      } else {
        if x=1 @ p then {
          if y=1 @ q then { p -> q : { rate 5 : {x'=100, y'=0}; end } } else { end }
        } else { end }
      };
    main Main;
    """
    assert load_program(data_text("allsynch.chor")) == load_program(manual)


def test_allsynch_true_guard_short_circuits():
    src = (
        "ctmc;\nrole p, q;\n"
        "var x @ p : [0..1] init 0;\nvar y @ q : [0..1] init 0;\n"
        "def M = allsynch { p : true -> rate 2 : {x'=1}\n"
        "                 | q : true -> rate 1 : {y'=1} }; end;\n"
        "main M;\n"
    )
    t = load_program(src).defs["M"]
    # no conditional survives: both ladders collapse onto the interaction
    assert isinstance(t, Interaction)
    (b,) = t.branches
    assert b.weight == Lit(2)
    assert b.update == (Assign("x", Lit(1)), Assign("y", Lit(1)))


# ---------------------------------------------------------------------------
# labelling
# ---------------------------------------------------------------------------

def test_auto_annotate_numbers_interactions_in_preorder(data_text):
    prog = auto_annotate(load_program(data_text("sconn_pos.chor")))
    anns = [
        t.annotation for t in subterms(prog.defs["X"]) if isinstance(t, Interaction)
    ]
    assert anns == ["A1", "A2"]


def test_auto_annotate_keeps_existing_and_avoids_collisions():
    src = (
        "ctmc;\nrole p, q;\n"
        "def M = p -> q : [A2] { rate 1 : {};"
        " p -> q : { rate 1 : {}; end } };\nmain M;\n"
    )
    prog = auto_annotate(load_program(src))
    anns = [
        t.annotation for t in subterms(prog.defs["M"]) if isinstance(t, Interaction)
    ]
    assert anns == ["A2", "A1"]


def test_seeded_labels_are_reproducible(data_text):
    prog = load_program(data_text("example2.chor"))
    a = auto_annotate(prog, seed=7)
    b = auto_annotate(prog, seed=7)
    assert a == b
    ann = a.defs["C"].annotation
    assert len(ann) == 5 and ann.isalpha() and ann.isupper()
    c = auto_annotate(prog, seed=8)
    assert c.defs["C"].annotation != ann


def test_branch_labels_derive_from_the_annotation(data_text):
    prog = auto_annotate(load_program(data_text("example2.chor")))
    t = prog.defs["C"]
    assert branch_label(t, 0) == f"{t.annotation}_1"
    assert branch_label(t, 1) == f"{t.annotation}_2"

    tt = load_program(data_text("thinkteam.chor"))
    assert branch_label(tt.defs["C0"], 0) == "MMHOL"
    assert branch_label(tt.defs["C2"], 1) == "XWSAO"
