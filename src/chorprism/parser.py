"""Concrete syntax: lexer, recursive-descent parser, and pretty-printer.

The surface language extends the core with indexed role/variable families
(``client[1..N]``), ``foreach`` update clauses, and ``allsynch`` blocks;
:func:`chorprism.sugar.expand_indices` lowers these to the core. Indexed
references are carried textually (``"q[i+1]"``) inside the ordinary name
slots until expansion rewrites them to concrete names like ``q2``. A
variable family's owner is indexed by a bare index variable (``@ c[i]``),
which stands for the index of each variable in the family.

Grammar sketch (comments are ``// …``)::

    program   := ("ctmc"|"dtmc") ";" decl*
    decl      := "const" NAME "=" number ";"
               | "role" rolespec ("," rolespec)* ";"
               | "var" NAME "@" ref ":" vtype "init" value ";"
               | "var" NAME range "@" NAME "[" NAME "]" ":" vtype "init" value ";"
               | "def" NAME "=" term ";"
               | "main" NAME ";"
    rolespec  := NAME range?
    vtype     := range | "bool"
    range     := "[" bound ".." bound "]"
    term      := ref "->" [ref ("," ref)*] ":" label? "{" branch ("|" branch)* "}"
               | "if" expr "@" ref "then" "{" term "}" "else" "{" term "}"
               | "allsynch" "{" entry ("|" entry)* "}" ";" term
               | "end" | NAME
    label     := "[" NAME "]"
    branch    := label? "rate" expr ":" update ";" term
    entry     := ref ":" expr "->" "rate" expr ":" update
    update    := "{" (uitem ("," uitem)*)? "}"
    uitem     := "foreach" "(" NAME cmpop (NAME|INT) ")" assign | assign
    assign    := ref "'" "=" expr
    ref       := NAME ("[" (INT | NAME (("+"|"-") INT)?) "]")?
    expr      := ("not" | "-") expr | expr binop expr | atom
    atom      := number | "true" | "false" | "(" expr ")" | ref
               | ("mod"|"min"|"max") "(" expr "," expr ")"

A ``const`` or ``def`` name, and ``main``, is declared once.
``syntax.PREC`` sets how tightly each operator of ``expr`` binds; binary
operators group to the left and comparisons do not chain. Expressions use
keywords ``and``/``or``/``not`` (the PRISM symbols would collide with the
branch separator) and function-style ``mod``/``min``/``max``. The
pretty-printer writes them with ``syntax.render`` in the spelling
``_SOURCE``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ParseError
from .syntax import (
    FUNCTIONS,
    PREC,
    Assign,
    Binary,
    Branch,
    CallTerm,
    ChorProgram,
    ChorTerm,
    Conditional,
    Expr,
    Inact,
    Interaction,
    Lit,
    Unary,
    Var,
    VarDecl,
    render,
    render_value,
)

# the kind of a keyword or punctuation is its text; any other word is "name"
_KINDS = {w: w for w in """
    ctmc dtmc const role var init def main if then else end allsynch foreach rate
    and or not true false bool
    -> .. != <= >= ; , : | { } [ ] ( ) @ ' = < > + - * /""".split()}

# one findall per line, cut at its comment and trailing blanks (else ``bad``
# takes the last blank): each match is the blanks before a token, then a
# number, a word (a name or punctuation, multi-character first) or ``bad``,
# any other character; a token's column is the length of what precedes it
_TOKEN = re.compile(r"""
    ([ \t\r]*)
    (?:
        ([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
      | ([A-Za-z_][A-Za-z_0-9]*|->|\.\.|!=|<=|>=|[;,:|{}\[\]()@'=<>+\-*/])
      | (.)
    )
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # keyword text, punct text, or "name"/"number"/"eof"
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    append, new = toks.append, tuple.__new__
    lines = text.split("\n")
    for n, line in enumerate(lines, 1):
        if "//" in line:
            line = line[:line.index("//")]
        col = 1
        for blanks, number, word, bad in _TOKEN.findall(line.rstrip(" \t\r")):
            col += len(blanks)
            if word:
                append(new(Token, (_KINDS.get(word, "name"), word, n, col)))
                col += len(word)
            elif number:
                append(new(Token, ("number", int(number) if number.isdecimal() else float(number),
                                   n, col)))
                col += len(number)
            else:
                raise ParseError(f"unexpected character {bad!r}", n, col)
    append(new(Token, ("eof", None, len(lines), len(lines[-1]) + 1)))
    return toks


# ---------------------------------------------------------------------------
# surface-only constructs
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class ForeachAssign:
    """``foreach (k op bound) base[k]' = expr`` inside an update list."""
    binder: str
    op: str  # = != < <= > >=
    bound: object  # int literal, constant name, or enclosing family index
    var: str  # textual indexed reference, e.g. "set[k]"
    expr: Expr


@dataclass(slots=True, unsafe_hash=True)
class AllSynchEntry:
    role: str
    guard: Expr
    weight: Expr
    update: tuple[Assign, ...]


@dataclass(slots=True, unsafe_hash=True)
class AllSynch:
    """Synchronised guarded choice across roles; lowered to nested
    conditionals by :func:`chorprism.sugar.expand_indices`."""
    entries: tuple[AllSynchEntry, ...]
    cont: ChorTerm


@dataclass(slots=True, unsafe_hash=True)
class RoleFamily:
    base: str
    lo: int
    hi: int


@dataclass(slots=True, unsafe_hash=True)
class VarFamily:
    base: str
    lo: int
    hi: int
    owner_base: str
    vlo: int
    vhi: int
    is_bool: bool
    init: object


@dataclass
class SurfaceProgram:
    kind: str
    constants: dict[str, object] = field(default_factory=dict)
    roles: list[str] = field(default_factory=list)
    role_families: list[RoleFamily] = field(default_factory=list)
    var_decls: list[VarDecl] = field(default_factory=list)
    var_families: list[VarFamily] = field(default_factory=list)
    defs: dict[str, ChorTerm] = field(default_factory=dict)
    main: str = ""


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.family_owners: list[tuple[str, str, Token]] = []  # checked at the end

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def accept(self, kind: str) -> Token | None:
        if self.toks[self.pos].kind == kind:
            return self.expect(kind)
        return None

    def expect(self, kind: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind:
            self.fail(repr(kind))
        self.pos += kind != "eof"  # as in next, eof is never consumed
        return t

    def fail(self, what: str):
        t = self.peek()
        found = "end of input" if t.kind == "eof" else repr(t.value)
        raise ParseError(f"expected {what}, found {found}", t.line, t.col)

    def items(self, read, sep: str) -> tuple:
        """``read (sep read)*``: what each ``read`` returns."""
        out = [read()]
        while self.accept(sep):
            out.append(read())
        return tuple(out)

    @staticmethod
    def declared(t: Token, what: str, twice) -> None:
        """Refuse ``what``, declared at ``t``, if ``twice``."""
        if twice:
            raise ParseError(f"{what} declared twice", t.line, t.col)

    # ---- program structure ------------------------------------------------

    def program(self) -> SurfaceProgram:
        t = self.peek()
        if t.kind not in ("ctmc", "dtmc"):
            self.fail("'ctmc' or 'dtmc'")
        kind = self.next().kind
        self.expect(";")
        prog = SurfaceProgram(kind)
        while self.peek().kind != "eof":
            k = self.peek().kind
            if k == "const":
                self.named_decl(prog.constants, "constant", self.signed_number)
            elif k == "role":
                self.next()
                self.items(lambda: self.role_spec(prog), ",")
                self.expect(";")
            elif k == "var":
                self.var_decl(prog)
            elif k == "def":
                self.named_decl(prog.defs, "definition", self.term)
            elif k == "main":
                t = self.next()
                name = self.expect("name").value
                self.expect(";")
                self.declared(t, "main", prog.main)
                prog.main = name
            else:
                self.fail("a declaration (const/role/var/def/main)")
        # a constant may be declared after the family whose owner it indexes
        for owner, idx, t in self.family_owners:
            if not idx.isidentifier() or idx in prog.constants:
                raise ParseError(f"variable family {t.value} needs an owner indexed by "
                                 f"an index variable, not {owner}[{idx}]", t.line, t.col)
        if not prog.main:
            t = self.peek()
            raise ParseError("missing 'main' declaration", t.line, t.col)
        return prog

    def named_decl(self, table: dict, what: str, read):
        """``keyword NAME "=" read ";"``, stored in ``table`` under NAME."""
        self.next()
        t = self.expect("name")
        self.expect("=")
        value = read()
        self.expect(";")
        self.declared(t, f"{what} {t.value}", t.value in table)
        table[t.value] = value

    def signed_number(self):
        neg = self.accept("-") is not None
        t = self.expect("number")
        v = -t.value if neg else t.value
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        return v

    def bound(self, constants, what: str = "range endpoint", where: str = "range") -> int:
        """Integer literal (possibly negated) or constant, which errors call
        ``what`` and place in ``where``: a range endpoint by default."""
        if self.peek().kind == "name":
            t = self.next()
            if t.value not in constants:
                raise ParseError(f"unknown constant {t.value} in {where}", t.line, t.col)
            v = constants[t.value]
        else:
            t = self.peek()
            v = self.signed_number()
        if not isinstance(v, int):
            raise ParseError(f"{what} {v} is not an integer", t.line, t.col)
        return v

    def range(self, constants) -> tuple[int, int]:
        """``"[" bound ".." bound "]"``"""
        self.expect("[")
        lo = self.bound(constants)
        self.expect("..")
        hi = self.bound(constants)
        self.expect("]")
        return lo, hi

    def role_spec(self, prog: SurfaceProgram):
        name = self.expect("name").value
        if self.peek().kind == "[":
            prog.role_families.append(RoleFamily(name, *self.range(prog.constants)))
        else:
            prog.roles.append(name)

    def var_decl(self, prog: SurfaceProgram):
        self.expect("var")
        t = self.expect("name")
        name = t.value
        fam_range = self.range(prog.constants) if self.peek().kind == "[" else None
        self.expect("@")
        owner, owner_idx = self.name_with_index()
        self.expect(":")
        if self.accept("bool"):
            is_bool, vlo, vhi = True, 0, 0
        else:
            vlo, vhi = self.range(prog.constants)
            is_bool = False
        self.expect("init")
        init = self.bool_literal()
        if init is None:
            init = self.bound(prog.constants, "initial value", "initial value")
        self.expect(";")
        if is_bool and not isinstance(init, bool):
            raise ParseError(f"bool variable {name} needs a bool initial value",
                             t.line, t.col)
        if fam_range is not None:
            if owner_idx is None:
                raise ParseError(f"variable family {name} needs an indexed owner",
                                 t.line, t.col)
            self.family_owners.append((owner, owner_idx, t))
            prog.var_families.append(
                VarFamily(name, fam_range[0], fam_range[1], owner, vlo, vhi, is_bool, init))
        else:
            ref = owner if owner_idx is None else f"{owner}[{owner_idx}]"
            prog.var_decls.append(VarDecl(name, ref, init, vlo, vhi, is_bool))

    # ---- names and indices --------------------------------------------------

    def name_with_index(self) -> tuple[str, str | None]:
        base = self.expect("name").value
        if self.peek().kind != "[":
            return base, None
        # Bracket here is an index only if it closes as one; branch labels and
        # ranges are parsed before this is ever reached.
        self.expect("[")
        if self.peek().kind == "number":
            idx = str(self.expect("number").value)
        else:
            idx = self.expect("name").value
            if self.peek().kind in ("+", "-"):
                sign = self.next().kind
                off = self.expect("number").value
                idx = f"{idx}{sign}{off}"
        self.expect("]")
        return base, idx

    def ref(self) -> str:
        """A role or variable name, with its index kept as text."""
        base, idx = self.name_with_index()
        return base if idx is None else f"{base}[{idx}]"

    # ---- terms --------------------------------------------------------------

    def term(self) -> ChorTerm:
        k = self.peek().kind
        if k == "end":
            self.next()
            return Inact()
        if k == "if":
            return self.conditional()
        if k == "allsynch":
            return self.allsynch()
        if k == "name":
            ref = self.ref()
            if self.peek().kind == "->":
                return self.interaction(ref)
            if "[" in ref:
                self.fail("'->' after indexed role")
            return CallTerm(ref)
        self.fail("a term")

    def interaction(self, initiator: str) -> Interaction:
        self.expect("->")
        receivers = self.items(self.ref, ",")
        self.expect(":")
        annotation = self.label()
        self.expect("{")
        branches = self.items(self.branch, "|")
        self.expect("}")
        if receivers == (initiator,):
            receivers = ()  # degenerate self-step, e.g. client[i] -> client[i]
        return Interaction(initiator, receivers, branches, annotation)

    def label(self) -> str | None:
        """An optional ``"[" NAME "]"``: an annotation or a branch label."""
        if not self.accept("["):
            return None
        name = self.expect("name").value
        self.expect("]")
        return name

    def branch(self) -> Branch:
        label = self.label()
        self.expect("rate")
        weight = self.expr()
        self.expect(":")
        update = self.update()
        self.expect(";")
        cont = self.term()
        return Branch(weight, update, cont, label)

    def update(self) -> tuple:
        self.expect("{")
        items = self.items(self.update_item, ",") if self.peek().kind != "}" else ()
        self.expect("}")
        return items

    def update_item(self):
        header = None
        if self.accept("foreach"):
            self.expect("(")
            binder = self.expect("name").value
            if PREC.get(self.peek().kind) != PREC["="]:
                self.fail("a comparison operator")
            op = self.next().kind
            bound = self.expect("number" if self.peek().kind == "number" else "name").value
            self.expect(")")
            header = binder, op, bound
        var = self.ref()
        self.expect("'")
        self.expect("=")
        e = self.expr()
        return Assign(var, e) if header is None else ForeachAssign(*header, var, e)

    def conditional(self) -> Conditional:
        self.expect("if")
        guard = self.expr()
        self.expect("@")
        role = self.ref()
        self.expect("then")
        self.expect("{")
        then_term = self.term()
        self.expect("}")
        self.expect("else")
        self.expect("{")
        else_term = self.term()
        self.expect("}")
        return Conditional(guard, role, then_term, else_term)

    def allsynch(self) -> AllSynch:
        self.expect("allsynch")
        self.expect("{")
        entries = self.items(self.allsynch_entry, "|")
        self.expect("}")
        self.expect(";")
        return AllSynch(entries, self.term())

    def allsynch_entry(self) -> AllSynchEntry:
        role = self.ref()
        self.expect(":")
        guard = self.expr()
        self.expect("->")
        self.expect("rate")
        weight = self.expr()
        self.expect(":")
        update = self.update()
        if any(isinstance(item, ForeachAssign) for item in update):
            t = self.peek()
            raise ParseError("foreach is not allowed inside allsynch", t.line, t.col)
        return AllSynchEntry(role, guard, weight, update)

    # ---- expressions ----------------------------------------------------------

    def expr(self, prec: int = 1) -> Expr:
        """An expression whose infix operators bind at least as tightly as
        level ``prec`` of :data:`PREC`; binary operators group to the left.
        ``limit`` is the tightest level that may still follow: after an
        operator, its own level, and after a comparison the level below,
        so comparisons do not chain."""
        limit = PREC["neg"]
        if prec <= PREC["not"] and self.accept("not"):
            left, limit = Unary("not", self.expr(PREC["not"])), PREC["not"]
        elif self.accept("-"):
            left = Unary("neg", self.expr(PREC["neg"]))
        else:
            left = self.atom()
        while True:
            op = self.peek().kind
            level = PREC.get(op, 0) if op != "not" else 0
            if not prec <= level <= limit:
                return left
            self.next()
            left = Binary(op, left, self.expr(level + 1))
            limit = level - 1 if level == PREC["="] else level

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "number":
            self.next()
            return Lit(t.value)
        if t.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "name":
            if t.value in FUNCTIONS and self.toks[self.pos + 1].kind == "(":  # t is not eof
                self.next()
                self.next()
                left = self.expr()
                self.expect(",")
                right = self.expr()
                self.expect(")")
                return Binary(t.value, left, right)
            return Var(self.ref())
        value = self.bool_literal()
        if value is None:
            self.fail("an expression")
        return Lit(value)

    def bool_literal(self) -> bool | None:
        """``true`` or ``false`` read as a bool; None, reading nothing, else."""
        kind = self.peek().kind
        if kind not in ("true", "false"):
            return None
        self.pos += 1
        return kind == "true"


def parse(text: str) -> SurfaceProgram:
    return _Parser(tokenize(text)).program()


# ---------------------------------------------------------------------------
# pretty-printer (inverse of parse for core programs)
# ---------------------------------------------------------------------------

#: the source spelling of each operator, for :func:`chorprism.syntax.render`
_SOURCE = {
    **{op: f" {op} " for op in PREC}, "not": "not ", "neg": "-",
    **{f: f + "({}, {})" for f in FUNCTIONS},
}


def expr_to_str(e: Expr) -> str:
    return render(e, _SOURCE)


def assign_to_str(a: Assign) -> str:
    return f"{a.var}'={expr_to_str(a.expr)}"


def term_to_str(term: ChorTerm, indent: int = 1) -> str:
    pad = "  " * indent
    if isinstance(term, Inact):
        return "end"
    if isinstance(term, CallTerm):
        return term.name
    if isinstance(term, Conditional):
        return (
            f"if {expr_to_str(term.guard)} @ {term.role} then {{\n"
            f"{pad}{term_to_str(term.then_term, indent + 1)}\n{pad[:-2]}}} else {{\n"
            f"{pad}{term_to_str(term.else_term, indent + 1)}\n{pad[:-2]}}}"
        )
    assert isinstance(term, Interaction)
    head = f"{term.initiator} -> "
    head += ", ".join(term.receivers) if term.receivers else term.initiator
    head += " :"
    if term.annotation:
        head += f" [{term.annotation}]"
    lines = [head + " {"]
    for j, b in enumerate(term.branches):
        lead = f"{pad}| " if j else f"{pad}  "
        lbl = f"[{b.label}] " if b.label else ""
        update = ", ".join(map(assign_to_str, b.update))
        lines.append(
            f"{lead}{lbl}rate {expr_to_str(b.weight)} : {{{update}}};"
            f" {term_to_str(b.cont, indent + 1)}"
        )
    lines.append(pad[:-2] + "}")
    return "\n".join(lines)


def pretty_print(program: ChorProgram) -> str:
    out = [f"{program.kind};"]
    for name, v in program.constants.items():
        out.append(f"const {name} = {render_value(v)};")
    if program.roles:
        out.append("role " + ", ".join(program.roles) + ";")
    for d in program.var_decls:
        ty = "bool" if d.is_bool else f"[{d.lo}..{d.hi}]"
        out.append(f"var {d.name} @ {d.owner} : {ty} init {render_value(d.init)};")
    for name, body in program.defs.items():
        out.append(f"def {name} =\n  {term_to_str(body, 2)};")
    out.append(f"main {program.main};")
    return "\n".join(out) + "\n"
