"""A deliberately small parser for the PRISM text we emit.

Test-only: it understands exactly the fragment the emitter produces (kind
line, double constants, module blocks with range/bool variables and guarded
commands) and rebuilds a network from it, so tests can check that emitted
text means the same thing as the network it came from.
"""

from __future__ import annotations

import re

from chorprism.prism import PrismCommand, PrismModule
from chorprism.syntax import Assign, Binary, Lit, Unary, Var, VarDecl

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>->|!=|<=|>=|[=<>&|!+\-*/()\[\]:;',]))"
)


def _tokens(text: str) -> list[str | float | int]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot lex {text[pos:pos+20]!r}")
        pos = m.end()
        if m.group("num"):
            s = m.group("num")
            out.append(float(s) if ("." in s or "e" in s or "E" in s) else int(s))
        else:
            out.append(m.group("name") or m.group("op"))
    return out


class _Expr:
    """Recursive descent over one token list; highest-precedence last."""

    def __init__(self, toks: list, at: int = 0):
        self.toks = toks
        self.at = at

    def peek(self):
        return self.toks[self.at] if self.at < len(self.toks) else None

    def take(self, what=None):
        t = self.toks[self.at]
        if what is not None and t != what:
            raise ValueError(f"expected {what!r}, found {t!r}")
        self.at += 1
        return t

    def parse(self):
        return self.or_()

    def or_(self):
        e = self.and_()
        while self.peek() == "|":
            self.take()
            e = Binary("or", e, self.and_())
        return e

    def and_(self):
        e = self.not_()
        while self.peek() == "&":
            self.take()
            e = Binary("and", e, self.not_())
        return e

    def not_(self):
        if self.peek() == "!":
            self.take()
            return Unary("not", self.not_())
        return self.cmp()

    def cmp(self):
        e = self.add()
        if self.peek() in ("=", "!=", "<", "<=", ">", ">="):
            op = self.take()
            return Binary(op, e, self.add())
        return e

    def add(self):
        e = self.mul()
        while self.peek() in ("+", "-"):
            op = self.take()
            e = Binary(op, e, self.mul())
        return e

    def mul(self):
        e = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            e = Binary("/" if op == "/" else "*", e, self.unary())
        return e

    def unary(self):
        if self.peek() == "-":
            self.take()
            return Unary("neg", self.unary())
        return self.atom()

    def atom(self):
        t = self.take()
        if isinstance(t, (int, float)):
            return Lit(t)
        if t == "(":
            e = self.parse()
            self.take(")")
            return e
        if t == "true":
            return Lit(True)
        if t == "false":
            return Lit(False)
        if t == "floor":
            self.take("(")
            e = self.parse()
            self.take(")")
            return e  # floor(a/b) denotes the rounding our division already does
        if t in ("mod", "min", "max"):
            self.take("(")
            a = self.parse()
            self.take(",")
            b = self.parse()
            self.take(")")
            return Binary(t, a, b)
        return Var(t)


def _parse_update(p: _Expr):
    if p.peek() == "true":
        p.take()
        return ()
    assigns = []
    while True:
        p.take("(")
        var = p.take()
        p.take("'")
        p.take("=")
        expr = p.parse()
        p.take(")")
        assigns.append(Assign(var, expr))
        if p.peek() == "&":
            p.take()
            continue
        break
    return tuple(assigns)


def _parse_command(line: str) -> PrismCommand:
    toks = _tokens(line)
    p = _Expr(toks)
    p.take("[")
    label = None
    if p.peek() != "]":
        label = p.take()
    p.take("]")
    guard = p.parse()
    p.take("->")
    alts = []
    while True:
        weight = p.parse()
        p.take(":")
        update = _parse_update(p)
        alts.append((weight, update))
        if p.peek() == "+":
            p.take()
            continue
        break
    p.take(";")
    return PrismCommand(label, guard, tuple(alts))


# ".." inside a range would lex as part of a number, so declarations are
# matched as whole lines instead of going through the expression tokenizer
_DECL = re.compile(
    r"(?P<name>\w+) : \[(?P<lo>-?\d+)\.\.(?P<hi>-?\d+)\] init (?P<init>-?\d+);"
)
_BOOLDECL = re.compile(r"(?P<name>\w+) : bool init (?P<init>true|false);")


def parse_expr(text: str):
    """One expression that is the whole of ``text``."""
    p = _Expr(_tokens(text))
    e = p.parse()
    if p.peek() is not None:
        raise ValueError(f"expected the end, found {p.peek()!r}")
    return e


def reparse(text: str):
    """Parse emitted PRISM text back into (kind, constants, network)."""
    kind = None
    constants: dict[str, float] = {}
    modules: list[PrismModule] = []
    name = None
    decls: list[VarDecl] = []
    commands: list[PrismCommand] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line in ("ctmc", "dtmc"):
            kind = line
        elif line.startswith("const double"):
            m = re.fullmatch(r"const double (\w+) = ([^;]+);", line)
            value = float(m.group(2))
            constants[m.group(1)] = int(value) if value.is_integer() else value
        elif line.startswith("module"):
            name = line.split()[1]
            decls, commands = [], []
        elif line == "endmodule":
            modules.append(PrismModule(name, tuple(decls), tuple(commands)))
            name = None
        elif line.startswith("["):
            commands.append(_parse_command(line))
        else:
            m = _DECL.fullmatch(line)
            if m:
                decls.append(
                    VarDecl(
                        m.group("name"),
                        name,
                        int(m.group("init")),
                        int(m.group("lo")),
                        int(m.group("hi")),
                        False,
                    )
                )
                continue
            m = _BOOLDECL.fullmatch(line)
            if not m:
                raise ValueError(f"unrecognized line {line!r}")
            decls.append(
                VarDecl(m.group("name"), name, m.group("init") == "true", 0, 0, True)
            )
    return kind, constants, tuple(modules)
