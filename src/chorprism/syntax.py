"""Core abstract syntax for choreographies and their expressions.

All term and expression nodes are slotted dataclasses, equal and hashed by
value: the source semantics hash-conses terms, giving structurally equal
terms one program-counter value, so structural equality and hashability are
load-bearing. They are not frozen, which makes them cheap to build, so no
code assigns a field after construction (``tests/test_nodes.py`` scans the
package for that). In the source semantics a call is no step of its own:
:func:`unfold` gives the statement a term starts with, the one rule by
which the source chain and strong connectedness follow calls.

One printer, :func:`render`, writes expressions in source and PRISM text
alike, with each notation's spelling of the operators given as data, and
one rule, :func:`times`, forms the product of two weights.

The library's entry points run with the cyclic garbage collector paused,
by :func:`gc_paused`: the pipeline builds no reference cycles.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import wraps
from operator import attrgetter
from typing import Union

from .errors import UnguardedRecursion, WellFormednessError

Value = Union[int, bool, float]


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class Lit:
    value: Value


@dataclass(slots=True, unsafe_hash=True)
class Var:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Unary:
    op: str  # "not" | "neg"
    operand: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Binary:
    op: str  # + - * / mod min max = != < <= > >= and or
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, Unary, Binary]

#: binding strength of every operator, loosest first; ``not`` and ``neg``
#: are the prefix ones. The parser and the printer read this one table.
#: Comparisons share a level and do not chain.
PREC = {
    "or": 1, "and": 2, "not": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "neg": 7,
}
#: binary operators written in call syntax, ``mod(a, b)``
FUNCTIONS = ("mod", "min", "max")


def render_value(v: Value) -> str:
    """``v`` as source and PRISM text write it: a float in the shortest form
    that reads back as the same double, an integral one as an integer."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(int(v)) if isinstance(v, float) and v.is_integer() else str(v)


def times(a: Expr, b: Expr) -> Expr:
    """The weight product ``a * b``: a literal factor 1 drops out, and two
    numbers multiply."""
    if isinstance(a, Lit) and not isinstance(a.value, bool):
        if a.value == 1:
            return b
        if isinstance(b, Lit) and not isinstance(b.value, bool):
            return Lit(a.value * b.value)
    if isinstance(b, Lit) and not isinstance(b.value, bool) and b.value == 1:
        return a
    return Binary("*", a, b)


def render(e: Expr, spell: dict[str, str], parent: int = 0) -> str:
    """``e`` in one notation, parenthesized as an operand of level ``parent``
    of :data:`PREC`. ``spell`` writes each operator as an infix (``"&"``), a
    prefix (``"not "``) or a call template (``"floor({}/{})"``); numbers are
    written by :func:`render_value` in every notation."""
    cls = type(e)  # not isinstance: this walk is hot in emit
    if cls is Var:
        return e.name
    if cls is Lit:
        return render_value(e.value)
    op, p = spell[e.op], PREC.get(e.op, 0)  # 0: a function's operands stand alone
    if cls is Binary:
        left = render(e.left, spell, p + 1 if p == PREC["="] else p)  # no chaining
        right = render(e.right, spell, p + 1)
        if "{" in op:
            return op.format(left, right)
        s = left + op + right
    else:
        s = op + render(e.operand, spell, p)
    return f"({s})" if p < parent else s


# ---------------------------------------------------------------------------
# updates and choreography terms
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class Assign:
    """One primed assignment x' = E inside an update list."""

    var: str
    expr: Expr


@dataclass(slots=True, unsafe_hash=True)
class Branch:
    """One weighted alternative of an interaction.

    ``weight`` must evaluate over the constant environment alone (rates for
    continuous programs, probabilities for discrete ones). ``label`` is the
    wire label the source gives the branch (``[L]``), if any; without one,
    the ``j``-th branch synchronizes on ``<annotation>_<j>``, derived from
    its interaction's annotation (:func:`chorprism.analysis.branch_label`).
    """

    weight: Expr
    update: tuple[Assign, ...]
    cont: "ChorTerm"
    label: str | None = None


@dataclass(slots=True, unsafe_hash=True)
class Interaction:
    initiator: str
    receivers: tuple[str, ...]
    branches: tuple[Branch, ...]
    annotation: str | None = None

    @property
    def participants(self) -> tuple[str, ...]:
        return (self.initiator,) + self.receivers


@dataclass(slots=True, unsafe_hash=True)
class Conditional:
    guard: Expr
    role: str  # the deciding role
    then_term: "ChorTerm"
    else_term: "ChorTerm"


@dataclass(slots=True, unsafe_hash=True)
class CallTerm:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Inact:
    pass


ChorTerm = Union[Interaction, Conditional, CallTerm, Inact]
# a branch's continuation; mapped over branches, the cheapest step of a walk
_cont = attrgetter("cont")


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class VarDecl:
    """An integer-range or boolean state variable owned by one role."""

    name: str
    owner: str
    init: Value
    lo: int = 0
    hi: int = 0
    is_bool: bool = False

    def contains(self, v: Value) -> bool:
        if self.is_bool:
            return isinstance(v, bool)
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi


@dataclass
class ChorProgram:
    kind: str  # "ctmc" | "dtmc"
    roles: tuple[str, ...]
    constants: dict[str, float] = field(default_factory=dict)
    var_decls: tuple[VarDecl, ...] = ()
    defs: dict[str, ChorTerm] = field(default_factory=dict)
    main: str = ""

    def var(self, name: str) -> VarDecl:
        for d in self.var_decls:
            if d.name == name:
                return d
        raise KeyError(name)

    def owner(self, name: str) -> str:
        return self.var(name).owner


def unfold(term: ChorTerm, defs: dict[str, ChorTerm]) -> ChorTerm:
    """The statement ``term`` starts with: a call stands for the body it
    names. A cycle of calls has none, and raises :class:`UnguardedRecursion`;
    a call to an undefined name raises :class:`WellFormednessError`."""
    seen = ()
    while isinstance(term, CallTerm) and term.name not in seen:
        seen += (term.name,)
        if term.name not in defs:
            raise WellFormednessError(f"call to undefined {term.name}")
        term = defs[term.name]
    if isinstance(term, CallTerm):
        raise UnguardedRecursion(f"definition {term.name} recurses without an intervening action")
    return term


def continuations(term: ChorTerm) -> tuple[ChorTerm, ...]:
    """The branches' continuations of an interaction, a conditional's arms."""
    if isinstance(term, Interaction):
        return tuple(map(_cont, term.branches))
    if isinstance(term, Conditional):
        return (term.then_term, term.else_term)
    return ()


def acting(term: ChorTerm) -> tuple[str, ...]:
    """The roles acting at a statement: an interaction's participants, a
    conditional's decider; none at a call or ``end``."""
    if isinstance(term, Interaction):
        return term.participants
    if isinstance(term, Conditional):
        return (term.role,)
    return ()


def subterms(term: ChorTerm):
    """Yield term and every node below it, preorder, branches in order."""
    yield term
    for cont in continuations(term):
        yield from subterms(cont)


def gc_paused(fn):
    """``fn``, run with the cyclic garbage collector disabled; the collector
    is left as the call found it, so a nested call, or a caller that
    disabled it itself, sees no change.

    Syntax nodes, commands and compiled closures are container objects the
    collector tracks, and it rescans them each time enough of them have
    been allocated: one check, compile and verify of the benchmark's
    stages-40 program set off 38 young and 3 middle-generation collections,
    and pausing them cut its ``verify_norm_s`` by 10% (CPython 3.11 on a
    shared 2-vCPU VM; BENCH_33.json). The scans find nothing, since no
    function of the package leaves a reference cycle behind
    (``tests/test_gc.py`` collects after each entry point and finds
    nothing), so pausing loses no memory; cycles that other code leaves
    are collected once the call ends. The switch is global to the process:
    calls in several threads at once each restore what they found, which
    another may have changed meanwhile.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused
