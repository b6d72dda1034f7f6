"""Operational semantics of choreographies: expression evaluation, checked
assignment, and the chain of a source program.

The source chain is the chain of a one-module network. :func:`build_chain`
lowers the program into a single guarded-command module over the declared
variables and a hidden program counter, and explores it with the network's
compiled successor function. The counter numbers hash-consed statements, so
a state is a (statement, valuation) pair keyed structurally. Every move is
an interaction: a call is no move, since a statement is numbered as
:func:`~chorprism.syntax.unfold` gives it, and a conditional moves by the
first action of the arm its guard picks. Updates apply left to right, each
assignment seeing the effect of the previous one, on both sides.

``and`` and ``or`` stop at a left operand that decides the result, so a
command guarded by ``pc = k and g`` never evaluates ``g`` while control is
somewhere else.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator

from .chain import PC, MarkovChain
from .errors import EvalError, RangeViolation, TypeMismatch, UnguardedRecursion
from .parser import assign_to_str, expr_to_str
from .syntax import (
    Assign,
    Binary,
    CallTerm,
    ChorProgram,
    ChorTerm,
    Conditional,
    Expr,
    Interaction,
    Lit,
    Unary,
    Var,
    VarDecl,
    unfold,
)

DEFAULT_MAX_STATES = 100_000
#: how far a probability mass may stray from 1, or a weight from another,
#: before the difference counts
TOL = 1e-9


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def _numeric(op: str, fn):
    def checked(left, right):
        if isinstance(left, bool) or isinstance(right, bool):
            raise TypeMismatch(f"'{op}' applied to bool value")
        return fn(left, right)

    return checked


def _logical(op: str, fn):
    def checked(left, right):
        if not (isinstance(left, bool) and isinstance(right, bool)):
            raise TypeMismatch(f"'{op}' applied to non-bool value")
        return fn(left, right)

    return checked


def _floor_div(left, right):
    if right == 0:
        raise EvalError("division by zero")
    return math.floor(left / right)


def _real_div(left, right):
    if right == 0:
        raise EvalError("division by zero")
    return left / right


def _mod(left, right):
    if right == 0:
        raise EvalError("mod by zero")
    return left % right


#: binary operators over evaluated operands, for state expressions (integer
#: division rounds down); shared with the network's compiled commands
STATE_OPS = {
    "and": _logical("and", lambda a, b: a and b),
    "or": _logical("or", lambda a, b: a or b),
    "=": operator.eq,
    "!=": operator.ne,
    "<": _numeric("<", operator.lt),
    "<=": _numeric("<=", operator.le),
    ">": _numeric(">", operator.gt),
    ">=": _numeric(">=", operator.ge),
    "+": _numeric("+", operator.add),
    "-": _numeric("-", operator.sub),
    "*": _numeric("*", operator.mul),
    "/": _numeric("/", _floor_div),
    "mod": _numeric("mod", _mod),
    "min": _numeric("min", min),
    "max": _numeric("max", max),
}
#: the same for weight expressions, where division is exact
WEIGHT_OPS = {**STATE_OPS, "/": _numeric("/", _real_div)}
#: the left operand value at which ``and``/``or`` return it without
#: evaluating the right operand
SHORT_CIRCUIT = {"and": False, "or": True}


def apply_unary(op: str, v):
    if op == "not":
        if not isinstance(v, bool):
            raise TypeMismatch("'not' applied to non-bool value")
        return not v
    return -v


def _eval(e: Expr, env: dict, ops: dict):
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise EvalError(f"unbound name {e.name}") from None
    if isinstance(e, Unary):
        return apply_unary(e.op, _eval(e.operand, env, ops))
    left = _eval(e.left, env, ops)
    if e.op in SHORT_CIRCUIT and left is SHORT_CIRCUIT[e.op]:
        return left
    right = _eval(e.right, env, ops)
    fn = ops.get(e.op)
    if fn is None:
        raise EvalError(f"unknown operator {e.op}")
    return fn(left, right)


def eval_expr(e: Expr, env: dict):
    """State-expression evaluation; division on integers rounds down."""
    return _eval(e, env, STATE_OPS)


def eval_weight(e: Expr, constants: dict) -> float:
    """Weight evaluation over constants only; division is exact."""
    v = _eval(e, constants, WEIGHT_OPS)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeMismatch("weight expression is not numeric")
    return float(v)


# ---------------------------------------------------------------------------
# assignments
# ---------------------------------------------------------------------------

def assigned_value(a: Assign, decl: VarDecl, v):
    """The value ``a`` stores when its right-hand side evaluates to ``v``:
    checked against the declared type and range of ``decl``, with an
    integral float narrowed to int."""
    if decl.is_bool:
        if not isinstance(v, bool):
            raise TypeMismatch(f"assigning non-bool value to {a.var}")
        return v
    if isinstance(v, bool):
        raise TypeMismatch(f"assigning bool value to {a.var}")
    if isinstance(v, float):
        if not v.is_integer():
            raise TypeMismatch(f"assigning non-integer {v} to {a.var}")
        v = int(v)
    if not decl.contains(v):
        raise RangeViolation(a.var, v, decl.lo, decl.hi, f"update {assign_to_str(a)}")
    return v


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------

def override_initial(decls: tuple[VarDecl, ...], overrides: dict | None) -> dict:
    """Declared initial values with ``overrides`` applied, each checked
    against the type and range of the variable it names."""
    by_name = {d.name: d for d in decls}
    val = {d.name: d.init for d in decls}
    for name, v in (overrides or {}).items():
        decl = by_name.get(name)
        if decl is None:
            raise EvalError(f"no variable named {name}")
        if decl.is_bool:
            if not isinstance(v, bool):
                raise TypeMismatch(f"initial override for {name} is not bool")
        elif isinstance(v, bool):
            raise TypeMismatch(f"initial override for {name} is not an integer")
        elif not decl.contains(v):
            raise RangeViolation(name, v, decl.lo, decl.hi, "initial override")
        val[name] = v
    return val


def decided(term: ChorTerm, defs: dict[str, ChorTerm], guard: Expr,
            path: tuple[Conditional, ...] = ()) -> Iterator[tuple[Expr, ChorTerm]]:
    """The statements other than a conditional that ``term`` starts with
    (:func:`~chorprism.syntax.unfold`), a conditional standing for its
    arms', each with ``guard`` and-ed with the guards, or their negations,
    that pick it. A cycle through conditionals alone raises
    :class:`UnguardedRecursion`."""
    term = unfold(term, defs)
    if not isinstance(term, Conditional):
        yield guard, term
        return
    if term in path:
        raise UnguardedRecursion(f"conditional {expr_to_str(term.guard)} @ "
                                 f"{term.role} recurses without an intervening action")
    path += (term,)
    yield from decided(term.then_term, defs, Binary("and", guard, term.guard), path)
    yield from decided(term.else_term, defs, Binary("and", guard, Unary("not", term.guard)), path)


def build_chain(
    program: ChorProgram,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    init_overrides: dict | None = None,
) -> MarkovChain:
    """Breadth-first exploration of the reachable behaviour.

    The program is lowered into one module over the declared variables and
    the counter :data:`PC`, which numbers hash-consed statements, each as
    :func:`~chorprism.syntax.unfold` gives it, in order of discovery from
    the entry call. Only an interaction has a command, with one alternative
    per branch; a conditional has its arms' first commands, under the guard
    and under its negation, and ``end`` none, so in discrete mode a state
    with no enabled command absorbs via a probability-1 self-loop. A cycle
    through conditionals alone raises :class:`UnguardedRecursion`
    (:func:`decided`). The counter is dropped from the chain's states after
    exploration.
    """
    # local import: prism imports this module
    from .prism import PrismCommand, PrismModule, explore_module

    init = override_initial(program.var_decls, init_overrides)
    pc_of: dict[ChorTerm, int] = {}
    terms: list[ChorTerm] = []
    commands: list[PrismCommand] = []

    def hop(term: ChorTerm) -> Assign:
        term = unfold(term, program.defs)
        k = pc_of.setdefault(term, len(terms))
        if k == len(terms):
            terms.append(term)
        return Assign(PC, Lit(k))

    hop(CallTerm(program.main))
    for k, term in enumerate(terms):  # terms grows as continuations are found
        for guard, term in decided(term, program.defs, Binary("=", Var(PC), Lit(k))):
            if isinstance(term, Interaction):
                alts = tuple((b.weight, b.update + (hop(b.cont),)) for b in term.branches)
                commands.append(PrismCommand(None, guard, alts))

    decls = program.var_decls + (VarDecl(PC, "", 0, 0, len(terms) - 1),)
    start = tuple(init[d.name] for d in program.var_decls) + (0,)
    module = PrismModule("chor", decls, tuple(commands))
    chain = explore_module(module, program.kind, program.constants, start, max_states)
    chain.var_names = chain.var_names[:-1]
    chain.states = [row[:-1] for row in chain.states]
    return chain
