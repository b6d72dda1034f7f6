"""Operational semantics of choreographies: expression evaluation, update
application, and exhaustive chain construction.

A chain state is a pair of a term and a valuation. Unfolding a definition
and deciding a conditional are weight-1 moves of their own, mirroring the
state-counter hops the compiled network makes for them; the equivalence
checker later contracts both away. Updates apply left to right, each
assignment seeing the effect of the previous one; the network side applies
updates the same way, which is what makes the comparison meaningful.
"""

from __future__ import annotations

import math
import operator
from typing import Callable

from .chain import MarkovChain, explore
from .errors import EvalError, RangeViolation, TypeMismatch
from .parser import assign_to_str
from .syntax import (
    Assign,
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
)

DEFAULT_MAX_STATES = 100_000


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
# updates
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
        raise RangeViolation(a.var, v, decl.lo, decl.hi, assign_to_str(a))
    return v


def apply_assignments(
    update: tuple[Assign, ...],
    valuation: dict,
    decl_of: Callable[[str], VarDecl],
    constants: dict,
) -> dict:
    """Apply assignments left to right, returning a fresh valuation.

    Later assignments see earlier ones. Every written value is checked
    against the variable's declared range.
    """
    out = dict(valuation)
    env = dict(constants)
    env.update(out)
    for a in update:
        v = eval_expr(a.expr, env)
        v = assigned_value(a, decl_of(a.var), v)
        out[a.var] = v
        env[a.var] = v
    return out


def apply_update(update: tuple[Assign, ...], valuation: dict, program: ChorProgram) -> dict:
    return apply_assignments(update, valuation, program.var, program.constants)


# ---------------------------------------------------------------------------
# small-step behaviour
# ---------------------------------------------------------------------------

def step(term: ChorTerm, valuation: dict, program: ChorProgram) -> list[tuple[float, dict, ChorTerm]]:
    """Outgoing moves of a configuration: (weight, valuation, continuation).

    Unfolding a named definition and deciding a conditional are both explicit
    weight-1 moves that leave the valuation untouched, so (S, X) and
    (S, body-of-X) are distinct states of the chain. Zero-weight interaction
    branches are dropped.
    """
    if isinstance(term, Inact):
        return []
    if isinstance(term, CallTerm):
        return [(1.0, valuation, program.defs[term.name])]
    if isinstance(term, Conditional):
        env = dict(program.constants)
        env.update(valuation)
        g = eval_expr(term.guard, env)
        if not isinstance(g, bool):
            raise TypeMismatch("conditional guard is not boolean")
        return [(1.0, valuation, term.then_term if g else term.else_term)]
    if not isinstance(term, Interaction):
        raise EvalError(f"cannot step term {type(term).__name__}")
    moves = []
    for b in term.branches:
        w = eval_weight(b.weight, program.constants)
        if w == 0.0:
            continue
        moves.append((w, apply_update(b.update, valuation, program), b.cont))
    return moves


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
        elif not decl.contains(v):
            raise RangeViolation(name, v, decl.lo, decl.hi, "initial override")
        val[name] = v
    return val


def initial_valuation(program: ChorProgram, overrides: dict | None = None) -> dict:
    return override_initial(program.var_decls, overrides)


def build_chain(
    program: ChorProgram,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    init_overrides: dict | None = None,
) -> MarkovChain:
    """Breadth-first exploration of the reachable behaviour.

    States are (term, valuation) pairs keyed structurally, so revisiting a
    configuration folds back into the chain. Exploration begins at the body
    of the entry definition (the entry call itself is unfolded for free).
    In discrete mode states with no moves become absorbing via a
    probability-1 self-loop.
    """
    var_names = tuple(d.name for d in program.var_decls)
    start_val = initial_valuation(program, init_overrides)

    def successors(key):
        term, row = key
        for w, new_val, cont in step(term, dict(zip(var_names, row)), program):
            yield (cont, tuple(new_val[n] for n in var_names)), w

    start = (program.defs[program.main], tuple(start_val[n] for n in var_names))
    keys, edges = explore(start, successors, max_states)

    if program.kind == "dtmc":
        for sid, succ in enumerate(edges):
            if not succ:
                succ[sid] = 1.0

    return MarkovChain(program.kind, var_names, [row for _, row in keys], 0, edges)
