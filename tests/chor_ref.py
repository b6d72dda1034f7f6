"""The reference tree-walking semantics of choreographies that
``chorprism.semantics.build_chain`` is compared against: each configuration
is a (term, valuation) pair, stepped by walking the term and evaluating its
expressions against dict valuations."""

from __future__ import annotations

from typing import Callable

from chorprism.chain import MarkovChain, explore, render_value
from chorprism.errors import EvalError, RangeViolation, TypeMismatch, UnguardedRecursion
from chorprism.parser import expr_to_str
from chorprism.semantics import (
    DEFAULT_MAX_STATES,
    assigned_value,
    eval_expr,
    eval_weight,
    override_initial,
)
from chorprism.syntax import (
    Assign,
    CallTerm,
    ChorProgram,
    ChorTerm,
    Conditional,
    Inact,
    Interaction,
    VarDecl,
)


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


def first_statement(term: ChorTerm, program: ChorProgram) -> ChorTerm:
    """``term`` with each leading call replaced by the body it names; a
    cycle of calls with no statement on it raises, naming the first
    definition called twice."""
    called: list[str] = []
    while isinstance(term, CallTerm):
        if term.name in called:
            raise UnguardedRecursion(
                f"definition {term.name} recurses without an intervening action")
        called.append(term.name)
        term = program.defs[term.name]
    return term


def decisions(term: ChorTerm, program: ChorProgram,
              walked: tuple[Conditional, ...] = ()):
    """Yield the statements other than a conditional that ``term`` starts
    with, through both arms of every conditional, whatever the valuation;
    ``walked`` holds the conditionals passed on the way. One met again
    leads back to itself with no move, and raises."""
    term = first_statement(term, program)
    if not isinstance(term, Conditional):
        yield term
        return
    if term in walked:
        raise UnguardedRecursion(f"conditional {expr_to_str(term.guard)} @ {term.role} "
                                 "recurses without an intervening action")
    yield from decisions(term.then_term, program, walked + (term,))
    yield from decisions(term.else_term, program, walked + (term,))


def refuse_cycles(program: ChorProgram) -> None:
    """Raise on a cycle through conditionals alone, or of calls alone, that
    the statements the entry reaches lead into through any branch and either
    arm, as ``build_chain`` refuses it before exploring: statements are
    walked in the order they are first reached, each branch's continuation
    as it is met."""
    todo = [first_statement(CallTerm(program.main), program)]
    seen = set()
    for term in todo:  # grows as continuations are met
        if term not in seen:
            seen.add(term)
            for statement in decisions(term, program):
                if isinstance(statement, Interaction):
                    todo.extend(first_statement(b.cont, program) for b in statement.branches)


def step(term: ChorTerm, valuation: dict, program: ChorProgram) -> list[tuple[float, dict, ChorTerm]]:
    """Outgoing moves of a configuration: (weight, valuation, continuation).

    Every move is an interaction's: a call steps as the body it names, and
    a conditional as the arm its guard picks (:func:`refuse_cycles` has
    ruled out a cycle of conditionals). Zero-weight interaction branches
    are dropped.
    """
    if isinstance(term, Inact):
        return []
    if isinstance(term, CallTerm):
        return step(first_statement(term, program), valuation, program)
    if isinstance(term, Conditional):
        env = dict(program.constants)
        env.update(valuation)
        g = eval_expr(term.guard, env)
        if not isinstance(g, bool):
            raise TypeMismatch("conditional guard is not boolean")
        arm = term.then_term if g else term.else_term
        return step(arm, valuation, program)
    if not isinstance(term, Interaction):
        raise EvalError(f"cannot step term {type(term).__name__}")
    moves = []
    for b in term.branches:
        w = eval_weight(b.weight, program.constants)
        if w == 0.0:
            continue
        new_val = apply_assignments(b.update, valuation, program.var, program.constants)
        moves.append((w, new_val, b.cont))
    return moves


def at_state(e: EvalError | RangeViolation, var_names, row) -> EvalError | RangeViolation:
    """``e``, its message ending with the valuation it was raised at, as
    the explorer reports an error met during exploration."""
    where = ",".join(f"{n}={render_value(v)}" for n, v in zip(var_names, row))
    e.args = (f"{e} at state {where}",)
    return e


def ref_chain(
    program: ChorProgram,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    init_overrides: dict | None = None,
) -> MarkovChain:
    """The source chain built with :func:`step`: what ``build_chain`` must
    return, state numbering, bit-exact weights and findings included.

    States are (statement, valuation) pairs keyed structurally, a call
    replaced by the body it names. Exploration begins at the entry call,
    once :func:`refuse_cycles` has walked every statement the entry
    reaches; in discrete mode states with no moves become absorbing via a
    probability-1 self-loop.
    """
    var_names = tuple(d.name for d in program.var_decls)
    start_val = override_initial(program.var_decls, init_overrides)
    refuse_cycles(program)

    def successors(key):
        term, row = key
        try:
            moves = step(term, dict(zip(var_names, row)), program)
        except (EvalError, RangeViolation) as e:
            raise at_state(e, var_names, row)
        for w, new_val, cont in moves:
            yield (first_statement(cont, program), tuple(new_val[n] for n in var_names)), w

    start = (
        first_statement(CallTerm(program.main), program),
        tuple(start_val[n] for n in var_names),
    )
    keys, edges = explore(start, successors, max_states)

    if program.kind == "dtmc":
        for sid, succ in enumerate(edges):
            if not succ:
                succ[sid] = 1.0

    return MarkovChain(program.kind, var_names, [row for _, row in keys], 0, edges)
