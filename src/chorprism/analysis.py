"""Static analyses over choreography programs.

Covers strong connectedness, annotation checking and well-formedness.
Each check is one loop over a program's statements: strong connectedness
is a rule local to each one, and the located checks read :func:`sites`, so
a statement's own findings come before its continuations'.
"""

from __future__ import annotations

from math import inf
from typing import Iterator

from .errors import AnnotationError, WellFormednessError
from .parser import assign_to_str
from .semantics import TOL, decided, eval_weight
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
    acting,
    continuations,
    gc_paused,
    subterms,
    unfold,
)


# ---------------------------------------------------------------------------
# strong connectedness
# ---------------------------------------------------------------------------

@gc_paused
def s_conn(program: ChorProgram) -> bool:
    """Strong connectedness: at every choice, an interaction's branches or
    a conditional's arms, each continuation's first action (if any) shares
    a role with the roles acting at the choice. An ended continuation
    offers no action, so it passes.

    The rule is local, so each statement is checked once: definitions in
    order, each in preorder. The first statement that fails, or whose
    continuation has no first action (:class:`UnguardedRecursion`), decides:
    a continuation's first action follows calls, and a conditional's arms
    through other conditionals, as the source chain does (:func:`decided`).
    The entry, too, must reach a first statement.
    """
    defs = program.defs
    unfold(CallTerm(program.main), defs)
    for body in defs.values():
        for term in subterms(body):
            for cont in continuations(term):
                cont = unfold(cont, defs)
                if isinstance(cont, Conditional):  # raises on a cycle of decisions
                    list(decided(cont, defs, Lit(True)))
                roles = acting(cont)
                if roles and set(roles).isdisjoint(acting(term)):
                    return False
    return True


# ---------------------------------------------------------------------------
# located statements and annotations
# ---------------------------------------------------------------------------

def sites(program: ChorProgram) -> Iterator[tuple[ChorTerm, str]]:
    """Yield (statement, location) over all definitions, preorder: each
    statement before its continuations, located as ``name/branchJ/then``."""
    for name, body in program.defs.items():
        yield from _located(body, name)


def _located(term: ChorTerm, where: str) -> Iterator[tuple[ChorTerm, str]]:
    yield term, where
    for j, cont in enumerate(continuations(term), 1):
        tag = ("then", "else")[j - 1] if isinstance(term, Conditional) else f"branch{j}"
        yield from _located(cont, f"{where}/{tag}")


def branch_label(inter: Interaction, j: int) -> str:
    """Synchronisation label of branch ``j`` (0-based): explicit, or derived
    from the interaction's annotation as ``<annotation>_<j+1>``."""
    b = inter.branches[j]
    if b.label:
        return b.label
    if not inter.annotation:
        raise WellFormednessError("interaction has neither labels nor annotation")
    return f"{inter.annotation}_{j + 1}"


def wire_label(inter: Interaction, j: int) -> str | None:
    """What projection synchronizes branch ``j`` (0-based) on: nothing for a
    self-step, which has nobody to synchronize with, else :func:`branch_label`."""
    return branch_label(inter, j) if inter.receivers else None


@gc_paused
def check_annotations(program: ChorProgram) -> list[str]:
    """Return findings: unannotated interactions, duplicated annotations and
    wire labels (:func:`wire_label`) used twice; the labels a duplicated
    annotation derives are not reported again."""
    findings = []
    seen: dict[str, str] = {}
    wired: dict[str, str] = {}
    for inter, where in sites(program):
        if not isinstance(inter, Interaction):
            continue
        if inter.annotation is None:
            findings.append(f"missing annotation on interaction at {where}")
        elif inter.annotation in seen:
            findings.append(
                f"annotation {inter.annotation} used at both "
                f"{seen[inter.annotation]} and {where}"
            )
        else:
            seen[inter.annotation] = where
        derives = inter.annotation is not None and seen[inter.annotation] == where
        for j, b in enumerate(inter.branches):
            label = wire_label(inter, j) if b.label or derives else None
            at = f"{where}/branch{j + 1}"
            if label in wired:
                findings.append(f"label {label} used at both {wired[label]} and {at}")
            elif label is not None:
                wired[label] = at
    return findings


def require_annotated(program: ChorProgram) -> None:
    problems = check_annotations(program)
    if problems:
        raise AnnotationError("; ".join(problems))


# ---------------------------------------------------------------------------
# well-formedness
# ---------------------------------------------------------------------------

def expr_vars(e: Expr) -> Iterator[str]:
    """Names ``e`` reads, left to right, with repeats."""
    if isinstance(e, Var):
        yield e.name
    elif isinstance(e, Unary):
        yield from expr_vars(e.operand)
    elif isinstance(e, Binary):
        yield from expr_vars(e.left)
        yield from expr_vars(e.right)


def type_of(e: Expr, var_types: dict[str, str]) -> str:
    """Infer "int", "bool" or "real"; raise WellFormednessError on misuse."""
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "bool"
        return "int" if isinstance(e.value, int) else "real"
    if isinstance(e, Var):
        try:
            return var_types[e.name]
        except KeyError:
            raise WellFormednessError(f"unknown name {e.name}") from None
    if isinstance(e, Unary):
        t = type_of(e.operand, var_types)
        if e.op == "not" and t != "bool":
            raise WellFormednessError(f"'not' applied to {t} operand")
        if e.op == "neg" and t == "bool":
            raise WellFormednessError("unary minus applied to bool operand")
        return t
    lt = type_of(e.left, var_types)
    rt = type_of(e.right, var_types)
    if e.op in ("and", "or"):
        if lt != "bool" or rt != "bool":
            raise WellFormednessError(f"'{e.op}' needs bool operands")
        return "bool"
    if e.op in ("=", "!="):
        if (lt == "bool") != (rt == "bool"):
            raise WellFormednessError(f"'{e.op}' compares {lt} with {rt}")
        return "bool"
    if e.op in ("<", "<=", ">", ">="):
        if "bool" in (lt, rt):
            raise WellFormednessError(f"'{e.op}' applied to bool operand")
        return "bool"
    # arithmetic
    if "bool" in (lt, rt):
        raise WellFormednessError(f"'{e.op}' applied to bool operand")
    return "real" if "real" in (lt, rt) else "int"


@gc_paused
def check_well_formed(program: ChorProgram) -> list[str]:
    """Collect static findings; an empty list means the program is usable."""
    findings: list[str] = []
    roles = set(program.roles)
    if len(roles) != len(program.roles):
        findings.append("duplicate role declaration")

    var_types: dict[str, str] = {c: "real" for c in program.constants}
    owners: dict[str, str] = {}
    for d in program.var_decls:
        if d.name in var_types:
            findings.append(f"duplicate declaration of {d.name}")
        var_types[d.name] = "bool" if d.is_bool else "int"
        owners[d.name] = d.owner
        if d.owner not in roles:
            findings.append(f"variable {d.name} owned by undeclared role {d.owner}")
        if not d.is_bool and d.lo > d.hi:
            findings.append(f"variable {d.name} has empty range [{d.lo}..{d.hi}]")
        if not d.contains(d.init):
            findings.append(f"variable {d.name} initialised outside its range")

    for name, value in program.constants.items():
        if not abs(value) < inf:
            findings.append(f"constant {name} is not finite ({value})")
    if program.main not in program.defs:
        findings.append(f"main references undefined {program.main}")

    const_types = {c: "real" for c in program.constants}

    def check_expr(e: Expr, where: str, want: str | None = None):
        try:
            t = type_of(e, var_types)
        except WellFormednessError as err:
            findings.append(f"{where}: {err}")
            return
        if want and t != want and not (want == "numeric" and t in ("int", "real")):
            findings.append(f"{where}: expected {want} expression, got {t}")

    def check_weight(e: Expr, where: str) -> float | None:
        bad = set(expr_vars(e)) - set(program.constants)
        if bad:
            findings.append(
                f"{where}: weight reads non-constant name(s) {', '.join(sorted(bad))}"
            )
            return None
        try:
            type_of(e, const_types)
            w = eval_weight(e, program.constants)
        except Exception as err:  # noqa: BLE001 - surfaced as a finding
            findings.append(f"{where}: weight does not evaluate ({err})")
            return None
        if not abs(w) < inf:
            findings.append(f"{where}: weight is not finite ({w})")
            return None
        if w < 0:
            findings.append(f"{where}: negative weight {w}")
        return w

    def check_update(update: tuple[Assign, ...], participants, where: str):
        written = {a.var for a in update}
        for a in update:
            if a.var not in owners:
                findings.append(f"{where}: update assigns undeclared {a.var}")
                continue
            if owners[a.var] not in participants:
                findings.append(
                    f"{where}: update assigns {a.var}, owned by non-participant "
                    f"{owners[a.var]}"
                )
            check_expr(a.expr, where, "bool" if var_types[a.var] == "bool" else "numeric")
            # projection splits an update by owner, losing the order between
            # the parts, so no assignment may read another owner's write
            for v in dict.fromkeys(expr_vars(a.expr)):
                if v in written and v in owners and owners[v] != owners[a.var]:
                    findings.append(
                        f"{where}: update {assign_to_str(a)} reads {v}, which "
                        f"{owners[v]} writes in the same update"
                    )

    for term, where in sites(program):
        if isinstance(term, Interaction):
            if len(set(term.receivers)) != len(term.receivers):
                findings.append(f"{where}: duplicate receiver")
            for r in term.participants:
                if r not in roles:
                    findings.append(f"{where}: undeclared role {r}")
            if term.initiator in term.receivers:
                findings.append(f"{where}: initiator {term.initiator} is also a receiver")
            total: float | None = 0.0  # None once a weight does not evaluate
            for j, b in enumerate(term.branches, 1):
                bw = f"{where}/branch{j}"
                w = check_weight(b.weight, bw)
                total = None if w is None or total is None else total + w
                check_update(b.update, term.participants, bw)
            if program.kind == "dtmc" and total is not None and abs(total - 1.0) > TOL:
                findings.append(f"{where}: branch probabilities sum to {total}, expected 1")
        elif isinstance(term, Conditional):
            if term.role not in roles:
                findings.append(f"{where}: conditional at undeclared role {term.role}")
            check_expr(term.guard, where, "bool")
        elif isinstance(term, CallTerm):
            if term.name not in program.defs:
                findings.append(f"{where}: call to undefined {term.name}")
    return findings


def require_well_formed(program: ChorProgram) -> None:
    problems = check_well_formed(program)
    if problems:
        raise WellFormednessError("; ".join(problems))
