"""Lowering from the surface language to the core representation.

``expand_indices`` removes all sugar in one walk over the definitions: it
concretises role/variable families, replicates indexed statements, and, at
the node where it resolves references, instantiates foreach clauses over
their family's range and rewrites synchronised choices into conditional
ladders. It returns the core program; ``load_program`` runs it on parsed
source text.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import string
from typing import Callable

from .analysis import expr_vars
from .errors import IndexOutOfFamily, NonStaticIndex, WellFormednessError
from .parser import (
    AllSynch,
    AllSynchEntry,
    ForeachAssign,
    SurfaceProgram,
    parse,
)
from .semantics import STATE_OPS
from .syntax import (
    Assign,
    Binary,
    Branch,
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
    subterms,
)

_REF = re.compile(r"^([A-Za-z_]\w*)\[([^\]]+)\]$")
_IDX = re.compile(r"^([A-Za-z_]\w*|\d+)([+-]\d+)?$")


def split_ref(name: str) -> tuple[str, str | None]:
    m = _REF.match(name)
    if not m:
        return name, None
    return m.group(1), m.group(2)


def _parse_idx(idx: str, constants: dict) -> tuple[str | None, int]:
    """Decode an index expression into (binder, offset) or (None, literal)."""
    m = _IDX.match(idx)
    if not m:
        raise WellFormednessError(f"malformed index expression [{idx}]")
    head, off = m.group(1), int(m.group(2) or 0)
    if head.isdigit():
        return None, int(head) + off
    if head in constants:
        v = constants[head]
        if not isinstance(v, int):
            raise WellFormednessError(f"index constant {head} is not an integer")
        return None, v + off
    return head, off


def _conts(term: ChorTerm) -> list[ChorTerm]:
    """The continuations directly below ``term``, in source order."""
    if isinstance(term, Interaction):
        return [b.cont for b in term.branches]
    if isinstance(term, Conditional):
        return [term.then_term, term.else_term]
    if isinstance(term, AllSynch):
        return [term.cont]
    return []


def _map_conts(term: ChorTerm, f: Callable[[ChorTerm], ChorTerm]) -> ChorTerm:
    """``term`` with ``f`` applied to each continuation directly below it,
    in source order."""
    if isinstance(term, Interaction):
        branches = tuple(Branch(b.weight, b.update, f(b.cont), b.label) for b in term.branches)
        return Interaction(term.initiator, term.receivers, branches, term.annotation)
    if isinstance(term, Conditional):
        return Conditional(term.guard, term.role, f(term.then_term), f(term.else_term))
    if isinstance(term, AllSynch):
        return AllSynch(term.entries, f(term.cont))
    return term


class _Expander:
    def __init__(self, prog: SurfaceProgram):
        self.constants = prog.constants
        self.families = {f.base: (f.lo, f.hi) for f in [*prog.role_families, *prog.var_families]}

    # -- the reference scan ----------------------------------------------------

    def index_refs(self, node: ChorTerm) -> list[tuple[str | None, str, ForeachAssign | None]]:
        """``(family, index variable, foreach clause)`` for each reference
        ``node`` itself makes through an index variable, in source order,
        continuations excluded. ``clause`` is the foreach the reference
        sits in, or None; a foreach bound that names no constant comes as
        ``(None, bound, clause)``. The first malformed index raises."""
        out = []

        def refs(names, clause=None):
            for name in names:
                base, idx = split_ref(name)
                if idx is not None:
                    binder, _ = _parse_idx(idx, self.constants)
                    if binder is not None:
                        out.append((base, binder, clause))

        if isinstance(node, Interaction):
            refs(node.participants)
            for br in node.branches:
                refs(expr_vars(br.weight))
                for item in br.update:
                    clause = item if isinstance(item, ForeachAssign) else None
                    if clause and isinstance(item.bound, str) and item.bound not in self.constants:
                        out.append((None, item.bound, clause))
                    refs([item.var, *expr_vars(item.expr)], clause)
        elif isinstance(node, Conditional):
            refs([node.role, *expr_vars(node.guard)])
        elif isinstance(node, AllSynch):
            for e in node.entries:
                refs([e.role, *expr_vars(e.guard), *expr_vars(e.weight)])
                for a in e.update:
                    refs([a.var, *expr_vars(a.expr)])
        return out

    def binders(self, node: ChorTerm) -> set[str]:
        """Index variables of ``node``'s own references; a foreach binder
        does not count inside its own clause."""
        return {b for _, b, clause in self.index_refs(node) if clause is None or b != clause.binder}

    def term_binders(self, term: ChorTerm) -> set[str]:
        out = self.binders(term)
        for c in _conts(term):
            out |= self.term_binders(c)
        return out

    def binder_family_range(self, term: Interaction, binder: str) -> tuple[int, int]:
        ranges = set()
        for base, b, _ in self.index_refs(term):
            if b == binder and base is not None:
                if base not in self.families:
                    raise WellFormednessError(f"{base} is not a declared family")
                ranges.add(self.families[base])
        if not ranges:
            raise WellFormednessError(f"cannot infer the range of index {binder}")
        if len(ranges) > 1:
            raise WellFormednessError(
                f"index {binder} spans families with different ranges"
            )
        return ranges.pop()

    # -- reference resolution ------------------------------------------------

    def resolve_ref(self, name: str, subst: dict[str, int | None]) -> str:
        base, idx = split_ref(name)
        if idx is None:
            return name
        binder, off = _parse_idx(idx, self.constants)
        if binder is not None:
            if binder not in subst:
                raise WellFormednessError(f"index {binder} in {name} is bound by no statement")
            if subst[binder] is None:
                return name  # a foreach binder in its clause: instantiate resolves it
            off = subst[binder] + off
            literal = False
        else:
            literal = True
        if base not in self.families:
            raise WellFormednessError(f"{base} is not a declared family")
        lo, hi = self.families[base]
        size = hi - lo + 1
        if literal:
            if not lo <= off <= hi:
                raise IndexOutOfFamily(
                    f"index {off} outside {base}[{lo}..{hi}]"
                )
            v = off
        else:
            v = lo + (off - lo) % size  # offsets wrap around the family
        return f"{base}{v}"

    def resolve_expr(self, e: Expr, subst: dict[str, int | None]) -> Expr:
        if isinstance(e, Var):
            return Var(self.resolve_ref(e.name, subst))
        if isinstance(e, Unary):
            return Unary(e.op, self.resolve_expr(e.operand, subst))
        if isinstance(e, Binary):
            return Binary(e.op, self.resolve_expr(e.left, subst),
                          self.resolve_expr(e.right, subst))
        return e

    def resolve_item(self, item, subst: dict[str, int]):
        if isinstance(item, ForeachAssign):
            # the clause's binder shadows an enclosing index of the same name
            inner = {**subst, item.binder: None}
            return ForeachAssign(item.binder, item.op, subst.get(item.bound, item.bound),
                                 item.var, self.resolve_expr(item.expr, inner))
        return Assign(self.resolve_ref(item.var, subst),
                      self.resolve_expr(item.expr, subst))

    def instantiate(self, items) -> tuple[Assign, ...]:
        """Resolved ``items`` with each foreach clause replaced by one
        assignment per index of its family that satisfies the bound."""
        out = []
        for item in items:
            if not isinstance(item, ForeachAssign):
                out.append(item)
                continue
            base, idx = split_ref(item.var)
            if idx != item.binder:
                raise WellFormednessError(
                    f"foreach over {item.binder} must assign {base}[{item.binder}]"
                )
            if base not in self.families:
                raise WellFormednessError(f"{base} is not a declared family")
            bound = item.bound
            if isinstance(bound, str):
                # resolve_item substituted the statement's index; what is
                # left is a constant or a name bound nowhere (j <= j)
                if bound not in self.constants:
                    raise NonStaticIndex(
                        f"foreach bound {bound} is not a constant or enclosing index"
                    )
                bound = self.constants[bound]
            if not isinstance(bound, int):
                raise NonStaticIndex(f"foreach bound {bound} is not an integer")
            # resolve at every index of the family, so that a bound which
            # selects none still reports the families the expression reaches
            lo, hi = self.families[base]
            exprs = {k: self.resolve_expr(item.expr, {item.binder: k}) for k in range(lo, hi + 1)}
            out.extend(Assign(f"{base}{k}", e) for k, e in exprs.items()
                       if STATE_OPS[item.op](k, bound))
        return tuple(out)

    def resolve(self, node: ChorTerm, subst: dict[str, int]) -> ChorTerm:
        """``node`` with its own references resolved under ``subst`` and its
        foreach clauses instantiated; its continuations stay as they are.
        Every reference is resolved before any clause is instantiated, so
        a statement's index faults come before its foreach faults."""
        if isinstance(node, Interaction):
            resolved = [
                (self.resolve_expr(br.weight, subst),
                 [self.resolve_item(item, subst) for item in br.update])
                for br in node.branches
            ]
            return Interaction(
                self.resolve_ref(node.initiator, subst),
                tuple(self.resolve_ref(r, subst) for r in node.receivers),
                tuple(Branch(weight, self.instantiate(items), br.cont, br.label)
                      for br, (weight, items) in zip(node.branches, resolved)),
                node.annotation,
            )
        if isinstance(node, Conditional):
            return Conditional(
                self.resolve_expr(node.guard, subst),
                self.resolve_ref(node.role, subst),
                node.then_term,
                node.else_term,
            )
        if isinstance(node, AllSynch):
            entries = tuple(
                AllSynchEntry(
                    self.resolve_ref(e.role, subst),
                    self.resolve_expr(e.guard, subst),
                    self.resolve_expr(e.weight, subst),
                    tuple(self.resolve_item(a, subst) for a in e.update),
                )
                for e in node.entries
            )
            return AllSynch(entries, node.cont)
        return node

    # -- statement expansion ----------------------------------------------------

    def expand_term(self, term: ChorTerm) -> ChorTerm:
        if not isinstance(term, Interaction):
            term = _map_conts(self.resolve(term, {}), self.expand_term)
            return _lower_allsynch(term) if isinstance(term, AllSynch) else term
        binders = self.binders(term)
        if not binders:
            return self.resolve(_map_conts(term, self.expand_term), {})
        if len(binders) > 1:
            raise WellFormednessError(
                f"statement uses several index variables: {', '.join(sorted(binders))}"
            )
        (binder,) = binders
        lo, hi = self.binder_family_range(term, binder)
        conts = _conts(term)
        if len(conts) > 1:
            if any(binder in self.term_binders(c) for c in conts):
                raise WellFormednessError(
                    f"index {binder} reaches into a branch continuation of a choice"
                )
            if len(set(conts)) != 1:
                raise WellFormednessError(
                    "branches of an indexed choice must share one continuation"
                )
        # Replicate the statement per index value, threading each copy's
        # continuation(s) to the next copy; the last copy continues into
        # the (separately expanded) original continuation.
        cur = self.expand_term(conts[0])
        for v in range(hi, lo - 1, -1):
            cur = _map_conts(self.resolve(term, {binder: v}), lambda _, nxt=cur: nxt)
        return cur


def _fold_mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Lit) and isinstance(b, Lit) \
            and not isinstance(a.value, bool) and not isinstance(b.value, bool):
        return Lit(a.value * b.value)
    return Binary("*", a, b)


def _lower_allsynch(node: AllSynch) -> ChorTerm:
    """Rewrite an allsynch block into nested conditionals over per-role choices.

    Roles are considered in order of first appearance; a role's alternatives
    are tried in source order. Every combination of satisfied guards yields
    one interaction (initiated by the first role) whose weight is the product
    of the chosen weights and whose update concatenates the chosen updates;
    falling off a role's alternatives ends the protocol. A literal ``true``
    guard short-circuits its ladder, pruning the conditional around it.
    """
    groups: dict[str, list[AllSynchEntry]] = {}
    for e in node.entries:
        groups.setdefault(e.role, []).append(e)
    order = list(groups)

    def build(i: int, chosen: list[AllSynchEntry]) -> ChorTerm:
        if i == len(order):
            weight = chosen[0].weight
            update: tuple[Assign, ...] = chosen[0].update
            for e in chosen[1:]:
                weight = _fold_mul(weight, e.weight)
                update = update + e.update
            return Interaction(
                order[0],
                tuple(order[1:]),
                (Branch(weight, update, node.cont),),
            )
        ladder: ChorTerm = Inact()
        for e in reversed(groups[order[i]]):
            taken = build(i + 1, chosen + [e])
            if e.guard == Lit(True):
                ladder = taken
            else:
                ladder = Conditional(e.guard, order[i], taken, ladder)
        return ladder

    return build(0, [])


def expand_indices(prog: SurfaceProgram) -> ChorProgram:
    """The core program of ``prog``, with every piece of sugar lowered:
    families, indexed statements, foreach clauses and allsynch blocks.

    Each indexed statement becomes one copy per index value, copies chained
    in sequence; a statement's original continuation follows the last copy.
    Literal indices must lie within the family range; binder arithmetic wraps
    around it. A foreach clause becomes one assignment per index of its
    family that satisfies the bound. An index variable is bound by the
    interaction whose references use it, or inside its clause by a foreach;
    one met anywhere else raises. The walk expands a statement's
    continuations before the statement itself, so of two faults in different
    statements the one met first that way is reported.
    """
    ex = _Expander(prog)
    roles = list(prog.roles)
    for f in prog.role_families:
        roles.extend(f"{f.base}{i}" for i in range(f.lo, f.hi + 1))
    var_decls = [dataclasses.replace(d, owner=ex.resolve_ref(d.owner, {})) for d in prog.var_decls]
    fam_roles = {rf.base: rf for rf in prog.role_families}
    for f in prog.var_families:
        if f.owner_base not in fam_roles:
            raise WellFormednessError(
                f"variable family {f.base} owned by non-family {f.owner_base}"
            )
        rf = fam_roles[f.owner_base]
        if (rf.lo, rf.hi) != (f.lo, f.hi):
            raise WellFormednessError(
                f"variable family {f.base}[{f.lo}..{f.hi}] does not match "
                f"owner family {f.owner_base}[{rf.lo}..{rf.hi}]"
            )
        var_decls.extend(
            VarDecl(f"{f.base}{i}", f"{f.owner_base}{i}", f.init, f.vlo, f.vhi, f.is_bool)
            for i in range(f.lo, f.hi + 1)
        )
    return ChorProgram(
        kind=prog.kind,
        roles=tuple(roles),
        constants=dict(prog.constants),
        var_decls=tuple(var_decls),
        defs={name: ex.expand_term(body) for name, body in prog.defs.items()},
        main=prog.main,
    )


# ---------------------------------------------------------------------------
# annotation
# ---------------------------------------------------------------------------

def auto_annotate(program: ChorProgram, seed: int | None = None) -> ChorProgram:
    """Give every unannotated interaction a fresh label.

    With no seed, interactions are numbered ``A1, A2, …`` in preorder over
    the definitions; with a seed, labels are five uppercase letters drawn
    from a generator seeded with it. Existing labels are kept and never
    collided with.
    """
    used = {
        name
        for body in program.defs.values()
        for t in subterms(body) if isinstance(t, Interaction)
        for name in (t.annotation, *(b.label for b in t.branches)) if name
    }

    if seed is None:
        names = (f"A{i}" for i in itertools.count(1))
    else:
        rng = random.Random(seed)
        names = ("".join(rng.choice(string.ascii_uppercase) for _ in range(5))
                 for _ in itertools.count())

    def fresh() -> str:
        name = next(n for n in names if n not in used)
        used.add(name)
        return name

    def walk(term: ChorTerm) -> ChorTerm:
        if isinstance(term, Interaction) and not term.annotation:
            term = Interaction(term.initiator, term.receivers, term.branches, fresh())
        return _map_conts(term, walk)

    defs = {name: walk(body) for name, body in program.defs.items()}
    return dataclasses.replace(program, defs=defs)


def branch_label(inter: Interaction, j: int) -> str:
    """Synchronisation label of branch ``j`` (0-based): explicit, or derived
    from the interaction's annotation as ``<annotation>_<j+1>``."""
    b = inter.branches[j]
    if b.label:
        return b.label
    if not inter.annotation:
        raise WellFormednessError("interaction has neither labels nor annotation")
    return f"{inter.annotation}_{j + 1}"


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def load_program(text: str) -> ChorProgram:
    return expand_indices(parse(text))
