"""Lowering from the surface language to the core representation.

``expand_indices`` removes all sugar in one walk over the definitions: it
concretises role/variable families, replicates indexed statements,
instantiates foreach clauses over their family's range and rewrites
synchronised choices into conditional ladders. Each statement's references
are walked once, by ``_Expander.resolve``, which rewrites them and returns
those whose index variable is still unbound; a statement without an index
variable needs no other walk. A node that lowering leaves unchanged is
shared with the surface program, not copied, so a program without sugar
lowers to its own parsed definitions. It returns the core program;
``load_program`` runs it on parsed source text.
"""
from __future__ import annotations

import dataclasses
import itertools
import random
import re
import string
from functools import partial
from operator import is_
from typing import Callable

from .analysis import branch_label
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
    continuations,
    gc_paused,
    subterms,
    times,
)

_REF = re.compile(r"^([A-Za-z_]\w*)\[([^\]]+)\]$")
_IDX = re.compile(r"^([A-Za-z_]\w*|\d+)([+-]\d+)?$")


def split_ref(name: str) -> tuple[str, str | None]:
    m = "[" in name and _REF.match(name)
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


def _conts(term: ChorTerm) -> tuple[ChorTerm, ...]:
    """The continuations directly below ``term``, in source order."""
    return (term.cont,) if isinstance(term, AllSynch) else continuations(term)


def _map_conts(term: ChorTerm, f: Callable[[ChorTerm], ChorTerm]) -> ChorTerm:
    """``term`` with ``f`` applied to each continuation directly below it,
    in source order; ``term`` itself where ``f`` returns each as it is."""
    if isinstance(term, Interaction):
        branches = tuple(b if (c := f(b.cont)) is b.cont
                         else Branch(b.weight, b.update, c, b.label) for b in term.branches)
        if all(map(is_, branches, term.branches)):
            return term
        return Interaction(term.initiator, term.receivers, branches, term.annotation)
    if isinstance(term, Conditional):
        then_term, else_term = f(term.then_term), f(term.else_term)
        same = then_term is term.then_term and else_term is term.else_term
        return term if same else Conditional(term.guard, term.role, then_term, else_term)
    if isinstance(term, AllSynch):
        return AllSynch(term.entries, f(term.cont))
    return term


def _require_bound(left: list) -> None:
    """Raise for the first reference in ``left``, whose index variable no
    statement binds."""
    if left:
        _, var, name = left[0]
        raise WellFormednessError(f"index {var} in {name} is bound by no statement")


class _Expander:
    def __init__(self, prog: SurfaceProgram, check: bool = True):
        self.constants = prog.constants
        self.families = {f.base: (f.lo, f.hi) for f in [*prog.role_families, *prog.var_families]}
        self.check = check  # off for the scan of term_binders
        self.scanner = _Expander(prog, False) if check else None  # a scan needs none

    # -- reference resolution ------------------------------------------------

    def resolve_ref(self, name: str, subst: dict[str, int | None], left: list) -> str:
        """``name`` with its index resolved under ``subst``. A reference whose
        index variable ``subst`` does not bind stays as it is and is noted in
        ``left`` as ``(family, index variable, name)``; one bound to None, a
        foreach binder inside its clause, stays for :meth:`clause`."""
        base, idx = split_ref(name)
        if idx is None:
            return name
        try:
            binder, off = _parse_idx(idx, self.constants)
            if binder is not None:
                if subst.get(binder) is None:
                    if binder not in subst:
                        left.append((base, binder, name))
                    return name
                off += subst[binder]
            if base not in self.families:
                raise WellFormednessError(f"{base} is not a declared family")
            lo, hi = self.families[base]
            if binder is not None:  # offsets wrap around the family
                return f"{base}{lo + (off - lo) % (hi - lo + 1)}"
            if not lo <= off <= hi:
                raise IndexOutOfFamily(f"index {off} outside {base}[{lo}..{hi}]")
            return f"{base}{off}"
        except (WellFormednessError, IndexOutOfFamily):
            if self.check:
                raise
            return name  # a literal index, whose faults the scan leaves to expansion

    def resolve_expr(self, e: Expr, subst: dict[str, int | None], left: list) -> Expr:
        if isinstance(e, Var):
            name = self.resolve_ref(e.name, subst, left)
            return e if name is e.name else Var(name)
        if isinstance(e, Binary):
            a, b = self.resolve_expr(e.left, subst, left), self.resolve_expr(e.right, subst, left)
            return e if a is e.left and b is e.right else Binary(e.op, a, b)
        if isinstance(e, Unary):
            a = self.resolve_expr(e.operand, subst, left)
            return e if a is e.operand else Unary(e.op, a)
        return e

    def resolve_item(self, item, subst: dict[str, int], left: list):
        if not isinstance(item, ForeachAssign):
            var = self.resolve_ref(item.var, subst, left)
            e = self.resolve_expr(item.expr, subst, left)
            return item if var is item.var and e is item.expr else Assign(var, e)
        # the clause's binder shadows an enclosing index of the same name
        inner = {**subst, item.binder: None}
        if isinstance(item.bound, str) and item.bound not in self.constants \
                and item.bound not in inner:
            left.append((None, item.bound, None))
        self.resolve_ref(item.var, inner, left)  # the target stays as written, for clause
        return ForeachAssign(item.binder, item.op, subst.get(item.bound, item.bound),
                             item.var, self.resolve_expr(item.expr, inner, left))

    def resolve(self, node: ChorTerm, subst: dict[str, int]) -> tuple[ChorTerm, list]:
        """``node`` with its own references resolved under ``subst``, in
        source order, and what that left: ``(family, index variable, name)``
        for each reference whose index variable ``subst`` does not bind, a
        foreach bound that names no constant as ``(None, bound, None)``. The
        continuations and foreach clauses stay as they are. A node whose
        parts resolve to equal ones (names; never a continuation) is kept."""
        left: list = []
        ref = partial(self.resolve_ref, subst=subst, left=left)
        expr = partial(self.resolve_expr, subst=subst, left=left)
        item = partial(self.resolve_item, subst=subst, left=left)

        def branch(br: Branch) -> Branch:
            weight, update = expr(br.weight), tuple(map(item, br.update))
            if weight is br.weight and update == br.update:
                return br
            return Branch(weight, update, br.cont, br.label)

        if isinstance(node, Interaction):
            parts = (ref(node.initiator), tuple(map(ref, node.receivers)),
                     tuple(map(branch, node.branches)))
            if parts != (node.initiator, node.receivers, node.branches):
                node = Interaction(*parts, node.annotation)
        elif isinstance(node, Conditional):
            parts = (expr(node.guard), ref(node.role))
            if parts != (node.guard, node.role):
                node = Conditional(*parts, node.then_term, node.else_term)
        elif isinstance(node, AllSynch):
            node = AllSynch(tuple(
                AllSynchEntry(ref(e.role), expr(e.guard), expr(e.weight),
                              tuple(map(item, e.update)))
                for e in node.entries), node.cont)
        return node, left

    def term_binders(self, term: ChorTerm) -> set[str]:
        """The index variables that ``term`` and its continuations leave
        unbound, by a scan that leaves literal indices to their statements."""
        out = {var for _, var, _ in self.scanner.resolve(term, {})[1]}
        for c in _conts(term):
            out |= self.term_binders(c)
        return out

    # -- foreach clauses -------------------------------------------------------

    def instantiate(self, node: ChorTerm) -> ChorTerm:
        """``node``, resolved, with its foreach clauses instantiated."""
        if not isinstance(node, Interaction) or not any(
                isinstance(item, ForeachAssign) for br in node.branches for item in br.update):
            return node
        branches = tuple(
            Branch(br.weight, tuple(a for item in br.update for a in self.clause(item)),
                   br.cont, br.label)
            for br in node.branches
        )
        return Interaction(node.initiator, node.receivers, branches, node.annotation)

    def clause(self, item) -> list[Assign]:
        """A resolved update item: an assignment as it is, a foreach clause
        as one assignment per index of its family that satisfies the bound."""
        if not isinstance(item, ForeachAssign):
            return [item]
        base, idx = split_ref(item.var)
        if idx != item.binder:
            raise WellFormednessError(
                f"foreach over {item.binder} must assign {base}[{item.binder}]"
            )
        if base not in self.families:
            raise WellFormednessError(f"{base} is not a declared family")
        bound = item.bound
        if isinstance(bound, str):
            # resolve_item substituted the statement's index; what is left
            # is a constant or a name bound nowhere (j <= j)
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
        left: list = []
        exprs = {k: self.resolve_expr(item.expr, {item.binder: k}, left) for k in range(lo, hi + 1)}
        _require_bound(left)
        return [Assign(f"{base}{k}", e) for k, e in exprs.items() if STATE_OPS[item.op](k, bound)]

    # -- statement expansion ----------------------------------------------------

    def expand_term(self, term: ChorTerm) -> ChorTerm:
        if isinstance(term, (Inact, CallTerm)):  # nothing to resolve
            return term
        node, left = self.resolve(term, {})
        if not left:
            node = _map_conts(self.instantiate(node), self.expand_term)
            return _lower_allsynch(node) if isinstance(node, AllSynch) else node
        if not isinstance(term, Interaction):
            _require_bound(left)  # only an interaction binds an index variable
        binders = {var for _, var, _ in left}
        if len(binders) > 1:
            raise WellFormednessError(
                f"statement uses several index variables: {', '.join(sorted(binders))}"
            )
        (binder,) = binders
        ranges = set()
        for base, _, _ in left:
            if base is not None:
                if base not in self.families:
                    raise WellFormednessError(f"{base} is not a declared family")
                ranges.add(self.families[base])
        if not ranges:
            raise WellFormednessError(f"cannot infer the range of index {binder}")
        if len(ranges) > 1:
            raise WellFormednessError(f"index {binder} spans families with different ranges")
        ((lo, hi),) = ranges
        copies = [self.instantiate(self.resolve(term, {binder: v})[0]) for v in range(lo, hi + 1)]
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
        # Chain the copies in index order; the last continues into the
        # (separately expanded) original continuation.
        cur = self.expand_term(conts[0])
        for copy in reversed(copies):
            cur = _map_conts(copy, lambda _, nxt=cur: nxt)
        return cur


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
    return _ladder(list(groups.values()), node.cont, [])


def _ladder(groups: list[list[AllSynchEntry]], cont: ChorTerm,
            chosen: list[AllSynchEntry]) -> ChorTerm:
    """The lowering of the roles of ``groups`` after those whose entries are
    ``chosen``: a ladder over the next role's alternatives or, once every
    role has chosen, the chosen entries' one interaction, continuing as
    ``cont``."""
    if len(chosen) == len(groups):
        weight = chosen[0].weight
        update: tuple[Assign, ...] = chosen[0].update
        for e in chosen[1:]:
            weight = times(weight, e.weight)
            update = update + e.update
        return Interaction(
            chosen[0].role,
            tuple(e.role for e in chosen[1:]),
            (Branch(weight, update, cont),),
        )
    ladder: ChorTerm = Inact()
    for e in reversed(groups[len(chosen)]):
        taken = _ladder(groups, cont, chosen + [e])
        if e.guard == Lit(True):
            ladder = taken
        else:
            ladder = Conditional(e.guard, e.role, taken, ladder)
    return ladder


def expand_indices(prog: SurfaceProgram) -> ChorProgram:
    """The core program of ``prog``, with every piece of sugar lowered:
    families, indexed statements, foreach clauses and allsynch blocks.

    Each indexed statement becomes one copy per index value, copies chained
    in sequence; a statement's original continuation follows the last copy.
    Literal indices must lie within the family range; binder arithmetic wraps
    around it. A foreach clause becomes one assignment per index of its
    family that satisfies the bound. An index variable is bound by the
    interaction whose references use it, or inside its clause by a foreach;
    one met anywhere else raises.

    Every statement reports its own fault before any in its continuations:
    first its references' faults in source order, then those of its index
    variable (bound nowhere, or over no single range), then its foreach
    faults, then whether its continuations suit replication.
    """
    ex = _Expander(prog)
    roles = list(prog.roles)
    for f in prog.role_families:
        roles.extend(f"{f.base}{i}" for i in range(f.lo, f.hi + 1))
    left: list = []
    var_decls = [d if (owner := ex.resolve_ref(d.owner, {}, left)) is d.owner
                 else dataclasses.replace(d, owner=owner) for d in prog.var_decls]
    _require_bound(left)
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

@gc_paused
def auto_annotate(program: ChorProgram, seed: int | None = None) -> ChorProgram:
    """Give every unannotated interaction a fresh label.

    With no seed, interactions are numbered ``A1, A2, …`` in preorder over
    the definitions; with a seed, labels are five uppercase letters drawn
    from a generator seeded with it. Existing labels are kept and never
    collided with: a name is skipped where it, or a branch label it would
    derive, is an annotation or a branch label already in use.
    """
    used = {
        name
        for body in program.defs.values()
        for t in subterms(body) if isinstance(t, Interaction)
        for name in (t.annotation, *(branch_label(t, j) for j, b in enumerate(t.branches)
                                     if b.label or t.annotation)) if name
    }

    if seed is None:
        names = (f"A{i}" for i in itertools.count(1))
    else:
        rng = random.Random(seed)
        names = ("".join(rng.choice(string.ascii_uppercase) for _ in range(5))
                 for _ in itertools.count())

    def annotated(term: Interaction) -> Interaction:
        for name in names:
            t = Interaction(term.initiator, term.receivers, term.branches, name)
            taken = {name, *(branch_label(t, j) for j, b in enumerate(t.branches) if not b.label)}
            if used.isdisjoint(taken):
                used.update(taken)
                return t

    defs = {name: _annotate(body, annotated) for name, body in program.defs.items()}
    return dataclasses.replace(program, defs=defs)


def _annotate(term: ChorTerm, annotated: Callable[[Interaction], Interaction]) -> ChorTerm:
    """``term`` with ``annotated`` applied to every unannotated interaction."""
    if isinstance(term, Interaction) and not term.annotation:
        term = annotated(term)
    return _map_conts(term, partial(_annotate, annotated=annotated))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

@gc_paused
def load_program(text: str) -> ChorProgram:
    return expand_indices(parse(text))
