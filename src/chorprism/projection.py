"""Endpoint projection: compile an annotated choreography into one
guarded-command module per role.

Every role gets a reserved counter variable tracking its position in the
program, and each construct has one rule. In an interaction every
participant takes one command per branch, synchronized on the branch's
label, and a role outside it goes straight on to the continuations. A
conditional is two silent counter hops of the deciding role, guarded by the
guard and by its negation. A call to a named definition is a silent reset of
the counter to the slot where that definition's commands start, for a role
that still acts from that definition on; for any other role it is no move,
so a role that acts in no statement gets no commands, and its counter is
declared over [0..0]. The counter slots for each definition body are
allocated once, globally, and shared by every role; within a body the
numbering is per-role (roles not involved in an interaction or a decision
skip its slot), which is harmless because counters are module-local.

In discrete-time mode the initiator of an interaction first takes an
internal probabilistic hop onto one of |branches| reserved intermediate
slots and only then synchronizes, so that receivers follow the initiator's
choice with probability 1; the interaction therefore occupies 1+|branches|
slots plus its continuations, instead of the continuous-time 1.

:func:`fuse_resets` then removes the resets that are the only command at
their slot; ``compile`` prints the fused network unless told not to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .analysis import require_annotated, require_well_formed, s_conn, wire_label
from .errors import NotStronglyConnected
from .prism import Network, PrismCommand, PrismModule, split_tests
from .syntax import (
    Assign,
    Binary,
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
    acting,
    continuations,
    gc_paused,
    subterms,
)


@dataclass(frozen=True)
class ProjectionContext:
    """What the projection fixed up front: where each definition's commands
    start on the counter and what each role's counter variable is called."""

    kind: str
    defs_start: dict[str, int]
    counter_var: dict[str, str]
    counter_max: int  # counters range over [0 .. counter_max]


def nodes(term: ChorTerm, kind: str) -> int:
    """Number of counter slots the projection reserves for ``term``: one,
    plus its continuations' slots; in discrete mode an interaction also
    reserves one slot per branch for the internal-choice intermediates, so
    commitment states never collide with continuation regions."""
    conts = continuations(term)
    if not conts:
        return 1  # CallTerm, Inact
    hops = len(conts) if kind == "dtmc" and isinstance(term, Interaction) else 0
    return 1 + hops + sum([nodes(c, kind) for c in conts])


def _def_order(prog: ChorProgram) -> list[str]:
    """The entry definition first, the rest in declaration order."""
    return [prog.main] + [n for n in prog.defs if n != prog.main]


def alloc_defs(prog: ChorProgram) -> ProjectionContext:
    """Allocate counter slots for every definition body and pick counter
    variable names that cannot clash with declared state variables."""
    require_annotated(prog)
    starts: dict[str, int] = {}
    at = 0
    for name in _def_order(prog):
        starts[name] = at
        at += nodes(prog.defs[name], prog.kind)
    taken = {d.name for d in prog.var_decls}
    counters: dict[str, str] = {}
    for role in prog.roles:
        c = f"{role}_STATE"
        while c in taken:
            c += "_"
        taken.add(c)
        counters[role] = c
    return ProjectionContext(prog.kind, starts, counters, at - 1)


def proj_update(update: tuple[Assign, ...], role: str, prog: ChorProgram) -> tuple[Assign, ...]:
    """Keep only the assignments to variables the role owns, in order."""
    return tuple(a for a in update if prog.owner(a.var) == role)


def _eq(counter: str, v: int, ctx: ProjectionContext) -> Binary:
    assert 0 <= v <= ctx.counter_max, "counter slot out of allocated range"
    return Binary("=", Var(counter), Lit(v))


def _goto(counter: str, v: int, ctx: ProjectionContext) -> Assign:
    assert 0 <= v <= ctx.counter_max, "counter target out of allocated range"
    return Assign(counter, Lit(v))


def _hop(counter: str, guard: Expr, target: int) -> PrismCommand:
    """The silent weight-1 move of the counter to ``target``: all a call
    projects to, and either half of a decision."""
    return PrismCommand(None, guard, ((Lit(1), (Assign(counter, Lit(target)),)),))


def _proj(
    role: str,
    term: ChorTerm,
    base: int,
    ctx: ProjectionContext,
    prog: ChorProgram,
    live: set[str],
    out: list[PrismCommand],
) -> None:
    kind = ctx.kind
    s = ctx.counter_var[role]

    if isinstance(term, Inact):
        return

    if isinstance(term, CallTerm):
        if term.name in live:
            out.append(_hop(s, _eq(s, base, ctx), ctx.defs_start[term.name]))
        return

    if isinstance(term, Conditional):
        then_at = base + (role == term.role)
        else_at = then_at + nodes(term.then_term, kind)
        if role == term.role:
            here = _eq(s, base, ctx)
            out.append(_hop(s, Binary("and", here, term.guard), then_at))
            out.append(_hop(s, Binary("and", here, Unary("not", term.guard)), else_at))
        _proj(role, term.then_term, then_at, ctx, prog, live, out)
        _proj(role, term.else_term, else_at, ctx, prog, live, out)
        return

    assert isinstance(term, Interaction)
    branches = term.branches
    inside = role in term.participants
    # a discrete initiator first hops onto one reserved slot per branch
    hop = kind == "dtmc" and role == term.initiator
    starts = []
    at = base + inside + (len(branches) if hop else 0)
    for b in branches:
        starts.append(at)
        at += nodes(b.cont, kind)
    if hop:
        out.append(
            PrismCommand(
                None,
                _eq(s, base, ctx),
                tuple((b.weight, (_goto(s, base + 1 + j, ctx),)) for j, b in enumerate(branches)),
            )
        )
    if inside:
        for j, b in enumerate(branches):
            label = wire_label(term, j)
            weight = b.weight if role == term.initiator and not hop else Lit(1)
            upd = proj_update(b.update, role, prog) + (_goto(s, starts[j], ctx),)
            here = _eq(s, base + 1 + j if hop else base, ctx)
            out.append(PrismCommand(label, here, ((weight, upd),)))
    for b, at in zip(branches, starts):
        _proj(role, b.cont, at, ctx, prog, live, out)


def _live_defs(prog: ChorProgram) -> dict[str, set[str]]:
    """Per role, the definitions from which it still acts: those it acts in
    and those that reach one of them by calls. A call into any other
    definition is no move for the role; as a hop it would be a silent move
    of its counter alone, which a chain cannot tell from a real one."""
    callers: dict[str, set[str]] = {name: set() for name in prog.defs}
    live: dict[str, set[str]] = {role: set() for role in prog.roles}
    for name, body in prog.defs.items():
        for t in subterms(body):
            if isinstance(t, CallTerm):
                callers[t.name].add(name)
            for role in acting(t):
                live[role].add(name)
    for found in live.values():
        todo = list(found)
        while todo:
            for name in callers[todo.pop()] - found:
                found.add(name)
                todo.append(name)
    return live


@gc_paused
def project(
    prog: ChorProgram, *, require_sconn: bool = True
) -> tuple[Network, ProjectionContext]:
    """Compile the program into a network of one module per role.

    Each module holds the role's counter, the variables it owns, and the
    commands of every definition at that definition's allocated slots; a
    role has none in a definition from which it acts no more.
    Programs outside the certified fragment raise NotStronglyConnected;
    pass ``require_sconn=False`` to compile them anyway (the result may
    deadlock where the source would not).
    """
    require_well_formed(prog)
    ctx = alloc_defs(prog)
    if require_sconn and not s_conn(prog):
        raise NotStronglyConnected(
            "program is outside the certified fragment; "
            "re-run with the strong-connectivity check disabled to compile anyway"
        )
    live = _live_defs(prog)
    modules = []
    for role in prog.roles:
        cmds: list[PrismCommand] = []
        for name in _def_order(prog):
            _proj(role, prog.defs[name], ctx.defs_start[name], ctx, prog, live[role], cmds)
        # a commandless counter never moves
        decls = (VarDecl(ctx.counter_var[role], role, 0, 0, ctx.counter_max if cmds else 0),)
        decls += tuple(d for d in prog.var_decls if d.owner == role)
        modules.append(PrismModule(role, decls, tuple(cmds)))
    return tuple(modules), ctx


# ---------------------------------------------------------------------------
# reset fusion
# ---------------------------------------------------------------------------

def _fuse_module(m: PrismModule) -> PrismModule:
    counter_decl = m.var_decls[0]
    counter = counter_decl.name
    # the counter slot each command is guarded on, by its leftmost conjunct
    splits = [split_tests(c.guard) for c in m.commands]
    guard_vals = [t[0].right.value if t and t[0].left.name == counter else None for t, _ in splits]
    at_value = Counter(guard_vals)

    # the commands shaped like a call's (see _hop) that are alone at their
    # slot: silent, guarded by the bare test counter = v, and moving only
    # the counter with weight 1
    hops: dict[int, int] = {}
    for c, v in zip(m.commands, guard_vals):
        if c.label is None and v is not None and at_value[v] == 1 and c.guard.op == "=":
            match c.alts:
                case ((Lit(1), (Assign(x, Lit(t)),)),) if x == counter:
                    hops[v] = t

    # a chain of hops ends at a slot that is no hop or at the first slot it
    # meets again, so a pure counter cycle stays and a chain that runs into
    # one ends at its entry; final maps each slot that goes to its end
    def end(v: int) -> int:
        seen = set()
        while v in hops and v not in seen:
            seen.add(v)
            v = hops[v]
        return v

    final = {v: t for v in hops if (t := end(v)) != v}

    def dest(v: int) -> int:
        return final.get(v, v)

    kept = [(c, v, split) for c, v, split in zip(m.commands, guard_vals, splits)
            if v not in final]
    init = dest(counter_decl.init)
    used = {init}
    for c, v, _ in kept:
        used.add(v)
        used.update(dest(a.expr.value) for _, upd in c.alts for a in upd if a.var == counter)
    if not final and used == set(range(counter_decl.hi + 1)):
        return m  # renumbering would rebuild the module as it is
    remap = {v: i for i, v in enumerate(sorted(used))}

    def move(a: Assign) -> Assign:
        return Assign(counter, Lit(remap[dest(a.expr.value)])) if a.var == counter else a

    def remap_cmd(c: PrismCommand, v: int, split: tuple[list, list]) -> PrismCommand:
        tests, rest = split
        guard = Binary("=", Var(counter), Lit(remap[v]))
        for r in tests[1:] + rest:
            guard = Binary("and", guard, r)
        return PrismCommand(c.label, guard, tuple((w, tuple(map(move, upd))) for w, upd in c.alts))

    decls = (VarDecl(counter, counter_decl.owner, remap[init], 0, len(remap) - 1, False),)
    return PrismModule(m.name, decls + m.var_decls[1:], tuple(remap_cmd(*k) for k in kept))


@gc_paused
def fuse_resets(net: Network) -> Network:
    """Inline weight-1 counter resets that are a slot's only exit.

    A command shaped like a call's projection (silent, guarded by a bare
    counter test, one weight-1 alternative that only moves the counter),
    whose slot no other command is guarded on, is pure plumbing: every jump
    onto its slot is redirected to where its chain of resets ends and the
    slot disappears. The resets of a pure counter cycle stay. Remaining
    slots are renumbered densely and the counter's declared range shrinks
    to fit.

    ``verify`` checks the unfused network, so its verdict is about the
    network that ``compile --no-fuse-resets`` prints, and the fused one
    need not share it: on ``tests/data/sconn_pos.chor`` ``verify`` says
    "not equivalent", while the fused network is bisimilar to the source
    under the same collapse-and-refine check.
    """
    return tuple(_fuse_module(m) for m in net)
