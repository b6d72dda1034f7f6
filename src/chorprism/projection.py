"""Endpoint projection: compile an annotated choreography into one
guarded-command module per role.

Every role gets a reserved counter variable tracking its position in the
program; interactions become commands synchronized on per-branch labels,
conditionals become silent counter hops of the deciding role, and a call to
a named definition becomes a silent reset of the counter to the slot where
that definition's commands start. The counter slots for each definition body
are allocated once, globally, and shared by every role; within a body the
numbering is per-role (roles not involved in an interaction skip its slot),
which is harmless because counters are module-local.

In discrete-time mode an interaction first takes an internal probabilistic
hop of the initiator onto one of |branches| reserved intermediate slots and
only then synchronizes, so that receivers follow the initiator's choice with
probability 1; the interaction therefore occupies 1+|branches| slots plus
its continuations, instead of the continuous-time 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import nodes, require_annotated, require_well_formed, s_conn
from .errors import NotStronglyConnected
from .prism import Network, PrismCommand, PrismModule, split_tests
from .sugar import branch_label
from .syntax import (
    Assign,
    Binary,
    CallTerm,
    ChorProgram,
    ChorTerm,
    Conditional,
    Inact,
    Interaction,
    Lit,
    Unary,
    Var,
    VarDecl,
)


@dataclass(frozen=True)
class ProjectionContext:
    """What the projection fixed up front: where each definition's commands
    start on the counter and what each role's counter variable is called."""

    kind: str
    defs_start: dict[str, int]
    counter_var: dict[str, str]
    counter_max: int  # counters range over [0 .. counter_max]


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


def _proj(
    role: str,
    term: ChorTerm,
    base: int,
    ctx: ProjectionContext,
    prog: ChorProgram,
    out: list[PrismCommand],
) -> None:
    kind = ctx.kind
    s = ctx.counter_var[role]

    if isinstance(term, Inact):
        return

    if isinstance(term, CallTerm):
        target = ctx.defs_start[term.name]
        out.append(
            PrismCommand(None, _eq(s, base, ctx), ((Lit(1), (_goto(s, target, ctx),)),))
        )
        return

    if isinstance(term, Conditional):
        n1 = nodes(term.then_term, kind)
        if role == term.role:
            here = _eq(s, base, ctx)
            out.append(
                PrismCommand(
                    None,
                    Binary("and", here, term.guard),
                    ((Lit(1), (_goto(s, base + 1, ctx),)),),
                )
            )
            out.append(
                PrismCommand(
                    None,
                    Binary("and", here, Unary("not", term.guard)),
                    ((Lit(1), (_goto(s, base + n1 + 1, ctx),)),),
                )
            )
            _proj(role, term.then_term, base + 1, ctx, prog, out)
            _proj(role, term.else_term, base + n1 + 1, ctx, prog, out)
        else:
            _proj(role, term.then_term, base, ctx, prog, out)
            _proj(role, term.else_term, base + n1, ctx, prog, out)
        return

    assert isinstance(term, Interaction)
    branches = term.branches
    if role not in term.participants:
        at = base
        for b in branches:
            _proj(role, b.cont, at, ctx, prog, out)
            at += nodes(b.cont, kind)
        return

    if term.receivers:
        labels = [branch_label(term, j) for j in range(len(branches))]
    else:
        # degenerate self-step: nobody to synchronize with, keep it silent
        labels = [None] * len(branches)

    if kind == "dtmc" and role == term.initiator:
        n = len(branches)
        # internal probabilistic hop onto one reserved slot per branch
        out.append(
            PrismCommand(
                None,
                _eq(s, base, ctx),
                tuple((b.weight, (_goto(s, base + 1 + j, ctx),)) for j, b in enumerate(branches)),
            )
        )
        at = base + 1 + n
        starts = []
        for b in branches:
            starts.append(at)
            at += nodes(b.cont, kind)
        for j, b in enumerate(branches):
            upd = proj_update(b.update, role, prog) + (_goto(s, starts[j], ctx),)
            out.append(
                PrismCommand(labels[j], _eq(s, base + 1 + j, ctx), ((Lit(1), upd),))
            )
        for j, b in enumerate(branches):
            _proj(role, b.cont, starts[j], ctx, prog, out)
        return

    # continuous-time participants, and discrete-time receivers, share the
    # same arithmetic: branch j's commands start at base+1+Σ_{k<j} nodes(C_k)
    at = base + 1
    starts = []
    for b in branches:
        starts.append(at)
        at += nodes(b.cont, kind)
    initiating = role == term.initiator
    for j, b in enumerate(branches):
        weight = b.weight if initiating else Lit(1)
        upd = proj_update(b.update, role, prog) + (_goto(s, starts[j], ctx),)
        out.append(PrismCommand(labels[j], _eq(s, base, ctx), ((weight, upd),)))
    for j, b in enumerate(branches):
        _proj(role, b.cont, starts[j], ctx, prog, out)


def project(
    prog: ChorProgram, *, require_sconn: bool = True
) -> tuple[Network, ProjectionContext]:
    """Compile the program into a network of one module per role.

    Each module holds the role's counter, the variables it owns, and the
    commands of every definition at that definition's allocated slots.
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
    modules = []
    for role in prog.roles:
        decls = (VarDecl(ctx.counter_var[role], role, 0, 0, ctx.counter_max, False),)
        decls += tuple(d for d in prog.var_decls if d.owner == role)
        cmds: list[PrismCommand] = []
        for name in _def_order(prog):
            _proj(role, prog.defs[name], ctx.defs_start[name], ctx, prog, cmds)
        modules.append(PrismModule(role, decls, tuple(cmds)))
    return tuple(modules), ctx


# ---------------------------------------------------------------------------
# reset fusion (cosmetic compile pass)
# ---------------------------------------------------------------------------

def _guard_value(cmd: PrismCommand, counter: str) -> int | None:
    """Counter slot a projected command is guarded on (leftmost conjunct)."""
    tests, _ = split_tests(cmd.guard)
    return tests[0].right.value if tests and tests[0].left.name == counter else None


def _strip_cycles(removed: dict[int, int]) -> dict[int, int]:
    """Drop fusion candidates that form pure counter cycles; fusing them
    would leave the redirect chasing forever."""
    out = dict(removed)
    for start in list(removed):
        if start not in out:
            continue
        pos: dict[int, int] = {}
        path: list[int] = []
        cur = start
        while cur in out:
            if cur in pos:
                for x in path[pos[cur] :]:
                    del out[x]
                break
            pos[cur] = len(path)
            path.append(cur)
            cur = out[cur]
    return out


def _fuse_module(m: PrismModule) -> PrismModule:
    counter_decl = m.var_decls[0]
    counter = counter_decl.name
    guard_vals = [_guard_value(c, counter) for c in m.commands]

    at_value: dict[int, int] = {}
    for v in guard_vals:
        if v is not None:
            at_value[v] = at_value.get(v, 0) + 1

    removed: dict[int, int] = {}
    for c, v in zip(m.commands, guard_vals):
        if (
            v is not None
            and at_value[v] == 1
            and c.label is None
            and isinstance(c.guard, Binary)
            and c.guard.op == "="
            and len(c.alts) == 1
            and isinstance(c.alts[0][0], Lit)
            and c.alts[0][0].value == 1
            and len(c.alts[0][1]) == 1
            and c.alts[0][1][0].var == counter
            and isinstance(c.alts[0][1][0].expr, Lit)
        ):
            removed[v] = c.alts[0][1][0].expr.value
    removed = _strip_cycles(removed)
    if not removed:
        return m

    def final(v: int) -> int:
        while v in removed:
            v = removed[v]
        return v

    kept = [c for c, v in zip(m.commands, guard_vals) if v not in removed]
    init = final(counter_decl.init)

    used = {init}
    for c in kept:
        used.add(_guard_value(c, counter))
        for _, upd in c.alts:
            for a in upd:
                if a.var == counter:
                    used.add(final(a.expr.value))
    remap = {v: i for i, v in enumerate(sorted(used))}

    def remap_guard(g):
        tests, rest = split_tests(g)
        g = Binary("=", tests[0].left, Lit(remap[tests[0].right.value]))
        for r in tests[1:] + rest:
            g = Binary("and", g, r)
        return g

    def remap_cmd(c: PrismCommand) -> PrismCommand:
        alts = tuple(
            (
                w,
                tuple(
                    Assign(a.var, Lit(remap[final(a.expr.value)]))
                    if a.var == counter
                    else a
                    for a in upd
                ),
            )
            for w, upd in c.alts
        )
        return PrismCommand(c.label, remap_guard(c.guard), alts)

    new_counter = VarDecl(counter, counter_decl.owner, remap[init], 0, len(remap) - 1, False)
    return PrismModule(m.name, (new_counter,) + m.var_decls[1:], tuple(remap_cmd(c) for c in kept))


def fuse_resets(net: Network) -> Network:
    """Inline weight-1 counter resets that are a slot's only exit.

    A silent command whose guard is a bare counter test, whose single
    alternative only moves the counter, and whose slot no other command is
    guarded on, is pure plumbing: every jump onto its slot is redirected to
    its destination and the slot disappears. Remaining slots are renumbered
    densely and the counter's declared range shrinks to fit. Purely
    cosmetic — the verification pipeline always checks the unfused network.
    """
    return tuple(_fuse_module(m) for m in net)
