"""Hand-written networks used as oracles by several test modules, and the
reference tree-walking network semantics that the compiled explorer of
``chorprism.prism`` is compared against."""

from __future__ import annotations

from chorprism.chain import MarkovChain, explore, render_value
from chorprism.errors import EvalError, RangeViolation, TypeMismatch
from chorprism.prism import (
    Network,
    PrismCommand,
    PrismModule,
    derive_commands,
    network_var_decls,
)
from chorprism.semantics import DEFAULT_MAX_STATES, eval_expr, eval_weight, override_initial
from chorprism.syntax import Assign, Binary, Lit, Var, VarDecl

from chor_ref import apply_assignments, at_state


# ---------------------------------------------------------------------------
# reference semantics: walk the expression trees against dict valuations
# ---------------------------------------------------------------------------

def mu(
    cmd: PrismCommand,
    src: dict,
    dst: dict,
    decl_of,
    constants: dict,
) -> float:
    """Total weight the command moves from valuation ``src`` to ``dst``:
    the sum of the weights of all alternatives whose update maps ``src`` to
    ``dst``, or 0 when the guard is false."""
    env = dict(constants)
    env.update(src)
    g = eval_expr(cmd.guard, env)
    if not isinstance(g, bool):
        raise TypeMismatch("command guard is not boolean")
    if not g:
        return 0.0
    total = 0.0
    for w, upd in cmd.alts:
        if apply_assignments(upd, src, decl_of, constants) == dst:
            total += eval_weight(w, constants)
    return total


def decl_lookup(decls: dict[str, VarDecl]):
    def decl_of(name: str) -> VarDecl:
        d = decls.get(name)
        if d is None:
            raise EvalError(f"assignment to undeclared variable {name}")
        return d

    return decl_of


def oracle_step(
    commands: tuple[PrismCommand, ...],
    valuation: dict,
    kind: str,
    decl_of,
    constants: dict,
    var_names: tuple[str, ...],
) -> tuple[list[tuple[dict, float]], float | None]:
    """One-step successors with merged weights, every guard of every
    command evaluated at every state (up to a conjunct or disjunct that
    decides it).

    Returns the moves and, in discrete mode, the raw outgoing mass whenever
    it had to be renormalized to 1.
    """
    acc: dict[tuple, tuple[dict, float]] = {}
    env = dict(constants)
    env.update(valuation)
    for cmd in commands:
        g = eval_expr(cmd.guard, env)
        if not isinstance(g, bool):
            raise TypeMismatch("command guard is not boolean")
        if not g:
            continue
        for w, upd in cmd.alts:
            wv = eval_weight(w, constants)
            if wv == 0.0:
                continue
            nxt = apply_assignments(upd, valuation, decl_of, constants)
            k = tuple(nxt[n] for n in var_names)
            prev = acc.get(k)
            acc[k] = (nxt, wv if prev is None else prev[1] + wv)
    moves = [(v, w) for v, w in acc.values() if w != 0.0]
    renormalized_from = None
    if kind == "dtmc":
        if not moves:
            moves = [(dict(valuation), 1.0)]
        else:
            mass = sum(w for _, w in moves)
            if abs(mass - 1.0) > 1e-9:
                renormalized_from = mass
                moves = [(v, w / mass) for v, w in moves]
    return moves, renormalized_from


def step_network(
    net: Network, valuation: dict, kind: str, constants: dict
) -> list[tuple[dict, float]]:
    """Successor distribution of the whole network from one valuation."""
    decls = {d.name: d for d in network_var_decls(net)}
    moves, _ = oracle_step(
        derive_commands(net), valuation, kind, decl_lookup(decls), constants, tuple(decls)
    )
    return moves


def oracle_chain(
    net: Network,
    kind: str,
    constants: dict,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    init_overrides: dict | None = None,
) -> MarkovChain:
    """The network's chain built with :func:`oracle_step`: what
    ``build_network_chain`` must return, state numbering, bit-exact weights
    and findings included."""
    decls_list = network_var_decls(net)
    decls = {d.name: d for d in decls_list}
    var_names = tuple(d.name for d in decls_list)
    decl_of = decl_lookup(decls)
    commands = derive_commands(net)
    init = override_initial(decls_list, init_overrides)
    findings: list[str] = []

    def successors(row):
        valuation = dict(zip(var_names, row))
        try:
            moves, renorm = oracle_step(commands, valuation, kind, decl_of, constants, var_names)
        except (EvalError, RangeViolation) as e:
            raise at_state(e, var_names, row)
        if renorm is not None and not findings:
            where = ",".join(f"{n}={render_value(v)}" for n, v in zip(var_names, row))
            findings.append(
                f"dtmc_renormalized: outgoing probability mass {renorm:.10g} at state {where}"
            )
        return [(tuple(v[n] for n in var_names), w) for v, w in moves]

    states, edges = explore(tuple(init[n] for n in var_names), successors, max_states)
    return MarkovChain(kind, var_names, states, 0, edges, findings)


# ---------------------------------------------------------------------------
# hand-written networks
# ---------------------------------------------------------------------------


def eq(name: str, v: int) -> Binary:
    return Binary("=", Var(name), Lit(v))


def racing_pair() -> list[PrismModule]:
    """Two modules with one independent move each, plus a shared label.

    The interesting state is the initial one, where both silent moves and
    the synchronized move race; in discrete mode the outgoing mass is 3 and
    has to be renormalized.
    """
    p = PrismModule(
        "p",
        (VarDecl("x", "p", 0, 0, 1),),
        (
            PrismCommand(None, eq("x", 0), ((Lit(1), (Assign("x", Lit(1)),)),)),
            PrismCommand(
                "a",
                Binary("<", Var("y"), Lit(1)),
                (
                    (Lit(0.4), (Assign("x", Binary("+", Var("x"), Lit(1))),)),
                    (Lit(0.6), (Assign("x", Var("x")),)),
                ),
            ),
        ),
    )
    q = PrismModule(
        "q",
        (VarDecl("y", "q", 0, 0, 1),),
        (
            PrismCommand(None, eq("y", 0), ((Lit(1), (Assign("y", Lit(1)),)),)),
            PrismCommand(
                "a",
                Binary("<", Var("x"), Lit(1)),
                (
                    (Lit(0.5), (Assign("y", Binary("+", Var("y"), Lit(1))),)),
                    (Lit(0.5), (Assign("y", Var("y")),)),
                ),
            ),
        ),
    )
    return [p, q]


def synced_pair() -> tuple[list[PrismModule], dict[str, float]]:
    """Two counter-driven modules that synchronize on both of their labels.

    This is the compiled form of the recursive two-branch exchange, written
    out by hand: each role moves its own counter, carries its own variable
    update, and resets silently afterwards.
    """
    constants = {"mu1": 2.0, "mu2": 3.0, "gamma1": 1.0, "gamma2": 1.0}
    p = PrismModule(
        "p",
        (VarDecl("s_p", "p", 0, 0, 2), VarDecl("x", "p", 0, 0, 3)),
        (
            PrismCommand(
                "a",
                eq("s_p", 0),
                ((Var("mu1"), (Assign("x", Lit(1)), Assign("s_p", Lit(1)))),),
            ),
            PrismCommand(None, eq("s_p", 1), ((Lit(1), (Assign("s_p", Lit(0)),)),)),
            PrismCommand(
                "b",
                eq("s_p", 0),
                ((Var("mu2"), (Assign("x", Lit(3)), Assign("s_p", Lit(2)))),),
            ),
            PrismCommand(None, eq("s_p", 2), ((Lit(1), (Assign("s_p", Lit(0)),)),)),
        ),
    )
    q = PrismModule(
        "q",
        (VarDecl("s_q", "q", 0, 0, 2), VarDecl("y", "q", 0, 0, 2)),
        (
            PrismCommand(
                "a",
                eq("s_q", 0),
                ((Var("gamma1"), (Assign("y", Lit(2)), Assign("s_q", Lit(1)))),),
            ),
            PrismCommand(None, eq("s_q", 1), ((Lit(1), (Assign("s_q", Lit(0)),)),)),
            PrismCommand(
                "b",
                eq("s_q", 0),
                ((Var("gamma2"), (Assign("y", Lit(1)), Assign("s_q", Lit(2)))),),
            ),
            PrismCommand(None, eq("s_q", 2), ((Lit(1), (Assign("s_q", Lit(0)),)),)),
        ),
    )
    return [p, q], constants
