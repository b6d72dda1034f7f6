"""Guarded-command networks in the PRISM style.

A network is the tuple of its modules in composition order. As in PRISM's
default parallel composition, each module synchronizes with the modules
before it on the labels they share. The semantics of a network is obtained
by flattening it into a single list of commands (synchronized pairs are
combined into product commands) and exploring the induced Markov chain over
the joint valuation of all module variables.

Updates inside a single alternative apply left to right, each assignment
seeing the effect of the previous one — the same discipline the source
language uses, which is what makes the two chains comparable.

Exploration compiles the derived commands once per network into the
commands of one module. Guards and updates become closures over state
tuples (one slot per variable), in which a named constant reads like a
literal. A weight reads the constants alone, so each alternative's weight
is evaluated once, when the module is compiled: an alternative of weight 0
is dropped there, and a negative or non-finite weight raises there. A
literal assignment stores its checked value without a call.
``and`` and ``or`` stop at a left operand that decides the result, so a
guard that starts with ``var = literal`` tests is false without evaluating
anything else wherever one of them is false. The slots that some command
tests in its leftmost conjunct — for projected networks, the roles' program
counters — index the commands: a command is filed under the values of its
leading run of tests of index slots, one table per tuple of those slots, so
the commands of a counter tuple (one value per index slot) are one lookup
per table, and a state evaluates, in derivation order, only those commands,
each with just the rest of its guard (none for a projected command guarded
by counters alone). :func:`explore_module` is the breadth-first loop that
numbers states in the order they are first reached. Per state one loop
applies the moves of those commands and writes each weight into the row,
adding the weights of moves into one state; in discrete mode the row is
then divided by its mass where commands race. In discrete mode, a counter
tuple's moves are planned when it is first reached, if none of its
commands keeps a guard and no two of its moves can land on one state: each
move's last assignment to every index slot is a literal (or it leaves the
slot alone), and the counter tuples the moves land on differ pairwise,
whatever the rest of the state. A plan is one candidate with no guard whose
alternatives are all those moves, in derivation order, their weights
already divided by their mass, so no state with the tuple is divided again.
The source semantics explores its one-module lowering of the choreography
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from operator import itemgetter

from .chain import MarkovChain, render_weight, valuation_text
from .errors import ChorError, EvalError, RangeViolation, StateBudgetExceeded, TypeMismatch
from .parser import expr_to_str
from .semantics import (
    DEFAULT_MAX_STATES,
    SHORT_CIRCUIT,
    STATE_OPS,
    TOL,
    apply_unary,
    assigned_value,
    eval_weight,
    override_initial,
)
from .syntax import Assign, Binary, Expr, Lit, Unary, Var, VarDecl, times

#: one probabilistic alternative of a command: (weight, assignments)
Alt = tuple[Expr, tuple[Assign, ...]]


@dataclass(slots=True, unsafe_hash=True)
class PrismCommand:
    """A guarded command ``[label] guard -> w1:u1 + w2:u2 + ...``.

    ``label`` is ``None`` for a silent command that never synchronizes.
    Weights stay symbolic so emitted models keep their named constants.
    """

    label: str | None
    guard: Expr
    alts: tuple[Alt, ...]


@dataclass(slots=True, unsafe_hash=True)
class PrismModule:
    name: str
    var_decls: tuple[VarDecl, ...]
    commands: tuple[PrismCommand, ...]


#: the modules, in composition order
Network = tuple[PrismModule, ...]


def network_modules(net: Network) -> list[PrismModule]:
    """Modules of the network, left to right."""
    return list(net)


def network_var_decls(net: Network) -> tuple[VarDecl, ...]:
    return tuple(d for m in net for d in m.var_decls)


def alphabet(net: Network) -> frozenset[str]:
    """All synchronization labels occurring in the network."""
    return frozenset(c.label for m in net for c in m.commands if c.label is not None)


def _by_label(cmds, labels: set[str]) -> dict[str, list[PrismCommand]]:
    out: dict[str, list[PrismCommand]] = {}
    for c in cmds:
        if c.label in labels:
            out.setdefault(c.label, []).append(c)
    return out


def derive_commands(net: Network) -> tuple[PrismCommand, ...]:
    """Flatten the network into the commands of an equivalent single module.

    The modules are folded in left to right. Each one synchronizes with the
    commands derived so far on the labels it shares with the modules before
    it. Silent commands and unshared labels pass through untouched, the
    derived side first; for each shared label, in sorted order, every pair
    of commands (one per side) combines into one command whose guard is the
    conjunction, and whose alternatives are the cross product with
    multiplied weights and concatenated updates (derived side first).
    """
    out: list[PrismCommand] = []
    seen: set[str] = set()
    for m in net:
        labels = alphabet((m,))
        sync = seen & labels
        seen |= labels
        left_by_label = _by_label(out, sync)
        right_by_label = _by_label(m.commands, sync)
        out = [c for c in out if c.label not in sync]
        out.extend(c for c in m.commands if c.label not in sync)
        for label in sorted(sync):
            for cl in left_by_label[label]:
                for cr in right_by_label[label]:
                    alts = tuple(
                        (times(wl, wr), ul + ur)
                        for wl, ul in cl.alts
                        for wr, ur in cr.alts
                    )
                    out.append(PrismCommand(label, Binary("and", cl.guard, cr.guard), alts))
    return tuple(out)


# ---------------------------------------------------------------------------
# compiled commands
# ---------------------------------------------------------------------------

def _closure(e: Expr, slot_of: dict[str, int], constants: dict):
    """A function from a state row (tuple or list, one slot per variable)
    to the value of ``e``. A name that is no variable reads ``constants``,
    as a literal reads its value."""
    if isinstance(e, Var):
        slot = slot_of.get(e.name)
        if slot is not None:
            return itemgetter(slot)
        if e.name not in constants:
            message = f"unbound name {e.name}"

            def unbound(row):
                raise EvalError(message)

            return unbound
        e = Lit(constants[e.name])
    if isinstance(e, Lit):
        value = e.value
        return lambda row: value
    if isinstance(e, Unary):
        op, operand = e.op, _closure(e.operand, slot_of, constants)
        return lambda row: apply_unary(op, operand(row))
    left, right = _closure(e.left, slot_of, constants), _closure(e.right, slot_of, constants)
    fn = STATE_OPS.get(e.op)
    if fn is None:
        message = f"unknown operator {e.op}"

        def unknown(row):
            left(row), right(row)
            raise EvalError(message)

        return unknown
    decided = SHORT_CIRCUIT.get(e.op)
    if decided is not None:
        def lazy(row):
            value = left(row)
            return value if value is decided else fn(value, right(row))

        return lazy
    if isinstance(e.right, Lit):
        value = e.right.value
        return lambda row: fn(left(row), value)
    return lambda row: fn(left(row), right(row))


def _assignment(a: Assign, slot_of: dict[str, int], decls: dict[str, VarDecl], constants):
    """``(slot, value, value_fn)`` for one assignment: ``value`` is the
    checked value to store in ``slot`` when the right-hand side is a
    literal; otherwise ``value_fn`` maps the row being updated to that
    value."""
    decl = decls.get(a.var)
    if decl is not None and isinstance(a.expr, Lit):
        try:
            return slot_of[a.var], assigned_value(a, decl, a.expr.value), None
        except ChorError:
            pass  # raise on reaching it, as the tree-walker does
    fn = _closure(a.expr, slot_of, constants)
    if decl is None:
        message = f"assignment to undeclared variable {a.var}"

        def undeclared(row):
            fn(row)
            raise EvalError(message)

        return None, None, undeclared
    lo, hi = (1, 0) if decl.is_bool else (decl.lo, decl.hi)  # no int passes for a bool

    def checked(row):  # an int in range is stored as it is
        v = fn(row)
        return v if type(v) is int and lo <= v <= hi else assigned_value(a, decl, v)

    return slot_of[a.var], None, checked


def _weight(w: Expr, constants: dict) -> float:
    """The value of the weight ``w``, which must be finite and not negative."""
    value = eval_weight(w, constants)
    if not 0 <= value < inf:
        raise EvalError(f"{'negative' if value < 0 else 'non-finite'} weight {expr_to_str(w)}")
    return value


def _update(update: tuple[Assign, ...], slot_of, decls, constants):
    """A function from a state tuple to the state tuple after ``update``,
    applied left to right with every assignment seeing the previous ones,
    and per slot assigned the value its last assignment stores, None where
    that value is computed."""
    steps = [_assignment(a, slot_of, decls, constants) for a in update]

    def apply(row: tuple) -> tuple:
        cur = list(row)
        for slot, value, fn in steps:
            cur[slot] = value if fn is None else fn(cur)
        return tuple(cur)

    return apply, {slot: value for slot, value, _ in steps}


def split_tests(guard: Expr) -> tuple[list[Binary], list[Expr]]:
    """The conjuncts of ``guard`` along its left spine, split into their
    leading run of ``var = literal`` tests and the rest; ``guard`` is the
    first conjunct and-ed with each later one in turn. Where a leading test
    is false, the guard is false without evaluating anything after it."""
    tests, rest = [], []
    if isinstance(guard, Binary) and guard.op == "and":
        tests, rest = split_tests(guard.left)
        guard = guard.right
    if (not rest and isinstance(guard, Binary) and guard.op == "="
            and isinstance(guard.left, Var) and isinstance(guard.right, Lit)):
        tests.append(guard)
    else:
        rest.append(guard)
    return tests, rest


def _commands(module: PrismModule, constants: dict, slot_of: dict[str, int]):
    """The index slots of the module's compiled commands, and a function from
    a state tuple to the commands its counter tuple leaves to evaluate: per
    command, the closure of its guard less the tests decided per counter
    tuple (None if nothing is left), and a (weight, update function, last
    assignments) triple per alternative of non-zero weight (:func:`_update`)."""
    decls = {d.name: d for d in module.var_decls}
    split = [split_tests(c.guard) for c in module.commands]
    # the index slots: those some command tests in its leftmost conjunct
    index = dict.fromkeys(
        slot_of[t[0].left.name] for t, _ in split if t and t[0].left.name in slot_of)
    compiled: list[tuple] = []
    always: list[int] = []
    # per tuple of held slots, the commands filed under each tuple of values
    tables: dict[tuple[int, ...], dict[object, list[int]]] = {}
    for i, (cmd, (tests, rest)) in enumerate(zip(module.commands, split)):
        # the leading tests of index slots are held; where they all hold,
        # the guard is true and-ed with the rest
        held = 0
        while held < len(tests) and slot_of.get(tests[held].left.name) in index:
            held += 1
        rest = tests[held:] + rest
        guard = Lit(True) if held else rest.pop(0)
        for c in rest:
            guard = Binary("and", guard, c)
        weighed = [(_weight(w, constants), u) for w, u in cmd.alts]
        alts = [(w, *_update(u, slot_of, decls, constants)) for w, u in weighed if w != 0.0]
        compiled.append((None if held and not rest else _closure(guard, slot_of, constants), alts))
        if held:  # filed under its tested values, keyed as itemgetter(*slots) reads a row
            slots, values = zip(*((slot_of[t.left.name], t.right.value) for t in tests[:held]))
            table = tables.setdefault(slots, {})
            table.setdefault(values if held > 1 else values[0], []).append(i)
        else:
            always.append(i)
    lookups = [(itemgetter(*slots), table) for slots, table in tables.items()]

    def candidates(row: tuple) -> list[tuple]:
        picked = list(always)
        for key, table in lookups:
            picked.extend(table.get(key(row), ()))
        picked.sort()
        return [compiled[i] for i in picked]

    return tuple(index), candidates


def explore_module(
    module: PrismModule, kind: str, constants: dict, init: tuple, max_states: int
) -> MarkovChain:
    """Breadth-first exploration of the module's chain from the state tuple
    ``init``, one slot per variable in declaration order, numbering states
    and filling rows as :func:`chain.explore` does: moves into one state add
    up. In discrete mode a state with no move loops to itself, and where
    commands race its mass is renormalized to 1 and the first such state is
    reported in the findings. The state budget is checked once a state's
    moves are all applied, so an error that a later move of the state meets
    wins over it, as in the tree-walking references."""
    var_names = tuple(d.name for d in module.var_decls)
    slots, candidates = _commands(module, constants, {n: i for i, n in enumerate(var_names)})
    if max_states < 1:
        raise StateBudgetExceeded(max_states)
    row = init  # the state being explored

    def explore() -> MarkovChain:
        nonlocal row
        # the candidates depend only on the counter tuple, so they are
        # worked out once per counter tuple
        indexed = itemgetter(*slots) if slots else (lambda row: ())
        by_indexed: dict[object, tuple] = {}  # per counter tuple: (candidates, divided)
        findings: list[str] = []

        def renormalized(mass: float, row: tuple) -> None:
            if not findings:
                findings.append(f"dtmc_renormalized: outgoing probability mass "
                                f"{render_weight(mass)} at state {valuation_text(var_names, row)}")

        def plan(found: list[tuple], row: tuple) -> tuple[list, bool]:
            """The candidates of ``row``'s counter tuple and whether their
            weights are divided already: in discrete mode one unguarded
            candidate with every move, in derivation order, weights divided
            by their mass, unless a candidate keeps a guard, no move is
            left, or two moves might land on one state (module docstring)."""
            if kind != "dtmc" or any(guard is not None for guard, _ in found):
                return found, False
            moves = [alt for _, alts in found for alt in alts]
            ends = {tuple(last.get(s, row[s]) for s in slots) for _, _, last in moves}
            if not moves or len(ends) < len(moves) or any(None in end for end in ends):
                return found, False
            mass = sum(w for w, _, _ in moves)
            if abs(mass - 1.0) > TOL:
                moves = [(w / mass, u, last) for w, u, last in moves]
                renormalized(mass, row)
            return [(None, moves)], True

        number = {init: 0}
        states = [init]
        edges: list[dict[int, float]] = [{}]
        for row, out in zip(states, edges):  # both lists grow as states are found
            memo = by_indexed.get(key := indexed(row))
            if memo is None:
                memo = by_indexed[key] = plan(candidates(row), row)
            found, divided = memo
            for guard, alts in found:
                if guard is not None:
                    g = guard(row)
                    if g is not True:
                        if g is False:
                            continue
                        raise TypeMismatch("command guard is not boolean")
                for w, update, _ in alts:
                    nxt = update(row)
                    dst = number.get(nxt)
                    if dst is None:
                        dst = number[nxt] = len(states)
                        states.append(nxt)
                        edges.append({})
                    out[dst] = out[dst] + w if dst in out else w
            if kind == "dtmc" and not divided:
                if not out:
                    out[number[row]] = 1.0
                elif abs((mass := sum(out.values())) - 1.0) > TOL:
                    for dst in out:
                        out[dst] /= mass
                    renormalized(mass, row)
            if len(states) > max_states:
                raise StateBudgetExceeded(max_states)
        return MarkovChain(kind, var_names, states, 0, edges, findings)

    # The handler stays in this short function, apart from the loop: with it
    # in the loop's own function, runs whose memory ran out inside the loop
    # were seen to spin without end in CPython 3.11, in the handler, where
    # they should raise MemoryError.
    try:
        return explore()
    except (EvalError, RangeViolation) as e:
        e.args = (f"{e} at state {valuation_text(var_names, row)}",)
        raise


def build_network_chain(
    net: Network,
    kind: str,
    constants: dict,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    init_overrides: dict | None = None,
) -> MarkovChain:
    """Breadth-first exploration of the network's joint state space: the
    chain of the single module :func:`derive_commands` flattens it into.

    State variables are ordered module by module, declaration order within
    each. In discrete mode, command races can push the outgoing mass of a
    state past 1; the distribution is renormalized and the first occurrence
    is reported in the chain's findings.
    """
    decls = network_var_decls(net)
    init = override_initial(decls, init_overrides)
    module = PrismModule("network", decls, derive_commands(net))
    return explore_module(
        module, kind, constants, tuple(init[d.name] for d in decls), max_states
    )
