"""Explicit-state Markov chains, their exploration and export formats.

Both the choreography semantics and the network semantics produce values of
:class:`MarkovChain`, through the compiled loop of
:func:`chorprism.prism.explore_module`; jump chains are explored by the
generic breadth-first :func:`explore`, which numbers states and fills rows
the same way. The equivalence checker compares chains structurally, so the
container is deliberately plain: integer state ids, valuation tuples, and
per-state weight maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Hashable, Iterable

from .errors import StateBudgetExceeded
from .syntax import render_value

#: the source chain's hidden program counter; not a name the parser accepts
PC = "#pc"


def valuation_text(names: Iterable[str], values: Iterable) -> str:
    """``name=value,…`` in source syntax, the hidden counter :data:`PC`
    left out."""
    return ",".join(f"{n}={render_value(v)}" for n, v in zip(names, values) if n != PC)


def render_weight(w: float) -> str:
    return f"{w:.10g}"


@dataclass
class MarkovChain:
    kind: str  # "ctmc" or "dtmc"
    var_names: tuple[str, ...]
    states: list[tuple]  # state id -> valuation tuple, aligned with var_names
    init: int
    edges: list[dict[int, float]]  # state id -> {successor: weight}
    findings: list[str] = field(default_factory=list)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return sum(len(e) for e in self.edges)

    def valuation_str(self, sid: int) -> str:
        return valuation_text(self.var_names, self.states[sid])

    def observation(self, sid: int, names: tuple[str, ...]) -> tuple:
        """Valuation restricted to ``names`` (the observable variables)."""
        pos = [self.var_names.index(n) for n in names]
        row = self.states[sid]
        return tuple(row[p] for p in pos)

    def observations(self, names: tuple[str, ...]) -> list[tuple]:
        """:meth:`observation` of every state, in state order; equal
        observations are one tuple object."""
        if not names:
            return [()] * len(self.states)
        columns = (map(itemgetter(self.var_names.index(n)), self.states) for n in names)
        shared: dict[tuple, tuple] = {}
        return [shared.setdefault(o, o) for o in zip(*columns)]

    def to_text(self) -> str:
        lines = [f"# {self.kind} {self.num_states} states {self.num_transitions} transitions"]
        for sid in range(self.num_states):
            tag = " init" if sid == self.init else ""
            lines.append(f"STATE {sid} {self.valuation_str(sid)}{tag}")
        for src, succ in enumerate(self.edges):
            for dst in sorted(succ):
                lines.append(f"TRANS {src} {dst} {render_weight(succ[dst])}")
        return "\n".join(lines) + "\n"

    def to_dot(self) -> str:
        lines = ["digraph chain {", "  rankdir=LR;", "  node [shape=circle];"]
        for sid in range(self.num_states):
            shape = ", shape=doublecircle" if sid == self.init else ""
            lines.append(f'  s{sid} [label="{self.valuation_str(sid)}"{shape}];')
        for src, succ in enumerate(self.edges):
            for dst in sorted(succ):
                lines.append(
                    f'  s{src} -> s{dst} [label="{render_weight(succ[dst])}"];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


Successors = Callable[[Hashable], Iterable[tuple[Hashable, float]]]


def explore(
    init: Hashable, successors: Successors, max_states: int
) -> tuple[list[Hashable], list[dict[int, float]]]:
    """Breadth-first exploration from ``init``.

    ``successors(key)`` yields ``(key, weight)`` moves; states are numbered
    in the order they are first reached. A row stores the first weight of a
    move into a state as yielded, the same object, and adds later ones to it
    in the order they are yielded. Returns the state keys and the per-state
    successor weight maps. Raises StateBudgetExceeded once a state's moves
    are applied, if more than ``max_states`` states are numbered, as
    :func:`chorprism.prism.explore_module` does.
    """
    if max_states < 1:
        raise StateBudgetExceeded(max_states)
    index: dict = {init: 0}
    keys: list = [init]
    edges: list[dict[int, float]] = [{}]
    for key, row in zip(keys, edges):  # both lists grow as states are found
        for k, w in successors(key):
            dst = index.get(k)
            if dst is None:
                dst = index[k] = len(keys)
                keys.append(k)
                edges.append({})
            row[dst] = row[dst] + w if dst in row else w
        if len(keys) > max_states:
            raise StateBudgetExceeded(max_states)
    return keys, edges

