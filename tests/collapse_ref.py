"""The collapse that ``chorprism.equivalence.collapse`` is compared against:
the same contraction, with its pending states resolved in forward state
order, pass after pass, until a pass resolves none. The normal forms are
the least fixpoint of the rule, so the order of the passes must not change
them."""

from __future__ import annotations

from chorprism.chain import MarkovChain
from chorprism.semantics import TOL


def collapse(chain: MarkovChain, obs_names: tuple[str, ...]) -> MarkovChain:
    """Contract administrative moves (weight 1, observation unchanged), in
    one pass over the chain's own edges.

    A state is contracted only when every outgoing edge is administrative
    and all successors normalize to a single common state; diamonds of
    interleaved administrative moves therefore fold into their join, while
    genuine branching (or administrative cycles) is kept. The pass is not
    idempotent and must stay one pass: moves into states with one normal
    form merge into one edge, and a second pass would read two merged
    moves of weight 0.5 as one weight-1 bookkeeping move (README caveat 3).
    """
    obs = chain.observations(obs_names)  # equal observations are one object

    # contractible: every move is administrative (weight 1, observation kept)
    contractible = []
    for succ, o in zip(chain.edges, obs):
        admin = bool(succ)
        for y, w in succ.items():
            if abs(w - 1.0) > TOL or obs[y] is not o:
                admin = False
                break
        contractible.append(admin)
    # the normal form of each state, None while it is pending
    nf: list[int | None] = [None if c else x for x, c in enumerate(contractible)]
    pending = [x for x, c in enumerate(contractible) if c]
    progress = True
    while progress and pending:
        progress = False
        still = []
        for x in pending:
            targets = set()
            for y in chain.edges[x]:
                r = nf[y]
                if r is None:
                    targets = None
                    break
                targets.add(r)
            if targets is None:
                still.append(x)
            else:
                nf[x] = targets.pop() if len(targets) == 1 else x
                progress = True
        pending = still
    for x in pending:  # administrative cycles: every member stays
        nf[x] = x

    # number the normal forms breadth-first from the initial state's, each
    # edge into its target's normal form, a first weight stored as it is
    # and later ones added in edge order
    start = nf[chain.init]
    ids: list[int | None] = [None] * len(nf)
    ids[start] = 0
    order = [start]
    edges = []
    for x in order:  # grows as normal forms are reached
        row: dict[int, float] = {}
        for y, w in chain.edges[x].items():
            r = nf[y]
            dst = ids[r]
            if dst is None:
                dst = ids[r] = len(order)
                order.append(r)
            row[dst] = row[dst] + w if dst in row else w
        edges.append(row)
    return MarkovChain(
        chain.kind,
        chain.var_names,
        [chain.states[x] for x in order],
        0,
        edges,
        list(chain.findings),
    )
