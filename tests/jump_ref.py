"""The reference discrete jump chain that ``chorprism.equivalence.jump_chain``
is compared against: every undirected group of states joined by
observation-preserving edges is solved over the whole chain, and
:func:`reachable` then cuts the result to what the initial state reaches.
``trimmed_jump_chain`` is the two in sequence, the chain ``verify`` compares.
"""

from __future__ import annotations

import numpy as np

from chorprism.chain import MarkovChain, explore
from chorprism.equivalence import TOL
from chorprism.errors import StutterGroupTooLarge

# Largest group of states this reference hands to its dense solve
MAX_DENSE_GROUP = 3000


def jump_chain(chain: MarkovChain, obs_names: tuple[str, ...]) -> MarkovChain:
    """Replace each state's one-step distribution with the distribution of
    where the first observation-changing move lands.

    Within each group of states connected by observation-preserving edges
    the jump probabilities solve (I - P)X = B, restricted to states that
    can actually reach an observation change; the remaining probability
    mass (never changing the observation) sits on a self-loop, a slot no
    genuine jump can occupy.
    """
    n = chain.num_states
    obs = chain.observations(obs_names)
    stutter: list[dict[int, float]] = []
    exits: list[dict[int, float]] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    preds: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        ox = obs[x]
        stay: dict[int, float] = {}
        leave: dict[int, float] = {}
        for y, w in chain.edges[x].items():
            if obs[y] != ox:
                leave[y] = w
                continue
            stay[y] = w
            if y != x:
                adj[x].append(y)
                adj[y].append(x)
                preds[y].append(x)
        stutter.append(stay)
        exits.append(leave)
    comp = [-1] * n
    groups: list[list[int]] = []
    for s in range(n):
        if comp[s] != -1:
            continue
        members = [s]
        comp[s] = len(groups)
        qi = 0
        while qi < len(members):
            for y in adj[members[qi]]:
                if comp[y] == -1:
                    comp[y] = len(groups)
                    members.append(y)
            qi += 1
        groups.append(members)

    # states with a stutter path to an observation change: one backward
    # search from every state that has an exit
    can = [bool(e) for e in exits]
    frontier = [x for x in range(n) if can[x]]
    for x in frontier:
        for y in preds[x]:
            if not can[y]:
                can[y] = True
                frontier.append(y)

    # a state with no such path diverges inside its observation
    new_edges = [{} if can[x] else {x: 1.0} for x in range(n)]
    for members in groups:
        solvable = [x for x in members if can[x]]
        if not solvable:
            continue
        if len(solvable) > MAX_DENSE_GROUP:
            raise StutterGroupTooLarge(
                len(solvable), MAX_DENSE_GROUP, "the dense-solve limit of {} states")
        pos = {x: i for i, x in enumerate(solvable)}
        targets = sorted({t for x in solvable for t in exits[x]})
        tpos = {t: j for j, t in enumerate(targets)}
        P = np.zeros((len(solvable), len(solvable)))
        B = np.zeros((len(solvable), len(targets)))
        for i, x in enumerate(solvable):
            for y, w in stutter[x].items():
                j = pos.get(y)
                if j is not None:
                    P[i, j] += w
            for t, w in exits[x].items():
                B[i, tpos[t]] += w
        X = np.linalg.solve(np.eye(len(solvable)) - P, B)
        for i, x in enumerate(solvable):
            total = 0.0
            for j, t in enumerate(targets):
                v = float(X[i, j])
                if v > 1e-12:
                    new_edges[x][t] = new_edges[x].get(t, 0.0) + v
                    total += v
            if total < 1.0 - TOL:
                new_edges[x][x] = new_edges[x].get(x, 0.0) + (1.0 - total)

    return MarkovChain(
        "dtmc",
        chain.var_names,
        list(chain.states),
        chain.init,
        new_edges,
        list(chain.findings),
    )


def reachable(chain: MarkovChain) -> MarkovChain:
    """The part of ``chain`` its initial state reaches, renumbered in
    breadth-first order. Every row keeps its edge order and weights."""
    edges = chain.edges
    order, trimmed = explore(chain.init, lambda x: edges[x].items(), chain.num_states)
    return MarkovChain(
        chain.kind,
        chain.var_names,
        [chain.states[x] for x in order],
        0,
        trimmed,
        list(chain.findings),
    )


def trimmed_jump_chain(chain: MarkovChain, obs_names: tuple[str, ...]) -> MarkovChain:
    return reachable(jump_chain(chain, obs_names))
