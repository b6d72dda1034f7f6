"""Machine-check that a compiled network behaves like its source program.

The two chains are never equal on the nose: the network takes extra
administrative steps (counter resets after a call, the per-role bookkeeping
of a decision) that the source takes as one move or none. The comparison
therefore runs in three stages:

1. collapse — contract runs of administrative moves: a state whose outgoing
   edges all have weight 1 and change no observable variable, and whose
   successors all contract to one common state, is replaced by that state.
2. (discrete only) jump chains — replace each state's distribution with the
   distribution over where the *first observation-changing* move lands;
   probability of never changing the observation becomes a self-loop.
   The jump chain is explored from the initial state, so interior states of
   a stutter run never enter it; each state's row is solved once, one
   strongly connected component of stutter moves at a time, a cycle by
   sparse Gaussian elimination in minimum-degree order, in pure Python,
   within a bound on the entries it adds and one on its multiply-adds.
3. partition-refinement bisimulation on the disjoint union, starting from
   observation equality, in rounds that re-sign only the blocks a split can
   reach. In continuous mode the refinement ignores each state's rate into
   its own class (ordinary lumpability), which is what tolerates
   pending-reset interleavings that merely reshuffle inside a class; in
   discrete mode the jump chains are compared in full.

Observable means: the program's declared variables. Counters are invisible.
"""

from __future__ import annotations

import heapq

from .analysis import s_conn
from .chain import MarkovChain, explore, render_weight, valuation_text
from .errors import NotStronglyConnected, StutterGroupTooLarge
from .prism import build_network_chain
from .projection import project
from .semantics import DEFAULT_MAX_STATES, TOL, build_chain
from .sugar import auto_annotate
from .syntax import ChorProgram

# Most entries a stutter cycle's elimination may add (fill-in), which can
# make rows dense, and most multiply-adds its solve may take, which also
# bounds the entries of its exit rows; its member count is not bounded.
# A walk adds up at most MAX_FILL_IN entries of solved rows beyond one a state.
# On a 2-vCPU virtual machine a ring of 100,000 members solves in 1 s and
# a 53x53 torus (100,488 entries, 3.9 million multiply-adds) in 0.6 s. A
# 14x14x14 torus and a random cycle of 2,900 members with three moves each
# pass the fill-in bound within 0.5 s (their solve would take about 30 s);
# a cycle of 400 members each moving to every other, and a ring of 4,000
# each leaving to a state of its own, pass the work bound within 1 s.
MAX_FILL_IN = 200_000
MAX_SOLVE_WORK = 5_000_000


# ---------------------------------------------------------------------------
# stage 1: administrative-step collapse
# ---------------------------------------------------------------------------

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
    pending = [x for x in reversed(range(len(nf))) if contractible[x]]  # successors first
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


# ---------------------------------------------------------------------------
# stage 2 (discrete): first-observable-move jump chains
# ---------------------------------------------------------------------------

def jump_chain(chain: MarkovChain, obs_names: tuple[str, ...]) -> MarkovChain:
    """Replace each state's one-step distribution with the distribution of
    where the first observation-changing move lands, for the states the
    initial state reaches, numbered breadth-first.

    A state's exit row, the mass it takes to each observation change,
    depends only on the states it reaches by stutter moves (moves that keep
    its observation). The first time a state without a row is reached, one
    iterative Tarjan walk over stutter moves gives it and every state it
    stutters to a row. The walk finishes strongly connected components
    sinks first, so each component is solved once, from the rows of the
    components below it: a single state by adding up, a larger one by
    eliminating its members one at a time, raising StutterGroupTooLarge past
    MAX_FILL_IN added entries or MAX_SOLVE_WORK multiply-adds, as does a
    walk that adds up MAX_FILL_IN entries of solved rows, one per state it
    visits aside. The mass a state cannot take to an observation change (it
    diverges) sits on a self-loop, a slot no genuine jump can occupy. A
    state whose one move is a weight-1 stutter move to a state with a row
    shares that row, since no row changes once it is stored.
    """
    obs = chain.observations(obs_names)  # equal observations are one object
    edges = chain.edges
    # per state its exit row, before the 1e-12 cut, or None while it has none
    out: list[dict[int, float] | None] = [None] * len(edges)
    # per state its visit number in the walk that gave it a row: a walk reads
    # only states without a row, so never a number an earlier walk left
    num: list[int | None] = [None] * len(edges)

    def solve(parts: list[tuple[int, dict[int, float], list[tuple[int, float]]]]) -> None:
        """Exit rows of one component of several states, given per member
        its row through exits and solved successors, and its moves inside
        the component. Either every member reaches an exit or none does.

        Member k's row x_k solves x_k = row_k + sum_j w_kj x_j. Members are
        eliminated one at a time, the one with the fewest links to live
        members first: dividing by 1 - w_kk leaves x_k in terms of live
        members, which is substituted into each live predecessor's equation.
        Back-substitution in reverse elimination order then gives every row.
        """
        comp = [y for y, _, _ in parts]
        rows = [row for _, row, _ in parts]  # mutated into the solution
        if any(rows):
            n = len(comp)
            pos = {y: i for i, y in enumerate(comp)}
            stays = [{pos[z]: w for z, w in stay} for _, _, stay in parts]
            preds: list[set[int]] = [set() for _ in comp]  # live k != j moving to j
            for k, stay in enumerate(stays):
                for j in stay:
                    if j != k:
                        preds[j].add(k)

            def degree(k: int) -> int:  # links to live members
                return len(preds[k]) + len(stays[k])

            targets = len(set().union(*rows))  # no row ever holds more entries
            heap = [(degree(k), k) for k in range(n)]
            heapq.heapify(heap)
            done = [False] * n
            order = []
            fill = work = 0
            while heap:
                d, k = heapq.heappop(heap)
                if done[k] or d != degree(k):
                    continue  # an entry pushed before k's degree last changed
                done[k] = True
                order.append(k)
                row, stay = rows[k], stays[k]
                loop = stay.pop(k, 0.0)
                if loop:
                    keep = 1.0 - loop
                    if keep <= 0.0:  # the loop rounds to 1: divide by what leaves
                        keep = sum(row.values()) + sum(stay.values())
                    for t, v in row.items():
                        row[t] = v / keep
                    for j, w in stay.items():
                        stay[j] = w / keep
                for j in stay:
                    preds[j].discard(k)
                # the loop below, and at most this many to back-substitute k
                work += len(preds[k]) * (len(row) + len(stay)) + len(stay) * targets
                if work > MAX_SOLVE_WORK:
                    raise StutterGroupTooLarge(
                        n, MAX_SOLVE_WORK, "the work limit of {} multiply-adds in its solve")
                for p in preds[k]:
                    prow, pstay = rows[p], stays[p]
                    w = pstay.pop(k)
                    for t, v in row.items():
                        prow[t] = prow.get(t, 0.0) + w * v
                    for j, v in stay.items():
                        if j not in pstay and j != p:
                            preds[j].add(p)  # fill-in
                            fill += 1
                        pstay[j] = pstay.get(j, 0.0) + w * v
                if fill > MAX_FILL_IN:
                    raise StutterGroupTooLarge(
                        n, MAX_FILL_IN, "the fill-in limit of {} entries added by its solve")
                for j in preds[k] | stay.keys():
                    heapq.heappush(heap, (degree(j), j))
            for k in reversed(order):  # each stay names members eliminated later
                row = rows[k]
                for j, w in stays[k].items():
                    for t, v in rows[j].items():
                        row[t] = row.get(t, 0.0) + w * v
        for y, row in zip(comp, rows):
            out[y] = row

    def walk(root: int) -> None:
        """Give ``root``, and every state it reaches by stutter moves that
        has no row yet, its exit row."""
        num[root] = 0  # Tarjan's visit order and low links
        low = [0]
        parts = []  # finished states of components not yet solved
        added = 0  # entries added up from solved rows
        work = [(root, iter(edges[root]))]
        while work:
            y, it = work[-1]
            oy = obs[y]
            i = num[y]
            for z in it:
                if out[z] is not None or obs[z] is not oy:
                    continue
                k = num[z]
                if k is None:  # descend
                    num[z] = len(low)
                    low.append(len(low))
                    work.append((z, iter(edges[z])))
                    break
                if k < low[i]:  # z is in y's component
                    low[i] = k
            else:
                work.pop()
                if work:
                    p = num[work[-1][0]]
                    if low[i] < low[p]:
                        low[p] = low[i]
                # every stutter successor now has a row or shares y's component
                row: dict[int, float] = {}
                stay = []
                succ = edges[y]
                for z, w in succ.items():
                    solved = out[z]
                    if obs[z] is not oy:
                        row[z] = row[z] + w if z in row else w
                    elif solved is not None:
                        added += len(solved)
                        if added > MAX_FILL_IN + len(low):  # a run of one exit is free
                            raise StutterGroupTooLarge(len(low), MAX_FILL_IN,
                                "the limit of {} entries added along its stutter moves")
                        if w == 1.0 and len(succ) == 1:  # 0.0 + 1.0 * v is v
                            row = solved
                        else:
                            for t, v in solved.items():
                                row[t] = row.get(t, 0.0) + w * v
                    else:
                        stay.append((z, w))
                if low[i] != i:
                    parts.append((y, row, stay))
                elif not parts or num[parts[-1][0]] < i:  # y alone
                    if stay and row:  # stay is y's self-loop
                        keep = 1.0 - stay[0][1]
                        if keep <= 0.0:  # the loop rounds to 1: divide by what leaves
                            keep = sum(row.values())
                        row = {t: v / keep for t, v in row.items()}
                    out[y] = row
                else:  # y roots the component of the parts visited after it
                    at = len(parts)
                    while at and num[parts[at - 1][0]] > i:
                        at -= 1
                    parts.append((y, row, stay))
                    solve(parts[at:])
                    del parts[at:]

    def successors(x: int):
        if out[x] is None:
            walk(x)
        row: dict[int, float] = {}
        total = 0.0
        for t, v in sorted(out[x].items()):
            if v > 1e-12:
                row[t] = v
                total += v
        if total < 1.0 - TOL:
            row[x] = 1.0 - total
        return row.items()

    order, jumps = explore(chain.init, successors, chain.num_states)
    return MarkovChain(
        "dtmc",
        chain.var_names,
        [chain.states[x] for x in order],
        0,
        jumps,
        list(chain.findings),
    )


# ---------------------------------------------------------------------------
# stage 3: partition-refinement bisimulation
# ---------------------------------------------------------------------------

def _ignores_own_block(c1: MarkovChain, c2: MarkovChain) -> bool:
    """Whether refinement drops the weight a state sends into its own
    block: ordinary lumpability for rate chains, full comparison for
    probability chains."""
    if c1.kind != c2.kind:
        raise ValueError(f"cannot compare a {c1.kind} chain with a {c2.kind} chain")
    return c1.kind == "ctmc"


def _signature(
    row: dict[int, float], blocks: list[int], offset: int, own: int | None
) -> tuple[tuple[int, float], ...]:
    """The weight ``row`` sends into each block, rounded to 9 digits, as
    sorted (block, weight) pairs without zeros. The weight into block
    ``own`` is dropped (pass None to keep every block); ``offset`` shifts
    the row's state ids into the numbering of ``blocks``."""
    sums: dict[int, float] = {}
    for y, w in row.items():
        b = blocks[y + offset]
        sums[b] = sums[b] + w if b in sums else w
    sums.pop(own, None)
    sig = []
    for b, v in sorted(sums.items()):
        v = round(v, 9)
        if v != 0:
            sig.append((b, v))
    return tuple(sig)


def bisimilar(
    c1: MarkovChain, c2: MarkovChain, obs_names: tuple[str, ...]
) -> tuple[bool, list[int]]:
    """Refine the disjoint union of the two chains, starting from
    observation equality, until block-wise outgoing weights stabilize.

    Each round splits the blocks it signs by their states' signatures
    against the partition the round started from. The first round signs
    every block, a later one only the blocks of two or more states holding
    a predecessor of a state whose block just split: any other block's
    sums are over the same sets as when it last held together. For
    ``ctmc`` chains the weight a state sends into its own block is ignored
    (ordinary lumpability); ``dtmc`` chains are compared in full. Returns
    whether the two initial states share a block, plus the final block of
    every state (first chain's states first), numbered by first state.
    """
    ignore_own = _ignores_own_block(c1, c2)
    n1 = c1.num_states
    obs = c1.observations(obs_names)
    obs += c2.observations(obs_names)
    edges = c1.edges + c2.edges  # the second chain's ids are offset by n1

    keys: dict = {}
    blocks = [keys.setdefault(k, len(keys)) for k in obs]
    members: list[list[int]] = [[] for _ in keys]  # per block its states, in order
    for x, b in enumerate(blocks):
        members[b].append(x)
    preds: list[list[int]] | None = None  # built at the first split
    signed = range(len(members))
    while True:
        splits = []
        for b in signed:
            if len(members[b]) > 1:
                parts: dict = {}
                for x in members[b]:
                    sig = _signature(edges[x], blocks, 0 if x < n1 else n1,
                                     b if ignore_own else None)
                    parts.setdefault(sig, []).append(x)
                if len(parts) > 1:
                    splits.append((b, parts.values()))
        if not splits:
            break
        if preds is None:
            preds = [[] for _ in edges]
            for x, row in enumerate(edges):
                for y in row:
                    preds[y if x < n1 else y + n1].append(x)
        moved = []  # the states of every block that split
        for b, parts in splits:  # only now, so every signature read one partition
            moved += members[b]
            members[b], *rest = parts
            for part in rest:
                for x in part:
                    blocks[x] = len(members)
                members.append(part)
        signed = {blocks[p] for y in moved for p in preds[y]}

    ids: dict[int, int] = {}
    blocks = [ids.setdefault(b, len(ids)) for b in blocks]
    return blocks[c1.init] == blocks[n1 + c2.init], blocks


def _obs_text(obs: tuple, obs_names: tuple[str, ...]) -> str:
    return valuation_text(obs_names, obs) or "<empty>"


def explain_difference(
    c1: MarkovChain,
    c2: MarkovChain,
    blocks: list[int],
    obs_names: tuple[str, ...],
) -> str:
    """Human-readable reason the two initial states ended in different
    blocks of the final (stable) partition, weighed as :func:`bisimilar`
    weighs them for the chains' kind."""
    ignore_own = _ignores_own_block(c1, c2)
    n1 = c1.num_states
    obs = c1.observations(obs_names)
    obs += c2.observations(obs_names)
    o1 = obs[c1.init]
    o2 = obs[n1 + c2.init]
    if o1 != o2:
        return (
            f"initial states disagree on the observable variables: "
            f"source starts at {_obs_text(o1, obs_names)}, "
            f"network at {_obs_text(o2, obs_names)}"
        )

    def block_weights(chain: MarkovChain, offset: int) -> dict[int, float]:
        own = blocks[chain.init + offset] if ignore_own else None
        return dict(_signature(chain.edges[chain.init], blocks, offset, own))

    s1 = block_weights(c1, 0)
    s2 = block_weights(c2, n1)

    def block_obs(b: int) -> tuple:
        return obs[blocks.index(b)]

    for b in sorted(set(s1) | set(s2)):
        w1 = s1.get(b, 0.0)
        w2 = s2.get(b, 0.0)
        if w1 != w2:
            return (
                f"from the initial state, total weight into states observing "
                f"{_obs_text(block_obs(b), obs_names)} (and behaving alike afterwards) "
                f"is {render_weight(w1)} in the source but {render_weight(w2)} in the network"
            )
    return (
        "the initial states agree on their immediate moves but reach "
        "observationally equal classes that behave differently later on"
    )


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------

def verify_projection(
    prog: ChorProgram,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    init_overrides: dict | None = None,
    require_sconn: bool = True,
) -> dict:
    """Project the program, build both chains, and decide equivalence.

    Returns a report: ``equivalent``, ``kind``, ``sconn``, raw/collapsed
    state counts for both sides (in discrete mode also the sizes of the
    jump chains, which hold only what the initial state reaches),
    accumulated findings, and a
    ``counterexample`` description when the check fails.
    """
    prog = auto_annotate(prog)
    net, _ctx = project(prog, require_sconn=False)  # well-formed before s_conn walks it
    findings: list[str] = []
    sconn_ok = s_conn(prog)
    if not sconn_ok:
        if require_sconn:
            raise NotStronglyConnected(
                "program is outside the certified fragment; "
                "disable the strong-connectivity requirement to verify anyway"
            )
        findings.append(
            "sconn: program is outside the certified fragment; "
            "the result below is informational, not covered by the projection theorem"
        )
    obs_names = tuple(d.name for d in prog.var_decls)
    states: dict[str, int] = {}

    def collapsed(side: str, raw: MarkovChain) -> MarkovChain:
        """``raw`` collapsed, its findings and counts kept; the raw chain
        itself is dropped on return, before the next stage builds more."""
        findings.extend(raw.findings)
        chain = collapse(raw, obs_names)
        states[f"{side}_raw"] = raw.num_states
        states[f"{side}_collapsed"] = chain.num_states
        return chain

    c1 = collapsed("chor", build_chain(prog, max_states=max_states, init_overrides=init_overrides))
    c2 = collapsed("net", build_network_chain(
        net, prog.kind, prog.constants, max_states=max_states, init_overrides=init_overrides
    ))
    if prog.kind == "dtmc":
        c1 = jump_chain(c1, obs_names)
        c2 = jump_chain(c2, obs_names)
        states["chor_jump"] = c1.num_states
        states["net_jump"] = c2.num_states
    equivalent, blocks = bisimilar(c1, c2, obs_names)
    report = {
        "equivalent": equivalent,
        "kind": prog.kind,
        "sconn": sconn_ok,
        "states": states,
        "findings": findings,
        "counterexample": None,
    }
    if not equivalent:
        report["counterexample"] = explain_difference(c1, c2, blocks, obs_names)
    return report
