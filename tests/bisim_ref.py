"""The full re-sign refinement that ``chorprism.equivalence.bisimilar`` is
compared against: every round signs every state against the partition it
started from, and the blocks are numbered by the first state of each
signature, until a round changes nothing."""

from __future__ import annotations

from chorprism.chain import MarkovChain
from chorprism.equivalence import _ignores_own_block


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
        sums[b] = sums.get(b, 0.0) + w
    sums.pop(own, None)
    rounded = ((b, round(v, 9)) for b, v in sums.items())
    return tuple(sorted((b, v) for b, v in rounded if v != 0))


def bisimilar(
    c1: MarkovChain, c2: MarkovChain, obs_names: tuple[str, ...]
) -> tuple[bool, list[int]]:
    """Refine the disjoint union of the two chains, starting from
    observation equality, until block-wise outgoing weights stabilize.

    For ``ctmc`` chains the weight a state sends into its own block is
    ignored (ordinary lumpability); ``dtmc`` chains are compared in full.
    Returns whether the two initial states share a block, plus the final
    block of every state (first chain's states first).
    """
    ignore_own = _ignores_own_block(c1, c2)
    n1 = c1.num_states
    obs = c1.observations(obs_names)
    obs += c2.observations(obs_names)
    edges = c1.edges + c2.edges  # the second chain's ids are offset by n1

    keys: dict = {}
    blocks = []
    for k in obs:
        if k not in keys:
            keys[k] = len(keys)
        blocks.append(keys[k])

    while True:
        sig_ids: dict = {}
        new_blocks = []
        for x, row in enumerate(edges):
            own = blocks[x]
            sig = (own, _signature(row, blocks, 0 if x < n1 else n1,
                                   own if ignore_own else None))
            if sig not in sig_ids:
                sig_ids[sig] = len(sig_ids)
            new_blocks.append(sig_ids[sig])
        if new_blocks == blocks:
            break
        blocks = new_blocks

    return blocks[c1.init] == blocks[n1 + c2.init], blocks
