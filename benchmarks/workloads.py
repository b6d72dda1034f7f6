"""Seeded inputs for the benchmark workloads and the answers known for them.

Every workload is a list of :class:`Case` values: a source text plus what
the projection theorem and a closed form say about it, worked out without
the compiler. The seed changes constants, initial values, rates and
probabilities; it never changes the shape of the programs, so the amount of
work in ``grid-dtmc`` and ``stages-ctmc`` is the same for every seed and
that of ``corpus`` nearly so, and runs with different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes of the full workloads, chosen so that one verify takes under a
# second on a 2-vCPU virtual machine and a 30-second run holds a few dozen
# of them.
GRID_M = 19
STAGES_K, STAGES_M = 40, 1
CORPUS_PAIRS = 200
# The corpus draws its program shapes from this seed and their values from
# the run's seed. When the run's seed drew both, the median program moved by
# about 0.2 between seeds and peak memory by 0.1; with fixed shapes, by 0.06.
CORPUS_SHAPE_SEED = 1
# the declared variables of grid-M and stages-K, observed by both sides
OBSERVED = ("x", "y")

DTMC_SPLITS = ((0.5, 0.5), (0.25, 0.75), (0.75, 0.25), (0.375, 0.625))
# Rate 1 is left out on purpose: see README caveat 3.
CTMC_RATES = (0.5, 1.5, 2.0, 2.5, 3.0)


@dataclass(frozen=True)
class Case:
    """One input program.

    ``observations`` is the number of distinct valuations of the declared
    variables each side must reach, when a closed form gives it (None for
    the random corpus).
    """

    name: str
    kind: str
    text: str
    observations: int | None = None


def grid_text(m: int, kind: str, rng: random.Random) -> str:
    """grid-M: ``p -> q, r`` bumps one of two counters over [0..M], modulo M+1."""
    if kind == "dtmc":
        w1, w2 = rng.choice(DTMC_SPLITS)
    else:
        w1, w2 = rng.choice(CTMC_RATES), rng.choice(CTMC_RATES)
    x0, y0 = rng.randint(0, m), rng.randint(0, m)
    return (
        f"{kind};\n"
        "role p, q, r;\n"
        f"var x @ q : [0..{m}] init {x0};\n"
        f"var y @ r : [0..{m}] init {y0};\n"
        f"def G = p -> q, r : {{ rate {w1} : {{x'=mod(x+1, {m + 1})}}; G\n"
        f"                    | rate {w2} : {{y'=mod(y+1, {m + 1})}}; G }};\n"
        "main G;\n"
    )


def stages_text(k: int, m: int, rng: random.Random) -> str:
    """K chained definitions, each a three-role two-branch exchange whose
    initiator rotates through the roles; branch one bumps x, branch two y."""
    roles = ("p", "q", "r")
    first = rng.randrange(3)
    lines = [
        "ctmc;",
        "role p, q, r;",
        f"var x @ q : [0..{m}] init {rng.randint(0, m)};",
        f"var y @ r : [0..{m}] init {rng.randint(0, m)};",
    ]
    for i in range(k):
        init = roles[(first + i) % 3]
        recv = ", ".join(x for x in roles if x != init)
        nxt = f"S{(i + 1) % k}"
        w1, w2 = rng.choice(CTMC_RATES), rng.choice(CTMC_RATES)
        lines.append(
            f"def S{i} = {init} -> {recv} : {{ rate {w1} : {{x'=mod(x+1, {m + 1})}}; {nxt}\n"
            f"                           | rate {w2} : {{y'=mod(y+1, {m + 1})}}; {nxt} }};"
        )
    lines.append("main S0;")
    return "\n".join(lines) + "\n"


def random_program_pair(rng: random.Random, values: random.Random):
    """The draw of ``tests/corpus.py``, with the shapes taken from ``rng``
    and the initial values, assigned constants, rates and probabilities
    from ``values``. Given one generator as both, it repeats that draw call
    for call, so that a seed names the same programs in both places. Kept
    here so that a change to the test generator cannot change the
    benchmark's inputs."""
    from chorprism.syntax import (
        Assign, Binary, Branch, CallTerm, ChorProgram, Inact, Interaction, Lit, Var, VarDecl,
    )

    n_roles = rng.randint(1, 3)
    roles = ("p", "q", "r")[:n_roles]
    names = ("u", "v", "w")[:n_roles]
    var_decls = tuple(VarDecl(names[i], roles[i], values.randint(0, 3), 0, 3) for i in range(n_roles))
    def_names = ("Main", "Aux")[: rng.randint(1, 2)]

    def update():
        out = []
        for v in rng.sample(names, rng.randint(0, min(2, len(names)))):
            if rng.random() < 0.5:
                out.append(Assign(v, Lit(values.randint(0, 3))))
            else:
                out.append(Assign(v, Binary("mod", Binary("+", Var(v), Lit(1)), Lit(4))))
        return tuple(out)

    def tail():
        if rng.random() < 0.6:
            return CallTerm(rng.choice(def_names))
        return Inact()

    def body(depth: int):
        if depth == 0:
            t = tail()
            return t, t
        initiator = rng.choice(roles)
        receivers = tuple(x for x in roles if x != initiator)
        n = rng.randint(1, 2)
        rates = tuple(values.choice(CTMC_RATES) for _ in range(n))
        probs = (1.0,) if n == 1 else values.choice(DTMC_SPLITS)
        cbranches, dbranches = [], []
        for j in range(n):
            upd = update()
            ccont, dcont = body(depth - 1 if rng.random() < 0.7 else 0)
            cbranches.append(Branch(Lit(rates[j]), upd, ccont))
            dbranches.append(Branch(Lit(probs[j]), upd, dcont))
        return (
            Interaction(initiator, receivers, tuple(cbranches)),
            Interaction(initiator, receivers, tuple(dbranches)),
        )

    cdefs, ddefs = {}, {}
    for name in def_names:
        cdefs[name], ddefs[name] = body(rng.randint(1, 4))
    main = def_names[0]
    return (
        ChorProgram("ctmc", roles, {}, var_decls, cdefs, main),
        ChorProgram("dtmc", roles, {}, var_decls, ddefs, main),
    )


def corpus_cases(seed: int, pairs: int, shape_seed: int | None = CORPUS_SHAPE_SEED) -> list[Case]:
    """``pairs`` ctmc/dtmc pairs, printed with ``pretty_print``. With
    ``shape_seed`` None, ``seed`` draws shapes and values in one stream,
    exactly as ``tests/corpus.py`` does."""
    from chorprism import pretty_print

    values = random.Random(seed)
    shape = values if shape_seed is None else random.Random(shape_seed)
    cases = []
    for i in range(pairs):
        for prog in random_program_pair(shape, values):
            cases.append(Case(f"pair{i}-{prog.kind}", prog.kind, pretty_print(prog)))
    return cases


def build(workload: str, seed: int, *, grid_m: int = GRID_M, stages_k: int = STAGES_K,
          stages_m: int = STAGES_M, corpus_pairs: int = CORPUS_PAIRS) -> list[Case]:
    """The inputs of one workload. Only ``corpus`` needs the library (its
    programs are drawn as syntax trees and printed with ``pretty_print``)."""
    rng = random.Random(seed)
    if workload == "grid-dtmc":
        return [Case(f"grid-{grid_m}", "dtmc", grid_text(grid_m, "dtmc", rng), (grid_m + 1) ** 2)]
    if workload == "stages-ctmc":
        text = stages_text(stages_k, stages_m, rng)
        return [Case(f"stages-{stages_k}", "ctmc", text, (stages_m + 1) ** 2)]
    if workload == "corpus":
        return corpus_cases(seed, corpus_pairs)
    raise ValueError(f"unknown workload {workload}")


WORKLOADS = ("grid-dtmc", "stages-ctmc", "corpus")
