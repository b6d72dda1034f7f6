"""Digest what the library derives from each input of the parity set, one
line per input, so that two trees can be compared for identical behaviour.

The parity set is ``tests/corpus.py`` seeds 0-299 (both kinds), the
benchmark corpus at seeds 1, 7 and 101 and its seed-1 one-stream draw
(``workloads.corpus_cases``), every fixture under ``tests/data``, grid-19
in both kinds and stages-40. Per input the digest covers the source and
network chains (``build_chain``, ``build_network_chain`` of the unfused
network), their collapsed forms, the jump chains of the raw and the
collapsed chains (rows in insertion order, weights as ``float.hex``), the
unfused and fused emitted text, and ``verify_projection``'s report with
and without ``require_sconn``; an exception counts by its type and
message. Reports drop nothing: they hold no timings.

The inputs come from this checkout; the library comes from ``PYTHONPATH``:

    PYTHONPATH=src python tests/parity.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python tests/parity.py > old.txt
    diff old.txt new.txt

Naming inputs (``python tests/parity.py grid-19-dtmc p2p.chor``) prints
their full digest text in place of the hash.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "benchmarks")]

import workloads  # noqa: E402
from corpus import random_program_pair  # noqa: E402

from chorprism import (  # noqa: E402
    auto_annotate,
    build_chain,
    build_network_chain,
    collapse,
    emit,
    fuse_resets,
    jump_chain,
    load_program,
    project,
    verify_projection,
)


def inputs():
    """Yield (name, program or source text) over the parity set."""
    for seed in range(300):
        for prog in random_program_pair(random.Random(seed)):
            yield f"t{seed}-{prog.kind}", prog
    for seed, shape_seed, tag in ((1, 1, "w1"), (7, 1, "w7"), (101, 1, "w101"), (1, None, "s1")):
        for case in workloads.corpus_cases(seed, workloads.CORPUS_PAIRS, shape_seed):
            yield f"{tag}-{case.name}", case.text
    for path in sorted((HERE / "data").glob("*.chor")):
        yield path.name, path.read_text(encoding="utf-8")
    for kind in ("ctmc", "dtmc"):
        yield f"grid-19-{kind}", workloads.grid_text(19, kind, random.Random(1))
    yield "stages-40", workloads.build("stages-ctmc", 1)[0].text


def chain_text(chain) -> str:
    rows = [[(dst, w.hex()) for dst, w in row.items()] for row in chain.edges]
    return repr((chain.kind, chain.var_names, chain.states, chain.init, rows, chain.findings))


def outcome(f, *args, **kw) -> tuple[object, str]:
    """``f``'s result and its text, or None and the exception it raised."""
    try:
        value = f(*args, **kw)
    except Exception as e:  # noqa: BLE001 - a raised error is part of the behaviour
        return None, f"{type(e).__name__}: {e}"
    return value, ""


def digest_text(source) -> str:
    parts = []

    def record(tag: str, f, *args, show=repr, **kw):
        value, error = outcome(f, *args, **kw)
        parts.append(f"{tag}: {error or show(value)}")
        return value

    prog = record("load", load_program, source, show=lambda p: "ok") if isinstance(
        source, str) else source
    if prog is None:
        return "\n".join(parts)
    prog = record("annotate", auto_annotate, prog, show=lambda p: "ok")
    if prog is None:
        return "\n".join(parts)
    obs = tuple(d.name for d in prog.var_decls)
    net_ctx = record("project", project, prog, require_sconn=False, show=lambda r: "ok")
    sides = [("chor", record("chain", build_chain, prog, show=chain_text))]
    if net_ctx is not None:
        net = net_ctx[0]
        record("emit", emit, net, prog, show=str)
        record("emit fused", lambda: emit(fuse_resets(net), prog), show=str)
        sides.append(("net", record("network chain", build_network_chain, net, prog.kind,
                                    prog.constants, show=chain_text)))
    for side, raw in sides:
        if raw is None:
            continue
        collapsed = record(f"{side} collapsed", collapse, raw, obs, show=chain_text)
        record(f"{side} jump", jump_chain, raw, obs, show=chain_text)
        if collapsed is not None:
            record(f"{side} collapsed jump", jump_chain, collapsed, obs, show=chain_text)
    for require in (True, False):
        record(f"verify require_sconn={require}", verify_projection, prog, require_sconn=require)
    return "\n".join(parts)


def main(argv: list[str]) -> int:
    count = 0
    for name, source in inputs():
        if argv and name not in argv:
            continue
        text = digest_text(source)
        count += 1
        if argv:
            print(f"== {name}\n{text}")
        else:
            print(name, hashlib.sha256(text.encode()).hexdigest()[:16])
    print(f"# {count} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
