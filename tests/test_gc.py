"""The cyclic garbage collector at the library's entry points.

The entry points run with the collector paused (``syntax.gc_paused``). That
loses no memory only because no function of the package leaves a reference
cycle behind: here each entry point, and each command of the command line,
runs with the collector off, and a collection afterwards must find nothing
unreachable, on success and on each kind of error. Each entry point also
leaves the collector as it found it.
"""

from __future__ import annotations

import gc
import importlib
import pathlib
import random

import pytest

from chorprism import (
    ChorError,
    NotStronglyConnected,
    ParseError,
    StateBudgetExceeded,
    WellFormednessError,
    auto_annotate,
    build_chain,
    build_network_chain,
    check_annotations,
    check_well_formed,
    emit,
    fuse_resets,
    load_program,
    project,
    s_conn,
    verify_projection,
)
from chorprism import equivalence
from chorprism.cli import main
from chorprism.parser import pretty_print
from chorprism.syntax import gc_paused

from corpus import random_program_pair

ROOT = pathlib.Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"

#: every function the command line calls that walks a program, a network or a chain
PAUSED = (load_program, auto_annotate, check_well_formed, check_annotations, s_conn, project,
          fuse_resets, emit, build_chain, build_network_chain, verify_projection)

FIXTURES = sorted(p.name for p in DATA.glob("*.chor"))
CORPUS = [f"t{seed}-{kind}" for seed in range(20) for kind in ("ctmc", "dtmc")]
SHAPES = [f"{shape}-4-{kind}" for shape in ("grid", "stages") for kind in ("ctmc", "dtmc")]

ILL_FORMED = "ctmc; role p, q; var x @ p : [0..1] init 0; " \
             "def C = p -> q : { rate 2 : {x'=1}; D }; main C;"


def source(name: str, monkeypatch) -> str:
    """The text of a fixture, a ``tests/corpus.py`` draw or a benchmark shape."""
    if name.endswith(".chor"):
        return (DATA / name).read_text(encoding="utf-8")
    tag, kind = name.rsplit("-", 1)
    if name in CORPUS:
        ctmc, dtmc = random_program_pair(random.Random(int(tag[1:])))
        return pretty_print(ctmc if kind == "ctmc" else dtmc)
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    workloads = importlib.import_module("workloads")
    if tag == "grid-4":
        return workloads.grid_text(4, kind, random.Random(1))
    text = workloads.stages_text(4, 2, random.Random(1))
    return text.replace("ctmc;", f"{kind};", 1)


@pytest.fixture
def collector_off():
    """The collector disabled, with every object alive before the test
    frozen out of its sight, so that a collection scans only what the test
    made."""
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        if was:
            gc.enable()


def garbage_after(f, *args, **kwargs) -> tuple[object, int]:
    """``f``'s result (None where it raised a ChorError) and the number of
    unreachable objects a collection finds once it has returned."""
    gc.collect()
    try:
        out = f(*args, **kwargs)
    except ChorError:
        out = None
    return out, gc.collect()


@pytest.mark.parametrize("name", FIXTURES + CORPUS + SHAPES)
def test_no_entry_point_leaves_a_reference_cycle(name, collector_off, monkeypatch):
    text = source(name, monkeypatch)
    found = {}

    def step(label, f, *args, **kwargs):
        out, found[label] = garbage_after(f, *args, **kwargs)
        return out

    prog = step("load_program", load_program, text)
    step("check_well_formed", check_well_formed, prog)
    ann = step("auto_annotate", auto_annotate, prog)
    step("auto_annotate seeded", auto_annotate, prog, 7)
    step("check_annotations", check_annotations, ann)
    step("s_conn", s_conn, ann)
    step("build_chain", build_chain, prog)
    step("verify_projection", verify_projection, prog, require_sconn=False)
    projected = step("project", project, ann, require_sconn=False)
    if projected is not None:
        net = projected[0]
        step("fuse_resets", fuse_resets, net)
        step("emit", emit, net, ann)
        step("emit fused", emit, fuse_resets(net), ann)
        step("build_network_chain", build_network_chain, net, prog.kind, prog.constants)
    assert {label: n for label, n in found.items() if n} == {}


def test_no_error_leaves_a_reference_cycle(collector_off, data_text):
    example2, nonsconn = (load_program(data_text(n)) for n in ("example2.chor", "nonsconn.chor"))
    net = project(auto_annotate(example2))[0]
    calls = {
        "parse error": (ParseError, load_program, "ctmc;\nrole p;\n$"),
        "ill-formed load": (WellFormednessError, load_program,
                            "ctmc; role p, q; def M = w[0] -> q : { rate 1 : {}; M }; main M;"),
        "ill-formed project": (WellFormednessError, project,
                               auto_annotate(load_program(ILL_FORMED))),
        "ill-formed verify": (WellFormednessError, verify_projection, load_program(ILL_FORMED)),
        "not sconn project": (NotStronglyConnected, project, auto_annotate(nonsconn)),
        "not sconn verify": (NotStronglyConnected, verify_projection, nonsconn),
        "budget build_chain": (StateBudgetExceeded, build_chain, example2),
        "budget network chain": (StateBudgetExceeded, build_network_chain,
                                 net, "ctmc", example2.constants),
        "budget verify": (StateBudgetExceeded, verify_projection, example2),
    }
    found = {}
    for label, (error, f, *args) in calls.items():
        kwargs = {"max_states": 2} if label.startswith("budget") else {}
        with pytest.raises(error):
            f(*args, **kwargs)
        found[label] = garbage_after(f, *args, **kwargs)[1]
    assert {label: n for label, n in found.items() if n} == {}


@pytest.mark.parametrize("argv, code", [
    (("check", "example2.chor"), 0),
    (("compile", "example2.chor", "-o", "-"), 0),
    (("compile", "thinkteam.chor", "--no-fuse-resets", "-o", "-"), 0),
    (("chain", "example2.chor"), 0),
    (("chain", "example2_dtmc.chor", "--side", "prism", "--format", "dot"), 0),
    (("verify", "example2.chor"), 0),
    (("verify", "families_foreach.chor"), 0),
    (("verify", "nonsconn.chor"), 1),
    (("check", "cond_cycle.chor"), 1),
    (("verify", "--max-states", "2", "example2.chor"), 3),
    (("verify", "ill_formed.chor"), 1),
    (("check", "parse_error.chor"), 2),
])
def test_no_command_leaves_a_reference_cycle(argv, code, collector_off, capsys, tmp_path):
    (tmp_path / "ill_formed.chor").write_text(ILL_FORMED, encoding="utf-8")
    (tmp_path / "parse_error.chor").write_text("ctmc;\nrole p;\n$", encoding="utf-8")
    where = {p.name: str(p) for p in [*DATA.glob("*.chor"), *tmp_path.glob("*.chor")]}
    argv = [where.get(word, word) for word in argv]
    assert garbage_after(main, argv) == (code, 0)
    capsys.readouterr()


def test_each_entry_point_pauses_the_collector():
    paused_code = gc_paused(len).__code__
    assert [f.__name__ for f in PAUSED if f.__code__ is not paused_code] == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_each_entry_point_leaves_the_collector_as_it_found_it(enabled, data_text):
    example2, nonsconn = (load_program(data_text(n)) for n in ("example2.chor", "nonsconn.chor"))
    ann = auto_annotate(example2)
    net = project(ann)[0]
    calls = [
        (None, load_program, data_text("example2.chor")),
        (None, auto_annotate, example2),
        (None, check_well_formed, example2),
        (None, check_annotations, ann),
        (None, s_conn, ann),
        (None, project, ann),
        (None, fuse_resets, net),
        (None, emit, net, ann),
        (None, build_chain, example2),
        (None, build_network_chain, net, "ctmc", example2.constants),
        (None, verify_projection, example2),
        (ParseError, load_program, "ctmc;\nrole p;\n$"),
        (WellFormednessError, project, auto_annotate(load_program(ILL_FORMED))),
        (WellFormednessError, verify_projection, load_program(ILL_FORMED)),
        (NotStronglyConnected, project, auto_annotate(nonsconn)),
        (NotStronglyConnected, verify_projection, nonsconn),
        (StateBudgetExceeded, build_chain, example2, 2),
        (StateBudgetExceeded, build_network_chain, net, "ctmc", example2.constants, 2),
        (StateBudgetExceeded, verify_projection, example2, 2),
    ]
    seen = []
    was = gc.isenabled()
    try:
        for error, f, *args in calls:
            kwargs = {"max_states": args.pop()} if error is StateBudgetExceeded else {}
            (gc.enable if enabled else gc.disable)()
            if error is None:
                f(*args, **kwargs)
            else:
                with pytest.raises(error):
                    f(*args, **kwargs)
            seen.append((f.__name__, error and error.__name__, gc.isenabled()))
    finally:
        (gc.enable if was else gc.disable)()
    assert [s for s in seen if s[2] is not enabled] == []


def test_verify_keeps_the_collector_off_between_its_stages(data_text, monkeypatch):
    seen = []

    def spy(prog):
        seen.append(gc.isenabled())
        return s_conn(prog)

    monkeypatch.setattr(equivalence, "s_conn", spy)  # verify calls it once project returns
    assert gc.isenabled()
    verify_projection(load_program(data_text("example2.chor")))
    assert (seen, gc.isenabled()) == ([False], True)
