"""End-to-end runs of the command-line interface via ``main(argv)``."""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys

import pytest

from chorprism import cli, equivalence
from chorprism.cli import main
from chorprism.errors import ParseError
from chorprism.semantics import PC
from chorprism.sugar import load_program


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_ok(capsys, data_path):
    code, out, _ = run(capsys, "check", data_path("example2.chor"))
    assert code == 0
    assert "well-formedness: ok" in out
    assert "annotations: ok" in out
    assert "strongly-connected: yes" in out


def test_check_model_override_hits_well_formedness(capsys, data_path):
    # the rates 2 and 3 are fine for a rate model but are not probabilities
    code, out, _ = run(capsys, "check", data_path("example2.chor"), "--model", "dtmc")
    assert code == 1
    assert "well-formedness:" in out
    assert "well-formedness: ok" not in out


def test_check_duplicate_annotation(capsys, data_path):
    code, out, _ = run(capsys, "check", data_path("annot_dup.chor"))
    assert code == 1
    assert "well-formedness: ok" in out
    assert "annotations:" in out
    assert "annotations: ok" not in out


def test_check_reports_a_wire_label_used_twice(capsys, data_path):
    code, out, _ = run(capsys, "check", data_path("label_clash.chor"))
    assert code == 1
    assert out == ("well-formedness: ok\n"
                   "annotations: label X_1 used at both A/branch1 and B/branch1\n")
    for command in ("compile", "verify"):
        code, out, err = run(capsys, command, data_path("label_clash.chor"))
        assert (code, out) == (1, "")
        assert err == "error: label X_1 used at both A/branch1 and B/branch1\n"


def test_verify_passes_a_role_in_no_statement(capsys, data_path):
    code, out, _ = run(capsys, "verify", data_path("idle_role.chor"))
    assert code == 0
    assert "equivalent: yes" in out


@pytest.mark.parametrize("name", ["annot_ok.chor", "end_arm.chor"])
def test_an_end_arm_is_strongly_connected(capsys, data_path, name):
    # an ended arm offers no action, as an interaction branch that ends
    code, out, _ = run(capsys, "check", data_path(name))
    assert (code, out.splitlines()[-1]) == (0, "strongly-connected: yes")
    code, out, _ = run(capsys, "verify", data_path(name))
    assert code == 0
    assert "finding: sconn:" not in out
    assert out.endswith("equivalent: yes\n")


@pytest.mark.parametrize("name, message", [
    ("cond_cycle.chor", "conditional x = 0 @ p recurses without an intervening action"),
    ("entry_cycle.chor", "definition A recurses without an intervening action"),
    # no valuation leads into the cycle, but a statement the entry reaches does
    ("cond_cycle_unreached.chor", "conditional x = 0 @ p recurses without an intervening action"),
])
def test_a_program_without_a_first_action_fails_every_command(capsys, data_path, name, message):
    # check and compile refuse it with the error verify gives
    code, out, err = run(capsys, "check", data_path(name))
    assert (code, out, err) == (1, "well-formedness: ok\nannotations: ok\n", f"error: {message}\n")
    for command in ("compile", "verify"):
        assert run(capsys, command, data_path(name)) == (1, "", f"error: {message}\n")


def test_check_nonsconn(capsys, data_path):
    code, out, _ = run(capsys, "check", data_path("nonsconn.chor"))
    assert code == 1
    assert "strongly-connected: no" in out

    code, out, _ = run(capsys, "check", data_path("nonsconn.chor"), "--override-sconn")
    assert code == 0
    assert "strongly-connected: no" in out


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "no/such/file.chor")
    assert code == 2
    assert "error:" in err


def test_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.chor"
    bad.write_text("ctmc; role p; def = ;")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error:" in err


def test_a_file_is_read_as_the_library_reads_its_text(capsys, tmp_path, data_path):
    # a lone carriage return is a blank, not a line break
    text = "ctmc;\rrole p;\r$"
    bad = tmp_path / "cr.chor"
    bad.write_bytes(text.encode())
    with pytest.raises(ParseError) as exc:
        load_program(text)
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")
    assert str(exc.value).startswith("1:15: ")
    # a CRLF copy compiles to the same text
    lf = data_path("example2_dtmc.chor")
    crlf = tmp_path / "crlf.chor"
    with open(lf, encoding="utf-8") as f:
        crlf.write_bytes(f.read().replace("\n", "\r\n").encode())
    assert run(capsys, "compile", str(crlf))[:2] == run(capsys, "compile", lf)[:2]


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_stdout(capsys, data_path):
    code, out, err = run(capsys, "compile", data_path("example1.chor"))
    assert code == 0
    assert out.startswith("ctmc\n")
    assert "module p" in out and "module q" in out
    assert "modules: 2" in err


def test_compile_declares_a_counter_over_the_values_it_uses(capsys, data_path):
    # r's one command moves its counter from 0 to 1 and no further
    code, out, _ = run(capsys, "compile", data_path("idle_later.chor"), "-o", "-")
    assert code == 0
    assert "  r_STATE : [0..1] init 0;\n" in out


def test_compile_to_file(capsys, tmp_path, data_path):
    code, stdout_text, _ = run(capsys, "compile", data_path("example1.chor"))
    assert code == 0
    target = tmp_path / "model.sm"
    code, out, err = run(capsys, "compile", data_path("example1.chor"), "-o", str(target))
    assert code == 0
    assert out == ""
    assert f"wrote {target}" in err
    assert target.read_text() == stdout_text


def test_compile_no_fuse_differs(capsys, data_path):
    _, fused, _ = run(capsys, "compile", data_path("example2.chor"))
    _, raw, _ = run(capsys, "compile", data_path("example2.chor"), "--no-fuse-resets")
    assert fused != raw
    assert raw.count("->") > fused.count("->")


def test_compile_nonsconn_requires_override(capsys, data_path):
    code, _, err = run(capsys, "compile", data_path("nonsconn.chor"))
    assert code == 1
    assert "error:" in err

    code, out, _ = run(capsys, "compile", data_path("nonsconn.chor"), "--override-sconn")
    assert code == 0
    assert "module r1" in out


def test_compile_seeded_labels_are_reproducible(capsys, data_path):
    _, a, _ = run(capsys, "compile", data_path("example1.chor"), "--seed", "7")
    _, b, _ = run(capsys, "compile", data_path("example1.chor"), "--seed", "7")
    _, plain, _ = run(capsys, "compile", data_path("example1.chor"))
    assert a == b
    assert "[A1_1]" in plain
    assert "[A1_1]" not in a


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------


def test_chain_text(capsys, data_path):
    code, out, _ = run(capsys, "chain", data_path("example1.chor"))
    assert code == 0
    assert "# ctmc 3 states 2 transitions" in out
    assert "STATE 0 x=0,y=0 init" in out
    assert "TRANS 0 1 2" in out
    assert "TRANS 1 2 3" in out


def test_source_chain_has_no_call_state(capsys, data_path):
    # each message returns to the body of C: a call is no move of its own
    code, out, _ = run(capsys, "chain", data_path("example2.chor"))
    assert code == 0
    assert out.startswith("# ctmc 3 states 6 transitions\n")


def test_source_chain_refuses_an_unguarded_call_cycle(capsys, tmp_path):
    path = tmp_path / "cycle.chor"
    path.write_text("ctmc;\nrole p, q;\ndef A = B;\ndef B = A;\nmain A;\n")
    code, out, err = run(capsys, "chain", str(path), "--side", "chor")
    assert (code, out) == (1, "")
    assert err == "error: definition A recurses without an intervening action\n"


def test_chain_dot(capsys, data_path):
    code, out, _ = run(capsys, "chain", data_path("example1.chor"), "--format", "dot")
    assert code == 0
    assert out.startswith("digraph chain {")
    assert 's0 -> s1 [label="2"];' in out


def test_chain_prism_side(capsys, data_path):
    code, out, _ = run(capsys, "chain", data_path("example1.chor"), "--side", "prism")
    assert code == 0
    assert "# ctmc 3 states 2 transitions" in out
    assert "p_STATE=0" in out


def test_chain_init_override(capsys, data_path):
    code, out, _ = run(
        capsys, "chain", data_path("example2.chor"), "--init", "x=3, y=1"
    )
    assert code == 0
    assert "STATE 0 x=3,y=1 init" in out


def test_chain_init_override_rejects_garbage(capsys, data_path):
    code, _, err = run(capsys, "chain", data_path("example2.chor"), "--init", "x=abc")
    assert code == 2
    assert "error:" in err

    code, _, err = run(capsys, "chain", data_path("example2.chor"), "--init", "x=9")
    assert code == 1
    assert err == "error: initial override assigns 9 to x, outside [0..3]\n"

    code, _, err = run(capsys, "chain", data_path("example2.chor"), "--init", "x=true")
    assert code == 1
    assert err == "error: initial override for x is not an integer\n"

    code, _, err = run(capsys, "chain", data_path("example2.chor"), "--init", "x")
    assert code == 2
    assert err == "error: --init expects comma-separated name=value pairs\n"

    # a repeated name is refused, not read as its last value
    code, out, err = run(capsys, "chain", data_path("example2.chor"), "--init", "x=1,x=0")
    assert (code, out, err) == (2, "", "error: --init names x twice\n")


def test_chain_init_override_of_a_bool_takes_true_or_false(capsys, tmp_path):
    path = tmp_path / "flag.chor"
    path.write_text("ctmc; role p, q; var b @ p : bool init false;\n"
                    "def M = p -> q : { rate 1 : {b'=not b}; M }; main M;\n", encoding="utf-8")
    code, _, err = run(capsys, "chain", str(path), "--init", "b=1")
    assert code == 1
    assert err == "error: initial override for b is not bool\n"
    code, out, _ = run(capsys, "chain", str(path), "--init", "b=true")
    assert code == 0
    assert "STATE 0 b=true init" in out


@pytest.mark.parametrize(
    "argv",
    [("verify",), ("chain",), ("chain", "--side", "chor"), ("chain", "--side", "prism")],
    ids=["verify", "chain", "chain-chor", "chain-prism"],
)
def test_init_override_of_unknown_variable_is_one_error_line(capsys, data_path, argv):
    # the source chain's program counter and a role's counter in the network
    # are hidden: no side may start from another value of either
    for name in ("nope", PC, "p_STATE"):
        code, out, err = run(capsys, *argv, data_path("example2.chor"), "--init", f"{name}=1")
        assert (code, out, err) == (1, "", f"error: no variable named {name}\n")


READ_AFTER_WRITE = """ctmc;
role p, q;
var x @ p : [0..2] init 0;
var y @ q : [0..2] init 0;
def C = p -> q : { rate 2 : {y'=1, x'=y}; C | rate 3 : {x'=0, y'=0}; C };
main C;
"""


@pytest.mark.parametrize(
    "argv",
    [("check",), ("verify",), ("chain", "--side", "chor"), ("compile",)],
    ids=["check", "verify", "chain-chor", "compile"],
)
def test_cross_role_read_after_write_is_rejected(capsys, tmp_path, argv):
    path = tmp_path / "raw.chor"
    path.write_text(READ_AFTER_WRITE, encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    finding = "C/branch1: update x'=y reads y, which q writes in the same update"
    assert code == 1
    if argv == ("check",):
        assert out == f"well-formedness: {finding}\n"
    else:
        assert out == ""
        assert err == f"error: {finding}\n"


ILL_FORMED = "ctmc; role p, q; var x @ p : [0..1] init 0; "


@pytest.mark.parametrize(
    "argv",
    [("check",), ("compile",), ("verify",), ("chain", "--side", "chor"), ("chain", "--side", "prism")],
    ids=["check", "compile", "verify", "chain-chor", "chain-prism"],
)
@pytest.mark.parametrize("program, findings", [
    pytest.param("def C = p -> q : { rate 2 : {x'=1}; D }; main C;",
                 ["C/branch1: call to undefined D"], id="undefined-call"),
    pytest.param("def C = p -> q : { rate 2 : {x'=1}; C }; main D;",
                 ["main references undefined D"], id="undefined-main"),
    pytest.param("def C = p -> q : { rate 2 : {x'=1-x}; if x = 1 @ z then { C } else { end } }; main C;",
                 ["C/branch1: conditional at undeclared role z"], id="undeclared-decider"),
    pytest.param("const k = 1e400; def C = p -> q : { rate k : {x'=1-x}; C }; main C;",
                 ["constant k is not finite (inf)", "C/branch1: weight is not finite (inf)"],
                 id="infinite-weight"),
])
def test_an_ill_formed_program_fails_every_command_with_its_findings(capsys, tmp_path, argv,
                                                                     program, findings):
    # verify checks well-formedness before strong connectedness, and a
    # call to an undefined name is a finding, never a KeyError
    path = tmp_path / "bad.chor"
    path.write_text(ILL_FORMED + program, encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    if argv == ("check",):
        assert out == "".join(f"well-formedness: {f}\n" for f in findings)
    else:
        assert out == ""
        assert err == f"error: {'; '.join(findings)}\n"


OVERFLOW = """ctmc;
role p, q;
var x @ p : [0..2] init 0;
def C = p -> q : { rate 1 : {x'=x+1}; C };
main C;
"""


@pytest.mark.parametrize(
    "argv, state",
    [
        (("verify",), "x=2"),
        (("chain", "--side", "chor"), "x=2"),
        (("chain", "--side", "prism"), "p_STATE=0,x=2,q_STATE=0"),
    ],
    ids=["verify", "chain-chor", "chain-prism"],
)
def test_range_error_shows_the_update_in_source_syntax(capsys, tmp_path, argv, state):
    path = tmp_path / "overflow.chor"
    path.write_text(OVERFLOW, encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 1
    assert out == ""
    # one line, the assignment as written and the state it was applied at,
    # not the syntax tree's repr
    assert err == f"error: update x'=x + 1 assigns 3 to x, outside [0..2] at state {state}\n"


def test_verify_takes_no_label_seed(capsys, data_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", data_path("example2.chor"), "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_chain_state_budget(capsys, data_path):
    code, _, err = run(
        capsys, "chain", data_path("example2.chor"), "--max-states", "2"
    )
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("command, budget, message", [
    ("verify", "0", "argument --max-states: expected at least 1 state, got 0"),
    ("chain", "-5", "argument --max-states: expected at least 1 state, got -5"),
    ("verify", "many", "argument --max-states: invalid int value: 'many'"),
], ids=["verify-0", "chain-minus-5", "verify-many"])
def test_max_states_below_one_is_a_usage_error(capsys, data_path, command, budget, message):
    with pytest.raises(SystemExit) as exc:
        main([command, data_path("example2.chor"), "--max-states", budget])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "compile"])
@pytest.mark.parametrize("budget", ["1", "0"])
def test_max_states_is_refused_where_no_chain_is_explored(capsys, data_path, command, budget):
    with pytest.raises(SystemExit) as exc:
        main([command, "--max-states", budget, data_path("example2.chor")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-states" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "compile"])
def test_refused_option_before_the_file_is_named_alone(capsys, data_path, command):
    # the unknown option takes no value, so argparse reads 5 as the file;
    # the error names the option and not the real file it pushed out
    with pytest.raises(SystemExit) as exc:
        main([command, "--max-states", "5", data_path("example2.chor")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: unrecognized arguments: --max-states\n")
    assert "example2.chor" not in err


def test_a_second_file_is_still_unrecognized(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compile", "a.chor", "b.chor"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: b.chor\n")


def test_max_states_takes_what_int_takes(capsys, data_path):
    # only a budget below 1 is refused; other spellings int() reads still parse
    for budget in ("+100", "1_000", " 100"):
        code, out, _ = run(capsys, "verify", data_path("example2.chor"), "--max-states", budget)
        assert code == 0 and "equivalent: yes" in out


def test_verify_oversized_stutter_group_is_one_error_line(capsys, data_path, monkeypatch):
    # every solve of a stutter cycle takes at least one multiply-add
    monkeypatch.setattr(equivalence, "MAX_SOLVE_WORK", 0)
    code, out, err = run(capsys, "verify", data_path("example2_dtmc.chor"))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: a group of ")
    assert "exceeds the work limit of 0 multiply-adds in its solve" in err


def test_verify_stutter_solve_past_the_fill_in_limit_is_one_error_line(
        capsys, data_path, monkeypatch):
    monkeypatch.setattr(equivalence, "MAX_FILL_IN", -1)
    code, out, err = run(capsys, "verify", data_path("stutter_cycle.chor"))
    assert (code, out, err.count("\n")) == (3, "", 1)
    assert err.startswith("error: a group of ")
    assert "exceeds the fill-in limit of -1 entries added by its solve" in err


def test_chain_findings_go_to_stderr(capsys, data_path):
    code, out, err = run(
        capsys, "chain", data_path("example2_dtmc.chor"), "--side", "prism"
    )
    assert code == 0
    assert "finding: dtmc_renormalized" in err
    assert "dtmc_renormalized" not in out


def test_guarded_division_verifies(capsys, data_path):
    code, out, err = run(capsys, "verify", data_path("guarded_division.chor"))
    assert code == 0
    assert err == ""
    assert "states: source 2 (2 collapsed), network 10 (2 collapsed)" in out
    assert out.endswith("equivalent: yes\n")


def test_chain_requires_well_formedness(capsys, data_path):
    code, _, err = run(
        capsys, "chain", data_path("example2.chor"), "--model", "dtmc"
    )
    assert code == 1
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_ok(capsys, data_path):
    code, out, _ = run(capsys, "verify", data_path("example2.chor"))
    assert code == 0
    assert "kind: ctmc" in out
    assert "strongly-connected: yes" in out
    assert "states: source 3 (3 collapsed), network 9 (3 collapsed)" in out
    assert "equivalent: yes" in out
    assert "counterexample" not in out


def test_verify_dtmc_reports_finding(capsys, data_path):
    code, out, _ = run(capsys, "verify", data_path("example2_dtmc.chor"))
    assert code == 0
    assert "kind: dtmc" in out
    assert "finding: dtmc_renormalized" in out
    assert "equivalent: yes" in out


def test_verify_solves_a_stutter_cycle_without_numpy(capsys, data_path, monkeypatch):
    path = data_path("stutter_cycle.chor")
    # the fixture's jump chains meet a stutter cycle of more than one state
    with monkeypatch.context() as m:
        m.setattr(equivalence, "MAX_SOLVE_WORK", 0)
        assert run(capsys, "verify", path)[0] == 3
    # the test oracles import numpy, so look from a fresh interpreter
    script = (
        "import sys\nfrom chorprism.cli import main\n"
        f"code = main(['verify', {path!r}])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_out_of_memory_is_one_error_line(capsys, data_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_projection", exhausted)
    assert run(capsys, "verify", data_path("example2.chor")) == (3, "", "error: out of memory\n")


# a grid of 70 x 70 valuations: 142,100 network states, inside a budget of
# 150,000 but well past 64 MB of address space (its verify needs 96 to 128 MB)
GRID_69 = """dtmc;
role p, q, r;
var x @ q : [0..69] init 0;
var y @ r : [0..69] init 0;
def G = p -> q, r : { rate 0.25 : {x'=mod(x+1, 70)}; G | rate 0.75 : {y'=mod(y+1, 70)}; G };
main G;
"""


def test_verify_out_of_memory_exits_3(tmp_path):
    resource = pytest.importorskip("resource")
    path = tmp_path / "grid69.chor"
    path.write_text(GRID_69, encoding="utf-8")
    limit = 64 << 20

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "chorprism", "verify", "--max-states", "150000", str(path)],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        timeout=60,  # a child that hangs instead of exiting fails the test
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "error: out of memory\n")


def test_verify_failure_prints_counterexample(capsys, data_path):
    code, out, _ = run(capsys, "verify", data_path("sconn_pos.chor"))
    assert code == 1
    assert "equivalent: no" in out
    assert "counterexample:" in out


def test_module_entry_point(data_path):
    proc = subprocess.run(
        [sys.executable, "-m", "chorprism", "check", data_path("example2.chor")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "strongly-connected: yes" in proc.stdout


def test_verify_nonsconn(capsys, data_path):
    code, _, err = run(capsys, "verify", data_path("nonsconn.chor"))
    assert code == 1
    assert "error:" in err

    code, out, _ = run(
        capsys, "verify", data_path("nonsconn.chor"), "--override-sconn"
    )
    assert code == 1
    assert "strongly-connected: no" in out
    assert "finding: sconn:" in out
    assert "equivalent: no" in out


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------

ROOT = pathlib.Path(__file__).parent.parent


def readme_block(after: str) -> str:
    """The body of README.md's first fenced block after the text ``after``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^```\w*\n(.*?)^```$", text[text.index(after):], re.M | re.S)[1]


def test_readme_compile_block_is_the_compiled_output(capsys, tmp_path):
    path = tmp_path / "readme.chor"
    path.write_text(readme_block("## The source language"), encoding="utf-8")
    code, out, _ = run(capsys, "compile", str(path))
    assert (code, out) == (0, readme_block("### Compiled output"))


def test_readme_verify_transcript_is_the_cli_output(capsys, monkeypatch):
    command, _, shown = readme_block("* **verify**").partition("\n")
    argv = command.split()
    assert argv[:2] == ["$", "chorprism"]
    monkeypatch.chdir(ROOT)
    assert run(capsys, *argv[2:]) == (0, shown, "")
