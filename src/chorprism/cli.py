"""Command-line entry point.

Subcommands:

* ``check``   — parse, desugar, and run the static checks
* ``compile`` — project to a PRISM model and print or write it
* ``chain``   — explore either side's Markov chain (text or dot)
* ``verify``  — compile and machine-check behavioural equivalence

Exit codes: 0 success; 1 semantic or verification failure; 2 parse or I/O
error; 3 state budget exceeded or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .analysis import check_annotations, check_well_formed, require_well_formed, s_conn
from .emit import emit
from .equivalence import verify_projection
from .errors import ChorError, ParseError
from .prism import alphabet, build_network_chain
from .projection import fuse_resets, project
from .semantics import DEFAULT_MAX_STATES, build_chain
from .sugar import auto_annotate, load_program
from .syntax import ChorProgram


def _load(args) -> ChorProgram:
    # untranslated, so that line ends count as the library counts them
    with open(args.file, encoding="utf-8", newline="") as f:
        text = f.read()
    prog = load_program(text)
    if getattr(args, "model", None) and args.model != prog.kind:
        prog = replace(prog, kind=args.model)
    return prog


def _parse_init(spec: str | None) -> dict | None:
    if not spec:
        return None
    out: dict = {}
    for item in spec.split(","):
        name, eq, value = item.partition("=")
        name, value = name.strip(), value.strip()
        if not eq or not name:
            raise ParseError("--init expects comma-separated name=value pairs")
        if value in ("true", "false"):
            out[name] = value == "true"
        else:
            try:
                out[name] = int(value)
            except ValueError:
                raise ParseError(f"--init value for {name} is not an integer or bool") from None
    return out


def cmd_check(args) -> int:
    prog = _load(args)
    findings = check_well_formed(prog)
    for f in findings:
        print(f"well-formedness: {f}")
    if findings:
        return 1
    print("well-formedness: ok")
    prog = auto_annotate(prog, args.seed)
    ann = check_annotations(prog)
    for f in ann:
        print(f"annotations: {f}")
    if ann:
        return 1
    print("annotations: ok")
    ok = s_conn(prog)
    print(f"strongly-connected: {'yes' if ok else 'no'}")
    if not ok and not args.override_sconn:
        return 1
    return 0


def cmd_compile(args) -> int:
    prog = auto_annotate(_load(args), args.seed)
    net, _ctx = project(prog, require_sconn=not args.override_sconn)
    if not args.no_fuse_resets:
        net = fuse_resets(net)
    text = emit(net, prog)
    commands = sum(len(m.commands) for m in net)
    print(
        f"modules: {len(net)}  commands: {commands}  labels: {len(alphabet(net))}",
        file=sys.stderr,
    )
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_chain(args) -> int:
    prog = _load(args)
    require_well_formed(prog)
    overrides = _parse_init(args.init)
    if args.side == "chor":
        c = build_chain(prog, max_states=args.max_states, init_overrides=overrides)
    else:
        prog = auto_annotate(prog, args.seed)
        net, _ctx = project(prog, require_sconn=not args.override_sconn)
        c = build_network_chain(
            net,
            prog.kind,
            prog.constants,
            max_states=args.max_states,
            init_overrides=overrides,
        )
    print(c.to_dot() if args.format == "dot" else c.to_text())
    for f in c.findings:
        print(f"finding: {f}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    prog = _load(args)
    report = verify_projection(
        prog,
        max_states=args.max_states,
        init_overrides=_parse_init(args.init),
        require_sconn=not args.override_sconn,
    )
    st = report["states"]
    print(f"kind: {report['kind']}")
    print(f"strongly-connected: {'yes' if report['sconn'] else 'no'}")
    print(
        f"states: source {st['chor_raw']} ({st['chor_collapsed']} collapsed), "
        f"network {st['net_raw']} ({st['net_collapsed']} collapsed)"
    )
    for f in report["findings"]:
        print(f"finding: {f}")
    print(f"equivalent: {'yes' if report['equivalent'] else 'no'}")
    if report["counterexample"]:
        print(f"counterexample: {report['counterexample']}")
    return 0 if report["equivalent"] else 1


def _add_common(p: argparse.ArgumentParser, *, explore: bool = False) -> None:
    p.add_argument("file", help="choreography source file")
    p.add_argument(
        "--model",
        choices=("ctmc", "dtmc"),
        help="override the declared model kind (the program is re-validated)",
    )
    p.add_argument(
        "--override-sconn",
        action="store_true",
        help="proceed on programs outside the certified fragment",
    )
    if explore:
        p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                       help="state budget for chain exploration")
        p.add_argument("--init", help="initial-value overrides, e.g. x=0,y=true")


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chorprism",
        description="compile probabilistic choreographies to PRISM and check the result",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the static checks")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compile", help="emit a PRISM model")
    _add_common(p)
    p.add_argument("-o", "--output", help="output file ('-' for stdout); default stdout")
    p.add_argument(
        "--no-fuse-resets",
        action="store_true",
        help="keep the raw counter resets instead of fusing them away",
    )
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("chain", help="print a Markov chain")
    _add_common(p, explore=True)
    p.add_argument("--side", choices=("chor", "prism"), default="chor")
    p.add_argument("--format", choices=("text", "dot"), default="text")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("verify", help="check projection correctness")
    _add_common(p, explore=True)
    p.set_defaults(func=cmd_verify)

    # verify labels the program itself, and labels cannot change a verdict
    for name in ("check", "compile", "chain"):
        sub.choices[name].add_argument(
            "--seed", type=int, help="draw random five-letter labels with this seed"
        )
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_arg_parser()
    args, extra = ap.parse_known_args(argv)
    if extra:
        # an unknown option takes no value: one before the file has its value read as the file
        words = sys.argv[1:] if argv is None else argv
        if extra[0].startswith("-") and words.index(extra[0]) < words.index(args.file):
            extra = [w for w in extra if w.startswith("-")]
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    if "max_states" in args and args.max_states < 1:
        ap.error(f"argument --max-states: expected at least 1 state, got {args.max_states}")
    try:
        return args.func(args)
    except ChorError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # report once the handler has released the traceback's frames
    print("error: out of memory", file=sys.stderr)
    return 3

