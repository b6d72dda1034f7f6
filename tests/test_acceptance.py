"""The acceptance gate: nine numbered checks, one verdict line each.

Every test computes its whole verdict first, records the line (echoed in
the terminal summary by conftest), and only then asserts, so a failing
run still reports the status of each criterion it reached.
"""

from __future__ import annotations

import random
import time

from chorprism import (
    auto_annotate,
    build_chain,
    build_network_chain,
    check_annotations,
    collapse,
    derive_commands,
    fuse_resets,
    load_program,
    project,
    s_conn,
    verify_projection,
)
from chorprism.chain import MarkovChain
from chorprism.prism import PrismCommand, PrismModule, network_var_decls
from chorprism.syntax import (
    Assign,
    Binary,
    Conditional,
    Interaction,
    Lit,
    Var,
    VarDecl,
    subterms,
)

from corpus import random_program_pair
from nets import eq, mu, racing_pair, synced_pair

TOL = 1e-6


def verdict(log, num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" -- {detail}"
    log.append(line)
    print(line)
    assert ok, detail or title


def module_of(net, name):
    (m,) = [m for m in net if m.name == name]
    return m


def guard_slot(cmd):
    g = cmd.guard
    while isinstance(g, Binary) and g.op == "and":
        g = g.left
    return g.right.value


def counter_targets(cmd, counter):
    return [a.expr.value for _, upd in cmd.alts for a in upd if a.var == counter]


def test_criterion_1_discrete_renormalization(acceptance_log):
    t0 = time.monotonic()
    chain = build_network_chain(tuple(racing_pair()), "dtmc", {})
    elapsed = time.monotonic() - t0

    by_obs = {chain.states[t]: w for t, w in chain.edges[0].items()}
    want = {(1, 0): 0.4, (0, 1): 13 / 30, (0, 0): 0.1, (1, 1): 1 / 15}
    ok = (
        chain.var_names == ("x", "y")
        and by_obs.keys() == want.keys()
        and all(abs(by_obs[k] - want[k]) <= TOL for k in want)
        and elapsed < 1.0
    )
    verdict(
        acceptance_log, 1, "discrete renormalization", ok,
        f"initial edges {by_obs}, {elapsed:.3f}s",
    )


def test_criterion_2_worked_projection(acceptance_log, data_text):
    t0 = time.monotonic()
    prog = auto_annotate(load_program(data_text("example2.chor")))
    net, _ = project(prog)
    elapsed = time.monotonic() - t0

    p = module_of(net, "p")
    q = module_of(net, "q")
    checks = [
        len(p.commands) == 4,
        [guard_slot(c) for c in p.commands] == [0, 0, 1, 2],
        [counter_targets(c, "p_STATE") for c in p.commands] == [[1], [2], [0], [0]],
        [c.alts[0][0] for c in p.commands]
        == [Var("lambda1"), Var("lambda2"), Lit(1), Lit(1)],
        [c.label is not None for c in p.commands] == [True, True, False, False],
        len(q.commands) == 4,
        [guard_slot(c) for c in q.commands] == [0, 0, 1, 2],
        [counter_targets(c, "q_STATE") for c in q.commands] == [[1], [2], [0], [0]],
        [c.alts[0][0] for c in q.commands] == [Lit(1), Lit(1), Lit(1), Lit(1)],
        [c.label for c in q.commands[:2]] == [c.label for c in p.commands[:2]],
        elapsed < 1.0,
    ]
    verdict(
        acceptance_log, 2, "worked projection", all(checks),
        f"failed checks {[i for i, c in enumerate(checks) if not c]}",
    )


def test_criterion_3_composition(acceptance_log):
    modules, constants = synced_pair()
    cmds = derive_commands(tuple(modules))
    decl_of = {d.name: d for d in network_var_decls(tuple(modules))}.__getitem__
    f1 = next(c for c in cmds if c.label == "a")
    f2 = next(c for c in cmds if c.label == "b")

    init = {"s_p": 0, "x": 0, "s_q": 0, "y": 0}
    after1 = {"s_p": 1, "x": 1, "s_q": 1, "y": 2}
    after2 = {"s_p": 2, "x": 3, "s_q": 2, "y": 1}
    checks = [
        f1.guard == Binary("and", eq("s_p", 0), eq("s_q", 0)),
        f2.guard == Binary("and", eq("s_p", 0), eq("s_q", 0)),
        f1.alts == ((Binary("*", Var("mu1"), Var("gamma1")),
                     (Assign("x", Lit(1)), Assign("s_p", Lit(1)),
                      Assign("y", Lit(2)), Assign("s_q", Lit(1)))),),
        f2.alts[0][0] == Binary("*", Var("mu2"), Var("gamma2")),
        set(f2.alts[0][1]) == {Assign("x", Lit(3)), Assign("s_p", Lit(2)),
                               Assign("y", Lit(1)), Assign("s_q", Lit(2))},
        mu(f1, init, after1, decl_of, constants) == 2.0,
        mu(f2, init, after2, decl_of, constants) == 3.0,
    ]
    verdict(
        acceptance_log, 3, "synchronized composition", all(checks),
        f"failed checks {[i for i, c in enumerate(checks) if not c]}",
    )


def test_criterion_4_verified_pair(acceptance_log, data_text):
    prog = load_program(data_text("example2.chor"))
    report = verify_projection(prog)
    collapsed = collapse(build_chain(prog), ("x", "y"))
    obs = set(collapsed.observations(("x", "y")))
    ok = (
        report["equivalent"] is True
        and report["states"]["chor_collapsed"] == 3
        and collapsed.num_states == 3
        and len(obs) == 3
    )
    verdict(
        acceptance_log, 4, "verified two-branch exchange", ok,
        f"report {report['states']}, cex {report['counterexample']}",
    )


def test_criterion_5_random_round_trips(acceptance_log):
    rng = random.Random(20240815)
    t0 = time.monotonic()
    failures = []
    for i in range(100):
        for prog in random_program_pair(rng):
            report = verify_projection(prog)
            if not report["equivalent"]:
                failures.append((i, prog.kind, report["counterexample"]))
    elapsed = time.monotonic() - t0

    for i, kind, cex in failures:
        print(f"counterexample (program {i}, {kind}): {cex}")
    ok = not failures and elapsed < 120.0
    verdict(
        acceptance_log, 5, "random round trips", ok,
        f"{len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_6_static_analysis_fixtures(acceptance_log, data_text):
    checks = [
        s_conn(load_program(data_text("sconn_pos.chor"))) is True,
        s_conn(load_program(data_text("nonsconn.chor"))) is False,
        check_annotations(load_program(data_text("annot_dup.chor"))) != [],
        check_annotations(load_program(data_text("annot_ok.chor"))) == [],
    ]
    verdict(
        acceptance_log, 6, "static analysis fixtures", all(checks),
        f"failed checks {[i for i, c in enumerate(checks) if not c]}",
    )


def test_criterion_7_sugar_fixtures(acceptance_log, data_text):
    lowered = load_program(data_text("allsynch.chor")).defs["Main"]
    weights = sorted(
        b.weight.value
        for t in subterms(lowered)
        if isinstance(t, Interaction)
        for b in t.branches
    )
    ok_table = isinstance(lowered, Conditional) and weights == [5, 10]

    par = load_program(data_text("parametric.chor"))
    pairs = [
        (t.initiator, t.receivers[0])
        for t in subterms(par.defs["X"])
        if isinstance(t, Interaction)
    ]
    ok_families = len(pairs) == 6 and pairs[-1] == ("q1", "p3")
    verdict(
        acceptance_log, 7, "sugar fixtures", ok_table and ok_families,
        f"weights {weights}, pairs {pairs}",
    )


def test_criterion_8_golden_emission_shape(acceptance_log, data_text):
    prog = auto_annotate(load_program(data_text("thinkteam.chor")))
    net = fuse_resets(project(prog)[0])
    m = module_of(net, "CheckOut")
    counter = next(d for d in m.var_decls if d.name == "CheckOut_STATE")
    checks = [
        len(m.commands) == 5,
        all(c.label is not None for c in m.commands),
        [guard_slot(c) for c in m.commands] == [0, 0, 1, 2, 2],
        [counter_targets(c, "CheckOut_STATE") for c in m.commands]
        == [[1], [2], [0], [1], [2]],
        (counter.lo, counter.hi) == (0, 2),
    ]
    verdict(
        acceptance_log, 8, "golden emission shape", all(checks),
        f"failed checks {[i for i, c in enumerate(checks) if not c]}",
    )


def test_criterion_9_invariant_suites(acceptance_log):
    rng = random.Random(20240818)

    # total command weight is additive over alternatives
    ok_mu = True
    decls = {"u": VarDecl("u", "m", 0, 0, 5)}
    for _ in range(25):
        alts = tuple(
            (Lit(rng.randint(1, 4)), (Assign("u", Lit(rng.randint(0, 5))),))
            for _ in range(rng.randint(1, 4))
        )
        cmd = PrismCommand(None, Lit(True), alts)
        src = {"u": rng.randint(0, 5)}
        total = 0.0
        for v in {a[1][0].expr.value for a in alts}:
            total += mu(cmd, src, dict(src, u=v), decls.__getitem__, {})
        ok_mu = ok_mu and abs(total - sum(w.value for w, _ in alts)) < 1e-9

    # pairwise composition multiplies the per-label command counts
    def stack(name, var, label, n):
        cmds = tuple(
            PrismCommand(label, eq(var, 0), ((Lit(1), (Assign(var, Lit(0)),)),))
            for _ in range(n)
        )
        return PrismModule(name, (VarDecl(var, name, 0, 0, 1),), cmds)

    cmds = derive_commands(
        (stack("m1", "a1", "shared", 2), stack("m2", "a2", "shared", 3))
    )
    ok_p2 = len([c for c in cmds if c.label == "shared"]) == 2 * 3

    # discrete chains have stochastic rows on both sides
    ok_rows = True
    for _ in range(10):
        prog = random_program_pair(rng)[1]
        net, _ = project(auto_annotate(prog))
        for chain in (
            build_chain(prog),
            build_network_chain(net, "dtmc", prog.constants),
        ):
            for edges in chain.edges:
                ok_rows = ok_rows and abs(sum(edges.values()) - 1.0) < 1e-9

    # administrative collapse is idempotent
    ok_collapse = True
    for _ in range(25):
        n = rng.randint(3, 9)
        states = [(rng.randint(0, 2),) for _ in range(n)]
        edges = [
            {rng.randrange(n): rng.choice([1.0, 1.0, 0.5, 2.0]) for _ in range(rng.randint(0, 2))}
            for _ in range(n)
        ]
        c = MarkovChain("ctmc", ("x",), states, 0, edges)
        once = collapse(c, ("x",))
        twice = collapse(once, ("x",))
        ok_collapse = ok_collapse and once.states == twice.states and once.edges == twice.edges

    checks = {
        "weight additivity": ok_mu,
        "product counts": ok_p2,
        "stochastic rows": ok_rows,
        "collapse idempotence": ok_collapse,
    }
    verdict(
        acceptance_log, 9, "invariant suites", all(checks.values()),
        f"failed: {[k for k, v in checks.items() if not v]}",
    )
