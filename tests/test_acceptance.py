"""End-to-end acceptance gate.

Each test prints exactly one line, ``ACCEPTANCE <n> (<name>): PASS`` or
``FAIL``, and then asserts.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete.
"""

import itertools
import time

import pytest

from conftest import trivialized
from gdyn import checkers as ck
from gdyn import corpus, oracle as orc
from gdyn.cli import main
from gdyn.dynamics import GSystem
from gdyn.sysfile import parse, serialize
from gdyn.topology import compose


def _gate(n: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({name}) failed: {detail}"


def _oracle_mismatches(sys) -> list[str]:
    ctx = orc.OracleContext(sys)
    got = []
    row = ck.profile(sys)
    pairs = [(name, row[name], fn(sys, ctx)) for name, fn in orc.Verdicts.items()]
    pairs.append(
        ("minimal-sets", ck.g_minimal_sets(sys), orc.oracle_minimal_sets(sys, ctx))
    )
    if row["p1"]:
        pairs.append((
            "quotient-minimal",
            ck.quotient_minimality(sys).induced_minimal,
            orc.oracle_quotient_minimal(sys),
        ))
    for tag, mine_, theirs in pairs:
        if mine_ != theirs:
            got.append(tag)
    return got


def test_criterion_1_oracle_equivalence(fixture_map):
    started = time.monotonic()
    bad: list[str] = []
    for fx in fixture_map.values():
        if not orc.oracle_continuous(fx.system):
            bad.append(f"{fx.name}: continuity")
        for tag in _oracle_mismatches(fx.system):
            bad.append(f"{fx.name}: {tag}")
    generated = 0
    pool = ("Z1", "Z2", "Z3", "Z4", "Z2xZ2")
    i = 0
    while generated < 200:
        cfg = corpus.GeneratorConfig(
            seed=1000 + i,
            max_points=5,
            groups=(pool[i % 5],),
            mode=("discrete", "preorder")[i % 2],
            pseudoequivariant_only=(i % 4 == 3),
        )
        i += 1
        try:
            sys = corpus.generate_robust(cfg)
        except corpus.GenerationError:
            continue
        generated += 1
        for tag in _oracle_mismatches(sys):
            bad.append(f"seed {cfg.seed}: {tag}\n{serialize(sys)}")
    elapsed = time.monotonic() - started
    ok = not bad and generated >= 200 and elapsed < 120.0
    _gate(
        1, "oracle equivalence", ok,
        f"{len(bad)} mismatches on {generated} generated systems "
        f"in {elapsed:.1f}s: {bad[:3]}",
    )


def test_criterion_2_implication_suite():
    started = time.monotonic()
    report = corpus.run_implication_suite(corpus.suite_configs(520, seed0=0))
    elapsed = time.monotonic() - started
    ok = (
        report.systems_checked >= 500
        and not report.violations
        and elapsed < 600.0
    )
    _gate(
        2, "implication suite", ok,
        f"{report.systems_checked} systems, {len(report.violations)} "
        f"violations in {elapsed:.1f}s: {report.violations[:1]}",
    )


def test_criterion_3_separations(fixture_map):
    checks: list[tuple[str, bool]] = []

    def both(tag, sys, expected, checker_fn, oracle_fn):
        checks.append((tag + "/checker", checker_fn(sys).verdict == expected))
        checks.append((tag + "/oracle", oracle_fn(sys) == expected))

    d = fixture_map["disc2-swap"].system
    both("disc2 gt", d, True, ck.is_g_transitive, orc.oracle_gt)
    both("disc2 !tgt", d, False, ck.is_totally_g_transitive, orc.oracle_tgt)

    s = fixture_map["sierpinski-id"].system
    both("sierpinski sgm", s, True, ck.is_strongly_g_mixing, orc.oracle_sgm)
    both("sierpinski !gm", s, False, ck.is_g_minimal, orc.oracle_gm)

    z = fixture_map["z2swap-id"].system
    both("z2swap sgm", z, True, ck.is_strongly_g_mixing, orc.oracle_sgm)
    both("z2swap gm", z, True, ck.is_g_minimal, orc.oracle_gm)
    zt = trivialized(z)
    both("z2swap trivialized !gt", zt, False, ck.is_g_transitive, orc.oracle_gt)

    r = fixture_map["rot4"].system
    both("rot4 gm", r, True, ck.is_g_minimal, orc.oracle_gm)
    both("rot4 !sgm", r, False, ck.is_strongly_g_mixing, orc.oracle_sgm)
    both("rot4 !wgm", r, False, ck.is_weakly_g_mixing, orc.oracle_wgm)

    it = fixture_map["interval-tails"].system
    both("interval gt", it, True, ck.is_g_transitive, orc.oracle_gt)
    squared = GSystem(it.action, compose(it.f, it.f))
    both("interval squared !gt", squared, False,
         ck.is_g_transitive, orc.oracle_gt)

    tt = fixture_map["two-triangles"].system
    checks.append(("two-triangles pseudoequivariant",
                   tt.pseudoequivariant() is True))
    from gdyn.algebra import equivariance_failure
    checks.append(("two-triangles !equivariant",
                   equivariance_failure(tt.action, tt.f) is not None))

    failed = [tag for tag, ok in checks if not ok]
    _gate(3, "separating examples", not failed, f"failed: {failed}")


def test_criterion_4_product_minimality():
    minimal = [
        sys for sys in corpus.enumerate_systems(3, ("Z1", "Z2"))
        if sys.pseudoequivariant() and ck.is_g_minimal(sys).verdict
    ]
    pairs = 0
    disagreements = []
    for s1, s2 in itertools.product(minimal, repeat=2):
        pm = ck.product_minimality_criterion(s1, s2)
        pairs += 1
        if pm.product_minimal != pm.criterion:
            disagreements.append((serialize(s1), serialize(s2), pm))
            if len(disagreements) > 2:
                break
    ok = pairs > 0 and not disagreements
    _gate(
        4, "product minimality criterion", ok,
        f"{len(minimal)} minimal systems, {pairs} ordered pairs, "
        f"{len(disagreements)} disagreements: {disagreements[:1]}",
    )


def test_criterion_5_mining():
    problems = []

    for target in ("gt&!tgt", "sgm&!gm"):
        res = corpus.mine(target, budget=0)
        if not res.found:
            problems.append(f"{target}: not found in sweep")
        else:
            corpus.verify_against_oracle(res.system, corpus.parse_target(target))

    outcomes = []
    for target in ("tgt&!wgm", "wgm&!sgm"):
        res = corpus.mine(target, seed=0, budget=100_000)
        if res.found:
            corpus.verify_against_oracle(res.system, corpus.parse_target(target))
            outcomes.append(f"{target}: witness found ({res.phase})")
        else:
            record_keys = {"target", "seed", "budget", "sweep_checked",
                           "random_trials"}
            if set(res.record) != record_keys:
                problems.append(f"{target}: incomplete record {res.record}")
            elif res.record["random_trials"] != 100_000:
                problems.append(f"{target}: budget not spent {res.record}")
            else:
                outcomes.append(f"{target}: exhausted, record {res.record}")

    for line in outcomes:
        print(f"\n  mining outcome: {line}")
    _gate(5, "separation mining", not problems, "; ".join(problems))


def test_criterion_6_cli(fixture_map, tmp_path, capsys):
    problems = []

    for name, fx in fixture_map.items():
        text = serialize(fx.system)
        if parse(text) != fx.system or serialize(parse(text)) != text:
            problems.append(f"{name}: round trip")

    paths = {}
    for name, fx in fixture_map.items():
        p = tmp_path / f"{name}.gds"
        p.write_text(serialize(fx.system))
        paths[name] = str(p)

    for name, path in paths.items():
        rc = main(["report", path])
        out = capsys.readouterr().out
        if rc != 0 or "diagram=consistent" not in out:
            problems.append(f"{name}: report rc={rc}")

    spot = [
        (["validate", paths["rot4"]], 0),
        (["check", paths["rot4"], "--property", "gt"], 0),
        (["check", paths["rot4"], "--property", "sgm"], 1),
        (["check", paths["disc2-swap"], "--property", "tgt"], 1),
        (["check", paths["skew3"], "--property", "quotient-minimal"], 2),
        (["check", paths["rot4"], "--property", "frob"], 2),
        (["validate", str(tmp_path / "absent.gds")], 2),
        (["mine", "--target", "gm&!gt", "--budget", "5"], 1),
    ]
    for argv, want in spot:
        rc = main(argv)
        capsys.readouterr()
        if rc != want:
            problems.append(f"{argv}: rc={rc}, want {want}")

    with capsys.disabled():
        _gate(6, "command-line interface", not problems, "; ".join(problems))
