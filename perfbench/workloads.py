"""The benchmark's workloads.

Each workload builds its inputs from the seed (set-up), then exposes a
fixed work list of `pass_len` items.  The timed loop runs items in order,
over and over; `prepare(k)` runs untimed before item k, `run(k, arg)` is
timed and returns `(outcome, systems)`, and `check(k, outcome)` runs
untimed and compares the outcome with a reference that does not come
from the checker under test.  `verify()` runs untimed after the loop and
returns `(attempted, failed)` for further reference checks.

The library is reached through module attributes (`corpus.mine`,
`checkers.is_g_transitive`, ...) so that the traced run's wrappers see
the calls.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

from gdyn import algebra, checkers, corpus, dynamics, oracle, sysfile, topology


class Workload:
    tracer = None         # set by the worker for the traced phase
    subprocesses = False  # items run in child processes

    def prepare(self, k: int):
        return None

    def verify(self) -> tuple[int, int]:
        return 0, 0

    def close(self) -> None:
        pass


# -- mine ---------------------------------------------------------------------


class Mine(Workload):
    """`corpus.mine` on the two targets that exhaust: thousands of tiny
    systems per call.  Per target, one call runs the 1,637-system sweep
    and `CHUNKS` calls run `TRIALS` seeded random trials each, so items
    are short enough to repeat several times in a run.  The miner seeds
    come from the run seed."""

    TARGETS = ("tgt&!wgm", "wgm&!sgm")
    SWEEP = 1637  # systems on <= 3 points over Z1, Z2, Z3 (README)
    CHUNKS = 3
    TRIALS = 400

    def __init__(self, seed: int, root: Path):
        self.items = []
        for target in self.TARGETS:
            corpus.parse_target(target)
            self.items.append((target, seed, 0, True))
            self.items += [(target, seed * self.CHUNKS + j, self.TRIALS, False)
                           for j in range(self.CHUNKS)]
        self.pass_len = len(self.items)

    def run(self, k: int, arg):
        target, seed, budget, sweep = self.items[k]
        res = corpus.mine(target, seed=seed, budget=budget, sweep=sweep)
        return res, (self.SWEEP if sweep else 0) + budget

    def check(self, k: int, res) -> bool:
        target, seed, budget, sweep = self.items[k]
        want = {"target": target, "seed": seed, "budget": budget,
                "sweep_checked": self.SWEEP if sweep else 0, "random_trials": budget}
        return not res.found and dict(res.record) == want


# -- suite --------------------------------------------------------------------


class Suite(Workload):
    """The implication suite, one generated system per item: every
    property with no early exit, 3-fold products, quotients, minimal sets
    and the cover criterion on systems of up to 6 points.

    The population is `suite_configs(180, seed0=0)` (three turns of the
    configs' 60-step rotation) on every seed, and the seed shuffles the
    order.  The cost is heavy-tailed (the top 1% of systems take a third
    of the time), so windows drawn with other `seed0` values differ by
    about a quarter in total cost."""

    SYSTEMS = 180

    def __init__(self, seed: int, root: Path):
        self.configs = corpus.suite_configs(self.SYSTEMS, seed0=0)
        random.Random(seed).shuffle(self.configs)
        self.pass_len = len(self.configs)

    def run(self, k: int, arg):
        rep = corpus.run_implication_suite([self.configs[k]])
        return rep, rep.systems_checked

    def check(self, k: int, rep) -> bool:
        return rep.ok and rep.systems_checked == 1

    def verify(self) -> tuple[int, int]:
        """Checker verdicts against the brute-force oracle on every system
        of the work list."""
        tr = self.tracer

        def traced(name, fn):
            return tr.wrap(f"oracle.{name}", fn) if tr else fn

        ctx_of = traced("context", oracle.OracleContext)
        refs = [(name, traced(name, getattr(oracle, f"oracle_{name}")))
                for name in ("gt", "tgt", "wgm", "sgm", "gm", "cover", "minimal_sets")]
        failed = 0
        for cfg in self.configs:
            s = corpus.generate_robust(cfg)
            got = {
                "gt": checkers.is_g_transitive(s).verdict,
                "tgt": checkers.is_totally_g_transitive(s).verdict,
                "wgm": checkers.is_weakly_g_mixing(s).verdict,
                "sgm": checkers.is_strongly_g_mixing(s).verdict,
                "gm": checkers.is_g_minimal(s).verdict,
                "cover": checkers.minimality_cover_criterion(s),
                "minimal_sets": checkers.g_minimal_sets(s),
            }
            if tr:
                tr.on = True
            ctx = ctx_of(s)
            want = {name: fn(s, ctx) for name, fn in refs}
            if tr:
                tr.on = False
            failed += got != want
        return len(self.configs), failed


# -- scaling ------------------------------------------------------------------


def _cycles_system(cycles: list[int], group_order: int, perm: list[int]):
    """Disjoint cycles on a discrete space.  With group_order > 1 the
    cyclic group of that order shifts all points (a transitive action, so
    group_order must equal the point count).  `perm` relabels the carrier:
    point i of the canonical numbering moves to position perm[i]."""
    n = sum(cycles)
    f = [0] * n
    base = 0
    for c in cycles:
        for i in range(c):
            f[perm[base + i]] = perm[base + (i + 1) % c]
        base += c
    names = [""] * n
    for i in range(n):
        names[perm[i]] = f"p{i}"
    space = topology.discrete_space(tuple(names))
    group = algebra.cyclic_group(group_order)
    if group_order == 1:
        rows = (tuple(range(n)),)
    else:
        rows = []
        for g in range(group_order):
            row = [0] * n
            for i in range(n):
                row[perm[i]] = perm[(i + g) % n]
            rows.append(tuple(row))
    return algebra.Action(group, space, rows), tuple(f)


class Scaling(Workload):
    """Four structured systems, each through the five deciders.  Long
    horizons and large bases move the work into the iterate cache, the
    scan loops and the weak-mixing product route."""

    # name, cycle lengths, group order
    SYSTEMS = (
        ("cycle", [96], 1),              # 96-cycle, trivial group
        ("zrot", [12], 12),              # Z12 rotation under the Z12 action
        ("perm", [2, 3, 5, 7, 11], 1),   # horizon 2310, trivial group
        ("perm-g", [3, 4, 5], 12),       # horizon 60, transitive Z12 shift
    )
    DECIDERS = ("is_g_transitive", "is_totally_g_transitive",
                "is_weakly_g_mixing", "is_strongly_g_mixing", "is_g_minimal")
    # closed form: (gt, tgt, wgm, sgm, gm)
    EXPECTED = {
        "cycle": (True, False, False, False, True),
        "zrot": (True, True, True, True, True),
        "perm": (False, False, False, False, False),
        "perm-g": (True, True, True, True, True),
    }
    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        self.names = [name for name, _, _ in self.SYSTEMS]
        self.specs = []
        for _, cycles, order in self.SYSTEMS:
            perm = list(range(sum(cycles)))
            rng.shuffle(perm)
            self.specs.append(_cycles_system(cycles, order, perm))
        self.pass_len = len(self.specs)

    def prepare(self, k: int):
        action, f = self.specs[k]
        return dynamics.GSystem(action, f)

    def run(self, k: int, s):
        return tuple(getattr(checkers, d)(s).verdict for d in self.DECIDERS), 1

    def check(self, k: int, verdicts) -> bool:
        return verdicts == self.EXPECTED[self.names[k]]


# -- cli ----------------------------------------------------------------------


REPORT = ("report",)
OTHER_COMMANDS = (
    ("validate",),
    ("check", "--property", "gt"),
    ("check", "--property", "tgt"),
    ("check", "--property", "wgm"),
    ("check", "--property", "sgm"),
    ("check", "--property", "gm"),
    ("minimal-sets",),
    ("quotient",),
)

_TRACED_CLI = Path(__file__).resolve().parent / "cli_traced.py"


def _bool(v: bool) -> str:
    return "true" if v else "false"


def expected_cli(fx, command: tuple) -> tuple[int, list[str]]:
    """Exit code and lines the command must print, from the fixture's
    hand-worked table."""
    e = fx.expected
    s = fx.system
    cmd = command[0]
    if cmd == "validate":
        return 0, [f"valid: {s.space.n} points, group of order {s.group.order}"]
    if cmd == "report":
        lines = [f"{k}={_bool(e[k])}" for k in ("p1", "p2", "gt", "tgt", "wgm", "sgm", "gm")]
        return 0, lines + ["diagram=consistent"]
    if cmd == "check":
        prop = command[2]
        return (0 if e[prop] else 1), [f"property={prop} verdict={_bool(e[prop])}"]
    if cmd == "minimal-sets":
        sets = e["minimal_sets"]
        lines = ["minimal-set: {" + ",".join(names) + "}" for names in sets]
        return (0 if sets else 1), lines + [f"count={len(sets)}"]
    if cmd == "quotient":
        return 0, _quotient_lines(s, e["quotient"] is not None)
    raise ValueError(cmd)


def _quotient_lines(s, induced: bool) -> list[str]:
    """`proj` lines and either `map` lines or `induced none`, worked out
    from the action table and the map alone: the orbit of x is every g.x,
    and an orbit is named by its smallest point."""
    points = s.space.points
    orbit = [frozenset(row[x] for row in s.action.act) for x in range(s.space.n)]
    name = [points[min(o)] for o in orbit]
    lines = [f"proj {points[x]} {name[x]}" for x in range(s.space.n)]
    if not induced:
        return lines + ["induced none"]
    return lines + [f"map {name[x]} {name[s.f[x]]}" for x in range(s.space.n)]


class Cli(Workload):
    """`python -m gdyn.cli` as one subprocess at a time on the fixture
    files: start-up, import and parsing dominate.

    Every fixture gets `report` (all properties) and two of the other
    commands, rotated by the seed, so every command runs on two or three
    fixtures.  That keeps the list at 30 commands, short enough to repeat
    each several times in a run."""

    subprocesses = True

    def __init__(self, seed: int, root: Path):
        self.work = root / ".perfbench_out" / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cwd = root
        probe = subprocess.run(
            [sys.executable, "-c", "import gdyn.cli; print(gdyn.__file__)"],
            env=self.env, cwd=root, capture_output=True, text=True, timeout=60,
        )
        src = (root / "src").resolve()
        if probe.returncode != 0 or not Path(probe.stdout.strip()).resolve().is_relative_to(src):
            raise RuntimeError(f"gdyn.cli does not resolve under {src}: {probe.stdout}{probe.stderr}")
        self.items = []
        m = len(OTHER_COMMANDS)
        for i, fx in enumerate(corpus.fixtures(verify=False)):
            path = self.work / f"{fx.name}.gds"
            path.write_text(sysfile.serialize(fx.system))
            for command in (REPORT, OTHER_COMMANDS[(2 * i + seed) % m],
                            OTHER_COMMANDS[(2 * i + 1 + seed) % m]):
                argv = [command[0], str(path), *command[1:]]
                self.items.append((argv, expected_cli(fx, command)))
        random.Random(seed).shuffle(self.items)
        self.pass_len = len(self.items)
        self.child_traces: list[dict] = []

    def run(self, k: int, arg):
        argv = self.items[k][0]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "gdyn.cli", *argv]
        else:
            span_file = self.work / f"spans-{len(self.child_traces)}.json"
            cmd = [sys.executable, str(_TRACED_CLI), str(span_file), *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=self.cwd,
                              capture_output=True, text=True, timeout=60)
        if self.tracer is not None:
            self.child_traces.append(_read_child(span_file))
        return proc, 1

    def check(self, k: int, proc) -> bool:
        argv, (want_rc, want_lines) = self.items[k]
        lines = proc.stdout.splitlines()
        return (proc.returncode == want_rc
                and "Traceback" not in proc.stderr
                and all(line in lines for line in want_lines)
                and not (argv[0] == "quotient" and "induced none" not in want_lines
                         and "induced none" in lines))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _read_child(path: Path) -> dict:
    with open(path) as fh:
        out = json.load(fh)
    path.unlink()
    return out


WORKLOADS = {"mine": Mine, "suite": Suite, "scaling": Scaling, "cli": Cli}
