"""Worked systems, a seeded random generator, exhaustive enumeration of
small systems, a property miner and the implication test suite.

The fixtures are hand-built systems whose property profiles were worked
out by hand; loading them re-derives every verdict and refuses to hand
out a fixture that disagrees with its table.  Together they separate the
properties pairwise: transitive but not totally transitive, strongly
mixing but not minimal, minimal but not mixing, and so on.

The generator is deterministic in its seed.  Spaces are either discrete
or drawn from random preorders, actions are sampled homomorphisms into
the automorphism group of the space, and maps are rejection-sampled for
continuity (optionally also for pseudoequivariance).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace

from . import oracle
from .algebra import Action, Group, catalog, is_pseudoequivariant
from .bitsets import bits
from .checkers import (
    Verdicts,
    g_minimal_sets,
    is_n_fold_transitive,
    profile,
    quotient_minimality,
    sgm_sufficient_condition,
)
from .dynamics import GSystem, gf_orbit, periodic_points
from .errors import GenerationError, ValidationError
from .sysfile import serialize
from .topology import (
    Space,
    automorphisms,
    compose,
    discrete_space,
    find_discontinuity,
    identity_table,
    map_image,
)

DefaultGroupPool = ("Z1", "Z2", "Z3", "Z4", "Z2xZ2")


# -- fixtures -----------------------------------------------------------------


@dataclass(frozen=True)
class Fixture:
    name: str
    system: GSystem
    expected: Mapping
    note: str = ""


def _perm_rows(space: Space, perms: list[Mapping[str, str]]) -> tuple:
    return tuple(
        tuple(space.index[p.get(x, x)] for x in space.points) for p in perms
    )


def _cyclic_rows(space: Space, base: Mapping[str, str], n: int) -> tuple:
    row = tuple(space.index[base.get(x, x)] for x in space.points)
    rows = [identity_table(space.n)]
    for _ in range(n - 1):
        rows.append(compose(row, rows[-1]))
    return tuple(rows)


def _table(space: Space, m: Mapping[str, str]) -> tuple[int, ...]:
    return tuple(space.index[m.get(x, x)] for x in space.points)


def _build_fixtures() -> list[Fixture]:
    out = []
    z1 = catalog()["Z1"]
    z2 = catalog()["Z2"]

    # two isolated points swapped by the map; group trivial
    sp = discrete_space(("a", "b"))
    sys = GSystem(
        Action(z1, sp, _perm_rows(sp, [{}])),
        _table(sp, {"a": "b", "b": "a"}),
    )
    out.append(Fixture(
        "disc2-swap", sys,
        {
            "p1": True, "p2": True, "equivariant": True,
            "gt": True, "tgt": False, "wgm": False, "sgm": False, "gm": True,
            "cover": True, "minimal_sets": (("a", "b"),),
            "quotient": (True, True),
        },
        "transitive but not totally transitive: the square fixes both points",
    ))

    # Sierpinski space, identity map: mixing without minimality
    sp = Space(("a", "b"), (0b01, 0b11))
    sys = GSystem(Action(z1, sp, _perm_rows(sp, [{}])), _table(sp, {}))
    out.append(Fixture(
        "sierpinski-id", sys,
        {
            "p1": True, "p2": True, "equivariant": True,
            "gt": True, "tgt": True, "wgm": True, "sgm": True, "gm": False,
            "cover": False, "minimal_sets": (("b",),),
            "quotient": (False, False),
        },
        "every open set contains the dense point, so the identity mixes;"
        " the closed point is a proper minimal core",
    ))

    # identity map made transitive purely by the group
    sp = discrete_space(("a", "b"))
    sys = GSystem(
        Action(z2, sp, _perm_rows(sp, [{}, {"a": "b", "b": "a"}])),
        _table(sp, {}),
    )
    out.append(Fixture(
        "z2swap-id", sys,
        {
            "p1": True, "p2": True, "equivariant": True,
            "gt": True, "tgt": True, "wgm": True, "sgm": True, "gm": True,
            "cover": True, "minimal_sets": (("a", "b"),),
            "quotient": (True, True),
        },
        "all dynamics supplied by the swap action",
    ))

    # the same map with the group forgotten
    sp = discrete_space(("a", "b"))
    sys = GSystem(Action(z1, sp, _perm_rows(sp, [{}])), _table(sp, {}))
    out.append(Fixture(
        "z2swap-id-trivial", sys,
        {
            "p1": True, "p2": True, "equivariant": True,
            "gt": False, "tgt": False, "wgm": False, "sgm": False, "gm": False,
            "cover": False, "minimal_sets": (("a",), ("b",)),
            "quotient": (False, False),
        },
        "forgetting the swap action destroys transitivity",
    ))

    # rotation on four isolated points: minimal but nothing mixes
    sp = discrete_space(("0", "1", "2", "3"))
    sys = GSystem(
        Action(z1, sp, _perm_rows(sp, [{}])),
        _table(sp, {"0": "1", "1": "2", "2": "3", "3": "0"}),
    )
    out.append(Fixture(
        "rot4", sys,
        {
            "p1": True, "p2": True, "equivariant": True,
            "gt": True, "tgt": False, "wgm": False, "sgm": False, "gm": True,
            "cover": True, "minimal_sets": (("0", "1", "2", "3"),),
            "quotient": (True, True),
        },
        "a single cycle visits everything but return times are rigid",
    ))

    # two triangles exchanged by the map, rotated by Z3: orbit-preserving
    # without commuting with the rotation
    sp = discrete_space(("a", "b", "c", "p", "q", "r"))
    z3 = catalog()["Z3"]
    rot = {"a": "b", "b": "c", "c": "a", "p": "q", "q": "r", "r": "p"}
    sys = GSystem(
        Action(z3, sp, _cyclic_rows(sp, rot, 3)),
        _table(sp, {"a": "p", "b": "r", "c": "q", "p": "a", "q": "b", "r": "c"}),
    )
    out.append(Fixture(
        "two-triangles", sys,
        {
            "p1": True, "p2": True, "equivariant": False,
            "gt": True, "tgt": False, "wgm": False, "sgm": False, "gm": True,
            "cover": True, "minimal_sets": (("a", "b", "c", "p", "q", "r"),),
            "quotient": (True, True),
        },
        "the map sends rotation orbits onto rotation orbits but twists them",
    ))

    # three limit points each adjoining all ten isolated cycle points;
    # the map walks the cycle, the Z5 action splits it into two orbits
    # that the map alternates between
    cyc = ("-3/4", "-2/3", "-1/2", "-1/3", "-1/4",
           "1/4", "1/3", "1/2", "2/3", "3/4")
    pts = ("-1",) + cyc[:5] + ("0",) + cyc[5:] + ("1",)
    cyc_mask = 0
    idx = {p: i for i, p in enumerate(pts)}
    for c in cyc:
        cyc_mask |= 1 << idx[c]
    mo = tuple(
        (1 << i) | (cyc_mask if p in ("-1", "0", "1") else 0)
        for i, p in enumerate(pts)
    )
    sp = Space(pts, mo)
    step = {cyc[i]: cyc[(i + 1) % 10] for i in range(10)}
    evens = [cyc[0], cyc[2], cyc[6], cyc[4], cyc[8]]
    odds = [cyc[1], cyc[7], cyc[3], cyc[9], cyc[5]]
    h = {a: b for cycle in (evens, odds)
         for a, b in zip(cycle, cycle[1:] + cycle[:1])}
    z5 = catalog()["Z5"]
    sys = GSystem(Action(z5, sp, _cyclic_rows(sp, h, 5)), _table(sp, step))
    out.append(Fixture(
        "interval-tails", sys,
        {
            "p1": True, "p2": True, "equivariant": False,
            "gt": True, "tgt": False, "wgm": False, "sgm": False, "gm": False,
            "cover": False,
            "minimal_sets": (("-1",), ("0",), ("1",)),
            "quotient": (False, False),
        },
        "transitive while its square is not: the square preserves the"
        " two action orbits that the map itself alternates",
    ))

    # rotation on Z4 commuting with the half-turn
    sp = discrete_space(("0", "1", "2", "3"))
    sys = GSystem(
        Action(z2, sp, _perm_rows(sp, [{}, {"0": "2", "1": "3", "2": "0", "3": "1"}])),
        _table(sp, {"0": "1", "1": "2", "2": "3", "3": "0"}),
    )
    out.append(Fixture(
        "z4mod2", sys,
        {
            "p1": True, "p2": True, "equivariant": True,
            "gt": True, "tgt": False, "wgm": False, "sgm": False, "gm": True,
            "cover": True, "minimal_sets": (("0", "1", "2", "3"),),
            "quotient": (True, True),
        },
        "equivariant rotation whose orbit space is the two-point swap",
    ))

    # doubling on Z5 with the negation action: a fixed point plus a cycle
    sp = discrete_space(("0", "1", "2", "3", "4"))
    sys = GSystem(
        Action(z2, sp, _perm_rows(sp, [{}, {"1": "4", "4": "1", "2": "3", "3": "2"}])),
        _table(sp, {"0": "0", "1": "2", "2": "4", "3": "1", "4": "3"}),
    )
    out.append(Fixture(
        "double-mod5", sys,
        {
            "p1": True, "p2": True, "equivariant": True,
            "gt": False, "tgt": False, "wgm": False, "sgm": False, "gm": False,
            "cover": False, "minimal_sets": (("0",), ("1", "2", "3", "4")),
            "quotient": (False, False),
        },
        "two disjoint minimal cores,"
        " so nothing global holds while both cores are internally minimal",
    ))

    # a map that is not orbit-preserving: collapses the swapped pair
    # onto the fixed point's basin
    sp = discrete_space(("0", "1", "2"))
    sys = GSystem(
        Action(z2, sp, _perm_rows(sp, [{}, {"0": "1", "1": "0"}])),
        _table(sp, {"0": "2", "1": "0", "2": "2"}),
    )
    out.append(Fixture(
        "skew3", sys,
        {
            "p1": False, "p2": False, "equivariant": False,
            "gt": False, "tgt": False, "wgm": False, "sgm": False, "gm": False,
            "cover": False, "minimal_sets": (("2",),),
            "quotient": None,
        },
        "exercises the general minimal-set search: no induced quotient map",
    ))
    return out


def _fixture_profile(sys: GSystem) -> dict:
    got: dict = profile(sys)
    got["minimal_sets"] = tuple(sys.space.names(m) for m in g_minimal_sets(sys))
    got["quotient"] = None
    if got["p1"]:
        qm = quotient_minimality(sys)
        got["quotient"] = (qm.gm, qm.induced_minimal)
    return got


def fixtures(verify: bool = True) -> list[Fixture]:
    """The worked systems.  With verify (the default) every stored verdict
    is recomputed on load and a mismatch is a hard failure."""
    out = _build_fixtures()
    if verify:
        for fx in out:
            got = _fixture_profile(fx.system)
            for key, want in fx.expected.items():
                if got[key] != want:
                    raise RuntimeError(
                        f"internal: fixture {fx.name}: {key} is {got[key]!r},"
                        f" expected {want!r}"
                    )
    return out


# -- random generation --------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    max_points: int = 5
    groups: tuple[str, ...] | None = None
    mode: str = "preorder"
    pseudoequivariant_only: bool = False
    budget: int = 4000


_auto_cache: dict[tuple, list] = {}


def _autos(space: Space) -> list[tuple[int, ...]]:
    key = (space.n, space.min_open)
    got = _auto_cache.get(key)
    if got is None:
        got = automorphisms(space)
        _auto_cache[key] = got
    return got


def _extend_hom(group: Group, gens: tuple[int, ...],
                images: Mapping[int, tuple[int, ...]], n: int):
    """Extend generator images to a full homomorphism into the symmetric
    group, or return None if the images are inconsistent.  With
    automorphisms of the space as images the result is a valid action
    table: the identity acts trivially, the homomorphism law is checked
    and every row is a composite of homeomorphisms."""
    phi: list = [None] * group.order
    phi[group.identity] = identity_table(n)
    queue = [group.identity]
    while queue:
        g = queue.pop()
        for s in gens:
            g2 = group.mul[g][s]
            t = compose(phi[g], images[s])
            if phi[g2] is None:
                phi[g2] = t
                queue.append(g2)
            elif phi[g2] != t:
                return None
    for a in range(group.order):
        for b in range(group.order):
            if compose(phi[a], phi[b]) != phi[group.mul[a][b]]:
                return None
    return phi


def _sample_action(rng: random.Random, group: Group, space: Space,
                   attempts: int = 60) -> Action:
    autos = _autos(space)
    gens = group.generators()
    for _ in range(attempts):
        images = {s: rng.choice(autos) for s in gens}
        phi = _extend_hom(group, gens, images, space.n)
        if phi is not None:
            return Action._trusted(group, space, tuple(phi))
    ident = identity_table(space.n)
    return Action._trusted(group, space, tuple(ident for _ in range(group.order)))


def _sample_map(rng: random.Random, action: Action,
                pseudo_only: bool, budget: int) -> tuple[int, ...]:
    space = action.space
    n = space.n
    for _ in range(budget):
        if rng.random() < 0.3:
            t = list(range(n))
            rng.shuffle(t)
            table = tuple(t)
        else:
            table = tuple(rng.randrange(n) for _ in range(n))
        if find_discontinuity(space, table) is not None:
            continue
        if pseudo_only and not is_pseudoequivariant(action, table):
            continue
        return table
    raise GenerationError(
        f"no admissible map found within {budget} attempts"
    )


def _random_preorder_space(rng: random.Random, names: tuple[str, ...]) -> Space:
    n = len(names)
    p = min(1.0, 1.2 / n)
    adj = [[i == j or rng.random() < p for j in range(n)] for i in range(n)]
    mo = []
    for i in range(n):
        # reachable set of i, which is automatically downward consistent
        seen = 1 << i
        stack = [i]
        while stack:
            x = stack.pop()
            for j in range(n):
                if adj[x][j] and not (seen >> j) & 1:
                    seen |= 1 << j
                    stack.append(j)
        mo.append(seen)
    return Space(names, tuple(mo))


def generate(cfg: GeneratorConfig) -> GSystem:
    """Deterministically build a random system from the config seed."""
    if not 1 <= cfg.max_points <= 8:
        raise ValidationError("generator: max_points must be in 1..8")
    if cfg.mode not in ("discrete", "preorder"):
        raise ValidationError(f"generator: unknown mode '{cfg.mode}'")
    pool = cfg.groups if cfg.groups is not None else DefaultGroupPool
    cat = catalog()
    for name in pool:
        if name not in cat:
            raise ValidationError(f"generator: unknown group '{name}'")
    rng = random.Random(cfg.seed)
    n = rng.randint(1, cfg.max_points)
    names = tuple(f"x{i}" for i in range(n))
    if cfg.mode == "discrete":
        space = discrete_space(names)
    else:
        space = _random_preorder_space(rng, names)
    group = cat[rng.choice(list(pool))]
    action = _sample_action(rng, group, space)
    f = _sample_map(rng, action, cfg.pseudoequivariant_only, cfg.budget)
    return GSystem._trusted(action, f)


def generate_robust(cfg: GeneratorConfig, retries: int = 8) -> GSystem:
    """Like generate, but on a failed rejection budget deterministically
    reseeds and tries again a bounded number of times."""
    last = None
    for r in range(retries):
        try:
            return generate(replace(cfg, seed=cfg.seed + r * 1_000_003))
        except GenerationError as exc:
            last = exc
    raise GenerationError(f"generation failed after {retries} reseeds: {last}")


# -- exhaustive enumeration ---------------------------------------------------


def all_spaces(n: int) -> Iterator[Space]:
    """Every topology on n labeled points, as a space."""
    names = tuple(f"x{i}" for i in range(n))
    choices = [
        [m for m in range(1 << n) if (m >> x) & 1] for x in range(n)
    ]
    for combo in itertools.product(*choices):
        ok = True
        for x in range(n):
            for y in bits(combo[x]):
                if combo[y] & ~combo[x]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield Space(names, combo)


def _all_homs(group: Group, autos: list[tuple[int, ...]], n: int):
    gens = group.generators()
    seen = set()
    for images in itertools.product(autos, repeat=len(gens)):
        phi = _extend_hom(group, gens, dict(zip(gens, images)), n)
        if phi is not None:
            key = tuple(phi)
            if key not in seen:
                seen.add(key)
                yield key


def enumerate_systems(max_points: int = 3,
                      group_names: tuple[str, ...] = ("Z1", "Z2", "Z3"),
                      ) -> Iterator[GSystem]:
    """Every system on at most max_points points over the named groups:
    all topologies, all actions, all continuous maps.  Deterministic
    order, suitable for exhaustive sweeps."""
    cat = catalog()
    for n in range(1, max_points + 1):
        for space in all_spaces(n):
            autos = _autos(space)
            conts = [
                t for t in itertools.product(range(n), repeat=n)
                if find_discontinuity(space, t) is None
            ]
            for gname in group_names:
                group = cat[gname]
                for phi in _all_homs(group, autos, n):
                    action = Action._trusted(group, space, phi)
                    for f in conts:
                        yield GSystem._trusted(action, f)


# -- property miner -----------------------------------------------------------


def parse_target(expr: str) -> tuple[tuple[str, bool], ...]:
    """Conjunction of property literals, e.g. 'gt&!tgt', in the order of
    the property table (cheapest first)."""
    lits: dict[str, bool] = {}
    for part in expr.split("&"):
        part = part.strip()
        if not part:
            raise ValidationError("target: empty literal")
        want = True
        if part.startswith("!"):
            want = False
            part = part[1:].strip()
        if part not in Verdicts:
            raise ValidationError(f"target: unknown property '{part}'")
        if part in lits and lits[part] != want:
            raise ValidationError(f"target: contradictory literals for '{part}'")
        lits[part] = want
    return tuple((name, lits[name]) for name in Verdicts if name in lits)


def _matches(sys: GSystem, lits) -> bool:
    return all(Verdicts[name](sys) is want for name, want in lits)


def verify_against_oracle(sys: GSystem, lits) -> None:
    ctx = oracle.OracleContext(sys)
    for name, want in lits:
        if oracle.Verdicts[name](sys, ctx) is not want:
            raise RuntimeError(
                f"internal: mined witness fails oracle check for {name}"
            )


@dataclass(frozen=True)
class MineResult:
    target: str
    found: bool
    system: GSystem | None
    phase: str | None
    detail: str
    record: Mapping = field(default_factory=dict)


def mine(target: str, seed: int = 0, budget: int = 100_000,
         sweep: bool = True) -> MineResult:
    """Search for a system matching the target expression: first an
    exhaustive sweep of all systems on up to three points over Z1, Z2
    and Z3, then seeded random trials.  A found witness is re-verified
    literal by literal against the brute-force oracle.  The returned
    record makes an exhausted search reproducible."""
    lits = parse_target(target)
    if budget < 0:
        raise ValidationError(f"mine: budget must be >= 0, got {budget}")
    sweep_checked = 0
    if sweep:
        for sys in enumerate_systems():
            sweep_checked += 1
            if _matches(sys, lits):
                verify_against_oracle(sys, lits)
                return MineResult(
                    target, True, sys, "sweep",
                    f"sweep index {sweep_checked - 1}",
                    {"target": target, "seed": seed, "budget": budget,
                     "sweep_checked": sweep_checked, "random_trials": 0},
                )
    rng = random.Random(seed)
    pool = DefaultGroupPool
    modes = ("discrete", "preorder")
    trials = 0
    for t in range(budget):
        trials += 1
        cfg = GeneratorConfig(
            seed=rng.randrange(1 << 62),
            max_points=rng.randint(2, 5),
            groups=(pool[t % len(pool)],),
            mode=modes[t % 2],
        )
        try:
            sys = generate(cfg)
        except GenerationError:
            continue
        if _matches(sys, lits):
            verify_against_oracle(sys, lits)
            return MineResult(
                target, True, sys, "random",
                f"seed {seed} trial {t}",
                {"target": target, "seed": seed, "budget": budget,
                 "sweep_checked": sweep_checked, "random_trials": trials},
            )
    return MineResult(
        target, False, None, None, "exhausted",
        {"target": target, "seed": seed, "budget": budget,
         "sweep_checked": sweep_checked, "random_trials": trials},
    )


# -- implication suite --------------------------------------------------------


@dataclass
class SuiteReport:
    systems_checked: int
    antecedents: dict[str, int]
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def suite_configs(trials: int, seed0: int = 0,
                  max_points: int = 6) -> list[GeneratorConfig]:
    """A rotation over sizes, groups, space modes and the
    pseudoequivariance filter."""
    modes = ("discrete", "preorder")
    pools: tuple = (("Z1",), ("Z2",), ("Z3",), ("Z4",), ("Z2xZ2",), None)
    return [
        GeneratorConfig(
            seed=seed0 + i,
            max_points=2 + (i % (max_points - 1)),
            groups=pools[i % len(pools)],
            mode=modes[i % 2],
            pseudoequivariant_only=(i % 4 == 3),
        )
        for i in range(trials)
    ]


def check_system_implications(sys: GSystem, antecedents: Counter,
                              violations: list, label: str) -> None:
    v = profile(sys)
    p1, p2, gm = v["p1"], v["p2"], v["gm"]
    gt, tgt, wgm, sgm = v["gt"], v["tgt"], v["wgm"], v["sgm"]
    cond = sgm_sufficient_condition(sys)
    msets = g_minimal_sets(sys)
    discrete = sys.space.is_discrete()
    full = sys.space.full

    def disjoint_invariant_cores() -> bool:
        if not msets:
            return False
        seen = 0
        for m in msets:
            if m & seen:
                return False
            seen |= m
        if discrete and any(map_image(sys.f, m) != m for m in msets):
            return False
        return True

    def quotient_agrees() -> bool:
        qm = quotient_minimality(sys)
        return qm.gm == gm and qm.induced_minimal == gm

    items = (
        ("sgm->wgm", sgm, lambda: wgm),
        ("sgm->tgt", sgm, lambda: tgt),
        ("tgt->gt", tgt, lambda: gt),
        ("gm->gt", gm, lambda: gt),
        ("p1&wgm->tgt", p1 and wgm, lambda: tgt),
        ("p1&wgm->3fold", p1 and wgm,
         lambda: is_n_fold_transitive(sys, 3).verdict),
        ("p1&p2&tgt->wgm", p1 and p2 and tgt, lambda: wgm),
        ("condition->sgm", cond.applies,
         lambda: cond.conclusion_checked is True),
        ("p1&gm->image-dense", p1 and gm,
         lambda: sys.space.is_dense(map_image(sys.f, full))),
        ("discrete&p1&gm->orbits-cover", discrete and p1 and gm,
         lambda: all(gf_orbit(sys, x) == full for x in range(sys.space.n))),
        ("p1&gt->cores-full-or-thin", p1 and gt,
         lambda: all(m == full or sys.space.is_nowhere_dense(m)
                     for m in msets)),
        ("p1->gm-iff-induced", p1, quotient_agrees),
        ("p1->gm-iff-cover", p1, lambda: gm == v["cover"]),
        ("p1->disjoint-cores", p1, disjoint_invariant_cores),
        ("periodic-dense->p2",
         sys.space.is_dense(periodic_points(sys)), lambda: p2),
        ("equivariant->p1", v["equivariant"], lambda: p1),
    )
    for name, antecedent, consequent in items:
        if antecedent:
            antecedents[name] += 1
            if not consequent():
                violations.append({
                    "assertion": name,
                    "label": label,
                    "system": serialize(sys),
                })


def run_implication_suite(configs) -> SuiteReport:
    """Generate a system per config and assert every implication of the
    property diagram on it.  Violations carry the serialized system."""
    antecedents: Counter = Counter()
    violations: list[dict] = []
    checked = 0
    for cfg in configs:
        try:
            sys = generate_robust(cfg)
        except GenerationError:
            continue
        checked += 1
        check_system_implications(
            sys, antecedents, violations, label=f"seed={cfg.seed}"
        )
    return SuiteReport(checked, dict(antecedents), violations)
