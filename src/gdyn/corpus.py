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

import _random
import functools
import itertools
import random
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace

from . import oracle
from .algebra import Action, Group, catalog, is_pseudoequivariant
from .checkers import (
    Implications,
    Verdicts,
    g_minimal_sets,
    is_n_fold_transitive,
    profile,
    quotient_minimality,
    sgm_sufficient_condition,
)
from .dynamics import GSystem, IterateCache, periodic_points
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
# homomorphisms drawn for an action before the trivial action is used
ActionAttempts = 60
# random tables drawn for a map before generation fails
MapAttempts = 4000
# reseeds of ``generate_robust`` after a failed rejection budget
Reseeds = 8
# entries in each generator memo (automorphisms per space, actions per
# draw), least recently used evicted first
MemoEntries = 4096
# the largest carrier the generator accepts as ``max_points``
GeneratorMaxPoints = 8
# the largest size in the implication suite's rotation of sizes
SuiteMaxPoints = 6


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


# the generator's point names by carrier size
_Names = tuple(tuple(f"x{i}" for i in range(n))
               for n in range(GeneratorMaxPoints + 1))
# the minimal opens of the discrete space by carrier size
_DiscreteOpens = tuple(tuple(1 << i for i in range(n))
                       for n in range(GeneratorMaxPoints + 1))


def _below(getrandbits, n: int) -> int:
    """A draw from range(n), n >= 1, made from ``getrandbits`` exactly as
    ``random.Random._randbelow`` makes it on CPython 3.10 to 3.13: k-bit
    draws, k the bit length of n, until one is below n.  Through it
    ``rng.choice(seq)`` is ``seq[_below(rng.getrandbits, len(seq))]``,
    ``rng.randrange(n)`` is ``_below(rng.getrandbits, n)`` and
    ``rng.randint(a, b)`` is ``a + _below(rng.getrandbits, b - a + 1)``,
    with the same draws from the same stream."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _draw_table(getrandbits, n: int) -> tuple[int, ...]:
    """n draws from range(n), n >= 1, each made as ``_below`` makes it,
    with the bit length found once: the table that
    ``[rng.randrange(n) for _ in range(n)]`` makes, from the same draws."""
    k = n.bit_length()
    out = []
    for _ in range(n):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return tuple(out)


def _permutation(getrandbits, n: int) -> tuple[int, ...]:
    """The table that ``rng.shuffle`` leaves in ``list(range(n))``, from
    the same draws: for i from n - 1 down to 1, swap i with a draw below
    i + 1.  Shuffling any list of n items moves them the same way."""
    t = list(range(n))
    for i in range(n - 1, 0, -1):
        j = _below(getrandbits, i + 1)
        t[i], t[j] = t[j], t[i]
    return tuple(t)


@functools.lru_cache(maxsize=MemoEntries)
def _autos(min_open: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The automorphisms of the space with these minimal opens."""
    return tuple(automorphisms(Space._trusted(_Names[len(min_open)], min_open)))


def _extend_hom(group: Group, gens: tuple[int, ...],
                images: Mapping[int, tuple[int, ...]], n: int):
    """Extend generator images to a homomorphism into the symmetric group,
    or return None if they are inconsistent.  The walk checks
    phi(g.s) = phi(g) o phi(s) on every Cayley-graph edge from phi(e) = id;
    the b with phi(a.b) = phi(a) o phi(b) for all a are then closed under
    right products with the generators, so the law holds on all of G.
    With automorphisms as images the table is a valid action."""
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
    return phi


@functools.lru_cache(maxsize=MemoEntries)
def _drawn_action(group_name: str, min_open: tuple[int, ...],
                  drawn: tuple[int, ...] | None) -> Action | None:
    """The catalog group's action on the space with these minimal opens
    in which each generator acts by the automorphism of its drawn index,
    or None where the draw does not extend to a homomorphism; drawn None
    gives the trivial action.  Generated and enumerated spaces are named
    by their size, so equal keys give one Action, whose orbits, scan
    columns and atoms are built once."""
    group = catalog()[group_name]
    n = len(min_open)
    space = Space._trusted(_Names[n], min_open)
    if drawn is None:
        ident = identity_table(n)
        return Action._trusted(group, space, tuple(ident for _ in range(group.order)))
    autos = _autos(min_open)
    gens = group.generators()
    phi = _extend_hom(group, gens, {s: autos[i] for s, i in zip(gens, drawn)}, n)
    return None if phi is None else Action._trusted(group, space, tuple(phi))


def _sample_action(getrandbits, group: Group, min_open: tuple[int, ...]) -> Action:
    """Draw generator images until they extend to a homomorphism, else
    take the trivial action.  Each image is drawn as
    ``rng.choice(autos)``, here by its index."""
    count = len(_autos(min_open))
    gens = group.generators()
    for _ in range(ActionAttempts):
        drawn = tuple([_below(getrandbits, count) for _ in gens])
        action = _drawn_action(group.name, min_open, drawn)
        if action is not None:
            return action
    return _drawn_action(group.name, min_open, None)


def _sample_map(rng: random.Random, action: Action,
                pseudo_only: bool) -> tuple[int, ...]:
    """Draw tables until one is continuous and, with pseudo_only,
    pseudoequivariant: with chance 0.3 a shuffled identity, else n
    entries each drawn as ``rng.randrange(n)``.  The action's space is
    memoised with it, so its continuity plan is built once."""
    space = action.space
    n = space.n
    chance, getrandbits = rng.random, rng.getrandbits
    for _ in range(MapAttempts):
        if chance() < 0.3:
            table = _permutation(getrandbits, n)
        else:
            table = _draw_table(getrandbits, n)
        if find_discontinuity(space, table) is None and (
                not pseudo_only or is_pseudoequivariant(action, table)):
            return table
    raise GenerationError(
        f"no admissible map found within {MapAttempts} attempts"
    )


def _random_preorder(chance, n: int) -> tuple[int, ...]:
    """The minimal opens of a random preorder on n points: each arrow
    i -> j (i != j, row by row) drawn with chance min(1, 1.2 / n), and
    min_open(i) the set reachable from i, closed by Warshall's algorithm
    on bitmask rows.  Reachable sets satisfy the base condition."""
    p = min(1.0, 1.2 / n)
    reach = []
    for i in range(n):
        row = 1 << i
        for j in range(n):
            if j != i and chance() < p:
                row |= 1 << j
        reach.append(row)
    for k in range(n):
        bit, row_k = 1 << k, reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row_k
    return tuple(reach)


def _catalog_groups(names, where: str) -> tuple[Group, ...]:
    """The catalog groups of these names."""
    cat = catalog()
    for name in names:
        if name not in cat:
            raise ValidationError(f"{where}: unknown group '{name}'")
    return tuple(cat[name] for name in names)


def _draw(rng: random.Random, max_points: int, groups: tuple[Group, ...],
          discrete: bool, pseudo_only: bool) -> tuple[Action, tuple[int, ...]]:
    """The action and map of the system ``generate`` makes from arguments
    it has validated, and ``rng`` seeded with the config seed: the size,
    the space, the group, the action and the map, drawn in that order."""
    getrandbits = rng.getrandbits
    n = 1 + _below(getrandbits, max_points)
    min_open = _DiscreteOpens[n] if discrete else _random_preorder(rng.random, n)
    group = groups[_below(getrandbits, len(groups))]
    action = _sample_action(getrandbits, group, min_open)
    return action, _sample_map(rng, action, pseudo_only)


def generate(cfg: GeneratorConfig) -> GSystem:
    """Deterministically build a random system from the config seed."""
    m = cfg.max_points
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= GeneratorMaxPoints:
        raise ValidationError(
            f"generator: max_points must be an int in 1..{GeneratorMaxPoints},"
            f" got {m!r}")
    if cfg.mode not in ("discrete", "preorder"):
        raise ValidationError(f"generator: unknown mode '{cfg.mode}'")
    pool = cfg.groups if cfg.groups is not None else DefaultGroupPool
    if not pool:
        raise ValidationError("generator: the group pool is empty")
    groups = _catalog_groups(pool, "generator")
    return GSystem._trusted(*_draw(random.Random(cfg.seed), m, groups,
                                   cfg.mode == "discrete", cfg.pseudoequivariant_only))


def generate_robust(cfg: GeneratorConfig) -> GSystem:
    """Like generate, but on a failed rejection budget deterministically
    reseeds and tries again a bounded number of times."""
    last = None
    for r in range(Reseeds):
        try:
            return generate(replace(cfg, seed=cfg.seed + r * 1_000_003))
        except GenerationError as exc:
            last = exc
    raise GenerationError(f"generation failed after {Reseeds} reseeds: {last}")


# -- exhaustive enumeration ---------------------------------------------------


def all_spaces(n: int) -> Iterator[Space]:
    """Every topology on n labeled points, as a space, in the product
    order of the minimal-open choices (each x's a superset of {x}).  The
    base condition relates two points at a time, so each point's choice
    is checked against the points chosen before it and a choice that
    fails cuts off every extension."""
    names = tuple(f"x{i}" for i in range(n))
    choices = [
        [m for m in range(1 << n) if (m >> x) & 1] for x in range(n)
    ]
    combo = [0] * n

    def extend(x: int) -> Iterator[Space]:
        if x == n:
            yield Space._trusted(names, tuple(combo))
            return
        for m in choices[x]:
            # y in min_open(x) needs min_open(y) <= min_open(x), and back
            if all((not (m >> y) & 1 or not combo[y] & ~m)
                   and (not (combo[y] >> x) & 1 or not m & ~combo[y])
                   for y in range(x)):
                combo[x] = m
                yield from extend(x + 1)

    return extend(0)


def enumerate_systems(max_points: int = 3,
                      group_names: tuple[str, ...] = ("Z1", "Z2", "Z3"),
                      ) -> Iterator[GSystem]:
    """Every system on at most max_points points over the named groups:
    all topologies, all actions, all continuous maps.  Deterministic
    order, suitable for exhaustive sweeps.  Systems with the same map
    share one iterate cache, built on the map's first use in the call,
    and each action is the generator's memoised one for its draw."""
    groups = _catalog_groups(group_names, "enumerate")
    for n in range(1, max_points + 1):
        caches: dict[tuple[int, ...], IterateCache] = {}
        for space in all_spaces(n):
            picks = range(len(_autos(space.min_open)))
            conts = []
            for t in itertools.product(range(n), repeat=n):
                if find_discontinuity(space, t) is None:
                    cache = caches.get(t)
                    if cache is None:
                        cache = caches[t] = IterateCache(t)
                    conts.append((t, cache))
            for group in groups:
                # every draw of generator images, in product order
                gens = group.generators()
                for drawn in itertools.product(picks, repeat=len(gens)):
                    action = _drawn_action(group.name, space.min_open, drawn)
                    if action is not None:
                        for f, cache in conts:
                            yield GSystem._trusted(action, f, cache)


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
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValidationError(f"mine: budget must be an int >= 0, got {budget!r}")
    sweep_checked = trials = 0

    def result(system: GSystem | None, phase: str | None, detail: str) -> MineResult:
        return MineResult(
            target, system is not None, system, phase, detail,
            {"target": target, "seed": seed, "budget": budget,
             "sweep_checked": sweep_checked, "random_trials": trials},
        )

    if sweep:
        for sys in enumerate_systems():
            sweep_checked += 1
            if _matches(sys, lits):
                verify_against_oracle(sys, lits)
                return result(sys, "sweep", f"sweep index {sweep_checked - 1}")
    # each trial is generate(GeneratorConfig(seed=rng.randrange(1 << 62),
    # max_points=rng.randint(2, 5), groups=(pool[t % len(pool)],),
    # mode=("discrete", "preorder")[t % 2])), drawn without the config.
    # The trial generator is reseeded by ``_random.Random.seed``, which is
    # what ``Random.seed`` does with an int seed, less the reset of the
    # ``gauss`` state, which no draw here reads
    getrandbits = random.Random(seed).getrandbits
    cat = catalog()
    pools = tuple((cat[name],) for name in DefaultGroupPool)
    trial_rng, reseed = random.Random(), _random.Random.seed
    decided: set[tuple] = set()  # a repeated system is counted, not decided again
    caches: dict[tuple[int, ...], IterateCache] = {}  # one per map table
    for t in range(budget):
        trials += 1
        trial_seed = _below(getrandbits, 1 << 62)
        max_points = 2 + _below(getrandbits, 4)
        reseed(trial_rng, trial_seed)
        try:
            action, f = _draw(trial_rng, max_points, pools[t % len(pools)], t % 2 == 0, False)
        except GenerationError:
            continue
        key = (action.group.name, action.space.min_open, action.act, f)
        if key in decided:
            continue
        decided.add(key)
        cache = caches.get(f)
        if cache is None:
            cache = caches[f] = IterateCache(f)
        sys = GSystem._trusted(action, f, cache)
        if _matches(sys, lits):
            verify_against_oracle(sys, lits)
            return result(sys, "random", f"seed {seed} trial {t}")
    return result(None, None, "exhausted")


# -- implication suite --------------------------------------------------------


@dataclass
class SuiteReport:
    systems_checked: int
    antecedents: dict[str, int]
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def suite_configs(trials: int, seed0: int = 0) -> list[GeneratorConfig]:
    """A rotation over sizes, groups, space modes and the
    pseudoequivariance filter."""
    modes = ("discrete", "preorder")
    pools: tuple = (("Z1",), ("Z2",), ("Z3",), ("Z4",), ("Z2xZ2",), None)
    return [
        GeneratorConfig(
            seed=seed0 + i,
            max_points=2 + (i % (SuiteMaxPoints - 1)),
            groups=pools[i % len(pools)],
            mode=modes[i % 2],
            pseudoequivariant_only=(i % 4 == 3),
        )
        for i in range(trials)
    ]


def check_system_implications(sys: GSystem, antecedents: Counter,
                              violations: list, label: str) -> None:
    v = profile(sys)
    p1, p2, gm, gt, wgm = v["p1"], v["p2"], v["gm"], v["gt"], v["wgm"]
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

    items = (
        *((name, all(v[a] for a in antecedent), lambda c=consequent: v[c])
          for name, antecedent, consequent in Implications),
        ("p1&wgm->3fold", p1 and wgm,
         lambda: is_n_fold_transitive(sys, 3).verdict),
        ("condition->sgm", cond.applies,
         lambda: cond.conclusion_checked is True),
        ("p1&gm->image-dense", p1 and gm,
         lambda: sys.space.is_dense(map_image(sys.f, full))),
        ("discrete&p1&gm->orbits-cover", discrete and p1 and gm,
         lambda: all(sys.action.saturate(o) == full for o in sys.cache().fwd)),
        ("p1&gt->cores-full-or-thin", p1 and gt,
         lambda: all(m == full or sys.space.is_nowhere_dense(m)
                     for m in msets)),
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
