"""Worked systems, a seeded random generator, exhaustive enumeration of
small systems, a property miner and the implication test suite.

The fixtures are system files shipped under ``data/``, whose property
profiles were worked out by hand.  Each file is ``serialize``'s output
with comment lines that ``parse`` skips: one ``# note <text>``, one
``# expect key=value ...`` with the verdicts (``true``, ``false``, the
pair ``gm,induced_minimal`` of the quotient, or ``none`` where there is
no induced quotient map) and one ``# expect minimal-set <point> ...`` per
G-minimal set.  Loading them re-derives every verdict and refuses to
hand out a fixture that disagrees with its table.  Together they
separate the properties pairwise: transitive but not totally transitive,
strongly mixing but not minimal, minimal but not mixing, and so on.

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
from pathlib import Path
from typing import NamedTuple

from .algebra import Action, Group, catalog, is_pseudoequivariant
from .checkers import (
    Implications,
    Verdicts,
    action_admits,
    atom_demand,
    g_minimal_sets,
    is_n_fold_transitive,
    profile,
    quotient_minimality,
    space_admits,
)
from .dynamics import GSystem, IterateCache, periodic_points
from .errors import GenerationError, ValidationError
from .sysfile import parse, serialize
from .topology import (
    Space,
    automorphisms,
    compose,
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
# the bounds of the miner's exhaustive sweep: every system on at most
# SweepPoints points over the SweepGroups
SweepPoints = 3
SweepGroups = ("Z1", "Z2", "Z3")


# -- fixtures -----------------------------------------------------------------


class Fixture(NamedTuple):
    name: str
    system: GSystem
    expected: Mapping
    note: str = ""


# the files under data/, by fixture name, in the order ``fixtures`` returns them
FixtureNames = ("disc2-swap", "sierpinski-id", "z2swap-id", "z2swap-id-trivial",
                "rot4", "two-triangles", "interval-tails", "z4mod2", "double-mod5",
                "skew3")
_Words = {"true": True, "false": False, "none": None}


def _load_fixture(name: str) -> Fixture:
    """The system in ``data/<name>.gds``, with the table of its
    ``# expect`` lines and the text of its ``# note`` line."""
    text = (Path(__file__).parent / "data" / f"{name}.gds").read_text(encoding="utf-8")
    expected: dict = {}
    sets = []
    note = ""
    for line in text.splitlines():
        if line.startswith("# note "):
            note = line[len("# note "):]
        elif line.startswith("# expect minimal-set "):
            sets.append(tuple(line.split()[3:]))
        elif line.startswith("# expect "):
            for item in line.split()[2:]:
                key, _, value = item.partition("=")
                words = tuple(_Words[w] for w in value.split(","))
                expected[key] = words if len(words) > 1 else words[0]
    expected["minimal_sets"] = tuple(sets)
    return Fixture(name, parse(text), expected, note)


def _fixture_profile(sys: GSystem) -> dict:
    got: dict = profile(sys)
    got["minimal_sets"] = tuple(sys.space.names(m) for m in g_minimal_sets(sys))
    got["quotient"] = None
    if got["p1"]:
        qm = quotient_minimality(sys)
        got["quotient"] = (qm.gm, qm.induced_minimal)
    return got


def fixtures(verify: bool = True) -> list[Fixture]:
    """The worked systems, parsed from their files in the order of
    ``FixtureNames``.  With verify (the default) every stored verdict is
    recomputed on load and a mismatch is a hard failure."""
    out = [_load_fixture(name) for name in FixtureNames]
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


class GeneratorConfig(NamedTuple):
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


def _check_int(where: str, name: str, value, low: int, high: int | None = None) -> None:
    """Raise ValidationError unless value is an int, not a bool, in
    low..high (at least low where high is None)."""
    if (isinstance(value, bool) or not isinstance(value, int) or value < low
            or high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValidationError(f"{where}: {name} must be an int {bounds}, got {value!r}")


def _catalog_groups(names, where: str) -> tuple[Group, ...]:
    """The catalog groups of these names, at least one."""
    if not names:
        raise ValidationError(f"{where}: the group pool is empty")
    if isinstance(names, str):
        raise ValidationError(
            f"{where}: groups must be a tuple of names, not the string {names!r}")
    cat = catalog()
    for name in names:
        if name not in cat:
            raise ValidationError(f"{where}: unknown group '{name}'")
    return tuple(cat[name] for name in names)


def _draw_space(rng: random.Random, n: int, discrete: bool) -> tuple[int, ...]:
    """The minimal opens of the space of a system that ``generate``
    makes, ``rng`` seeded with the config seed and n its drawn size: the
    discrete space draws nothing, a random preorder draws its arrows.
    The group and the action are drawn next (``_draw_action``)."""
    return _DiscreteOpens[n] if discrete else _random_preorder(rng.random, n)


def _draw_action(rng: random.Random, groups: tuple[Group, ...],
                 min_open: tuple[int, ...]) -> Action:
    """The group, then its action on the space ``_draw_space`` drew, from
    the same ``rng``.  The map is drawn next (``_sample_map``)."""
    getrandbits = rng.getrandbits
    group = groups[_below(getrandbits, len(groups))]
    return _sample_action(getrandbits, group, min_open)


def generate(cfg: GeneratorConfig) -> GSystem:
    """Deterministically build a random system from the config seed."""
    _check_int("generator", "seed", cfg.seed, 0)
    m = cfg.max_points
    _check_int("generator", "max_points", m, 1, GeneratorMaxPoints)
    if cfg.mode not in ("discrete", "preorder"):
        raise ValidationError(f"generator: unknown mode '{cfg.mode}'")
    pool = cfg.groups if cfg.groups is not None else DefaultGroupPool
    groups = _catalog_groups(pool, "generator")
    rng = random.Random(cfg.seed)
    n = 1 + _below(rng.getrandbits, m)
    min_open = _draw_space(rng, n, cfg.mode == "discrete")
    action = _draw_action(rng, groups, min_open)
    return GSystem._trusted(action, _sample_map(rng, action, cfg.pseudoequivariant_only))


def generate_robust(cfg: GeneratorConfig) -> GSystem:
    """Like generate, but on a failed rejection budget deterministically
    reseeds and tries again a bounded number of times."""
    _check_int("generator", "seed", cfg.seed, 0)
    last = None
    for r in range(Reseeds):
        try:
            return generate(cfg._replace(seed=cfg.seed + r * 1_000_003))
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
    _check_int("enumerate", "n", n, 1)
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


def enumerate_systems(max_points: int = SweepPoints,
                      group_names: tuple[str, ...] = SweepGroups,
                      ) -> Iterator[GSystem]:
    """Every system on at most max_points points over the named groups:
    all topologies, all actions, all continuous maps.  Deterministic
    order, suitable for exhaustive sweeps.  Systems with the same map
    share one iterate cache, built on the map's first use in the call,
    and each action is the generator's memoised one for its draw."""
    return (GSystem._trusted(action, f, cache)
            for action, maps in _enumerate_actions(max_points, group_names)
            for f, cache in maps)


def _enumerate_actions(max_points: int, group_names: tuple[str, ...],
                       ) -> Iterator[tuple[Action, list[tuple[tuple[int, ...], IterateCache]]]]:
    """``enumerate_systems``' systems grouped by action, in the same
    order: each action with the continuous maps of its space and their
    iterate caches.  The arguments are checked on the call."""
    _check_int("enumerate", "max_points", max_points, 1)
    groups = _catalog_groups(group_names, "enumerate")

    def actions() -> Iterator[tuple[Action, list[tuple[tuple[int, ...], IterateCache]]]]:
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
                            yield action, conts

    return actions()


# -- property miner -----------------------------------------------------------


def parse_target(expr: str) -> tuple[tuple[str, bool], ...]:
    """Conjunction of property literals, e.g. 'gt&!tgt', in the order of
    the property table (cheapest first)."""
    if not isinstance(expr, str):
        raise ValidationError(f"target: expected a string, got {expr!r}")
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
    # a loop, not all() over a generator: with the verdicts memoised on the
    # iterate cache, the generator cost as much as the verdicts
    for name, want in lits:
        if Verdicts[name](sys) is not want:
            return False
    return True


def verify_against_oracle(sys: GSystem, lits) -> None:
    from . import oracle  # only a found witness needs it

    ctx = oracle.OracleContext(sys)
    for name, want in lits:
        if oracle.Verdicts[name](sys, ctx) is not want:
            raise RuntimeError(
                f"internal: mined witness fails oracle check for {name}"
            )


class MineResult(NamedTuple):
    target: str
    found: bool
    system: GSystem | None
    phase: str | None
    detail: str
    record: Mapping


def mine(target: str, seed: int = 0, budget: int = 100_000,
         sweep: bool = True) -> MineResult:
    """Search for a system matching the target expression: first an
    exhaustive sweep of every system on at most ``SweepPoints`` points
    over the ``SweepGroups``, then seeded random trials.  Every system of
    the sweep and every trial is counted, but none is decided that the
    target's demand on the atoms rules out: the sweep asks the space and
    action questions of the ``checkers`` docstring, and a trial asks the
    size, space and action questions and stops at the first draw that
    one settles.  A trial also stops at a size the exhausted sweep
    decided, after a failed map draw, and at a system already decided.
    The questions are exact and each trial reseeds its own generator, so
    finds, sweep indices, trial indices and records are those of deciding
    every system.  A found witness is re-verified literal by literal
    against the brute-force oracle.  The returned record makes an
    exhausted search reproducible."""
    lits = parse_target(target)
    need = atom_demand(lits)
    _check_int("mine", "seed", seed, 0)
    _check_int("mine", "budget", budget, 0)
    sweep_checked = trials = 0

    def result(system: GSystem | None, phase: str | None, detail: str) -> MineResult:
        return MineResult(
            target, system is not None, system, phase, detail,
            {"target": target, "seed": seed, "budget": budget,
             "sweep_checked": sweep_checked, "random_trials": trials},
        )

    if sweep:
        for action, maps in _enumerate_actions(SweepPoints, SweepGroups):
            if not (space_admits(action.space.min_open, action.group.order, need)
                    and action_admits(action, need)):
                sweep_checked += len(maps)  # the target fails on every map
                continue
            for f, cache in maps:
                sweep_checked += 1
                sys = GSystem._trusted(action, f, cache)
                if _matches(sys, lits):
                    verify_against_oracle(sys, lits)
                    return result(sys, "sweep", f"sweep index {sweep_checked - 1}")
    # each trial is generate(GeneratorConfig(seed=rng.randrange(1 << 62),
    # max_points=rng.randint(2, 5), groups=(pool[t % len(pool)],),
    # mode=("discrete", "preorder")[t % 2])), drawn without the config,
    # and stops at the first draw that settles it.  Its
    # group and mode come from t and its size bound from this stream, so
    # whether every size it can draw is settled is known before its
    # reseed: settled[i][t % 2] has bit n set where size n is settled for
    # the group pool[i] in that mode.  The trial generator is reseeded by
    # ``_random.Random.seed``, which is what ``Random.seed`` does with an
    # int seed, less the reset of the ``gauss`` state, which no draw here
    # reads
    getrandbits = random.Random(seed).getrandbits
    cat = catalog()
    pools = tuple((cat[name],) for name in DefaultGroupPool)

    def settled_sizes(group: Group, discrete: bool) -> int:
        # the sizes settled before any trial: those the sweep decided and
        # the discrete ones that space_admits rejects, one point being
        # discrete in either mode
        swept = sweep and group.name in SweepGroups
        return sum(1 << n for n in range(1, 6)  # max_points is at most 5
                   if swept and n <= SweepPoints or (discrete or n == 1)
                   and not space_admits(_DiscreteOpens[n], group.order, need))

    settled = [[settled_sizes(group, True), settled_sizes(group, False)] for group, in pools]
    trial_rng, reseed = random.Random(), _random.Random.seed
    trial_bits = trial_rng.getrandbits
    decided: set[tuple] = set()  # a repeated system is counted, not decided again
    caches: dict[tuple[int, ...], IterateCache] = {}  # one per map table
    for t in range(budget):
        trials += 1
        trial_seed = _below(getrandbits, 1 << 62)
        max_points = 2 + _below(getrandbits, 4)
        i = t % len(pools)
        done = settled[i][t % 2]
        if not ~done & ((2 << max_points) - 2):
            continue  # every size from 1 to max_points is settled
        reseed(trial_rng, trial_seed)
        n = 1 + _below(trial_bits, max_points)
        if done >> n & 1:
            continue
        groups = pools[i]
        if n == 1:
            settled[i][0] |= 2  # decided below, in either mode
            settled[i][1] |= 2
            action, f = _drawn_action(groups[0].name, _DiscreteOpens[1], None), (0,)
        else:
            min_open = _draw_space(trial_rng, n, t % 2 == 0)
            if not space_admits(min_open, groups[0].order, need):
                continue
            action = _draw_action(trial_rng, groups, min_open)
            if not action_admits(action, need):
                continue  # the target fails on every map of this action
            try:
                f = _sample_map(trial_rng, action, False)
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


class SuiteReport(NamedTuple):
    systems_checked: int
    antecedents: dict[str, int]
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def suite_configs(trials: int, seed0: int = 0) -> list[GeneratorConfig]:
    """A rotation over sizes, groups, space modes and the
    pseudoequivariance filter, on the seeds seed0, seed0 + 1, ..."""
    _check_int("suite", "trials", trials, 0)
    _check_int("suite", "seed0", seed0, 0)
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
