"""Second routes.  The library decides each property one way; these
tests recompute it another way and require the two to agree:
transitivity, total transitivity, weak and strong mixing against the
hit-mask table over the sweep, generated systems and every labelled
system on four points (the last three also over random two-level systems
under Z_n, where weak mixing without total transitivity is common),
strong mixing against its own rule on the minimal points (every atom's
cycle lies inside Min) on the same systems,
n-fold transitivity
against the masks of the product, total transitivity, weak mixing,
minimal cores, quotients and derived products over every system of the
miner's sweep (all systems on up to three points over Z1, Z2 and Z3),
the cover criterion and minimal cores against
fixpoint searches over the sweep and generated systems, group
associativity over the catalog groups, their products and random Latin
squares with an identity, action compatibility and the generator's
homomorphism extension over the catalog groups, action validation
against a copy that also checks every translation for a bijection and
its inverse for continuity, and the quotient's opens against a
saturation fixpoint over the sweep, generated systems and every action
of the catalog groups on four points, every property of a
pseudoequivariant system (p2, gt, tgt, wgm, sgm, gm, cover) against its
explicit orbit space under the trivial group over the sweep, generated
systems and every seventh labelled system on four points, the paper's
sufficient condition for sgm, from its definition, against sgm and
against ``sgm_sufficient_condition`` on the same pseudoequivariant
systems, and the space's base condition against the check at every point, and the
verdicts of tgt, wgm and sgm kept on an iterate cache that many systems
share against fresh systems with caches of their own, over the sweep
and over random two-level maps under several actions, both fields of
product minimality, decided on the two factors, against the explicit
product, return sets and their meeting against the orbit over random
maps, and products and n-fold products against the reference
product that the validating constructors build.  Systems that
the sweep and the generator build without re-validation are rebuilt
through the validating constructors."""

import collections
import itertools
import math
import random
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA,
    all_homs,
    cycles_text,
    generated_systems,
    gf_orbit,
    is_open,
    map_preimage,
    opens,
    reference_product,
    shifted_cycles,
)
from gdyn import checkers as ck
from gdyn import corpus
from gdyn.algebra import Action, Group, catalog, quotient, trivial_action
from gdyn.bitsets import bits
from gdyn.corpus import GeneratorConfig, all_spaces, generate, suite_configs
from gdyn.dynamics import GSystem, IterateCache, nfold_system, product_system
from gdyn.errors import ValidationError
from gdyn.sysfile import parse, serialize
from gdyn.topology import (
    Space,
    automorphisms,
    compose,
    discrete_space,
    identity_table,
    is_continuous,
    map_image,
)


def _associative_every_triple(mul):
    """Associativity by the exhaustive loop over all triples."""
    n = len(mul)
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def _closure_generators(g):
    """The greedy generating set, closing under every product of the
    elements found so far (not only under the generators on the right)."""
    gens, closed = [], {g.identity}
    for a in range(g.order):
        if a in closed:
            continue
        gens.append(a)
        closed.add(a)
        frontier = list(closed)
        while frontier:
            x = frontier.pop()
            for y in list(closed):
                for z in (g.mul[x][y], g.mul[y][x]):
                    if z not in closed:
                        closed.add(z)
                        frontier.append(z)
    return tuple(gens)


def _random_loop(rng, n):
    """A Latin square of order n with identity 0, filled cell by cell in
    random order with backtracking."""
    rows = [list(range(n))] + [[x] + [None] * (n - 1) for x in range(1, n)]
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]

    def fill(i):
        if i == len(cells):
            return True
        x, y = cells[i]
        used = set(rows[x]) | {rows[z][y] for z in range(n)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            rows[x][y] = v
            if fill(i + 1):
                return True
        rows[x][y] = None
        return False

    assert fill(0)
    return tuple(tuple(row) for row in rows)


def _twisted_product(rng, m, k):
    """Z_m x K with (a, x).(b, y) = (a + b + t(x, y), x.y) for a random
    t: K x K -> Z_m that vanishes when x or y is the identity.  A loop
    whose elements (a, e) pass Light's test whatever t is; t decides
    whether the later generators do.  (a, x) has index x * m + a."""
    e, n = k.identity, k.order
    t = [[0 if e in (x, y) else rng.randrange(m) for y in range(n)] for x in range(n)]
    return tuple(
        tuple(k.mul[x][y] * m + (a + b + t[x][y]) % m for y in range(n) for b in range(m))
        for x in range(n) for a in range(m)
    )


def _light_verdict(mul):
    """True if ``Group`` accepts the table; else the triple its
    associativity error names, or None for any other rejection."""
    names = tuple(f"g{i}" for i in range(len(mul)))
    try:
        Group(names, mul)
    except ValidationError as exc:
        m = re.fullmatch(r"group: associativity fails at \((\w+), (\w+), (\w+)\)", str(exc))
        return tuple(names.index(v) for v in m.groups()) if m else None
    return True


def _left_zero_monoid(n):
    """Identity 0 and x.y = x otherwise: associative, no inverses, and
    every non-identity element is needed to generate it."""
    return tuple(tuple(range(n)) if x == 0 else (x,) * n for x in range(n))


def _product_system_group(g1, g2):
    """The product group, as ``product_system`` builds it for two
    one-point systems."""
    point = discrete_space(("x",))
    s1, s2 = (GSystem(Action(g, point, [[0]] * g.order), (0,)) for g in (g1, g2))
    return product_system(s1, s2).group


def test_light_associativity_matches_every_triple():
    # catalog groups, their products, and random Latin squares with an
    # identity (loops): Group accepts exactly the associative ones, since an
    # associative loop is a group, and otherwise names a failing triple
    rng = random.Random(7)
    groups = list(catalog().values())
    tables = [g.mul for g in groups]
    tables += [_product_system_group(a, b).mul for a in groups for b in groups]
    tables += [_random_loop(rng, n) for n in (2, 3, 4, 5, 5, 6, 6, 7) for _ in range(25)]
    tables += [_twisted_product(rng, m, k) for m in (2, 3) for k in groups[1:6] + groups[8:]
               for _ in range(4)]
    rejected = 0
    for mul in tables:
        verdict = _light_verdict(mul)
        if _associative_every_triple(mul):
            assert verdict is True
        else:
            a, b, c = verdict
            assert mul[mul[a][b]][c] != mul[a][mul[b][c]]
            rejected += 1
    assert 0 < rejected < len(tables)
    # a monoid whose every non-identity element is a generator: Light's
    # test passes on all of them, and the inverse check rejects it
    for n in (2, 3, 9):
        mul = _left_zero_monoid(n)
        assert _associative_every_triple(mul) and _light_verdict(mul) is None


def test_generators_match_full_closure():
    groups = list(catalog().values())
    for g in groups + [_product_system_group(a, b) for a in groups for b in groups]:
        assert g.generators() == _closure_generators(g)


def _compatible_every_triple(group, act):
    """Action compatibility g.(h.x) = (gh).x by the loop over every triple."""
    return all(act[g][act[h][x]] == act[group.mul[g][h]][x]
               for g in range(group.order) for h in range(group.order)
               for x in range(len(act[0])))


def _action_verdict(group, space, act):
    """True if ``Action`` accepts the table; else the triple its
    compatibility error names, or None for any other rejection."""
    try:
        Action(group, space, act)
    except ValidationError as exc:
        m = re.fullmatch(r"action: compatibility fails at \(([^,]+), ([^,]+), ([^)]+)\)",
                         str(exc))
        if m is None:
            return None
        g, h, x = m.groups()
        return group.elements.index(g), group.elements.index(h), space.points.index(x)
    return True


def _first_generator_passes(rng, group, act, perms):
    """A table compatible at h = s for the first generator s (and its
    powers) but random elsewhere: a random row R for each coset g<s>, R = id
    on <s> itself, and g.s^j acting as R o act[s]^j."""
    s = group.generators()[0]
    rows = [None] * group.order
    for g in range(group.order):
        if rows[g] is None:
            row = identity_table(len(act[0])) if g == group.identity else rng.choice(perms)
            while rows[g] is None:
                rows[g] = row
                g, row = group.mul[g][s], compose(row, act[s])
    return tuple(rows)


def test_action_compatibility_matches_every_triple():
    # every catalog group on discrete spaces of one to four points: the
    # actions the generator's extension builds, those with one row replaced
    # or two rows swapped, tables compatible at the first generator only,
    # and tables of random permutations.  On a discrete space every
    # permutation is a homeomorphism, so Action accepts exactly the
    # compatible tables and otherwise names a failing triple
    rng = random.Random(11)
    checked = rejected = 0
    for group in catalog().values():
        m = group.order
        for n in range(1, 5):
            space = discrete_space(tuple(f"x{i}" for i in range(n)))
            perms = automorphisms(space)
            tables = list(itertools.islice(all_homs(group, perms, n), 40))
            for act in tables[:10]:
                rows = list(act)
                rows[rng.randrange(m)] = rng.choice(perms)
                tables.append(tuple(rows))
                a, b = rng.randrange(m), rng.randrange(m)
                rows = list(act)
                rows[a], rows[b] = rows[b], rows[a]
                tables.append(tuple(rows))
                if group.generators():
                    tables.append(_first_generator_passes(rng, group, act, perms))
            tables += [tuple(rng.choice(perms) for _ in range(m)) for _ in range(10)]
            for act in tables:
                if act[group.identity] != identity_table(n):
                    continue
                verdict = _action_verdict(group, space, act)
                if _compatible_every_triple(group, act):
                    assert verdict is True
                else:
                    g, h, x = verdict
                    assert act[g][act[h][x]] != act[group.mul[g][h]][x]
                    rejected += 1
                checked += 1
    assert 0 < rejected < checked


def _action_error_with_inverse_check(group, space, act):
    """The message with which ``Action`` rejected a table when it also
    checked each translation for a bijection and its inverse for
    continuity, or None if it accepted it: those checks in their order."""
    table = tuple(tuple(row) for row in act)
    n, m = space.n, group.order
    if len(table) != m or any(len(row) != n for row in table):
        return "action: table must be |G| x |X|"
    if any(not 0 <= v < n for row in table for v in row):
        return "action: table entry outside the carrier"
    for x in range(n):
        if table[group.identity][x] != x:
            return f"action: identity must act trivially, moves {space.points[x]}"
    for h in group.generators():
        for g in range(m):
            for x in range(n):
                if table[g][table[h][x]] != table[group.mul[g][h]][x]:
                    return (f"action: compatibility fails at ({group.elements[g]},"
                            f" {group.elements[h]}, {space.points[x]})")
    for g, name in enumerate(group.elements):
        if len(set(table[g])) != n:
            return f"action: translation by {name} is not a bijection"
        if not is_continuous(space, table[g]):
            return f"action: translation by {name} is not continuous"
        if not is_continuous(space, table[group.mul[g].index(group.identity)]):
            return f"action: inverse translation of {name} is not continuous"
    return None


def test_action_validation_matches_the_inverse_check():
    # every space on up to three points and a sample of the four-point
    # ones, every catalog group: homomorphisms into all permutations of the
    # carrier (a translation need not be continuous), some with a row
    # replaced by a random map, and tables of random permutations.
    # Compatibility makes every translation a bijection with the inverse
    # translation as its inverse, and a continuous bijection of a finite
    # space has a continuous inverse, so neither the bijection check nor
    # the inverse check can fire
    rng = random.Random(7)
    spaces = [s for n in range(1, 4) for s in all_spaces(n)]
    spaces += rng.sample(list(all_spaces(4)), 40)
    outcomes = collections.Counter()
    for space in spaces:
        n = space.n
        perms = list(itertools.permutations(range(n)))
        for group in catalog().values():
            m = group.order
            tables = list(itertools.islice(all_homs(group, perms, n), 6))
            for act in tables[:3]:
                rows = list(act)
                rows[rng.randrange(m)] = tuple(rng.randrange(n) for _ in range(n))
                tables.append(tuple(rows))
            tables.append(tuple(rng.choice(perms) for _ in range(m)))
            for act in tables:
                want = _action_error_with_inverse_check(group, space, act)
                try:
                    Action(group, space, act)
                    got = None
                except ValidationError as exc:
                    got = str(exc)
                assert got == want
                outcomes[re.sub(r" (at \(.*\)|by \S+|moves \S+)", "", got or "accepted")] += 1
    assert set(outcomes) == {
        "accepted", "action: compatibility fails", "action: identity must act trivially,",
        "action: translation is not continuous",
    }


def _hom_every_product(group, gens, images, n):
    """The homomorphism with the given generator images by the |G|^2
    check: phi read off a spanning tree of right products with the
    generators, accepted iff it takes the given images and
    phi(ab) = phi(a) o phi(b) for every a and b."""
    phi = {group.identity: identity_table(n)}
    frontier = [group.identity]
    while frontier:
        g = frontier.pop()
        for s in gens:
            if group.mul[g][s] not in phi:
                phi[group.mul[g][s]] = compose(phi[g], images[s])
                frontier.append(group.mul[g][s])
    table = [phi[g] for g in range(group.order)]
    if any(table[s] != images[s] for s in gens):
        return None
    for a in range(group.order):
        for b in range(group.order):
            if compose(table[a], table[b]) != table[group.mul[a][b]]:
                return None
    return table


def test_extend_hom_matches_every_product():
    # every choice of generator images among the automorphisms, for the
    # catalog groups over all spaces on up to three points
    found = none = 0
    for n in range(1, 4):
        for space in all_spaces(n):
            autos = automorphisms(space)
            for group in catalog().values():
                gens = group.generators()
                for choice in itertools.product(autos, repeat=len(gens)):
                    images = dict(zip(gens, choice))
                    want = _hom_every_product(group, gens, images, n)
                    assert corpus._extend_hom(group, gens, images, n) == want
                    found += want is not None
                    none += want is None
    assert found and none


def _base_condition_every_point(points, min_open):
    """The base condition's error, checked at every point in order, or
    None: y in min_open(x) implies min_open(y) <= min_open(x)."""
    for x, m in enumerate(min_open):
        for y in bits(m):
            if min_open[y] & ~m:
                return (f"space: base condition fails: {points[y]} in min_open({points[x]}) "
                        f"but min_open({points[y]}) is not contained in it")
    return None


def test_base_condition_matches_every_point():
    # random tables on up to six points, each point in its own set, many
    # sharing a set with an earlier point: Space checks each distinct set
    # once and must reject with the message of the first failing point
    rng = random.Random(3)
    outcomes = collections.Counter()
    for _ in range(20_000):
        n = rng.randint(1, 6)
        points = tuple(f"x{i}" for i in range(n))
        mo = []
        for x in range(n):
            if mo and rng.random() < 0.4:
                m = rng.choice(mo) | 1 << x
            else:
                m = rng.randrange(1 << n) | 1 << x
            mo.append(m)
        want = _base_condition_every_point(points, mo)
        try:
            Space(points, mo)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == want
        outcomes[got is None] += 1
    assert outcomes[True] and outcomes[False]


def _mask_verdicts(ctx):
    """gt, tgt, wgm and sgm as predicates on the hit-mask table: every
    mask is nonzero; every mask has bit e; every two masks intersect;
    every mask covers the recurring exponents [p+1, p+q]."""
    masks = [h for u in ctx.basis for h in ctx.row(u)]
    distinct, window, e = set(masks), ctx.cycle_window, ck._exponent(ctx.cache)
    return {
        "gt": all(masks),
        "tgt": all((h >> e) & 1 for h in distinct),
        "wgm": all(a & b for a in distinct for b in distinct),
        "sgm": all(h & window == window for h in distinct),
    }


def sgm_by_cycles(sys):
    """sgm by its own rule on the minimal points: Min is one orbit of
    atoms, and the cycle of every atom lies inside it.  The library
    decides sgm by the tgt rule, the two being equivalent on finite
    G-spaces."""
    reps, minimal, one_orbit = ck._atoms(sys.action)
    c = sys.cache()
    return one_orbit and not any(c.fwd[c.image(m, c.depth[m])] & ~minimal for m in reps)


def _gt_witness_by_masks(sys, ctx):
    """The names of the first empty pair (U, V) in basis order, or None."""
    for u in ctx.basis:
        for v, h in zip(ctx.basis, ctx.row(u)):
            if not h:
                return {"U": sys.space.names(u), "V": sys.space.names(v)}
    return None


def _gt_agrees_with_masks(sys, rep):
    """gt's report against the masks of a context built here, not
    memoised on the system; returns the masks' verdicts."""
    ctx = ck._Ctx(sys)
    verdicts = _mask_verdicts(ctx)
    assert rep.verdict == verdicts["gt"]
    if not rep.verdict:
        assert rep.witness == _gt_witness_by_masks(sys, ctx)
    return verdicts


def test_gt_density_matches_the_masks(sweep, fixture_map):
    # gt's density test and the rules on the minimal points for tgt, wgm
    # and sgm against the hit-mask predicates, and sgm against its cycle
    # rule: the fixtures, the 6-point witness of wgm without tgt, the
    # sweep, the generated systems, and every labelled system on up to
    # four points over Z1 .. Z4 and Z2xZ2
    on_four = corpus.enumerate_systems(4, ("Z1", "Z2", "Z3", "Z4", "Z2xZ2"))
    named = [fx.system for fx in fixture_map.values()]
    named.append(parse((DATA / "z3_wgm_not_tgt.gds").read_text()))
    outcomes = collections.Counter()
    count = 0
    for sys in itertools.chain(named, sweep, generated_systems(suite_configs(400)), on_four):
        verdicts = _gt_agrees_with_masks(sys, ck.is_g_transitive(sys))
        for name, verdict in verdicts.items():
            assert ck.Verdicts[name](sys) is verdict, name
            outcomes[name, verdict] += 1
        assert sgm_by_cycles(sys) is verdicts["sgm"]
        outcomes["wgm&!tgt"] += verdicts["wgm"] and not verdicts["tgt"]
        count += 1
    assert count == len(named) + 1637 + 400 + 254_141
    assert all(outcomes[name, v] for name in ("gt", "tgt", "wgm", "sgm") for v in (False, True))
    assert outcomes["wgm&!tgt"]


def _two_level_system(rng):
    """A random continuous map on a two-level space under Z_n: minimal
    points x_0 .. x_(n-1), cycled by the generator, and layers of tops, the
    top (l, i) above x_i and, in a layer with a shift d, also above
    x_(i+d), cycled alike.  None when some top has no admissible image."""
    n, layers = rng.randint(3, 8), rng.randint(1, 3)
    min_open = [1 << i for i in range(n)]
    for layer in range(layers):
        d = rng.choice((0, rng.randrange(1, n)))
        min_open += [1 << i | 1 << (i + d) % n | 1 << n * (layer + 1) + i for i in range(n)]
    size = len(min_open)
    act = [[(x + g) % n if x < n else x - x % n + (x + g) % n for x in range(size)]
           for g in range(n)]
    f = [rng.randrange(size) for _ in range(n)]
    for t in range(n, size):
        image = map_image(f, min_open[t] & ~(1 << t))
        options = [y for y in range(size) if not image & ~min_open[y]]
        if not options:
            return None
        f.append(rng.choice(options))
    space = Space(tuple(f"x{i}" for i in range(size)), min_open)
    return GSystem(Action(catalog().get(f"Z{n}"), space, act), f)


def test_minimal_point_rules_on_two_level_systems():
    # Min is one orbit of atoms on every such system, and its cycles leave
    # Min and come back, so weak mixing without total transitivity occurs
    # often enough to reach the return-set rule of wgm; sgm's cycle rule is
    # checked alongside
    rng = random.Random(5)
    outcomes = collections.Counter()
    while outcomes["checked"] < 3000:
        sys = _two_level_system(rng)
        if sys is None:
            continue
        verdicts = _mask_verdicts(ck._Ctx(sys))
        for name in ("tgt", "wgm", "sgm"):
            assert ck.Verdicts[name](sys) is verdicts[name], name
        assert sgm_by_cycles(sys) is verdicts["sgm"]
        outcomes["checked"] += 1
        outcomes["wgm&!tgt"] += verdicts["wgm"] and not verdicts["tgt"]
        outcomes["tgt"] += verdicts["tgt"]
    assert outcomes["wgm&!tgt"] >= 30 and outcomes["tgt"]


def test_nfold_matches_the_product_masks(sweep):
    outcomes = collections.Counter()
    for sys in sweep:
        for n in (2, 3):
            rep = ck.is_n_fold_transitive(sys, n)
            outcomes[n, _gt_agrees_with_masks(nfold_system(sys, n), rep)["gt"]] += 1
    assert all(outcomes[n, v] for n in (2, 3) for v in (False, True))


def _tgt_every_iterate(sys):
    """Total transitivity by the m x j loop: f^m hits U -> V at some
    reduced exponent of m*j, j in [1, p+q], for every distinct table f^m.
    Returns the verdict and the first failing (m, U, V)."""
    ctx = ck._Ctx(sys)
    c = sys.cache()
    ms = range(1, c.horizon + 1 if c.preperiod == 0 else c.horizon)
    for m in ms:
        reduced = 0
        for j in range(1, c.horizon + 1):
            reduced |= 1 << c.reduce(m * j)
        for u in ctx.basis:
            for v, h in zip(ctx.basis, ctx.row(u)):
                if not h & reduced:
                    names = sys.space.names
                    return False, {"m": m, "U": names(u), "V": names(v)}
    return True, None


# generated systems whose tails have length p >= 2: there the exponent e
# is not q, and the tail exponents m*j <= p decide which pair fails first
_LONG_TAILS = (
    GeneratorConfig(seed=21071, max_points=7, mode="discrete"),
    GeneratorConfig(seed=41381, max_points=7, mode="discrete"),
    GeneratorConfig(seed=65679, max_points=7, mode="discrete"),
    GeneratorConfig(seed=44856, max_points=7, mode="preorder"),
)


def test_tgt_single_exponent_matches_every_iterate(sweep, fixture_map):
    long_tails = [generate(cfg) for cfg in _LONG_TAILS]
    assert all(s.cache().preperiod >= 2 for s in long_tails)
    systems = sweep + [fx.system for fx in fixture_map.values()] + long_tails
    falses = 0
    for sys in systems:
        rep = ck.is_totally_g_transitive(sys)
        verdict, witness = _tgt_every_iterate(sys)
        assert rep.verdict == verdict
        if not verdict:
            assert rep.witness == witness
            falses += 1
    assert 0 < falses < len(systems)


def test_wgm_is_transitivity_of_the_square(sweep):
    for sys in sweep:
        assert (ck.is_weakly_g_mixing(sys).verdict
                == ck.is_n_fold_transitive(sys, 2).verdict)


@st.composite
def _return_set_input(draw):
    """A map on up to 12 points, a point x and a target set A.  Half the
    maps are random, half one tail into one cycle (0 -> 1 -> ... -> n-1
    -> j), whose depths reach 11."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        table = tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    else:
        table = tuple(range(1, n)) + (draw(st.integers(0, n - 1)),)
    return table, draw(st.integers(0, n - 1)), draw(st.integers(0, (1 << n) - 1))


def _orbit(table, x, steps):
    """x, f(x), ..., f^(steps-1)(x)."""
    out = []
    for _ in range(steps):
        out.append(x)
        x = table[x]
    return out


def _brute_returns(table, x, target):
    """x's depth and cycle length, read off its first repeated point, and
    the membership of f^k(x) in the target for k < d + 3L."""
    orbit = _orbit(table, x, len(table) + 1)
    j = next(j for j in range(len(orbit)) if orbit[j] in orbit[:j])
    d, size = orbit.index(orbit[j]), j - orbit.index(orbit[j])
    return d, size, [(target >> y) & 1 for y in _orbit(table, x, d + 3 * size)]


# the exponent 4 lies in both sets below D = 5, past both windows and in
# the third cycle block of the first set, and the sets share nothing from
# D on: a meet found only by repeating the first set's cycle up to D
@example(((1, 0), 0, 0b01), ((1, 2, 3, 4, 5, 5), 0, 1 << 4))
@given(_return_set_input(), _return_set_input())
@settings(max_examples=500, deadline=None)
def test_return_sets_match_brute_force(one, two):
    # a return set S(x, A) = {k >= 0 : f^k(x) in A} against the orbit, and
    # two of them meeting against their intersection over
    # [0, max(d, d') + lcm(L, L')), past which both repeat
    sets = []
    for table, x, target in (one, two):
        got = ck._returns(IterateCache(table), x, target)
        d, size, members = _brute_returns(table, x, target)
        assert got[:2] == (d, size)
        assert all((got[2] >> k) & 1 == members[k] for k in range(d + size))
        # from d on the set recurs mod L
        assert all((got[2] >> d + (k - d) % size) & 1 == members[k]
                   for k in range(d, len(members)))
        sets.append(got)
    (d1, l1, _), (d2, l2, _) = sets
    horizon = max(d1, d2) + math.lcm(l1, l2)
    orbits = [_orbit(table, x, horizon) for table, x, _ in (one, two)]
    brute = any((one[2] >> orbits[0][k]) & 1 and (two[2] >> orbits[1][k]) & 1
                for k in range(horizon))
    assert ck._meet(*sets) is brute
    assert ck._meet(*sets[::-1]) is brute


def _fresh_verdicts(sys, props):
    """The verdict of each of ``props`` on its own copy of the system,
    rebuilt through the validating constructor with an iterate cache of
    its own."""
    return {name: ck.Verdicts[name](GSystem(sys.action, sys.f)) for name in props}


def test_memo_on_the_shared_cache_matches_fresh_systems():
    # the map's part of tgt and wgm is kept on the iterate cache, which the
    # sweep's systems on one map share; deciding them in a shuffled order,
    # each property first in turn, fills the 32 caches in another order,
    # and every verdict, report and sgm condition must be that of a fresh
    # system.  The sweep is built here, so no other test has filled them.
    systems = list(corpus.enumerate_systems())
    caches = {id(sys.cache()): sys.cache() for sys in systems}
    assert len(caches) == 32
    assert all(not c.on_minimal for c in caches.values())
    order = list(range(len(systems)))
    random.Random(23).shuffle(order)
    props = ("tgt", "wgm", "sgm")
    keys, outcomes = set(), collections.Counter()
    for i in order:
        sys = systems[i]
        first = i % len(props)
        got = ck.profile(sys, props[first:] + props[:first])
        assert got == _fresh_verdicts(sys, props)
        assert [ck.is_totally_g_transitive(sys).verdict, ck.is_weakly_g_mixing(sys).verdict,
                ck.is_strongly_g_mixing(sys).verdict] == [got[name] for name in props]
        cond = ck.sgm_sufficient_condition(sys)
        assert cond == ck.sgm_sufficient_condition(GSystem(sys.action, sys.f))
        reps, minimal, one_orbit = ck._atoms(sys.action)
        if one_orbit:
            keys.add((sys.f, reps, minimal))
        outcomes[tuple(got.values())] += 1
    # one entry per map and minimal points on which Min is one orbit of
    # atoms, each decided for both parts
    entries = [(c.f, *key, *entry) for c in caches.values()
               for key, entry in c.on_minimal.items()]
    assert {e[:3] for e in entries} == keys and len(entries) == len(keys)
    assert all(isinstance(e[3], bool) and isinstance(e[4], bool) for e in entries)
    assert len(keys) < len(systems)
    assert outcomes[True, True, True] and outcomes[False, False, False]


def _wgm_without_tgt(sys):
    masks = _mask_verdicts(ck._Ctx(sys))
    return masks["wgm"] and not masks["tgt"]


@st.composite
def _actions_over_one_map(draw):
    """The map of a random two-level system under Z_n (where weak mixing
    without total transitivity is common) and several actions on spaces
    where it is continuous: the system's own space, the discrete and the
    indiscrete space on its points, each under Z_n rotating by k*g for a
    drawn k (k = 0 gives the trivial action, k prime to n makes the
    minimal points one orbit).  The pairs may repeat and share spaces.
    Half the draws take the first base system that the hit masks find wgm
    and not tgt, which one in about sixty is."""
    rng, split = random.Random(draw(st.integers(0, 1 << 32))), draw(st.booleans())
    while True:
        base = _two_level_system(rng)
        if base is not None and (not split or _wgm_without_tgt(base)):
            break
    group, n, size = base.group, base.group.order, base.space.n
    names = base.space.points
    spaces = (base.space, discrete_space(names), Space(names, (base.space.full,) * size))
    actions = []
    for _ in range(draw(st.integers(2, 6))):
        space, k = draw(st.sampled_from(spaces)), draw(st.integers(0, n - 1))
        act = [base.action.act[k * g % n] for g in range(n)]
        actions.append(Action(group, space, act))
    return base.f, actions


@given(_actions_over_one_map(), st.permutations(("tgt", "wgm", "sgm")))
@settings(max_examples=300, deadline=None)
def test_memo_over_one_map_matches_fresh_systems(drawn, order):
    # continuous (space, action) pairs over one shared iterate cache, each
    # decided in the drawn order of properties, against fresh systems and
    # the hit masks
    table, actions = drawn
    cache = IterateCache(table)
    for action in actions:
        sys = GSystem._trusted(action, table, cache)
        got = ck.profile(sys, order)
        assert got == _fresh_verdicts(sys, order)
        masks = _mask_verdicts(ck._Ctx(sys))
        assert got == {name: masks[name] for name in order}
    assert len(cache.on_minimal) <= len({a.space.min_open for a in actions})


def _same_product(got, want):
    """Equal systems (point and element names included), with equal group
    names and identities, which equality does not compare."""
    assert got == want
    g, w = got.group, want.group
    assert (g.name, g.identity) == (w.name, w.identity)


def test_products_pass_full_validation(sweep):
    # products are built without re-validation: each equals the reference
    # product, which the public constructors validate
    for sys in sweep:
        _same_product(product_system(sys, sys), reference_product(sys, sys))
    rng = random.Random(11)
    for _ in range(300):
        s1, s2 = rng.choice(sweep), rng.choice(sweep)
        _same_product(product_system(s1, s2), reference_product(s1, s2))


def test_nfold_matches_the_chained_reference(sweep, fixture_map):
    # (..(s x s) x ..) x s through the validating constructors
    systems = [fx.system for fx in fixture_map.values()] + sweep[::9]
    for sys in systems:
        want = sys
        for n in (1, 2, 3):
            if n > 1:
                if sys.space.n ** n > 1000:
                    break
                want = reference_product(want, sys)
            _same_product(nfold_system(sys, n), want)


def _product_minimality_on_the_product(s1, s2):
    """Both fields of ``ProductMinimality`` on the reference product: gm of
    the product, and the criterion read off the closures of its saturated
    orbits."""
    prod = reference_product(s1, s2)
    n2, fwd = s2.space.n, prod.cache().fwd

    def holds(x, y):
        r = prod.space.closure(prod.action.saturate(fwd[x * n2 + y]))
        return (all((r >> (row[s1.f[x]] * n2 + y)) & 1 for row in s1.action.act)
                and all((r >> (x * n2 + row[s2.f[y]])) & 1 for row in s2.action.act))

    crit = all(holds(x, y) for x in range(s1.space.n) for y in range(n2))
    return ck.ProductMinimality(product_minimal=ck._gm(prod), criterion=crit)


def test_product_minimality_on_the_factors(sweep):
    # the acceptance pairs (every ordered pair of minimal pseudoequivariant
    # systems on three points over Z1 and Z2), seeded sweep pairs, pairs
    # of generated systems that mix groups and sizes, disjoint cycles,
    # whose cycles pair into several cycles of the product, and generated
    # maps that do not permute orbits, where a product of two cycles can
    # have dense and nondense cycles
    minimal = [s for s in corpus.enumerate_systems(3, ("Z1", "Z2"))
               if s.pseudoequivariant() and ck.is_g_minimal(s).verdict]
    rng = random.Random(3)
    generated = list(itertools.islice(generated_systems(suite_configs(200)), 150))
    cycles = [parse(cycles_text(c, group_order=g)) for c in ((4,), (6,), (2, 3), (4, 6), (3, 9))
              for g in (1, 2)] + [shifted_cycles(c) for c in ((4,), (2, 6), (3, 6))]
    cycles += [generate(GeneratorConfig(seed=seed, max_points=6, mode="discrete",
                                        groups=("Z2", "Z3", "Z4", "Z2xZ2", "S3")))
               for seed in (220, 786, 1674, 2626)]
    pairs = (list(itertools.product(minimal, repeat=2))
             + [(rng.choice(sweep), rng.choice(sweep)) for _ in range(3000)]
             + [(rng.choice(generated), rng.choice(generated)) for _ in range(1000)]
             + list(itertools.product(cycles, repeat=2)))
    outcomes = collections.Counter()
    for s1, s2 in pairs:
        got = ck.product_minimality_criterion(s1, s2)
        assert got == _product_minimality_on_the_product(s1, s2)
        outcomes[got] += 1
    # minimal and not, with the criterion true and false
    assert len(outcomes) == 3 and len(pairs) == 49_658


def test_corpus_systems_pass_full_validation(sweep):
    # the sweep and the generator build spaces, actions and systems from
    # tables they have already checked; the public constructors must
    # accept them
    generated = list(itertools.islice(generated_systems(suite_configs(400)), 300))
    assert len(generated) == 300
    for sys in sweep + generated:
        space = Space(sys.space.points, sys.space.min_open)
        assert GSystem(Action(sys.group, space, sys.action.act), sys.f) == sys
    for space in all_spaces(4):
        assert Space(space.points, space.min_open) == space


def _terminal_classes(sys):
    """Terminal classes of the preorder x -> y iff y lies in the closure
    of the saturated orbit of x."""
    n = sys.space.n
    reach = [sys.space.closure(gf_orbit(sys, x)) for x in range(n)]
    out = []
    for x in range(n):
        cls = 0
        rx = reach[x]
        for y in bits(rx):
            if (reach[y] >> x) & 1:
                cls |= 1 << y
        if cls == rx and rx not in out:
            out.append(rx)
    return sorted(out, key=lambda m: m & -m)


def test_minimal_sets_are_terminal_classes(sweep):
    checked = 0
    for sys in sweep:
        if sys.pseudoequivariant():
            assert ck.g_minimal_sets(sys) == _terminal_classes(sys)
            checked += 1
    assert checked


def _cover_by_preimages(sys):
    """The cover criterion by its definition: for each basis open U, the
    saturations of U and of its preimages under f, f^2, ... until they
    cover the space, to the depth p+q+|X|, past which the union cannot
    grow (every distinct preimage table occurs within the horizon)."""
    c = sys.cache()
    n = sys.space.n
    depth = c.horizon + n
    for u in {m: None for m in sys.space.min_open}:
        covered = sys.action.saturate(u)
        pre = u
        d = 0
        while covered != sys.space.full and d < depth:
            pre = map_preimage(sys.f, pre, n)
            covered |= sys.action.saturate(pre)
            d += 1
        if covered != sys.space.full:
            return False
    return True


def _cores_by_growth(sys):
    """Minimal cores by growing each point's set until it is closed and
    invariant, re-closing after every step, then testing every candidate
    against the definition."""
    candidates = []
    for x in range(sys.space.n):
        s = 1 << x
        while True:
            grown = sys.space.closure(s | map_image(sys.f, s) | sys.action.saturate(s))
            if grown == s:
                break
            s = grown
        if s not in candidates:
            candidates.append(s)
    out = [a for a in candidates
           if all(sys.space.closure(gf_orbit(sys, y)) == a for y in bits(a))]
    return sorted(out, key=lambda m: m & -m)


def test_cover_and_cores_match_the_fixpoint_searches(sweep):
    generated = list(generated_systems(suite_configs(400)))
    covers = cores = 0
    for sys in sweep + generated:
        verdict = ck.minimality_cover_criterion(sys)
        assert verdict == _cover_by_preimages(sys)
        found = ck.g_minimal_sets(sys)
        assert found == _cores_by_growth(sys)
        covers += verdict
        cores += len(found) > 1
    assert 0 < covers < len(sweep) + len(generated)
    assert cores


def test_quotient_projection_and_induced_map(sweep):
    for sys in sweep:
        qs = quotient(sys.action, sys.f)
        q, proj, n = qs.space, qs.proj, sys.space.n
        assert Space(q.points, q.min_open) == q
        assert set(proj) == set(range(q.n))
        for s in opens(q):
            pre = sum(1 << x for x in range(n) if (s >> proj[x]) & 1)
            assert is_open(sys.space, pre)
        for x in range(n):
            assert is_open(q, map_image(proj, sys.space.min_open[x]))
        assert (qs.induced is not None) == sys.pseudoequivariant()
        if qs.induced is not None:
            assert is_continuous(q, qs.induced)
            for x in range(n):
                assert qs.induced[proj[x]] == proj[sys.f[x]]


# the properties that a pseudoequivariant system shares with its orbit
# space under the trivial group (the `checkers` module docstring)
_ORBIT_SPACE_PROPERTIES = ("p2", "gt", "tgt", "wgm", "sgm", "gm", "cover")


def test_pseudoequivariant_systems_are_their_orbit_spaces(sweep):
    # every pseudoequivariant system of the sweep, of the generated
    # systems and of every seventh labelled system on four points over
    # Z1 .. Z4 and Z2xZ2, against the explicit orbit space: the induced
    # map under the trivial group, through the validating constructor.
    # Each population holds systems whose orbit space is smaller, so the
    # route is not the identity
    on_four = itertools.islice(
        corpus.enumerate_systems(4, ("Z1", "Z2", "Z3", "Z4", "Z2xZ2")), 0, None, 7)
    populations = {  # label -> (systems, how many are pseudoequivariant)
        "sweep": (sweep, 1261),
        "generated": (generated_systems(suite_configs(400)), 332),
        "on four": (on_four, 15_939),
    }
    for label, (systems, p1) in populations.items():
        outcomes = collections.Counter()
        for sys in systems:
            if not sys.pseudoequivariant():
                continue
            qs = quotient(sys.action, sys.f)
            orbit = GSystem(trivial_action(qs.space), qs.induced)
            assert (ck.profile(sys, _ORBIT_SPACE_PROPERTIES)
                    == ck.profile(orbit, _ORBIT_SPACE_PROPERTIES)), serialize(sys)
            outcomes["p1"] += 1
            outcomes["smaller"] += qs.space.n < sys.space.n
        assert outcomes["p1"] == p1 and outcomes["smaller"], label


def _sgm_condition_by_definition(sys):
    """The paper's sufficient condition for sgm, less transitivity, from
    its definition: whether some x has a dense saturated forward orbit,
    and whether for one such x, W = U_x has f^k(W) meeting G(W) for every
    k in [p+1, p+q] (past p the images of f^k repeat with period q)."""
    c, space, action = sys.cache(), sys.space, sys.action
    p, q = c.preperiod, c.period
    dense = [x for x in range(space.n) if space.is_dense(action.saturate(c.fwd[x]))]

    def returns(x):
        w = space.min_open[x]
        sat = action.saturate(w)
        return all(any((sat >> c.image(y, k)) & 1 for y in bits(w))
                   for k in range(p + 1, p + q + 1))

    return bool(dense), any(map(returns, dense))


def test_the_sgm_condition_implies_sgm(sweep):
    # the theorem in the `checkers` docstring: on a pseudoequivariant
    # system a dense-orbit point whose minimal open returns at every large
    # exponent makes the map sgm, and an sgm map has such a point.  The
    # counts show that neither side holds vacuously: many sgm-false
    # systems have a dense-orbit point, and none of them returns.  With
    # gt, the condition is what ``sgm_sufficient_condition`` reports
    on_four = itertools.islice(
        corpus.enumerate_systems(4, ("Z1", "Z2", "Z3", "Z4", "Z2xZ2")), 0, None, 7)
    populations = {  # label -> (systems, sgm-false with a dense point, sgm-true)
        "sweep": (sweep, 528, 517),
        "generated": (generated_systems(suite_configs(400)), 62, 217),
        "on four": (on_four, 6535, 4946),
    }
    for label, (systems, dense_not_sgm, sgm_true) in populations.items():
        outcomes = collections.Counter()
        for sys in systems:
            if not sys.pseudoequivariant():
                continue
            dense, returning = _sgm_condition_by_definition(sys)
            sgm = ck.Verdicts["sgm"](sys)
            assert returning is sgm, serialize(sys)
            applies = ck.Verdicts["gt"](sys) and returning
            assert ck.sgm_sufficient_condition(sys).applies is applies, serialize(sys)
            outcomes[sgm, dense] += 1
        assert outcomes[False, True] == dense_not_sgm, label
        assert outcomes[True, True] == sgm_true and not outcomes[True, False], label


def _quotient_opens_by_fixpoint(action, proj, orbit_masks):
    """The least open set of orbits containing each orbit, grown until
    its preimage is open: add the orbit of every point of a minimal open
    of the preimage that the preimage misses."""
    out = []
    for o in range(len(orbit_masks)):
        s = 1 << o
        while True:
            pre = sum(orbit_masks[p] for p in bits(s))
            grow = 0
            for x in bits(pre):
                for y in bits(action.space.min_open[x] & ~pre):
                    grow |= 1 << proj[y]
            if not grow:
                break
            s |= grow
        out.append(s)
    return tuple(out)


def test_quotient_opens_match_the_fixpoint(sweep):
    # the sweep's actions, the generated systems' and every action of the
    # catalog groups on every 4-point space
    on_four = [Action._trusted(group, space, phi)
               for space in all_spaces(4) for group in catalog().values()
               for phi in all_homs(group, automorphisms(space), space.n)]
    assert len(on_four) == 7034
    generated = [sys.action for sys in generated_systems(suite_configs(400))]
    for action in [sys.action for sys in sweep] + generated + on_four:
        qs = quotient(action)
        assert qs.space.min_open == _quotient_opens_by_fixpoint(action, qs.proj,
                                                                qs.orbit_masks)
