import itertools
from pathlib import Path

import pytest

from gdyn import fixtures
from gdyn.algebra import Action, cyclic_group, trivial_action
from gdyn.bitsets import bits
from gdyn.corpus import _extend_hom, enumerate_systems, generate
from gdyn.dynamics import GSystem
from gdyn.errors import GenerationError
from gdyn.topology import compose, discrete_space, map_image

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def fixture_map():
    return {fx.name: fx for fx in fixtures()}


@pytest.fixture(scope="session")
def sweep():
    """Every system on up to three points over Z1, Z2 and Z3, in the
    order of ``enumerate_systems()``."""
    return list(enumerate_systems())


def all_homs(group, autos, n):
    """Every homomorphism of the group into the given permutations of n
    points, as an action table: one per choice of generator images that
    extends, in product order."""
    gens = group.generators()
    for images in itertools.product(autos, repeat=len(gens)):
        phi = _extend_hom(group, gens, dict(zip(gens, images)), n)
        if phi is not None:
            yield tuple(phi)


def all_automorphisms(space):
    """Every permutation of the carrier, in ``itertools.permutations``
    order, that preserves the minimal opens: the exhaustive reference
    for ``automorphisms``."""
    mo = space.min_open
    return [perm for perm in itertools.permutations(range(space.n))
            if all(map_image(perm, mo[x]) == mo[perm[x]] for x in range(space.n))]


def is_open(space, a):
    """A set is open iff it contains the minimal open of each of its points."""
    return all(not (space.min_open[x] & ~a) for x in bits(a))


def opens(space):
    """Every open set, the empty set included, by filtering all subsets
    in ascending order.  Exponential; for small spaces."""
    return [s for s in range(1 << space.n) if is_open(space, s)]


def mask(space, names):
    """The mask of the named points."""
    return sum(1 << space.index[name] for name in set(names))


def f_orbit(sys, x):
    """Mask of {f^k(x) : k >= 0}, walking the map until a point repeats:
    the reference for ``IterateCache.fwd``."""
    out = 0
    y = x
    while not (out >> y) & 1:
        out |= 1 << y
        y = sys.f[y]
    return out


def gf_orbit(sys, x):
    """Mask of {g.f^k(x) : g in G, k >= 0}."""
    return sys.action.saturate(f_orbit(sys, x))


def brute_opens(space):
    """All open sets by unioning basis elements in every combination."""
    found = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for m in space.min_open:
            t = s | m
            if t not in found:
                found.add(t)
                frontier.append(t)
    return found


def brute_closure(space, a):
    """Intersection of all closed supersets."""
    out = space.full
    for o in brute_opens(space):
        c = space.full & ~o
        if a & ~c == 0:
            out &= c
    return out


def first_discontinuity(space, table):
    """The first point x, in carrier order, some y of whose minimal open
    has f(y) outside min_open(f(x)), point by point: the reference for
    ``find_discontinuity``."""
    for x in range(space.n):
        target = space.min_open[table[x]]
        if any(not (target >> table[y]) & 1 for y in bits(space.min_open[x])):
            return x
    return None


def map_preimage(table, a, n):
    """Mask of the points x < n with table[x] in a."""
    out = 0
    for x in range(n):
        if (a >> table[x]) & 1:
            out |= 1 << x
    return out


def generated_systems(configs):
    """The generator's system for each config, skipping those whose
    draws run out (``GenerationError``)."""
    for cfg in configs:
        try:
            yield generate(cfg)
        except GenerationError:
            pass


def trivialized(sys):
    """The same map with the group forgotten (trivial action)."""
    return GSystem(trivial_action(sys.space), sys.f)


def gf_periodic_points(sys):
    """Points x with g.f^k(x) = x for some g and k >= 1, with the least
    such k: the reference for ``gf_periodic_mask``.  Since g ranges over
    a group, the condition at exponent k is f^k(x) in G(x); f^k(x) repeats
    with period L beyond the depth d, so the walk stops after d + L steps."""
    c = sys.cache()
    out = []
    for x in range(sys.space.n):
        orb = sys.action.orbit(x)
        y = x
        for k in range(1, c.depth[x] + c.length[x] + 1):
            y = sys.f[y]
            if (orb >> y) & 1:
                out.append((x, k))
                break
    return out


def refute_pair(sys, u_names, v_names, m=1, horizon_pad=4):
    """Confirm by direct search that no translated iterate of f^m sends
    U into contact with V: the definition quantifies over k >= 1 and all
    group elements, so a false verdict must survive this scan."""
    space = sys.space
    u = mask(space, u_names)
    v = mask(space, v_names)
    g_rows = sys.action.act
    t = sys.f
    for _ in range(m - 1):
        t = compose(sys.f, t)
    cur = u
    for _ in range(sys.cache().horizon + horizon_pad):
        cur = map_image(t, cur)
        for row in g_rows:
            tr = 0
            for x in bits(cur):
                tr |= 1 << row[x]
            assert not (tr & v), "witness pair is actually reachable"


def cycles_text(lengths, group_order=1):
    """System file text for disjoint cycles of the given lengths on a
    discrete carrier, the cyclic group of ``group_order`` acting trivially.
    The iterate horizon is the lcm of the lengths."""
    pts, maps = [], []
    for c in lengths:
        base = len(pts)
        for i in range(c):
            pts.append(f"p{base + i}")
            maps.append(f"map p{base + i} p{base + (i + 1) % c}")
    elems = [str(g) for g in range(group_order)]
    lines = [f"points {' '.join(pts)}", *(f"open {p}" for p in pts)]
    lines += [f"group {' '.join(elems)}", "identity 0"]
    lines += [
        f"mul {a} " + " ".join(elems[(int(a) + int(b)) % group_order] for b in elems)
        for a in elems
    ]
    lines += [f"act {g} {p} {p}" for g in elems for p in pts]
    return "\n".join(lines + maps) + "\n"


def shifted_cycles(lengths):
    """Disjoint cycles of the given lengths on a discrete carrier, under
    the cyclic group of the point count shifting every point: every
    saturation is the whole space, so there is one orbit of atoms, and
    every point is minimal."""
    n = sum(lengths)
    f, base = [], 0
    for c in lengths:
        f += [base + (i + 1) % c for i in range(c)]
        base += c
    act = tuple(tuple((x + g) % n for x in range(n)) for g in range(n))
    space = discrete_space(tuple(f"p{x}" for x in range(n)))
    return GSystem(Action(cyclic_group(n), space, act), tuple(f))
