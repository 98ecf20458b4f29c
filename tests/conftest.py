import functools
import itertools
from pathlib import Path

import pytest

from gdyn import checkers as ck
from gdyn import corpus, fixtures
from gdyn.algebra import Action, Group, cyclic_group, trivial_action
from gdyn.bitsets import bits
from gdyn.corpus import _extend_hom, enumerate_systems, generate
from gdyn.dynamics import GSystem
from gdyn.errors import GenerationError
from gdyn.topology import Space, compose, discrete_space, map_image

DATA = Path(__file__).parent / "data"
# the fixture files that ship with the package
SHIPPED = Path(corpus.__file__).parent / "data"


@pytest.fixture(scope="session")
def fixture_map():
    return {fx.name: fx for fx in fixtures()}


@pytest.fixture(scope="session")
def sweep():
    """Every system on up to three points over Z1, Z2 and Z3, in the
    order of ``enumerate_systems()``."""
    return list(enumerate_systems())


def mine_admits(action, lits):
    """Whether ``mine`` decides a map of this action: ``space_admits`` on
    its space and |G|, then ``action_admits``, at the target's demand."""
    need = ck.atom_demand(lits)
    return (ck.space_admits(action.space.min_open, action.group.order, need)
            and ck.action_admits(action, need))


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
    return sum(1 << space.points.index(name) for name in set(names))


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


@functools.lru_cache(maxsize=4096)
def power(f, k):
    """The table of f^k (k >= 1), composed afresh from the map's table."""
    t = f
    for _ in range(k - 1):
        t = compose(f, t)
    return t


def refute_pair(sys, u_names, v_names, m=1, horizon_pad=4):
    """Confirm by direct search that no translated iterate of f^m sends
    U into contact with V: the definition quantifies over k >= 1 and all
    group elements, so a false verdict must survive this scan."""
    space = sys.space
    u = mask(space, u_names)
    v = mask(space, v_names)
    g_rows = sys.action.act
    t = power(sys.f, m)
    cur = u
    for _ in range(sys.cache().horizon + horizon_pad):
        cur = map_image(t, cur)
        for row in g_rows:
            tr = 0
            for x in bits(cur):
                tr |= 1 << row[x]
            assert not (tr & v), "witness pair is actually reachable"


def check_gt_certificate(sys, cert):
    """A certificate (U, V, k, g) of gt, or of sgm, holds: g.f^k(U) meets V."""
    u_names, v_names, k, g_name = cert
    g = sys.group.elements.index(g_name)
    img = map_image(power(sys.f, k), mask(sys.space, u_names))
    assert sys.action.translate(g, img) & mask(sys.space, v_names)


def check_wgm_certificate(sys, cert):
    """A wgm certificate (U, V, E, F, k, g1, g2) holds: g1.f^k(U) meets E
    and g2.f^k(V) meets F."""
    u_names, v_names, e_names, f_names, k, g1_name, g2_name = cert
    t = power(sys.f, k)
    img_u, img_v = (map_image(t, mask(sys.space, names)) for names in (u_names, v_names))
    g1, g2 = (sys.group.elements.index(g) for g in (g1_name, g2_name))
    assert sys.action.translate(g1, img_u) & mask(sys.space, e_names)
    assert sys.action.translate(g2, img_v) & mask(sys.space, f_names)


@functools.lru_cache(maxsize=None)
def product_space(s1, s2):
    """The product space, built and validated by ``Space``: (x, y) is
    point x * |X2| + y, named "(x,y)", and its minimal open is the set of
    pairs of the minimal opens of x and y.  Spaces compare by names and
    opens, so a cached product is the one these would build."""
    n2 = s2.n
    return Space(
        tuple(f"({p},{q})" for p in s1.points for q in s2.points),
        tuple(sum(1 << (a * n2 + b) for a in bits(u) for b in bits(v))
              for u in s1.min_open for v in s2.min_open))


@functools.lru_cache(maxsize=None)
def _product_group(g1, g2, name):
    """The product group, built and validated by ``Group``: (a, b) is
    element a * |G2| + b, named "(a|b)", multiplied componentwise.  Groups
    compare without their names, so the name is part of the key."""
    m2 = g2.order
    return Group(
        tuple(f"({a}|{b})" for a in g1.elements for b in g2.elements),
        [[g1.mul[a1][a2] * m2 + g2.mul[b1][b2] for a2 in range(g1.order) for b2 in range(m2)]
         for a1 in range(g1.order) for b1 in range(m2)],
        name=name)


def reference_product(s1, s2):
    """The product system, every part built and validated by the public
    constructors, the action and the map componentwise on the indices of
    ``product_space`` and ``_product_group``: the reference for
    ``product_system``."""
    g1, g2 = s1.group, s2.group
    n2 = s2.space.n
    group = _product_group(g1, g2, f"{g1.name}x{g2.name}")
    act = [[s1.action.act[a][x] * n2 + s2.action.act[b][y]
            for x in range(s1.space.n) for y in range(n2)]
           for a in range(g1.order) for b in range(g2.order)]
    action = Action(group, product_space(s1.space, s2.space), act)
    return GSystem(action, [s1.f[x] * n2 + s2.f[y] for x in range(s1.space.n) for y in range(n2)])


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
