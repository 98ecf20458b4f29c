"""Brute-force reference implementations of every property decided in
`gdyn.checkers`, recomputed from the raw definitions.

Nothing here shares machinery with the checkers: quantifiers over open
sets range over every open set (enumerated by subset filtering, not just
the minimal-open basis), group translates are searched element by
element (no orbit saturation shortcut), iterate bounds come from a
freshly built table sequence rather than the shared cache, and closures
are computed as complements of unions of avoiding opens.  Slow on
purpose; sizes are capped.

``Verdicts`` maps the property names of `gdyn.checkers.Verdicts` to
their re-derivations here.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .algebra import trivial_action
from .bitsets import bits
from .dynamics import GSystem
from .errors import LimitError
from .topology import Space

MaxOraclePoints = 16


class OracleContext:
    """Exhaustive scan state for one system: every open set, the distinct
    iterate tables of the map, and every translated composed table."""

    def __init__(self, sys: GSystem):
        n = sys.space.n
        if n > MaxOraclePoints:
            raise LimitError(f"oracle: too many points ({n} > {MaxOraclePoints})")
        self.sys = sys
        mo = sys.space.min_open
        self.opens = [
            s for s in range(1 << n)
            if all(mo[x] & ~s == 0 for x in bits(s))
        ]
        self.nonempty_opens = [s for s in self.opens if s]
        self.tables = _power_tables(sys.f)
        self.cycle_start = _cycle_start(sys.f, self.tables)

    def closure(self, a: int) -> int:
        """Complement of the union of all opens missing a."""
        avoid = 0
        for s in self.opens:
            if not (s & a):
                avoid |= s
        return self.sys.space.full & ~avoid

    def translates(self, a: int):
        act = self.sys.action.act
        for row in act:
            t = 0
            for x in bits(a):
                t |= 1 << row[x]
            yield t

    def sat_orbit(self, x: int) -> int:
        """Union of all translates of all forward images of x."""
        act = self.sys.action.act
        f = self.sys.f
        seen = set()
        out = 0
        y = x
        while y not in seen:
            seen.add(y)
            for row in act:
                out |= 1 << row[y]
            y = f[y]
        return out


def _power_tables(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Distinct tables f^1, f^2, ... in order, stopping at the first repeat."""
    tables: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    t = f
    while t not in seen:
        seen[t] = len(tables)
        tables.append(t)
        t = tuple(t[v] for v in f)
    return tables


def _cycle_start(f: tuple[int, ...], tables: list[tuple[int, ...]]) -> int:
    """Index r such that the table sequence recurs as tables[r:] forever."""
    t = tuple(tables[-1][v] for v in f)
    return tables.index(t)


def _image(table: tuple[int, ...], a: int) -> int:
    out = 0
    for x in bits(a):
        out |= 1 << table[x]
    return out


def _translate_union(ctx: OracleContext, a: int) -> int:
    out = 0
    for t in ctx.translates(a):
        out |= t
    return out


def oracle_continuous(sys: GSystem) -> bool:
    ctx = OracleContext(sys)
    n = sys.space.n
    for s in ctx.opens:
        pre = 0
        for x in range(n):
            if (s >> sys.f[x]) & 1:
                pre |= 1 << x
        if pre not in ctx.opens:
            return False
    return True


def oracle_p1(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    """Pseudoequivariance: the image of every orbit is the orbit of the
    image, f(G(x)) = G(f(x)), with both orbits collected translate by
    translate."""
    ctx = ctx or OracleContext(sys)
    f = sys.f
    return all(
        _image(f, _translate_union(ctx, 1 << x)) == _translate_union(ctx, 1 << f[x])
        for x in range(sys.space.n)
    )


def oracle_equivariant(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    """Equivariance: f(g.x) = g.f(x) for every element g and point x."""
    f = sys.f
    return all(
        f[row[x]] == row[f[x]] for row in sys.action.act for x in range(sys.space.n)
    )


def oracle_p2(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    """The G-periodic points, x with g.f^k(x) = x for some element g and
    exponent k >= 1, are dense: their closure is the whole space."""
    ctx = ctx or OracleContext(sys)
    act = sys.action.act
    periodic = 0
    for x in range(sys.space.n):
        if any(row[t[x]] == x for t in ctx.tables for row in act):
            periodic |= 1 << x
    return ctx.closure(periodic) == sys.space.full


def oracle_gt(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    """Some translated iterate image of U meets V, for every pair of
    nonempty opens.  The existential over exponents and elements is the
    union of the translated images meeting V."""
    ctx = ctx or OracleContext(sys)
    return _gt_for_powers(ctx, ctx.tables)


def _gt_for_powers(ctx: OracleContext, powers: list[tuple[int, ...]]) -> bool:
    for u in ctx.nonempty_opens:
        reach = 0
        for t in powers:
            reach |= _translate_union(ctx, _image(t, u))
        for v in ctx.nonempty_opens:
            if not (reach & v):
                return False
    return True


def oracle_tgt(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    ctx = ctx or OracleContext(sys)
    return all(_gt_for_powers(ctx, _power_tables(t)) for t in ctx.tables)


def oracle_wgm(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    """Some single exponent serves any two open pairs at once.  The hit
    pattern of a pair repeats with the table sequence, so patterns are
    compared as bitmasks over the distinct-table window; two pairs with
    disjoint patterns refute mixing."""
    ctx = ctx or OracleContext(sys)
    patterns = set()
    for u in ctx.nonempty_opens:
        reach = [_translate_union(ctx, _image(t, u)) for t in ctx.tables]
        for e in ctx.nonempty_opens:
            m = 0
            for k, r in enumerate(reach):
                if r & e:
                    m |= 1 << k
            if not m:
                return False
            patterns.add(m)
    distinct = list(patterns)
    for i, a in enumerate(distinct):
        for b in distinct[i:]:
            if not (a & b):
                return False
    return True


def oracle_sgm(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    ctx = ctx or OracleContext(sys)
    recurring = ctx.tables[ctx.cycle_start:]
    for u in ctx.nonempty_opens:
        reach = [_translate_union(ctx, _image(t, u)) for t in recurring]
        for v in ctx.nonempty_opens:
            for r in reach:
                if not (r & v):
                    return False
    return True


def oracle_gm(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    ctx = ctx or OracleContext(sys)
    full = sys.space.full
    return all(
        ctx.closure(ctx.sat_orbit(x)) == full for x in range(sys.space.n)
    )


def oracle_minimal_sets(sys: GSystem, ctx: OracleContext | None = None) -> list[int]:
    """Every nonempty closed subset that is invariant under the map and
    all translations, and in which every point's saturated orbit closure
    is the whole subset.  Candidates range over the closed sets, i.e.
    the complements of the enumerated opens."""
    ctx = ctx or OracleContext(sys)
    full = sys.space.full
    closed = {full & ~o for o in ctx.opens}
    out = []
    for a in sorted(closed):
        if not a:
            continue
        if _image(sys.f, a) & ~a:
            continue
        if any(t & ~a for t in ctx.translates(a)):
            continue
        if all(ctx.closure(ctx.sat_orbit(x)) == a for x in bits(a)):
            out.append(a)
    return sorted(out, key=lambda m: m & -m)


def oracle_cover(sys: GSystem, ctx: OracleContext | None = None) -> bool:
    """Translated iterate preimages of every nonempty open set cover the
    space.  Preimage sets repeat with the table sequence, so the union
    over all depths equals the union over the distinct-table window."""
    ctx = ctx or OracleContext(sys)
    n = sys.space.n
    full = sys.space.full
    for u in ctx.nonempty_opens:
        pres = [u]
        for t in ctx.tables:
            pre = 0
            for x in range(n):
                if (u >> t[x]) & 1:
                    pre |= 1 << x
            pres.append(pre)
        covered = 0
        for p in pres:
            for tr in ctx.translates(p):
                covered |= tr
        if covered != full:
            return False
    return True


# property name -> fn(sys, ctx) -> bool, with the names and the order of
# `gdyn.checkers.Verdicts`
Verdicts = {
    "p1": oracle_p1,
    "equivariant": oracle_equivariant,
    "p2": oracle_p2,
    "gt": oracle_gt,
    "gm": oracle_gm,
    "sgm": oracle_sgm,
    "cover": oracle_cover,
    "tgt": oracle_tgt,
    "wgm": oracle_wgm,
}


def oracle_quotient_minimal(sys: GSystem) -> bool:
    """Minimality of the induced map on the orbit space, the group
    forgotten: ``oracle_gm`` under the trivial group.  Orbits are collected
    translate by translate, a set of orbits is open iff its union is, and
    each orbit's minimal open is the intersection of the opens that hold
    it.  Assumes the induced map exists (the caller checks
    pseudoequivariance)."""
    ctx = OracleContext(sys)
    orbits: list[int] = []
    for x in range(sys.space.n):
        orbit = _translate_union(ctx, 1 << x)
        if orbit not in orbits:
            orbits.append(orbit)
    k, opens = len(orbits), set(ctx.opens)
    q_opens = [s for s in range(1 << k)
               if reduce(or_, [orbits[i] for i in bits(s)], 0) in opens]
    min_open = [reduce(and_, [s for s in q_opens if (s >> i) & 1]) for i in range(k)]
    orbit_of = {x: i for i, orbit in enumerate(orbits) for x in bits(orbit)}
    induced = [orbit_of[sys.f[next(bits(orbit))]] for orbit in orbits]
    space = Space(tuple(f"o{i}" for i in range(k)), min_open)
    return oracle_gm(GSystem(trivial_action(space), induced))
