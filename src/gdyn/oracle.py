"""Brute-force reference implementations of every property decided in
`gdyn.checkers`, recomputed from the raw definitions.

Nothing here shares machinery with the checkers: quantifiers over open
sets range over every open set (enumerated by subset filtering, not just
the minimal-open basis), group translates are searched element by
element (no orbit saturation shortcut), iterate bounds come from a
freshly built table sequence rather than the shared cache, and closures
are computed as complements of unions of avoiding opens.  Slow on
purpose; sizes are capped.
"""

from __future__ import annotations

from .bitsets import bits
from .dynamics import GSystem
from .errors import LimitError

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


def oracle_quotient_minimal(sys: GSystem) -> bool:
    """Minimality of the induced map on the orbit space, with orbits,
    quotient opens and closures all rebuilt from scratch.  Assumes the
    induced map exists (the caller checks pseudoequivariance)."""
    n = sys.space.n
    if n > MaxOraclePoints:
        raise LimitError(f"oracle: too many points ({n} > {MaxOraclePoints})")
    act = sys.action.act
    orbit_of = [0] * n
    orbit_masks: list[int] = []
    assigned = [False] * n
    for x in range(n):
        if assigned[x]:
            continue
        m = 0
        for row in act:
            m |= 1 << row[x]
        idx = len(orbit_masks)
        orbit_masks.append(m)
        for y in bits(m):
            orbit_of[y] = idx
            assigned[y] = True
    k = len(orbit_masks)
    if k > MaxOraclePoints:
        raise LimitError(f"oracle: too many orbits ({k} > {MaxOraclePoints})")
    q_opens = []
    mo = sys.space.min_open
    for s in range(1 << k):
        pre = 0
        for i in bits(s):
            pre |= orbit_masks[i]
        if all(mo[x] & ~pre == 0 for x in bits(pre)):
            q_opens.append(s)
    induced = tuple(
        orbit_of[sys.f[next(bits(orbit_masks[i]))]] for i in range(k)
    )
    q_full = (1 << k) - 1

    def q_closure(a: int) -> int:
        avoid = 0
        for s in q_opens:
            if not (s & a):
                avoid |= s
        return q_full & ~avoid

    for o in range(k):
        seen = set()
        orbit = 0
        y = o
        while y not in seen:
            seen.add(y)
            orbit |= 1 << y
            y = induced[y]
        if q_closure(orbit) != q_full:
            return False
    return True
