"""Dynamical systems: a continuous self-map on a finite G-space.

The central decidability device is the iterate cache, a walk of the
map's functional graph.  Every point x runs down a tail of some depth
d(x) into a cycle of some length L(x), so f^k(x) for k >= d(x) depends
only on (k - d(x)) mod L(x).  With p the largest depth and q the lcm of
the cycle lengths, p and q are the minimal pair with f^(p+q) = f^p, so
every "for all n" or "there exists n" quantifier over iterates is decided
on the finite window n in [1, p+q], and the eventually-periodic tail is
exactly the exponents reducing into [p+1, p+q].  No decision composes
an iterate table: f^k(x) is a walk of d(x) + (k - d(x)) mod L(x) steps,
and the periodic points are the cycle points.  Only a read of
``IterateCache.powers`` composes them, within ``MaxTableEntries``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from math import lcm, prod

from .algebra import Action, Group, is_pseudoequivariant
from .bitsets import bits
from .errors import LimitError, ValidationError
from .topology import Space, check_table, compose, find_discontinuity

# bound on the entries of one system's tables: the p+q iterate tables of a
# map on |X| points (``IterateCache.powers``) and the checkers' (p+q)-bit
# exponent masks, counted as if tables, and a product system's element
# names and action rows (``_check_product``), the rows counted though they
# are derived only when read
MaxTableEntries = 4_000_000
MaxCarrier = 20000  # product carriers (n-fold ones too) and product minimality's point pairs


class IterateCache:
    """The functional graph of f: each point's tail depth, cycle length
    and forward orbit, with the minimal preperiod/period pair.
    ``on_minimal`` holds the checkers' verdicts on the map's part of tgt
    and wgm, keyed by the minimal points they were decided on, so every
    system that shares this cache shares them too."""

    __slots__ = ("f", "depth", "length", "fwd", "preperiod", "period", "_powers",
                 "on_minimal")

    def __init__(self, f: Sequence[int]):
        self.f = f = tuple(f)
        n = len(f)
        depth = [-1] * n  # -1 unvisited, -2 on the path being walked
        length = [0] * n
        fwd = [0] * n  # mask of {f^k(x) : k >= 0}
        p, q = 0, 1
        for x in range(n):
            if depth[x] != -1:
                continue
            path = []
            y = x
            while depth[y] == -1:
                depth[y] = -2
                path.append(y)
                y = f[y]
            if depth[y] == -2:  # the walk closed a new cycle at y
                i = path.index(y)
                cycle = path[i:]
                del path[i:]
                size = len(cycle)
                mask = 0
                for z in cycle:
                    mask |= 1 << z
                for z in cycle:
                    depth[z], length[z], fwd[z] = 0, size, mask
                if q % size:
                    q = lcm(q, size)
            for z in reversed(path):  # the tail, nearest the cycle first
                y = f[z]
                depth[z], length[z], fwd[z] = depth[y] + 1, length[y], fwd[y] | 1 << z
            if depth[x] > p:
                p = depth[x]
        self.depth, self.length, self.fwd = depth, length, fwd
        self.preperiod, self.period = p, q
        self._powers: tuple[tuple[int, ...], ...] | None = None
        # (atom representatives, Min) -> [tgt's part, wgm's part], None until decided
        self.on_minimal: dict[tuple[tuple[int, ...], int], list] = {}

    def reduce(self, m: int) -> int:
        """The exponent in [1, p+q] whose table equals f^m (m >= 1)."""
        if m < 1:
            raise ValueError("reduce: exponent must be >= 1")
        horizon = self.preperiod + self.period
        if m <= horizon:
            return m
        return self.preperiod + 1 + (m - self.preperiod - 1) % self.period

    def image(self, x: int, k: int) -> int:
        """f^k(x) for k >= 0: a walk of at most depth + cycle length steps."""
        d = self.depth[x]
        if k > d:
            k = d + (k - d) % self.length[x]
        f = self.f
        for _ in range(k):
            x = f[x]
        return x

    def fits(self) -> bool:
        """Whether p+q tables (or exponent masks) over the carrier stay
        within ``MaxTableEntries`` entries."""
        return self.horizon < 2 or self.horizon * len(self.f) <= MaxTableEntries

    @property
    def powers(self) -> tuple[tuple[int, ...], ...]:
        """The tables of f^1 .. f^(p+q), composed on first read.  Nothing
        in the library reads them.  Raises LimitError, before composing
        any, when they would pass ``MaxTableEntries`` entries."""
        if self._powers is None:
            if not self.fits():
                raise LimitError(
                    f"powers: {self.horizon} iterate tables on {len(self.f)} points"
                    f" pass the bound of {MaxTableEntries} table entries"
                )
            t, out = self.f, [self.f]
            for _ in range(self.horizon - 1):
                t = compose(self.f, t)
                out.append(t)
            self._powers = tuple(out)
        return self._powers

    @property
    def horizon(self) -> int:
        return self.preperiod + self.period


class GSystem:
    """An action together with a continuous self-map of its space."""

    # memo, built on first use: the iterate cache
    __slots__ = ("action", "f", "_cache")

    def __init__(self, action: Action, f: Sequence[int]):
        table = check_table(action.space, f)
        bad = find_discontinuity(action.space, table)
        if bad is not None:
            p = action.space.points
            raise ValidationError(
                f"map: not continuous at {p[bad]}: the image of its minimal "
                f"neighbourhood is not contained in min_open({p[table[bad]]})"
            )
        self._set(action, table)

    @classmethod
    def _trusted(cls, action: Action, f: tuple[int, ...],
                 cache: IterateCache | None = None) -> GSystem:
        """A system from a map already known to be continuous, optionally
        with an iterate cache of that same map: the cache depends on the
        map alone, so systems that share a map may share it."""
        s = cls.__new__(cls)
        s._set(action, f, cache)
        return s

    def _set(self, action: Action, f: tuple[int, ...],
             cache: IterateCache | None = None) -> None:
        self.action = action
        self.f = f
        self._cache = cache

    @property
    def space(self) -> Space:
        return self.action.space

    @property
    def group(self):
        return self.action.group

    def cache(self) -> IterateCache:
        if self._cache is None:
            self._cache = IterateCache(self.f)
        return self._cache

    def pseudoequivariant(self) -> bool:
        return is_pseudoequivariant(self.action, self.f)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GSystem) and self.action == other.action and self.f == other.f

    def __hash__(self) -> int:
        return hash((self.action, self.f))

    def __repr__(self) -> str:
        return f"GSystem({self.space.n} points, {self.group.name or self.group.order})"


# -- periodic points ----------------------------------------------------------


def periodic_points(sys: GSystem) -> int:
    """Mask of x with f^k(x) = x for some k >= 1: the cycle points."""
    out = 0
    for x, d in enumerate(sys.cache().depth):
        if not d:
            out |= 1 << x
    return out


def gf_periodic_mask(sys: GSystem) -> int:
    """Mask of x with g.f^k(x) = x for some g and k >= 1: x qualifies iff
    G(x) meets the forward orbit of f(x)."""
    fwd, f, orbit = sys.cache().fwd, sys.f, sys.action.orbit
    out = 0
    for x in range(sys.space.n):
        if orbit(x) & fwd[f[x]]:
            out |= 1 << x
    return out


# -- products ----------------------------------------------------------------


def _check_product(who: str, sizes: list[int], orders: list[int] | None = None) -> None:
    """Raise LimitError when a product of carriers of these sizes would
    pass ``MaxCarrier`` points or, given the group orders, its group and
    action tables ``MaxTableEntries`` entries; checked before anything is
    built.  The group table and the action rows are derived only when
    read, but their entries still count: the order^2 group entries are
    what keeps the element names and action rows small on a small carrier,
    where order * points alone would let a one-point product hold
    4,000,000 elements."""
    points = prod(sizes)
    if points > MaxCarrier:
        raise LimitError(f"{who}: {_shape(sizes)} points exceeds the bound {MaxCarrier}")
    order = prod(orders or ())
    if orders and order * (order + points) > MaxTableEntries:
        raise LimitError(
            f"{who}: a group of order {_shape(orders)} acting on"
            f" {points} points exceeds the bound of {MaxTableEntries} table entries"
        )


def _shape(sizes: list[int]) -> str:
    """Factor sizes as a product: "189^2", or "3*5" when they differ."""
    if len(set(sizes)) == 1:
        return f"{sizes[0]}^{len(sizes)}"
    return "*".join(map(str, sizes))


def _pairs(t1: Sequence[int], t2: Sequence[int], width: int) -> tuple[int, ...]:
    """The pairs (a, b) of t1 x t2 as indices a * width + b."""
    return tuple(a * width + b for a in t1 for b in t2)


def _blocks(masks1: Sequence[int], masks2: Sequence[int], width: int) -> tuple[int, ...]:
    """The products U x V of the masks, as masks over the indices a * width + b."""
    return tuple(sum(v << a * width for a in bits(u)) for u in masks1 for v in masks2)


def _product_mul(g1: Group, g2: Group) -> tuple[tuple[int, ...], ...]:
    """The product group's table, componentwise on the factors' tables."""
    m2 = g2.order
    return tuple(_pairs(r1, r2, m2) for r1 in g1.mul for r2 in g2.mul)


def _product_act(a1: Action, a2: Action) -> tuple[tuple[int, ...], ...]:
    """The product action's table, componentwise on the factors' tables."""
    n2 = a2.space.n
    return tuple(_pairs(r1, r2, n2) for r1 in a1.act for r2 in a2.act)


def product_system(s1: GSystem, s2: GSystem) -> GSystem:
    """The product map on the product space with the componentwise action
    of the product group.  The point (x, y) has index x * |X2| + y and name
    "(x,y)", the element (a, b) index a * |G2| + b and name "(a|b)"; minimal
    opens and orbits multiply, min_open((x, y)) = min_open(x) x min_open(y)
    and G(x, y) = G1(x) x G2(y).  Products of validated factors satisfy the
    axioms and skip the checks.  No decision reads the group's table or the
    action's translation rows, so both are derived from the factors' when
    first read.  Raises LimitError past the bounds that ``nfold_system``
    names."""
    sp1, sp2, g1, g2, a1, a2 = s1.space, s2.space, s1.group, s2.group, s1.action, s2.action
    n2, m2 = sp2.n, g2.order
    _check_product("product_system", [sp1.n, n2], [g1.order, m2])
    space = Space._trusted(
        tuple(f"({x},{y})" for x in sp1.points for y in sp2.points),
        _blocks(sp1.min_open, sp2.min_open, n2),
    )
    group = Group._trusted(
        tuple(f"({a}|{b})" for a in g1.elements for b in g2.elements),
        partial(_product_mul, g1, g2), g1.identity * m2 + g2.identity, f"{g1.name}x{g2.name}",
    )
    orbits = _blocks([a1.orbit(x) for x in range(sp1.n)], [a2.orbit(y) for y in range(n2)], n2)
    action = Action._trusted(group, space, partial(_product_act, a1, a2), orbits)
    return GSystem._trusted(action, _pairs(s1.f, s2.f, n2))


def nfold_system(sys: GSystem, n: int) -> GSystem:
    """The n-fold product of the system with itself, each factor joined on
    the right.  Raises ValidationError unless n is an int >= 1, and
    LimitError when the carrier would pass ``MaxCarrier`` points or the
    group and action tables ``MaxTableEntries`` entries."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"nfold_system: n must be an int >= 1, got {n!r}")
    # a carrier of two or more points passes MaxCarrier within this many
    # factors, and further factors of a one-point carrier add nothing
    if n > MaxCarrier.bit_length():
        raise LimitError(
            f"nfold_system: {n} factors exceed the bound {MaxCarrier.bit_length()}"
        )
    _check_product("nfold_system", [sys.space.n] * n, [sys.group.order] * n)
    out = sys
    for _ in range(n - 1):
        out = product_system(out, sys)
    return out
