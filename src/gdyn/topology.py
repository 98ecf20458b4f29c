"""Finite topological spaces encoded by minimal open neighbourhoods.

Every finite topology is an Alexandrov topology: arbitrary intersections
of opens are open, so each point x has a smallest open neighbourhood
``min_open(x)``, and the opens are exactly the unions of minimal opens.
Conversely, any assignment x -> min_open(x) satisfying

* ``x in min_open(x)``, and
* ``y in min_open(x)`` implies ``min_open(y) <= min_open(x)``

is the minimal-open map of exactly one topology.  Closure, interior,
density and continuity all reduce to O(n^2) bitmask scans under this
encoding.

Point sets are plain ints used as bitmasks: bit i stands for
``points[i]``.  Spaces are immutable after construction (their one memo,
the continuity plan, is a function of the minimal opens) and all
functions here are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .bitsets import bits
from .errors import LimitError, ValidationError

MaxAutomorphismPoints = 8


def writable_name(name: str) -> bool:
    """Whether a point or element name can stand in a system file: it is
    nonempty and holds no whitespace and no comment sign ``#``."""
    return bool(name) and "#" not in name and not any(c.isspace() for c in name)


class Space:
    """A finite topological space.

    ``points`` are the point names in carrier order; ``min_open[i]`` is
    the bitmask of the smallest open set containing point i.
    """

    # memo: the continuity plan of ``find_discontinuity`` (built on first use)
    __slots__ = ("points", "min_open", "index", "full", "_plan")

    def __init__(self, points: Sequence[str], min_open: Sequence[int]):
        pts = tuple(points)
        mo = tuple(min_open)
        if not pts:
            raise ValidationError("space: carrier must be nonempty")
        if len(set(pts)) != len(pts):
            raise ValidationError("space: duplicate point names")
        for name in pts:
            if not writable_name(name):
                raise ValidationError(f"space: bad point name {name!r}")
        n = len(pts)
        full = (1 << n) - 1
        if len(mo) != n:
            raise ValidationError("space: min_open must assign a set to every point")
        if not _ints(mo):
            raise ValidationError("space: min_open entries must be int masks")
        for x, m in enumerate(mo):
            if m & ~full:
                raise ValidationError(f"space: min_open({pts[x]}) is not a subset of the carrier")
            if not (m >> x) & 1:
                raise ValidationError(f"space: min_open({pts[x]}) does not contain {pts[x]}")
        # the first point with a given minimal open fails the base condition
        # iff every later one does, at the same y, so each open is checked once
        checked: set[int] = set()
        for x, m in enumerate(mo):
            if m in checked:
                continue
            checked.add(m)
            for y in bits(m):
                if mo[y] & ~m:
                    raise ValidationError(
                        f"space: base condition fails: {pts[y]} in min_open({pts[x]}) "
                        f"but min_open({pts[y]}) is not contained in it"
                    )
        self._set(pts, mo)

    @classmethod
    def _trusted(cls, points: tuple[str, ...], min_open: tuple[int, ...]) -> Space:
        """A space from a minimal-open table already known to be valid."""
        s = cls.__new__(cls)
        s._set(points, min_open)
        return s

    def _set(self, points: tuple[str, ...], min_open: tuple[int, ...]) -> None:
        self.points = points
        self.min_open = min_open
        self.index = {name: i for i, name in enumerate(points)}
        self.full = (1 << len(points)) - 1
        self._plan: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    # -- set predicates and operators ------------------------------------

    def closure(self, a: int) -> int:
        """Smallest closed superset: points whose every neighbourhood meets a."""
        out = 0
        for x in range(len(self.points)):
            if self.min_open[x] & a:
                out |= 1 << x
        return out

    def interior(self, a: int) -> int:
        out = 0
        for x in bits(a):
            if not (self.min_open[x] & ~a):
                out |= 1 << x
        return out

    def is_dense(self, a: int) -> bool:
        return self.closure(a) == self.full

    def is_nowhere_dense(self, a: int) -> bool:
        return self.interior(self.closure(a)) == 0

    def is_discrete(self) -> bool:
        """True iff every singleton is open (the finite Hausdorff case)."""
        return all(m == 1 << x for x, m in enumerate(self.min_open))

    # -- conversions ------------------------------------------------------

    def names(self, mask: int) -> tuple[str, ...]:
        return tuple(self.points[i] for i in bits(mask))

    def label(self, mask: int) -> str:
        return "{" + ",".join(self.names(mask)) + "}"

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Space)
            and self.points == other.points
            and self.min_open == other.min_open
        )

    def __hash__(self) -> int:
        return hash((self.points, self.min_open))

    def __repr__(self) -> str:
        return f"Space({len(self.points)} points)"


def discrete_space(points: Sequence[str]) -> Space:
    return Space(points, tuple(1 << i for i in range(len(points))))


def space_from_subbasis(points: Sequence[str], subbasis: Iterable[Iterable[str]]) -> Space:
    """Build the topology generated by ``subbasis``.

    min_open(x) is the intersection of the subbasis sets containing x
    (the whole carrier when none does), which is exactly the smallest
    generated open set containing x.  An empty subbasis therefore yields
    the indiscrete topology.
    """
    pts = tuple(points)
    idx = {name: i for i, name in enumerate(pts)}
    full = (1 << len(pts)) - 1
    sets = []
    for s in subbasis:
        m = 0
        for name in s:
            if name not in idx:
                raise ValidationError(f"subbasis: unknown point {name!r}")
            m |= 1 << idx[name]
        sets.append(m)
    mo = [full] * len(pts)
    for s in sets:
        for x in bits(s):
            mo[x] &= s
    return Space(pts, mo)


def product(s1: Space, s2: Space) -> Space:
    """Product space on pairs; index of (i, j) is ``i * s2.n + j``.

    Minimal opens multiply: min_open((x, y)) = min_open(x) x min_open(y).
    """
    n2 = s2.n
    names = tuple(f"({p},{q})" for p in s1.points for q in s2.points)
    mo = []
    for i in range(s1.n):
        for j in range(n2):
            m = 0
            for a in bits(s1.min_open[i]):
                base = a * n2
                for b in bits(s2.min_open[j]):
                    m |= 1 << (base + b)
            mo.append(m)
    return Space._trusted(names, tuple(mo))


# -- maps as index tables -------------------------------------------------


def _ints(values: Sequence) -> bool:
    """Whether every entry is an int (not a bool, float or str, which a
    range test would pass or fail with a TypeError)."""
    return set(map(type, values)) <= {int}


def indices_below(values: Sequence, n: int) -> bool:
    """Whether every entry is an int in [0, n)."""
    return _ints(values) and 0 <= min(values) and max(values) < n


def check_table(space: Space, table: Sequence[int]) -> tuple[int, ...]:
    t = tuple(table)
    if len(t) != space.n or not indices_below(t, space.n):
        raise ValidationError("map: table must send every point to a point of the carrier")
    return t


def map_image(table: Sequence[int], a: int) -> int:
    out = 0
    for x in bits(a):
        out |= 1 << table[x]
    return out


def compose(outer: Sequence[int], inner: Sequence[int]) -> tuple[int, ...]:
    """Table of x -> outer[inner[x]]."""
    return tuple([outer[y] for y in inner])


def identity_table(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_continuous(space: Space, table: Sequence[int]) -> bool:
    """Minimal-open criterion: f(min_open(x)) <= min_open(f(x)) for all x.

    Equivalent to "the preimage of every open set is open"; the tests
    cross-check both formulations.
    """
    return find_discontinuity(space, check_table(space, table)) is None


def find_discontinuity(space: Space, table: Sequence[int]) -> int | None:
    """The first point x, in carrier order, with f(min_open(x)) not inside
    min_open(f(x)), or None.  ``table`` must send every point into the
    carrier (``check_table``).  Only a point whose minimal open is more
    than {x} can fail.  The space's continuity plan, built on its first
    call, lists those points, and points that share a minimal open share
    its image, built on first need."""
    plan = space._plan
    if plan is None:
        plan = space._plan = _continuity_plan(space.min_open)
    tests, opens = plan
    mo, images = space.min_open, [0] * len(opens)
    for x, k in tests:
        image = images[k]
        if not image:
            for y in opens[k]:
                image |= 1 << table[y]
            images[k] = image
        if image & ~mo[table[x]]:
            return x
    return None


def _continuity_plan(min_open: tuple[int, ...]):
    """The points x whose minimal open is more than {x}, in carrier order,
    each with the index of its minimal open among the distinct ones, and
    the points of each distinct open."""
    slot: dict[int, int] = {}
    tests, opens = [], []
    for x, m in enumerate(min_open):
        if m != 1 << x:
            k = slot.get(m)
            if k is None:
                k = slot[m] = len(opens)
                opens.append(tuple(bits(m)))
            tests.append((x, k))
    return tuple(tests), tuple(opens)


def automorphisms(space: Space) -> list[tuple[int, ...]]:
    """All self-homeomorphisms of the space, as permutation tables, in
    lexicographic order (the order of ``itertools.permutations``).  The
    generator draws indices into this list, so the order is part of its
    random streams.

    A permutation s is a homeomorphism iff it preserves the minimal-open
    relation both ways: y in min_open(x) <=> s(y) in min_open(s(x)).
    The search places the points in carrier order, each on the unused
    candidates in ascending order.  Point x may go to y only if
    min_open(y) and the up-set {z : y in min_open(z)} of y have the sizes
    of x's, and only if the relation between x and every placed point,
    both ways, holds between y and that point's image.  Capped at small
    carriers.
    """
    n = space.n
    if n > MaxAutomorphismPoints:
        raise LimitError(f"automorphisms(): carrier larger than {MaxAutomorphismPoints} points")
    mo = space.min_open
    up = [0] * n
    for z, m in enumerate(mo):
        for y in bits(m):
            up[y] |= 1 << z
    sig = [(m.bit_count(), u.bit_count()) for m, u in zip(mo, up)]
    # level x holds every placement of points 0..x-1, in lexicographic
    # order, with the mask of the images used
    level: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for x in range(n):
        placed = (1 << x) - 1
        down_x, up_x = mo[x] & placed, up[x] & placed
        cands = [y for y in range(n) if sig[y] == sig[x]]
        nxt = []
        for perm, used in level:
            want_down, want_up = map_image(perm, down_x), map_image(perm, up_x)
            for y in cands:
                if (not (used >> y) & 1 and mo[y] & used == want_down
                        and up[y] & used == want_up):
                    nxt.append((perm + (y,), used | 1 << y))
        level = nxt
    return [perm for perm, _ in level]
