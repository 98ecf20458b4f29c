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
``points[i]``.  Spaces are immutable after construction and all
functions here are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .bitsets import bits
from .errors import LimitError, ValidationError

MaxAutomorphismPoints = 8


class Space:
    """A finite topological space.

    ``points`` are the point names in carrier order; ``min_open[i]`` is
    the bitmask of the smallest open set containing point i.
    """

    __slots__ = ("points", "min_open", "index", "full")

    def __init__(self, points: Sequence[str], min_open: Sequence[int]):
        pts = tuple(points)
        mo = tuple(min_open)
        if not pts:
            raise ValidationError("space: carrier must be nonempty")
        if len(set(pts)) != len(pts):
            raise ValidationError("space: duplicate point names")
        for name in pts:
            if not name or any(c.isspace() for c in name) or "#" in name:
                raise ValidationError(f"space: bad point name {name!r}")
        n = len(pts)
        full = (1 << n) - 1
        if len(mo) != n:
            raise ValidationError("space: min_open must assign a set to every point")
        for x, m in enumerate(mo):
            if m & ~full:
                raise ValidationError(f"space: min_open({pts[x]}) is not a subset of the carrier")
            if not (m >> x) & 1:
                raise ValidationError(f"space: min_open({pts[x]}) does not contain {pts[x]}")
        for x, m in enumerate(mo):
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
    mo = []
    for x in range(len(pts)):
        m = full
        for s in sets:
            if (s >> x) & 1:
                m &= s
        mo.append(m)
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


def check_table(space: Space, table: Sequence[int]) -> tuple[int, ...]:
    t = tuple(table)
    n = space.n
    if len(t) != n or min(t) < 0 or max(t) >= n:
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
    return find_discontinuity(space, table) is None


def find_discontinuity(space: Space, table: Sequence[int]) -> int | None:
    """Index of a point violating the continuity criterion, or None."""
    t = check_table(space, table)
    mo = space.min_open
    for x, m in enumerate(mo):
        target = mo[t[x]]
        while m:  # every y in min_open(x) must have f(y) in min_open(f(x))
            low = m & -m
            if not (target >> t[low.bit_length() - 1]) & 1:
                return x
            m ^= low
    return None


def automorphisms(space: Space) -> list[tuple[int, ...]]:
    """All self-homeomorphisms of the space, as permutation tables.

    A permutation s is a homeomorphism iff it preserves the minimal-open
    relation both ways: y in min_open(x) <=> s(y) in min_open(s(x)).
    Exhaustive over all permutations, so capped at small carriers.
    """
    from itertools import permutations

    n = space.n
    if n > MaxAutomorphismPoints:
        raise LimitError(f"automorphisms(): carrier larger than {MaxAutomorphismPoints} points")
    mo = space.min_open
    return [perm for perm in permutations(range(n))
            if all(map_image(perm, mo[x]) == mo[perm[x]] for x in range(n))]
