"""Finite groups given by multiplication tables, and their actions on
finite spaces by homeomorphisms.

Groups are validated at construction (totality, identity, associativity
by Light's test over a generating set, inverses); actions are validated
against the action axioms (compatibility over a generating set), which
make every translation a bijection, and the translations by a
generating set are checked to be continuous, which makes every
translation a homeomorphism.  Both are immutable value types.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence
from operator import itemgetter
from typing import NamedTuple

from .bitsets import bits
from .errors import ValidationError
from .topology import (
    Space,
    find_discontinuity,
    identity_table,
    indices_below,
    map_image,
    writable_name,
)


class Group:
    # ``_mul``: the table, or a function to derive it (see ``_trusted``)
    __slots__ = ("name", "elements", "_mul", "identity", "_gens")

    def __init__(self, elements: Sequence[str], mul: Sequence[Sequence[int]], name: str = ""):
        elems = tuple(elements)
        if not elems:
            raise ValidationError("group: no elements")
        for g in elems:
            if not writable_name(g):
                raise ValidationError(f"group: bad element name {g!r}")
        if len(set(elems)) != len(elems):
            raise ValidationError("group: duplicate element names")
        n = len(elems)
        table = tuple(tuple(row) for row in mul)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValidationError("group: multiplication table must be n x n")
        if not all(indices_below(row, n) for row in table):
            raise ValidationError("group: table entry outside the element list")
        # identity
        ident = None
        ids = tuple(range(n))
        for e in range(n):
            if table[e] == ids and all(table[x][e] == x for x in ids):
                ident = e
                break
        if ident is None:
            raise ValidationError("group: no identity element")
        # associativity by Light's test: the elements a with (x.a).y = x.(a.y)
        # for all x, y are closed under the product and include the
        # identity, so checking a generating set covers every a
        for s in _generating_set(table, ident):
            s_then = itemgetter(*table[s])  # row x -> the products x.(s.y)
            for x in range(n):
                left = table[table[x][s]]
                if left != s_then(table[x]):
                    y = next(y for y in range(n) if left[y] != table[x][table[s][y]])
                    raise ValidationError(
                        f"group: associativity fails at "
                        f"({elems[x]}, {elems[s]}, {elems[y]})"
                    )
        # inverses: in a finite monoid a.b = e has at most one solution b,
        # and it has b.a = e
        for a, row in enumerate(table):
            if ident not in row or table[row.index(ident)][a] != ident:
                raise ValidationError(f"group: no inverse for {elems[a]}")
        self._set(elems, table, ident, name)

    @classmethod
    def _trusted(cls, elements: tuple[str, ...],
                 mul: tuple[tuple[int, ...], ...] | Callable[[], tuple[tuple[int, ...], ...]],
                 identity: int, name: str) -> Group:
        """A group from tables already known to satisfy the axioms.  The
        multiplication table may be a picklable function that derives it,
        called when ``mul`` is first read."""
        g = cls.__new__(cls)
        g._set(elements, mul, identity, name)
        return g

    def _set(self, elements: tuple[str, ...], mul, identity: int, name: str) -> None:
        self.name = name
        self.elements = elements
        self._mul = mul
        self.identity = identity
        self._gens: tuple[int, ...] | None = None

    @property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        """``mul[a][b]`` is the product a.b."""
        if callable(self._mul):
            self._mul = self._mul()
        return self._mul

    @property
    def order(self) -> int:
        return len(self.elements)

    def generators(self) -> tuple[int, ...]:
        """A small generating set, found greedily in element order."""
        if self._gens is None:
            self._gens = _generating_set(self.mul, self.identity)
        return self._gens

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Group)
            and self.elements == other.elements
            and self.mul == other.mul
        )

    def __hash__(self) -> int:
        return hash((self.elements, self.mul))

    def __repr__(self) -> str:
        return f"Group({self.name or ','.join(self.elements)})"


def _generating_set(mul: tuple[tuple[int, ...], ...], identity: int) -> tuple[int, ...]:
    """Elements taken greedily in order until every element is a product
    ((s1.s2).s3)... of them.  That needs no associativity, so it serves
    the group's own validation."""
    gens: list[int] = []
    closed = {identity}
    for a in range(len(mul)):
        if a in closed:
            continue
        gens.append(a)
        # the elements already closed need only the new generator
        frontier = list({mul[x][a] for x in closed} - closed)
        closed.update(frontier)
        while frontier:
            row = mul[frontier.pop()]
            for s in gens:
                z = row[s]
                if z not in closed:
                    closed.add(z)
                    frontier.append(z)
    return tuple(gens)


def cyclic_group(n: int) -> Group:
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValidationError(f"cyclic_group: order must be an int >= 1, got {n!r}")
    elems = tuple(str(i) for i in range(n))
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return Group(elems, mul, name=f"Z{n}")


def klein_group() -> Group:
    elems = ("e", "a", "b", "ab")
    # index bits are the two Z2 coordinates, so the product is their xor
    mul = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
    return Group(elems, mul, name="Z2xZ2")


def symmetric_group_3() -> Group:
    perms = [
        (0, 1, 2), (1, 2, 0), (2, 0, 1),  # rotations
        (0, 2, 1), (2, 1, 0), (1, 0, 2),  # transpositions
    ]
    names = ("e", "r", "rr", "s", "rs", "rrs")
    idx = {p: i for i, p in enumerate(perms)}
    mul = tuple(
        tuple(idx[tuple(p[q[k]] for k in range(3))] for q in perms)
        for p in perms
    )
    return Group(names, mul, name="S3")


@functools.cache
def catalog() -> dict[str, Group]:
    """Validated stock groups: Z1..Z8, the Klein four-group, S3."""
    groups = [cyclic_group(n) for n in range(1, 9)] + [klein_group(), symmetric_group_3()]
    return {g.name: g for g in groups}


class Action:
    """A left action of a finite group on a finite space, every
    translation a homeomorphism.  ``act[g][x]`` is the point g.x."""

    # ``_act``: the table, or a function to derive it (see ``_trusted``).
    # Memos, not part of equality: each point's orbit, built with the
    # action unless given, and the checkers' scan columns (the basis and
    # its saturations) and minimal points, built on first use
    __slots__ = ("group", "space", "_act", "_orbit_of", "_columns", "_atoms")

    def __init__(self, group: Group, space: Space, act: Sequence[Sequence[int]]):
        table = tuple(tuple(row) for row in act)
        n, m = space.n, group.order
        if len(table) != m or any(len(row) != n for row in table):
            raise ValidationError("action: table must be |G| x |X|")
        if not all(indices_below(row, n) for row in table):
            raise ValidationError("action: table entry outside the carrier")
        for x, y in enumerate(table[group.identity]):
            if x != y:
                raise ValidationError(
                    f"action: identity must act trivially, moves {space.points[x]}"
                )
        # compatibility g.(h.x) = (gh).x: the h for which it holds for all g
        # and x are closed under the product, so the generators cover every h
        for h in group.generators():
            for g in range(m):
                gh = group.mul[g][h]
                for x in range(n):
                    if table[g][table[h][x]] != table[gh][x]:
                        raise ValidationError(
                            f"action: compatibility fails at "
                            f"({group.elements[g]}, {group.elements[h]}, {space.points[x]})"
                        )
        # compatibility and a trivial identity make table[inv g] the inverse
        # of table[g] and table[gh] the composite of table[g] and table[h].
        # A continuous bijection of a finite space has a continuous inverse
        # (preimages are injective on the finitely many opens), so continuous
        # generator rows make every translation a homeomorphism.  The first
        # g whose row is not continuous is a generator, since the greedy set
        # skips only products of earlier, continuous elements: the message
        # names the same g as a check of every row in element order
        for g in group.generators():
            if find_discontinuity(space, table[g]) is not None:
                raise ValidationError(
                    f"action: translation by {group.elements[g]} is not continuous"
                )
        self._set(group, space, table)

    @classmethod
    def _trusted(cls, group: Group, space: Space,
                 act: tuple[tuple[int, ...], ...] | Callable[[], tuple[tuple[int, ...], ...]],
                 orbits: tuple[int, ...] | None = None) -> Action:
        """An action from a table already known to satisfy the axioms.  The
        table may be a picklable function that derives it, called when
        ``act`` is first read; it then needs ``orbits``, each point's orbit
        mask, which are otherwise read off the table."""
        a = cls.__new__(cls)
        a._set(group, space, act, orbits)
        return a

    def _set(self, group: Group, space: Space, act, orbits: tuple[int, ...] | None = None) -> None:
        self.group = group
        self.space = space
        self._act = act
        if orbits is None:
            orbit_of = []
            for x in range(space.n):
                o = 0
                for row in act:
                    o |= 1 << row[x]
                orbit_of.append(o)
            orbits = tuple(orbit_of)
        self._orbit_of = orbits
        self._columns = None
        self._atoms = None

    @property
    def act(self) -> tuple[tuple[int, ...], ...]:
        """The table, derived on first read when given as a function."""
        if callable(self._act):
            self._act = self._act()
        return self._act

    def orbit(self, x: int) -> int:
        """Bitmask of G(x)."""
        return self._orbit_of[x]

    def saturate(self, a: int) -> int:
        """Union of all translates of a (the smallest G-invariant superset)."""
        out = 0
        for x in bits(a):
            out |= self._orbit_of[x]
        return out

    def translate(self, g: int, a: int) -> int:
        return map_image(self.act[g], a)

    def orbits(self) -> list[int]:
        """Orbit partition, ordered by smallest member."""
        seen = 0
        out = []
        for x in range(self.space.n):
            if not (seen >> x) & 1:
                o = self._orbit_of[x]
                out.append(o)
                seen |= o
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Action)
            and self.group == other.group
            and self.space == other.space
            and self.act == other.act
        )

    def __hash__(self) -> int:
        return hash((self.group, self.space, self.act))


def trivial_action(space: Space) -> Action:
    return Action._trusted(cyclic_group(1), space, (identity_table(space.n),))


# -- equivariance ----------------------------------------------------------


def is_equivariant(action: Action, f: Sequence[int]) -> bool:
    """f(g.x) == g.f(x) for every g and x."""
    return equivariance_failure(action, f) is None


def equivariance_failure(action: Action, f: Sequence[int]) -> tuple[int, int] | None:
    for g, row in enumerate(action.act):
        for x in range(action.space.n):
            if f[row[x]] != row[f[x]]:
                return g, x
    return None


def is_pseudoequivariant(action: Action, f: Sequence[int]) -> bool:
    """f(G(x)) == G(f(x)) for every x: f permutes orbits setwise."""
    return pseudoequivariance_failure(action, f) is None


def pseudoequivariance_failure(action: Action, f: Sequence[int]) -> int | None:
    for x in range(action.space.n):
        if map_image(f, action.orbit(x)) != action.orbit(f[x]):
            return x
    return None


# -- quotient by the group -------------------------------------------------


class QuotientSystem(NamedTuple):
    """Orbit space of an action, with the projection and (when the map
    is pseudoequivariant) the induced map on orbits.

    Orbits are named after their smallest member and ordered by it.
    """

    space: Space
    proj: tuple[int, ...]
    orbit_masks: tuple[int, ...]
    induced: tuple[int, ...] | None


def quotient(action: Action, f: Sequence[int] | None = None) -> QuotientSystem:
    src = action.space
    orbit_masks = tuple(action.orbits())
    proj = [0] * src.n
    for o, mask in enumerate(orbit_masks):
        for x in bits(mask):
            proj[x] = o
    # the least open set of orbits containing G(x) is the image of
    # min_open(x): translations are homeomorphisms, so the saturation of
    # min_open(x) is open, and every open set of orbits containing G(x)
    # pulls back to an open set containing min_open(x)
    reps = tuple(next(bits(m)) for m in orbit_masks)
    qspace = Space._trusted(tuple(src.points[x] for x in reps),
                            tuple(map_image(proj, src.min_open[x]) for x in reps))
    induced = None
    if f is not None and is_pseudoequivariant(action, f):
        induced = tuple(proj[f[x]] for x in reps)
    return QuotientSystem(qspace, tuple(proj), orbit_masks, induced)
