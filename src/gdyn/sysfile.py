"""Plain-text description of a finite G-system.

A file is a sequence of lines; ``#`` starts a comment and blank lines
are ignored.  Sections may appear in any order:

    points a b c          carrier, one line; order fixes indexing
    open a b              a subbasic open set; zero or more lines
                          (no open lines means the indiscrete topology)
    group e g             group element names, one line
    identity e            the identity element
    mul e e g             row of the multiplication table: products of
                          the left element against every element in order
    act g a b             the element g sends point a to point b
    map a b               the map sends point a to point b

`parse` builds the validated system; syntactic problems raise ParseError
with the offending line number, semantic problems (group axioms, action
axioms, continuity) surface as ValidationError from the constructors, and
a points line with more than `MaxPoints` points or a group line with
more than `MaxGroupOrder` elements raises LimitError at that line,
before any table is built.
`serialize` writes the canonical form: minimal open sets as the
subbasis, sorted; parse and serialize are mutually inverse on it.
"""

from __future__ import annotations

from .algebra import Action, Group
from .dynamics import GSystem
from .errors import LimitError, ParseError
from .topology import Space, space_from_subbasis

# the largest group a file may declare.  Group validation is
# O(|G|^2 * |S|) for its greedy generating set S.  A group has
# |S| <= log2 |G|, but a table that is no group can need |S| = |G| - 1
# (a monoid with x.y = x for every x but the identity); at this order
# that worst case is still rejected in about 0.3 s (README)
MaxGroupOrder = 256
# the largest carrier a file may declare.  At this size the costliest check
# measured, tgt on a discrete cycle under the trivial group, takes about
# 1.7 s and 336 MB (README)
MaxPoints = 1500


def _bound(ln: int, kw: str, count: int, what: str, bound: int) -> None:
    if count > bound:
        raise LimitError(f"line {ln}: {kw}: {count} {what} exceed the bound of {bound}")


def parse(text: str) -> GSystem:
    points: list[str] | None = None
    opens: list[tuple[int, list[str]]] = []
    group_names: list[str] | None = None
    identity: tuple[int, str] | None = None
    mul_rows: dict[str, tuple[int, list[str]]] = {}
    act_entries: dict[tuple[str, str], tuple[int, str]] = {}
    map_entries: dict[str, tuple[int, str]] = {}

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kw, args = tok[0], tok[1:]
        if kw == "points":
            if points is not None:
                raise ParseError("duplicate points line", ln)
            if not args:
                raise ParseError("points: at least one point required", ln)
            if len(set(args)) != len(args):
                raise ParseError("points: duplicate name", ln)
            _bound(ln, "points", len(args), "points", MaxPoints)
            points = args
        elif kw == "open":
            if not args:
                raise ParseError("open: empty set", ln)
            opens.append((ln, args))
        elif kw == "group":
            if group_names is not None:
                raise ParseError("duplicate group line", ln)
            if not args:
                raise ParseError("group: at least one element required", ln)
            if len(set(args)) != len(args):
                raise ParseError("group: duplicate element", ln)
            _bound(ln, "group", len(args), "elements", MaxGroupOrder)
            group_names = args
        elif kw == "identity":
            if identity is not None:
                raise ParseError("duplicate identity line", ln)
            if len(args) != 1:
                raise ParseError("identity: exactly one element expected", ln)
            identity = (ln, args[0])
        elif kw == "mul":
            if len(args) < 2:
                raise ParseError("mul: expected a left element and its products", ln)
            left = args[0]
            if left in mul_rows:
                raise ParseError(f"mul: duplicate row for {left}", ln)
            mul_rows[left] = (ln, args[1:])
        elif kw == "act":
            if len(args) != 3:
                raise ParseError("act: expected element, point, point", ln)
            key = (args[0], args[1])
            if key in act_entries:
                raise ParseError(f"act: duplicate entry for {args[0]} {args[1]}", ln)
            act_entries[key] = (ln, args[2])
        elif kw == "map":
            if len(args) != 2:
                raise ParseError("map: expected point, point", ln)
            if args[0] in map_entries:
                raise ParseError(f"map: duplicate entry for {args[0]}", ln)
            map_entries[args[0]] = (ln, args[1])
        else:
            raise ParseError(f"unknown keyword '{kw}'", ln)

    if points is None:
        raise ParseError("missing points line")
    if group_names is None:
        raise ParseError("missing group line")
    if identity is None:
        raise ParseError("missing identity line")

    pset = set(points)
    gset = set(group_names)
    for ln, names in opens:
        for x in names:
            if x not in pset:
                raise ParseError(f"open: unknown point '{x}'", ln)
    space = space_from_subbasis(tuple(points), [tuple(s) for _, s in opens])

    for g in group_names:
        if g not in mul_rows:
            raise ParseError(f"mul: missing row for {g}")
    for left, (ln, row) in mul_rows.items():
        if left not in gset:
            raise ParseError(f"mul: unknown element '{left}'", ln)
        if len(row) != len(group_names):
            raise ParseError(
                f"mul: expected {len(group_names)} products for {left}", ln
            )
        for r in row:
            if r not in gset:
                raise ParseError(f"mul: unknown element '{r}'", ln)
    gidx = {g: i for i, g in enumerate(group_names)}
    mul = tuple(tuple(gidx[r] for r in mul_rows[g][1]) for g in group_names)
    group = Group(tuple(group_names), mul)
    id_ln, declared = identity
    if declared not in gset:
        raise ParseError(f"identity: unknown element '{declared}'", id_ln)
    if group.elements[group.identity] != declared:
        raise ParseError(
            f"identity: table identity is {group.elements[group.identity]},"
            f" declared {declared}", id_ln
        )

    for (g, x), (ln, y) in act_entries.items():
        if g not in gset:
            raise ParseError(f"act: unknown element '{g}'", ln)
        if x not in pset or y not in pset:
            raise ParseError(f"act: unknown point in '{g} {x} {y}'", ln)
    for g in group_names:
        for x in points:
            if (g, x) not in act_entries:
                raise ParseError(f"act: missing entry for {g} {x}")
    pidx = {x: i for i, x in enumerate(points)}
    act = tuple(
        tuple(pidx[act_entries[(g, x)][1]] for x in points) for g in group_names
    )
    action = Action(group, space, act)

    for x, (ln, y) in map_entries.items():
        if x not in pset or y not in pset:
            raise ParseError(f"map: unknown point in '{x} {y}'", ln)
    for x in points:
        if x not in map_entries:
            raise ParseError(f"map: missing entry for {x}")
    f = tuple(pidx[map_entries[x][1]] for x in points)
    return GSystem(action, f)


def open_lines(space: Space) -> list[str]:
    """The space's canonical ``open`` lines: its distinct minimal opens,
    sorted by their point names."""
    distinct = {m: None for m in space.min_open}
    return ["open " + " ".join(names) for names in sorted(map(space.names, distinct))]


def serialize(sys: GSystem) -> str:
    space = sys.space
    group = sys.group
    lines = ["points " + " ".join(space.points), *open_lines(space)]
    lines.append("group " + " ".join(group.elements))
    lines.append("identity " + group.elements[group.identity])
    for i, g in enumerate(group.elements):
        lines.append(
            f"mul {g} " + " ".join(group.elements[group.mul[i][j]]
                                   for j in range(group.order))
        )
    for i, g in enumerate(group.elements):
        for x, p in enumerate(space.points):
            lines.append(f"act {g} {p} {space.points[sys.action.act[i][x]]}")
    for x, p in enumerate(space.points):
        lines.append(f"map {p} {space.points[sys.f[x]]}")
    return "\n".join(lines) + "\n"
