"""Decision procedures for transitivity, mixing and minimality of a
continuous map on a finite G-space.

Three reductions make every property decidable by a finite scan:

* the iterate cache bounds all quantifiers over exponents by the window
  [1, p+q]: beyond it f^k(x) repeats with its cycle, so every exponent
  has the same images as one in the window;
* because G is a group, "some translate of A meets V" is equivalent to
  "A meets the orbit saturation of V", which removes the inner search
  over group elements;
* universal quantifiers over nonempty open sets are monotone in both
  arguments, so they are decided on the basis of minimal opens.

gt needs no exponent: some g.f^k(U), k >= 1, meets V iff fwd(f(U))
meets G(V), so gt, like gm, is a density test on forward orbits.  tgt,
wgm and sgm are decided on the minimal points, and the sgm sufficient
condition on verdicts (below).  Only the ``is_*`` reports read a table:
the hit mask of basis opens U and V has bit k, k in [1, p+q], iff f^k(U)
meets G(V).  The false witnesses of wgm and sgm, tgt's where gt holds
(where gt fails, tgt's witness is gt's at m = 1) and certificates read
it, one row per U.  The masks come from the functional graph: each
point of U is walked for the tail depth d and cycle length L that the
iterate cache records, a cycle point first met at k recurring at k + L,
k + 2L, ...; only the rows are kept.  The deduplicated basis, its
saturation columns and the atoms depend on the action alone and are
memoised on it; each report builds the scan context it reads, and the
certificates theirs when first read.  The context bounds the masks: a
window [1, p+q] on |X| points past ``MaxTableEntries`` raises
LimitError, and past it a true verdict carries a summary instead of
certificates.  No verdict reads the window, so every property answers
past that bound; only the false witnesses of wgm and sgm, and tgt's on
a gt-true system, stop there.

Total transitivity is decided on one exponent.  Let e be the least
multiple of q with e >= max(p, 1).  For every m >= 1, m*e is >= p and
= 0 mod q, so f^(m*e) = f^e.  Hence every f^m is transitive iff f^e(U)
meets G(V) for all basis opens U and V: for "if", given m take the
iterate (f^m)^e = f^e; for "only if", f^e is transitive, and its
iterates (f^e)^j are all f^e.  The same exponent e serves every pair of
pairs at once, so tgt implies wgm on every finite G-space, with no
precondition; the paper's p1 & p2 & tgt -> wgm follows, and with
p1 & wgm -> tgt the two are equivalent under p1.  The search for the
least failing m, which names the false witness, runs only on a false
verdict.  wgm implies gt: some (g, g').(f x f)^k links the product's
basis pair (U x U, V x V), so g.f^k(U) meets V.

tgt also implies sgm on every finite G-space.  Call x minimal if its
minimal open is its class {y : U_y = U_x} (an atom), and let Min be the
set of minimal points.  Every nonempty open contains an atom, f maps
each class into a class, and G(V) is a union of classes.  (a) For an
atom A, f^e(A) lies in one class, which tgt makes meet, so lie in,
G(A') for every atom A'; orbits of atoms are equal or disjoint, so Min
is one orbit of atoms and f^e(Min) is in Min.  (b) Let c in Min have
period L, and suppose y = f(c) is not in Min.  Take m in Min inside U_y;
by continuity f^(L-1)(m) is in U_c, the class of c, so f^e(m) is in the
class of f^(e-L+1)(c) = y (L divides e), outside Min, against (a).  So
every cycle through Min stays in Min.  (c) For m in Min, f^e(m) is a
cycle point in Min, so f^k(m) is in Min = G(A') for every k >= e and
atom A': sgm.  With sgm -> tgt, tgt and sgm are equivalent.

The same facts decide tgt, wgm and sgm on the minimal points.  Each
basis open V contains an atom A', and G(A') <= G(V); f^k maps an atom
into one class, which lies in Min or outside it.  So each property holds
iff it holds on atoms.  If Min is two or more orbits of atoms, no point
lies in G(A) and in G(A') for atoms of different orbits, and all three
fail (for wgm take U = V, and E, F in different orbits), whatever the
map.  G acts by homeomorphisms, which map each class onto a class and
each minimal open onto a minimal open, so G permutes the k atoms of the
space.  By the orbit-stabilizer theorem an orbit of atoms has
|G| / |Stab(A)| members, so one orbit of k atoms needs k to divide |G|.
Otherwise G(A') = Min for every atom A', and with m the least point of
each atom:

* tgt, and so sgm, iff f^e(m) is in Min for every m (the tests keep
  sgm's own rule, the cycle of every m lies in Min, as a second route);
* wgm iff the return sets T(m) = {k >= 1 : f^k(m) in Min} meet
  pairwise, which ``_meet`` decides on the return sets of f(m).  Equal
  return sets are tested once.

Where every point is minimal (Min = X: the atoms cover X, as in every
discrete space), f^k(m) is in Min for every k, so f^e(m) is in Min and
T(m) is all of k >= 1 for every m, and any two such sets meet: where
Min is one orbit of atoms all three hold by the rules above, and where
it is two or more all three fail.  So tgt, wgm and sgm each hold iff
Min is one orbit of atoms, whatever the map.

Hence what literals demand of the atoms (``atom_demand``): 1 where one
asks tgt, wgm or sgm to hold, as Min must be one orbit of atoms; 2 where
they ask two of the three to differ, as Min must also miss a point; else
0.  The miner (``corpus.mine``) asks three questions of a demand, each
before a draw it would spend, and none needs the map:

* size: the points of a discrete space are its atoms and cover X, so
  ``space_admits`` on the discrete space of n points settles every
  discrete draw of size n under that group;
* space: ``space_admits`` reads the minimal opens and |G|, and rejects
  where the k atoms cannot be one orbit, k not dividing |G|, or at
  demand 2 where they cover X;
* action: ``action_admits`` rejects where Min, the union of the atoms,
  is two or more orbits of atoms.

Each rule walks at most d + L steps per atom.  Past the one-orbit test
each reads only the map, the least points of the atoms and Min, so its
outcome is kept on the iterate cache under those two and shared by
every system on that cache (sgm after tgt is a lookup).

Pseudoequivariant systems are their orbit spaces.  Let f be
pseudoequivariant (p1: f(G(x)) = G(f(x)) for every x), pi : X -> X/G
the projection and F the induced map, F(pi(x)) = pi(f(x)).  Then:

* pi is open: pi^-1(pi(U)) = G(U) is a union of translates of U;
* every open W of X/G is pi(pi^-1(W)), so the nonempty opens of X/G are
  exactly the pi(U), U a nonempty open of X;
* pi f^k = F^k pi, and G(V) = pi^-1(pi(V)).

So f^k(U) meets G(V) iff F^k(pi(U)) meets pi(V), and gt, tgt and sgm
of (X, G, f) are those of F under the trivial group, pair by pair and
exponent by exponent (f^m is p1, with induced map F^m).  gm: G(fwd(x))
is pi^-1 of the forward orbit of pi(x) under F, and a saturated set
meets U iff its image meets pi(U), so G(fwd(x)) is dense iff that orbit
is.  p2: the G-periodic points, f^k(x) in G(x) for some k >= 1, are
pi^-1 of the periodic points of F, a saturated set, dense on the same
terms.  wgm: f x f is p1 under G x G with induced map F x F, and
(X x X)/(G x G) = X/G x X/G (the orbits of pairs are the pairs of
orbits, and pi x pi is open), so wgm is gt of F x F under the trivial
group.  cover: under p1, G(fwd(x)), the union over k of G(f^k(x)) =
f^k(G(x)), is the union of fwd(y) over y in G(x), so the cover
criterion is gm; under the trivial group it is gm of F.  Hence p2, gt,
tgt, wgm, sgm, gm and cover of a p1 system equal those of its orbit
space under the trivial group, and ``quotient_minimality`` answers both
its fields from gm; the tests build the orbit space as a second route.
Three consequences:

* under p1, cover = gm (above);
* p1 & gt -> p2 reduces to the trivial group.  A nonempty open W
  contains an atom A, and gt with U = V = A gives k >= 1 with f^k(A)
  meeting A, so f^k maps the class A into A; the self-map f^k of the
  finite set A has a periodic point, which lies in W;
* the paper's p1 & wgm -> tgt reduces to the trivial group.  There the
  orbits of atoms are the atoms, so wgm makes Min one atom A.  For m in
  A, wgm makes T(m) meet itself, so some j >= 1 has f^j(m) in A; f^j
  maps the class A into one class, so into A.  e*j is >= p and = 0 mod
  q, so f^e(m) = f^(e*j)(m) = (f^j)^e(m) is in A, which is tgt.

The paper's sufficient condition for sgm is a theorem.  Let f be p1, x
a point with G(fwd(x)) dense and W = U_x with f^j(W) meeting G(W) for
every j > p; then f is sgm.  For nonempty opens A and B take g.f^a(x)
in A and h.f^b(x) in B; by continuity g.f^a(W) <= A and h.f^b(W) <= B.
For k >= max(1, p + 1 + b - a), j = k + a - b > p gives w, w' in W and
c in G with f^j(w) = c.w', and by p1, G(f^i(c.z)) = G(f^i(z)), so
G(f^k(g.f^a(w))) = G(f^b(c.w')) = G(f^b(w')) holds h.f^b(w') in B:
f^k(A) meets G(B).  Transitivity is not used.  Conversely a tgt (so sgm)
system meets the condition at any minimal point x (G(x) is dense, and
the atom W cycles inside Min = G(W)), so on a p1, gt system it holds
iff tgt does, and ``sgm_sufficient_condition`` reads only verdicts.

Products factor.  Give X1 x X2 the product topology, the action of
G1 x G2 and the map f x h.  The minimal open of (a, b) is U_a x U_b, a
point lies in the closure of S iff its minimal open meets S, and g.S
meets W iff S meets g^-1.W.  So (a, b) lies in the closure of the
saturated orbit of (x, y) iff some k >= 0 has f^k(x) in G1(U_a) and
h^k(y) in G2(U_b) (G(U_a x U_b) is their product): the return sets of
x and y meet, which ``_meet`` decides, as for wgm.  The product is gm iff
every (x, y) reaches every U_a x U_b so, which enters only through the
two saturations.  Every forward orbit of f x h runs into a cycle, and a
superset of a dense set is dense, so one point per cycle of f x h is
asked: for cycles through c and c' of lengths L and L', (c, h^i(c')) and
(c, h^j(c')) lie on one cycle iff i = j mod gcd(L, L') (as in
``_meet``), so take j < gcd(L, L').  The criterion asks it for
(g.f(x), y) and (x, g'.h(y)).  Translations are homeomorphisms, so
U_(g.z) = g.U_z and G1(U_(g.f(x))) = G1(U_f(x)): g and g' drop out,
leaving two questions per (x, y).  No product is built; the tests build
it as a second route.

Each property has one predicate, held in the table ``Verdicts`` (name ->
bool, cheapest first) that ``profile``, the command-line report, the
fixture check, the implication suite and the miner read: tgt and sgm
the tgt rule and wgm the return-set rule on the minimal points; gt and gm,
a saturated forward reach is dense.  The ``is_*`` reports call the same
predicates and build a witness on the verdict: a false verdict names a
failing pair of basis opens (plus the iterate exponent where relevant),
read from the hit masks, a true one (exponent, group element)
certificates when small enough, built from the hit masks when the
witness's ``certificates`` entry is first read.
`gdyn.oracle` re-derives every verdict by brute force from the raw
definitions, in a table with the same names; the tests keep them agreed.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import lru_cache, reduce
from math import gcd
from operator import or_
from typing import NamedTuple

from .algebra import Action, is_equivariant
from .bitsets import bits
from .dynamics import (
    GSystem,
    IterateCache,
    MaxTableEntries,
    _check_product,
    gf_periodic_mask,
    nfold_system,
)
from .errors import LimitError, PreconditionError, ValidationError

CertificateLimit = 10_000


class PropertyReport(NamedTuple):
    prop: str
    verdict: bool
    witness: Mapping | None
    note: str = ""


class _Ctx:
    """A report's scan state: the action's scan columns and the hit-mask
    table, one row per basis open, for the false witnesses and the
    certificates (``element``) of the ``is_*`` reports, no verdict."""

    __slots__ = ("f", "action", "cache", "basis", "window", "cycle_window",
                 "_sats", "_col", "_rows")

    def __init__(self, sys: GSystem):
        self.f = sys.f
        self.action = action = sys.action
        self.cache = c = sys.cache()
        n = len(sys.f)
        if not c.fits():
            raise LimitError(
                f"scan: the exponent window [1, {c.horizon}] on {n} points passes"
                f" the bound of {MaxTableEntries} mask bits"
                f" (at most {max(1, MaxTableEntries // n)} exponents)"
            )
        self.basis, self._col, self._sats = _columns(action)
        self.window = ((1 << c.horizon) - 1) << 1  # exponents [1, p+q]
        self.cycle_window = ((1 << c.period) - 1) << (c.preperiod + 1)
        self._rows: dict[int, list[int]] = {}

    def reach(self, u: int) -> dict[int, int]:
        """Point y -> mask of the exponents k in [1, p+q] with y in f^k(U).

        One walk per point x of U, sized by x's depth d and cycle length L
        in the cache: the tail points f^k(x), k < max(d, 1), are met once,
        and each of the L cycle points after them, first met at k, recurs
        at k + L, ...  Not memoised: the rows built from it are."""
        c, f, window = self.cache, self.f, self.window
        out: dict[int, int] = {}
        get = out.get
        for x in bits(u):
            entry, step = max(c.depth[x], 1), c.length[x]
            y = x
            for k in range(1, entry):
                y = f[y]
                out[y] = get(y, 0) | 1 << k
            every = _every(step, c.horizon)
            for k in range(entry, entry + step):
                y = f[y]
                out[y] = get(y, 0) | (every << k) & window
        return out

    def row(self, u: int) -> list[int]:
        """The hit masks of U against the basis opens V, in basis order:
        bit k, for k in [1, p+q], is set iff f^k(U) meets G(V)."""
        out = self._rows.get(u)
        if out is None:
            get = self.reach(u).get
            masks = []
            for _, points in self._sats:
                if len(points) == 1:
                    masks.append(get(points[0], 0))
                    continue
                h = 0
                for y in points:
                    h |= get(y, 0)
                masks.append(h)
            col = self._col
            out = masks if col is None else [masks[i] for i in col]
            self._rows[u] = out
        return out

    def element(self, u: int, k: int, v: int) -> str:
        """The first group element g with g.f^k(U) meeting V."""
        image, action = self.cache.image, self.action
        img = 0
        for x in bits(u):
            img |= 1 << image(x, k)
        for g in range(action.group.order):
            if action.translate(g, img) & v:
                return action.group.elements[g]
        raise RuntimeError("internal: saturation hit without a witnessing element")


def _columns(action: Action) -> tuple:
    """The action's part of the scan, memoised on it: the basis opens
    deduplicated in order, each one's column (the index of its saturation
    among the distinct ones; None if all are distinct) and the distinct
    saturations as (mask, points)."""
    if action._columns is None:
        basis = tuple(dict.fromkeys(action.space.min_open))
        sats: dict[int, int] = {}
        col = [sats.setdefault(action.saturate(v), len(sats)) for v in basis]
        action._columns = (
            basis, None if len(sats) == len(col) else col,
            [(sat, tuple(bits(sat))) for sat in sats],
        )
    return action._columns


def _exponent(c: IterateCache) -> int:
    """tgt's exponent e: the least multiple of q with e >= max(p, 1)."""
    return c.period * max(1, -(-c.preperiod // c.period))


def _atoms(action: Action) -> tuple[tuple[int, ...], int, bool]:
    """The action's minimal points, memoised on it: the least point of
    each atom (a minimal open that is its class, every point of it having
    that minimal open), the mask Min of the minimal points, and whether
    Min is one orbit of atoms."""
    if action._atoms is None:
        atoms = _atom_masks(action.space.min_open)
        minimal = reduce(or_, atoms)
        action._atoms = (tuple(map(_lowest, atoms)), minimal,
                         action.saturate(atoms[0]) == minimal)
    return action._atoms


def _atom_masks(min_open: tuple[int, ...]) -> list[int]:
    """The atoms of the space with these minimal opens, by least point:
    each minimal open m whose least point x has it and that is the
    minimal open of as many points as it has.  The points with minimal
    open m lie in m, so then they are all of m."""
    return [m for x, m in enumerate(min_open)
            if m & -m == 1 << x and min_open.count(m) == m.bit_count()]


# the properties that fail on every map where Min is two or more orbits
# of atoms, and that coincide where Min is X (module docstring)
_OneOrbit = frozenset(("tgt", "wgm", "sgm"))


def atom_demand(lits: Iterable[tuple[str, bool]]) -> int:
    """What these (property, wanted verdict) literals demand of the
    atoms (module docstring): 0 nothing, 1 that Min be one orbit of atoms
    (a literal asks tgt, wgm or sgm to hold), 2 that it also miss a point
    (the literals ask two of the three to differ)."""
    wants = {want for name, want in lits if name in _OneOrbit}
    return len(wants) if True in wants else 0


def space_admits(min_open: tuple[int, ...], order: int, need: int) -> bool:
    """Whether some action of a group of this order on the space with
    these minimal opens could meet the demand ``need`` on the atoms: its
    k atoms can form one orbit, k dividing |G|, and at demand 2 they miss
    a point of X (module docstring)."""
    if not need:
        return True
    atoms = _atom_masks(min_open)
    return (not order % len(atoms)
            and (need < 2 or sum(m.bit_count() for m in atoms) < len(min_open)))


def action_admits(action: Action, need: int) -> bool:
    """Whether this action could meet the demand ``need`` on the atoms,
    past ``space_admits`` on its space: Min is one orbit of atoms where
    anything is demanded (module docstring)."""
    return not need or _atoms(action)[2]


class _Certified(Mapping):
    """A true verdict's witness: fixed entries, then ``certificates``,
    which is built from the scan table when it is first read."""

    __slots__ = ("_fixed", "_build", "_certs")

    def __init__(self, fixed: dict, build: Callable[[], tuple]):
        self._fixed = fixed
        self._build: Callable[[], tuple] | None = build
        self._certs: tuple = ()

    def __getitem__(self, key):
        if key != "certificates":
            return self._fixed[key]
        if self._build is not None:
            self._certs = self._build()
            self._build = None
        return self._certs

    def __contains__(self, key) -> bool:
        return key == "certificates" or key in self._fixed

    def __iter__(self):
        yield from self._fixed
        yield "certificates"

    def __len__(self) -> int:
        return len(self._fixed) + 1

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return dict, (dict(self),)


def _witness(sys: GSystem, count: int, summary: str, build: Callable[[], tuple],
             **fixed) -> Mapping:
    """Certificates built on first read, or a summary past the limit or
    where the scan context, which builds them, would refuse the window."""
    if count > CertificateLimit or not sys.cache().fits():
        return {"summary": f"{count} {summary} verified", **fixed}
    return _Certified(fixed, build)


def _every(step: int, top: int) -> int:
    """The mask with bits 0, step, 2*step, ... up to ``top``."""
    terms = top // step + 1
    return ((1 << step * terms) - 1) // ((1 << step) - 1)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _pairs(ctx: _Ctx) -> Iterator[tuple[int, int, int]]:
    """(U, V, hit mask) for every basis pair, in basis order."""
    basis = ctx.basis
    for u in basis:
        for v, h in zip(basis, ctx.row(u)):
            yield u, v, h


# -- transitivity -------------------------------------------------------------


def _dense_saturation(sys: GSystem) -> Callable[[int], bool]:
    """Set A -> whether G(A) is dense (A meets every basis saturation)."""
    sats = _columns(sys.action)[2]
    memo: dict[int, bool] = {}  # lives as long as the returned function

    def dense(a: int) -> bool:
        d = memo.get(a)
        if d is None:
            d = memo[a] = all(a & sat for sat, _ in sats)
        return d

    return dense


def _untransitive(sys: GSystem) -> tuple[int, int] | None:
    """The first basis open U whose reach fwd(f(U)) misses some G(V),
    with that reach (the row of the first empty hit mask), or None."""
    fwd, f, dense = sys.cache().fwd, sys.f, _dense_saturation(sys)
    for u in _columns(sys.action)[0]:
        reach = reduce(or_, [fwd[f[x]] for x in bits(u)])
        if not dense(reach):
            return u, reach
    return None


def _transitivity(sys: GSystem) -> tuple[bool, Mapping]:
    """gt's verdict and witness: the first basis pair that no iterate links, or certificates."""
    names, basis = sys.space.names, _columns(sys.action)[0]
    miss = _untransitive(sys)
    if miss is not None:
        sat = sys.action.saturate(miss[1])
        return False, {"U": names(miss[0]), "V": names(next(v for v in basis if not v & sat))}

    def build() -> tuple:
        ctx, out = _Ctx(sys), []
        for u, v, h in _pairs(ctx):
            k = _lowest(h)
            out.append((names(u), names(v), k, ctx.element(u, k, v)))
        return tuple(out)

    return True, _witness(sys, len(basis) ** 2, "basis pairs", build)


def is_g_transitive(sys: GSystem) -> PropertyReport:
    """Every pair of nonempty opens is linked by some translated iterate:
    for all U, V there are k >= 1 and g with g.f^k(U) meeting V."""
    return PropertyReport("gt", *_transitivity(sys))


# -- the minimal points -------------------------------------------------------


def _on_minimal(c: IterateCache, reps: tuple[int, ...], minimal: int) -> list:
    """The map's part of tgt and wgm on these minimal points, [tgt, wgm]
    with None where not yet decided, memoised on the iterate cache."""
    key = (reps, minimal)
    entry = c.on_minimal.get(key)
    if entry is None:
        entry = c.on_minimal[key] = [None, None]
    return entry


def _tgt(sys: GSystem) -> bool:
    """tgt: Min is one orbit of atoms, and f^e maps every atom into it."""
    reps, minimal, one_orbit = _atoms(sys.action)
    if not one_orbit:
        return False
    c = sys.cache()
    entry = _on_minimal(c, reps, minimal)
    if entry[0] is None:
        e, image = _exponent(c), c.image
        entry[0] = all((minimal >> image(m, e)) & 1 for m in reps)
    return entry[0]


def _returns(c: IterateCache, x: int, target: int) -> tuple[int, int, int]:
    """The return set S(x, A) = {k >= 0 : f^k(x) in A} as (d, L, window):
    x's depth d and cycle length L, and the window mask, bit k for
    k < d + L set iff f^k(x) is in A.  From d on the set recurs mod L.
    One walk of d + L steps."""
    f, d, size, window = c.f, c.depth[x], c.length[x], 0
    for k in range(d + size):
        window |= ((target >> x) & 1) << k
        x = f[x]
    return d, size, window


def _meet(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether return sets a and b share an exponent.  They may share one
    in both windows; below D = max(d, d'), where each is its window with
    its cycle part repeated up to D; or from D on, where each is a residue
    set mod its cycle length L taken from the origin D.  Residue sets mod
    L and L' share an exponent iff, folded mod gcd(L, L'), they share a
    residue (the Chinese remainder theorem: t = j mod L and t = j' mod L'
    have a common solution iff j = j' mod gcd(L, L'))."""
    if a[2] & b[2]:
        return True
    top, g = max(a[0], b[0]), gcd(a[1], b[1])
    below, folded, low = -1, [], (1 << g) - 1
    for d, size, window in (a, b):
        cycle, blocks = window >> d, -(-(top - d) // size)  # copies from d to D
        below &= window | cycle * (((1 << size * blocks) - 1) // ((1 << size) - 1)) << d
        out, shift = 0, (top - d) % g
        while cycle:  # fold mod g, then turn to the origin D
            out, cycle = out | cycle & low, cycle >> g
        folded.append((out >> shift | out << g - shift) & low)
    return bool(below & ((1 << top) - 1) or folded[0] & folded[1])


def _wgm(sys: GSystem) -> bool:
    """wgm on the atoms: Min is one orbit of atoms, and every two return
    sets T(m) = {k >= 1 : f^k(m) in Min} of their least points meet, each
    T(m) being S(f(m), Min) shifted by one."""
    reps, minimal, one_orbit = _atoms(sys.action)
    if not one_orbit:
        return False
    c = sys.cache()
    entry = _on_minimal(c, reps, minimal)
    if entry[1] is None:
        sets = list(dict.fromkeys(_returns(c, c.f[m], minimal) for m in reps))
        entry[1] = all(_meet(a, b) for i, a in enumerate(sets) for b in sets[i:])
    return entry[1]


# -- total transitivity and mixing --------------------------------------------


def _least_failing_iterate(ctx: _Ctx) -> tuple[int, int, int]:
    """(m, U, V) for the least m >= 2 whose iterate f^m fails to link some
    basis pair, with the first such pair in basis order; tgt must be false
    and gt true (m = 1 fails exactly where gt does, so no mask is empty)."""
    c, basis = ctx.cache, ctx.basis
    p, q = c.preperiod, c.period
    masks = [h for u in basis for h in ctx.row(u)]
    e = _exponent(c)
    # a mask with bit e meets the reduced exponents of every m, so the
    # least failing m is searched on the distinct masks without it
    lacking = [h for h in set(masks) if not (h >> e) & 1]
    tail_window = (1 << p + 1) - 2  # exponents [1, p]
    for m in range(2, e + 1):  # m = e fails at the latest
        reduced = (_every(m, p) & tail_window
                   | _every(gcd(m, q), c.horizon) & ctx.cycle_window)
        if not all(h & reduced for h in lacking):
            i = next(i for i, h in enumerate(masks) if not h & reduced)
            u, v = divmod(i, len(basis))
            return m, basis[u], basis[v]
    raise RuntimeError("internal: a mask without bit e met every iterate")


def is_totally_g_transitive(sys: GSystem) -> PropertyReport:
    """Every iterate f^m, m >= 1, is itself G-transitive.

    Decided on one exponent: e, the least multiple of q with e >= max(p, 1),
    serves every m at once (f^(m*e) = f^e), so tgt holds iff f^e maps
    every atom into Min, and Min is one orbit of atoms.  A false verdict
    names the least failing m: m = 1 with gt's witness where gt fails, and
    otherwise the least m >= 2 on the hit masks, where f^m hits at the
    reduced exponents of m*j, j >= 1: the tail exponents m*j <= p and the
    cycle exponents k in [p+1, p+q] with k = 0 mod gcd(m, q)."""
    names = sys.space.names
    if not _tgt(sys):
        gt, witness = _transitivity(sys)
        if gt:
            m, u, v = _least_failing_iterate(_Ctx(sys))
            return PropertyReport("tgt", False, {"m": m, "U": names(u), "V": names(v)})
        return PropertyReport("tgt", False, {"m": 1, **witness})
    c = sys.cache()
    # f^1 .. f^(p+q-1) are distinct tables, and f^(p+q) repeats f^p
    # unless p = 0
    ms = range(1, c.horizon + 1 if c.preperiod == 0 else c.horizon)

    def build() -> tuple:
        ctx, out = _Ctx(sys), []
        for m in ms:
            for u, v, h in _pairs(ctx):
                k = next(k for k in (c.reduce(m * j) for j in range(1, c.horizon + 1))
                         if (h >> k) & 1)
                out.append((m, names(u), names(v), k, ctx.element(u, k, v)))
        return tuple(out)

    count = len(ms) * len(_columns(sys.action)[0]) ** 2
    return PropertyReport("tgt", True, _witness(sys, count, "(iterate, pair) checks", build))


def is_weakly_g_mixing(sys: GSystem) -> PropertyReport:
    """The doubled map f x f on the product space is (G x G)-transitive.

    Decided on the base system: for all basis opens U, V, E, F a single
    exponent k must send U into contact with G(E) and V with G(F), which
    links the product's basis pair (U x V, E x F).  On atoms that is: Min
    is one orbit of atoms, and every two return sets meet.  The product
    route is ``is_n_fold_transitive(sys, 2)``; the tests compare the two.
    """
    names = sys.space.names
    if not _wgm(sys):
        # the ordered scan names the first failing 4-tuple: every two hit
        # masks intersect iff wgm holds
        ctx = _Ctx(sys)
        (u, e, _), (v, w, _) = next((a, b) for a in _pairs(ctx) for b in _pairs(ctx)
                                    if not a[2] & b[2])
        witness = {"U": names(u), "V": names(v), "E": names(e), "F": names(w)}
        return PropertyReport("wgm", False, witness)

    def build() -> tuple:
        ctx, out = _Ctx(sys), []
        for u, e, m1 in _pairs(ctx):
            for v, w, m2 in _pairs(ctx):
                k = (m1 & m2).bit_length() - 1
                out.append((names(u), names(v), names(e), names(w), k,
                            ctx.element(u, k, e), ctx.element(v, k, w)))
        return tuple(out)

    count = len(_columns(sys.action)[0]) ** 4
    return PropertyReport("wgm", True, _witness(sys, count, "basis 4-tuples", build))


def is_n_fold_transitive(sys: GSystem, n: int) -> PropertyReport:
    """G^n-transitivity of the n-fold product map."""
    prod = nfold_system(sys, n)
    return PropertyReport(f"nfold:{n}", *_transitivity(prod),
                          note=f"product carrier of {prod.space.n} points")


def is_strongly_g_mixing(sys: GSystem) -> PropertyReport:
    """For every pair of nonempty opens, all sufficiently large exponents
    hit: some translate of f^n(U) meets V for every n beyond a threshold.
    Decided by the tgt rule: sgm and tgt are equivalent on finite G-spaces
    (module docstring).  A false verdict names the first basis pair whose
    hit mask misses a recurring exponent in [p+1, p+q]."""
    names, c = sys.space.names, sys.cache()
    if not _tgt(sys):
        ctx = _Ctx(sys)
        window = ctx.cycle_window
        u, v, h = next(t for t in _pairs(ctx) if window & ~t[2])
        witness = {"U": names(u), "V": names(v), "missing_exponent": _lowest(window & ~h)}
        return PropertyReport("sgm", False, witness)

    def build() -> tuple:
        ctx = _Ctx(sys)
        return tuple((names(u), names(v), k, ctx.element(u, k, v))
                     for u, v, _ in _pairs(ctx) for k in range(c.preperiod + 1, c.horizon + 1))

    count = len(_columns(sys.action)[0]) ** 2 * c.period
    witness = _witness(sys, count, "(pair, exponent) checks", build,
                       threshold=c.preperiod + 1)
    return PropertyReport("sgm", True, witness)


# -- minimality ---------------------------------------------------------------


def g_transitive_points(sys: GSystem) -> int:
    """Mask of points whose saturated forward orbit is dense."""
    dense = _dense_saturation(sys)
    return sum(1 << x for x, orbit in enumerate(sys.cache().fwd) if dense(orbit))


def _gm(sys: GSystem) -> bool:
    """gm: every point has a dense saturated forward orbit."""
    return g_transitive_points(sys) == sys.space.full


def is_g_minimal(sys: GSystem) -> PropertyReport:
    """Every point has a dense saturated forward orbit: ``_gm``'s mask is full."""
    lacking = sys.space.full & ~g_transitive_points(sys)
    if not lacking:
        return PropertyReport("gm", True, {"summary": "all points have dense saturated orbits"})
    x = next(bits(lacking))
    closure = sys.space.closure(sys.action.saturate(sys.cache().fwd[x]))
    witness = {"x": sys.space.points[x], "orbit_closure": sys.space.names(closure)}
    return PropertyReport("gm", False, witness)


def g_minimal_sets(sys: GSystem) -> list[int]:
    """All minimal dynamical cores: nonempty closed sets, invariant under
    the map and under every translation, in which every point has orbit
    closure equal to the whole set.

    The least closed invariant superset of x is the closure of the set x
    reaches by f and the translations (f is continuous and translations
    are homeomorphisms): one walk per point outside the cores found so
    far, each distinct superset tested once against the definition.  For
    pseudoequivariant maps the cores are the terminal classes of the
    preorder x -> y iff y lies in the closure of the saturated orbit of
    x; the tests compare the two.
    """
    space, f, orbit, fwd = sys.space, sys.f, sys.action.orbit, sys.cache().fwd
    # forward orbit -> the closure of its saturation
    orbit_closure = lru_cache(None)(lambda o: space.closure(sys.action.saturate(o)))
    tested: set[int] = set()
    out: list[int] = []
    found = 0  # the points of the cores found so far
    for x in range(space.n):
        if (found >> x) & 1:
            continue
        seen, stack = 1 << x, [x]
        while stack:
            y = stack.pop()
            new = (orbit(y) | 1 << f[y]) & ~seen
            seen |= new
            stack += bits(new)
        a = space.closure(seen)
        if a not in tested:
            tested.add(a)
            if all(orbit_closure(fwd[y]) == a for y in bits(a)):
                out.append(a)
                found |= a
    return sorted(out, key=lambda m: m & -m)


def minimality_cover_criterion(sys: GSystem) -> bool:
    """For every basis open U some finite union of translated iterate
    preimages g.f^-d(U) covers the space.  A point x lies in such a union
    iff some point of G(x) eventually enters U, so the criterion holds iff
    for every orbit O the union of the forward orbits of its points is
    dense: gm with the group applied before the map instead of after it.
    Equal to gm for pseudoequivariant maps (module docstring,
    "Pseudoequivariant systems are their orbit spaces")."""
    fwd = sys.cache().fwd
    reaches = {reduce(or_, [fwd[y] for y in bits(o)]) for o in sys.action.orbits()}
    return all(map(sys.space.is_dense, reaches))


class QuotientMinimality(NamedTuple):
    gm: bool
    induced_minimal: bool


def quotient_minimality(sys: GSystem) -> QuotientMinimality:
    """Minimality of the system against minimality of the induced map on
    the orbit space (with the group forgotten).  Requires a
    pseudoequivariant map, otherwise no induced map exists.  The two are
    equal (module docstring, "Pseudoequivariant systems are their orbit
    spaces"), so one gm verdict answers both and no orbit space is built;
    the tests build it as a second route."""
    if not sys.pseudoequivariant():
        raise PreconditionError("quotient minimality: the map is not pseudoequivariant")
    gm = _gm(sys)
    return QuotientMinimality(gm=gm, induced_minimal=gm)


class SgmCondition(NamedTuple):
    """Outcome of the sufficient condition for strong mixing: the map is
    pseudoequivariant and transitive, some point has a dense saturated
    orbit, and that point's minimal neighbourhood eventually returns to
    itself at every large exponent.  ``conclusion_checked`` is the sgm
    verdict where the condition applies, True by the module docstring's
    theorem, and None otherwise."""

    applies: bool
    conclusion_checked: bool | None
    note: str


_FiniteSpaceNote = (
    "second countability and non-meagerness hold for every nonempty finite "
    "space: the finitely many minimal opens form a base, and any minimal "
    "nonempty open set lies in the closure of each of its points, so no "
    "cover by nowhere dense sets exists"
)


def sgm_sufficient_condition(sys: GSystem) -> SgmCondition:
    """Whether the sufficient condition for sgm applies, with the sgm
    verdict where it does: on a p1, gt system, iff tgt (module docstring,
    "The paper's sufficient condition for sgm is a theorem")."""
    if not sys.pseudoequivariant():
        return SgmCondition(False, None, "map is not pseudoequivariant")
    if _untransitive(sys) is not None:
        return SgmCondition(False, None, "system is not transitive")
    if _tgt(sys):
        return SgmCondition(True, True, _FiniteSpaceNote)
    return SgmCondition(False, None,
                        "no dense-orbit point whose neighbourhood eventually returns")


class ProductMinimality(NamedTuple):
    product_minimal: bool
    criterion: bool


def product_minimality_criterion(s1: GSystem, s2: GSystem) -> ProductMinimality:
    """Minimality of the product system against the orbit-closure
    membership criterion: for all points x, y and group elements g, k,
    both (g.f(x), y) and (x, k.h(y)) lie in the closure of the saturated
    product orbit of (x, y).  Decided on the two factors: (a, b) is in
    that closure iff the return sets of x in G1(U_a) and of y in G2(U_b)
    meet (module docstring, "Products factor"); LimitError past
    ``MaxCarrier`` point pairs."""
    n1, n2 = s1.space.n, s2.space.n
    _check_product("product_minimality_criterion", [n1, n2])
    c1, c2 = s1.cache(), s2.cache()
    returns = lru_cache(None)(_returns)
    sats1, sats2 = ([sat for sat, _ in _columns(s.action)[2]] for s in (s1, s2))
    # one point per cycle of f x h (module docstring, "Products factor")
    least1, least2 = ([x for x, d in enumerate(c.depth) if not d and _lowest(c.fwd[x]) == x]
                      for c in (c1, c2))
    loops = [(x, c2.image(y, j)) for x in least1 for y in least2
             for j in range(gcd(c1.length[x], c2.length[y]))]
    gm = all(_meet(returns(c1, x, a), returns(c2, y, b))
             for x, y in loops for a in sats1 for b in sats2)
    # G(U_x) for every point x of each factor
    near1, near2 = ([s.action.saturate(u) for u in s.space.min_open] for s in (s1, s2))
    crit = all(_meet(returns(c1, x, near1[s1.f[x]]), returns(c2, y, near2[y]))
               and _meet(returns(c1, x, near1[x]), returns(c2, y, near2[s2.f[y]]))
               for x in range(n1) for y in range(n2))
    return ProductMinimality(product_minimal=gm, criterion=crit)


# -- the property table ------------------------------------------------------


# property name -> verdict, cheapest first: the miner tests a target's
# literals in this order and stops at the first that fails.  The entries
# of gt, gm, sgm, tgt and wgm build no report or witness.
Verdicts: dict[str, Callable[[GSystem], bool]] = {
    "p1": lambda s: s.pseudoequivariant(),
    "equivariant": lambda s: is_equivariant(s.action, s.f),
    "p2": lambda s: s.space.is_dense(gf_periodic_mask(s)),
    "gt": lambda s: _untransitive(s) is None,
    "gm": _gm,
    "sgm": _tgt,
    "cover": minimality_cover_criterion,
    "tgt": _tgt,
    "wgm": _wgm,
}

# the properties of the implication diagram, in the order the command-line
# report prints them
Diagram = ("p1", "p2", "gt", "tgt", "wgm", "sgm", "gm")


def profile(sys: GSystem, props: Iterable[str] = Verdicts) -> dict[str, bool]:
    """Property name -> verdict for each of ``props``, in their order."""
    if isinstance(props, str):
        raise ValidationError(f"profile: props must be names, not the string {props!r}")
    try:
        return {name: Verdicts[name](sys) for name in props}
    except KeyError as exc:
        if exc.args[0] in Verdicts:  # raised by a predicate, not the lookup
            raise
        raise ValidationError(f"profile: unknown property {exc.args[0]!r}") from None


# the implications of the diagram: name, antecedent literals, consequent.
# tgt->wgm and tgt->sgm hold on every finite G-space (see the module
# docstring), so the paper's p1&p2&tgt->wgm follows; with sgm->tgt, tgt
# and sgm are equivalent, and with p1&wgm->tgt, tgt and wgm are under p1.
# wgm->gt is proved there too, and p1&wgm->tgt and p1&gt->p2 through the
# orbit space, where they are trivial-group cases ("Pseudoequivariant
# systems are their orbit spaces").
Implications: tuple[tuple[str, tuple[str, ...], str], ...] = (
    ("sgm->wgm", ("sgm",), "wgm"),
    ("wgm->gt", ("wgm",), "gt"),
    ("sgm->tgt", ("sgm",), "tgt"),
    ("tgt->gt", ("tgt",), "gt"),
    ("tgt->wgm", ("tgt",), "wgm"),
    ("tgt->sgm", ("tgt",), "sgm"),
    ("gm->gt", ("gm",), "gt"),
    ("p1&gt->p2", ("p1", "gt"), "p2"),
    ("p1&wgm->tgt", ("p1", "wgm"), "tgt"),
    ("p1&p2&tgt->wgm", ("p1", "p2", "tgt"), "wgm"),
)


def diagram_violations(row: Mapping) -> tuple[str, ...]:
    """Implications that the verdict pattern violates (empty when sound)."""
    return tuple(name for name, antecedent, consequent in Implications
                 if all(row[a] for a in antecedent) and not row[consequent])
