"""Decision procedures for transitivity, mixing and minimality of a
continuous map on a finite G-space.

Three reductions make every property decidable by a finite scan:

* the iterate cache bounds all quantifiers over exponents by the window
  [1, p+q], since composed tables repeat beyond it;
* because G is a group, "some translate of A meets V" is equivalent to
  "A meets the orbit saturation of V", which removes the inner search
  over group elements;
* universal quantifiers over nonempty open sets are monotone in both
  arguments, so they are decided on the basis of minimal opens.

The scan is one table: for basis opens U and V, the hit mask has bit k
set, for k in [1, p+q], iff f^k(U) meets G(V).  Transitivity, total
transitivity, weak and strong mixing are predicates on these masks, read
one row per basis open U.  The masks come from the functional graph of
the map: each point's tail is walked once and its cycle once, and a
cycle point first met at exponent k recurs at k + L, k + 2L, ... for the
cycle length L.  The scan context and the precondition flags are
memoised on the system, so every decider, a profile and the sgm
sufficient condition share one table and one flag computation.

The list of properties lives in one table, ``Verdicts`` (name -> bool
verdict, cheapest first).  ``profile(sys, props)`` reads it, and so do the
command-line report, the fixture check, the implication suite and the
miner's target literals.

Every checker returns a PropertyReport whose witness makes the verdict
auditable: false verdicts carry a concrete failing pair of basis opens
(plus the iterate exponent where relevant), true verdicts carry per-pair
(exponent, group element) certificates when small enough.  Certificates
are built from the hit masks when the witness's ``certificates`` entry
is first read.  An independent brute-force module (`gdyn.oracle`)
re-derives all verdicts from the raw definitions, in a table with the
same names; the test suite keeps the two in agreement.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from .algebra import is_equivariant, quotient, require_induced, trivial_action
from .bitsets import bits
from .dynamics import (
    GSystem,
    gf_orbit,
    gf_periodic_mask,
    nfold_system,
    product_system,
)
from .errors import PreconditionError
from .topology import map_image, map_preimage

CertificateLimit = 10_000


@dataclass(frozen=True)
class Preconditions:
    pseudoequivariant: bool
    dense_gf_periodic: bool


@dataclass(frozen=True)
class PropertyReport:
    prop: str
    verdict: bool
    witness: Mapping | None
    preconditions: Preconditions
    note: str = ""


def precondition_flags(sys: GSystem) -> Preconditions:
    """The preconditions of the diagram's implications, memoised on the
    system."""
    if sys._flags is None:
        sys._flags = Preconditions(
            pseudoequivariant=sys.pseudoequivariant(),
            dense_gf_periodic=sys.space.is_dense(gf_periodic_mask(sys)),
        )
    return sys._flags


class _Ctx:
    """Shared per-system scan state: deduplicated basis, saturations and
    the hit-mask table, one row per basis open.  ``img`` and ``find_g``
    serve certificates only.

    It keeps the map, the action and the iterate cache, not the system:
    the system holds its context (``_scan``), and a reference back would
    make a cycle that only the garbage collector frees."""

    __slots__ = ("f", "action", "cache", "basis", "pos", "window", "cycle_window",
                 "_sats", "_col", "_steps", "_point", "_rows", "_img")

    def __init__(self, sys: GSystem):
        self.f = sys.f
        self.action = action = sys.action
        self.cache = c = sys.cache()
        self.pos = pos = {}  # basis open -> its index in the basis
        for m in sys.space.min_open:
            pos.setdefault(m, len(pos))
        self.basis = list(pos)
        # each basis open's column: the index of its saturation among the
        # distinct ones, which are kept with their points; None when the
        # saturations are all distinct
        sats: dict[int, int] = {}
        col = [sats.setdefault(action.saturate(v), len(sats)) for v in self.basis]
        self._col = None if len(sats) == len(col) else col
        self._sats = [(sat, tuple(bits(sat))) for sat in sats]
        self.window = ((1 << c.horizon) - 1) << 1  # exponents [1, p+q]
        self.cycle_window = ((1 << c.period) - 1) << (c.preperiod + 1)
        self._steps: dict[int, int] = {}
        self._point: dict[int, dict[int, int]] = {}
        self._rows: dict[int, list[int]] = {}
        self._img: dict[tuple[int, int], int] = {}

    def point(self, x: int) -> dict[int, int]:
        """Point y -> mask of the exponents k in [1, p+q] with f^k(x) = y.

        One walk along x's tail and once round its cycle: a tail point is
        met at one exponent, and a cycle point first met at k recurs at
        k + L, k + 2L, ... for the cycle length L."""
        out = self._point.get(x)
        if out is None:
            f = self.f
            first: dict[int, int] = {}
            y, k = f[x], 1
            while y not in first:
                first[y] = k
                y = f[y]
                k += 1
            entry = first[y]  # the first cycle point met
            step = k - entry  # the cycle length
            every = self._steps.get(step)
            if every is None:
                # bits 0, L, 2L, ... up to p+q, for L = step
                terms = self.cache.horizon // step + 1
                every = ((1 << step * terms) - 1) // ((1 << step) - 1)
                self._steps[step] = every
            window = self.window
            out = {z: (every << j) & window if j >= entry else 1 << j
                   for z, j in first.items()}
            self._point[x] = out
        return out

    def reach(self, u: int) -> dict[int, int]:
        """Point y -> mask of the exponents k in [1, p+q] with y in f^k(U)."""
        if not u & (u - 1):
            return self.point(u.bit_length() - 1)
        out: dict[int, int] = {}
        for x in bits(u):
            for y, ks in self.point(x).items():
                out[y] = out.get(y, 0) | ks
        return out

    def row(self, u: int) -> list[int]:
        """The hit masks of U against the basis opens V, in basis order:
        bit k, for k in [1, p+q], is set iff f^k(U) meets G(V)."""
        out = self._rows.get(u)
        if out is None:
            reach = self.reach(u)
            get = reach.get
            masks = []
            for sat, points in self._sats:
                h = 0
                # walk the smaller side: the points U reaches or those of G(V)
                if len(reach) < len(points):
                    for y, ks in reach.items():
                        if (sat >> y) & 1:
                            h |= ks
                else:
                    for y in points:
                        h |= get(y, 0)
                masks.append(h)
            col = self._col
            out = masks if col is None else [masks[i] for i in col]
            self._rows[u] = out
        return out

    def hits(self, u: int, v: int) -> int:
        """Mask of the exponents k in [1, p+q] with f^k(U) meeting G(V)."""
        return self.row(u)[self.pos[v]]

    def img(self, u: int, k: int) -> int:
        key = (u, k)
        out = self._img.get(key)
        if out is None:
            out = map_image(self.cache.powers[k - 1], u)
            self._img[key] = out
        return out

    def find_g(self, img: int, v: int) -> int:
        action = self.action
        for g in range(action.group.order):
            if action.translate(g, img) & v:
                return g
        raise RuntimeError("internal: saturation hit without a witnessing element")

    def element(self, u: int, k: int, v: int) -> str:
        """The first group element g with g.f^k(U) meeting V."""
        return self.action.group.elements[self.find_g(self.img(u, k), v)]


def _scan(sys: GSystem) -> _Ctx:
    """The system's scan context, built on first use and kept on it."""
    if sys._scan is None:
        sys._scan = _Ctx(sys)
    return sys._scan


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


def _witness(count: int, summary: str, build: Callable[[], tuple], **fixed) -> Mapping:
    """Certificates built on first read, or a summary past the limit."""
    if count > CertificateLimit:
        return {"summary": f"{count} {summary} verified", **fixed}
    return _Certified(fixed, build)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _names(sys: GSystem, mask: int) -> tuple[str, ...]:
    return sys.space.names(mask)


# -- transitivity -------------------------------------------------------------


def is_g_transitive(sys: GSystem) -> PropertyReport:
    """Every pair of nonempty opens is linked by some translated iterate:
    for all U, V there are k >= 1 and g with g.f^k(U) meeting V."""
    ctx = _scan(sys)
    flags = precondition_flags(sys)
    basis = ctx.basis
    for u in basis:
        row = ctx.row(u)
        if not all(row):
            v = basis[row.index(0)]
            return PropertyReport(
                "gt", False, {"U": _names(sys, u), "V": _names(sys, v)}, flags
            )

    def build() -> tuple:
        out = []
        for u in basis:
            for v, h in zip(basis, ctx.row(u)):
                k = _lowest(h)
                out.append((_names(sys, u), _names(sys, v), k, ctx.element(u, k, v)))
        return tuple(out)

    return PropertyReport("gt", True, _witness(len(basis) ** 2, "basis pairs", build), flags)


def is_totally_g_transitive(sys: GSystem) -> PropertyReport:
    """Every iterate f^m, m >= 1, is itself G-transitive.  Distinct tables
    of iterates all occur with m <= p+q, so the scan is finite; f^m hits
    at the reduced exponents m*j, j in [1, p+q]."""
    ctx = _scan(sys)
    flags = precondition_flags(sys)
    c = ctx.cache
    basis = ctx.basis
    # f^1 .. f^(p+q-1) are distinct tables, and f^(p+q) repeats f^p
    # unless p = 0
    ms = range(1, c.horizon + 1 if c.preperiod == 0 else c.horizon)
    for m in ms:
        reduced = 0
        for j in range(1, c.horizon + 1):
            reduced |= 1 << c.reduce(m * j)
        for u in basis:
            for v, h in zip(basis, ctx.row(u)):
                if not h & reduced:
                    return PropertyReport(
                        "tgt",
                        False,
                        {"m": m, "U": _names(sys, u), "V": _names(sys, v)},
                        flags,
                    )

    def build() -> tuple:
        out = []
        for m in ms:
            for u in basis:
                for v, h in zip(basis, ctx.row(u)):
                    k = next(k for k in (c.reduce(m * j) for j in range(1, c.horizon + 1))
                             if (h >> k) & 1)
                    out.append((m, _names(sys, u), _names(sys, v), k, ctx.element(u, k, v)))
        return tuple(out)

    count = len(ms) * len(basis) ** 2
    return PropertyReport(
        "tgt", True, _witness(count, "(iterate, pair) checks", build), flags
    )


def is_weakly_g_mixing(sys: GSystem) -> PropertyReport:
    """The doubled map f x f on the product space is (G x G)-transitive.

    Decided on the base system: for all basis opens U, V, E, F a single
    exponent k must send U into contact with G(E) and V with G(F), which
    links the product's basis pair (U x V, E x F): every two hit masks
    intersect.  The product route is ``is_n_fold_transitive(sys, 2)``;
    the tests compare the two.
    """
    ctx = _scan(sys)
    flags = precondition_flags(sys)
    pairs = [(u, e) for u in ctx.basis for e in ctx.basis]
    masks = [h for u in ctx.basis for h in ctx.row(u)]
    distinct = set(masks)
    # the verdict depends on the distinct masks only; the ordered scan
    # names the first failing 4-tuple
    if not all(a & b for a in distinct for b in distinct):
        for (u, e), m1 in zip(pairs, masks):
            for (v, w), m2 in zip(pairs, masks):
                if not m1 & m2:
                    return PropertyReport(
                        "wgm",
                        False,
                        {
                            "U": _names(sys, u), "V": _names(sys, v),
                            "E": _names(sys, e), "F": _names(sys, w),
                        },
                        flags,
                    )

    def build() -> tuple:
        out = []
        for (u, e), m1 in zip(pairs, masks):
            for (v, w), m2 in zip(pairs, masks):
                k = (m1 & m2).bit_length() - 1
                out.append((
                    _names(sys, u), _names(sys, v), _names(sys, e), _names(sys, w), k,
                    ctx.element(u, k, e), ctx.element(v, k, w),
                ))
        return tuple(out)

    return PropertyReport(
        "wgm", True, _witness(len(pairs) ** 2, "basis 4-tuples", build), flags
    )


def is_n_fold_transitive(sys: GSystem, n: int, max_carrier: int = 20000) -> PropertyReport:
    """G^n-transitivity of the n-fold product map."""
    if n < 1:
        raise PreconditionError("n-fold transitivity: n must be >= 1")
    prod = nfold_system(sys, n, max_carrier=max_carrier)
    rep = is_g_transitive(prod)
    return PropertyReport(
        f"nfold:{n}", rep.verdict, rep.witness, precondition_flags(sys),
        note=f"product carrier of {prod.space.n} points",
    )


def is_strongly_g_mixing(sys: GSystem) -> PropertyReport:
    """For every pair of nonempty opens, all sufficiently large exponents
    hit: some translate of f^n(U) meets V for every n beyond a threshold.
    Decided on the recurring exponents [p+1, p+q]: every hit mask covers
    that window."""
    ctx = _scan(sys)
    flags = precondition_flags(sys)
    c = ctx.cache
    basis = ctx.basis
    window = ctx.cycle_window
    for u in basis:
        for v, h in zip(basis, ctx.row(u)):
            missing = window & ~h
            if missing:
                return PropertyReport(
                    "sgm",
                    False,
                    {"U": _names(sys, u), "V": _names(sys, v),
                     "missing_exponent": _lowest(missing)},
                    flags,
                )

    def build() -> tuple:
        return tuple(
            (_names(sys, u), _names(sys, v), k, ctx.element(u, k, v))
            for u in basis
            for v in basis
            for k in c.cycle_exponents()
        )

    count = len(basis) ** 2 * c.period
    witness = _witness(count, "(pair, exponent) checks", build,
                       threshold=c.preperiod + 1)
    return PropertyReport("sgm", True, witness, flags)


# -- minimality ---------------------------------------------------------------


def g_transitive_points(sys: GSystem) -> int:
    """Mask of points whose saturated forward orbit is dense."""
    out = 0
    for x in range(sys.space.n):
        if sys.space.is_dense(gf_orbit(sys, x)):
            out |= 1 << x
    return out


def is_g_minimal(sys: GSystem) -> PropertyReport:
    """Every point has a dense saturated forward orbit."""
    flags = precondition_flags(sys)
    trans = g_transitive_points(sys)
    if trans == sys.space.full:
        return PropertyReport(
            "gm", True, {"summary": "all points have dense saturated orbits"}, flags
        )
    x = next(bits(sys.space.full & ~trans))
    return PropertyReport(
        "gm",
        False,
        {
            "x": sys.space.points[x],
            "orbit_closure": _names(sys, sys.space.closure(gf_orbit(sys, x))),
        },
        flags,
    )


def g_minimal_sets(sys: GSystem) -> list[int]:
    """All minimal dynamical cores: nonempty closed sets, invariant under
    the map and under every translation, in which every point has orbit
    closure equal to the whole set.

    Collects the least closed invariant superset of each point and keeps
    those that satisfy the definition.  For pseudoequivariant maps the
    cores are also the terminal classes of the preorder x -> y iff y lies
    in the closure of the saturated orbit of x; the tests compare the two.
    """
    n = sys.space.n
    candidates: list[int] = []
    for x in range(n):
        s = 1 << x
        while True:
            grown = sys.space.closure(s | map_image(sys.f, s) | sys.action.saturate(s))
            if grown == s:
                break
            s = grown
        if s not in candidates:
            candidates.append(s)
    out = []
    for a in candidates:
        if all(sys.space.closure(gf_orbit(sys, y)) == a for y in bits(a)):
            out.append(a)
    return sorted(out, key=lambda m: m & -m)


def minimality_cover_criterion(sys: GSystem) -> bool:
    """For every basis open U some finite union of translated iterate
    preimages of U covers the space.  The union is monotone in the depth
    and all distinct preimage tables occur within the iterate horizon, so
    the search depth p+q+|X| is exhaustive.  Equivalent to minimality for
    pseudoequivariant maps."""
    c = sys.cache()
    n = sys.space.n
    depth = c.horizon + n
    for u in {m: None for m in sys.space.min_open}:
        covered = sys.action.saturate(u)
        pre = u
        d = 0
        while covered != sys.space.full and d < depth:
            pre = map_preimage(sys.f, pre, n)
            covered |= sys.action.saturate(pre)
            d += 1
        if covered != sys.space.full:
            return False
    return True


@dataclass(frozen=True)
class QuotientMinimality:
    gm: bool
    induced_minimal: bool


def quotient_minimality(sys: GSystem) -> QuotientMinimality:
    """Minimality of the system against minimality of the induced map on
    the orbit space (with the group forgotten).  Requires a
    pseudoequivariant map, otherwise no induced map exists."""
    if not sys.pseudoequivariant():
        raise PreconditionError(
            "quotient minimality: the map is not pseudoequivariant"
        )
    qs = quotient(sys.action, sys.f)
    induced = require_induced(qs)
    q_sys = GSystem._trusted(trivial_action(qs.space), induced)
    return QuotientMinimality(
        gm=is_g_minimal(sys).verdict,
        induced_minimal=is_g_minimal(q_sys).verdict,
    )


@dataclass(frozen=True)
class SgmCondition:
    """Outcome of the sufficient condition for strong mixing: the map is
    pseudoequivariant and transitive, some point has a dense saturated
    orbit, and that point's minimal neighbourhood eventually returns to
    itself at every large exponent.  ``conclusion_checked`` records the
    strong-mixing verdict whenever the condition applies (None
    otherwise)."""

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
    if not sys.pseudoequivariant():
        return SgmCondition(False, None, "map is not pseudoequivariant")
    if not is_g_transitive(sys).verdict:
        return SgmCondition(False, None, "system is not transitive")
    trans = g_transitive_points(sys)
    ctx = _scan(sys)
    window = ctx.cycle_window
    for x in bits(trans):
        # W returns at every recurring exponent: f^k(W) meets G(W)
        w = sys.space.min_open[x]
        if ctx.hits(w, w) & window == window:
            ok = is_strongly_g_mixing(sys).verdict
            return SgmCondition(True, ok, _FiniteSpaceNote)
    return SgmCondition(
        False, None, "no dense-orbit point whose neighbourhood eventually returns"
    )


@dataclass(frozen=True)
class ProductMinimality:
    product_minimal: bool
    criterion: bool


def product_minimality_criterion(s1: GSystem, s2: GSystem) -> ProductMinimality:
    """Minimality of the product system against the orbit-closure
    membership criterion: for all points x, y and group elements g, k,
    both (g.f(x), y) and (x, k.h(y)) lie in the closure of the saturated
    product orbit of (x, y)."""
    prod = product_system(s1, s2)
    pm = is_g_minimal(prod).verdict
    n2 = s2.space.n
    crit = True
    for x in range(s1.space.n):
        for y in range(n2):
            r = prod.space.closure(gf_orbit(prod, x * n2 + y))
            for g in range(s1.group.order):
                if not (r >> (s1.action.act[g][s1.f[x]] * n2 + y)) & 1:
                    crit = False
                    break
            if crit:
                for k in range(s2.group.order):
                    if not (r >> (x * n2 + s2.action.act[k][s2.f[y]])) & 1:
                        crit = False
                        break
            if not crit:
                break
        if not crit:
            break
    return ProductMinimality(product_minimal=pm, criterion=crit)


# -- the property table ------------------------------------------------------


# property name -> verdict, cheapest first: the miner tests a target's
# literals in this order and stops at the first that fails.  Entries look
# their deciders up by name when called.
Verdicts: dict[str, Callable[[GSystem], bool]] = {
    "p1": lambda s: s.pseudoequivariant(),
    "equivariant": lambda s: is_equivariant(s.action, s.f),
    "p2": lambda s: precondition_flags(s).dense_gf_periodic,
    "gt": lambda s: is_g_transitive(s).verdict,
    "gm": lambda s: is_g_minimal(s).verdict,
    "sgm": lambda s: is_strongly_g_mixing(s).verdict,
    "cover": lambda s: minimality_cover_criterion(s),
    "tgt": lambda s: is_totally_g_transitive(s).verdict,
    "wgm": lambda s: is_weakly_g_mixing(s).verdict,
}

# the properties of the implication diagram, in the order the command-line
# report prints them
Diagram = ("p1", "p2", "gt", "tgt", "wgm", "sgm", "gm")


def profile(sys: GSystem, props: Iterable[str] = Verdicts) -> dict[str, bool]:
    """Property name -> verdict for each of ``props``, in their order."""
    return {name: Verdicts[name](sys) for name in props}


def diagram_violations(row: Mapping) -> tuple[str, ...]:
    """Implications that the verdict pattern violates (empty when sound)."""
    p1, p2 = row["p1"], row["p2"]
    gt, tgt, wgm, sgm, gm = row["gt"], row["tgt"], row["wgm"], row["sgm"], row["gm"]
    checks = [
        ("sgm->wgm", not sgm or wgm),
        ("sgm->tgt", not sgm or tgt),
        ("tgt->gt", not tgt or gt),
        ("gm->gt", not gm or gt),
        ("p1&wgm->tgt", not (p1 and wgm) or tgt),
        ("p1&p2&tgt->wgm", not (p1 and p2 and tgt) or wgm),
    ]
    return tuple(name for name, ok in checks if not ok)
