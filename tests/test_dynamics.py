import itertools
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycles_text, gf_periodic_points, reference_product, trivialized
from gdyn import checkers
from gdyn.algebra import Action, catalog, cyclic_group, trivial_action
from gdyn.checkers import is_n_fold_transitive
from gdyn.corpus import enumerate_systems, generate_robust, suite_configs
from gdyn.dynamics import (
    GSystem,
    IterateCache,
    gf_periodic_mask,
    nfold_system,
    periodic_points,
    product_system,
)
from gdyn.errors import LimitError, ValidationError
from gdyn.sysfile import parse, serialize
from gdyn.topology import Space, compose, discrete_space, identity_table


class TestIterateCache:
    def test_identity(self):
        c = IterateCache(identity_table(3))
        assert (c.preperiod, c.period) == (0, 1)
        assert c.powers == ((0, 1, 2),)

    def test_rotation(self):
        c = IterateCache((1, 2, 3, 0))
        assert (c.preperiod, c.period) == (0, 4)
        assert c.powers[-1] == (0, 1, 2, 3)

    def test_constant(self):
        c = IterateCache((0, 0, 0))
        assert (c.preperiod, c.period) == (1, 1)
        assert c.horizon == 2

    def test_transient_then_cycle(self):
        # 0 -> 1 -> 2 -> 3 -> 4 -> 2
        c = IterateCache((1, 2, 3, 4, 2))
        assert (c.preperiod, c.period) == (2, 3)
        assert c.horizon == 5

    def test_reduce_rejects_zero(self):
        c = IterateCache((1, 0))
        with pytest.raises(ValueError):
            c.reduce(0)

    def test_reduce_law(self):
        # reduce(m) picks the exponent with an equal table, verified by
        # composing from scratch
        for f in [(1, 2, 3, 4, 2), (0, 0, 0), (1, 0, 2), (1, 2, 0, 4, 5, 3)]:
            c = IterateCache(f)
            t = tuple(f)
            for m in range(1, 3 * c.horizon + 6):
                assert tuple(c.image(x, m) for x in range(len(f))) == t
                r = c.reduce(m)
                assert 1 <= r <= c.horizon
                assert c.powers[r - 1] == t
                t = compose(tuple(f), t)

    def test_cache_has_no_horizon_bound(self):
        # cycles of every length 2..19: horizon lcm(1..19) = 232,792,560 on
        # 189 points; the walk is O(|X|) and reads no window (the scan
        # context and ``powers`` bound it, see below and test_checkers)
        sys = parse(cycles_text(range(2, 20)))
        c = sys.cache()
        assert (sys.space.n, c.preperiod, c.period) == (189, 0, 232_792_560)
        assert c.image(188, c.period + 1) == sys.f[188]
        assert periodic_points(sys) == sys.space.full

    def test_powers_past_the_bound_compose_nothing(self):
        # the same cycles: 232,792,560 tables of 189 entries would pass
        # MaxTableEntries, so reading them raises before composing one
        c = parse(cycles_text(range(2, 20))).cache()
        start = time.perf_counter()
        with pytest.raises(LimitError, match="232792560 iterate tables on 189 points"):
            c.powers
        assert time.perf_counter() - start < 1.0
        # 2,310 tables of 28 entries stay within it
        c = parse(cycles_text((2, 3, 5, 7, 11))).cache()
        assert len(c.powers) == 2310 and c.powers[-1] == identity_table(28)

    def test_horizon_bound_admits_long_period(self):
        sys = parse(cycles_text((2, 3, 5, 7, 11)))
        assert sys.cache().horizon == 2310

    def test_reduce_fixed_on_window(self):
        c = IterateCache((1, 2, 3, 4, 2))
        assert [c.reduce(m) for m in range(1, 6)] == [1, 2, 3, 4, 5]
        assert c.reduce(6) == 3
        assert c.reduce(8) == 5
        assert c.reduce(9) == 3


class TestGSystem:
    def test_rejects_discontinuous_map(self):
        sp = Space(("a", "b"), (0b01, 0b11))
        act = trivial_action(sp)
        with pytest.raises(ValidationError, match="not continuous at b"):
            GSystem(act, (1, 0))

    @pytest.mark.parametrize("entry", [float, str, bool])
    def test_map_entries_must_be_ints(self, entry):
        act = trivial_action(discrete_space(("a", "b")))
        with pytest.raises(ValidationError, match="carrier"):
            GSystem(act, (entry(1), 0))

    def test_cache_is_memoized(self, fixture_map):
        sys = fixture_map["rot4"].system
        assert sys.cache() is sys.cache()
        assert (sys.cache().preperiod, sys.cache().period) == (0, 4)

    def test_pseudoequivariant_flags(self, fixture_map):
        assert fixture_map["z4mod2"].system.pseudoequivariant()
        assert not fixture_map["skew3"].system.pseudoequivariant()


class TestOrbits:
    """Forward orbits are read off the iterate cache's walk, ``fwd``."""

    def test_f_orbit_interval_limits(self, fixture_map):
        sys = fixture_map["interval-tails"].system
        sp, fwd = sys.space, sys.cache().fwd
        for ell in ("-1", "0", "1"):
            x = sp.points.index(ell)
            assert fwd[x] == 1 << x
            assert sys.action.saturate(fwd[x]) == 1 << x

    def test_f_orbit_steps_through_cycle(self, fixture_map):
        sys = fixture_map["rot4"].system
        assert sys.cache().fwd[0] == sys.space.full

    def test_gf_orbit_saturates(self, fixture_map):
        sys = fixture_map["z4mod2"].system
        assert sys.action.saturate(sys.cache().fwd[0]) == sys.space.full
        # the identity map: each forward orbit is one point, its
        # saturation the whole swapped pair
        sys = fixture_map["z2swap-id"].system
        assert sys.cache().fwd[0] == 0b1
        assert sys.action.saturate(sys.cache().fwd[0]) == sys.space.full


class TestPeriodicity:
    def test_periodic_points_skew3(self, fixture_map):
        # 0 -> 2, 1 -> 0, 2 -> 2: only the fixed point 2 is periodic
        sys = fixture_map["skew3"].system
        assert periodic_points(sys) == 0b100

    def test_gf_periodic_two_triangles(self, fixture_map):
        sys = fixture_map["two-triangles"].system
        pts = dict(gf_periodic_points(sys))
        a = sys.space.points.index("a")
        assert pts[a] == 2
        assert gf_periodic_mask(sys) == sys.space.full

    def test_periodic_subset_of_gf_periodic(self):
        for sys in itertools.islice(enumerate_systems(3, ("Z2",)), 400):
            assert periodic_points(sys) & ~gf_periodic_mask(sys) == 0

    def test_gf_periodic_least_exponent(self):
        # the reported k is least: f^j(x) leaves the orbit for j < k
        for sys in itertools.islice(enumerate_systems(3, ("Z3",)), 300):
            tables = _composed(sys.f, sys.cache().horizon)
            for x, k in gf_periodic_points(sys):
                orb = sys.action.orbit(x)
                assert (orb >> tables[k - 1][x]) & 1
                for j in range(1, k):
                    assert not (orb >> tables[j - 1][x]) & 1


class TestProducts:
    def test_product_cache_parameters(self, fixture_map):
        s = fixture_map["rot4"].system
        p = product_system(s, s)
        assert p.space.n == 16
        assert (p.cache().preperiod, p.cache().period) == (0, 4)

    def test_nfold_one_is_same_system(self, fixture_map):
        s = fixture_map["disc2-swap"].system
        assert nfold_system(s, 1) is s

    def test_nfold_two_equals_product(self, fixture_map):
        s = fixture_map["disc2-swap"].system
        assert nfold_system(s, 2) == product_system(s, s)

    def test_nfold_limit(self, fixture_map):
        s = fixture_map["double-mod5"].system  # 5 points, 5^7 > 20000
        with pytest.raises(LimitError):
            nfold_system(s, 7)
        for n in (0, True, 2.5, "2"):
            with pytest.raises(ValidationError, match="n must be an int >= 1"):
                nfold_system(s, n)

    def test_nfold_fold_count_bounded_before_sizes(self, fixture_map):
        # 5 ** 10**9 alone would be a 290 MB integer; a one-point carrier
        # never grows, so only the fold count stops it
        with pytest.raises(LimitError, match="factors"):
            nfold_system(fixture_map["double-mod5"].system, 10**9)
        one_point = GSystem(trivial_action(discrete_space(("x",))), (0,))
        with pytest.raises(LimitError, match="factors"):
            nfold_system(one_point, 200_000)

    def test_nfold_group_order_bounded(self):
        sys = parse(cycles_text((1,), group_order=8))  # Z8 on one point
        assert nfold_system(sys, 3).group.order == 512
        with pytest.raises(LimitError, match="group of order 8\\^4"):
            nfold_system(sys, 4)

    def test_product_bounds(self):
        # the bounds of nfold_system hold for every product: 150 * 300
        # points pass MaxCarrier, and Z256 x Z256 on one point passes the
        # bound on table entries, where Z256 x Z4 stays inside it
        cycle = parse(cycles_text((150,)))
        big = parse(cycles_text((1,), group_order=256))
        small = parse(cycles_text((1,), group_order=4))
        assert product_system(big, small).group.order == 1024
        with pytest.raises(LimitError, match="group of order 256\\^2 acting on 1 points"):
            product_system(big, big)
        with pytest.raises(LimitError, match="product_system: 150\\*300 points"):
            product_system(cycle, parse(cycles_text((150, 150))))

    def test_product_map_componentwise(self, fixture_map):
        s1 = fixture_map["disc2-swap"].system
        s2 = fixture_map["sierpinski-id"].system
        p = product_system(s1, s2)
        n2 = s2.space.n
        for x in range(s1.space.n):
            for y in range(n2):
                assert p.f[x * n2 + y] == s1.f[x] * n2 + s2.f[y]

    def test_trivialized_forgets_group(self, fixture_map):
        s = fixture_map["z2swap-id"].system
        t = trivialized(s)
        assert t.group.order == 1
        assert t.f == s.f
        assert t.space is s.space


def _on_one_point(group):
    """The identity map of one point, the group acting trivially."""
    return GSystem(Action(group, discrete_space(("x",)), [[0]] * group.order), (0,))


class TestDerivedGroupTable:
    """A product group's table is derived from its factors' on first read."""

    def test_catalog_pairs_match_the_reference(self):
        systems = [_on_one_point(g) for g in catalog().values()]
        for s1 in systems:
            for s2 in systems:
                got = product_system(s1, s2).group.mul
                assert got == reference_product(s1, s2).group.mul

    def test_threefold_chains_match_the_reference(self, fixture_map):
        systems = [_on_one_point(g) for g in catalog().values() if g.order <= 6]
        systems += [fixture_map[name].system for name in ("rot4", "z4mod2", "two-triangles")]
        for sys in systems:
            want = reference_product(reference_product(sys, sys), sys)
            assert nfold_system(sys, 3).group.mul == want.group.mul

    def test_a_product_group_is_a_value(self, fixture_map):
        s = fixture_map["rot4"].system
        group = nfold_system(s, 3).group
        # pickled before and after the table is first read
        assert not isinstance(group._mul, tuple)
        before = pickle.loads(pickle.dumps(group))
        ref = reference_product(reference_product(s, s), s).group
        assert group == ref and hash(group) == hash(ref)
        assert before == group and hash(before) == hash(group)
        assert pickle.loads(pickle.dumps(group)) == group
        assert nfold_system(s, 3).group.generators() == ref.generators()
        assert [(g.name, g.identity) for g in (before, group)] == [
            (ref.name, ref.identity)] * 2

    def test_serialize_round_trip(self, fixture_map):
        s = fixture_map["z4mod2"].system
        prod = nfold_system(s, 2)
        back = parse(serialize(prod))
        assert back == prod
        assert serialize(back) == serialize(prod)

    def test_nfold_decisions_derive_no_table(self, monkeypatch):
        # the suite's 3-fold check reads the action, the space and the map
        built = []

        def nfold(sys, n):
            built.append(nfold_system(sys, n))
            return built[-1]

        monkeypatch.setattr(checkers, "nfold_system", nfold)
        verdicts = [is_n_fold_transitive(generate_robust(cfg), 3).verdict
                    for cfg in suite_configs(180)]
        assert sum(verdicts) > 0 and len(built) == 180
        assert not any(isinstance(p.group._mul, tuple) for p in built)


def _composed(f, count):
    """The tables of f^1 .. f^count, composed afresh."""
    tables = [tuple(f)]
    while len(tables) < count:
        tables.append(compose(tuple(f), tables[-1]))
    return tables


@st.composite
def _maps_under_involution(draw):
    """A map on 1-10 discrete points and a Z2 action swapping points in
    pairs, so that saturations are not all singletons."""
    n = draw(st.integers(1, 10))
    f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    swaps = draw(st.integers(0, n // 2))
    flip = list(range(n))
    for i in range(swaps):
        a, b = order[2 * i], order[2 * i + 1]
        flip[a], flip[b] = b, a
    sp = discrete_space(tuple(f"x{i}" for i in range(n)))
    return GSystem(Action(cyclic_group(2), sp, (tuple(range(n)), tuple(flip))), f)


@given(_maps_under_involution())
@settings(max_examples=150, deadline=None)
def test_cache_agrees_with_direct_composition(sys):
    f, n = sys.f, sys.space.n
    c = sys.cache()
    tables = _composed(f, c.horizon + 2)
    for m, t in enumerate(tables, 1):
        assert tuple(c.image(x, m) for x in range(n)) == t
    # minimality: f^1 .. f^(p+q-1) are pairwise distinct; the last table
    # of the window closes the cycle (equals f^p, or the identity when p = 0)
    window = tables[:c.horizon]
    assert len(set(window[:-1])) == c.horizon - 1
    if c.preperiod == 0:
        assert window[-1] == identity_table(n)
        assert len(set(window)) == c.horizon
    else:
        assert window[-1] == window[c.preperiod - 1]
    assert c.powers == tuple(window)
    # orbits and periodic points against the composed tables
    periodic, least = 0, []
    for x in range(n):
        assert c.fwd[x] == sum({1 << x} | {1 << t[x] for t in window})
        if any(t[x] == x for t in window):
            periodic |= 1 << x
        orb = sys.action.orbit(x)
        ks = [k for k, t in enumerate(window, 1) if (orb >> t[x]) & 1]
        if ks:
            least.append((x, ks[0]))
    assert periodic_points(sys) == periodic
    assert gf_periodic_points(sys) == least
    assert gf_periodic_mask(sys) == sum(1 << x for x, _ in least)
