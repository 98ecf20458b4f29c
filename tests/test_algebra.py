import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_open, mask, opens
from gdyn.algebra import (
    Action,
    Group,
    catalog,
    cyclic_group,
    equivariance_failure,
    is_equivariant,
    is_pseudoequivariant,
    klein_group,
    product_action,
    product_group,
    pseudoequivariance_failure,
    quotient,
    symmetric_group_3,
    trivial_action,
)
from gdyn.checkers import quotient_minimality
from gdyn.corpus import enumerate_systems
from gdyn.errors import PreconditionError, ValidationError
from gdyn.sysfile import MaxPoints
from gdyn.topology import Space, discrete_space, map_image, product


class TestGroupValidation:
    def test_no_identity(self):
        with pytest.raises(ValidationError, match="identity"):
            Group(("a", "b"), ((1, 1), (1, 1)))

    def test_not_associative(self):
        # a Latin square with identity that fails associativity
        table = (
            (0, 1, 2, 3, 4),
            (1, 4, 3, 2, 0),
            (2, 3, 0, 4, 1),
            (3, 0, 4, 1, 2),
            (4, 2, 1, 0, 3),
        )
        with pytest.raises(ValidationError, match="associativity"):
            Group(tuple("eabcd"), table)

    def test_no_inverse(self):
        # monoid with an absorbing element
        with pytest.raises(ValidationError, match="no inverse for a"):
            Group(("e", "a"), ((0, 1), (1, 1)))

    def test_bad_shape(self):
        with pytest.raises(ValidationError, match="n x n"):
            Group(("e", "a"), ((0, 1),))

    def test_entry_out_of_range(self):
        with pytest.raises(ValidationError):
            Group(("e",), ((7,),))

    def test_duplicate_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Group(("e", "e"), ((0, 1), (1, 0)))

    @pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\nb", "a#b", "#"])
    def test_names_a_file_cannot_carry(self, name):
        # a system file splits element names at whitespace and cuts each
        # line at '#', so such a name would not parse back
        with pytest.raises(ValidationError, match="bad element name"):
            Group(("e", name), ((0, 1), (1, 0)))


class TestCatalog:
    def test_orders(self):
        cat = catalog()
        assert [cat[f"Z{n}"].order for n in range(1, 9)] == list(range(1, 9))
        assert cat["Z2xZ2"].order == 4
        assert cat["S3"].order == 6

    def test_cyclic_is_abelian(self):
        g = cyclic_group(6)
        assert all(
            g.mul[a][b] == g.mul[b][a]
            for a in range(6) for b in range(6)
        )

    def test_s3_not_abelian(self):
        g = symmetric_group_3()
        assert any(
            g.mul[a][b] != g.mul[b][a]
            for a in range(6) for b in range(6)
        )

    def test_klein_self_inverse(self):
        g = klein_group()
        assert all(g.inv[a] == a for a in range(4))

    def test_generators_generate(self):
        for g in catalog().values():
            gens = g.generators()
            closed = {g.identity}
            frontier = [g.identity]
            while frontier:
                x = frontier.pop()
                for s in gens:
                    for y in (g.mul[x][s], g.mul[s][x]):
                        if y not in closed:
                            closed.add(y)
                            frontier.append(y)
            assert closed == set(range(g.order)), g.name

    def test_inverse_law(self):
        for g in catalog().values():
            for a in range(g.order):
                assert g.mul[a][g.inv[a]] == g.identity
                assert g.mul[g.inv[a]][a] == g.identity


class TestActionValidation:
    def test_identity_must_act_trivially(self):
        sp = discrete_space(("a", "b"))
        with pytest.raises(ValidationError, match="identity"):
            Action(cyclic_group(2), sp, ((1, 0), (0, 1)))

    def test_compatibility(self):
        sp = discrete_space(("a", "b", "c"))
        z2 = cyclic_group(2)
        # 1.x is a 3-cycle: then 1.(1.x) != (1+1).x = x
        with pytest.raises(ValidationError, match="compatibility"):
            Action(z2, sp, ((0, 1, 2), (1, 2, 0)))

    def test_not_bijective(self):
        sp = discrete_space(("a", "b"))
        z1 = cyclic_group(1)
        with pytest.raises(ValidationError, match="|G| x |X|"):
            Action(z1, sp, ((0, 0), (0, 1)))

    @pytest.mark.parametrize("entry", [float, str, bool])
    def test_entries_must_be_ints(self, entry):
        # Z2's tables with one int entry replaced by an equal non-int
        with pytest.raises(ValidationError, match="element list"):
            Group(("e", "a"), ((0, 1), (1, entry(0))))
        with pytest.raises(ValidationError, match="carrier"):
            Action(cyclic_group(2), discrete_space(("a", "b")), ((0, 1), (entry(1), 0)))

    def test_translation_must_be_homeomorphism(self):
        # swapping the Sierpinski points is a bijection but the inverse
        # image of the open point is not open
        sp = Space(("a", "b"), (0b01, 0b11))
        with pytest.raises(ValidationError, match="continuous"):
            Action(cyclic_group(2), sp, ((0, 1), (1, 0)))

    def test_shift_at_the_points_limit(self):
        # Z8 rotating blocks of 8 points of an indiscrete carrier at the
        # bound: one continuity check for the one generator, with each
        # distinct minimal open (here one) imaged once
        n = MaxPoints
        sp = Space(tuple(f"p{i}" for i in range(n)), ((1 << n) - 1,) * n)
        top = n - n % 8
        rows = tuple(
            tuple(x if x >= top else x - x % 8 + (x + g) % 8 for x in range(n))
            for g in range(8)
        )
        start = time.perf_counter()
        action = Action(cyclic_group(8), sp, rows)
        assert time.perf_counter() - start < 0.5
        assert action.orbit(0) == 0xFF


class TestOrbits:
    def test_orbit_and_saturate(self, fixture_map):
        sys = fixture_map["z4mod2"].system
        a = sys.action
        assert a.orbit(0) == 0b0101
        assert a.orbit(1) == 0b1010
        assert a.saturate(0b0011) == 0b1111
        assert a.orbits() == [0b0101, 0b1010]

    def test_two_triangles_orbits(self, fixture_map):
        sys = fixture_map["two-triangles"].system
        sp = sys.space
        assert sys.action.orbit(sp.index["a"]) == mask(sp, ("a", "b", "c"))
        assert sys.action.orbit(sp.index["p"]) == mask(sp, ("p", "q", "r"))

    def test_saturate_laws(self):
        count = 0
        for sys in itertools.islice(enumerate_systems(3, ("Z2", "Z3")), 400):
            a = sys.action
            full = sys.space.full
            for s in range(1 << sys.space.n):
                sat = a.saturate(s)
                assert s & ~sat == 0
                assert a.saturate(sat) == sat
                assert sat & ~full == 0
            count += 1
        assert count > 0

    def test_translates_of_opens_are_open(self):
        for sys in itertools.islice(enumerate_systems(3, ("Z2",)), 300):
            sp = sys.space
            for g in range(sys.group.order):
                for u in opens(sp):
                    assert is_open(sp, sys.action.translate(g, u))
                    assert is_open(sp, sys.action.saturate(u))

    def test_trivial_action(self):
        sp = discrete_space(("a", "b"))
        a = trivial_action(sp)
        assert a.act == (tuple(range(sp.n)),)
        assert a.orbit(0) == 0b01


class TestEquivariance:
    def test_two_triangles_pseudo_not_equivariant(self, fixture_map):
        sys = fixture_map["two-triangles"].system
        assert is_pseudoequivariant(sys.action, sys.f)
        fail = equivariance_failure(sys.action, sys.f)
        assert fail is not None
        g, x = fail
        row = sys.action.act[g]
        assert sys.f[row[x]] != row[sys.f[x]]

    def test_z4mod2_equivariant(self, fixture_map):
        sys = fixture_map["z4mod2"].system
        assert is_equivariant(sys.action, sys.f)
        assert equivariance_failure(sys.action, sys.f) is None

    def test_skew3_not_pseudo(self, fixture_map):
        sys = fixture_map["skew3"].system
        x = pseudoequivariance_failure(sys.action, sys.f)
        assert x is not None
        assert map_image(sys.f, sys.action.orbit(x)) != sys.action.orbit(sys.f[x])

    def test_equivariant_implies_pseudo(self):
        for sys in itertools.islice(enumerate_systems(3, ("Z2",)), 500):
            if is_equivariant(sys.action, sys.f):
                assert is_pseudoequivariant(sys.action, sys.f)


class TestProducts:
    def test_product_group(self):
        g = product_group(cyclic_group(2), cyclic_group(3))
        assert g.order == 6
        assert g.elements[0] == "(0|0)"
        # (1|1) has order lcm(2,3) = 6
        x = g.index["(1|1)"]
        y, k = x, 1
        while y != g.identity:
            y = g.mul[y][x]
            k += 1
        assert k == 6

    def test_product_action_componentwise(self, fixture_map):
        s1 = fixture_map["z4mod2"].system
        s2 = fixture_map["z2swap-id"].system
        pa = product_action(s1.action, s2.action)
        assert pa.space == product(s1.space, s2.space)
        n2 = s2.space.n
        for g1 in range(2):
            for g2 in range(2):
                row = pa.act[g1 * 2 + g2]
                for x in range(s1.space.n):
                    for y in range(n2):
                        assert row[x * n2 + y] == (
                            s1.action.act[g1][x] * n2 + s2.action.act[g2][y]
                        )


class TestQuotient:
    def test_z4mod2(self, fixture_map):
        sys = fixture_map["z4mod2"].system
        qs = quotient(sys.action, sys.f)
        assert qs.space.points == ("0", "1")
        assert qs.space.is_discrete()
        assert qs.proj == (0, 1, 0, 1)
        assert qs.induced == (1, 0)

    def test_interval_tails_quotient_topology(self, fixture_map):
        sys = fixture_map["interval-tails"].system
        qs = quotient(sys.action, sys.f)
        q = qs.space
        assert q.points == ("-1", "-3/4", "-2/3", "0", "1")
        tails = mask(q, ("-3/4", "-2/3"))
        for ell in ("-1", "0", "1"):
            assert q.min_open[q.index[ell]] == (1 << q.index[ell]) | tails
        for t in ("-3/4", "-2/3"):
            assert q.min_open[q.index[t]] == 1 << q.index[t]
        # the two five-point orbits swap under the induced map
        i, j = q.index["-3/4"], q.index["-2/3"]
        assert qs.induced[i] == j and qs.induced[j] == i

    def test_no_induced_map_without_orbit_preservation(self, fixture_map):
        sys = fixture_map["skew3"].system
        qs = quotient(sys.action, sys.f)
        assert qs.induced is None
        with pytest.raises(PreconditionError, match="pseudoequivariant"):
            quotient_minimality(sys)

    def test_projection_is_open_map(self):
        # the image of every open set under the projection is open
        for sys in itertools.islice(enumerate_systems(3, ("Z2", "Z3")), 300):
            qs = quotient(sys.action)
            for u in opens(sys.space):
                img = 0
                for x in range(sys.space.n):
                    if (u >> x) & 1:
                        img |= 1 << qs.proj[x]
                assert is_open(qs.space, img)

    def test_quotient_of_trivial_action_is_identity(self, fixture_map):
        sys = fixture_map["sierpinski-id"].system
        qs = quotient(sys.action, sys.f)
        assert qs.space.points == sys.space.points
        assert qs.space.min_open == sys.space.min_open
        assert qs.induced == sys.f

    @given(st.integers(0, 299))
    @settings(max_examples=30, deadline=None)
    def test_induced_commutes(self, i):
        sys = next(itertools.islice(enumerate_systems(3, ("Z2",)), i, None))
        if not is_pseudoequivariant(sys.action, sys.f):
            return
        qs = quotient(sys.action, sys.f)
        for x in range(sys.space.n):
            assert qs.induced[qs.proj[x]] == qs.proj[sys.f[x]]
