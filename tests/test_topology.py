import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_automorphisms,
    brute_closure,
    brute_opens,
    first_discontinuity,
    is_open,
    map_preimage,
    mask,
    opens,
)
from gdyn.algebra import trivial_action
from gdyn.corpus import _random_preorder, all_spaces
from gdyn.dynamics import GSystem, product_system
from gdyn.errors import LimitError, ValidationError
from gdyn.topology import (
    Space,
    automorphisms,
    compose,
    discrete_space,
    find_discontinuity,
    identity_table,
    is_continuous,
    map_image,
    space_from_subbasis,
)


def sierpinski():
    # {a} open, b only sees the whole space
    return Space(("a", "b"), (0b01, 0b11))


class TestValidation:
    def test_empty_carrier(self):
        with pytest.raises(ValidationError):
            Space((), ())

    def test_duplicate_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Space(("a", "a"), (0b01, 0b10))

    def test_whitespace_name(self):
        with pytest.raises(ValidationError):
            Space(("a b",), (0b1,))

    def test_point_outside_own_neighbourhood(self):
        with pytest.raises(ValidationError, match="b"):
            Space(("a", "b"), (0b01, 0b01))

    def test_base_condition(self):
        # b's neighbourhood contains a whose neighbourhood sticks out
        with pytest.raises(ValidationError):
            Space(("a", "b", "c"), (0b101, 0b011, 0b100))

    def test_neighbourhood_outside_carrier(self):
        with pytest.raises(ValidationError):
            Space(("a",), (0b11,))

    @pytest.mark.parametrize("entry", [float, str, bool])
    def test_entries_must_be_ints(self, entry):
        # 1.0 and True pass a range test, "1" fails it with a TypeError
        with pytest.raises(ValidationError, match="int masks"):
            Space(("a",), (entry(1),))
        with pytest.raises(ValidationError, match="carrier"):
            is_continuous(discrete_space(("a", "b")), (entry(1), 0))


class TestBasics:
    def test_sierpinski_closure_interior(self):
        sp = sierpinski()
        assert sp.closure(0b01) == 0b11  # the open point is dense
        assert sp.closure(0b10) == 0b10  # the closed point is closed
        assert sp.interior(0b10) == 0
        assert sp.interior(0b11) == 0b11
        assert sp.is_dense(0b01)
        assert not sp.is_dense(0b10)
        assert sp.is_nowhere_dense(0b10)
        assert not sp.is_nowhere_dense(0b01)

    def test_open_closed(self):
        sp = sierpinski()
        assert is_open(sp, 0b01)
        assert not is_open(sp, 0b10)
        assert sp.closure(0b10) == 0b10
        assert sp.closure(0b01) != 0b01
        assert is_open(sp, 0) and sp.closure(0) == 0
        assert is_open(sp, 0b11) and sp.closure(0b11) == 0b11

    def test_discrete(self):
        sp = discrete_space(("x", "y", "z"))
        assert sp.is_discrete()
        assert sp.closure(0b011) == 0b011
        assert sp.interior(0b011) == 0b011
        assert not sierpinski().is_discrete()

    def test_opens_enumeration(self):
        assert opens(discrete_space(("a", "b", "c"))) == list(range(8))
        assert opens(sierpinski()) == [0, 0b01, 0b11]

    def test_mask_names_label(self):
        sp = discrete_space(("a", "b", "c"))
        assert mask(sp, ("a", "c")) == 0b101
        assert sp.names(0b101) == ("a", "c")
        assert sp.label(0b101) == "{a,c}"


class TestLaws:
    """Kuratowski closure laws and duality, against the brute-force
    all-opens model, on every topology with up to four points."""

    def test_closure_interior_against_brute_force(self):
        for sp in all_spaces(4):
            for a in range(1 << sp.n):
                assert sp.closure(a) == brute_closure(sp, a)
                want_int = sp.full & ~brute_closure(sp, sp.full & ~a)
                assert sp.interior(a) == want_int

    def test_kuratowski(self):
        for sp in all_spaces(3):
            for a in range(1 << sp.n):
                ca = sp.closure(a)
                assert a & ~ca == 0
                assert sp.closure(ca) == ca
                for b in range(1 << sp.n):
                    assert sp.closure(a | b) == ca | sp.closure(b)
        assert all(sp.closure(0) == 0 for sp in all_spaces(3))

    def test_opens_closed_under_union_intersection(self):
        for sp in all_spaces(3):
            found = opens(sp)
            assert set(found) == brute_opens(sp)
            for a in found:
                for b in found:
                    assert is_open(sp, a | b)
                    assert is_open(sp, a & b)

    def test_dense_nowhere_dense_from_definitions(self):
        for sp in all_spaces(3):
            for a in range(1 << sp.n):
                assert sp.is_dense(a) == (sp.closure(a) == sp.full)
                assert sp.is_nowhere_dense(a) == (
                    sp.interior(sp.closure(a)) == 0
                )


def product(s1, s2):
    """The product space, as ``product_system`` builds it for the
    identity maps under the trivial group."""
    s1, s2 = (GSystem(trivial_action(s), identity_table(s.n)) for s in (s1, s2))
    return product_system(s1, s2).space


def large_open_spaces():
    # spaces whose minimal opens are large and shared by several points
    return [space_from_subbasis(tuple("abcdef"), []),
            product(sierpinski(), sierpinski()),
            product(sierpinski(), space_from_subbasis(("p", "q", "r"), []))]


class TestMaps:
    def test_image_preimage(self):
        f = (1, 2, 0)
        assert map_image(f, 0b011) == 0b110
        assert map_preimage(f, 0b001, 3) == 0b100
        assert compose(f, f) == (2, 0, 1)
        assert identity_table(3) == (0, 1, 2)

    def test_continuity_against_preimage_oracle(self):
        # continuity via minimal neighbourhoods must agree with the
        # preimage-of-every-open definition, for every map whatsoever, and
        # the point named must be the first one whose minimal open leaves
        # the minimal open of its image: point by point, and as the first
        # x at which the preimage of the least open around f(x) is not a
        # neighbourhood of x, with neighbourhoods taken from the opens
        spaces = [sp for n in range(1, 5) for sp in all_spaces(n)]
        for sp in spaces + large_open_spaces():
            found = set(opens(sp))
            least = [functools.reduce(int.__and__, (o for o in found if o >> x & 1))
                     for x in range(sp.n)]
            for f in itertools.product(range(sp.n), repeat=sp.n):
                brute = all(
                    map_preimage(f, o, sp.n) in found for o in found
                )
                assert is_continuous(sp, f) == brute
                x = find_discontinuity(sp, f)
                assert (x is None) == brute
                assert x == first_discontinuity(sp, f)
                if not brute:
                    assert x == next(y for y in range(sp.n)
                                     if least[y] & ~map_preimage(f, least[f[y]], sp.n))

    def test_plan_answers_as_a_fresh_space(self):
        # one space asked about many tables in shuffled order, its plan
        # built on the first, answers as a freshly built space does
        rng = random.Random(7)
        for sp in rng.sample(list(all_spaces(4)), 40) + large_open_spaces():
            tables = list(itertools.product(range(sp.n), repeat=sp.n))
            rng.shuffle(tables)
            for f in tables[:300]:
                fresh = Space(sp.points, sp.min_open)
                assert find_discontinuity(sp, f) == find_discontinuity(fresh, f)

    def test_find_discontinuity_names_a_point(self):
        sp = sierpinski()
        bad = (1, 0)  # swapping pulls the open point onto the closed one
        x = find_discontinuity(sp, bad)
        assert x is not None and map_image(bad, sp.min_open[x]) & ~sp.min_open[bad[x]]

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_image_of_composition(self, n, data):
        f = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
        g = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
        a = data.draw(st.integers(0, (1 << n) - 1))
        assert map_image(compose(f, g), a) == map_image(f, map_image(g, a))


class TestSubbasisAndProduct:
    def test_space_from_subbasis(self):
        sp = space_from_subbasis(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert sp.min_open == (0b011, 0b010, 0b110)
        with pytest.raises(ValidationError, match="unknown point"):
            space_from_subbasis(("a",), [("z",)])

    def test_empty_subbasis_is_indiscrete(self):
        sp = space_from_subbasis(("a", "b"), [])
        assert sp.min_open == (0b11, 0b11)

    def test_product_neighbourhoods(self):
        s1 = sierpinski()
        s2 = discrete_space(("x", "y"))
        p = product(s1, s2)
        assert p.n == 4
        assert p.points == ("(a,x)", "(a,y)", "(b,x)", "(b,y)")
        for i in range(s1.n):
            for j in range(s2.n):
                got = p.min_open[i * s2.n + j]
                want = 0
                for ii in range(s1.n):
                    for jj in range(s2.n):
                        if (s1.min_open[i] >> ii) & 1 and (s2.min_open[j] >> jj) & 1:
                            want |= 1 << (ii * s2.n + jj)
                assert got == want

    def test_product_rectangles_open(self):
        for s1 in all_spaces(2):
            for s2 in all_spaces(2):
                p = product(s1, s2)
                for u in opens(s1):
                    for v in opens(s2):
                        rect = 0
                        for i in range(s1.n):
                            for j in range(s2.n):
                                if (u >> i) & 1 and (v >> j) & 1:
                                    rect |= 1 << (i * s2.n + j)
                        assert is_open(p, rect)


class TestAutomorphisms:
    def test_discrete_gets_all_permutations(self):
        assert len(automorphisms(discrete_space(("a", "b", "c")))) == 6

    def test_sierpinski_is_rigid(self):
        assert automorphisms(sierpinski()) == [(0, 1)]

    def test_automorphisms_preserve_structure(self):
        for sp in all_spaces(3):
            for s in automorphisms(sp):
                for x in range(sp.n):
                    assert map_image(s, sp.min_open[x]) == sp.min_open[s[x]]

    def test_pruned_search_matches_every_permutation_to_five_points(self):
        # the generator draws indices into the list, so order counts too
        for n in range(1, 6):
            for sp in all_spaces(n):
                assert automorphisms(sp) == all_automorphisms(sp)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_pruned_search_matches_every_permutation_on_larger_spaces(self, n):
        rng = random.Random(n)
        names = tuple(f"p{i}" for i in range(n))
        spaces = [discrete_space(names)] + [
            Space(names, _random_preorder(rng.random, n)) for _ in range(4)]
        for sp in spaces:
            assert automorphisms(sp) == all_automorphisms(sp)

    def test_pruned_search_matches_every_permutation_on_products(self):
        # symmetric spaces whose points are not all alike
        s2 = sierpinski()
        for sp in (product(s2, discrete_space(("a", "b", "c"))),
                   product(s2, product(s2, s2))):
            autos = automorphisms(sp)
            assert len(autos) > 1
            assert autos == all_automorphisms(sp)

    def test_limit(self):
        sp = discrete_space(tuple(f"p{i}" for i in range(9)))
        with pytest.raises(LimitError):
            automorphisms(sp)
