import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdyn.algebra import Action, Group
from gdyn.dynamics import GSystem
from gdyn.errors import ParseError, ValidationError
from gdyn.sysfile import parse, serialize
from gdyn.topology import discrete_space

MINIMAL = """\
points a b
group e
identity e
mul e e
act e a a
act e b b
map a b
map b a
"""


class TestRoundTrip:
    def test_fixture_round_trips_byte_identical(self, fixture_map):
        for fx in fixture_map.values():
            text = serialize(fx.system)
            again = parse(text)
            assert again == fx.system, fx.name
            assert serialize(again) == text, fx.name

    def test_minimal_file(self):
        # no open lines: the indiscrete topology
        sys = parse(MINIMAL)
        assert sys.space.points == ("a", "b")
        assert sys.f == (1, 0)
        assert sys.space.min_open == (0b11, 0b11)

    def test_sections_in_any_order(self, fixture_map):
        text = serialize(fixture_map["z4mod2"].system)
        lines = [l for l in text.splitlines() if l]
        scrambled = "\n".join(reversed(lines)) + "\n"
        assert parse(scrambled) == fixture_map["z4mod2"].system

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=3), min_size=2, max_size=2, unique=True))
    def test_element_names_round_trip(self, names):
        # every pair of element names that Group accepts survives a file
        try:
            group = Group(names, ((0, 1), (1, 0)))
        except ValidationError:
            return
        space = discrete_space(("a", "b"))
        sys = GSystem(Action(group, space, ((0, 1), (1, 0))), (1, 0))
        assert parse(serialize(sys)) == sys

    def test_comments_and_blanks(self):
        noisy = "# header\n\n" + MINIMAL.replace(
            "map a b", "map a b   # swap"
        ) + "\n# trailing\n"
        assert parse(noisy) == parse(MINIMAL)


class TestParseErrors:
    def test_duplicate_points(self):
        bad = "points a b\npoints a b\n" + MINIMAL.split("\n", 1)[1]
        with pytest.raises(ParseError) as e:
            parse(bad)
        assert e.value.line == 2
        assert "duplicate points" in str(e.value)

    def test_duplicate_point_name(self):
        with pytest.raises(ParseError, match="duplicate name"):
            parse(MINIMAL.replace("points a b", "points a a"))

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="unknown keyword 'pounts'"):
            parse(MINIMAL.replace("points", "pounts"))

    def test_open_unknown_point(self):
        bad = MINIMAL + "open a z\n"
        with pytest.raises(ParseError) as e:
            parse(bad)
        assert "unknown point 'z'" in str(e.value)
        assert e.value.line == bad.count("\n")

    def test_act_arity(self):
        with pytest.raises(ParseError, match="element, point, point"):
            parse(MINIMAL.replace("act e a a", "act e a"))

    def test_act_duplicate(self):
        with pytest.raises(ParseError, match="duplicate entry for e a"):
            parse(MINIMAL + "act e a b\n")

    def test_act_missing(self):
        bad = MINIMAL.replace("act e b b\n", "")
        with pytest.raises(ParseError, match="missing entry for e b"):
            parse(bad)

    def test_map_duplicate(self):
        with pytest.raises(ParseError, match="duplicate entry for a"):
            parse(MINIMAL + "map a a\n")

    def test_map_missing(self):
        with pytest.raises(ParseError, match="missing entry for b"):
            parse(MINIMAL.replace("map b a\n", ""))

    def test_mul_missing_row(self):
        two = MINIMAL.replace("group e", "group e g").replace(
            "identity e", "identity e"
        )
        with pytest.raises(ParseError, match="missing row for g"):
            parse(two)

    def test_mul_row_width(self):
        bad = MINIMAL.replace("group e", "group e g").replace(
            "mul e e", "mul e e\nmul g g"
        )
        with pytest.raises(ParseError, match="expected 2 products"):
            parse(bad)

    def test_identity_mismatch(self):
        # the declared identity is not the table identity
        bad = (
            "points a\n"
            "group e g\n"
            "identity g\n"
            "mul e e g\n"
            "mul g g e\n"
            "act e a a\n"
            "act g a a\n"
            "map a a\n"
        )
        with pytest.raises(ParseError, match="^line 3: identity: table identity is e, declared g$"):
            parse(bad)

    def test_identity_unknown(self):
        # a declared identity that is not on the group line
        bad = MINIMAL.replace("identity e", "# the identity\nidentity x")
        with pytest.raises(ParseError, match="^line 4: identity: unknown element 'x'$"):
            parse(bad)

    def test_missing_sections(self):
        with pytest.raises(ParseError, match="missing points"):
            parse("group e\nidentity e\nmul e e\n")
        with pytest.raises(ParseError, match="missing group"):
            parse("points a\nmap a a\n")
        with pytest.raises(ParseError, match="missing identity"):
            parse("points a\ngroup e\nmul e e\nmap a a\n")


class TestSemanticErrors:
    def test_group_axiom_failure(self):
        bad = MINIMAL.replace("group e", "group e g").replace(
            "mul e e", "mul e e g\nmul g g g"
        )
        with pytest.raises(ValidationError, match="no inverse"):
            parse(bad)

    def test_discontinuous_map(self):
        bad = (
            "points a b\n"
            "open a\n"
            "group e\n"
            "identity e\n"
            "mul e e\n"
            "act e a a\n"
            "act e b b\n"
            "map a b\n"
            "map b a\n"
        )
        with pytest.raises(ValidationError, match="not continuous"):
            parse(bad)

    def test_action_axiom_failure(self):
        bad = (
            "points a b\n"
            "group e g\n"
            "identity e\n"
            "mul e e g\n"
            "mul g g e\n"
            "act e a b\n"
            "act e b a\n"
            "act g a a\n"
            "act g b b\n"
            "map a a\n"
            "map b b\n"
        )
        with pytest.raises(ValidationError, match="identity must act trivially"):
            parse(bad)


class TestSerialization:
    def test_canonical_open_lines(self, fixture_map):
        # the distinct minimal opens, sorted: {a} and {a, b}
        text = serialize(fixture_map["sierpinski-id"].system)
        open_lines = [l for l in text.splitlines() if l.startswith("open")]
        assert open_lines == ["open a", "open a b"]

    def test_discrete_space_opens(self, fixture_map):
        text = serialize(fixture_map["disc2-swap"].system)
        open_lines = [l for l in text.splitlines() if l.startswith("open")]
        assert open_lines == ["open a", "open b"]

    def test_ends_with_newline(self, fixture_map):
        for fx in fixture_map.values():
            assert serialize(fx.system).endswith("\n")
