"""Fuzzing of the file format and the command line.

`parse` must reject any text with a `gdyn.errors.Error`, and `gdyn
validate|report` must answer any file with exit code 0, 1 or 2, without a
traceback and without an internal error.  Inputs are random bytes,
random token lines and serialized fixtures with a few lines or tokens
changed."""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from gdyn import cli, corpus
from gdyn.algebra import catalog
from gdyn.corpus import GeneratorConfig, fixtures, generate
from gdyn.errors import Error, GenerationError
from gdyn.sysfile import MaxGroupOrder, MaxPoints, parse, serialize

FIXTURE_TEXTS = [serialize(fx.system) for fx in fixtures(verify=False)]

KEYWORDS = ("points", "open", "group", "identity", "mul", "act", "map")
NAMES = ("a", "b", "c", "e", "0", "1", "2", "x0", "x1", "-1/2", "ab", "r")
TOKENS = KEYWORDS + NAMES + ("#", "pionts", "\t", "")

token_lines = st.lists(
    st.lists(st.sampled_from(TOKENS), max_size=7).map(" ".join), max_size=14
).map("\n".join)


@st.composite
def mutated_fixtures(draw):
    """A serialized fixture with one to four lines dropped, duplicated,
    moved, truncated or given a different token."""
    lines = draw(st.sampled_from(FIXTURE_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "dup", "move", "cut", "token")))
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "move":
            lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))
        elif op == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            tok = lines[i].split()
            j = draw(st.integers(0, len(tok)))
            new = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tok[:j] + [new] + tok[j + 1:])
    return "\n".join(lines) + "\n"


texts = st.one_of(
    st.binary(max_size=200).map(lambda b: b.decode("latin-1")),
    token_lines,
    mutated_fixtures(),
)

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(texts)
def test_parse_raises_only_gdyn_errors(text):
    try:
        parse(text)
    except Error:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(("validate", "report")),
    data=st.one_of(st.binary(max_size=200), texts.map(str.encode)),
)
def test_cli_answers_with_an_exit_code(fuzz_dir, command, data):
    path = fuzz_dir / "input.gds"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path)])
    assert code in (0, 1, 2)
    printed = out.getvalue() + err.getvalue()
    assert "Traceback" not in printed
    assert "error: internal" not in printed
    if code == 2:
        assert err.getvalue().startswith("error: ")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(("validate", "report")),
    text=st.sampled_from(FIXTURE_TEXTS),
    kind=st.sampled_from(("points", "group")),
    extra=st.integers(1, 2000),
    data=st.data(),
)
def test_oversized_line_exits_two(fuzz_dir, command, text, kind, extra, data):
    # a fixture with its points or group line replaced by one past the
    # bound, anywhere in the file: one error line naming the bound
    bound, what = (MaxPoints, "points") if kind == "points" else (MaxGroupOrder, "elements")
    lines = [line for line in text.splitlines() if not line.startswith(kind + " ")]
    ln = data.draw(st.integers(0, len(lines)))
    lines.insert(ln, kind + "".join(f" n{i}" for i in range(bound + extra)))
    path = fuzz_dir / "oversized.gds"
    path.write_text("\n".join(lines) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(path)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == (f"error: line {ln + 1}: {kind}: {bound + extra} {what}"
                              f" exceed the bound of {bound}\n")


@FUZZ
@given(
    seed=st.integers(0, 2**62),
    max_points=st.integers(1, 6),
    groups=st.one_of(st.none(), st.sampled_from(sorted(catalog())).map(lambda g: (g,))),
    mode=st.sampled_from(("discrete", "preorder")),
    pseudo=st.booleans(),
)
def test_serialize_round_trips_generated_systems(seed, max_points, groups, mode, pseudo):
    cfg = GeneratorConfig(seed=seed, max_points=max_points, groups=groups, mode=mode,
                          pseudoequivariant_only=pseudo)
    try:
        with mock.patch.object(corpus, "MapAttempts", 200):
            sys = generate(cfg)
    except GenerationError:
        reject()
    assert parse(serialize(sys)) == sys
