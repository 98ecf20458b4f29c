import hashlib
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import DATA, SHIPPED, cycles_text
from gdyn import cli
from gdyn.cli import main
from gdyn.dynamics import MaxCarrier
from gdyn.sysfile import MaxGroupOrder, MaxPoints, parse, serialize


@pytest.fixture
def files(fixture_map):
    """The fixture files that ship with the package, in the order of
    fixtures()."""
    return {name: str(SHIPPED / f"{name}.gds") for name in fixture_map}


class TestValidate:
    def test_ok(self, files, capsys):
        assert main(["validate", files["rot4"]]) == 0
        out = capsys.readouterr().out
        assert out == "valid: 4 points, group of order 1\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.gds")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_file(self, tmp_path, capsys):
        p = tmp_path / "bad.gds"
        p.write_text("points a a\n")
        assert main(["validate", str(p)]) == 2
        assert "duplicate name" in capsys.readouterr().err

    @pytest.mark.parametrize("declared, message", [
        ("g", "table identity is e, declared g"), ("x", "unknown element 'x'")])
    def test_bad_identity(self, tmp_path, capsys, declared, message):
        # both identity errors name the identity line
        p = tmp_path / "bad.gds"
        p.write_text(f"points a\ngroup e g\nidentity {declared}\nmul e e g\nmul g g e\n"
                     "act e a a\nact g a a\nmap a a\n")
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: line 3: identity: {message}\n")


class TestCheck:
    def test_true_verdict(self, files, capsys):
        assert main(["check", files["rot4"], "--property", "gt"]) == 0
        assert "property=gt verdict=true" in capsys.readouterr().out

    def test_tgt_false_with_witness(self, files, capsys):
        assert main(["check", files["disc2-swap"], "--property", "tgt"]) == 1
        out = capsys.readouterr().out
        assert "property=tgt verdict=false" in out
        assert "witness: U={a} V={b} m=2" in out

    def test_sgm_witness(self, files, capsys):
        assert main(["check", files["rot4"], "--property", "sgm"]) == 1
        out = capsys.readouterr().out
        assert "witness: U={0} V={0} missing_exponent=1" in out

    def test_wgm_witness(self, files, capsys):
        assert main(["check", files["rot4"], "--property", "wgm"]) == 1
        assert "witness: U={0} V={0} E={0} F={1}" in capsys.readouterr().out

    def test_gm_witness(self, files, capsys):
        assert main(["check", files["sierpinski-id"], "--property", "gm"]) == 1
        assert "witness: x=b" in capsys.readouterr().out

    def test_equivariant_witness(self, files, capsys):
        rc = main(["check", files["two-triangles"], "--property", "equivariant"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "property=equivariant verdict=false" in out
        assert "witness: g=" in out and " x=" in out

    def test_pseudoequivariant(self, files, capsys):
        assert main(
            ["check", files["two-triangles"], "--property", "pseudoequivariant"]
        ) == 0
        capsys.readouterr()
        rc = main(["check", files["skew3"], "--property", "pseudoequivariant"])
        assert rc == 1
        assert "witness: x=" in capsys.readouterr().out

    def test_quotient_minimal(self, files, capsys):
        assert main(
            ["check", files["z4mod2"], "--property", "quotient-minimal"]
        ) == 0
        out = capsys.readouterr().out
        assert "detail: gm=true induced_minimal=true" in out

    def test_quotient_minimal_precondition(self, files, capsys):
        rc = main(["check", files["skew3"], "--property", "quotient-minimal"])
        assert rc == 2
        assert "not pseudoequivariant" in capsys.readouterr().err

    def test_nfold(self, files, capsys):
        assert main(["check", files["disc2-swap"], "--property", "nfold:2"]) == 1
        out = capsys.readouterr().out
        assert "property=nfold:2 verdict=false" in out
        assert "witness: U={(a,a)} V={(a,b)}" in out

    def test_nfold_bad_count(self, files, capsys):
        # ASCII digits only: int() would read "1_0" as 10, " 2" as 2 and
        # the Arabic-Indic digit three as 3
        for count in ("x", "", "1_0", "\u0663", " 2", "+2"):
            assert main(["check", files["disc2-swap"], "--property", f"nfold:{count}"]) == 2
            assert "bad fold count" in capsys.readouterr().err

    def test_p1_and_p2(self, files, fixture_map, capsys):
        # decided through the property table: a verdict and no witness
        seen = set()
        for name, path in files.items():
            for prop in ("p1", "p2"):
                want = fixture_map[name].expected[prop]
                assert main(["check", path, "--property", prop]) == (0 if want else 1)
                assert capsys.readouterr().out == (
                    f"property={prop} verdict={str(want).lower()}\n")
                seen.add((prop, want))
        assert len(seen) == 4

    def test_cover(self, files, capsys):
        assert main(["check", files["z2swap-id"], "--property", "cover"]) == 0
        assert "property=cover verdict=true" in capsys.readouterr().out

    def test_wgm_without_tgt_witness(self, capsys):
        # the 6-point system of tests/data separates wgm from tgt and sgm;
        # the miner, which stops at five points, cannot reach it
        path = str(DATA / "z3_wgm_not_tgt.gds")
        want = {"wgm": 0, "gm": 0, "tgt": 1, "sgm": 1, "pseudoequivariant": 1,
                "nfold:2": 0, "nfold:3": 1}
        got = {prop: main(["check", path, "--property", prop]) for prop in want}
        assert got == want
        capsys.readouterr()

    def test_unknown_property(self, files, capsys):
        assert main(["check", files["rot4"], "--property", "frob"]) == 2
        assert "unknown property" in capsys.readouterr().err

    def test_output_is_pinned(self, files, capsys):
        # every property on every fixture: exit code, verdict and witness
        # lines, byte for byte
        digest = hashlib.sha256()
        for name, path in files.items():  # in the order of fixtures()
            for prop in ("gt", "tgt", "wgm", "sgm", "gm", "cover", "equivariant",
                         "pseudoequivariant", "quotient-minimal", "nfold:2"):
                rc = main(["check", path, "--property", prop])
                out, err = capsys.readouterr()
                digest.update(f"{name} {prop} {rc}\n{out}{err}".encode())
        assert digest.hexdigest() == (
            "43403bb9849622f904da405cd549da84b1660db785da99e63d28ed1fa4197454")


class TestReport:
    def test_consistent(self, files, capsys):
        assert main(["report", files["z4mod2"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "p1=true"
        assert out[1] == "p2=true"
        assert "gt=true" in out
        assert out[-1] == "diagram=consistent"

    def test_all_fixtures_consistent(self, files, capsys):
        for path in files.values():
            assert main(["report", path]) == 0
            assert capsys.readouterr().out.endswith("diagram=consistent\n")

    def test_indiscrete_cycle_at_the_points_limit(self, tmp_path, capsys):
        # no open lines: every point has the whole carrier as its minimal
        # open, which continuity checks image once per map
        text = "".join(line + "\n" for line in cycles_text((MaxPoints,)).splitlines()
                       if not line.startswith("open "))
        start = time.perf_counter()
        parse(text)
        assert time.perf_counter() - start < 0.5
        p = tmp_path / "indiscrete_cycle.gds"
        p.write_text(text)
        assert main(["report", str(p)]) == 0
        assert capsys.readouterr().out == (
            "p1=true\np2=true\ngt=true\ntgt=true\nwgm=true\nsgm=true\ngm=true\n"
            "diagram=consistent\n")


class TestMinimalSets:
    def test_interval(self, files, capsys):
        assert main(["minimal-sets", files["interval-tails"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == [
            "minimal-set: {-1}",
            "minimal-set: {0}",
            "minimal-set: {1}",
        ]
        assert out[-1] == "count=3"

    def test_minimal_system(self, files, capsys):
        assert main(["minimal-sets", files["rot4"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["minimal-set: {0,1,2,3}", "count=1"]

    def test_cycle_at_the_points_limit(self, tmp_path, capsys):
        # one cycle through every point: the cover criterion and the
        # minimal cores decide in about a second at the carrier bound
        p = tmp_path / "long_cycle.gds"
        p.write_text(cycles_text((MaxPoints,)))
        assert main(["check", str(p), "--property", "cover"]) == 0
        assert capsys.readouterr().out == "property=cover verdict=true\n"
        assert main(["minimal-sets", str(p)]) == 0
        assert capsys.readouterr().out.endswith("\ncount=1\n")


class TestQuotient:
    def test_z4mod2(self, files, capsys):
        assert main(["quotient", files["z4mod2"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "points 0 1"
        assert "proj 0 0" in out and "proj 2 0" in out
        assert "proj 1 1" in out and "proj 3 1" in out
        assert out[-2:] == ["map 0 1", "map 1 0"]

    def test_no_induced(self, files, capsys):
        assert main(["quotient", files["skew3"]]) == 0
        assert "induced none" in capsys.readouterr().out


class TestGen:
    def test_deterministic_stdout(self, capsys):
        assert main(["gen", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_output_file_parses(self, tmp_path, capsys):
        out = tmp_path / "sys.gds"
        rc = main([
            "gen", "--seed", "3", "--max-points", "4",
            "--group", "Z2", "-o", str(out),
        ])
        assert rc == 0
        sys_ = parse(out.read_text())
        assert sys_.group.order == 2
        assert sys_.space.n <= 4

    def test_unknown_group(self, capsys):
        assert main(["gen", "--seed", "1", "--group", "Z99"]) == 2
        assert "error:" in capsys.readouterr().err


class TestMine:
    def test_sweep_finds_separation(self, tmp_path, capsys):
        out = tmp_path / "wit.gds"
        rc = main(["mine", "--target", "gt&!tgt", "--budget", "0",
                   "-o", str(out)])
        assert rc == 0
        assert "found: target=gt&!tgt phase=sweep" in capsys.readouterr().out
        parse(out.read_text())

    def test_exhausted(self, capsys):
        rc = main(["mine", "--target", "gm&!gt", "--budget", "10"])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("exhausted:")
        assert "sweep_checked=1637" in out
        assert "random_trials=10" in out

    def test_contradictory_target(self, capsys):
        assert main(["mine", "--target", "gt&!gt"]) == 2
        assert "contradictory" in capsys.readouterr().err

    def test_negative_budget(self, capsys):
        rc = main(["mine", "--target", "gm&!gt", "--budget", "-3", "--no-sweep"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "budget" in captured.err

    @pytest.mark.parametrize("name", ["minimal_sets", "quotient",
                                      "diagram_violations", "nfold:2"])
    def test_target_outside_the_table(self, name, capsys):
        assert main(["mine", "--target", f"gt&{name}", "--budget", "0"]) == 2
        assert "unknown property" in capsys.readouterr().err


class TestRoundTrip:
    def test_gen_check_pipeline(self, tmp_path, capsys):
        # generated file -> validate -> report, all through the CLI
        out = tmp_path / "g.gds"
        assert main(["gen", "--seed", "11", "-o", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) in (0, 1)
        assert "diagram=consistent" in capsys.readouterr().out

    def test_serialize_is_canonical(self, files):
        # a shipped file is serialize's output plus its comment lines
        for name, path in files.items():
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            body = "".join(line for line in text.splitlines(keepends=True)
                           if not line.startswith("#"))
            assert serialize(parse(text)) == body, name


class TestErrorsExitTwo:
    def test_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.gds"
        p.write_bytes("points a \xe9\n".encode("latin-1"))
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err

    def test_byte_order_mark(self, files, tmp_path, capsys):
        # a UTF-8 file that starts with a byte-order mark reads as without
        p = tmp_path / "bom.gds"
        p.write_bytes(b"\xef\xbb\xbf" + Path(files["rot4"]).read_bytes())
        assert main(["validate", str(p)]) == 0
        assert capsys.readouterr().out == "valid: 4 points, group of order 1\n"

    # a negative seed would replay the stream of its absolute value
    @pytest.mark.parametrize("argv, where", [
        (["gen", "--seed", "-1"], "generator"),
        (["mine", "--target", "gt", "--seed", "-1", "--budget", "10", "--no-sweep"], "mine"),
    ])
    def test_negative_seed(self, argv, where, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {where}: seed must be an int >= 0, got -1\n")

    def test_empty_group_name(self, capsys):
        # an empty name is a name, not an absent --group
        assert main(["gen", "--seed", "1", "--group", ""]) == 2
        assert capsys.readouterr() == ("", "error: generator: unknown group ''\n")

    def test_internal_error(self, files, capsys, monkeypatch):
        def broken(sys_, props):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(cli, "profile", broken)
        assert main(["report", files["rot4"]]) == 2
        assert capsys.readouterr().err == "error: internal: RuntimeError: simulated defect\n"

    def test_horizon_limit(self, tmp_path, capsys):
        # the prime cycles to 19 (77 points, horizon 9,699,690) and every
        # cycle length 2..19 (189 points, horizon 232,792,560): the false
        # witnesses of wgm and sgm read the hit masks and stop at the mask
        # bound, tgt's is gt's at m = 1, while the report decides on the
        # minimal points, gt, gm, cover and the minimal cores read only the
        # forward orbits, and nfold:2 answers on the 77^2-point product and
        # stops at the carrier bound on the 189^2-point one
        p = tmp_path / "cycles.gds"
        for lengths in ((2, 3, 5, 7, 11, 13, 17, 19), range(2, 20)):
            p.write_text(cycles_text(lengths))
            assert main(["check", str(p), "--property", "gt"]) == 1
            assert capsys.readouterr().out == (
                "property=gt verdict=false\nwitness: U={p0} V={p2}\n")
            assert main(["check", str(p), "--property", "gm"]) == 1
            assert capsys.readouterr().out == "property=gm verdict=false\nwitness: x=p0\n"
            assert main(["check", str(p), "--property", "cover"]) == 1
            assert capsys.readouterr().out == "property=cover verdict=false\n"
            assert main(["check", str(p), "--property", "tgt"]) == 1
            assert capsys.readouterr().out == (
                "property=tgt verdict=false\nwitness: U={p0} V={p2} m=1\n")
            for prop in ("wgm", "sgm"):
                assert main(["check", str(p), "--property", prop]) == 2
                assert capsys.readouterr().err.startswith("error: scan: the exponent window")
            assert main(["report", str(p)]) == 0
            assert capsys.readouterr().out == (
                "p1=true\np2=true\ngt=false\ntgt=false\nwgm=false\nsgm=false\ngm=false\n"
                "diagram=consistent\n")
            # one minimal core per cycle
            assert main(["minimal-sets", str(p)]) == 0
            assert capsys.readouterr().out.endswith(f"\ncount={len(lengths)}\n")
        p.write_text(cycles_text((2, 3, 5, 7, 11, 13, 17, 19)))
        assert main(["check", str(p), "--property", "nfold:2"]) == 1
        assert capsys.readouterr().out == (
            "property=nfold:2 verdict=false\nwitness: U={(p0,p0)} V={(p0,p1)}\n")
        p.write_text(cycles_text(range(2, 20)))
        assert main(["check", str(p), "--property", "nfold:2"]) == 2
        assert capsys.readouterr().err == (
            f"error: nfold_system: 189^2 points exceeds the bound {MaxCarrier}\n")

    def test_nfold_limits(self, tmp_path, capsys):
        p = tmp_path / "one_point.gds"
        p.write_text(cycles_text((1,)))
        assert main(["check", str(p), "--property", "nfold:200000"]) == 2
        assert "factors" in capsys.readouterr().err
        # past the bound on its digits alone: int() refuses 5000 digits on
        # Python 3.11 and later
        nines = "9" * 5000
        assert main(["check", str(p), "--property", f"nfold:{nines}"]) == 2
        assert capsys.readouterr().err == (
            f"error: nfold_system: {nines} factors exceed the bound"
            f" {MaxCarrier.bit_length()}\n")
        assert main(["check", str(p), "--property", f"nfold:{'0' * 5000}1"]) == 0
        assert capsys.readouterr().out == "property=nfold:1 verdict=true\n"
        p.write_text(cycles_text((1,), group_order=8))
        assert main(["check", str(p), "--property", "nfold:4"]) == 2
        assert "group of order 8^4" in capsys.readouterr().err
        assert main(["check", str(p), "--property", "nfold:0"]) == 2
        assert "n must be an int >= 1" in capsys.readouterr().err

    def test_group_order_limit(self, tmp_path, capsys):
        p = tmp_path / "big_group.gds"
        p.write_text(cycles_text((1,), group_order=MaxGroupOrder))
        assert main(["validate", str(p)]) == 0
        capsys.readouterr()
        p.write_text(cycles_text((1,), group_order=MaxGroupOrder + 1))
        assert main(["validate", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line ")
        assert captured.err.endswith(f"group: {MaxGroupOrder + 1} elements exceed"
                                     f" the bound of {MaxGroupOrder}\n")
        assert captured.err.count("\n") == 1

    def test_points_limit(self, tmp_path, capsys):
        p = tmp_path / "big_carrier.gds"
        p.write_text(cycles_text((1,) * MaxPoints))
        assert main(["validate", str(p)]) == 0
        capsys.readouterr()
        p.write_text(cycles_text((1,) * (MaxPoints + 1)))
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr() == (
            "", f"error: line 1: points: {MaxPoints + 1} points exceed the bound of {MaxPoints}\n")


# run in a fresh interpreter without site packages, so that nothing but the
# command itself can load a module
_FRESH_PROCESS = """
import sys
sys.path.insert(0, sys.argv[1])
from gdyn.cli import main
main(["report", sys.argv[2]])
main(["check", sys.argv[2], "--property", "wgm"])
modules = ("gdyn.corpus", "gdyn.oracle", "dataclasses", "inspect")
print("loaded:", [m for m in modules if m in sys.modules])
main(["gen", "--seed", "1"])
print("loaded:", [m for m in modules if m in sys.modules])
"""


def test_decide_commands_load_only_what_they_run(files):
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FRESH_PROCESS, str(src), files["rot4"]],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "p1=true" and "property=wgm verdict=false" in lines
    # gen loads the generator, not the oracle that only mine's witnesses need
    first = lines.index("loaded: []")
    assert lines[first + 1].startswith("points ")
    assert lines[-1] == "loaded: ['gdyn.corpus']"
