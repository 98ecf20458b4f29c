import pytest

from conftest import cycles_text
from gdyn import cli
from gdyn.cli import main
from gdyn.sysfile import parse, serialize


@pytest.fixture
def files(fixture_map, tmp_path):
    paths = {}
    for name, fx in fixture_map.items():
        p = tmp_path / f"{name}.gds"
        p.write_text(serialize(fx.system))
        paths[name] = str(p)
    return paths


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
        assert main(["check", files["disc2-swap"], "--property", "nfold:x"]) == 2
        assert "bad fold count" in capsys.readouterr().err

    def test_cover(self, files, capsys):
        assert main(["check", files["z2swap-id"], "--property", "cover"]) == 0
        assert "property=cover verdict=true" in capsys.readouterr().out

    def test_unknown_property(self, files, capsys):
        assert main(["check", files["rot4"], "--property", "frob"]) == 2
        assert "unknown property" in capsys.readouterr().err


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

    def test_serialize_is_canonical(self, files, fixture_map):
        for name, path in files.items():
            with open(path) as fh:
                text = fh.read()
            assert serialize(parse(text)) == text


class TestErrorsExitTwo:
    def test_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "latin1.gds"
        p.write_bytes("points a \xe9\n".encode("latin-1"))
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err

    def test_internal_error(self, files, capsys, monkeypatch):
        def broken(sys_, props):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(cli, "profile", broken)
        assert main(["report", files["rot4"]]) == 2
        assert capsys.readouterr().err == "error: internal: RuntimeError: simulated defect\n"

    def test_horizon_limit(self, tmp_path, capsys):
        p = tmp_path / "primes.gds"
        p.write_text(cycles_text((2, 3, 5, 7, 11, 13, 17, 19)))
        assert main(["check", str(p), "--property", "gt"]) == 2
        assert "iterate cache" in capsys.readouterr().err

    def test_nfold_limits(self, tmp_path, capsys):
        p = tmp_path / "one_point.gds"
        p.write_text(cycles_text((1,)))
        assert main(["check", str(p), "--property", "nfold:200000"]) == 2
        assert "factors" in capsys.readouterr().err
        p.write_text(cycles_text((1,), group_order=8))
        assert main(["check", str(p), "--property", "nfold:4"]) == 2
        assert "group of order 8^4" in capsys.readouterr().err
