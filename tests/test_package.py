"""The package's public surface: the lazily resolved `gdyn` namespace and
the result records, which are named tuples."""

import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gdyn
from gdyn import checkers as ck
from gdyn.algebra import QuotientSystem, quotient

EXPORTED = [
    "Action", "Error", "Fixture", "GSystem", "GenerationError", "GeneratorConfig",
    "Group", "IterateCache", "LimitError", "MineResult", "ParseError",
    "PreconditionError", "ProductMinimality", "PropertyReport",
    "QuotientMinimality", "QuotientSystem", "SgmCondition", "Space", "SuiteReport",
    "ValidationError", "algebra", "all_spaces", "automorphisms", "bitsets",
    "catalog", "checkers", "corpus", "cyclic_group", "diagram_violations",
    "discrete_space", "dynamics", "enumerate_systems", "equivariance_failure",
    "errors", "fixtures", "g_minimal_sets", "g_transitive_points",
    "generate", "generate_robust", "gf_periodic_mask",
    "is_continuous", "is_equivariant", "is_g_minimal",
    "is_g_transitive", "is_n_fold_transitive", "is_pseudoequivariant",
    "is_strongly_g_mixing", "is_totally_g_transitive", "is_weakly_g_mixing",
    "klein_group", "mine", "minimality_cover_criterion", "nfold_system", "oracle",
    "parse", "parse_target", "periodic_points", "product_minimality_criterion",
    "product_system", "profile", "pseudoequivariance_failure", "quotient",
    "quotient_minimality", "run_implication_suite", "serialize",
    "sgm_sufficient_condition", "space_from_subbasis", "suite_configs",
    "symmetric_group_3", "sysfile", "topology", "trivial_action",
]
SUBMODULES = {"algebra", "bitsets", "checkers", "corpus", "dynamics", "errors",
              "oracle", "sysfile", "topology"}


class TestNamespace:
    def test_all_is_pinned(self):
        assert len(EXPORTED) == 72
        assert gdyn.__all__ == EXPORTED
        assert gdyn.__version__ == "0.1.0"

    def test_names_are_their_definitions(self):
        for name in EXPORTED:
            value = getattr(gdyn, name)
            if name in SUBMODULES:
                assert isinstance(value, types.ModuleType)
                assert value is sys.modules[f"gdyn.{name}"]
                continue
            home = value.__module__
            assert home.removeprefix("gdyn.") in SUBMODULES
            assert value is getattr(sys.modules[home], name)
            assert vars(gdyn)[name] is value  # cached after the first read

    def test_dir_and_unknown_names(self):
        assert set(EXPORTED) <= set(dir(gdyn))
        with pytest.raises(AttributeError, match="gdyn"):
            gdyn.nosuch  # noqa: B018

    def test_star_import_binds_every_name(self):
        ns = {}
        exec("from gdyn import *", ns)
        assert {name: ns[name] for name in EXPORTED} == {
            name: getattr(gdyn, name) for name in EXPORTED}

    def test_import_loads_no_submodule(self):
        src = Path(gdyn.__file__).resolve().parent.parent
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import gdyn;"
                " print(sorted(m for m in sys.modules if m.startswith('gdyn')))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout == "['gdyn']\n", proc.stderr


@pytest.fixture(scope="module")
def records(fixture_map):
    """One value of each result record, from the fixtures."""
    z4 = fixture_map["z4mod2"].system
    rot4 = fixture_map["rot4"].system
    return {
        QuotientSystem: quotient(z4.action, z4.f),
        ck.PropertyReport: ck.is_g_transitive(z4),
        ck.QuotientMinimality: ck.quotient_minimality(z4),
        ck.SgmCondition: ck.sgm_sufficient_condition(rot4),
        ck.ProductMinimality: ck.product_minimality_criterion(z4, rot4),
    }


FIELDS = {
    QuotientSystem: (("space", "proj", "orbit_masks", "induced"), {}),
    ck.PropertyReport: (("prop", "verdict", "witness", "note"), {"note": ""}),
    ck.QuotientMinimality: (("gm", "induced_minimal"), {}),
    ck.SgmCondition: (("applies", "conclusion_checked", "note"), {}),
    ck.ProductMinimality: (("product_minimal", "criterion"), {}),
}


class TestRecords:
    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_fields_and_defaults(self, cls):
        fields, defaults = FIELDS[cls]
        assert cls._fields == fields
        assert cls._field_defaults == defaults
        assert issubclass(cls, tuple)

    def test_property_report_note_defaults_empty(self):
        assert ck.PropertyReport("gt", True, None).note == ""

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_frozen(self, cls, records):
        rec = records[cls]
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_pickle_round_trip(self, cls, records):
        rec = records[cls]
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is cls
        assert back == rec

    def test_pickle_carries_the_certificates(self, records):
        rep = records[ck.PropertyReport]
        assert rep.verdict and isinstance(rep.witness, ck._Certified)
        back = pickle.loads(pickle.dumps(rep))
        assert dict(back.witness) == dict(rep.witness)
        assert back.witness["certificates"] == rep.witness["certificates"]
        assert len(back.witness["certificates"]) > 0
