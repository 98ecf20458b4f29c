import itertools

import pytest

from gdyn import checkers as ck
from gdyn import corpus
from gdyn.errors import GenerationError, ValidationError


class TestFixtures:
    def test_names_unique(self, fixture_map):
        assert len(fixture_map) == 10

    def test_expected_keys_complete(self, fixture_map):
        keys = {"p1", "p2", "equivariant", "gt", "tgt", "wgm", "sgm", "gm",
                "minimal_sets", "quotient"}
        for fx in fixture_map.values():
            assert keys <= set(fx.expected), fx.name

    def test_verification_on_load(self):
        # fixtures(verify=True) recomputes every expected entry
        loaded = corpus.fixtures(verify=True)
        assert len(loaded) == 10

    def test_notes_present(self, fixture_map):
        for fx in fixture_map.values():
            assert fx.note


class TestGenerator:
    def test_deterministic(self):
        cfg = corpus.GeneratorConfig(seed=42, max_points=5)
        assert corpus.generate(cfg) == corpus.generate(cfg)
        assert corpus.generate_robust(cfg) == corpus.generate_robust(cfg)

    def test_seeds_vary(self):
        made = {
            corpus.generate(corpus.GeneratorConfig(seed=s, max_points=5))
            for s in range(12)
        }
        assert len(made) > 6

    def test_respects_bounds(self):
        for s in range(20):
            cfg = corpus.GeneratorConfig(seed=s, max_points=4, groups=("Z2",))
            sys = corpus.generate(cfg)
            assert sys.space.n <= 4
            assert sys.group.order == 2

    def test_discrete_mode(self):
        for s in range(10):
            cfg = corpus.GeneratorConfig(seed=s, max_points=4, mode="discrete")
            assert corpus.generate(cfg).space.is_discrete()

    def test_pseudo_filter(self):
        for s in range(15):
            cfg = corpus.GeneratorConfig(
                seed=s, max_points=4, pseudoequivariant_only=True
            )
            assert corpus.generate_robust(cfg).pseudoequivariant()

    def test_budget_exhaustion(self):
        cfg = corpus.GeneratorConfig(
            seed=0, max_points=5, pseudoequivariant_only=True, budget=0
        )
        with pytest.raises(GenerationError):
            corpus.generate(cfg)


class TestEnumeration:
    def test_space_counts(self):
        # labeled topologies on n points
        assert [sum(1 for _ in corpus.all_spaces(n)) for n in range(1, 5)] == [
            1, 4, 29, 355,
        ]

    def test_system_count(self):
        assert sum(1 for _ in corpus.enumerate_systems()) == 1637

    def test_systems_are_valid(self):
        for sys in itertools.islice(corpus.enumerate_systems(), 200):
            assert sys.space.n <= 3
            assert sys.group.order <= 3


class TestTargets:
    def test_parse_orders_cheap_first(self):
        lits = corpus.parse_target("gm&!gt")
        assert [n for n, _ in lits] == ["gt", "gm"]
        assert dict(lits) == {"gt": False, "gm": True}

    def test_parse_bang_whitespace(self):
        assert dict(corpus.parse_target(" sgm & ! wgm ")) == {
            "sgm": True, "wgm": False,
        }

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValidationError, match="unknown property"):
            corpus.parse_target("gt&!frob")

    def test_parse_rejects_contradiction(self):
        with pytest.raises(ValidationError, match="contradictory"):
            corpus.parse_target("gt&!gt")

    def test_parse_orders_by_table(self):
        # cheapest first; ties between equal costs follow the table, not
        # the order the literals are written in
        table = list(ck.Verdicts)
        assert table == ["p1", "equivariant", "p2", "gt", "gm", "sgm",
                         "cover", "tgt", "wgm"]
        for a, b in itertools.permutations(table, 2):
            lits = corpus.parse_target(f"{a}&!{b}")
            assert [n for n, _ in lits] == [n for n in table if n in (a, b)]
            assert dict(lits) == {a: True, b: False}

    def test_parse_rejects_empty(self):
        with pytest.raises(ValidationError):
            corpus.parse_target("")
        with pytest.raises(ValidationError):
            corpus.parse_target("gt&")


class TestMining:
    def test_separation_found_in_sweep(self):
        res = corpus.mine("gt&!tgt", budget=0)
        assert res.found
        assert res.phase == "sweep"
        corpus.verify_against_oracle(res.system, corpus.parse_target("gt&!tgt"))

    def test_sgm_without_gm_found(self):
        res = corpus.mine("sgm&!gm", budget=0)
        assert res.found
        corpus.verify_against_oracle(res.system, corpus.parse_target("sgm&!gm"))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError, match="budget"):
            corpus.mine("gm&!gt", budget=-1, sweep=False)
        res = corpus.mine("gm&!gt", budget=0, sweep=False)
        assert not res.found and res.record["random_trials"] == 0

    def test_implied_property_negation_exhausts(self):
        # minimality implies transitivity, so this must exhaust
        res = corpus.mine("gm&!gt", budget=50)
        assert not res.found
        assert res.system is None
        assert res.record["target"] == "gm&!gt"
        assert res.record["budget"] == 50
        assert res.record["sweep_checked"] == 1637
        assert res.record["random_trials"] == 50

    def test_exhausted_record_reproducible(self):
        a = corpus.mine("tgt&!wgm", seed=3, budget=25)
        b = corpus.mine("tgt&!wgm", seed=3, budget=25)
        assert not a.found and not b.found
        assert a.record == b.record

    def test_random_phase_reaches_witness(self):
        # skip the sweep so the random phase itself must find an easy target
        res = corpus.mine("gt", seed=0, budget=3000, sweep=False)
        assert res.found
        assert res.phase == "random"


class TestImplicationSuite:
    def test_clean_run(self):
        report = corpus.run_implication_suite(corpus.suite_configs(80, seed0=0))
        assert report.ok
        assert report.systems_checked == 80
        assert not report.violations

    def test_antecedents_covered(self):
        report = corpus.run_implication_suite(corpus.suite_configs(120, seed0=0))
        for key in ("gm->gt", "sgm->tgt", "equivariant->p1", "condition->sgm"):
            assert report.antecedents.get(key, 0) > 0, key

    def test_config_rotation(self):
        cfgs = corpus.suite_configs(12, seed0=5)
        assert len(cfgs) == 12
        assert {c.mode for c in cfgs} == {"discrete", "preorder"}
        assert any(c.pseudoequivariant_only for c in cfgs)
        assert len({c.seed for c in cfgs}) == 12
