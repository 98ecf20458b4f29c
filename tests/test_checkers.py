import collections
import gc
import hashlib
import itertools
import pickle
import time
import tracemalloc

import pytest

from gdyn import checkers as ck
from gdyn import corpus, oracle
from gdyn.algebra import Action, cyclic_group, trivial_action
from gdyn.bitsets import bits
from gdyn.corpus import enumerate_systems
from gdyn.dynamics import GSystem, MaxTableEntries, nfold_system
from gdyn.errors import LimitError, PreconditionError, ValidationError
from gdyn.sysfile import parse
from gdyn.topology import compose, discrete_space, map_image, space_from_subbasis
from tests.conftest import (
    DATA,
    check_gt_certificate,
    check_wgm_certificate,
    cycles_text,
    generated_systems,
    mask,
    mine_admits,
    power,
    refute_pair,
    shifted_cycles,
    trivialized,
)
from tests.test_routes import sgm_by_cycles


def _one_point_system():
    return GSystem(trivial_action(discrete_space(("x",))), (0,))


class TestTransitivity:
    def test_verdicts_on_fixtures(self, fixture_map):
        for fx in fixture_map.values():
            assert ck.is_g_transitive(fx.system).verdict == fx.expected["gt"]
            assert ck.is_totally_g_transitive(fx.system).verdict == fx.expected["tgt"]

    def test_disc2_tgt_witness(self, fixture_map):
        rep = ck.is_totally_g_transitive(fixture_map["disc2-swap"].system)
        assert not rep.verdict
        assert rep.witness == {"m": 2, "U": ("a",), "V": ("b",)}

    def test_interval_tgt_witness(self, fixture_map):
        rep = ck.is_totally_g_transitive(fixture_map["interval-tails"].system)
        assert rep.witness == {"m": 2, "U": ("-3/4",), "V": ("-2/3",)}

    def test_false_tgt_witness_is_genuine(self, fixture_map):
        for name in ("disc2-swap", "interval-tails"):
            sys = fixture_map[name].system
            w = ck.is_totally_g_transitive(sys).witness
            refute_pair(sys, w["U"], w["V"], m=w["m"])

    def test_true_gt_certificates_replay(self, fixture_map):
        for name in ("rot4", "z4mod2", "two-triangles"):
            sys = fixture_map[name].system
            rep = ck.is_g_transitive(sys)
            assert rep.verdict
            for cert in rep.witness["certificates"]:
                check_gt_certificate(sys, cert)

    def test_true_tgt_certificates_replay(self, fixture_map):
        sys = fixture_map["z2swap-id"].system
        rep = ck.is_totally_g_transitive(sys)
        assert rep.verdict
        for m, u_names, v_names, k, g_name in rep.witness["certificates"]:
            check_gt_certificate(sys, (u_names, v_names, k, g_name))

    def test_false_gt_witness_is_genuine(self, fixture_map):
        sys = fixture_map["double-mod5"].system
        rep = ck.is_g_transitive(sys)
        assert not rep.verdict
        refute_pair(sys, rep.witness["U"], rep.witness["V"])


class TestMixing:
    def test_verdicts_on_fixtures(self, fixture_map):
        for fx in fixture_map.values():
            assert ck.is_weakly_g_mixing(fx.system).verdict == fx.expected["wgm"]
            assert ck.is_strongly_g_mixing(fx.system).verdict == fx.expected["sgm"]

    def test_rot4_wgm_witness(self, fixture_map):
        rep = ck.is_weakly_g_mixing(fixture_map["rot4"].system)
        assert rep.witness == {"U": ("0",), "V": ("0",), "E": ("0",), "F": ("1",)}

    def test_rot4_sgm_witness(self, fixture_map):
        rep = ck.is_strongly_g_mixing(fixture_map["rot4"].system)
        assert rep.witness == {"U": ("0",), "V": ("0",), "missing_exponent": 1}
        # replay: at the missing exponent no translate of the image meets V
        sys = fixture_map["rot4"].system
        u = mask(sys.space, rep.witness["U"])
        v = mask(sys.space, rep.witness["V"])
        k = rep.witness["missing_exponent"]
        img = map_image(power(sys.f, k), u)
        assert not (img & sys.action.saturate(v))
        c = sys.cache()
        assert c.preperiod < k <= c.horizon

    def test_sgm_true_witness_replay(self, fixture_map):
        sys = fixture_map["z2swap-id"].system
        rep = ck.is_strongly_g_mixing(sys)
        assert rep.verdict
        assert rep.witness["threshold"] == 1
        for u_names, v_names, k, g_name in rep.witness["certificates"]:
            check_gt_certificate(sys, (u_names, v_names, k, g_name))

    def test_wgm_witness_pair_fails_jointly(self, fixture_map):
        # the reported 4-tuple admits no single exponent serving both pairs
        sys = fixture_map["rot4"].system
        w = ck.is_weakly_g_mixing(sys).witness
        c = sys.cache()
        u = mask(sys.space, w["U"])
        v = mask(sys.space, w["V"])
        e = sys.action.saturate(mask(sys.space, w["E"]))
        f = sys.action.saturate(mask(sys.space, w["F"]))
        for k in range(1, c.horizon + 1):
            t = power(sys.f, k)
            assert not (map_image(t, u) & e and map_image(t, v) & f)

    def test_true_wgm_certificates_replay(self, fixture_map, sweep):
        systems = [fx.system for fx in fixture_map.values()] + sweep
        replayed = 0
        for sys in systems:
            rep = ck.is_weakly_g_mixing(sys)
            if rep.verdict:
                for cert in rep.witness["certificates"]:
                    check_wgm_certificate(sys, cert)
                    replayed += 1
        assert replayed

    def test_nfold_one_equals_gt(self, fixture_map):
        for fx in fixture_map.values():
            rep = ck.is_n_fold_transitive(fx.system, 1)
            assert rep.verdict == fx.expected["gt"]
            assert rep.prop == "nfold:1"

    def test_nfold_two_equals_wgm(self, fixture_map):
        for fx in fixture_map.values():
            if fx.system.space.n ** 2 > 200:
                continue
            rep = ck.is_n_fold_transitive(fx.system, 2)
            assert rep.verdict == fx.expected["wgm"]

    def test_nfold_rejects_zero(self, fixture_map):
        with pytest.raises(ValidationError, match="n must be an int >= 1"):
            ck.is_n_fold_transitive(fixture_map["rot4"].system, 0)

    def test_nfold_witness_is_the_products_gt_witness(self, fixture_map):
        for name, fx in fixture_map.items():
            want = ck.is_g_transitive(nfold_system(fx.system, 2))
            rep = ck.is_n_fold_transitive(_fresh(fx.system), 2)
            assert rep.verdict == want.verdict, name
            assert repr(rep.witness) == repr(want.witness), name


class TestLongPeriod:
    def test_horizon_30030_decides_in_closed_form(self):
        # cycles 2, 3, 5, 7, 11, 13 on 41 points: p = 0, q = 30030.  Under
        # a transitive action every hit mask is the whole window, so all
        # five properties hold; tgt reads one exponent instead of looping
        # over every m and j
        start = time.perf_counter()
        sys = shifted_cycles((2, 3, 5, 7, 11, 13))
        c = sys.cache()
        assert (c.preperiod, c.period) == (0, 30030)
        for decide in _SCANS + (ck.is_g_minimal,):
            assert decide(sys).verdict, decide.__name__
        assert ck.is_strongly_g_mixing(sys).witness["threshold"] == 1
        assert "summary" in ck.is_totally_g_transitive(sys).witness
        assert time.perf_counter() - start < 10.0


class TestMinimality:
    def test_verdicts_on_fixtures(self, fixture_map):
        for fx in fixture_map.values():
            assert ck.is_g_minimal(fx.system).verdict == fx.expected["gm"]

    def test_sierpinski_gm_witness(self, fixture_map):
        rep = ck.is_g_minimal(fixture_map["sierpinski-id"].system)
        assert rep.witness == {"x": "b", "orbit_closure": ("b",)}

    def test_double_mod5_gm_witness(self, fixture_map):
        rep = ck.is_g_minimal(fixture_map["double-mod5"].system)
        assert rep.witness == {"x": "0", "orbit_closure": ("0",)}

    def test_g_transitive_points_sierpinski(self, fixture_map):
        assert ck.g_transitive_points(fixture_map["sierpinski-id"].system) == 0b01

    def test_minimal_sets_interval(self, fixture_map):
        sys = fixture_map["interval-tails"].system
        sets = ck.g_minimal_sets(sys)
        assert [sys.space.names(m) for m in sets] == [("-1",), ("0",), ("1",)]

    def test_minimal_sets_properties(self):
        # each reported core satisfies the definition, pairwise disjoint;
        # without orbit preservation the saturated orbit need not be
        # forward invariant and the list may be legitimately empty
        for sys in itertools.islice(enumerate_systems(3, ("Z2", "Z3")), 400):
            sets = ck.g_minimal_sets(sys)
            if sys.pseudoequivariant():
                assert sets
            for a in sets:
                assert sys.space.closure(a) == a
                assert map_image(sys.f, a) & ~a == 0
                assert sys.action.saturate(a) == a
            for a, b in itertools.combinations(sets, 2):
                assert a & b == 0

    def test_gm_iff_unique_full_minimal_set(self, fixture_map):
        for fx in fixture_map.values():
            sets = ck.g_minimal_sets(fx.system)
            assert (sets == [fx.system.space.full]) == fx.expected["gm"]

    def test_cover_trivial_space(self):
        assert ck.minimality_cover_criterion(_one_point_system())

    def test_cover_equals_gm_when_pseudoequivariant(self, fixture_map):
        for fx in fixture_map.values():
            if fx.system.pseudoequivariant():
                assert ck.minimality_cover_criterion(fx.system) == fx.expected["gm"]

    def test_quotient_minimality_z4(self, fixture_map):
        qm = ck.quotient_minimality(fixture_map["z4mod2"].system)
        assert qm == ck.QuotientMinimality(gm=True, induced_minimal=True)

    def test_quotient_minimality_interval(self, fixture_map):
        qm = ck.quotient_minimality(fixture_map["interval-tails"].system)
        assert qm == ck.QuotientMinimality(gm=False, induced_minimal=False)

    def test_quotient_minimality_requires_p1(self, fixture_map):
        with pytest.raises(PreconditionError, match="pseudoequivariant"):
            ck.quotient_minimality(fixture_map["skew3"].system)


class TestSgmCondition:
    def test_applies_and_confirms(self, fixture_map):
        for sys in (
            fixture_map["sierpinski-id"].system,
            fixture_map["z2swap-id"].system,
            _one_point_system(),
        ):
            cond = ck.sgm_sufficient_condition(sys)
            assert cond.applies
            assert cond.conclusion_checked is True

    def test_rot4_no_returning_neighbourhood(self, fixture_map):
        cond = ck.sgm_sufficient_condition(fixture_map["rot4"].system)
        assert not cond.applies
        assert "eventually returns" in cond.note
        assert cond.conclusion_checked is None

    def test_skew3_not_pseudoequivariant(self, fixture_map):
        cond = ck.sgm_sufficient_condition(fixture_map["skew3"].system)
        assert not cond.applies
        assert cond.note == "map is not pseudoequivariant"

    def test_double_mod5_not_transitive(self, fixture_map):
        cond = ck.sgm_sufficient_condition(fixture_map["double-mod5"].system)
        assert not cond.applies
        assert cond.note == "system is not transitive"

    def test_known_sgm_past_the_mask_bound(self, monkeypatch):
        # the prime cycles to 19 under Z77: sgm holds, so the condition
        # applies without the return test, which could not read its hit
        # masks past the bound
        built = _count_contexts(monkeypatch)
        sys = shifted_cycles((2, 3, 5, 7, 11, 13, 17, 19))
        cond = ck.sgm_sufficient_condition(sys)
        assert cond[:2] == (True, True)
        assert not built

    def test_sgm_false_past_the_mask_bound(self, monkeypatch):
        # a 2001-cycle on a discrete space under the trivial group is p1
        # and gt but not sgm, and its window of 2001 exponents on 2001
        # points passes the mask bound: the verdicts answer all the same
        n = 2001
        sys = GSystem(trivial_action(discrete_space(tuple(f"p{x}" for x in range(n)))),
                      tuple((x + 1) % n for x in range(n)))
        assert n * n > MaxTableEntries
        built = _count_contexts(monkeypatch)
        assert ck.sgm_sufficient_condition(sys) == (
            False, None, "no dense-orbit point whose neighbourhood eventually returns")
        assert not built

    def test_sound_on_sweep(self):
        # whenever the condition applies the conclusion holds
        applied = 0
        for sys in itertools.islice(enumerate_systems(3, ("Z2",)), 400):
            cond = ck.sgm_sufficient_condition(sys)
            if cond.applies:
                applied += 1
                assert cond.conclusion_checked is True
        assert applied > 0

    def test_outcomes_are_pinned(self, sweep):
        # the triples on the sweep, the suite's 400 generated systems and
        # every seventh labelled system on four points, in that order, with
        # how often each note occurs
        on_four = itertools.islice(
            enumerate_systems(4, ("Z1", "Z2", "Z3", "Z4", "Z2xZ2")), 0, None, 7)
        generated = (corpus.generate_robust(cfg) for cfg in corpus.suite_configs(400))
        digest, notes = hashlib.sha256(), collections.Counter()
        for sys in itertools.chain(sweep, generated, on_four):
            cond = ck.sgm_sufficient_condition(sys)
            digest.update(repr(tuple(cond)).encode())
            notes["applies" if cond.applies else cond.note] += 1
        assert notes == {
            "applies": 5680,
            "system is not transitive": 11_327,
            "no dense-orbit point whose neighbourhood eventually returns": 525,
            "map is not pseudoequivariant": 20_811,
        }
        assert digest.hexdigest() == (
            "d57ad23e9aea65388fd37d58e89922dc4241510386d23aaf88e977db7f24d776")


class TestProductMinimality:
    def test_minimal_pair(self, fixture_map):
        s = fixture_map["z2swap-id"].system
        pm = ck.product_minimality_criterion(s, s)
        assert pm == ck.ProductMinimality(product_minimal=True, criterion=True)

    def test_nonminimal_pair(self, fixture_map):
        s = fixture_map["rot4"].system
        pm = ck.product_minimality_criterion(s, s)
        assert pm == ck.ProductMinimality(product_minimal=False, criterion=False)

    def test_mixed_groups(self, fixture_map):
        s1 = fixture_map["z2swap-id"].system
        s2 = _one_point_system()
        pm = ck.product_minimality_criterion(s1, s2)
        assert pm.product_minimal == pm.criterion

    def test_product_bounded_before_it_is_built(self):
        # two 150-point cycles make 22,500 point pairs, past MaxCarrier:
        # the bound raises before any work
        sys = parse(cycles_text((150,)))
        start = time.perf_counter()
        with pytest.raises(LimitError,
                           match="product_minimality_criterion: 150\\^2 points exceeds"):
            ck.product_minimality_criterion(sys, sys)
        assert time.perf_counter() - start < 0.1

    def test_coprime_cycles(self):
        # cycles of 100 and 99 points make one product cycle of 9,900
        # points: one question per pair of saturations, not per point pair
        s1, s2 = parse(cycles_text((100,))), parse(cycles_text((99,)))
        start = time.perf_counter()
        pm = ck.product_minimality_criterion(s1, s2)
        assert time.perf_counter() - start < 2
        assert pm == ck.ProductMinimality(product_minimal=True, criterion=True)

    def test_no_product_tables(self):
        # Z256 x Z256 has 65,536^2 table entries, past MaxTableEntries; the
        # criterion reads the two factors only
        sys = parse(cycles_text((1,), group_order=256))
        start = time.perf_counter()
        pm = ck.product_minimality_criterion(sys, sys)
        assert time.perf_counter() - start < 0.1
        assert pm == ck.ProductMinimality(product_minimal=True, criterion=True)


class TestReturnSetVerdicts:
    # wgm and the product criterion decide through return sets
    # (``_returns`` and ``_meet``); their verdicts are pinned

    def test_wgm_on_four_points_is_pinned(self):
        # every labelled system on four points, one byte per verdict
        digest, count, true = hashlib.sha256(), 0, 0
        for sys in enumerate_systems(4, corpus.DefaultGroupPool):
            verdict = ck.Verdicts["wgm"](sys)
            digest.update(b"1" if verdict else b"0")
            count, true = count + 1, true + verdict
        assert (count, true) == (254_141, 94_999)
        assert digest.hexdigest() == (
            "e80f0dd12b91ed646ef876a90847faef1e1bede1b4a3f3cfd83ee0ddafab58bd")

    def test_product_criterion_on_sweep_pairs_is_pinned(self, sweep):
        # every seventh sweep system against every eleventh
        digest, outcomes = hashlib.sha256(), collections.Counter()
        for s1 in sweep[::7]:
            for s2 in sweep[::11]:
                pm = ck.product_minimality_criterion(s1, s2)
                digest.update(repr(tuple(pm)).encode())
                outcomes[pm] += 1
        assert sum(outcomes.values()) == 34_866 and len(outcomes) == 3
        assert digest.hexdigest() == (
            "28fdc2eea289c6412c88f856648aa7cbf7161835848a060faaa0732baf6d968a")


class TestPreconditionsAndReports:
    def test_flags(self, fixture_map):
        # the diagram's preconditions are verdicts of the property table
        for fx in fixture_map.values():
            row = ck.profile(fx.system, ("p1", "p2"))
            assert row == {"p1": fx.expected["p1"], "p2": fx.expected["p2"]}

    def test_profile_keys(self, fixture_map):
        sys = fixture_map["z4mod2"].system
        row = ck.profile(sys)
        assert list(row) == list(ck.Verdicts)
        assert all(type(v) is bool for v in row.values())
        for key, decide in _REPORTS.items():
            assert row[key] == decide(sys).verdict
        diagram = ck.profile(sys, ck.Diagram)
        assert list(diagram) == ["p1", "p2", "gt", "tgt", "wgm", "sgm", "gm"]
        assert diagram == {k: row[k] for k in ck.Diagram}
        assert ck.diagram_violations(diagram) == ()

    @pytest.mark.parametrize("props", [("bogus",), ("gt", "bogus"), ("sgm", 3)])
    def test_profile_rejects_an_unknown_property(self, fixture_map, props):
        with pytest.raises(ValidationError, match=f"profile: unknown property {props[-1]!r}"):
            ck.profile(fixture_map["rot4"].system, props)

    def test_profile_rejects_a_bare_string(self, fixture_map):
        # a string is an iterable of its letters, not a property name
        with pytest.raises(ValidationError,
                           match="profile: props must be names, not the string 'gt'"):
            ck.profile(fixture_map["rot4"].system, "gt")

    def test_three_point_census(self):
        # the diagram on every labelled system on three points: how often
        # each verdict pattern occurs, and no implication fails
        census = collections.Counter()
        for sys in enumerate_systems(3, corpus.DefaultGroupPool):
            row = ck.profile(sys, ck.Diagram)
            assert ck.diagram_violations(row) == ()
            census["".join("1" if v else "0" for v in row.values())] += 1
        assert sum(census.values()) == 3853 and len(census) == 11
        # the digits follow Diagram: p1, p2, gt, tgt, wgm, sgm, gm
        assert census == {
            "0000000": 540, "0100000": 90, "0110001": 120, "0111110": 150,
            "0111111": 644, "1000000": 1010, "1100000": 220, "1110000": 15,
            "1110001": 75, "1111110": 460, "1111111": 529,
        }

    def test_profile_consistent_everywhere(self, fixture_map):
        for fx in fixture_map.values():
            row = ck.profile(fx.system)
            assert ck.diagram_violations(row) == ()
            assert row == {k: fx.expected[k] for k in row}

    def test_diagram_violations_fabricated(self):
        row = {"p1": True, "p2": True, "gt": False, "tgt": True,
               "wgm": False, "sgm": True, "gm": True}
        out = ck.diagram_violations(row)
        assert "sgm->wgm" in out
        assert "tgt->gt" in out
        assert "tgt->wgm" in out
        assert "gm->gt" in out
        assert "p1&p2&tgt->wgm" in out
        assert "p1&wgm->tgt" not in out

    def test_suite_counts_the_diagram_antecedents(self):
        # the implication suite reads the diagram's table: its counts for
        # those names are the antecedents recounted from each profile
        configs = corpus.suite_configs(60, seed0=0)
        report = corpus.run_implication_suite(configs)
        want = dict.fromkeys((name for name, _, _ in ck.Implications), 0)
        for cfg in configs:
            row = ck.profile(corpus.generate_robust(cfg))
            want["sgm->wgm"] += row["sgm"]
            want["wgm->gt"] += row["wgm"]
            want["sgm->tgt"] += row["sgm"]
            want["tgt->gt"] += row["tgt"]
            want["tgt->wgm"] += row["tgt"]
            want["tgt->sgm"] += row["tgt"]
            want["gm->gt"] += row["gm"]
            want["p1&gt->p2"] += row["p1"] and row["gt"]
            want["p1&wgm->tgt"] += row["p1"] and row["wgm"]
            want["p1&p2&tgt->wgm"] += row["p1"] and row["p2"] and row["tgt"]
        assert report.ok and report.systems_checked == len(configs)
        assert {k: report.antecedents.get(k, 0) for k in want} == want
        assert want["tgt->wgm"] > 0

    def test_trivialized_z2swap_not_transitive(self, fixture_map):
        sys = trivialized(fixture_map["z2swap-id"].system)
        rep = ck.is_g_transitive(sys)
        assert not rep.verdict
        refute_pair(sys, rep.witness["U"], rep.witness["V"])


_SCANS = (ck.is_g_transitive, ck.is_totally_g_transitive,
          ck.is_weakly_g_mixing, ck.is_strongly_g_mixing)

# the properties whose table entry is a predicate, with their reports
_REPORTS = {"gt": ck.is_g_transitive, "tgt": ck.is_totally_g_transitive,
            "wgm": ck.is_weakly_g_mixing, "sgm": ck.is_strongly_g_mixing,
            "gm": ck.is_g_minimal}


class TestWitnesses:
    def test_sweep_witnesses_are_pinned(self, sweep):
        # sha256 over the concatenated reports of the four scans on every
        # sweep system, certificates included
        h = hashlib.sha256()
        for sys in sweep:
            for decide in _SCANS:
                r = decide(sys)
                h.update(repr((r.prop, r.verdict, sorted(dict(r.witness).items()))).encode())
        assert h.hexdigest() == (
            "5310ce20b233ca887035074e19f0080ba91dc2f6385026515bb646f331f2a5b6"
        )

    def test_sweep_and_suite_witnesses_replay(self, sweep, fixture_map):
        # every witness of the four scans on the sweep, the generated suite
        # systems, the fixtures and the test data files (the wgm&!tgt one)
        # holds against the definitions, replayed on tables composed
        # afresh: false witnesses by direct search past the horizon,
        # certificates element by element
        systems = sweep + list(generated_systems(corpus.suite_configs(200)))
        systems += [fx.system for fx in fixture_map.values()]
        systems += [parse(path.read_text()) for path in sorted(DATA.glob("*.gds"))]
        replayed = collections.Counter()
        for sys in systems:
            c, sp, sat = sys.cache(), sys.space, sys.action.saturate
            iterates = {}  # m -> the tables of (f^m)^j, j in [1, p+q]
            gt, tgt, wgm, sgm = (decide(sys) for decide in _SCANS)
            for rep in (gt, tgt, wgm, sgm):
                replayed[rep.prop, rep.verdict] += 1
            if not gt.verdict:
                refute_pair(sys, gt.witness["U"], gt.witness["V"])
            if not tgt.verdict:
                refute_pair(sys, tgt.witness["U"], tgt.witness["V"], m=tgt.witness["m"])
            if not wgm.verdict:
                w = wgm.witness
                u, v = mask(sp, w["U"]), mask(sp, w["V"])
                e, f = sat(mask(sp, w["E"])), sat(mask(sp, w["F"]))
                for k in range(1, c.horizon + 5):
                    t = power(sys.f, k)
                    assert not (map_image(t, u) & e and map_image(t, v) & f)
            if not sgm.verdict:
                w = sgm.witness
                u, v, k = mask(sp, w["U"]), sat(mask(sp, w["V"])), w["missing_exponent"]
                assert c.preperiod < k <= c.horizon
                for j in (k, k + c.period):
                    assert not map_image(power(sys.f, j), u) & v
            for rep in (gt, sgm):
                for cert in rep.witness.get("certificates", ()):
                    check_gt_certificate(sys, cert)
                    replayed["certificate", rep.prop] += 1
            for m, *cert in tgt.witness.get("certificates", ()):
                if m not in iterates:
                    t = power(sys.f, m)
                    iterates[m] = [t]
                    for _ in range(c.horizon - 1):
                        iterates[m].append(compose(t, iterates[m][-1]))
                assert power(sys.f, cert[2]) in iterates[m]
                check_gt_certificate(sys, cert)
                replayed["certificate", "tgt"] += 1
            for cert in wgm.witness.get("certificates", ()):
                check_wgm_certificate(sys, cert)
                replayed["certificate", "wgm"] += 1
        assert all(replayed[p, v] for p in ("gt", "tgt", "wgm", "sgm") for v in (False, True))
        assert all(replayed["certificate", p] for p in ("gt", "tgt", "wgm", "sgm"))

    def test_certificates_are_built_on_first_read(self, fixture_map, monkeypatch):
        images = []
        element = ck._Ctx.element

        def counted(self, u, k, v):
            images.append(k)
            return element(self, u, k, v)

        monkeypatch.setattr(ck._Ctx, "element", counted)
        sys = fixture_map["z2swap-id"].system
        reps = [decide(sys) for decide in _SCANS]
        assert all(r.verdict for r in reps)
        assert all("certificates" in r.witness for r in reps)
        assert all(list(r.witness)[-1] == "certificates" for r in reps)
        assert not images
        certs = reps[0].witness["certificates"]
        assert images and reps[0].witness["certificates"] is certs
        assert pickle.loads(pickle.dumps(reps[1])) == reps[1]


def _fresh(sys):
    """A copy of the system with no memos, on a copy of its action."""
    a = sys.action
    return GSystem._trusted(Action._trusted(a.group, a.space, a.act), sys.f)


def _read_reports(sys, scans):
    """prop -> (verdict, witness as a plain dict), certificates read."""
    out = {}
    for decide in scans:
        r = decide(sys)
        out[r.prop] = (r.verdict, dict(r.witness))
    return out


def _report_and_read(sys):
    """Every property, with every certificates entry read through the
    deciders."""
    ck.profile(sys)
    for decide in _SCANS:
        rep = decide(sys)
        if "certificates" in rep.witness:
            rep.witness["certificates"]


def _count_contexts(monkeypatch):
    """The systems that scan contexts are built on from here on, in order."""
    built = []
    init = ck._Ctx.__init__

    def counted(self, sys):
        built.append(sys)
        init(self, sys)

    monkeypatch.setattr(ck._Ctx, "__init__", counted)
    return built


def _count_report_parts(monkeypatch):
    """Counts, by name, the calls of what a report builds on a verdict."""
    calls = collections.Counter()
    for name in ("PropertyReport", "_pairs", "_witness", "_least_failing_iterate"):
        def counted(*args, _name=name, _fn=getattr(ck, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ck, name, counted)
    return calls


class TestScanContext:
    def test_profile_and_condition_build_no_context(self, fixture_map, monkeypatch):
        # neither a profile nor the sgm condition builds a context (both
        # read only verdicts), and only the p2 entry reads the G-periodic
        # points, once
        built, periodic_calls = _count_contexts(monkeypatch), []
        periodic = ck.gf_periodic_mask

        def counted_periodic(sys):
            periodic_calls.append(sys)
            return periodic(sys)

        monkeypatch.setattr(ck, "gf_periodic_mask", counted_periodic)
        for fx in fixture_map.values():
            sys = _fresh(fx.system)
            periodic_calls.clear()
            ck.profile(sys)
            assert not built and periodic_calls == [sys], fx.name
            ck.sgm_sufficient_condition(sys)
            ck.sgm_sufficient_condition(sys)
            assert not built and periodic_calls == [sys], fx.name

    def test_mining_computes_flags_once(self, fixture_map, monkeypatch):
        # the miner's p2 literal computes the G-periodic points once; the
        # later literals are predicates that do not read them
        calls = []
        periodic = ck.gf_periodic_mask

        def counted(sys):
            calls.append(sys)
            return periodic(sys)

        monkeypatch.setattr(ck, "gf_periodic_mask", counted)
        lits = corpus.parse_target("p2&gt&tgt")
        for fx in fixture_map.values():
            sys = _fresh(fx.system)
            calls.clear()
            corpus._matches(sys, lits)
            assert calls == [sys], fx.name

    def test_verdicts_build_no_report(self, fixture_map, sweep, monkeypatch):
        # the table's scan and minimality entries, and the miner's literals
        # on the two targets that exhaust, build no report, no walk of the
        # basis pairs for a witness, and no least failing iterate
        calls = _count_report_parts(monkeypatch)
        systems = [fx.system for fx in fixture_map.values()] + sweep
        for sys in systems:
            for name in _REPORTS:
                ck.Verdicts[name](_fresh(sys))
        assert not calls
        targets = [corpus.parse_target(t) for t in ("tgt&!wgm", "wgm&!sgm")]
        matched = [corpus._matches(_fresh(sys), lits) for sys in systems for lits in targets]
        assert not calls and not any(matched)

    def test_horizon_bounded(self):
        # horizon 9,699,690 on 77 points: the masks would take several GB.
        # The iterate cache is built; only the scan refuses the window
        sys = parse(cycles_text((2, 3, 5, 7, 11, 13, 17, 19)))
        assert sys.cache().period == 9_699_690
        with pytest.raises(LimitError, match="exponent window"):
            ck._Ctx(sys)

    def test_horizon_bound_is_exact(self):
        # LimitError iff (p+q) * |X| > MaxTableEntries: a 2000-cycle on
        # 2000 points sits on the bound, one more fixed point passes it
        def cycle(n):
            f = tuple((i + 1) % 2000 for i in range(2000)) + tuple(range(2000, n))
            return GSystem(trivial_action(discrete_space(tuple(map(str, range(n))))), f)

        ctx = ck._Ctx(cycle(2000))
        assert ctx.cache.horizon * 2000 == MaxTableEntries
        with pytest.raises(LimitError, match=r"\[1, 2000\] on 2001 points.*at most 1999 exponents"):
            ck._Ctx(cycle(2001))

    def test_scan_keeps_no_per_point_table(self):
        # an indiscrete 400-cycle has one basis open, which reaches every
        # point at 400 exponents: a memo of each point's exponent map would
        # keep 160,000 masks of 400 bits (about 19 MB); the one row needs
        # a few kB
        n = 400
        space = space_from_subbasis(tuple(map(str, range(n))), ())
        sys = GSystem(trivial_action(space), tuple((i + 1) % n for i in range(n)))
        tracemalloc.start()
        try:
            ctx = ck._Ctx(sys)
            assert ctx.basis == (space.full,) and ctx.row(space.full) == [ctx.window]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_gt_keeps_no_mask_table(self):
        # a discrete 400-cycle has 400 basis opens: the hit-mask table
        # would keep 160,000 masks of 400 bits; gt reads the one forward
        # orbit of the cycle
        n = 400
        space = discrete_space(tuple(map(str, range(n))))
        sys = GSystem(trivial_action(space), tuple((i + 1) % n for i in range(n)))
        tracemalloc.start()
        try:
            assert ck.is_g_transitive(sys).verdict
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_only_the_reports_build_a_context(self, fixture_map, sweep, monkeypatch):
        # every decide path reads the functional graph alone: the property
        # table, the sgm condition, the minimality functions, the suite and
        # the miner on the targets that exhaust run with no scan context
        def refused(self, sys):
            raise AssertionError("a scan context was built")

        monkeypatch.setattr(ck._Ctx, "__init__", refused)
        for sys in [fx.system for fx in fixture_map.values()] + sweep:
            sys = _fresh(sys)
            ck.profile(sys)
            ck.sgm_sufficient_condition(sys)
            if sys.pseudoequivariant():
                ck.quotient_minimality(sys)
            ck.minimality_cover_criterion(sys)
            ck.g_minimal_sets(sys)
            ck.product_minimality_criterion(sys, sys)
        assert corpus.run_implication_suite(corpus.suite_configs(60)).ok
        for target in ("tgt&!wgm", "wgm&!sgm"):
            assert not corpus.mine(target, seed=0, budget=200).found

    def test_gt_and_nfold_build_no_context(self, fixture_map, sweep, monkeypatch):
        # gt's table entry and report, and n-fold transitivity on the
        # product, decide and name a false witness without the scan
        # context; a true verdict builds it when its certificates are read
        built = _count_contexts(monkeypatch)
        falses = 0
        for sys in [fx.system for fx in fixture_map.values()] + sweep:
            sys = _fresh(sys)
            reps = [ck.is_g_transitive(sys), ck.is_n_fold_transitive(sys, 2)]
            assert ck.Verdicts["gt"](sys) is reps[0].verdict
            assert not built
            falses += not reps[1].verdict
        assert falses
        rep = ck.is_g_transitive(_fresh(fixture_map["z2swap-id"].system))
        assert rep.verdict and rep.witness["certificates"] and built

    def test_action_columns_are_shared(self, sweep):
        # the sweep's systems share 129 actions; each action's scan columns
        # are built once, and every row of a system that reads them equals
        # the row of a context built with the action's memo cleared
        actions = {id(sys.action): sys.action for sys in sweep}
        assert len(actions) == 129
        for a in actions.values():
            a._columns = None
        built = {}
        for sys in sweep:
            ctx = ck._Ctx(GSystem._trusted(sys.action, sys.f))
            columns = built.setdefault(id(sys.action), sys.action._columns)
            assert sys.action._columns is columns
            kept, sys.action._columns = columns, None
            cleared = ck._Ctx(GSystem._trusted(sys.action, sys.f))
            sys.action._columns = kept
            assert cleared.basis == ctx.basis
            for u in ctx.basis:
                assert ctx.row(u) == cleared.row(u)

    def test_action_memo_is_not_part_of_equality(self, fixture_map):
        for fx in fixture_map.values():
            a = fx.system.action
            ck._Ctx(GSystem._trusted(a, fx.system.f))
            b = Action._trusted(a.group, a.space, a.act)
            assert a._columns is not None and b._columns is None
            assert a == b and hash(a) == hash(b)
            assert GSystem._trusted(b, fx.system.f) == fx.system

    def test_memo_adds_no_cycle(self, fixture_map):
        # a system and the contexts its reports build are freed by
        # reference counting alone
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.garbage.clear()
            for fx in fixture_map.values():
                _report_and_read(_fresh(fx.system))
            gc.collect()
            kept = [o for o in gc.garbage if isinstance(o, (GSystem, ck._Ctx))]
            assert not kept
        finally:
            gc.garbage.clear()
            gc.set_debug(debug)
            if enabled:
                gc.enable()

    def test_verdicts_match_reports(self, sweep):
        # each table predicate and its report agree, each on a fresh system
        # so that neither reads a memo the other left
        generated = [corpus.generate_robust(cfg) for cfg in corpus.suite_configs(500)]
        falses = collections.Counter()
        for sys in sweep + generated:
            for name, decide in _REPORTS.items():
                verdict = ck.Verdicts[name](_fresh(sys))
                assert verdict is decide(_fresh(sys)).verdict, name
                falses[name] += not verdict
        assert all(0 < falses[name] < len(sweep) + 500 for name in _REPORTS)

    def test_decider_order_does_not_matter(self, fixture_map, sweep):
        # each report builds its own context, and what the memos of the
        # action and the iterate cache keep leaks into no later report:
        # on one system, the reports read in reverse after a forward pass
        # and in reverse first give the witnesses, certificates included,
        # of a forward pass and of a fresh copy
        data = [parse(path.read_text()) for path in sorted(DATA.glob("*.gds"))]
        for sys in [fx.system for fx in fixture_map.values()] + data + sweep:
            once = _fresh(sys)
            forward = _read_reports(once, _SCANS)
            assert _read_reports(once, _SCANS[::-1]) == forward
            reverse_first = _fresh(sys)
            assert _read_reports(reverse_first, _SCANS[::-1]) == forward
            assert _read_reports(reverse_first, _SCANS) == forward
            assert _read_reports(_fresh(sys), _SCANS) == forward

    def test_reach_matches_table_walk(self, sweep):
        systems = sweep + [nfold_system(s, 2) for s in sweep[::16][:100]]
        checked = 0
        for sys in systems:
            ctx = ck._Ctx(sys)
            tables = [sys.f]
            while len(tables) < sys.cache().horizon:
                tables.append(compose(sys.f, tables[-1]))
            for u in ctx.basis:
                want = {}
                for k, t in enumerate(tables, 1):
                    for x in bits(u):
                        want[t[x]] = want.get(t[x], 0) | 1 << k
                assert ctx.reach(u) == want
                checked += 1
        assert checked > len(systems)


def _zl_family(n):
    """Z_n on 2n points: minimal points m, c0 .. c(n-2), cycled by the
    generator; a top above each (c(n-1) above m, u_i above c_i), cycled
    alike; the map m -> c0, c_i -> c(i+1) (mod n), u_i -> c(i+1).  The
    cycle of c0 leaves the minimal points once per turn, at c(n-1)."""
    mins = ["m"] + [f"c{i}" for i in range(n - 1)]
    tops = [f"c{n - 1}"] + [f"u{i}" for i in range(n - 1)]
    points = mins + tops
    index = {p: i for i, p in enumerate(points)}
    space = space_from_subbasis(points, [[a] for a in mins] + list(zip(mins, tops)))
    act = tuple(
        tuple(index[ring[(ring.index(p) + g) % n]]
              for ring in (mins, tops) for p in ring)
        for g in range(n))
    image = {"m": "c0", **{f"c{i}": f"c{(i + 1) % n}" for i in range(n)},
             **{f"u{i}": f"c{i + 1}" for i in range(n - 1)}}
    return GSystem(Action(cyclic_group(n), space, act), tuple(index[image[p]] for p in points))


class TestFiniteDiagram:
    def test_tgt_iff_sgm(self, sweep):
        # tgt->sgm (module docstring) with sgm->tgt: sgm's own rule, every
        # atom's cycle lies inside Min, against the tgt rule that decides
        # both; the implication suite checks both on generated systems
        outcomes = collections.Counter()
        for sys in sweep:
            verdict = ck.Verdicts["tgt"](sys)
            assert sgm_by_cycles(sys) is verdict
            outcomes[verdict] += 1
        assert outcomes[True] and outcomes[False]

    def test_wgm_without_tgt(self):
        # the 6-point witness of tests/data is the family's L = 3 member
        sys = parse((DATA / "z3_wgm_not_tgt.gds").read_text())
        assert sys == _zl_family(3)
        corpus.verify_against_oracle(sys, corpus.parse_target("wgm&!tgt&!sgm&!p1"))

    @pytest.mark.parametrize("n, true_fold", [(3, 2), (4, 3), (5, 3)])
    def test_nfold_levels_are_strict(self, n, true_fold):
        sys = _zl_family(n)
        want = {"gt": True, "gm": True, "wgm": True,
                "tgt": False, "sgm": False, "p1": False, "cover": False}
        assert ck.profile(sys, want) == want
        ctx = oracle.OracleContext(sys)
        assert {k: oracle.Verdicts[k](sys, ctx) for k in want} == want
        assert ck.is_n_fold_transitive(sys, true_fold).verdict
        if n == 5:  # 10^4 points under a group of order 625
            with pytest.raises(LimitError, match="group of order 5\\^4"):
                ck.is_n_fold_transitive(sys, 4)
        else:
            assert not ck.is_n_fold_transitive(sys, true_fold + 1).verdict


def _rejects_every_map(action, lits):
    """Whether the literals rule out every map of the action, read from
    them and the action's atoms with no demand: a literal asks tgt, wgm
    or sgm to hold and Min is two or more orbits of atoms, or the
    literals ask two of them to differ and Min is X."""
    wants = {want for name, want in lits if name in ("tgt", "wgm", "sgm")}
    _, minimal, one_orbit = ck._atoms(action)
    return (True in wants and not one_orbit
            or len(wants) == 2 and minimal == action.space.full)


class TestMinimalPoints:
    @pytest.mark.parametrize("target, need", [
        ("tgt&!wgm", 2), ("wgm&!sgm", 2), ("gt&wgm&!tgt", 2), ("wgm&!sgm&gm", 2),
        ("wgm&!tgt&!sgm&!p1", 2), (" sgm & ! wgm ", 2),
        ("tgt", 1), ("tgt&!gm", 1), ("tgt&!gt", 1), ("wgm&!gm", 1), ("sgm&!p1", 1),
        ("sgm&!gm", 1), ("sgm&!gm&!p1", 1), ("tgt&cover&!gm", 1), ("tgt&!equivariant&!gm", 1),
        ("p2&gt&tgt", 1),
        ("gt&!tgt&!gm", 0), ("gm&!gt", 0), ("gt&!tgt", 0), ("!wgm&!sgm", 0), ("gm", 0),
        ("gt", 0), ("p1&!equivariant&gm", 0),
        ("p1&!equivariant&p2&gt&gm&!sgm&cover&!tgt&!wgm", 0)])
    def test_atom_demand(self, target, need):
        # 1 where a literal asks tgt, wgm or sgm to hold, 2 where two of
        # them are asked to differ, 0 where none is asked to hold
        assert ck.atom_demand(corpus.parse_target(target)) == need

    @pytest.mark.parametrize("target", ["tgt", "wgm&!gm", "sgm&!p1", "gt&!tgt", "!wgm&!sgm", "gm",
                                        "gt&wgm&!tgt", "wgm&!sgm&gm"])
    def test_a_rejected_action_admits_no_map(self, sweep, target):
        # an action is rejected only on a literal asking tgt, wgm or sgm to
        # hold, and on it the oracle finds the target false for the map
        lits = corpus.parse_target(target)
        asks = any(want and name in ("tgt", "wgm", "sgm") for name, want in lits)
        rejected = 0
        for sys in sweep:
            if not mine_admits(sys.action, lits):
                rejected += 1
                ctx = oracle.OracleContext(sys)
                assert not all(oracle.Verdicts[name](sys, ctx) is want for name, want in lits)
        assert bool(rejected) is asks

    @pytest.mark.parametrize("target", ["tgt", "gt&!tgt", "!wgm&!sgm", "gm", "tgt&!wgm",
                                        "wgm&!sgm", "gt&wgm&!tgt", "wgm&!sgm&gm"])
    def test_a_rejected_space_admits_no_action(self, target):
        # space_admits reads only the space and |G|: where it rejects, the
        # literals rule out every map of every action of the group there
        lits = corpus.parse_target(target)
        need = ck.atom_demand(lits)
        rejected = 0
        for action, _ in corpus._enumerate_actions(4, corpus.DefaultGroupPool):
            if not ck.space_admits(action.space.min_open, action.group.order, need):
                rejected += 1
                assert _rejects_every_map(action, lits)
        assert bool(rejected) is bool(need)

    @pytest.mark.parametrize("target", ["gt", "!wgm&!sgm", "tgt", "sgm&!p1", "tgt&!wgm",
                                        "gt&wgm&!tgt"])
    def test_demand_rejects_what_the_literals_rule_out(self, target):
        # on every action of the enumeration on at most four points over
        # the miner's groups, space_admits and then action_admits at the
        # target's demand reject exactly the actions on which the literals
        # rule out every map; at demand 1 or 2 each of them rejects some
        lits = corpus.parse_target(target)
        need = ck.atom_demand(lits)
        by_space = by_action = 0
        for action, _ in corpus._enumerate_actions(4, corpus.DefaultGroupPool):
            assert mine_admits(action, lits) is not _rejects_every_map(action, lits)
            if not ck.space_admits(action.space.min_open, action.group.order, need):
                by_space += 1
            elif not ck.action_admits(action, need):
                by_action += 1
        assert (bool(by_space), bool(by_action)) == (bool(need), bool(need))

    def test_atoms_that_cannot_form_one_orbit(self):
        # G permutes the k atoms, so one orbit of them needs k to divide |G|:
        # on every action of the enumeration on at most four points over the
        # miner's groups, space_admits rejects a target asking tgt to hold
        # exactly where it does not, and there Min is two or more orbits
        need = ck.atom_demand(corpus.parse_target("tgt"))
        rejected = 0
        for action, _ in corpus._enumerate_actions(4, corpus.DefaultGroupPool):
            mo, order = action.space.min_open, action.group.order
            k = len({m for m in mo if all(mo[y] == m for y in bits(m))})
            admits = ck.space_admits(mo, order, need)
            assert admits is not bool(order % k)
            if not admits:
                rejected += 1
                assert not ck._atoms(action)[2]
        assert rejected

    def test_every_point_minimal(self):
        # where the atoms cover X, f^e maps every atom into Min and every
        # return set is all of k >= 1, so tgt, wgm and sgm each equal the
        # one-orbit test on every map: by the checker on at most four
        # points (80,059 systems) and by the oracle on at most three (1,723)
        props = ("tgt", "wgm", "sgm")
        checked, by_oracle, orbits = 0, 0, set()
        for action, maps in corpus._enumerate_actions(4, corpus.DefaultGroupPool):
            _, minimal, one_orbit = ck._atoms(action)
            if minimal != action.space.full:
                continue
            orbits.add(one_orbit)
            for f, cache in maps:
                sys = GSystem._trusted(action, f, cache)
                checked += 1
                assert [ck.Verdicts[p](sys) for p in props] == [one_orbit] * 3
                if sys.space.n <= 3:
                    by_oracle += 1
                    ctx = oracle.OracleContext(sys)
                    assert [oracle.Verdicts[p](sys, ctx) for p in props] == [one_orbit] * 3
        assert (checked, by_oracle, orbits) == (80_059, 1_723, {False, True})

    def test_every_cycle_length_to_19(self):
        # 189 points under the trivial group, horizon 232,792,560: every
        # point is an atom of its own orbit, so Min is 189 orbits of atoms
        # and tgt, wgm and sgm are false without a hit mask; tgt's false
        # witness is gt's at m = 1, while those of wgm and sgm read the
        # masks and stop at the bound
        sys = parse(cycles_text(range(2, 20)))
        want = {"tgt": False, "wgm": False, "sgm": False}
        start = time.perf_counter()
        assert ck.profile(sys, want) == want
        assert time.perf_counter() - start < 1.0
        rep = ck.is_totally_g_transitive(sys)
        assert rep.witness == {"m": 1, "U": ("p0",), "V": ("p2",)}
        for decide in (ck.is_weakly_g_mixing, ck.is_strongly_g_mixing):
            with pytest.raises(LimitError, match="exponent window"):
                decide(sys)

    def test_transitive_shift_of_cycles(self):
        # cycles 2, 3, 5, 7, 11 and 13 under Z41, horizon 30,030: Min is
        # the carrier, one orbit of atoms, so every return set is all of
        # k >= 1 and the three properties hold
        sys = shifted_cycles((2, 3, 5, 7, 11, 13))
        assert sys.cache().horizon == 30_030
        start = time.perf_counter()
        reps = [decide(sys) for decide in _SCANS[1:]]
        assert time.perf_counter() - start < 1.0
        assert [r.verdict for r in reps] == [True, True, True]
        assert reps[2].witness["threshold"] == 1
        assert all("summary" in r.witness for r in reps)

    def test_certificates_past_the_mask_bound(self, monkeypatch):
        # the prime cycles to 19 under Z77 (77 points, horizon 9,699,690):
        # gt offers 77^2 certificates, which the scan context cannot build
        # past the mask bound, so its true verdict carries the summary;
        # tgt, wgm and sgm answer true, and no report tries a context
        sys = shifted_cycles((2, 3, 5, 7, 11, 13, 17, 19))
        with pytest.raises(LimitError, match="exponent window"):
            ck._Ctx(sys)
        built = _count_contexts(monkeypatch)
        gt = ck.is_g_transitive(sys)
        assert gt.verdict and gt.witness == {"summary": "5929 basis pairs verified"}
        assert "summary" in repr(gt)
        reps = [decide(sys) for decide in _SCANS[1:]]
        assert [r.verdict for r in reps] == [True, True, True]
        assert all("summary" in r.witness for r in reps)
        assert not built
