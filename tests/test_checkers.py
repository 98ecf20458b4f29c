import gc
import hashlib
import itertools
import pickle

import pytest

from gdyn import checkers as ck
from gdyn import corpus, dynamics
from gdyn.algebra import trivial_action
from gdyn.bitsets import bits
from gdyn.corpus import enumerate_systems
from gdyn.dynamics import GSystem, nfold_system, trivialized
from gdyn.errors import PreconditionError
from gdyn.topology import compose, discrete_space, map_image
from tests.conftest import refute_pair


def _one_point_system():
    return GSystem(trivial_action(discrete_space(("x",))), (0,))


def _iterate(sys, k):
    """The table of f^k, composed afresh."""
    t = sys.f
    for _ in range(k - 1):
        t = compose(sys.f, t)
    return t


def _check_gt_certificate(sys, cert):
    u_names, v_names, k, g_name = cert
    u = sys.space.mask(u_names)
    v = sys.space.mask(v_names)
    t = _iterate(sys, k)
    g = sys.group.index[g_name]
    assert sys.action.translate(g, map_image(t, u)) & v


def _check_wgm_certificate(sys, cert):
    u_names, v_names, e_names, f_names, k, g1_name, g2_name = cert
    t = _iterate(sys, k)
    img_u = map_image(t, sys.space.mask(u_names))
    img_v = map_image(t, sys.space.mask(v_names))
    g1 = sys.group.index[g1_name]
    g2 = sys.group.index[g2_name]
    assert sys.action.translate(g1, img_u) & sys.space.mask(e_names)
    assert sys.action.translate(g2, img_v) & sys.space.mask(f_names)


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
                _check_gt_certificate(sys, cert)

    def test_true_tgt_certificates_replay(self, fixture_map):
        sys = fixture_map["z2swap-id"].system
        rep = ck.is_totally_g_transitive(sys)
        assert rep.verdict
        for m, u_names, v_names, k, g_name in rep.witness["certificates"]:
            _check_gt_certificate(sys, (u_names, v_names, k, g_name))

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
        u = sys.space.mask(rep.witness["U"])
        v = sys.space.mask(rep.witness["V"])
        k = rep.witness["missing_exponent"]
        img = map_image(sys.cache().powers[k - 1], u)
        assert not (img & sys.action.saturate(v))
        assert k in sys.cache().cycle_exponents()

    def test_sgm_true_witness_replay(self, fixture_map):
        sys = fixture_map["z2swap-id"].system
        rep = ck.is_strongly_g_mixing(sys)
        assert rep.verdict
        assert rep.witness["threshold"] == 1
        for u_names, v_names, k, g_name in rep.witness["certificates"]:
            _check_gt_certificate(sys, (u_names, v_names, k, g_name))

    def test_wgm_witness_pair_fails_jointly(self, fixture_map):
        # the reported 4-tuple admits no single exponent serving both pairs
        sys = fixture_map["rot4"].system
        w = ck.is_weakly_g_mixing(sys).witness
        c = sys.cache()
        u = sys.space.mask(w["U"])
        v = sys.space.mask(w["V"])
        e = sys.action.saturate(sys.space.mask(w["E"]))
        f = sys.action.saturate(sys.space.mask(w["F"]))
        for k in range(1, c.horizon + 1):
            t = c.powers[k - 1]
            assert not (map_image(t, u) & e and map_image(t, v) & f)

    def test_true_wgm_certificates_replay(self, fixture_map, sweep):
        systems = [fx.system for fx in fixture_map.values()] + sweep
        replayed = 0
        for sys in systems:
            rep = ck.is_weakly_g_mixing(sys)
            if rep.verdict:
                for cert in rep.witness["certificates"]:
                    _check_wgm_certificate(sys, cert)
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
        with pytest.raises(PreconditionError):
            ck.is_n_fold_transitive(fixture_map["rot4"].system, 0)


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

    def test_sound_on_sweep(self):
        # whenever the condition applies the conclusion holds
        applied = 0
        for sys in itertools.islice(enumerate_systems(3, ("Z2",)), 400):
            cond = ck.sgm_sufficient_condition(sys)
            if cond.applies:
                applied += 1
                assert cond.conclusion_checked is True
        assert applied > 0


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


class TestPreconditionsAndReports:
    def test_flags(self, fixture_map):
        for fx in fixture_map.values():
            flags = ck.precondition_flags(fx.system)
            assert flags.pseudoequivariant == fx.expected["p1"]
            assert flags.dense_gf_periodic == fx.expected["p2"]

    def test_profile_keys(self, fixture_map):
        sys = fixture_map["z4mod2"].system
        row = ck.profile(sys)
        assert list(row) == list(ck.Verdicts)
        assert all(type(v) is bool for v in row.values())
        decided = {"gt": ck.is_g_transitive, "tgt": ck.is_totally_g_transitive,
                   "wgm": ck.is_weakly_g_mixing, "sgm": ck.is_strongly_g_mixing,
                   "gm": ck.is_g_minimal}
        for key, decide in decided.items():
            assert row[key] == decide(sys).verdict
        diagram = ck.profile(sys, ck.Diagram)
        assert list(diagram) == ["p1", "p2", "gt", "tgt", "wgm", "sgm", "gm"]
        assert diagram == {k: row[k] for k in ck.Diagram}
        assert ck.diagram_violations(diagram) == ()

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
        assert "gm->gt" in out
        assert "p1&p2&tgt->wgm" in out

    def test_trivialized_z2swap_not_transitive(self, fixture_map):
        sys = trivialized(fixture_map["z2swap-id"].system)
        rep = ck.is_g_transitive(sys)
        assert not rep.verdict
        refute_pair(sys, rep.witness["U"], rep.witness["V"])


_SCANS = (ck.is_g_transitive, ck.is_totally_g_transitive,
          ck.is_weakly_g_mixing, ck.is_strongly_g_mixing)


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

    def test_certificates_are_built_on_first_read(self, fixture_map, monkeypatch):
        images = []
        img = ck._Ctx.img

        def counted(self, u, k):
            images.append(k)
            return img(self, u, k)

        monkeypatch.setattr(ck._Ctx, "img", counted)
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
    """A copy of the system with no memos."""
    return GSystem._trusted(sys.action, sys.f)


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


class TestScanContext:
    def test_one_context_per_system(self, fixture_map, monkeypatch):
        # the context and the precondition flags are memoised on the
        # system: a report and the sgm condition build each once
        calls = {"ctx": 0, "periodic": 0}
        init, periodic = ck._Ctx.__init__, ck.gf_periodic_mask

        def counted_init(self, sys):
            calls["ctx"] += 1
            init(self, sys)

        def counted_periodic(sys):
            calls["periodic"] += 1
            return periodic(sys)

        monkeypatch.setattr(ck._Ctx, "__init__", counted_init)
        monkeypatch.setattr(ck, "gf_periodic_mask", counted_periodic)
        for fx in fixture_map.values():
            sys = _fresh(fx.system)
            calls.update(ctx=0, periodic=0)
            ck.profile(sys)
            ck.sgm_sufficient_condition(sys)
            assert calls == {"ctx": 1, "periodic": 1}, fx.name

    def test_mining_computes_flags_once(self, fixture_map, monkeypatch):
        # the miner's p2 literal reads the memoised precondition flags,
        # which the deciders of the later literals read again
        calls = []
        periodic = dynamics.gf_periodic_points

        def counted(sys):
            calls.append(sys)
            return periodic(sys)

        monkeypatch.setattr(dynamics, "gf_periodic_points", counted)
        lits = corpus.parse_target("p2&gt&tgt")
        for fx in fixture_map.values():
            sys = _fresh(fx.system)
            calls.clear()
            corpus._matches(sys, lits)
            assert calls == [sys], fx.name

    def test_memo_adds_no_cycle(self, fixture_map):
        # a system and its context are freed by reference counting alone
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

    def test_decider_order_does_not_matter(self, sweep):
        for sys in sweep:
            forward = _read_reports(_fresh(sys), _SCANS)
            assert _read_reports(_fresh(sys), _SCANS[::-1]) == forward

    def test_reach_matches_table_walk(self, sweep):
        systems = sweep + [nfold_system(s, 2) for s in sweep[::16][:100]]
        checked = 0
        for sys in systems:
            ctx = ck._scan(sys)
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
