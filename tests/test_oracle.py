import collections
import itertools
import random

import pytest

from conftest import generated_systems, gf_orbit, opens
from gdyn import checkers as ck
from gdyn import oracle as orc
from gdyn.algebra import trivial_action
from gdyn.corpus import enumerate_systems, suite_configs
from gdyn.dynamics import GSystem
from gdyn.errors import LimitError, PreconditionError
from gdyn.sysfile import serialize
from gdyn.topology import discrete_space


class TestOracleContext:
    def test_opens_match_space_enumeration(self, fixture_map):
        for fx in fixture_map.values():
            ctx = orc.OracleContext(fx.system)
            assert ctx.opens == opens(fx.system.space)
            assert 0 in ctx.opens
            assert fx.system.space.full in ctx.opens

    def test_point_limit(self):
        sp = discrete_space(tuple(str(i) for i in range(17)))
        sys = GSystem(trivial_action(sp), tuple(range(17)))
        with pytest.raises(LimitError, match="17"):
            orc.OracleContext(sys)

    def test_power_tables_rotation(self):
        tables = orc._power_tables((1, 2, 3, 0))
        assert len(tables) == 4
        assert tables[0] == (1, 2, 3, 0)
        assert tables[3] == (0, 1, 2, 3)
        assert orc._cycle_start((1, 2, 3, 0), tables) == 0

    def test_power_tables_constant(self):
        tables = orc._power_tables((0, 0, 0))
        assert tables == [(0, 0, 0)]
        assert orc._cycle_start((0, 0, 0), tables) == 0

    def test_power_tables_transient(self):
        # f^5 = f^2, so the distinct tables are f^1..f^4 and the cycle
        # re-enters at index 1
        f = (1, 2, 3, 4, 2)
        tables = orc._power_tables(f)
        assert len(tables) == 4
        assert orc._cycle_start(f, tables) == 1
        assert tables[1] == tuple(tables[0][v] for v in f)

    def test_definitional_closure(self, fixture_map):
        rng = random.Random(7)
        for fx in fixture_map.values():
            sys = fx.system
            ctx = orc.OracleContext(sys)
            for _ in range(25):
                a = rng.randrange(1 << sys.space.n)
                assert ctx.closure(a) == sys.space.closure(a)

    def test_sat_orbit_is_gf_orbit(self, fixture_map):
        for fx in fixture_map.values():
            sys = fx.system
            ctx = orc.OracleContext(sys)
            for x in range(sys.space.n):
                assert ctx.sat_orbit(x) == gf_orbit(sys, x)


class TestOracleAgreement:
    def test_fixtures_all_properties(self, fixture_map):
        for fx in fixture_map.values():
            sys = fx.system
            ctx = orc.OracleContext(sys)
            assert orc.oracle_continuous(sys)
            assert orc.oracle_gt(sys, ctx) == ck.is_g_transitive(sys).verdict
            assert orc.oracle_tgt(sys, ctx) == ck.is_totally_g_transitive(sys).verdict
            assert orc.oracle_wgm(sys, ctx) == ck.is_weakly_g_mixing(sys).verdict
            assert orc.oracle_sgm(sys, ctx) == ck.is_strongly_g_mixing(sys).verdict
            assert orc.oracle_gm(sys, ctx) == ck.is_g_minimal(sys).verdict
            assert orc.oracle_minimal_sets(sys, ctx) == ck.g_minimal_sets(sys)
            assert orc.oracle_cover(sys, ctx) == ck.minimality_cover_criterion(sys)

    def test_table_matches_checkers(self):
        assert list(orc.Verdicts) == list(ck.Verdicts)

    def test_quotient_minimal_fixtures(self, fixture_map):
        for fx in fixture_map.values():
            sys = fx.system
            if not sys.pseudoequivariant():
                continue
            qm = ck.quotient_minimality(sys)
            assert orc.oracle_quotient_minimal(sys) == qm.induced_minimal

    def test_quotient_minimal_sweep(self, sweep):
        # every pseudoequivariant system on up to three points over Z1, Z2
        # and Z3, and of the generated systems (at most six points),
        # against the checkers: the oracle builds the orbit space, and
        # is the only independent check of ``induced_minimal``
        outcomes = collections.Counter()
        for sys in itertools.chain(sweep, generated_systems(suite_configs(400))):
            if sys.pseudoequivariant():
                want = ck.quotient_minimality(sys).induced_minimal
                assert orc.oracle_quotient_minimal(sys) == want, serialize(sys)
                outcomes[want] += 1
        assert outcomes[True] and outcomes[False]
        assert sum(outcomes.values()) == 1261 + 332

    def test_quotient_minimal_requires_p1(self, fixture_map):
        with pytest.raises(PreconditionError, match="not pseudoequivariant"):
            orc.oracle_quotient_minimal(fixture_map["skew3"].system)

    def test_exhaustive_small_sweep(self):
        for sys in itertools.islice(enumerate_systems(3, ("Z2", "Z3")), 250):
            ctx = orc.OracleContext(sys)
            want = {name: fn(sys, ctx) for name, fn in orc.Verdicts.items()}
            assert ck.profile(sys) == want, serialize(sys)
