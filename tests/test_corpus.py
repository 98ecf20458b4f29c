import _random
import functools
import hashlib
import itertools
import random
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdyn import checkers as ck
from gdyn import corpus
from gdyn.dynamics import IterateCache
from gdyn.errors import GenerationError, ValidationError
from gdyn.sysfile import serialize
from tests.conftest import mine_admits


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

    def test_a_wrong_table_is_refused(self, monkeypatch):
        load = corpus._load_fixture

        def flipped(name):
            fx = load(name)
            wrong = {**fx.expected, "tgt": not fx.expected["tgt"]}
            return corpus.Fixture(fx.name, fx.system, wrong, fx.note)

        monkeypatch.setattr(corpus, "_load_fixture", flipped)
        with pytest.raises(RuntimeError,
                           match="internal: fixture disc2-swap: tgt is False, expected True"):
            corpus.fixtures(verify=True)
        assert len(corpus.fixtures(verify=False)) == 10

    def test_fixtures_are_pinned(self):
        # every fixture's name, system, table and note, in order: the
        # benchmark's cli workload rotates its commands by position
        digest = hashlib.sha256()
        for fx in corpus.fixtures(verify=False):
            digest.update(f"{fx.name}\n{serialize(fx.system)}"
                          f"{sorted(fx.expected.items())!r}\n{fx.note}\n".encode())
        assert digest.hexdigest() == (
            "220bbe4c6699a4369ed884ab0b2d7ccc1b1631cd392ddc77bc2a534412f596ab")


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

    def test_generation_is_pinned(self):
        # sha256 over the serialized systems of a fixed config list, a
        # failure hashed as b"GenerationError"
        configs = [
            corpus.GeneratorConfig(seed=i, max_points=2 + i % 4,
                                   groups=(corpus.DefaultGroupPool[i % 5],),
                                   mode=("discrete", "preorder")[i % 2])
            for i in range(2000)
        ] + corpus.suite_configs(600, seed0=0)
        h = hashlib.sha256()
        for cfg in configs:
            try:
                h.update(serialize(corpus.generate(cfg)).encode())
            except GenerationError:
                h.update(b"GenerationError")
        assert h.hexdigest() == (
            "96fc0e19ff227baa3fc354c8d79093069abc24d9cb2e7d2bb0be8048038aa652"
        )

    def test_memo_bound_keeps_the_digest(self, monkeypatch):
        # with room for one entry the generator memos evict on almost every
        # draw, and every system must come out the same
        for name in ("_autos", "_drawn_action"):
            memo = functools.lru_cache(maxsize=1)(getattr(corpus, name).__wrapped__)
            monkeypatch.setattr(corpus, name, memo)
        self.test_generation_is_pinned()
        assert corpus._autos.cache_info().currsize == 1
        assert corpus._drawn_action.cache_info().currsize == 1

    def test_equal_draws_share_one_action(self):
        for mode in ("discrete", "preorder"):
            cfg = corpus.GeneratorConfig(seed=42, max_points=5, groups=("Z2",), mode=mode)
            assert corpus.generate(cfg).action is corpus.generate(cfg).action

    def test_sweep_and_generator_share_actions(self):
        # a generated action on at most three points over Z1..Z3 is the
        # sweep's action for the same group, space and draw
        made = [corpus.generate(corpus.GeneratorConfig(seed=s, max_points=3, groups=(g,),
                                                       mode=mode))
                for s in range(20) for g in ("Z1", "Z2", "Z3")
                for mode in ("discrete", "preorder")]
        swept = {(sys.group.name, sys.space.min_open, sys.action.act): sys.action
                 for sys in corpus.enumerate_systems()}
        for sys in made:
            assert swept[(sys.group.name, sys.space.min_open, sys.action.act)] is sys.action
        assert len({id(sys.action) for sys in made}) > 20

    def test_a_key_read_in_a_full_memo_survives_the_next_insertion(self):
        # the memo evicts its least recently used entry, not everything
        memo = corpus._drawn_action
        memo.cache_clear()
        spaces = itertools.islice(corpus.all_spaces(5), corpus.MemoEntries + 1)
        keys = [("Z2", space.min_open, None) for space in spaces]
        for key in keys[:-1]:
            memo(*key)
        assert memo.cache_info().currsize == corpus.MemoEntries
        first = memo(*keys[0])
        memo(*keys[-1])
        try:
            assert memo(*keys[0]) is first
        finally:
            memo.cache_clear()

    @pytest.mark.parametrize("target, kwargs", [
        ("tgt&!wgm", {"seed": 3, "budget": 400}),
        ("gt", {"seed": 0, "budget": 3000, "sweep": False}),
    ])
    def test_memo_state_does_not_change_a_result(self, target, kwargs):
        def outcome(res):
            system = None if res.system is None else serialize(res.system)
            return res.found, res.phase, res.detail, dict(res.record), system

        corpus._autos.cache_clear()
        corpus._drawn_action.cache_clear()
        cold = outcome(corpus.mine(target, **kwargs))
        assert corpus._drawn_action.cache_info().currsize
        assert outcome(corpus.mine(target, **kwargs)) == cold

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(corpus, "MapAttempts", 0)
        cfg = corpus.GeneratorConfig(seed=0, max_points=5, pseudoequivariant_only=True)
        with pytest.raises(GenerationError, match="within 0 attempts"):
            corpus.generate(cfg)


# sizes for the draw helper: small ones, every power of two up to 2**62
# (where about half of the k-bit draws are redrawn), and any size up to
# the 2**62 of the miner's seed draws
_DrawSizes = st.one_of(
    st.integers(1, 100),
    st.integers(0, 62).map(lambda k: 1 << k),
    st.integers(1, 1 << 62),
)


class TestDrawHelper:
    # the generator draws through corpus._below; it must make the draws
    # random.Random makes, from the same stream, on every supported Python
    @given(seed=st.integers(0, 1 << 64), n=_DrawSizes)
    @example(seed=0, n=1)
    @example(seed=0, n=1 << 62)
    @settings(max_examples=300, deadline=None)
    def test_below_draws_as_random(self, seed, n):
        want, got = random.Random(seed), random.Random(seed)
        draw = got.getrandbits
        assert corpus._below(draw, n) == want.randrange(n)
        assert 3 + corpus._below(draw, n) == want.randint(3, n + 2)
        assert range(n)[corpus._below(draw, n)] == want.choice(range(n))
        items = [f"i{j}" for j in range(n if n <= 64 else n % 65)]
        shuffled = items[:]
        want.shuffle(shuffled)
        assert [items[j] for j in corpus._permutation(draw, len(items))] == shuffled
        assert got.getstate() == want.getstate()

    @given(seed=st.integers(0, 1 << 64), n=st.integers(1, 70))
    @example(seed=0, n=1)
    @example(seed=0, n=64)
    @settings(max_examples=300, deadline=None)
    def test_table_draws_as_random(self, seed, n):
        want, got = random.Random(seed), random.Random(seed)
        assert corpus._draw_table(got.getrandbits, n) == tuple(
            [want.randrange(n) for _ in range(n)])
        assert got.getstate() == want.getstate()

    @given(seed=st.integers(0, 1 << 64), trial_seed=st.integers(-(1 << 70), 1 << 70))
    @example(seed=0, trial_seed=0)
    @example(seed=0, trial_seed=(1 << 62) - 1)
    @settings(max_examples=300, deadline=None)
    def test_reseed_as_random(self, seed, trial_seed):
        # the miner reseeds its trial generator through the C-level seed;
        # it must leave the state Random.seed leaves, after draws that do
        # not touch the gauss state
        want, got = random.Random(seed), random.Random(seed)
        for rng in (want, got):
            rng.getrandbits(40)
            rng.random()
        want.seed(trial_seed)
        _random.Random.seed(got, trial_seed)
        assert got.getstate() == want.getstate()
        assert [got.getrandbits(62), got.random()] == [want.getrandbits(62), want.random()]


class TestBadInputs:
    @pytest.mark.parametrize("kwargs, match", [
        ({"groups": ()}, "group pool is empty"),
        ({"groups": ("Z2", "Q8")}, "unknown group"),
        ({"max_points": 3.0}, "max_points"),
        ({"max_points": "3"}, "max_points"),
        ({"max_points": True}, "max_points"),
        ({"max_points": 0}, "max_points"),
        ({"max_points": corpus.GeneratorMaxPoints + 1}, "max_points"),
        ({"mode": "metric"}, "unknown mode"),
        # a string is not a pool of one group: "Z2" is not ("Z", "2")
        ({"groups": "Z2"}, "tuple of names"),
    ])
    def test_generate_rejects(self, kwargs, match):
        cfg = corpus.GeneratorConfig(seed=0, **kwargs)
        with pytest.raises(ValidationError, match=match):
            corpus.generate(cfg)
        with pytest.raises(ValidationError, match=match):
            corpus.generate_robust(cfg)

    def test_enumerate_rejects_an_unknown_group(self):
        with pytest.raises(ValidationError, match="unknown group 'Q8'"):
            next(corpus.enumerate_systems(group_names=("Z2", "Q8")))

    def test_enumerate_rejects_an_empty_pool(self):
        with pytest.raises(ValidationError, match="enumerate: the group pool is empty"):
            next(corpus.enumerate_systems(2, ()))

    def test_enumerate_rejects_a_string(self):
        with pytest.raises(ValidationError, match="tuple of names"):
            next(corpus.enumerate_systems(2, "Z2"))

    @pytest.mark.parametrize("budget", [2.5, "10", None, True])
    def test_mine_rejects_a_non_integer_budget(self, budget):
        with pytest.raises(ValidationError, match="budget"):
            corpus.mine("gt", budget=budget, sweep=False)

    # random.Random drops a seed's sign, so a negative seed would replay the
    # stream of its absolute value under a record that names another seed
    @pytest.mark.parametrize("seed", [-1, -7, 1.5, "x", None, True])
    def test_generate_rejects_a_bad_seed(self, seed):
        cfg = corpus.GeneratorConfig(seed=seed)
        with pytest.raises(ValidationError, match="seed must be an int >= 0"):
            corpus.generate(cfg)
        with pytest.raises(ValidationError, match="seed must be an int >= 0"):
            corpus.generate_robust(cfg)

    @pytest.mark.parametrize("trials", [-1, 2.5, "3", None, True])
    def test_suite_configs_rejects_a_bad_count(self, trials):
        with pytest.raises(ValidationError, match="suite: trials must be an int >= 0"):
            corpus.suite_configs(trials)

    @pytest.mark.parametrize("seed", [-1, -3, 1.5, "x", None, True])
    def test_mine_rejects_a_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed must be an int >= 0"):
            corpus.mine("gt", seed=seed, budget=10, sweep=False)

    @pytest.mark.parametrize("seed0", [-1, 1.5, "0", True])
    def test_suite_configs_rejects_a_bad_seed(self, seed0):
        with pytest.raises(ValidationError, match="seed0 must be an int >= 0"):
            corpus.suite_configs(3, seed0=seed0)

    @pytest.mark.parametrize("max_points", [2.5, True, 0, "3", None])
    def test_enumerate_rejects_a_bad_size(self, max_points):
        with pytest.raises(ValidationError, match="max_points must be an int >= 1"):
            next(corpus.enumerate_systems(max_points))

    # checked on the call, not at the first system drawn
    @pytest.mark.parametrize("max_points", [0, -1, True])
    def test_enumerate_rejects_a_bad_size_on_the_call(self, max_points):
        with pytest.raises(ValidationError, match="max_points must be an int >= 1"):
            corpus.enumerate_systems(max_points)

    # the public Space refuses an empty carrier, so no zero-point space is
    # enumerated either
    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_all_spaces_rejects_a_bad_size(self, n):
        with pytest.raises(ValidationError, match="n must be an int >= 1"):
            corpus.all_spaces(n)

    @pytest.mark.parametrize("target", [123, None, ("gt",)])
    def test_parse_target_rejects_a_non_string(self, target):
        with pytest.raises(ValidationError, match="target: expected a string"):
            corpus.parse_target(target)

    def test_mine_rejects_a_non_string_target(self):
        with pytest.raises(ValidationError, match="target: expected a string"):
            corpus.mine(None)


class TestEnumeration:
    def test_space_counts(self):
        # labeled topologies on n points
        assert [sum(1 for _ in corpus.all_spaces(n)) for n in range(1, 5)] == [
            1, 4, 29, 355,
        ]

    def test_system_count(self):
        # the miner's sweep, read from the bounds that its random phase
        # also skips by
        swept = corpus.enumerate_systems(corpus.SweepPoints, corpus.SweepGroups)
        assert sum(1 for _ in swept) == 1637

    def test_systems_with_one_map_share_its_cache(self, sweep):
        # one iterate cache per map table, equal to a fresh walk of it
        for sys in sweep:
            want, got = IterateCache(sys.f), sys.cache()
            assert (got.f, got.depth, got.length, got.fwd) == (
                want.f, want.depth, want.length, want.fwd)
            assert (got.preperiod, got.period) == (want.preperiod, want.period)
        assert len({id(sys.cache()) for sys in sweep}) == len({sys.f for sys in sweep}) == 32

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
    # the sweep decides no map of an action that mine_admits rejects, and
    # counts it; it must find, name and count what deciding every system
    # finds (the three targets that exhaust, and finds at sweep indices
    # 445, 364 and 20)
    @pytest.mark.parametrize("target", ["tgt&!wgm", "wgm&!sgm", "gt&wgm&!tgt", "tgt&cover&!gm",
                                        "sgm&!gm&!p1", "wgm&!gm"])
    def test_sweep_matches_every_system(self, target, sweep, monkeypatch):
        lits = corpus.parse_target(target)
        index = next((i for i, sys in enumerate(sweep) if _holds(sys, lits)), None)
        checked = len(sweep) if index is None else index + 1
        decided = []
        matches = corpus._matches
        monkeypatch.setattr(corpus, "_matches",
                            lambda sys, lits: decided.append(sys) or matches(sys, lits))
        res = corpus.mine(target, budget=0)
        assert dict(res.record) == {"target": target, "seed": 0, "budget": 0,
                                    "sweep_checked": checked, "random_trials": 0}
        if index is None:
            assert (res.found, res.system, res.detail) == (False, None, "exhausted")
        else:
            assert res.detail == f"sweep index {index}"
            assert serialize(res.system) == serialize(sweep[index])
        assert decided == [sys for sys in sweep[:checked] if mine_admits(sys.action, lits)]
        assert len(decided) < checked

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


def _key(sys):
    return (sys.group.name, sys.space.min_open, sys.action.act, sys.f)


def _mine_every_trial(target, seed, budget, swept=frozenset()):
    """``mine``'s random phase with no system skipped: (system, detail,
    trials, distinct systems decided).  ``mine`` decides a system only
    where ``mine_admits`` leaves the target possible on its action and,
    after an exhausted sweep, only where the sweep has not decided it, so
    only those systems are counted: swept holds the keys of the sweep's
    systems.  The trials that ``mine`` stops at their space draw no
    action, but ``mine_admits`` rejects every action on such a space, so
    they are not counted here either.  Every trial is still decided
    here."""
    lits = corpus.parse_target(target)
    rng = random.Random(seed)
    pool, modes = corpus.DefaultGroupPool, ("discrete", "preorder")
    keys = set()
    for t in range(budget):
        cfg = corpus.GeneratorConfig(seed=rng.randrange(1 << 62), max_points=rng.randint(2, 5),
                                     groups=(pool[t % len(pool)],), mode=modes[t % 2])
        try:
            sys = corpus.generate(cfg)
        except GenerationError:
            continue
        if mine_admits(sys.action, lits) and _key(sys) not in swept:
            keys.add(_key(sys))
        if _holds(sys, lits):
            return sys, f"seed {seed} trial {t}", t + 1, len(keys)
    return None, "exhausted", budget, len(keys)


def _holds(sys, lits):
    return all(ck.Verdicts[name](sys) is want for name, want in lits)


def _mine_each_seed(target, seeds, monkeypatch, sweep=None):
    """Run ``mine`` on each seed, after the sweep where sweep holds its
    systems, and assert that it finds, names and counts exactly what the
    sweep and then deciding every trial find.  Yields, per seed, the
    result, the trials run and the systems the random phase decided."""
    budget = 400
    lits = corpus.parse_target(target)
    swept, admitted = frozenset(), []
    if sweep is not None:
        assert not any(_holds(sys, lits) for sys in sweep)
        swept = frozenset(map(_key, sweep))
        admitted = [sys for sys in sweep if mine_admits(sys.action, lits)]
    decided = []
    matches = corpus._matches
    monkeypatch.setattr(corpus, "_matches",
                        lambda sys, lits: decided.append(sys) or matches(sys, lits))
    for seed in seeds:
        decided.clear()
        res = corpus.mine(target, seed=seed, budget=budget, sweep=sweep is not None)
        system, detail, trials, distinct = _mine_every_trial(target, seed, budget, swept)
        assert res.detail == detail
        assert res.found is (system is not None)
        assert res.system == system
        if system is not None:
            assert res.phase == "random"
            assert serialize(res.system) == serialize(system)
        assert dict(res.record) == {"target": target, "seed": seed, "budget": budget,
                                    "sweep_checked": len(swept), "random_trials": trials}
        # the sweep decides only the systems whose action admits the target
        assert decided[:len(admitted)] == admitted
        random_phase = decided[len(admitted):]
        assert len(random_phase) == distinct <= trials
        # one point has one system per group, decided once
        one_point = [sys.group.name for sys in random_phase if sys.space.n == 1]
        assert len(one_point) == len(set(one_point))
        yield res, trials, random_phase


class TestMiningSkip:
    # the random phase decides each distinct system once; it must find,
    # name and count exactly what deciding every trial finds
    # (the three targets that exhaust, and three that the random phase
    # finds, one of them past trials whose action it rejects).  A trial
    # whose every size is settled is not reseeded; with no sweep that takes
    # a target asking tgt, wgm or sgm to hold.  The points of a discrete
    # space are its atoms, k of them: they are not one orbit unless k
    # divides |G|, so once Z1's one-point system is decided every discrete
    # Z1 trial is settled; and they cover X, where tgt, wgm and sgm
    # coincide, so a target asking two of them to differ settles every
    # discrete-mode trial, and only the preorder half is reseeded
    @pytest.mark.parametrize("target", ["tgt&!wgm", "wgm&!sgm", "gt&wgm&!tgt", "sgm&!gm",
                                        "p1&!equivariant&gm", "tgt&!equivariant&!gm"])
    def test_random_phase_matches_every_trial(self, target, monkeypatch):
        reseeds = []
        seed = _random.Random.seed
        monkeypatch.setattr(corpus, "_random", types.SimpleNamespace(Random=types.SimpleNamespace(
            seed=lambda rng, n: reseeds.append(n) or seed(rng, n))))
        runs = []  # per seed: budget, trials, systems decided, reseeds
        for res, trials, decided in _mine_each_seed(target, range(3), monkeypatch):
            runs.append((res.record["budget"], trials, len(decided), len(reseeds)))
            reseeds.clear()
        assert sum(trials - decided for _, trials, decided, _ in runs)
        need = ck.atom_demand(corpus.parse_target(target))
        reseeded = [n for *_, n in runs]
        if need == 2:
            assert reseeded == [budget // 2 for budget, *_ in runs]
        elif need == 1:
            assert sum(reseeded) < sum(trials for _, trials, *_ in runs)
        else:
            assert reseeded == [trials for _, trials, *_ in runs]

    # after an exhausted sweep the random phase skips every system on at
    # most three points over Z1, Z2 and Z3; it must still find, name and
    # count what the sweep and then deciding every trial find (the three
    # targets that exhaust, and one that the random phase finds at seed 3
    # trial 144 on four points)
    @pytest.mark.parametrize("target, seeds, finds", [
        ("tgt&!wgm", (0, 1, 2), 0), ("wgm&!sgm", (0, 1, 2), 0), ("gt&wgm&!tgt", (0, 1, 2), 0),
        ("p1&!equivariant&p2&gt&gm&!sgm&cover&!tgt&!wgm", (3,), 1)])
    def test_full_search_matches_every_trial(self, target, seeds, finds, sweep, monkeypatch):
        found = 0
        for res, _, decided in _mine_each_seed(target, seeds, monkeypatch, sweep):
            found += res.found
            assert not any(sys.space.n <= 3 and sys.group.name in ("Z1", "Z2", "Z3")
                           for sys in decided)
        assert found == finds


class TestImplicationSuite:
    def test_clean_run(self):
        report = corpus.run_implication_suite(corpus.suite_configs(80, seed0=0))
        assert report.ok
        assert report.systems_checked == 80
        assert not report.violations

    def test_antecedents_covered(self):
        report = corpus.run_implication_suite(corpus.suite_configs(120, seed0=0))
        for key in ("gm->gt", "sgm->tgt", "equivariant->p1"):
            assert report.antecedents.get(key, 0) > 0, key

    def test_config_rotation(self):
        cfgs = corpus.suite_configs(12, seed0=5)
        assert len(cfgs) == 12
        assert {c.mode for c in cfgs} == {"discrete", "preorder"}
        assert any(c.pseudoequivariant_only for c in cfgs)
        assert len({c.seed for c in cfgs}) == 12
