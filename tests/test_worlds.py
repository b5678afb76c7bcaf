import random

import pytest

from hardyworlds import worlds
from hardyworlds.errors import DomainError, InconsistentModelError
from hardyworlds.labels import SETTING_PAIRS, FrameOrdering, Outcome, Region, Setting
from hardyworlds.quantum import CELLS, JointProbabilityTable, probability_table
from hardyworlds.worlds import World, WorldModel, enumerate_worlds


class TestWorld:
    def test_identity_ignores_probability(self):
        a = World(Setting.L1, Setting.R1, Outcome.PLUS, Outcome.PLUS, probability=0.1)
        b = World(Setting.L1, Setting.R1, Outcome.PLUS, Outcome.PLUS, probability=0.9)
        assert a == b
        assert hash(a) == hash(b)

    def test_region_accessors(self):
        w = World(Setting.L2, Setting.R1, Outcome.PLUS, Outcome.MINUS, probability=0.5)
        assert w.setting_in(Region.LEFT) is Setting.L2
        assert w.setting_in(Region.RIGHT) is Setting.R1
        assert w.outcome_in(Region.LEFT) is Outcome.PLUS
        assert w.outcome_in(Region.RIGHT) is Outcome.MINUS

    def test_rejects_misplaced_settings(self):
        with pytest.raises(ValueError):
            World(Setting.R1, Setting.R2, Outcome.PLUS, Outcome.PLUS, probability=0.1)
        with pytest.raises(ValueError):
            World(Setting.L1, Setting.L2, Outcome.PLUS, Outcome.PLUS, probability=0.1)

    def test_rendering(self):
        w = World(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.MINUS, probability=0.2)
        assert w.label() == "L1 R2 + -"
        assert str(w) == "(L1,R2,+,-)"


class TestEnumerateWorlds:
    def test_canonical_count(self, canonical_model):
        assert len(canonical_model) == 13

    def test_canonical_counts_per_pair(self, canonical_model):
        counts = [
            sum(w.left_setting is ls and w.right_setting is rs for w in canonical_model)
            for ls, rs in SETTING_PAIRS
        ]
        assert counts == [3, 4, 3, 3]

    def test_canonical_missing_worlds(self, canonical_model):
        # exactly the three vanishing cells are impossible
        assert canonical_model.find(
            Setting.L1, Setting.R1, Outcome.PLUS, Outcome.MINUS
        ) is None
        assert canonical_model.find(
            Setting.L2, Setting.R1, Outcome.PLUS, Outcome.PLUS
        ) is None
        assert canonical_model.find(
            Setting.L2, Setting.R2, Outcome.MINUS, Outcome.PLUS
        ) is None

    def test_sorted_order_is_deterministic(self, canonical_table):
        first = enumerate_worlds(canonical_table).worlds
        second = enumerate_worlds(canonical_table).worlds
        assert first == second
        assert [CELLS[w.index] for w in first] == [
            cell for cell in CELLS if canonical_table.entries[cell] > 1e-9
        ]
        # a model's worlds strictly increase in CELLS index
        model = enumerate_worlds(canonical_table)
        for bad in (first[::-1], first[1:2] + first[:1], first[:2] + first[1:]):
            with pytest.raises(ValueError, match="distinct and in CELLS order"):
                WorldModel(bad, canonical_table, model.epsilon, model.frame)
        assert WorldModel(list(first), canonical_table, model.epsilon, model.frame) == model

    def test_worlds_come_in_cell_order(self):
        # a seeded sample of support patterns with every setting pair
        # possible, each table built from its entries in a shuffled order
        rng = random.Random(14)
        for _ in range(200):
            possible = rng.getrandbits(16)
            for k in range(4):
                possible |= 1 << 4 * k + rng.randrange(4)
            order = rng.sample(range(16), 16)
            table = JointProbabilityTable(
                {CELLS[i]: 0.25 if possible >> i & 1 else 0.0 for i in order}
            )
            model = enumerate_worlds(table)
            assert [w.index for w in model.worlds] == [
                i for i in range(16) if possible >> i & 1
            ]
            for w in model.worlds:
                assert CELLS[w.index] == (
                    w.left_setting, w.right_setting, w.left_outcome, w.right_outcome
                )

    def test_first_world(self, canonical_model):
        head = canonical_model.worlds[0]
        assert head.label() == "L1 R1 + +"
        assert head.probability == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_uniform_table_has_all_sixteen(self, uniform_model):
        assert len(uniform_model) == 16

    def test_larger_epsilon_prunes(self, canonical_table):
        # at 0.09 the three 1/12 cells drop out along with the exact zeros
        model = enumerate_worlds(canonical_table, epsilon=0.09)
        assert len(model) == 10
        assert model.find(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.PLUS) is None

    def test_epsilon_monotonicity(self, canonical_table):
        small = enumerate_worlds(canonical_table, epsilon=1e-9).worlds
        large = enumerate_worlds(canonical_table, epsilon=0.09).worlds
        assert all(w in small for w in large)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-9, 0.1, 0.5])
    def test_epsilon_domain(self, canonical_table, epsilon):
        with pytest.raises(DomainError):
            enumerate_worlds(canonical_table, epsilon=epsilon)

    def test_worlds_are_built_once_per_table_and_epsilon(
        self, canonical_pair, monkeypatch
    ):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return World(*args, **kwargs)

        monkeypatch.setattr(worlds, "World", counting)
        table = probability_table(*canonical_pair)
        left = enumerate_worlds(table, 1e-9, FrameOrdering.LEFT_BEFORE_RIGHT)
        right = enumerate_worlds(table, 1e-9, FrameOrdering.RIGHT_BEFORE_LEFT)
        assert len(built) == 13
        assert right.worlds is left.worlds
        assert right.frame is FrameOrdering.RIGHT_BEFORE_LEFT
        assert enumerate_worlds(table, 1e-3).worlds is not left.worlds
        assert len(built) == 26
        assert enumerate_worlds(table, 1e-9).worlds is left.worlds
        # an equal table keeps its own world sets
        copy = JointProbabilityTable(table.entries)
        assert enumerate_worlds(copy).worlds == left.worlds
        assert len(built) == 39

    def test_degenerate_pair_rejected(self, canonical_table):
        entries = dict(canonical_table.entries)
        for lo in (Outcome.PLUS, Outcome.MINUS):
            for ro in (Outcome.PLUS, Outcome.MINUS):
                entries[(Setting.L1, Setting.R2, lo, ro)] = 0.0
        table = JointProbabilityTable(entries)
        with pytest.raises(InconsistentModelError, match="free-choice"):
            enumerate_worlds(table)

    def test_first_empty_pair_is_reported(self, uniform_table):
        # rows are checked in SETTING_PAIRS order, so of two empty rows the
        # earlier one is named
        entries = dict(uniform_table.entries)
        for ls, rs in SETTING_PAIRS[1:3]:
            for lo in (Outcome.PLUS, Outcome.MINUS):
                for ro in (Outcome.PLUS, Outcome.MINUS):
                    entries[(ls, rs, lo, ro)] = 0.0
        with pytest.raises(InconsistentModelError) as raised:
            enumerate_worlds(JointProbabilityTable(entries))
        assert str(raised.value) == (
            "free-choice violation: settings (L1, R2) admit no outcome with "
            "probability above 1e-09"
        )

    def test_frame_is_recorded(self, canonical_table):
        model = enumerate_worlds(
            canonical_table, frame=FrameOrdering.RIGHT_BEFORE_LEFT
        )
        assert model.frame is FrameOrdering.RIGHT_BEFORE_LEFT

    def test_probabilities_match_table(self, canonical_model, canonical_table):
        for w in canonical_model:
            assert w.probability == canonical_table.entries[
                (w.left_setting, w.right_setting, w.left_outcome, w.right_outcome)
            ]
