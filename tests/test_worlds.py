import operator
import random

import pytest

from hardyworlds.errors import DomainError, InconsistentModelError
from hardyworlds.labels import SETTING_PAIRS, FrameOrdering, Outcome, Region, Setting
from hardyworlds.quantum import (
    CELLS, JointProbabilityTable, hardy_family, probability_table,
)
from hardyworlds.worlds import WORLDS, World, WorldModel, enumerate_worlds


class TestWorld:
    def test_worlds_are_the_cells_in_order(self):
        assert [
            (w.left_setting, w.right_setting, w.left_outcome, w.right_outcome, w.index)
            for w in WORLDS
        ] == [(*cell, i) for i, cell in enumerate(CELLS)]

    def test_region_accessors(self):
        w = World(Setting.L2, Setting.R1, Outcome.PLUS, Outcome.MINUS)
        assert w.setting_in(Region.LEFT) is Setting.L2
        assert w.setting_in(Region.RIGHT) is Setting.R1
        assert w.outcome_in(Region.LEFT) is Outcome.PLUS
        assert w.outcome_in(Region.RIGHT) is Outcome.MINUS

    def test_rejects_misplaced_settings(self):
        with pytest.raises(ValueError):
            World(Setting.R1, Setting.R2, Outcome.PLUS, Outcome.PLUS)
        with pytest.raises(ValueError):
            World(Setting.L1, Setting.L2, Outcome.PLUS, Outcome.PLUS)

    def test_rendering(self):
        w = World(Setting.L1, Setting.R2, Outcome.PLUS, Outcome.MINUS)
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
        assert canonical_model.table.values[head.index] == pytest.approx(1.0 / 6.0, abs=1e-9)

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

    def test_enumerate_worlds_builds_no_world(self, canonical_pair, monkeypatch):
        built = []
        init = World.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(World, "__init__", counting)
        table = probability_table(*canonical_pair)
        for epsilon in (1e-9, 1e-3, 0.09):
            for frame in FrameOrdering:
                model = enumerate_worlds(table, epsilon, frame)
                assert all(w is WORLDS[w.index] for w in model)
        assert built == []

    def test_equal_masks_hold_identical_worlds(self, canonical_pair):
        # the family member at 0.2 has the canonical support; a model holds
        # the shared worlds, whatever its table, epsilon or frame
        tables = [probability_table(*canonical_pair), probability_table(*hardy_family(0.2))]
        tables.append(JointProbabilityTable(tables[0].entries))
        models = [
            enumerate_worlds(table, epsilon, frame)
            for table in tables for epsilon in (1e-9, 1e-3) for frame in FrameOrdering
        ]
        assert {model.mask for model in models} == {models[0].mask}
        for model in models:
            assert len(model) == 13
            assert all(map(operator.is_, model.worlds, models[0].worlds))

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
            assert canonical_model.table.values[w.index] == canonical_table.entries[
                (w.left_setting, w.right_setting, w.left_outcome, w.right_outcome)
            ]


def supports_of(table):
    """Every epsilon at which ``table``'s support changes, each just below a
    distinct cell value in (0, 0.1), and the default 1e-9."""
    values = sorted({p for p in table.entries.values() if 0.0 < p < 0.1})
    return [1e-9] + [p * (1 - 1e-9) for p in values if p * (1 - 1e-9) > 1e-9]


class TestUncheckedWorlds:
    """enumerate_worlds hands out the shared WORLDS and builds its model
    without WorldModel.__init__'s checks; nothing may tell either from a
    checked one."""

    FIELDS = ("left_setting", "right_setting", "left_outcome", "right_outcome", "index")

    def tables(self, canonical_table, uniform_table):
        rng = random.Random(16)
        yield canonical_table
        yield uniform_table
        for _ in range(100):
            # every row keeps one cell above 0.1, so each epsilon below is valid
            values = [rng.choice((0.0, rng.uniform(1e-8, 0.09))) for _ in CELLS]
            for k in range(4):
                values[4 * k + rng.randrange(4)] = rng.uniform(0.1, 1.0)
            yield JointProbabilityTable(dict(zip(CELLS, values)))

    def test_enumerated_worlds_equal_checked_ones(self, canonical_table, uniform_table):
        supports = 0
        for table in self.tables(canonical_table, uniform_table):
            for epsilon in supports_of(table):
                model = enumerate_worlds(table, epsilon)
                assert [w.index for w in model] == [
                    i for i, p in enumerate(table.entries.values()) if p > epsilon
                ]
                for w in model:
                    checked = World(*CELLS[w.index])
                    assert w is WORLDS[w.index]
                    assert w == checked
                    assert w.index == checked.index
                    assert repr(w) == repr(checked)
                    assert hash(w) == hash(checked)
                    assert w._values() == checked._values()
                    assert list(vars(w).items()) == list(vars(checked).items())
                supports += 1
        assert supports > 300

    def test_enumerated_models_equal_checked_ones(self, canonical_table, uniform_table):
        # the model takes its mask from the support enumerate_worlds computed;
        # the checked constructor derives it from the worlds
        supports = 0
        for table in self.tables(canonical_table, uniform_table):
            for epsilon in supports_of(table):
                for frame in FrameOrdering:
                    model = enumerate_worlds(table, epsilon, frame)
                    worlds = [World(*CELLS[w.index]) for w in model]
                    checked = WorldModel(worlds, table, epsilon, frame)
                    assert type(model) is WorldModel
                    assert model == checked
                    assert model.mask == checked.mask
                    assert [w._values() for w in model] == [w._values() for w in checked]
                    assert list(vars(model)) == list(vars(checked))
                    assert repr(model) == repr(checked)
                supports += 1
        assert supports == 708

    def test_built_tables_equal_hand_built_ones(self, canonical_table, uniform_table):
        rng = random.Random(18)
        family = [probability_table(*hardy_family(x)) for x in (1e-5, 0.2, 0.45)]
        for table in [*self.tables(canonical_table, uniform_table), *family]:
            shuffled = list(table.entries.items())
            rng.shuffle(shuffled)
            for rebuilt in (
                JointProbabilityTable(dict(shuffled)),
                JointProbabilityTable(dict(zip(CELLS, table.values))),
                JointProbabilityTable(table.entries),
            ):
                assert rebuilt.values == table.values
                assert type(rebuilt.values) is tuple
                assert all(type(p) is float for p in rebuilt.values)
                assert list(rebuilt.entries.items()) == list(zip(CELLS, table.values))
                assert list(rebuilt.entries.values()) == list(table.values)
                assert [rebuilt.entries[cell] for cell in CELLS] == list(table.values)
                assert rebuilt == table
                assert rebuilt.entries == table.entries == dict(shuffled)
                assert repr(rebuilt) == repr(table)
                assert list(vars(rebuilt)) == list(vars(table))

    def test_enumerated_worlds_are_frozen(self, canonical_model):
        for w in canonical_model:
            for name in self.FIELDS:
                with pytest.raises(AttributeError):
                    setattr(w, name, None)
                with pytest.raises(AttributeError):
                    delattr(w, name)
            with pytest.raises(AttributeError):
                w.extra = 1
