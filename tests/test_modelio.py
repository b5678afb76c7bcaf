import json
import math

import pytest

from hardyworlds.errors import InvalidModelError
from hardyworlds.labels import OUTCOMES, SETTING_PAIRS
from hardyworlds.modelio import dump_model, load_model, parse_model, save_model
from hardyworlds.quantum import hardy_family, probability_table


def tables_match(left, right, tol=1e-12):
    return all(
        abs(left.entries[key] - right.entries[key]) <= tol for key in left.entries
    )


class TestRoundTrip:
    def test_canonical(self, canonical_pair, canonical_table, tmp_path):
        path = tmp_path / "model.json"
        save_model(*canonical_pair, path)
        state, config = load_model(path)
        assert tables_match(probability_table(state, config), canonical_table)

    def test_family_members(self, tmp_path):
        for i, x in enumerate((0.05, 0.25, 0.4999)):
            pair = hardy_family(x)
            path = tmp_path / f"family{i}.json"
            save_model(*pair, path)
            loaded = load_model(path)
            original = probability_table(*pair)
            assert tables_match(probability_table(*loaded), original)

    def test_amplitudes_preserved_exactly(self, canonical_pair, tmp_path):
        state, _ = canonical_pair
        path = tmp_path / "model.json"
        save_model(*canonical_pair, path)
        loaded_state, _ = load_model(path)
        for got, want in zip(loaded_state.amplitudes, state.amplitudes):
            assert abs(got - want) <= 1e-12


class TestParseModel:
    def test_flat_dotted_keys(self, canonical_pair):
        nested = dump_model(*canonical_pair)
        flat = {"amplitudes": nested["amplitudes"]}
        for side in ("left", "right"):
            for label in ("basis1", "basis2"):
                flat[f"{side}.{label}"] = nested[side][label]
        state, config = parse_model(flat)
        _, ref_config = canonical_pair
        for ls, rs in SETTING_PAIRS:
            for outcome in OUTCOMES:
                assert config.vector_for(ls, outcome) == ref_config.vector_for(
                    ls, outcome
                )
                assert config.vector_for(rs, outcome) == ref_config.vector_for(
                    rs, outcome
                )

    def test_complex_amplitudes_survive(self, tmp_path):
        inv = 1.0 / math.sqrt(2.0)
        payload = {
            "amplitudes": [[inv, 0.0], [0.0, inv], [0.0, 0.0], [0.0, 0.0]],
            "left": {
                "basis1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "basis2": [[[inv, 0.0], [0.0, inv]], [[inv, 0.0], [0.0, -inv]]],
            },
            "right": {
                "basis1": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "basis2": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            },
        }
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(payload))
        state, config = load_model(path)
        assert state.amplitudes[1] == pytest.approx(inv * 1j)
        basis = config.left[2]
        assert basis.plus[1] == pytest.approx(inv * 1j)

    def test_missing_amplitudes(self):
        with pytest.raises(InvalidModelError):
            parse_model({"left": {}, "right": {}})

    def test_missing_side(self, canonical_pair):
        payload = dump_model(*canonical_pair)
        del payload["right"]
        with pytest.raises(InvalidModelError):
            parse_model(payload)

    def test_missing_basis_label(self, canonical_pair):
        payload = dump_model(*canonical_pair)
        del payload["left"]["basis2"]
        with pytest.raises(InvalidModelError):
            parse_model(payload)

    def test_malformed_amplitude_pair(self, canonical_pair):
        payload = dump_model(*canonical_pair)
        payload["amplitudes"][0] = [1.0]
        with pytest.raises(InvalidModelError):
            parse_model(payload)

    def test_non_numeric_entry(self, canonical_pair):
        payload = dump_model(*canonical_pair)
        payload["amplitudes"][0] = ["a", "b"]
        with pytest.raises(InvalidModelError):
            parse_model(payload)

    def test_boolean_amplitude_rejected(self, canonical_pair):
        # [true, false] once loaded as the amplitude 1+0j
        payload = dump_model(*canonical_pair)
        payload["amplitudes"] = [[True, False], [0, 0], [0, 0], [0, 0]]
        with pytest.raises(InvalidModelError, match="amplitude 0 must be"):
            parse_model(payload)

    def test_boolean_basis_entry_rejected(self, canonical_pair):
        # the computational basis of left setting 2, spelled with booleans
        payload = dump_model(*canonical_pair)
        payload["left"]["basis2"] = [
            [[False, False], [True, False]],
            [[True, False], [False, False]],
        ]
        with pytest.raises(InvalidModelError, match="left.basis2 plus row"):
            parse_model(payload)

    def test_unnormalized_state_rejected(self, canonical_pair):
        payload = dump_model(*canonical_pair)
        payload["amplitudes"] = [[1.0, 0.0]] * 4
        with pytest.raises(InvalidModelError):
            parse_model(payload)

    def test_non_orthogonal_basis_rejected(self, canonical_pair):
        payload = dump_model(*canonical_pair)
        payload["left"]["basis1"] = [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(InvalidModelError):
            parse_model(payload)


class TestLoadModel:
    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidModelError):
            load_model(tmp_path / "nope.json")

    def test_empty_path(self):
        # Path('') names the working directory, so this must not try to read it
        with pytest.raises(InvalidModelError) as excinfo:
            load_model("")
        assert str(excinfo.value) == "model file path is empty"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidModelError):
            load_model(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(InvalidModelError):
            load_model(path)
