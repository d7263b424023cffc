"""Loading, validation, grouping, and axis queries on observation sets."""

import json

import numpy as np
import pytest

import scalelaws as sl
from scalelaws.dataset import DEFAULT_SCALE

from synth import MODEL_SIZES, SNR_LEVELS, TOKEN_COUNTS, shannon_level_set


def write_csv(path, rows, header="model_id,n_params,d_tokens,x_level,loss,source_tag"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestLoading:
    def test_csv_round_trip(self, tmp_path):
        """A single well-formed row loads into one observation."""
        path = write_csv(
            tmp_path / "obs.csv",
            ["pythia-160m,1.6e8,3.07e11,40,2.91,pile"],
        )
        data = sl.load_observations(path)
        assert len(data) == 1
        obs = data.observations[0]
        assert obs.model_id == "pythia-160m"
        assert obs.n_params == 1.6e8
        assert obs.d_tokens == 3.07e11
        assert obs.x_level == 40.0
        assert obs.loss == 2.91
        assert obs.source_tag == "pile"
        groups = sl.group_by_level(data)
        assert [level for level, _ in groups] == [40.0]

    def test_default_normalization_is_1e9(self, tmp_path):
        path = write_csv(tmp_path / "obs.csv", ["m,1e9,2e9,40,2.0,"])
        data = sl.load_observations(path)
        assert data.normalization == sl.Normalization(DEFAULT_SCALE, DEFAULT_SCALE)
        np.testing.assert_allclose(data.n_norm(), [1.0])
        np.testing.assert_allclose(data.d_norm(), [2.0])

    def test_negative_loss_rejected_with_row_number(self, tmp_path):
        path = write_csv(
            tmp_path / "obs.csv",
            ["m1,1e8,1e9,40,2.5,", "m1,1e8,2e9,40,-1,"],
        )
        with pytest.raises(sl.DataValidationError, match="row 2"):
            sl.load_observations(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "obs.csv", ["m1,abc,1e9,40,2.5,"])
        with pytest.raises(sl.DataValidationError, match="n_params"):
            sl.load_observations(path)

    def test_missing_required_column(self, tmp_path):
        path = (tmp_path / "obs.csv")
        path.write_text("model_id,n_params,loss\nm,1,2\n", encoding="utf-8")
        with pytest.raises(sl.DataValidationError, match="d_tokens"):
            sl.load_observations(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "obs.csv",
            ["m1,1e8,1e9,40,2.5,", "m1,1e8,1e9,40,2.6,"],
        )
        with pytest.raises(sl.DataValidationError, match="duplicate"):
            sl.load_observations(path)

    @pytest.mark.parametrize("suffix, row, first", [(".csv", 3, 1), (".json", 2, 0)])
    def test_duplicate_key_names_file_and_rows(self, tmp_path, suffix, row, first):
        """Like every other loader error, a repeated key names the file and
        its rows, 1-based for CSV and 0-based for JSON."""
        records = [("m0", 1e8, 1e9, 2.5), ("m0", 1e8, 2e9, 2.4), ("m0", 1e8, 1e9, 2.3)]
        path = tmp_path / f"dup{suffix}"
        if suffix == ".csv":
            write_csv(path, [",".join(map(str, r)) for r in records],
                      header="model_id,n_params,d_tokens,loss")
        else:
            keys = ("model_id", "n_params", "d_tokens", "loss")
            path.write_text(json.dumps([dict(zip(keys, r)) for r in records]), encoding="utf-8")
        with pytest.raises(sl.DataValidationError) as info:
            sl.load_observations(path)
        assert str(info.value) == (f"{path}: row {row}: duplicate observation key "
                                   f"('m0', 1000000000.0, None, None), first at row {first}")

    def test_missing_file(self, tmp_path):
        with pytest.raises(sl.DataValidationError, match="no such file"):
            sl.load_observations(tmp_path / "nope.csv")

    @pytest.mark.parametrize("column", ["n_params", "d_tokens", "loss", "x_level"])
    def test_json_boolean_is_not_numeric(self, tmp_path, column):
        row = {"model_id": "m1", "n_params": 1e8, "d_tokens": 1e9, "loss": 2.5, "x_level": 40}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([dict(row, **{column: True})]), encoding="utf-8")
        with pytest.raises(sl.DataValidationError,
                           match=f"row 0: {column}='true' is not numeric"):
            sl.load_observations(path)

    @pytest.mark.parametrize("column, value, message", [
        ("n_params", 10 ** 400, "n_params must be a positive real, got inf"),
        ("d_tokens", -10 ** 400, "d_tokens must be a positive real, got -inf"),
        ("loss", 10 ** 400, "loss must be a positive real, got inf"),
        ("x_level", -10 ** 400, "x_level must be finite when present, got -inf"),
    ], ids=["n_params", "d_tokens", "loss", "x_level"])
    def test_json_integer_beyond_float_range(self, tmp_path, column, value, message):
        """A JSON integer too large for a float reads as the same
        validation error as the number written in a CSV cell."""
        row = {"model_id": "m1", "n_params": 1e8, "d_tokens": 1e9, "loss": 2.5, "x_level": 40}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps([row, dict(row, model_id="m2", **{column: value})]),
                        encoding="utf-8")
        with pytest.raises(sl.DataValidationError) as err:
            sl.load_observations(path)
        assert str(err.value) == f"{path}: row 1: {message}"
        csv_path = write_csv(tmp_path / "obs.csv", [
            f"{r['model_id']},{r['n_params']},{r['d_tokens']},{r['x_level']},{r['loss']},"
            for r in (row, dict(row, model_id="m2", **{column: value}))])
        with pytest.raises(sl.DataValidationError) as csv_err:
            sl.load_observations(csv_path)
        assert str(csv_err.value) == f"{csv_path}: row 2: {message}"

    @pytest.mark.parametrize("name", ["obs.csv", "obs.json"])
    def test_undecodable_text_names_the_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe" + "model_id,n_params,d_tokens,loss\n".encode("utf-16-le"))
        with pytest.raises(sl.DataValidationError, match=f"{name}: not UTF-8 text"):
            sl.load_observations(path)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "obs.json"
        payload = [
            {"model_id": "m1", "n_params": 1e8, "d_tokens": 1e9, "loss": 2.5,
             "x_level": 40, "source_tag": "pile"},
            {"model_id": "m2", "n_params": 2e8, "d_tokens": 1e9, "loss": 2.2},
        ]
        path.write_text(json.dumps(payload), encoding="utf-8")
        data = sl.load_observations(path)
        assert len(data) == 2
        assert data.observations[1].x_level is None

    def test_load_determinism(self, tmp_path):
        path = write_csv(
            tmp_path / "obs.csv",
            ["m1,1e8,1e9,40,2.5,", "m2,2e8,1e9,30,2.2,"],
        )
        assert sl.load_observations(path) == sl.load_observations(path)

    def test_counting_6x16x6(self):
        """6 models x 16 checkpoints x 6 levels -> 576 rows, 6 level groups."""
        data = shannon_level_set()
        assert len(MODEL_SIZES) == 6 and len(TOKEN_COUNTS) == 16 and len(SNR_LEVELS) == 6
        assert len(data) == 576
        groups = sl.group_by_level(data)
        assert len(groups) == 6
        assert all(len(g) == 96 for _, g in groups)


class TestObservationInvariants:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_params": -1.0},
            {"n_params": 0.0},
            {"d_tokens": 0.0},
            {"loss": 0.0},
            {"loss": float("nan")},
            {"x_level": float("inf")},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        fields = {"model_id": "m", "n_params": 1.0, "d_tokens": 1.0, "loss": 1.0}
        fields.update(kwargs)
        with pytest.raises(sl.DataValidationError):
            sl.Observation(**fields)

    @pytest.mark.parametrize("name", ["n_params", "d_tokens", "loss", "x_level"])
    def test_integer_beyond_float_range_rejected(self, name):
        fields = {"model_id": "m", "n_params": 1.0, "d_tokens": 1.0, "loss": 1.0, name: 10 ** 400}
        with pytest.raises(sl.DataValidationError, match=f"^{name} must be "):
            sl.Observation(**fields)

    def test_level_key_validation(self):
        obs = (sl.Observation("m", 1.0, 1.0, 1.0),)
        with pytest.raises(sl.DataValidationError):
            sl.ObservationSet(obs, level_key="nope")


class TestGrouping:
    def _set(self, levels):
        observations = tuple(
            sl.Observation("m", 1.0, float(i + 1), 1.0, x_level=level)
            for i, level in enumerate(levels)
        )
        return sl.ObservationSet(observations)

    def test_levels_sorted_ascending(self):
        groups = sl.group_by_level(self._set([40.0, 20.0, 30.0, 20.0, 40.0]))
        assert [level for level, _ in groups] == [20.0, 30.0, 40.0]

    def test_single_level_identity(self):
        data = self._set([7.0, 7.0, 7.0])
        groups = sl.group_by_level(data)
        assert len(groups) == 1
        assert groups[0][1] == data

    def test_missing_level_errors(self):
        data = sl.ObservationSet((sl.Observation("m", 1.0, 1.0, 1.0),))
        with pytest.raises(sl.DataValidationError, match="x_level"):
            sl.group_by_level(data)

    def test_source_tag_grouping(self):
        observations = (
            sl.Observation("m", 1.0, 1.0, 1.0, source_tag="gsm8k"),
            sl.Observation("m", 1.0, 2.0, 1.0, source_tag="siqa"),
        )
        data = sl.ObservationSet(observations, level_key="source_tag")
        groups = sl.group_by_level(data)
        assert [level for level, _ in groups] == ["gsm8k", "siqa"]

    def test_partition_property_random_sets(self):
        """Groups are disjoint and their union is the input (keyed)."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_rows = int(rng.integers(1, 40))
            observations = []
            seen = set()
            for _ in range(n_rows):
                key = (
                    f"m{rng.integers(0, 4)}",
                    float(rng.integers(1, 20)),
                    float(rng.integers(1, 5) * 10),
                )
                if key in seen:
                    continue
                seen.add(key)
                observations.append(
                    sl.Observation(key[0], 1.0, key[1], 1.0, x_level=key[2])
                )
            data = sl.ObservationSet(tuple(observations))
            groups = sl.group_by_level(data)
            parts = [o.key() for _, g in groups for o in g]
            assert sorted(parts) == sorted(o.key() for o in data)
            assert len(parts) == len(set(parts))


class TestDistinctAxisValues:
    def test_deduplicates_and_sorts(self):
        observations = (
            sl.Observation("m1", 1.0, 5.0, 1.0),
            sl.Observation("m2", 2.0, 3.0, 1.0),
            sl.Observation("m3", 1.0, 5.0, 2.0, source_tag="other"),
        )
        data = sl.ObservationSet(observations)
        assert sl.distinct_axis_values(data, "D") == [3.0, 5.0]
        assert sl.distinct_axis_values(data, "N") == [1.0, 2.0]

    def test_six_model_sizes(self):
        data = shannon_level_set(levels=[40.0])
        assert sl.distinct_axis_values(data, "N") == sorted(MODEL_SIZES)
        assert len(sl.distinct_axis_values(data, "N")) == 6

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        base = [
            sl.Observation(f"m{i}", float(i + 1), float(10 - i), 1.0)
            for i in range(8)
        ]
        shuffled = list(base)
        rng.shuffle(shuffled)
        a = sl.ObservationSet(tuple(base))
        b = sl.ObservationSet(tuple(shuffled))
        assert sl.distinct_axis_values(a, "N") == sl.distinct_axis_values(b, "N")
        assert sl.distinct_axis_values(a, "D") == sl.distinct_axis_values(b, "D")

    def test_empty_set_errors(self):
        with pytest.raises(sl.DataValidationError):
            sl.distinct_axis_values(sl.ObservationSet(()), "N")


class TestNormalizationTransparency:
    def test_pre_divided_inputs_match_set_normalization(self):
        """Evaluating raw/Z directly equals evaluating through the set's
        recorded normalization, exactly."""
        law = sl.get_law("chinchilla")
        params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        observations = tuple(
            sl.Observation(f"m{i}", 2.0e9 * (i + 1), 5.0e9 * (i + 1), 1.0)
            for i in range(4)
        )
        data = sl.ObservationSet(observations, normalization=sl.Normalization(1e9, 1e9))
        via_set = sl.predict_dataset(law, params, data)
        direct = sl.predict_loss(law, params, data.n_raw() / 1e9, data.d_raw() / 1e9)
        np.testing.assert_array_equal(via_set, direct)


class TestModelIdInvariant:
    def test_model_id_with_two_sizes_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "obs.csv",
            ["m1,1e8,1e9,40,2.5,", "m1,1e8,2e9,40,2.4,", "m1,2e8,3e9,40,2.3,",
             "m2,3e8,1e9,40,2.2,"],
        )
        with pytest.raises(sl.DataValidationError,
                           match=r"model_id 'm1' .*\(rows 1, 2\).*\(rows 3\)"):
            sl.load_observations(path)

    def test_in_memory_set_with_two_sizes_rejected(self):
        """A set built in memory is held to the loader's rule, so a joint
        split cannot put one model in train and in test."""
        observations = [sl.Observation("m0", 1e8, d, 2.0) for d in (1e9, 2e9, 3e9)]
        observations.append(sl.Observation("m0", 1e9, 4e9, 1.9))
        with pytest.raises(sl.DataValidationError) as info:
            sl.ObservationSet(observations)
        assert str(info.value) == ("model_id 'm0' has more than one n_params: "
                                   "100000000.0 (positions 0, 1, 2), 1000000000.0 (positions 3)")

    def test_in_memory_duplicate_key_names_positions(self):
        """An in-memory set names a repeated key as the loader does, with
        0-based positions for rows."""
        observations = [sl.Observation("m0", 1e8, d, 2.0) for d in (1e9, 2e9, 1e9)]
        with pytest.raises(sl.DataValidationError) as info:
            sl.ObservationSet(observations)
        assert str(info.value) == ("position 2: duplicate observation key "
                                   "('m0', 1000000000.0, None, None), first at position 0")


class TestScaledBounds:
    """A normalization must take every raw N and D to a positive finite
    float, or no law could be evaluated on the set."""

    ROWS = [("m1", 1e8, 1e9), ("m2", 3.2e9, 1e9), ("m3", 4e9, 2e9)]

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    @pytest.mark.parametrize("norm, row, message", [
        (sl.Normalization(1e-300, 1e9), 1, "n_params 3200000000.0 / n_scale 1e-300"),
        (sl.Normalization(1e9, 1e-320), 0, "d_tokens 1000000000.0 / d_scale 1e-320"),
        (sl.Normalization(1e9, 1e300), None, None),
    ], ids=["n_overflows", "d_overflows", "d_tiny_but_positive"])
    def test_file(self, tmp_path, suffix, norm, row, message):
        path = tmp_path / f"obs{suffix}"
        if suffix == ".csv":
            write_csv(path, [f"{m},{n!r},{d!r},,2.5," for m, n, d in self.ROWS])
        else:
            path.write_text(json.dumps([{"model_id": m, "n_params": n, "d_tokens": d, "loss": 2.5}
                                        for m, n, d in self.ROWS]), encoding="utf-8")
        if message is None:
            assert len(sl.load_observations(path, normalization=norm)) == 3
            return
        with pytest.raises(sl.DataValidationError) as err:
            sl.load_observations(path, normalization=norm)
        row_no = row + (1 if suffix == ".csv" else 0)
        assert str(err.value) == (
            f"{path}: row {row_no}: {message} is not a positive finite float")

    def test_in_memory_set(self):
        observations = [sl.Observation(m, n, d, 2.5) for m, n, d in self.ROWS]
        with pytest.raises(sl.DataValidationError) as err:
            sl.ObservationSet(observations, normalization=sl.Normalization(1.0, 1e-310))
        assert str(err.value) == (
            "position 0: d_tokens 1000000000.0 / d_scale 1e-310 is not a positive finite float")
        underflow = [sl.Observation("m0", 1e-30, 1e9, 2.5)]
        with pytest.raises(sl.DataValidationError,
                           match=r"^position 0: n_params 1e-30 / n_scale 1e\+300 is"):
            sl.ObservationSet(underflow, normalization=sl.Normalization(1e300, 1.0))
