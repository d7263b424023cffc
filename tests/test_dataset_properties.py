"""Property tests of the public dataset and split API: loader round trips,
row-error reporting and split invariants on random tables."""

import csv
import json
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scalelaws as sl

HEADER = ["model_id", "n_params", "d_tokens", "x_level", "loss", "source_tag"]

# Printable text that survives CSV quoting and the loader's whitespace strip.
_TEXT = st.text(alphabet="abcXYZ019 _-,.\"'", min_size=1, max_size=6).filter(
    lambda s: s == s.strip()
)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e13, allow_nan=False, allow_infinity=False)


@st.composite
def observation_tables(draw, max_rows=30):
    """Valid observation tuples: unique keys, one n_params per model_id."""
    model_ids = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    sizes = {m: draw(_POSITIVE) for m in model_ids}
    token_pool = draw(st.lists(_POSITIVE, min_size=1, max_size=8, unique=True))
    level_pool = draw(st.lists(
        st.one_of(st.none(), st.floats(min_value=-50, max_value=50, allow_nan=False)),
        min_size=1, max_size=3, unique=True,
    ))
    tag_pool = draw(st.lists(st.one_of(st.none(), _TEXT), min_size=1, max_size=2, unique=True))
    rows = draw(st.lists(
        st.tuples(st.sampled_from(model_ids), st.sampled_from(token_pool),
                  st.sampled_from(level_pool), st.sampled_from(tag_pool), _POSITIVE),
        min_size=1, max_size=max_rows, unique_by=lambda r: r[:4],
    ))
    return tuple(
        sl.Observation(m, sizes[m], d, loss, x_level=x, source_tag=tag)
        for m, d, x, tag, loss in rows
    )


def write_csv(path, observations):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for o in observations:
            writer.writerow([
                o.model_id, repr(o.n_params), repr(o.d_tokens),
                "" if o.x_level is None else repr(o.x_level), repr(o.loss),
                o.source_tag or "",
            ])
    return path


def write_json(path, observations):
    payload = []
    for o in observations:
        item = {"model_id": o.model_id, "n_params": o.n_params,
                "d_tokens": o.d_tokens, "loss": o.loss}
        if o.x_level is not None:
            item["x_level"] = o.x_level
        if o.source_tag is not None:
            item["source_tag"] = o.source_tag
        payload.append(item)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def assert_columns_match(data, observations):
    np.testing.assert_array_equal(data.n_raw(), [o.n_params for o in observations])
    np.testing.assert_array_equal(data.d_raw(), [o.d_tokens for o in observations])
    np.testing.assert_array_equal(data.losses(), [o.loss for o in observations])
    np.testing.assert_array_equal(
        data.x_values(),
        [np.nan if o.x_level is None else o.x_level for o in observations],
    )


class TestLoaderRoundTrip:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(observations=observation_tables())
    def test_csv_and_json_round_trip(self, tmp_path_factory, observations):
        tmp = tmp_path_factory.mktemp("rt")
        expected = sl.ObservationSet(observations)
        for path in (write_csv(tmp / "obs.csv", observations),
                     write_json(tmp / "obs.json", observations)):
            data = sl.load_observations(path)
            assert list(data) == list(observations)
            assert data.observations == observations
            assert data == expected
            assert_columns_match(data, observations)


_BAD_CELLS = {
    "model_id": ["", "   "],
    "n_params": ["", "abc", "-1", "0", "nan", "inf"],
    "d_tokens": ["", "1e9e", "-3.5", "0.0", "-inf"],
    "loss": ["", "x", "-0.5", "0", "nan"],
    "x_level": ["abc", "inf", "nan", "--1"],
}


class TestRowErrors:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(observations=observation_tables(), data=st.data())
    def test_single_bad_cell_names_its_row(self, tmp_path_factory, observations, data):
        row = data.draw(st.integers(0, len(observations) - 1))
        column = data.draw(st.sampled_from(sorted(_BAD_CELLS)))
        bad = data.draw(st.sampled_from(_BAD_CELLS[column]))
        path = write_csv(tmp_path_factory.mktemp("bad") / "obs.csv", observations)
        lines = path.read_text(encoding="utf-8").splitlines()
        records = list(csv.reader(lines))
        records[1 + row][HEADER.index(column)] = bad
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(records)
        try:
            sl.load_observations(path)
        except sl.DataValidationError as exc:
            named = set(re.findall(r"row (\d+):", str(exc)))
            assert named == {str(row + 1)}, str(exc)
            assert column in str(exc)
        else:
            raise AssertionError(f"{column}={bad!r} at row {row + 1} was accepted")


def _positions(part, data):
    index = {o.key(): i for i, o in enumerate(data)}
    return [index[o.key()] for o in part]


@st.composite
def split_tables(draw):
    """Sizes x checkpoints x levels designs with random missing cells, so
    that most specs are satisfiable and models differ in their tokens."""
    sizes = draw(st.lists(_POSITIVE, min_size=2, max_size=5, unique=True))
    token_pool = draw(st.lists(_POSITIVE, min_size=2, max_size=8, unique=True))
    levels = draw(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=2,
                           unique=True))
    observations = []
    for i, n in enumerate(sizes):
        tokens = draw(st.lists(st.sampled_from(token_pool), min_size=1, unique=True))
        for d in tokens:
            for x in levels:
                loss = draw(_POSITIVE)
                observations.append(sl.Observation(f"m{i}", n, d, loss, x_level=x))
    order = draw(st.permutations(range(len(observations))))
    return tuple(observations[i] for i in order)


def _split_specs():
    return st.one_of(
        st.builds(lambda j: sl.SplitSpec("token", j=j), st.integers(1, 4)),
        st.builds(lambda k: sl.SplitSpec("model", k=k), st.integers(1, 4)),
        st.builds(lambda j, k, full: sl.SplitSpec("joint", j=j, k=k, joint_full_test=full),
                  st.integers(1, 4), st.integers(1, 4), st.booleans()),
    )


class TestSplitInvariants:
    @settings(max_examples=250, derandomize=True, deadline=None)
    @given(observations=split_tables(), spec=_split_specs())
    def test_order_disjointness_and_coverage(self, observations, spec):
        data = sl.ObservationSet(observations)
        try:
            train, test = sl.make_split(data, spec)
        except sl.SplitError:
            return  # unsatisfiable for this table; the message is tested elsewhere
        train_pos = _positions(train, data)
        test_pos = _positions(test, data)
        assert train_pos == sorted(train_pos) and test_pos == sorted(test_pos)
        assert not set(train_pos) & set(test_pos)
        assert len(test) > 0
        if spec.mode in ("token", "model"):
            assert sorted(train_pos + test_pos) == list(range(len(data)))
        else:
            excluded = len(data) - len(train) - len(test)
            assert excluded == len(set(range(len(data))) - set(train_pos) - set(test_pos))
        if spec.mode != "token":
            small = set(sl.distinct_axis_values(data, "N")[: spec.k])
            assert all(o.n_params in small for o in train)
            assert all(o.n_params not in small for o in test)
        if spec.mode == "joint" and not spec.joint_full_test:
            horizon = max(o.d_tokens for o in train)
            assert all(o.d_tokens > horizon for o in test)
        if spec.mode == "token":
            for model_id in {o.model_id for o in data}:
                tokens = sorted({o.d_tokens for o in data if o.model_id == model_id})
                kept = {o.d_tokens for o in train if o.model_id == model_id}
                assert kept == set(tokens[: spec.j])
