"""Loss grids, basin detection, 1-D optima, and exponent reports."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalelaws as sl
from scalelaws.landscape import SPACINGS, LossGrid, classify_slice

from synth import random_params

IDENT = sl.Normalization(1.0, 1.0)
#: Every law in every X orientation it takes: 13 cases.
ORIENTED_LAWS = [sl.with_orientation(law, orientation) for law in sl.law_registry()
                 for orientation in (("mitigating", "amplifying") if law.needs_x else (None,))]


def make_fit_result(law_id, params, normalization=IDENT):
    return sl.FitResult(
        law_id=law_id,
        params=params,
        normalization=normalization,
        sse=0.0,
        r2_train=1.0,
        n_obs=1,
        converged=True,
        iterations_used=0,
        start_index_won=0,
        seed=0,
        objective_space="loss",
    )


def synthetic_grid(values, mask=None, n_values=None, d_values=None):
    values = np.asarray(values, dtype=float)
    n_steps, d_steps = values.shape
    n_values = np.geomspace(1.0, 100.0, n_steps) if n_values is None else n_values
    d_values = np.geomspace(1.0, 100.0, d_steps) if d_values is None else d_values
    mask = np.zeros(values.shape, dtype=bool) if mask is None else mask
    stored = values.copy()
    stored[mask] = 0.0
    return LossGrid(
        spec=sl.GridSpec(n_values[0], n_values[-1], d_values[0], d_values[-1],
                         n_steps, d_steps),
        law_id="chinchilla",
        params=sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 1.0, 1.0)),
        normalization=IDENT,
        x=None,
        n_values=np.asarray(n_values, dtype=float),
        d_values=np.asarray(d_values, dtype=float),
        values=stored,
        error_mask=mask,
    )


# smallest subnormal, smallest normal, tiny, one, huge, largest finite
EXTREME_FLOATS = [5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
                  1.7976931348623157e308]


def csv_writer_rows(grid, destination):
    """The reference CSV layout: one csv.writer row per cell."""
    writer = csv.writer(destination)
    writer.writerow(["n", "d", "loss"])
    for i, n in enumerate(grid.n_values):
        for j, d in enumerate(grid.d_values):
            loss = "" if grid.error_mask[i, j] else repr(float(grid.values[i, j]))
            writer.writerow([repr(float(n)), repr(float(d)), loss])


def csv_grid(values, mask, n_values, d_values):
    """A LossGrid for CSV checks. The CSV reads only the arrays, so
    `spec` is a placeholder: a GridSpec cannot describe a 1-point axis."""
    return LossGrid(
        spec=sl.GridSpec(1.0, 2.0, 1.0, 2.0, 2, 2),
        law_id="chinchilla",
        params=sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 1.0, 1.0)),
        normalization=IDENT,
        x=None,
        n_values=n_values,
        d_values=d_values,
        values=values,
        error_mask=mask,
    )


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(sl.DataValidationError):
            sl.GridSpec(0.0, 1.0, 1.0, 2.0, 4, 4)
        with pytest.raises(sl.DataValidationError):
            sl.GridSpec(2.0, 1.0, 1.0, 2.0, 4, 4)
        with pytest.raises(sl.DataValidationError):
            sl.GridSpec(1.0, 2.0, 1.0, 2.0, 1, 4)
        with pytest.raises(sl.DataValidationError):
            sl.GridSpec(1.0, 2.0, 1.0, 2.0, 4, 4, spacing="cubic")

    def test_log_axis_samples(self):
        spec = sl.GridSpec(1.0, 100.0, 1.0, 100.0, 3, 3)
        np.testing.assert_allclose(spec.n_axis(), [1.0, 10.0, 100.0], rtol=1e-12)

    def test_linear_axis_samples(self):
        spec = sl.GridSpec(1.0, 3.0, 1.0, 3.0, 3, 3, spacing="linear")
        np.testing.assert_allclose(spec.n_axis(), [1.0, 2.0, 3.0], rtol=1e-12)


class TestGridEval:
    def test_chinchilla_2x2_hand_values(self):
        """a=b=c=1, alpha=beta=1: loss = 1/n + 1/d + 1."""
        params = sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 1.0, 1.0))
        spec = sl.GridSpec(1.0, 2.0, 4.0, 8.0, 2, 2)
        grid = sl.grid_eval(sl.get_law("chinchilla"), params, spec)
        expected = np.array([
            [1 / 1 + 1 / 4 + 1, 1 / 1 + 1 / 8 + 1],
            [1 / 2 + 1 / 4 + 1, 1 / 2 + 1 / 8 + 1],
        ])
        np.testing.assert_allclose(grid.values, expected, rtol=1e-15)
        assert not grid.error_mask.any()

    def test_pointwise_identity_with_predict_loss(self):
        rng = np.random.default_rng(6)
        for law_id in ("chinchilla", "symmetric", "shannon_full"):
            law = sl.get_law(law_id)
            params = random_params(law, rng)
            spec = sl.GridSpec(0.1, 10.0, 1.0, 100.0, 5, 6)
            grid = sl.grid_eval(law, params, spec)
            for i, n in enumerate(grid.n_values):
                for j, d in enumerate(grid.d_values):
                    assert grid.values[i, j] == sl.predict_loss(law, params, n, d)

    @pytest.mark.parametrize("law", ORIENTED_LAWS, ids=lambda law: f"{law.law_id}-{law.x_orientation}")
    def test_cells_equal_predict_loss_bit_for_bit(self, law):
        """Grid cells and predictions come from one evaluator: every cell
        holds predict_loss at its normalized point, bit for bit, and is
        masked exactly where predict_loss refuses the point. The draws
        reach overflow and underflow, and qid's X^(-+gamma) lands on
        points where Python's float pow and numpy's array pow differ in
        the last bit. Each point goes to predict_loss as one-element
        arrays, as numpy's scalar pow is the C library's, like Python's."""
        rng = np.random.default_rng(29)
        spec = sl.GridSpec(0.05, 50.0, 0.05, 50.0, 9, 11, spacing="linear")
        masked = 0
        for draw in range(12):
            spread = 6.0 if draw % 3 == 0 else 1.0
            params = sl.ParamVector(law.law_id, tuple(
                np.exp(rng.uniform(-2.0, 1.5, law.n_params) * spread).tolist()))
            norm = sl.Normalization(*np.exp(rng.uniform(-3.0, 3.0, 2)).tolist())
            x = float(rng.uniform(0.5, 8.0)) if law.needs_x else None
            try:
                grid = sl.grid_eval(law, params, spec, x=x, normalization=norm)
                values, mask = grid.values, grid.error_mask
            except sl.LawDomainError:
                values, mask = np.zeros((9, 11)), np.ones((9, 11), dtype=bool)
            for i, n in enumerate(spec.n_axis() / norm.n_scale):
                for j, d in enumerate(spec.d_axis() / norm.d_scale):
                    point = (law, params, np.array([n]), np.array([d]), x)
                    if mask[i, j]:
                        with pytest.raises(sl.LawDomainError):
                            sl.predict_loss(*point)
                    else:
                        assert values[i, j] == sl.predict_loss(*point)[0], (draw, i, j)
            masked += int(mask.sum())
        assert 0 < masked < 12 * 9 * 11

    def test_x_power_beyond_float_range_is_masked(self):
        """X^gamma past the float range is a point predict_loss refuses,
        so the grid masks it and the slice skips it; neither raises the
        OverflowError of Python's float pow."""
        law = sl.with_orientation(sl.get_law("qid"), "amplifying")
        params = sl.ParamVector("qid", (1.0,) * 8 + (400.0,))
        with pytest.raises(sl.LawDomainError, match="prediction overflowed"):
            sl.predict_loss(law, params, 1.0, 1.0, 10.0)
        with pytest.raises(sl.LawDomainError, match="entirely non-evaluable grid"):
            sl.grid_eval(law, params, sl.GridSpec(1.0, 10.0, 1.0, 10.0, 3, 3), x=10.0)
        with pytest.raises(sl.LawDomainError, match="non-evaluable slice"):
            sl.optimal_along_axis(law, params, "N", 1.0, (0.1, 10.0), 11, x=10.0)

    def test_normalization_applied(self):
        params = sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 1.0, 1.0))
        spec = sl.GridSpec(1e9, 2e9, 4e9, 8e9, 2, 2)
        grid = sl.grid_eval(sl.get_law("chinchilla"), params, spec,
                            normalization=sl.Normalization(1e9, 1e9))
        assert grid.values[0, 0] == 1 / 1 + 1 / 4 + 1

    def test_monotone_capacity_law_grid(self):
        params = sl.ParamVector(
            "shannon_full", (1.0, 2.0, 5e-324, 5e-324, 0.5, 0.5, 0.5, 0.7, 1.2)
        )
        spec = sl.GridSpec(0.01, 100.0, 0.1, 1000.0, 12, 12)
        grid = sl.grid_eval(sl.get_law("shannon_full"), params, spec)
        assert np.all(np.diff(grid.values, axis=0) < 0)
        assert np.all(np.diff(grid.values, axis=1) < 0)

    def test_x_law_requires_x(self):
        ones = {"a": 1, "b": 1, "c": 1, "d": 1, "alpha": 1, "beta": 1,
                "alpha_prime": 1, "beta_prime": 1, "gamma": 1}
        params = sl.ParamVector.from_dict("qid", ones)
        spec = sl.GridSpec(1.0, 2.0, 1.0, 2.0, 2, 2)
        with pytest.raises(sl.LawDomainError, match="requires x"):
            sl.grid_eval(sl.get_law("qid"), params, spec)
        grid = sl.grid_eval(sl.get_law("qid"), params, spec, x=4.0)
        assert grid.x == 4.0

    def test_csv_export_row_major_with_empty_error_cells(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[False, True], [False, False]])
        grid = synthetic_grid(values, mask)
        buf = io.StringIO()
        grid.to_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["n", "d", "loss"]
        assert len(rows) == 5
        # row-major: n outer, d inner
        assert float(rows[1][0]) == grid.n_values[0] and float(rows[1][1]) == grid.d_values[0]
        assert rows[2][2] == ""  # masked cell
        assert float(rows[3][2]) == 3.0

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data(), n_steps=st.sampled_from([1, 2, 7]),
           d_steps=st.sampled_from([1, 2, 7]), spacing=st.sampled_from(SPACINGS))
    def test_csv_bytes_match_csv_writer(self, tmp_path_factory, data, n_steps, d_steps,
                                        spacing):
        """to_csv, to a text stream and to a path, writes exactly what one
        csv.writer row per cell writes, for any shape, mask and float magnitude."""
        axis = np.geomspace if spacing == "log" else np.linspace
        low = st.floats(5e-324, 1e300)  # subnormal to huge
        spread = st.floats(1.0, 1e8, exclude_min=True)
        n_lo, d_lo = data.draw(low, label="n_lo"), data.draw(low, label="d_lo")
        n_values = axis(n_lo, n_lo * data.draw(spread, label="n_spread"), n_steps)
        d_values = axis(d_lo, d_lo * data.draw(spread, label="d_spread"), d_steps)
        cells = n_steps * d_steps
        losses = st.one_of(st.sampled_from(EXTREME_FLOATS),
                           st.floats(5e-324, 1.7976931348623157e308))
        values = np.array(data.draw(st.lists(losses, min_size=cells, max_size=cells),
                                    label="values")).reshape(n_steps, d_steps)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells),
                                  label="mask")).reshape(n_steps, d_steps)
        grid = csv_grid(values, mask, n_values, d_values)

        expected = io.StringIO(newline="")
        csv_writer_rows(grid, expected)
        buf = io.StringIO()
        grid.to_csv(buf)
        assert buf.getvalue() == expected.getvalue()
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        grid.to_csv(path)
        with open(path.with_suffix(".expected"), "w", newline="", encoding="utf-8") as fh:
            csv_writer_rows(grid, fh)
        assert path.read_bytes() == path.with_suffix(".expected").read_bytes()


class TestClassifySlice:
    def test_shapes(self):
        assert classify_slice(np.array([3.0, 2.0, 1.0]))[0] == "decreasing"
        assert classify_slice(np.array([1.0, 2.0, 3.0]))[0] == "increasing"
        assert classify_slice(np.array([3.0, 1.0, 2.0]))[0] == "u_shaped"
        assert classify_slice(np.array([1.0, 3.0, 2.0]))[0] == "mixed"
        assert classify_slice(np.array([1.0, 1.0, 2.0]))[0] == "mixed"

    def test_partial_on_masked_cells(self):
        values = np.array([9.0, 3.0, 2.0, 1.0, 9.0])
        valid = np.array([False, True, True, True, False])
        cls, partial = classify_slice(values, valid)
        assert cls == "decreasing"
        assert partial


class TestDetectBasin:
    def test_constructed_bowl(self):
        """loss = (ln n - mu)^2 + (ln d - nu)^2 + 1 with an interior
        center lands the argmin at the nearest lattice point."""
        n_values = np.geomspace(1.0, 100.0, 9)
        d_values = np.geomspace(1.0, 100.0, 9)
        mu, nu = np.log(12.0), np.log(7.0)
        values = (np.log(n_values)[:, None] - mu) ** 2 + \
                 (np.log(d_values)[None, :] - nu) ** 2 + 1.0
        grid = synthetic_grid(values, n_values=n_values, d_values=d_values)
        report = sl.detect_basin(grid)
        assert report.has_interior_minimum
        assert not report.boundary_min
        i = np.argmin(np.abs(np.log(n_values) - mu))
        j = np.argmin(np.abs(np.log(d_values) - nu))
        assert report.argmin == (n_values[i], d_values[j])
        assert report.monotonic_n == "u_shaped"
        assert report.monotonic_d == "u_shaped"

    def test_chinchilla_corner_minimum(self):
        params = sl.ParamVector("chinchilla", (1.0, 1.0, 0.5, 0.7, 0.6))
        spec = sl.GridSpec(0.1, 10.0, 1.0, 100.0, 7, 7)
        grid = sl.grid_eval(sl.get_law("chinchilla"), params, spec)
        report = sl.detect_basin(grid)
        assert not report.has_interior_minimum
        assert report.boundary_min
        assert report.argmin == (grid.n_values[-1], grid.d_values[-1])
        assert report.monotonic_n == "decreasing"
        assert report.monotonic_d == "decreasing"

    def test_capacity_law_with_dominant_noise_exponents(self):
        """delta > beta and gamma > alpha with non-negligible noise
        coefficients produce an interior basin on a wide grid."""
        params = sl.ParamVector(
            "shannon_full", (1.0, 2.0, 0.05, 0.005, 0.05, 0.2, 0.8, 0.7, 1.6)
        )
        spec = sl.GridSpec(1e-2, 1e3, 1e-2, 1e3, 25, 25)
        grid = sl.grid_eval(sl.get_law("shannon_full"), params, spec)
        report = sl.detect_basin(grid)
        assert report.has_interior_minimum
        assert report.monotonic_n == "u_shaped"
        assert report.monotonic_d == "u_shaped"

    def test_agrees_with_exhaustive_scan_on_random_grids(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            shape = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
            values = np.exp(rng.normal(0, 1, shape))
            grid = synthetic_grid(values)
            report = sl.detect_basin(grid)
            # plain-python scan
            best = None
            for i in range(shape[0]):
                for j in range(shape[1]):
                    if best is None or values[i, j] < best[0]:
                        best = (values[i, j], i, j)
            _, bi, bj = best
            assert report.min_value == values[bi, bj]
            assert report.argmin == (grid.n_values[bi], grid.d_values[bj])
            interior = 0 < bi < shape[0] - 1 and 0 < bj < shape[1] - 1
            assert report.has_interior_minimum == interior

    def test_boundary_tie_is_conservative(self):
        values = np.full((3, 3), 5.0)
        values[1, 1] = 1.0
        values[0, 0] = 1.0  # tie on the boundary
        report = sl.detect_basin(synthetic_grid(values))
        assert not report.has_interior_minimum
        assert report.boundary_min

    def test_axis_without_classified_slice_reads_mixed(self):
        """A constant grid has no decreasing, increasing or u_shaped slice."""
        params = sl.ParamVector("chinchilla", (1e-300, 1e-300, 1.0, 0.5, 0.5))
        grid = sl.grid_eval(sl.get_law("chinchilla"), params, sl.GridSpec(1, 100, 1, 100, 5, 5))
        assert np.all(grid.values == 1.0)
        report = sl.detect_basin(grid)
        assert (report.monotonic_n, report.monotonic_d) == ("mixed", "mixed")

    def test_undersized_grid_rejected(self):
        values = np.ones((2, 3))
        with pytest.raises(sl.DataValidationError):
            sl.detect_basin(synthetic_grid(values))


class TestOptimalAlongAxis:
    def test_monotone_law_optimum_at_range_end(self):
        params = sl.ParamVector("chinchilla", (1.0, 1.0, 0.5, 0.7, 0.6))
        arg, value, classification = sl.optimal_along_axis(
            sl.get_law("chinchilla"), params, "N", 2.0, (1.0, 1000.0), 17
        )
        assert classification == "decreasing"
        assert arg == pytest.approx(1000.0, rel=1e-9)

    def test_u_shaped_slice_interior_refined(self):
        params = sl.ParamVector(
            "shannon_full", (1.0, 2.0, 1e-4, 0.05, 0.1, 0.4, 0.5, 0.3, 1.4)
        )
        law = sl.get_law("shannon_full")
        arg, value, classification = sl.optimal_along_axis(
            law, params, "N", 2.0, (1e-2, 1e5), 33
        )
        assert classification == "u_shaped"
        lattice = np.geomspace(1e-2, 1e5, 33)
        lattice_losses = sl.predict_loss(law, params, 2.0, lattice)
        assert value <= float(np.min(lattice_losses))
        assert 1e-2 < arg < 1e5
        # refined point evaluates to the reported value
        assert value == pytest.approx(
            sl.predict_loss(law, params, 2.0, arg), rel=1e-12
        )

    @pytest.mark.parametrize("fixed_axis", ["N", "D"])
    def test_refined_argmin_matches_closed_form(self, fixed_axis):
        """symmetric, a*u^-1 + b*u + c in u = D^beta/N^alpha, is least at
        u = sqrt(a/b): D* = (a/b)^(1/(2 beta)) N^(alpha/beta) for fixed N and
        N* = (b/a)^(1/(2 alpha)) D^(beta/alpha) for fixed D. Every draw
        puts the optimum 1 to 4 decades inside the search range."""
        law = sl.get_law("symmetric")
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(40):
            a, b = 10.0 ** rng.uniform(-1.0, 1.0, 2)
            c = 10.0 ** rng.uniform(-1.0, 0.0)
            alpha, beta = rng.uniform(0.2, 1.0, 2)
            fixed = 10.0 ** rng.uniform(-2.0, 3.0)
            if fixed_axis == "N":
                exact = (a / b) ** (1 / (2 * beta)) * fixed ** (alpha / beta)
            else:
                exact = (b / a) ** (1 / (2 * alpha)) * fixed ** (beta / alpha)
            low, high = exact / 10.0 ** rng.uniform(1.0, 4.0), exact * 10.0 ** rng.uniform(1.0, 4.0)
            params = sl.ParamVector("symmetric", (a, b, c, alpha, beta))
            arg, _, classification = sl.optimal_along_axis(
                law, params, fixed_axis, fixed, (low, high), 33)
            assert classification == "u_shaped"
            worst = max(worst, abs(arg / exact - 1.0))
        assert worst <= 1e-6

    @pytest.mark.parametrize("law", ORIENTED_LAWS, ids=lambda law: f"{law.law_id}-{law.x_orientation}")
    def test_value_equals_predict_loss_bit_for_bit(self, law):
        """A slice is evaluated as grid cells are: the value it returns is
        predict_loss at (fixed, arg) passed as one-element arrays, bit for
        bit, and a slice it refuses has no point predict_loss accepts. The
        draws reach masked lattice points, and points where Python's float
        pow and numpy's array pow differ in the last bit."""
        rng = np.random.default_rng(30)
        masked = 0
        for draw in range(12):
            spread = 6.0 if draw % 3 == 0 else 1.0
            params = sl.ParamVector(law.law_id, tuple(
                np.exp(rng.uniform(-2.0, 1.5, law.n_params) * spread).tolist()))
            norm = sl.Normalization(*np.exp(rng.uniform(-3.0, 3.0, 2)).tolist())
            x = float(rng.uniform(0.5, 8.0)) if law.needs_x else None
            fixed_axis = "ND"[draw % 2]
            fixed = float(np.exp(rng.uniform(-3.0, 3.0)))
            lattice = np.geomspace(0.05, 50.0, 33)

            def point(arg):
                n, d = (fixed, arg) if fixed_axis == "N" else (arg, fixed)
                return (law, params, np.array([n / norm.n_scale]),
                        np.array([d / norm.d_scale]), x)

            refused = []
            for arg in lattice:
                try:
                    sl.predict_loss(*point(arg))
                except sl.LawDomainError:
                    refused.append(arg)
            masked += len(refused)
            if len(refused) == lattice.size:
                with pytest.raises(sl.LawDomainError, match="non-evaluable slice"):
                    sl.optimal_along_axis(law, params, fixed_axis, fixed, (0.05, 50.0), 33,
                                          x=x, normalization=norm)
                continue
            arg, value, _ = sl.optimal_along_axis(law, params, fixed_axis, fixed,
                                                  (0.05, 50.0), 33, x=x, normalization=norm)
            assert value == sl.predict_loss(*point(arg))[0], draw
        assert 0 < masked < 12 * 33

    def test_subnormal_bracket_ends(self):
        """Among subnormal floats the zoom lattice repeats points and the
        bracket can stop narrowing; the search still ends, at the optimum
        D* = N of a = b, alpha = beta."""
        law = sl.get_law("symmetric")
        params = sl.ParamVector("symmetric", (1.0, 1.0, 0.5, 1.0, 1.0))
        for high in (3e-323, 1e-300):
            arg, value, _ = sl.optimal_along_axis(law, params, "N", 1e-323, (5e-324, high), 33)
            assert (arg, value) == (1e-323, 2.5)

    def test_overflowing_normalization_warns_nothing(self):
        """N / n_scale past the float range is a masked point, not a numpy
        warning: the grid and the slice divide under errstate."""
        law = sl.get_law("shannon_full")
        params = sl.ParamVector("shannon_full", (1.0, 2.0, 0.05, 0.005, 0.05, 0.2, 0.8, 0.7, 1.6))
        norm = sl.Normalization(1e-300, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sl.LawDomainError, match="entirely non-evaluable grid"):
                sl.grid_eval(law, params, sl.GridSpec(1e8, 1e10, 1.0, 10.0, 3, 3),
                             normalization=norm)
            with pytest.raises(sl.LawDomainError, match="non-evaluable slice"):
                sl.optimal_along_axis(law, params, "N", 1e9, (1.0, 10.0), 11,
                                      normalization=norm)
            arg, value, _ = sl.optimal_along_axis(law, params, "D", 1.0, (1e-305, 1e10), 27,
                                                  normalization=norm)
        assert arg < 1.8e8 and value == pytest.approx(
            sl.predict_loss(law, params, arg / 1e-300, 1.0), rel=1e-12)

    def test_low_resolution_rejected(self):
        params = sl.ParamVector("chinchilla", (1.0, 1.0, 0.5, 0.7, 0.6))
        with pytest.raises(sl.DataValidationError):
            sl.optimal_along_axis(sl.get_law("chinchilla"), params, "N", 2.0,
                                  (1.0, 10.0), 2)

    @pytest.mark.parametrize("law_id, params, x, message", [
        ("symmetric", sl.ParamVector("chinchilla", (1, 1, .5, .3, .3)), None,
         "parameter vector is for chinchilla, law is symmetric"),
        ("chinchilla", sl.ParamVector("chinchilla", (1, 1, .5, .3, .3)), 5.0,
         "law chinchilla takes no x"),
        ("qid", sl.ParamVector("qid", (1.0,) * 9), -1.0, "law qid requires x > 0"),
        ("chinchilla", sl.ParamVector("openai", (1, 1, .5, .3)), None,
         "parameter vector is for openai, law is chinchilla"),
    ], ids=["other_law_params", "x_on_law_without_x", "x_outside_domain", "param_count"])
    def test_refuses_what_grid_eval_refuses(self, law_id, params, x, message):
        """The slice is evaluated with the grid's checks, so inputs that
        grid_eval refuses raise the same LawDomainError text here."""
        law = sl.get_law(law_id)
        with pytest.raises(sl.LawDomainError) as grid_error:
            sl.grid_eval(law, params, sl.GridSpec(0.1, 10.0, 0.1, 10.0, 3, 3), x=x)
        with pytest.raises(sl.LawDomainError) as slice_error:
            sl.optimal_along_axis(law, params, "N", 1.0, (0.1, 10.0), 11, x=x)
        assert str(slice_error.value) == str(grid_error.value) == message


class TestExponentReport:
    def test_reference_exponent_pattern(self):
        """alpha=0.302 > gamma=0.299 and delta=0.745 > beta=0.402:
        bandwidth wins on the model axis, noise wins on the token axis."""
        params = sl.ParamVector.from_dict(
            "shannon_full",
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0,
             "alpha": 0.302, "beta": 0.402, "gamma": 0.299, "delta": 0.745},
        )
        report = sl.exponent_report(make_fit_result("shannon_full", params))
        assert report.n_axis_verdict == "bandwidth_dominates"
        assert report.d_axis_verdict == "noise_dominates"
        assert (report.alpha, report.gamma) == (0.302, 0.299)
        assert (report.beta, report.delta) == (0.402, 0.745)

    def test_tie_and_inversion(self):
        params = sl.ParamVector.from_dict(
            "shannon_full",
            {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0,
             "alpha": 0.321, "beta": 0.5, "gamma": 0.475, "delta": 0.5},
        )
        report = sl.exponent_report(make_fit_result("shannon_full", params))
        assert report.n_axis_verdict == "noise_dominates"  # 0.475 > 0.321
        assert report.d_axis_verdict == "tie"

    def test_wrong_family_rejected(self):
        params = sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 0.5, 0.5))
        with pytest.raises(sl.LawDomainError):
            sl.exponent_report(make_fit_result("chinchilla", params))

    def test_coupled_interaction_noise_counts_along_d(self):
        """gamma = 0.8 > beta = 0.5 > delta = 0.3: in the D*N-coupled
        forms the interaction noise outgrows the signal along D, so the
        loss turns up along D; the size-only ablation's does not."""
        values = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 0.1,
                  "alpha": 0.5, "beta": 0.5, "gamma": 0.8, "delta": 0.3}
        for law_id, d_verdict in (("shannon_full", "noise_dominates"),
                                  ("shannon_extended", "noise_dominates"),
                                  ("shannon_sizeonly_ablation", "signal_dominates")):
            params = sl.ParamVector.from_dict(law_id, values)
            report = sl.exponent_report(make_fit_result(law_id, params))
            assert (report.n_axis_verdict, report.d_axis_verdict) == (
                "noise_dominates", d_verdict)

    def test_simplified_variant_supported(self):
        params = sl.ParamVector.from_dict(
            "shannon_simplified",
            {"a": 1.0, "c": 1.0, "alpha": 0.4, "beta": 0.5, "gamma": 0.3,
             "delta": 0.9},
        )
        report = sl.exponent_report(make_fit_result("shannon_simplified", params))
        assert report.n_axis_verdict == "bandwidth_dominates"
        assert report.d_axis_verdict == "noise_dominates"


def _logsumexp(terms):
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _ln_ln1p_exp(z):
    """ln(ln(1 + e^z)) without overflow or underflow; beyond |z| = 40 the
    dropped terms are below double rounding."""
    if z > 40.0:
        return math.log(z)
    if z < -40.0:
        return z
    return math.log(math.log1p(math.exp(z)))


def _ln_loss(law_id, values, ln_n, ln_d, ln_x):
    """ln L of a capacity form as README's law table writes it, evaluated
    in log space, so N and D far beyond the float range stay exact to
    rounding. shannon_simplified has b = d = 1 and no e."""
    ln = {name: math.log(v) for name, v in values.items()}
    ln_coupled = ln_n if law_id == "shannon_sizeonly_ablation" else ln_d + ln_n
    noise = [ln["c"] + values["gamma"] * ln_coupled, ln.get("d", 0.0) + values["delta"] * ln_d]
    if "e" in ln:
        noise.append(ln["e"])
    ln_signal = ln.get("b", 0.0) + values["beta"] * ln_d
    if law_id == "shannon_extended":
        ln_signal += ln_x
    ln_capacity = (ln["a"] + values["alpha"] * ln_n + _ln_ln1p_exp(ln_signal - _logsumexp(noise))
                   - math.log(math.log(2.0)))
    return -ln_capacity


# Exponents on a 1/20 lattice, so that equal exponents (ties) are drawn
# often; coefficients, the fixed coordinate and X within 1e-3..1e3.
_EXPONENT = st.integers(1, 20).map(lambda k: k / 20)
_LN_SCALE = st.floats(-3 * math.log(10), 3 * math.log(10))
# Far end of each axis, as ln N or ln D. Any two distinct exponents
# differ by at least 0.05, and every coefficient, fixed coordinate or X
# ratio lies within e^(+-14) of 1, so at ln 1800 each sub-leading term
# of the noise sum, and of log(1 + SNR), is below e^-40 of the leading
# one: the loss follows its asymptotic exponent from there on.
_FAR = (1800.0, 3600.0)


class TestExponentVerdictsFollowTheLaw:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=st.data(), law_id=st.sampled_from(sl.SHANNON_FAMILY))
    def test_verdict_matches_far_behaviour(self, data, law_id):
        """On each axis, noise_dominates holds exactly when the loss rises
        between the two far points, tie exactly when it levels off, and
        the growth verdict exactly when it falls."""
        law = sl.get_law(law_id)
        values = {name: data.draw(_EXPONENT if name in ("alpha", "beta", "gamma", "delta")
                                  else _LN_SCALE.map(math.exp), label=name)
                  for name in law.param_names}
        ln_n0, ln_d0, ln_x = (data.draw(_LN_SCALE, label=name) for name in ("ln_n", "ln_d", "ln_x"))
        params = sl.ParamVector.from_dict(law_id, values)
        x = math.exp(ln_x) if law.needs_x else None
        # the log-space loss is the law's loss
        assert _ln_loss(law_id, values, 0.0, 0.0, ln_x) == pytest.approx(
            math.log(sl.predict_loss(law, params, 1.0, 1.0, x)), abs=1e-6)

        report = sl.exponent_report(make_fit_result(law_id, params))
        along_n = [_ln_loss(law_id, values, t, ln_d0, ln_x) for t in _FAR]
        along_d = [_ln_loss(law_id, values, ln_n0, t, ln_x) for t in _FAR]
        for verdict, (near, far) in ((report.n_axis_verdict, along_n),
                                     (report.d_axis_verdict, along_d)):
            change = far - near
            if verdict == "noise_dominates":
                assert change > 1.0
            elif verdict == "tie":
                assert abs(change) < 1e-9
            else:
                assert change < -0.1
