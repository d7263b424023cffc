"""Multistart least squares: solver core, contracts, and recovery."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalelaws as sl
from scalelaws.fitter import (
    _STALL_TOL,
    _STALL_WINDOW,
    FitConfig,
    _lm_minimize,
    _step,
    enumerate_starts,
    fit_result_from_dict,
    read_fit,
)

from synth import X_LEVELS, grid_set, random_params

N_GRID = np.geomspace(0.16, 12.0, 6)
D_GRID = np.geomspace(4.0, 310.0, 8)


class TestSolverCore:
    def test_linear_residuals_closed_form(self):
        """On residuals linear in the coordinates, the damped step is the
        normal-equation step: a handful of iterations reach SSE ~ 0."""
        rng = np.random.default_rng(0)
        design = rng.normal(0, 1, (10, 3))
        u_true = np.array([0.3, -1.2, 2.0])
        target = design @ u_true

        def residual(u):
            return design @ u - target

        def jacobian(u):
            return design

        u, sse, iterations, converged = _lm_minimize(
            lambda u: (residual(u), lambda: jacobian(u)), np.zeros(3), 50
        )
        assert converged
        assert iterations <= 5
        assert sse <= 1e-18
        reference = np.linalg.lstsq(design, target, rcond=None)[0]
        np.testing.assert_allclose(u, reference, atol=1e-8)

    def test_monotone_descent_of_accepted_steps(self):
        """The SSE of each accepted point, recorded when its Jacobian is
        built, never rises along Rosenbrock's curved valley from (-1.2, 1)."""
        history = []  # the SSE of the start and of each accepted point

        def objective(u):
            r = np.array([10.0 * (u[1] - u[0] ** 2), 1.0 - u[0]])

            def jacobian():
                history.append(float(r @ r))
                return np.array([[-20.0 * u[0], 10.0], [-1.0, 0.0]])

            return r, jacobian

        _, sse, _, _ = _lm_minimize(objective, np.array([-1.2, 1.0]), 200)
        history.append(sse)
        assert len(history) > 2
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_creeping_start_stops_when_it_stalls(self):
        """Gauss-Newton converges only linearly, and slowly for rho near 1,
        on this large-residual problem (Dennis & Schnabel, Example 10.2.4). The
        start stops, unconverged, at the first iteration whose SSE fell by
        at most _STALL_TOL x SSE over the last _STALL_WINDOW iterations."""
        rho = 0.99
        history = []  # the SSE at the start of each iteration

        def objective(u):
            x = u[0]
            r = np.array([x + 1.0, rho * x * x + x - 1.0])

            def jacobian():
                history.append(float(r @ r))
                return np.array([[1.0], [2.0 * rho * x + 1.0]])

            return r, jacobian

        _, sse, iterations, converged = _lm_minimize(objective, np.array([1.0]), 10000)
        history.append(sse)
        assert not converged
        assert len(history) == iterations + 1
        assert _STALL_WINDOW < iterations <= 100
        # How far each window's SSE drop exceeds the stall threshold.
        excess = [history[k - _STALL_WINDOW] - history[k] - _STALL_TOL * history[k]
                  for k in range(_STALL_WINDOW, iterations + 1)]
        assert excess[-1] <= 0 < min(excess[:-1])

    def test_nonfinite_start_raises(self):
        def residual(u):
            return np.array([np.inf])

        with pytest.raises(sl.FitError):
            _lm_minimize(lambda u: (residual(u), lambda: np.ones((1, 1))), np.zeros(1), 10)


def _checked_step(damped, neg_grad):
    """The step as np.linalg.solve gives it, lstsq's where solve refuses."""
    try:
        return np.linalg.solve(damped, neg_grad)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(damped, neg_grad, rcond=None)[0]


@st.composite
def damped_systems(draw):
    """A p x p system (p = 1..9) and its right-hand side: a damped
    Gauss-Newton matrix J'J + lam * diag(J'J), a symmetric matrix of
    condition number up to 1e16, an exactly singular matrix (two equal
    rows, or [[s, s], [s, s]]), or any of these scaled near the float limit."""
    p = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["damped", "ill", "singular", "equal"]))
    if kind == "damped":
        jac = rng.normal(size=(2 * p, p)) * 10.0 ** rng.uniform(-8, 8, size=p)
        matrix = jac.T @ jac
        matrix.ravel()[::p + 1] *= 1.0 + 10.0 ** draw(st.floats(-14, 15))
    elif kind == "ill":
        basis = np.linalg.qr(rng.normal(size=(p, p)))[0]
        matrix = basis * np.geomspace(1.0, 10.0 ** -draw(st.floats(0, 16)), p) @ basis.T
    elif kind == "singular" and p > 1:
        matrix = rng.normal(size=(p, p))
        rows = rng.choice(p, size=2, replace=False)
        matrix[rows[1]] = matrix[rows[0]]
    else:
        matrix = np.full((p, p), draw(st.sampled_from([0.0, 1.0, 1e-300, 1e300])))
    scale = 10.0 ** draw(st.sampled_from([0.0, -300.0, 300.0, 307.0]))
    with np.errstate(over="ignore"):  # an entry past the float range is inf
        return matrix * scale, rng.normal(size=p) * 10.0 ** draw(st.floats(-300, 300))


class TestStep:
    """fitter._step calls the LAPACK kernel directly; each step it returns
    must equal np.linalg.solve's, or lstsq's where solve finds the
    system singular, bit for bit, or be non-finite where that one is."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(system=damped_systems())
    @example(system=(np.array([[2.0, 2.0], [2.0, 2.0]]), np.array([1.0, -3.0])))
    @example(system=(np.array([[0.0]]), np.array([1.0])))
    @example(system=(np.array([[1e308, 1e308], [1.0, 1e308]]), np.array([1e308, -1e308])))
    def test_equals_checked_solve(self, system):
        damped, neg_grad = system
        with np.errstate(all="ignore"):
            expected = _checked_step(damped, neg_grad)
            step = _step(damped, neg_grad)
        if np.isfinite(expected).all():
            assert step.tobytes() == expected.tobytes()
        else:
            assert not np.isfinite(step).all()

    def test_singular_system_takes_lstsq(self):
        damped = np.array([[3.0, 3.0], [3.0, 3.0]])
        with np.errstate(all="ignore"):
            step = _step(damped, np.array([1.0, 1.0]))
        assert step.tolist() == pytest.approx([1 / 6, 1 / 6])


class TestLocalSolve:
    @pytest.mark.parametrize("law_id", list(sl.LAW_IDS))
    def test_each_point_is_evaluated_once(self, law_id):
        """An accepted trial's derivative closure gives the next Jacobian,
        so the law's form never sees the same theta twice."""
        law = sl.get_law(law_id)
        seen = []

        def recording_form(parts, *inputs):
            seen.append(parts)
            return law.form(parts, *inputs)

        true = random_params(law, np.random.default_rng(400 + sl.LAW_IDS.index(law_id)))
        data = grid_set(law, true, N_GRID, D_GRID, x_levels=X_LEVELS if law.needs_x else None)
        recording = dataclasses.replace(law, form=recording_form)
        config = FitConfig(max_iters=300, objective_space="log_loss")
        _, _, iterations, _ = sl.local_solve(recording, data, np.zeros(law.n_params), config)
        assert len(seen) > iterations > 1
        assert len(set(seen)) == len(seen)

    def test_start_at_optimum(self):
        law = sl.get_law("chinchilla")
        true = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        data = grid_set(law, true, N_GRID, D_GRID)
        params, sse, iterations, converged = sl.local_solve(
            law, data, np.log(true.values), FitConfig()
        )
        assert converged
        assert iterations <= 1
        assert sse <= 1e-20
        np.testing.assert_allclose(params.values, true.values, rtol=1e-9)

    def test_single_iteration_budget(self):
        """max_iters=1 on a hard problem: not converged, no ascent."""
        law = sl.get_law("shannon_full")
        rng = np.random.default_rng(3)
        true = random_params(law, rng)
        data = grid_set(law, true, N_GRID, D_GRID)
        start = np.zeros(9)  # all parameters at 1
        start_sse = float(np.sum((sl.predict_dataset(
            law, sl.ParamVector("shannon_full", tuple(np.exp(start))), data)
            - data.losses()) ** 2))
        params, sse, iterations, converged = sl.local_solve(
            law, data, start, FitConfig(max_iters=1)
        )
        assert not converged
        assert iterations == 1
        assert sse <= start_sse

    def test_bad_start_shape(self):
        law = sl.get_law("chinchilla")
        data = grid_set(law, sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5)),
                        N_GRID, D_GRID)
        with pytest.raises(sl.FitError):
            sl.local_solve(law, data, [0.0, 0.0], FitConfig())

    @pytest.mark.parametrize("observations, error", [
        ((), sl.DataValidationError),
        ((sl.Observation("m", 1e9, 1e9, 2.0),), sl.FitError),
    ], ids=["empty", "fewer_rows_than_params"])
    def test_data_checks_match_fit(self, observations, error):
        """local_solve rejects the data fit rejects, with the same error."""
        law = sl.get_law("chinchilla")
        data = sl.ObservationSet(observations, normalization=sl.Normalization(1e9, 1e9))
        for run in (lambda: sl.fit(law, data),
                    lambda: sl.local_solve(law, data, np.zeros(law.n_params))):
            with pytest.raises(error):
                run()


class TestResiduals:
    def test_exact_params_give_zeros(self):
        law = sl.get_law("chinchilla")
        true = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        data = grid_set(law, true, N_GRID, D_GRID)
        np.testing.assert_array_equal(sl.predict_dataset(law, true, data) - data.losses(),
                                      np.zeros(len(data)))

    def test_log_space_constant_ratio(self):
        """Predictions at twice the observed loss give a constant ln 2."""
        law = sl.get_law("chinchilla")
        params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        base = grid_set(law, params, N_GRID, D_GRID)
        halved = base.with_observations([
            sl.Observation(o.model_id, o.n_params, o.d_tokens, o.loss / 2.0,
                           o.x_level, o.source_tag)
            for o in base
        ])
        res = np.log(sl.predict_dataset(law, params, halved)) - np.log(halved.losses())
        np.testing.assert_allclose(res, np.log(2.0), rtol=1e-12)

    def test_single_observation(self):
        law = sl.get_law("chinchilla")
        params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        data = sl.ObservationSet(
            (sl.Observation("m", 1e9, 1e9, 3.0),),
            normalization=sl.Normalization(1e9, 1e9),
        )
        res = sl.predict_dataset(law, params, data) - data.losses()
        assert res.shape == (1,)
        assert res[0] == pytest.approx(6.0 - 3.0, rel=1e-15)


class TestStartEnumeration:
    def test_lexicographic_combinations(self):
        starts = enumerate_starts(FitConfig(starts=4), 2)
        thetas = [tuple(np.exp(u).round(10)) for u in starts]
        assert thetas == [(1.0, 1.0), (1.0, 0.1), (0.1, 1.0), (0.1, 0.1)]

    def test_random_fill_and_extras(self):
        config = FitConfig(starts=6, random_starts=3, seed=9)
        starts = enumerate_starts(config, 2)
        assert len(starts) == 9  # 4 combos + 2 fill + 3 extras
        for u in starts[4:]:
            theta = np.exp(u)
            assert np.all(theta >= 1e-3) and np.all(theta <= 1e2)

    def test_seed_isolation(self):
        """Deterministic starts are identical across seeds; random ones move."""
        a = enumerate_starts(FitConfig(starts=4, random_starts=2, seed=1), 3)
        b = enumerate_starts(FitConfig(starts=4, random_starts=2, seed=2), 3)
        for u1, u2 in zip(a[:4], b[:4]):
            np.testing.assert_array_equal(u1, u2)
        assert not np.allclose(a[4], b[4])


class TestFit:
    def test_generate_then_fit_chinchilla(self):
        """Noiseless data from fixed parameters is reproduced to 1e-6
        relative at every grid point."""
        law = sl.get_law("chinchilla")
        true = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        data = grid_set(law, true, N_GRID, D_GRID)
        result = sl.fit(law, data, FitConfig(seed=0))
        assert result.converged
        pred = sl.predict_dataset(law, result.params, data)
        np.testing.assert_allclose(pred, data.losses(), rtol=1e-6)
        assert result.r2_train >= 1 - 1e-9

    def test_constant_losses_leave_r2_undefined(self):
        observations = tuple(
            sl.Observation(f"m{i}", float(i + 1) * 1e9, float(i + 1) * 1e9, 2.5)
            for i in range(6)
        )
        data = sl.ObservationSet(observations, normalization=sl.Normalization(1e9, 1e9))
        result = sl.fit(sl.get_law("chinchilla"), data, FitConfig(starts=2, max_iters=50))
        assert result.r2_train is None
        assert "null" in json.dumps(result.to_dict(), sort_keys=True)  # JSON null, not NaN

    def test_determinism_byte_identical(self):
        law = sl.get_law("symmetric")
        rng = np.random.default_rng(17)
        true = random_params(law, rng)
        data = grid_set(law, true, N_GRID, D_GRID)
        config = FitConfig(starts=4, random_starts=3, seed=42)
        first = sl.fit(law, data, config)
        second = sl.fit(law, data, config)
        assert first == second
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    def test_multistart_dominance(self):
        """The winner's SSE matches the minimum over individual starts."""
        law = sl.get_law("symmetric")
        true = sl.ParamVector("symmetric", (1.4, 0.7, 1.1, 0.6, 0.5))
        data = grid_set(law, true, N_GRID, D_GRID)
        config = FitConfig(starts=4, random_starts=2, seed=5, max_iters=120)
        result = sl.fit(law, data, config)
        sses = []
        for start in enumerate_starts(config, law.n_params):
            try:
                sses.append(sl.local_solve(law, data, start, config)[1])
            except sl.FitError:
                continue
        assert result.sse == min(sses)

    def test_insufficient_observations(self):
        data = sl.ObservationSet(
            (sl.Observation("m0", 1e9, 1e9, 2.0), sl.Observation("m1", 2e9, 2e9, 1.8)),
            normalization=sl.Normalization(1e9, 1e9),
        )
        with pytest.raises(sl.FitError, match="observations"):
            sl.fit(sl.get_law("chinchilla"), data)

    def test_x_law_requires_x_levels(self):
        law = sl.get_law("qid")
        true = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        data = grid_set(sl.get_law("chinchilla"), true, N_GRID, D_GRID)
        with pytest.raises(sl.DataValidationError, match="x_level"):
            sl.fit(law, data)

    def test_empty_data(self):
        with pytest.raises(sl.DataValidationError):
            sl.fit(sl.get_law("chinchilla"), sl.ObservationSet(()))

    def test_all_starts_diverged(self):
        """Astronomical losses overflow every start's SSE in raw space."""
        observations = tuple(
            sl.Observation(f"m{i}", float(i + 1) * 1e9, float(i + 1) * 1e9, 1e200)
            for i in range(4)
        )
        data = sl.ObservationSet(observations, normalization=sl.Normalization(1e9, 1e9))
        with pytest.raises(sl.FitError, match="diverged"):
            sl.fit(sl.get_law("openai"), data, FitConfig(starts=4, max_iters=10))

    def test_orientation_override_recorded(self):
        law = sl.get_law("qid")
        rng = np.random.default_rng(23)
        true = random_params(law, rng)
        oriented = sl.with_orientation(law, "amplifying")
        data = grid_set(oriented, true, N_GRID, D_GRID, x_levels=[1.0, 2.0, 4.0])
        config = FitConfig(starts=4, random_starts=4, seed=1,
                           objective_space="log_loss", max_iters=200,
                           x_orientation="amplifying")
        result = sl.fit(law, data, config)
        assert result.x_orientation == "amplifying"
        pred = sl.predict_dataset(oriented, result.params, data)
        np.testing.assert_allclose(pred, data.losses(), rtol=1e-4)

    def test_objective_space_recorded_and_valid(self):
        with pytest.raises(sl.DataValidationError):
            FitConfig(objective_space="weird")
        law = sl.get_law("chinchilla")
        true = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        data = grid_set(law, true, N_GRID, D_GRID)
        result = sl.fit(law, data, FitConfig(objective_space="log_loss"))
        assert result.objective_space == "log_loss"
        assert result.r2_train >= 1 - 1e-9


class TestLocalSolveParity:
    """fit's winner is the lowest final SSE over enumerate_starts run one
    by one through local_solve, ties to the lowest start index; replaying
    a fit start by start (as benchmarks/replay.py does) relies on it."""

    @pytest.mark.parametrize("law_id", ["shannon_full", "qid", "chinchilla"])
    def test_fit_equals_best_local_solve(self, law_id):
        law = sl.get_law(law_id)
        true = random_params(law, np.random.default_rng(200 + sl.LAW_IDS.index(law_id)))
        data = grid_set(law, true, N_GRID, D_GRID, x_levels=X_LEVELS)
        config = FitConfig(starts=4, random_starts=8, seed=3,
                           objective_space="log_loss", max_iters=300)
        result = sl.fit(law, data, config)
        best = None
        for index, start in enumerate(enumerate_starts(config, law.n_params)):
            try:
                params, sse, iterations, converged = sl.local_solve(law, data, start, config)
            except sl.FitError:
                continue
            if math.isfinite(sse) and (best is None or sse < best[1]):
                best = (index, sse, params, iterations, converged)
        assert best == (result.start_index_won, result.sse, result.params,
                        result.iterations_used, result.converged)


class TestRecoverySample:
    """A light per-law recovery check; the acceptance suite runs the
    100-seed version."""

    @pytest.mark.parametrize("law_id", list(sl.LAW_IDS))
    def test_recovery(self, law_id):
        law = sl.get_law(law_id)
        rng = np.random.default_rng(100 + sl.LAW_IDS.index(law_id))
        true = random_params(law, rng)
        data = grid_set(law, true, N_GRID, D_GRID, x_levels=[2.0, 4.0, 8.0, 16.0])
        extra = 24 if law_id == "qid" else 8
        config = FitConfig(starts=8, random_starts=extra, seed=0,
                           objective_space="log_loss", max_iters=300)
        result = sl.fit(law, data, config)
        pred = sl.predict_dataset(
            sl.with_orientation(law, result.x_orientation), result.params, data
        )
        rel = np.max(np.abs(pred - data.losses()) / data.losses())
        assert rel <= 1e-4
        assert result.r2_train >= 1 - 1e-6


class TestFitRecord:
    @pytest.mark.parametrize("law_id, orientation", [
        (law.law_id, orientation)
        for law in sl.law_registry()
        for orientation in (("mitigating", "amplifying") if law.needs_x else (None,))
    ])
    def test_round_trip(self, law_id, orientation):
        law = sl.get_law(law_id)
        result = sl.FitResult(
            law_id=law_id,
            params=sl.ParamVector(law_id, tuple(0.5 + i for i in range(law.n_params))),
            normalization=sl.Normalization(1e9, 2e8), sse=0.25, r2_train=0.9, n_obs=48,
            converged=False, iterations_used=17, start_index_won=3, seed=7,
            objective_space="log_loss", x_orientation=orientation,
        )
        assert fit_result_from_dict(result.to_dict()) == result
        assert fit_result_from_dict(json.loads(json.dumps(result.to_dict()))) == result


class TestFitConfigCounts:
    COUNTS = ["starts", "random_starts", "seed", "max_iters"]

    @pytest.mark.parametrize("name", COUNTS)
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True), "2", None],
                             ids=["float", "integral_float", "bool", "numpy_bool", "str", "none"])
    def test_non_integer_refused(self, name, value):
        with pytest.raises(sl.DataValidationError) as err:
            FitConfig(**{name: value})
        assert str(err.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("name", COUNTS)
    @pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), 3])
    def test_integer_stored_as_int(self, name, value):
        stored = getattr(FitConfig(**{name: value}), name)
        assert type(stored) is int and stored == 3

    def test_numpy_seed_round_trips(self, tmp_path):
        """The fit record of a numpy-integer seed is JSON that read_fit
        accepts and rebuilds into the same result."""
        law = sl.get_law("chinchilla")
        data = grid_set(law, sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5)),
                        N_GRID, D_GRID)
        result = sl.fit(law, data, FitConfig(starts=2, random_starts=1, seed=np.uint32(5),
                                             max_iters=50))
        assert type(result.seed) is int
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({"fit": result.to_dict()}), encoding="utf-8")
        assert read_fit(str(path)) == result
