"""Law registry, closed-form evaluation, domain errors, and Jacobians."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalelaws as sl
from scalelaws.laws import (
    AMPLIFYING,
    MITIGATING,
    evaluate_raw,
    evaluate_with_jacobian,
    jacobian_fd_arrays,
    log_inputs,
)

from synth import EXPONENT_NAMES, X_LEVELS, random_params

EXPECTED_PARAM_COUNTS = {
    "shannon_full": 9,
    "shannon_simplified": 6,
    "shannon_extended": 9,
    "openai": 4,
    "chinchilla": 5,
    "qid": 9,
    "precision": 9,
    "symmetric": 5,
    "asymmetric": 7,
    "shannon_sizeonly_ablation": 9,
}


class TestRegistry:
    def test_ten_laws_with_expected_arity(self):
        registry = sl.law_registry()
        assert [law.law_id for law in registry] == list(sl.LAW_IDS)
        for law in registry:
            assert law.n_params == EXPECTED_PARAM_COUNTS[law.law_id]
        assert sl.get_law("shannon_full").param_names == (
            "a", "b", "c", "d", "e", "alpha", "beta", "gamma", "delta"
        )
        assert sl.get_law("chinchilla").n_params == 5

    def test_needs_x_exactly_three(self):
        needing = {law.law_id for law in sl.law_registry() if law.needs_x}
        assert needing == {"qid", "precision", "shannon_extended"}

    def test_registry_stable(self):
        assert sl.law_registry() == sl.law_registry()

    def test_orientation_override(self):
        qid = sl.get_law("qid")
        assert qid.x_orientation == MITIGATING
        flipped = sl.with_orientation(qid, AMPLIFYING)
        assert flipped.x_orientation == AMPLIFYING
        with pytest.raises(sl.LawDomainError):
            sl.with_orientation(sl.get_law("chinchilla"), AMPLIFYING)

    def test_param_vector_validation(self):
        with pytest.raises(sl.LawDomainError):
            sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 1.0))  # arity
        with pytest.raises(sl.LawDomainError):
            sl.ParamVector("chinchilla", (1.0, -1.0, 1.0, 1.0, 1.0))  # sign
        with pytest.raises(sl.LawDomainError):
            sl.ParamVector("nope", (1.0,))
        params = sl.ParamVector.from_dict(
            "chinchilla", {"a": 2, "b": 3, "c": 1, "alpha": 0.5, "beta": 0.5}
        )
        assert params.values == (2.0, 3.0, 1.0, 0.5, 0.5)
        assert params.as_dict()["beta"] == 0.5


class TestCapacity:
    def test_hand_value_negligible_noise(self):
        """a=1, alpha=1, b=3, beta=1, tiny noise terms, e=1, n=2, d=1:
        SNR ~= 3 so C ~= 2*log2(4) = 4 and loss 1/4."""
        params = sl.ParamVector(
            "shannon_full", (1.0, 3.0, 1e-12, 1e-12, 1.0, 1.0, 1.0, 1.0, 1.0)
        )
        cap = sl.capacity(params, 2.0, 1.0)
        assert cap == pytest.approx(4.0, rel=1e-6)
        loss = sl.predict_loss(sl.get_law("shannon_full"), params, 2.0, 1.0)
        assert loss == pytest.approx(0.25, rel=1e-6)
        assert loss == pytest.approx(1.0 / cap, rel=1e-15)

    def test_snr_scale_invariance_exact_for_powers_of_two(self):
        """Scaling (b, c, d, e) by 2 leaves the prediction bit-identical."""
        rng = np.random.default_rng(11)
        law = sl.get_law("shannon_full")
        for _ in range(100):
            params = random_params(law, rng)
            a, b, c, d_coef, e, al, be, ga, de = params.values
            scaled = sl.ParamVector(
                "shannon_full", (a, 2 * b, 2 * c, 2 * d_coef, 2 * e, al, be, ga, de)
            )
            n = 10.0 ** rng.uniform(-1, 1)
            d = 10.0 ** rng.uniform(0, 2)
            assert sl.predict_loss(law, params, n, d) == sl.predict_loss(law, scaled, n, d)

    def test_extended_with_x1_matches_full(self):
        rng = np.random.default_rng(12)
        full = sl.get_law("shannon_full")
        extended = sl.get_law("shannon_extended")
        for _ in range(20):
            params_full = random_params(full, rng)
            params_ext = sl.ParamVector("shannon_extended", params_full.values)
            n = 10.0 ** rng.uniform(-1, 1)
            d = 10.0 ** rng.uniform(0, 2)
            assert sl.predict_loss(extended, params_ext, n, d, 1.0) == \
                sl.predict_loss(full, params_full, n, d)

    def test_capacity_rejects_baseline_laws(self):
        params = sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 0.5, 0.5))
        with pytest.raises(sl.LawDomainError):
            sl.capacity(params, 1.0, 1.0)

    def test_zero_capacity_is_error(self):
        """SNR underflow to 0 makes log2(1+SNR) exactly 0 -> domain error."""
        params = sl.ParamVector(
            "shannon_full", (1.0, 1e-300, 1e-3, 1e-3, 1e300, 1.0, 1.0, 1.0, 1.0)
        )
        with pytest.raises(sl.LawDomainError, match="zero capacity"):
            sl.capacity(params, 1.0, 1.0)
        with pytest.raises(sl.LawDomainError):
            sl.predict_loss(sl.get_law("shannon_full"), params, 1.0, 1.0)

    def test_snr_overflow_is_error(self):
        params = sl.ParamVector(
            "shannon_full", (1.0, 1e300, 1e-300, 1e-300, 1e-300, 1.0, 1.0, 1.0, 1.0)
        )
        with pytest.raises(sl.LawDomainError, match="SNR overflow"):
            sl.capacity(params, 1e4, 1e4)


class TestBaselineForms:
    def test_chinchilla_hand_value(self):
        params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 1.0, 1.0))
        assert sl.predict_loss(sl.get_law("chinchilla"), params, 1.0, 1.0) == 6.0

    def test_openai_hand_value(self):
        # [(a/n)^(alpha/beta) + b/d]^beta at a=2, b=3, alpha=1, beta=2, n=d=1
        params = sl.ParamVector("openai", (2.0, 3.0, 1.0, 2.0))
        expected = (math.sqrt(2.0) + 3.0) ** 2
        got = sl.predict_loss(sl.get_law("openai"), params, 1.0, 1.0)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_symmetric_hand_value(self):
        params = sl.ParamVector("symmetric", (2.0, 3.0, 1.0, 1.0, 1.0))
        # 2*n/d + 3*d/n + 1 at n=2, d=4 -> 1 + 6 + 1 = 8
        got = sl.predict_loss(sl.get_law("symmetric"), params, 2.0, 4.0)
        assert got == pytest.approx(8.0, rel=1e-15)

    def test_asymmetric_hand_value(self):
        params = sl.ParamVector("asymmetric", (2.0, 3.0, 1.0, 1.0, 1.0, 2.0, 2.0))
        # 2*n/d + 3*d^2/n^2 + 1 at n=2, d=4 -> 1 + 12 + 1 = 14
        got = sl.predict_loss(sl.get_law("asymmetric"), params, 2.0, 4.0)
        assert got == pytest.approx(14.0, rel=1e-15)

    def test_qid_orientations(self):
        ones = {"a": 1, "b": 1, "c": 1, "d": 1, "alpha": 1, "beta": 1,
                "alpha_prime": 1, "beta_prime": 1, "gamma": 1}
        params = sl.ParamVector.from_dict("qid", ones)
        qid = sl.get_law("qid")
        # base = 1/2 + 1/2 + 1 = 2 at n=d=2; penalty = 1*2*2*x^(+/-1)
        mitigating = sl.predict_loss(qid, params, 2.0, 2.0, 3.0)
        assert mitigating == pytest.approx(2.0 + 4.0 / 3.0, rel=1e-15)
        amplifying = sl.predict_loss(
            sl.with_orientation(qid, AMPLIFYING), params, 2.0, 2.0, 3.0
        )
        assert amplifying == pytest.approx(2.0 + 12.0, rel=1e-15)

    def test_precision_orientations(self):
        ones = {"a": 1, "b": 1, "c": 1, "d": 1, "alpha": 1, "beta": 1,
                "alpha_prime": 1, "beta_prime": 1, "gamma": 1}
        params = sl.ParamVector.from_dict("precision", ones)
        precision = sl.get_law("precision")
        mitigating = sl.predict_loss(precision, params, 2.0, 2.0, 3.0)
        assert mitigating == pytest.approx(2.0 + math.exp(-3.0), rel=1e-15)
        amplifying = sl.predict_loss(
            sl.with_orientation(precision, AMPLIFYING), params, 2.0, 2.0, 3.0
        )
        assert amplifying == pytest.approx(2.0 + math.exp(3.0), rel=1e-15)

    def test_qid_high_x_converges_to_chinchilla(self):
        """The mitigating penalty vanishes as x grows, leaving the shared
        base terms."""
        qid_params = sl.ParamVector.from_dict(
            "qid", {"a": 2, "b": 3, "c": 1, "d": 0.5, "alpha": 0.5, "beta": 0.5,
                    "alpha_prime": 0.4, "beta_prime": 0.6, "gamma": 1.2}
        )
        chin_params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.5, 0.5))
        qid_loss = sl.predict_loss(sl.get_law("qid"), qid_params, 3.0, 7.0, 1e12)
        chin_loss = sl.predict_loss(sl.get_law("chinchilla"), chin_params, 3.0, 7.0)
        assert qid_loss == pytest.approx(chin_loss, rel=1e-9)

    def test_baselines_strictly_decreasing(self):
        """Chinchilla and the exponentiated-sum form only have
        negative-power terms, so loss falls in both n and d."""
        rng = np.random.default_rng(5)
        grid = np.geomspace(0.05, 50.0, 12)
        for law_id in ("chinchilla", "openai"):
            law = sl.get_law(law_id)
            for _ in range(20):
                params = random_params(law, rng)
                along_n = sl.predict_loss(law, params, grid, 3.0)
                along_d = sl.predict_loss(law, params, 3.0, grid)
                assert np.all(np.diff(along_n) < 0)
                assert np.all(np.diff(along_d) < 0)


class TestShannonShapeProperties:
    def test_monotone_special_case(self):
        """With the noise interaction terms at the smallest positive
        doubles and a fixed floor, loss falls monotonically in n and d."""
        params = sl.ParamVector(
            "shannon_full", (1.0, 2.0, 5e-324, 5e-324, 0.5, 0.5, 0.5, 0.7, 1.2)
        )
        law = sl.get_law("shannon_full")
        grid = np.geomspace(1e-2, 1e3, 40)
        along_n = sl.predict_loss(law, params, grid, 5.0)
        along_d = sl.predict_loss(law, params, 5.0, grid)
        assert np.all(np.diff(along_n) < 0)
        assert np.all(np.diff(along_d) < 0)

    def test_u_shape_along_d_when_delta_exceeds_beta(self):
        params = sl.ParamVector(
            "shannon_full", (1.0, 2.0, 1e-4, 0.05, 0.1, 0.4, 0.5, 0.3, 1.4)
        )
        law = sl.get_law("shannon_full")
        grid = np.geomspace(1e-2, 1e5, 120)
        losses = sl.predict_loss(law, params, 2.0, grid)
        tail = np.diff(losses)[-10:]
        assert np.all(tail > 0)          # eventually increasing
        assert np.any(np.diff(losses) < 0)  # after an initial descent

    def test_u_shape_along_n_when_gamma_exceeds_alpha(self):
        params = sl.ParamVector(
            "shannon_full", (1.0, 2.0, 0.05, 1e-4, 0.1, 0.35, 0.5, 0.75, 0.4)
        )
        law = sl.get_law("shannon_full")
        grid = np.geomspace(1e-2, 1e5, 120)
        losses = sl.predict_loss(law, params, grid, 2.0)
        tail = np.diff(losses)[-10:]
        assert np.all(tail > 0)
        assert np.any(np.diff(losses) < 0)

    def test_loss_vanishes_as_capacity_grows(self):
        params = sl.ParamVector(
            "shannon_full", (1.0, 2.0, 5e-324, 5e-324, 0.5, 0.5, 0.5, 0.7, 1.2)
        )
        law = sl.get_law("shannon_full")
        grid = np.geomspace(1.0, 1e6, 30)
        losses = np.asarray(sl.predict_loss(law, params, grid, grid))
        assert np.all(np.diff(losses) < 0)
        assert losses[-1] < 1e-3
        assert np.all(losses > 0)

    def test_sizeonly_ablation_ignores_d_in_interaction(self):
        """The ablation's interaction term depends on n alone: scaling d
        while holding n changes only the signal and data-noise terms."""
        full = sl.ParamVector(
            "shannon_full", (1.0, 1.0, 0.5, 1e-300, 1e-300, 0.5, 0.5, 0.8, 0.5)
        )
        ablation = sl.ParamVector(
            "shannon_sizeonly_ablation", full.values
        )
        law_f = sl.get_law("shannon_full")
        law_a = sl.get_law("shannon_sizeonly_ablation")
        # with d = 1 the (d*n)^gamma and n^gamma terms coincide
        assert sl.predict_loss(law_f, full, 3.0, 1.0) == \
            sl.predict_loss(law_a, ablation, 3.0, 1.0)
        # with d != 1 they differ
        assert sl.predict_loss(law_f, full, 3.0, 4.0) != \
            sl.predict_loss(law_a, ablation, 3.0, 4.0)


class TestDomainValidation:
    def test_nonpositive_inputs(self):
        law = sl.get_law("chinchilla")
        params = sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 0.5, 0.5))
        with pytest.raises(sl.LawDomainError):
            sl.predict_loss(law, params, 0.0, 1.0)
        with pytest.raises(sl.LawDomainError):
            sl.predict_loss(law, params, 1.0, -2.0)

    def test_x_presence_must_match_law(self):
        chin = sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 0.5, 0.5))
        with pytest.raises(sl.LawDomainError, match="takes no x"):
            sl.predict_loss(sl.get_law("chinchilla"), chin, 1.0, 1.0, 4.0)
        ones = {"a": 1, "b": 1, "c": 1, "d": 1, "alpha": 1, "beta": 1,
                "alpha_prime": 1, "beta_prime": 1, "gamma": 1}
        qid_params = sl.ParamVector.from_dict("qid", ones)
        with pytest.raises(sl.LawDomainError, match="requires x"):
            sl.predict_loss(sl.get_law("qid"), qid_params, 1.0, 1.0)

    def test_power_form_x_must_be_positive(self):
        ones = {"a": 1, "b": 1, "c": 1, "d": 1, "alpha": 1, "beta": 1,
                "alpha_prime": 1, "beta_prime": 1, "gamma": 1}
        qid_params = sl.ParamVector.from_dict("qid", ones)
        with pytest.raises(sl.LawDomainError, match="x > 0"):
            sl.predict_loss(sl.get_law("qid"), qid_params, 1.0, 1.0, 0.0)
        # the exponential-decay form accepts any finite x
        prec_params = sl.ParamVector.from_dict("precision", ones)
        value = sl.predict_loss(sl.get_law("precision"), prec_params, 1.0, 1.0, -2.0)
        assert value > 0

    def test_mismatched_params_law(self):
        chin = sl.ParamVector("chinchilla", (1.0, 1.0, 1.0, 0.5, 0.5))
        with pytest.raises(sl.LawDomainError):
            sl.predict_loss(sl.get_law("openai"), chin, 1.0, 1.0)


def _toy_set(n_rows=6):
    observations = tuple(
        sl.Observation("m", float(i + 1) * 1e9, float(i + 2) * 2e9, 1.0)
        for i in range(n_rows)
    )
    return sl.ObservationSet(observations)


class TestJacobian:
    def test_chinchilla_coefficient_column_matches_analytic(self):
        """d(loss)/da = n^(-alpha); in the log coordinate the column is
        a * n^(-alpha)."""
        data = _toy_set()
        params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.6, 0.4))
        jac = sl.jacobian_fd(sl.get_law("chinchilla"), params, data)
        n = data.n_norm()
        expected = 2.0 * n ** -0.6
        np.testing.assert_allclose(jac[:, 0], expected, rtol=1e-6)
        # and the constant-term column is just c
        np.testing.assert_allclose(jac[:, 2], np.full(len(data), 1.0), rtol=1e-6)

    def test_zero_step_rejected(self):
        params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.6, 0.4))
        with pytest.raises(sl.LawDomainError):
            sl.jacobian_fd(sl.get_law("chinchilla"), params, _toy_set(), step_rel=0.0)
        with pytest.raises(sl.LawDomainError):
            sl.jacobian_fd(sl.get_law("chinchilla"), params, _toy_set(), step_rel=0.5)

    def test_duplicate_observations_duplicate_rows(self):
        observations = (
            sl.Observation("m1", 2e9, 3e9, 1.0),
            sl.Observation("m2", 2e9, 3e9, 1.0),
        )
        data = sl.ObservationSet(observations)
        params = sl.ParamVector("chinchilla", (2.0, 3.0, 1.0, 0.6, 0.4))
        jac = sl.jacobian_fd(sl.get_law("chinchilla"), params, data)
        np.testing.assert_array_equal(jac[0], jac[1])


GOLDEN_VALUES = {"a": 1.2, "b": 2.0, "c": 0.004, "d": 0.01, "e": 0.3, "alpha": 0.45,
                 "beta": 0.55, "gamma": 0.6, "delta": 1.1, "alpha_prime": 0.4,
                 "beta_prime": 0.35}
GOLDEN_N = [0.16, 2.8, 12.0]
GOLDEN_D = [4.2, 37.0, 307.0]
GOLDEN_X = [2.0, 8.0, 16.0]
GOLDEN_SCALAR = (1.0, 10.0, 4.0)

# float.hex of predict_loss at GOLDEN_VALUES: the three array points,
# then the scalar point.
GOLDEN_LOSSES = {
    ("shannon_full", None): ["0x1.0307304222876p-1", "0x1.0540fd2ad0438p-3",
                             "0x1.6b1f878dc2c8fp-4", "0x1.a1014137772cep-3"],
    ("shannon_simplified", None): ["0x1.c2accb4da4fc1p+1", "0x1.6a21bb18eba3fp+1",
                                   "0x1.203362b2dc649p+2", "0x1.2a1b5d3e38647p+1"],
    ("shannon_extended", MITIGATING): ["0x1.9de3d2e98017dp-2", "0x1.314480d885aadp-4",
                                       "0x1.434b96e0d637cp-5", "0x1.1b21ab4fc7fecp-3"],
    ("shannon_extended", AMPLIFYING): ["0x1.5444491f3bf4bp-1", "0x1.4f54dab817eecp-2",
                                       "0x1.fbe06b6e60645p-2", "0x1.6ecf6a8dcb943p-2"],
    ("openai", None): ["0x1.4c98f9f078eafp+1", "0x1.72003dbf885d9p-1",
                       "0x1.73d02a74a1376p-2", "0x1.2f46f004c6950p+0"],
    ("chinchilla", None): ["0x1.d32806a3ad0c6p+1", "0x1.0893fe1407bc0p+0",
                           "0x1.ed8786dacd50ep-2", "0x1.c48673e7dc705p+0"],
    ("qid", MITIGATING): ["0x1.d3d3aa586f079p+1", "0x1.0c8170d95f5b2p+0",
                          "0x1.0a3787520511bp-1", "0x1.c70513290fee5p+0"],
    ("qid", AMPLIFYING): ["0x1.d4b2599357b1bp+1", "0x1.3833ca3996351p+0",
                          "0x1.8a5414878d210p+0", "0x1.d1b11ecf28a13p+0"],
    ("precision", MITIGATING): ["0x1.d3503b6068a18p+1", "0x1.0893feb719a9bp+0",
                                "0x1.ed8786dacda20p-2", "0x1.c48851e6947b4p+0"],
    ("precision", AMPLIFYING): ["0x1.e1c5ede8fae38p+1", "0x1.f0e6a66f7a6dap+1",
                                "0x1.960a3a26379a6p+8", "0x1.01d9a75dae46cp+1"],
    ("symmetric", None): ["0x1.49391de3a7642p+3", "0x1.2de91feb78692p+3",
                          "0x1.ed3992d96cde1p+3", "0x1.dc0ff42585efcp+2"],
    ("asymmetric", None): ["0x1.c7cbed2a0858dp+2", "0x1.3d13177ab682ep+2",
                           "0x1.69ea970fe0bcbp+2", "0x1.34751dd853342p+2"],
    ("shannon_sizeonly_ablation", None): ["0x1.028d17d03c89dp-1", "0x1.ff4d236bf217ep-4",
                                          "0x1.5e35c0d57bd9fp-4", "0x1.9d3ff87b8fe26p-3"],
}


def _oriented_laws():
    return [
        (law, orientation)
        for law in sl.law_registry()
        for orientation in ((MITIGATING, AMPLIFYING) if law.needs_x else (None,))
    ]


class TestGoldenPredictions:
    def test_cases_cover_every_law_and_orientation(self):
        assert sorted(GOLDEN_LOSSES, key=str) == sorted(
            ((law.law_id, orientation) for law, orientation in _oriented_laws()), key=str
        )

    @pytest.mark.parametrize("law_id,orientation", list(GOLDEN_LOSSES))
    def test_bit_identical(self, law_id, orientation):
        law = sl.with_orientation(sl.get_law(law_id), orientation)
        params = sl.ParamVector.from_dict(law_id, GOLDEN_VALUES)
        x = np.array(GOLDEN_X) if law.needs_x else None
        n, d, x_scalar = GOLDEN_SCALAR
        values = sl.predict_loss(law, params, np.array(GOLDEN_N), np.array(GOLDEN_D), x)
        scalar = sl.predict_loss(law, params, n, d, x_scalar if law.needs_x else None)
        got = [float(v).hex() for v in values] + [scalar.hex()]
        assert got == GOLDEN_LOSSES[(law_id, orientation)]


# The recovery grid of tests/test_fitter.py, crossed with X_LEVELS.
_GRID_N, _GRID_D, _GRID_X = (
    axis.ravel() for axis in np.meshgrid(
        np.geomspace(0.16, 12.0, 6), np.geomspace(4.0, 310.0, 8), X_LEVELS, indexing="ij"
    )
)


class TestAnalyticGradient:
    """Every law's gradient row equals the finite-difference oracle.

    Entries agree to 1e-6 relative to the entry or, for entries far
    smaller than the loss, to the loss at that point: the oracle's own
    rounding error scales with the loss. Capacity-family draws need
    SNR >= 1e-3 everywhere, because below that the oracle differences
    log2(1 + SNR) after 1 + SNR has already lost most of SNR's digits.
    """

    @pytest.mark.parametrize(
        "law,orientation", _oriented_laws(),
        ids=[f"{law.law_id}-{o}" for law, o in _oriented_laws()],
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_finite_differences(self, law, orientation, data):
        exponent = st.floats(min_value=0.05, max_value=2.0)
        coefficient = st.floats(min_value=-3.0, max_value=3.0).map(math.exp)
        theta = np.array([
            data.draw(exponent if name in EXPONENT_NAMES else coefficient)
            for name in law.param_names
        ])
        oriented = sl.with_orientation(law, orientation)
        n, d = _GRID_N, _GRID_D
        x = _GRID_X if law.needs_x else None
        if law.capacity_family:
            _, snr = oriented.evaluator(tuple(theta), n, d, x, oriented.x_orientation)
            assume(snr.min() >= 1e-3)
        loss, jac = evaluate_with_jacobian(oriented, theta, n, d, x, log_inputs(oriented, n, d, x))
        np.testing.assert_array_equal(loss, evaluate_raw(oriented, theta, n, d, x))
        oracle = jacobian_fd_arrays(oriented, theta, n, d, x, 1e-6)
        assert jac.shape == oracle.shape == (n.size, law.n_params)
        assert np.all(np.abs(jac - oracle) <= 1e-6 * (np.abs(oracle) + loss[:, None]))


class TestPredictLossProperty:
    """Random positive parameters and inputs either evaluate to finite
    positive losses or raise LawDomainError; inf and NaN never escape."""

    @pytest.mark.parametrize(
        "law,orientation", _oriented_laws(),
        ids=[f"{law.law_id}-{o}" for law, o in _oriented_laws()],
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_finite_positive_or_domain_error(self, law, orientation, data):
        positive = st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                             st.floats(min_value=1e-300, max_value=1e300))
        oriented = sl.with_orientation(law, orientation)
        params = sl.ParamVector(
            law.law_id, tuple(data.draw(positive) for _ in range(law.n_params))
        )
        points = data.draw(st.lists(
            st.tuples(positive, positive, positive), min_size=1, max_size=3
        ))
        n, d, x = (np.array(column) for column in zip(*points))
        try:
            values = sl.predict_loss(oriented, params, n, d, x if law.needs_x else None)
        except sl.LawDomainError:
            return
        assert np.all(np.isfinite(values))
        assert np.all(np.asarray(values) > 0)

    def test_capacity_with_infinite_reciprocal_is_error(self):
        """A subnormal capacity is positive, but its reciprocal is inf."""
        params = sl.ParamVector(
            "shannon_full", (1e-307, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        )
        assert 0.0 < sl.capacity(params, 0.01, 1.0) < 1e-308
        with pytest.raises(sl.LawDomainError, match="overflowed"):
            sl.predict_loss(sl.get_law("shannon_full"), params, 0.01, 1.0)
