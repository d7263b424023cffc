"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every expected value
here is either computed by an independent oracle coded in this file or
is a hand-verifiable constant; tolerances and runtime bounds are
asserted as stated in each docstring.
"""

import csv
import json
import math
import time

import numpy as np

import scalelaws as sl
from scalelaws.cli import main
from scalelaws.fitter import FitConfig

from synth import (
    SNR_LEVELS,
    X_LEVELS,
    grid_set,
    random_params,
    shannon_level_set,
)

N_GRID = np.geomspace(0.16, 12.0, 6)
D_GRID = np.geomspace(4.0, 310.0, 8)

# Per-law fit configuration for the recovery suite (criterion 3); the
# harder 9-parameter forms get more random starts.
RECOVERY_CONFIGS = {
    "qid": dict(starts=8, random_starts=24),
    "shannon_full": dict(starts=4, random_starts=8),
    "shannon_extended": dict(starts=4, random_starts=8),
    "shannon_sizeonly_ablation": dict(starts=4, random_starts=8),
    "precision": dict(starts=4, random_starts=8),
}
RECOVERY_DEFAULT = dict(starts=4, random_starts=4)


def _passed(number, text):
    print(f"[criterion {number:02d}] PASS - {text}")


# ---------------------------------------------------------------------
# Criterion 1: law-evaluation oracle
# ---------------------------------------------------------------------

def oracle_loss(law_id, p, n, d, x, orientation):
    """Straight-line scalar re-implementation of every closed form."""
    if law_id in ("shannon_full", "shannon_extended", "shannon_sizeonly_ablation"):
        numerator = p["b"] * d ** p["beta"]
        if law_id == "shannon_extended":
            numerator = numerator * x if orientation == "mitigating" else numerator / x
        if law_id == "shannon_sizeonly_ablation":
            denominator = p["c"] * n ** p["gamma"] + p["d"] * d ** p["delta"] + p["e"]
        else:
            denominator = p["c"] * (d * n) ** p["gamma"] + p["d"] * d ** p["delta"] + p["e"]
        capacity = p["a"] * n ** p["alpha"] * math.log2(1.0 + numerator / denominator)
        return 1.0 / capacity
    if law_id == "shannon_simplified":
        snr = d ** p["beta"] / (p["c"] * (d * n) ** p["gamma"] + d ** p["delta"])
        return 1.0 / (p["a"] * n ** p["alpha"] * math.log2(1.0 + snr))
    if law_id == "openai":
        return ((p["a"] / n) ** (p["alpha"] / p["beta"]) + p["b"] / d) ** p["beta"]
    if law_id == "chinchilla":
        return p["a"] / n ** p["alpha"] + p["b"] / d ** p["beta"] + p["c"]
    if law_id == "qid":
        base = p["a"] / n ** p["alpha"] + p["b"] / d ** p["beta"] + p["c"]
        power = -p["gamma"] if orientation == "mitigating" else p["gamma"]
        return base + p["d"] * n ** p["alpha_prime"] * d ** p["beta_prime"] * x ** power
    if law_id == "precision":
        base = p["a"] / n ** p["alpha"] + p["b"] / d ** p["beta"] + p["c"]
        factor = math.exp(-x / p["gamma"]) if orientation == "mitigating" \
            else math.exp(p["gamma"] * x)
        return base + p["d"] * (d ** p["beta_prime"] / n ** p["alpha_prime"]) * factor
    if law_id == "symmetric":
        return (p["a"] * n ** p["alpha"] / d ** p["beta"]
                + p["b"] * d ** p["beta"] / n ** p["alpha"] + p["c"])
    if law_id == "asymmetric":
        return (p["a"] * n ** p["alpha"] / d ** p["beta"]
                + p["b"] * d ** p["beta_prime"] / n ** p["alpha_prime"] + p["c"])
    raise AssertionError(law_id)


def test_criterion_01_law_evaluation_oracle():
    """Every law, 100 random parameter vectors x 25 grid points, within
    1e-12 relative of the scalar oracle; runtime under 5 s."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    points = [(n, d) for n in np.geomspace(0.1, 10.0, 5)
              for d in np.geomspace(1.0, 100.0, 5)]
    for law in sl.law_registry():
        for trial in range(100):
            values = {}
            for name in law.param_names:
                if name in ("alpha", "beta", "gamma", "delta",
                            "alpha_prime", "beta_prime"):
                    values[name] = float(rng.uniform(0.3, 1.2))
                else:
                    values[name] = float(10.0 ** rng.uniform(-1.0, 1.0))
            params = sl.ParamVector(law.law_id, tuple(values[n] for n in law.param_names))
            orientation = law.x_orientation
            if law.needs_x and trial % 2 == 1:
                orientation = "amplifying"
            oriented = sl.with_orientation(law, orientation) if law.needs_x else law
            x = float(rng.uniform(2.0, 16.0)) if law.needs_x else None
            for n, d in points:
                mine = sl.predict_loss(oriented, params, n, d, x)
                ref = oracle_loss(law.law_id, values, n, d, x, orientation)
                assert abs(mine - ref) <= 1e-12 * abs(ref), (law.law_id, values, n, d)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    _passed(1, f"10 laws x 100 params x 25 points within 1e-12 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------
# Criterion 2: SNR scale invariance
# ---------------------------------------------------------------------

def test_criterion_02_snr_scale_invariance():
    """Scaling (b, c, d, e) jointly leaves the full capacity law's
    prediction unchanged to 1e-12 relative over 1000 random draws."""
    start = time.monotonic()
    rng = np.random.default_rng(202)
    law = sl.get_law("shannon_full")
    for _ in range(1000):
        params = random_params(law, rng)
        a, b, c, d_coef, e, al, be, ga, de = params.values
        n = float(10.0 ** rng.uniform(-1.5, 1.5))
        d = float(10.0 ** rng.uniform(-1.0, 2.5))
        base = sl.predict_loss(law, params, n, d)
        for lam in (0.5, 2.0, 10.0):
            scaled = sl.ParamVector(
                "shannon_full",
                (a, lam * b, lam * c, lam * d_coef, lam * e, al, be, ga, de),
            )
            other = sl.predict_loss(law, scaled, n, d)
            assert abs(other - base) <= 1e-12 * abs(base)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"invariance sweep took {elapsed:.2f}s"
    _passed(2, f"(b,c,d,e) scaling by 0.5/2/10 invariant to 1e-12 ({elapsed:.2f}s)")


# ---------------------------------------------------------------------
# Criterion 3: fit recovery
# ---------------------------------------------------------------------

def recovery_trial(law, seed):
    rng = np.random.default_rng(10_000 + seed)
    true = random_params(law, rng)
    data = grid_set(law, true, N_GRID, D_GRID, x_levels=X_LEVELS)
    config = FitConfig(
        seed=seed, max_iters=300, objective_space="log_loss",
        **RECOVERY_CONFIGS.get(law.law_id, RECOVERY_DEFAULT),
    )
    result = sl.fit(law, data, config)
    oriented = sl.with_orientation(law, result.x_orientation)
    pred = sl.predict_dataset(oriented, result.params, data)
    rel = float(np.max(np.abs(pred - data.losses()) / data.losses()))
    ok = rel <= 1e-4 and result.r2_train is not None and result.r2_train >= 1 - 1e-6
    return ok, result


def test_criterion_03_fit_recovery():
    """Noiseless synthetic data on a 6x8 log grid (4 X levels for X-aware
    laws) is refit to max relative prediction error 1e-4 and train R^2
    over 1 - 1e-6 for at least 95 of 100 seeds per law, in under 3 min."""
    start = time.monotonic()
    summary = []
    for law in sl.law_registry():
        ok = sum(recovery_trial(law, seed)[0] for seed in range(100))
        assert ok >= 95, f"{law.law_id}: only {ok}/100 recoveries"
        summary.append(f"{law.law_id}={ok}")
    elapsed = time.monotonic() - start
    assert elapsed < 180.0, f"recovery suite took {elapsed:.0f}s"
    _passed(3, f"recoveries/100: {', '.join(summary)} ({elapsed:.0f}s)")


# ---------------------------------------------------------------------
# Criterion 4: metrics oracle
# ---------------------------------------------------------------------

def oracle_r2(pred, obs):
    mean = math.fsum(obs) / len(obs)
    ss_tot = math.fsum((o - mean) ** 2 for o in obs)
    ss_res = math.fsum((p - o) ** 2 for p, o in zip(pred, obs))
    return 1.0 - ss_res / ss_tot


def test_criterion_04_metrics_oracle():
    """r_squared and pooled_r_squared match the definitional oracle
    exactly on 1000 random group configurations; the hand example
    (obs [1,2,3], pred [1,2,4]) is 0.5 within 1e-15."""
    hand = sl.r_squared(sl.EvalPairs.of([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]))
    assert abs(hand - 0.5) <= 1e-15

    rng = np.random.default_rng(404)
    checked = 0
    negatives = 0
    while checked < 1000:
        n_groups = int(rng.integers(1, 6))
        groups = []
        all_pred, all_obs = [], []
        for _ in range(n_groups):
            size = int(rng.integers(1, 12))
            obs = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), size)
            if rng.uniform() < 0.3:
                pred = obs + rng.normal(0, 10, size)  # bad fits: negative R^2
            else:
                pred = obs + rng.normal(0, 0.1, size)
            groups.append(sl.EvalPairs.of(pred, obs))
            all_pred.extend(float(v) for v in pred)
            all_obs.extend(float(v) for v in obs)
        if len(all_obs) < 2:
            continue
        pooled = sl.pooled_r_squared(groups)
        assert pooled == oracle_r2(all_pred, all_obs)
        negatives += pooled < 0
        for g in groups:
            if len(g) >= 2 and len(set(g.observed)) > 1:
                assert sl.r_squared(g) == oracle_r2(g.predicted, g.observed)
        checked += 1
    assert negatives > 0, "the random sweep should include negative-R^2 cases"
    _passed(4, f"1000 pooled configs exact, {negatives} negative-R^2 cases included")


# ---------------------------------------------------------------------
# Criterion 5: split correctness
# ---------------------------------------------------------------------

def _rect_design(rng, n_models, n_ckpts, n_levels):
    sizes = np.sort(rng.uniform(1e8, 2e10, n_models))
    tokens = np.sort(rng.uniform(1e9, 5e11, n_ckpts))
    levels = [float(10 * (i + 1)) for i in range(n_levels)]
    observations = tuple(
        sl.Observation(f"m{i}", float(n), float(d), 1.0 + 0.1 * i, x_level=level)
        for i, n in enumerate(sizes) for d in tokens for level in levels
    )
    return sl.ObservationSet(observations), sizes, tokens, levels


def test_criterion_05_split_correctness():
    """Token/model/joint splits over randomized designs: exact counted
    cardinalities, partition (token/model), nesting in j and k, and
    joint-train containment; under 10 s."""
    start = time.monotonic()

    data = shannon_level_set()
    train, test = sl.make_split(data, sl.SplitSpec("token", j=12))
    assert (len(train), len(test)) == (432, 144)

    rng = np.random.default_rng(505)
    for _ in range(40):
        n_models = int(rng.integers(2, 9))
        n_ckpts = int(rng.integers(4, 21))
        n_levels = int(rng.integers(1, 7))
        data, sizes, tokens, levels = _rect_design(rng, n_models, n_ckpts, n_levels)
        total = n_models * n_ckpts * n_levels

        j = int(rng.integers(1, n_ckpts))
        train, test = sl.make_split(data, sl.SplitSpec("token", j=j))
        assert len(train) == n_models * j * n_levels
        assert len(test) == total - len(train)
        assert sorted(o.key() for o in train) + sorted(o.key() for o in test) and \
            sorted([o.key() for o in train] + [o.key() for o in test]) == \
            sorted(o.key() for o in data)

        k = int(rng.integers(1, n_models))
        train_m, test_m = sl.make_split(data, sl.SplitSpec("model", k=k))
        assert len(train_m) == k * n_ckpts * n_levels
        assert len(test_m) == total - len(train_m)

        if n_ckpts >= 3:
            j1 = int(rng.integers(1, n_ckpts - 1))
            j2 = int(rng.integers(j1, n_ckpts))
            t1 = set(o.key() for o in sl.make_split(data, sl.SplitSpec("token", j=j1))[0])
            t2 = set(o.key() for o in sl.make_split(data, sl.SplitSpec("token", j=j2))[0])
            assert t1 <= t2
        if n_models >= 3:
            k1 = int(rng.integers(1, n_models - 1))
            k2 = int(rng.integers(k1, n_models))
            m1 = set(o.key() for o in sl.make_split(data, sl.SplitSpec("model", k=k1))[0])
            m2 = set(o.key() for o in sl.make_split(data, sl.SplitSpec("model", k=k2))[0])
            assert m1 <= m2

        if j < n_ckpts:
            try:
                joint_train, joint_test = sl.make_split(
                    data, sl.SplitSpec("joint", j=j, k=k)
                )
            except sl.SplitError:
                continue  # empty joint test set is a legal refusal
            token_train = set(o.key() for o in sl.make_split(data, sl.SplitSpec("token", j=j))[0])
            model_train = set(o.key() for o in sl.make_split(data, sl.SplitSpec("model", k=k))[0])
            jt = set(o.key() for o in joint_train)
            assert jt <= token_train & model_train
            assert len(joint_train) == k * j * n_levels
            assert not (jt & set(o.key() for o in joint_test))

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"split sweep took {elapsed:.1f}s"
    _passed(5, f"40 random designs + 6x16x6 j=12 -> 432/144 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------
# Criterion 6: extrapolation self-consistency
# ---------------------------------------------------------------------

def _criterion6_report():
    data = shannon_level_set()
    law = sl.get_law("shannon_full")
    config = FitConfig(starts=8, random_starts=8, seed=0,
                       objective_space="log_loss", max_iters=400)
    return data, sl.run_extrapolation(
        data, law, sl.SplitSpec("joint", j=12, k=5), config
    )


def test_criterion_06_extrapolation_self_consistency():
    """Data generated exactly from the full capacity law per level on the
    6x16x6 design: pooled R^2 over the joint (k=5, j=12) held-out set is
    at least 1 - 1e-6, while the train-mean predictor scores below 0.5.
    Under 1 min."""
    start = time.monotonic()
    data, report = _criterion6_report()
    assert report.pooled_r2 >= 1 - 1e-6

    train, test = sl.make_split(data, sl.SplitSpec("joint", j=12, k=5))
    means = {level: float(np.mean(g.losses()))
             for level, g in sl.group_by_level(train)}
    baseline_groups = [
        sl.EvalPairs.of(np.full(len(g), means[level]), g.losses())
        for level, g in sl.group_by_level(test)
    ]
    baseline = sl.pooled_r_squared(baseline_groups)
    assert baseline < 0.5
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"self-consistency run took {elapsed:.0f}s"
    _passed(6, f"pooled={report.pooled_r2:.9f}, mean-predictor={baseline:.3f} "
               f"({elapsed:.0f}s)")


# ---------------------------------------------------------------------
# Criterion 7: SNR calibration
# ---------------------------------------------------------------------

CALIBRATION_TARGETS = [0.0, 10.0, 15.0, 20.0, 30.0, 40.0]


def _criterion7_outputs():
    rng = np.random.default_rng(707)
    weights = sl.WeightVector(rng.normal(0.0, 0.02, 1_000_000))
    outputs = []
    for i, target in enumerate(CALIBRATION_TARGETS):
        perturbed, report = sl.inject(weights, target, seed=4200 + i)
        outputs.append((weights, perturbed, report, target))
    return outputs


def test_criterion_07_snr_calibration():
    """Injection at 0/10/15/20/30/40 dB into a 10^6-element vector lands
    within 0.2 dB of target, and report.sigma2 equals the closed form
    bit for bit. Under 10 s."""
    start = time.monotonic()
    for weights, perturbed, report, target in _criterion7_outputs():
        measured = sl.measure_snr(weights, perturbed)
        assert abs(measured - target) <= 0.2, (target, measured)
        assert report.sigma2 == sl.noise_sigma2(sl.signal_power(weights), target)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"calibration took {elapsed:.1f}s"
    _passed(7, f"6 targets within 0.2 dB at 1e6 elements ({elapsed:.1f}s)")


# ---------------------------------------------------------------------
# Criterion 8: basin behavior
# ---------------------------------------------------------------------

def test_criterion_08_basin_behavior():
    """(a) dominant noise exponents give an interior minimum; (b) the
    additive power law bottoms out at the far corner; (c) detection
    agrees with an exhaustive scan on 100 random grids. Under 30 s."""
    start = time.monotonic()

    params = sl.ParamVector(
        "shannon_full", (1.0, 2.0, 0.05, 0.005, 0.05, 0.2, 0.8, 0.7, 1.6)
    )
    spec = sl.GridSpec(1e-2, 1e3, 1e-2, 1e3, 25, 25)
    grid = sl.grid_eval(sl.get_law("shannon_full"), params, spec)
    report = sl.detect_basin(grid)
    assert report.has_interior_minimum
    assert report.monotonic_n == "u_shaped" and report.monotonic_d == "u_shaped"

    chin = sl.ParamVector("chinchilla", (1.0, 1.0, 0.5, 0.7, 0.6))
    chin_grid = sl.grid_eval(sl.get_law("chinchilla"),
                             chin, sl.GridSpec(0.1, 10.0, 1.0, 100.0, 9, 9))
    chin_report = sl.detect_basin(chin_grid)
    assert not chin_report.has_interior_minimum
    assert chin_report.argmin == (chin_grid.n_values[-1], chin_grid.d_values[-1])
    assert chin_report.monotonic_n == "decreasing"
    assert chin_report.monotonic_d == "decreasing"

    from test_landscape import synthetic_grid  # reuse the manual-grid builder
    rng = np.random.default_rng(808)
    for _ in range(100):
        shape = (int(rng.integers(3, 12)), int(rng.integers(3, 12)))
        values = np.exp(rng.normal(0, 1, shape))
        g = synthetic_grid(values)
        rep = sl.detect_basin(g)
        best = None
        for i in range(shape[0]):
            for j in range(shape[1]):
                if best is None or values[i, j] < best[0]:
                    best = (values[i, j], i, j)
        _, bi, bj = best
        assert rep.min_value == values[bi, bj]
        assert rep.argmin == (g.n_values[bi], g.d_values[bj])
        assert rep.has_interior_minimum == (0 < bi < shape[0] - 1 and 0 < bj < shape[1] - 1)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"basin checks took {elapsed:.1f}s"
    _passed(8, f"interior basin, corner baseline, 100 scans agree ({elapsed:.1f}s)")


# ---------------------------------------------------------------------
# Criterion 9: exponent report
# ---------------------------------------------------------------------

def test_criterion_09_exponent_report():
    """Reference pretraining exponents alpha=0.302, gamma=0.299,
    beta=0.402, delta=0.745 -> bandwidth_dominates / noise_dominates."""
    params = sl.ParamVector.from_dict(
        "shannon_full",
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0,
         "alpha": 0.302, "beta": 0.402, "gamma": 0.299, "delta": 0.745},
    )
    fit_result = sl.FitResult(
        law_id="shannon_full", params=params,
        normalization=sl.Normalization(1e9, 1e9), sse=0.0, r2_train=1.0,
        n_obs=1, converged=True, iterations_used=0, start_index_won=0,
        seed=0, objective_space="loss",
    )
    report = sl.exponent_report(fit_result)
    assert report.n_axis_verdict == "bandwidth_dominates"
    assert report.d_axis_verdict == "noise_dominates"
    _passed(9, "alpha>gamma -> bandwidth_dominates; delta>beta -> noise_dominates")


# ---------------------------------------------------------------------
# Criterion 10: replication harness (structural)
# ---------------------------------------------------------------------

def _write_measurement_csv(path, data):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_id", "n_params", "d_tokens", "x_level", "loss"])
        for o in data:
            writer.writerow([o.model_id, repr(o.n_params), repr(o.d_tokens),
                             repr(o.x_level), repr(o.loss)])
    return str(path)


def test_criterion_10_replication_harness(tmp_path, capsys):
    """With a measurement CSV in the experiment shape (models x token
    checkpoints x SNR levels), the compare and extrapolate commands emit
    the published table layouts: capacity-family rows first in registry
    order, one column per level plus Avg +- Std, and pooled R^2 defined
    as R^2 of the concatenated held-out predictions. Numeric agreement
    with published values is reported only when the original
    measurements are supplied (SCALELAWS_PAPER_CSV), never gated."""
    data = shannon_level_set()
    path = _write_measurement_csv(tmp_path / "measurements.csv", data)

    cmp_out = tmp_path / "compare.json"
    code = main([
        "compare", "--data", path, "--laws", "all", "--group-by-level",
        "--x-orientation", "mitigating", "--x-fit-mode", "joint",
        "--seed", "0", "--starts", "4", "--random-starts", "4",
        "--objective", "log_loss", "--max-iters", "200",
        "--out", str(cmp_out), "--no-timestamp",
    ])
    capsys.readouterr()
    assert code == 0
    table = json.loads(cmp_out.read_text())["comparison"]
    assert [row["law_id"] for row in table["rows"]] == list(sl.LAW_IDS)
    assert table["levels"] == [str(level) for level in sorted(SNR_LEVELS)]
    for row in table["rows"]:
        assert set(c["level"] for c in row["cells"]) == set(table["levels"])
        assert "avg" in row and "std" in row
    assert table["std_kind"] == "population"

    laws = ["shannon_full", "shannon_simplified", "chinchilla", "openai"]
    ext_out = tmp_path / "extrap.json"
    code = main([
        "extrapolate", "--data", path, "--laws", ",".join(laws),
        "--mode", "token", "--j", "8,12,15",
        "--seed", "0", "--starts", "4", "--random-starts", "8",
        "--objective", "log_loss", "--max-iters", "300",
        "--out", str(ext_out), "--no-timestamp",
    ])
    capsys.readouterr()
    assert code == 0
    sweep = json.loads(ext_out.read_text())["sweep"]
    assert sweep["columns"] == ["j=8", "j=12", "j=15"]
    assert [row["law_id"] for row in sweep["rows"]] == laws

    # Pooled-definition audit: recompute the shannon_full j=12 cell from
    # scratch and pass the concatenated held-out pairs through the
    # definitional oracle.
    config = FitConfig(starts=4, random_starts=8, seed=0,
                       objective_space="log_loss", max_iters=300)
    law = sl.get_law("shannon_full")
    spec = sl.SplitSpec("token", j=12)
    train, test = sl.make_split(data, spec)
    preds, obs = [], []
    for level, group in sl.group_by_level(train):
        fit_result = sl.fit(law, group, config)
        test_group = [g for lv, g in sl.group_by_level(test) if lv == level][0]
        preds.extend(sl.predict_dataset(law, fit_result.params, test_group))
        obs.extend(test_group.losses())
    expected = oracle_r2(preds, obs)
    cell = sweep["rows"][0]["cells"][1]["pooled_r2"]
    assert cell == expected

    import os
    paper_csv = os.environ.get("SCALELAWS_PAPER_CSV")
    if paper_csv:
        print(f"note: replicating published tables from {paper_csv} "
              "(numeric agreement reported, not gated)")
        main(["compare", "--data", paper_csv, "--laws", "all",
              "--group-by-level", "--x-orientation", "mitigating",
              "--seed", "0", "--no-timestamp"])
    else:
        print("note: set SCALELAWS_PAPER_CSV to a measurement CSV to emit "
              "the published-table replication (reported, not gated)")
    _passed(10, "compare/extrapolate layouts and pooled definition verified")


# ---------------------------------------------------------------------
# Criterion 11: determinism
# ---------------------------------------------------------------------

def test_criterion_11_determinism():
    """Fixed-seed reruns of the recovery, extrapolation, and calibration
    pipelines serialize byte-identically."""
    for law_id in ("shannon_full", "qid", "chinchilla"):
        law = sl.get_law(law_id)
        first = recovery_trial(law, 3)[1]
        second = recovery_trial(law, 3)[1]
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)

    report_a = _criterion6_report()[1]
    report_b = _criterion6_report()[1]
    assert json.dumps(report_a.to_dict(), sort_keys=True) == \
        json.dumps(report_b.to_dict(), sort_keys=True)

    out_a = _criterion7_outputs()
    out_b = _criterion7_outputs()
    for (pert_a, rep_a), (pert_b, rep_b) in zip(
        [(p, r) for _, p, r, _ in out_a], [(p, r) for _, p, r, _ in out_b]
    ):
        assert pert_a.values.tobytes() == pert_b.values.tobytes()
        assert json.dumps(rep_a.to_dict(), sort_keys=True) == \
            json.dumps(rep_b.to_dict(), sort_keys=True)
    _passed(11, "recovery, extrapolation, and calibration reruns byte-identical")
