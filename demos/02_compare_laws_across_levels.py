"""Per-level goodness-of-fit comparison across law forms.

Synthesizes measurements at six SNR levels, with noise-term
coefficients growing as the level drops, then fits a handful of law
forms per level and prints the per-level R^2 matrix with an
avg +- std column. The capacity law fits its own data exactly; the
monotonic baselines degrade as noise grows, which is the qualitative
pattern such comparisons show on real perturbation sweeps.

Equivalent CLI:
    scalelaws compare --data measurements.csv --laws all \
        --group-by-level --x-orientation mitigating --objective log_loss
"""

import numpy as np

import scalelaws as sl

SIZES = np.array([1.6e8, 4.1e8, 1.0e9, 2.8e9, 6.9e9, 1.2e10])
TOKENS = np.geomspace(4.2e9, 3.07e11, 16)
LEVELS = [10.0, 12.0, 15.0, 20.0, 30.0, 40.0]
LAW_IDS = ["shannon_full", "shannon_simplified", "chinchilla", "openai", "asymmetric"]


def level_params(level):
    noise = 10.0 ** ((40.0 - level) / 20.0)
    return sl.ParamVector.from_dict("shannon_full", {
        "a": 1.2, "b": 2.0, "c": 0.004 * noise, "d": 0.01 * noise, "e": 0.3,
        "alpha": 0.45, "beta": 0.55, "gamma": 0.6, "delta": 1.1,
    })


def main():
    generator = sl.get_law("shannon_full")
    observations = []
    for level in LEVELS:
        params = level_params(level)
        for i, n in enumerate(SIZES):
            for d in TOKENS:
                loss = sl.predict_loss(generator, params, n / 1e9, d / 1e9)
                observations.append(
                    sl.Observation(f"model-{i}", n, float(d), loss, x_level=level)
                )
    data = sl.ObservationSet(tuple(observations))

    config = sl.FitConfig(starts=4, random_starts=8, seed=0,
                          objective_space="log_loss", max_iters=300)
    laws = [sl.get_law(law_id) for law_id in LAW_IDS]
    table = sl.compare_laws(data, laws, config, group_by_level=True)
    print(table.to_text())

if __name__ == "__main__":
    main()
