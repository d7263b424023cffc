"""Golden fits: every bit of one fixed recovery fit per law.

Each law is fitted to the noiseless 6x8 grid of criterion 3 (4 X levels
for the X-aware laws) drawn at trial seed 5, with criterion 3's
settings. The test pins the fitted parameters and SSE as float.hex, the
iteration count, the winning start, the converged flag and the exact
number of residual and Jacobian evaluations the fit made. A change to
the fitter or the laws that claims to change no output must leave every
value here as it is; a change that states an output change updates this
table in one place.
"""

import numpy as np
import pytest

import scalelaws as sl
from scalelaws.fitter import FitConfig

from oracle import counting_fitter_work
from synth import X_LEVELS, grid_set, random_params
from test_acceptance import D_GRID, N_GRID, RECOVERY_CONFIGS, RECOVERY_DEFAULT

SEED = 5

#: law id -> (params as float.hex, SSE as float.hex, iterations_used,
#: start_index_won, converged, residual evaluations, Jacobians).
GOLDEN = {
    "shannon_full": (
        (
            "0x1.57965dff727acp-1", "0x1.98feecd6491b0p-1", "0x1.f44e7e9686fc9p+0",
            "0x1.6682aa6ba7689p+0", "0x1.09b2a65f5a3dcp+0", "0x1.109ebd2578d3bp-1",
            "0x1.5c8b7f100d6afp-1", "0x1.a11e8edc28b3ep-1", "0x1.4162fadab1c3cp-1",
        ),
        "0x1.2046b20000000p-78", 24, 1, True, 877, 455),
    "shannon_simplified": (
        (
            "0x1.57965dffff89fp-1", "0x1.93e62d9f211d9p-1", "0x1.c566db24407f0p-1",
            "0x1.7b4c380bca52cp-1", "0x1.38adf3ab3d5b9p-1", "0x1.109ebd24514d7p-1",
        ),
        "0x1.e76c17219ce28p-67", 98, 4, True, 446, 230),
    "shannon_extended": (
        (
            "0x1.57965dfaf3a6ep-1", "0x1.8d0b5b6409aafp+4", "0x1.e5afdbe16ab97p+5",
            "0x1.5c08c33f26976p+5", "0x1.01ef0c5d9e348p+5", "0x1.109ebd257f43bp-1",
            "0x1.5c8b7f101716bp-1", "0x1.a11e8edc321ccp-1", "0x1.4162fada9d2f6p-1",
        ),
        "0x1.f24225ec02000p-83", 26, 7, True, 324, 174),
    "openai": (
        (
            "0x1.57965dfaf3c17p-1", "0x1.93e62d8ef9187p-1", "0x1.c566db21fa477p-1",
            "0x1.7b4c380cd56fep-1",
        ),
        "0x1.6b21c00000000p-91", 12, 1, True, 252, 130),
    "chinchilla": (
        (
            "0x1.57965dfaf3b53p-1", "0x1.93e62d8ee9ee0p-1", "0x1.ee127453c9846p+0",
            "0x1.7b4c380cd586dp-1", "0x1.38adf3ac1d00bp-1",
        ),
        "0x1.4daadb4000000p-80", 13, 1, True, 161, 97),
    "qid": (
        (
            "0x1.57965dfaf33acp-1", "0x1.93e62d8ef918dp-1", "0x1.ee127453cbb93p+0",
            "0x1.bcb76154b8596p-5", "0x1.38adf3ac2e68bp-1", "0x1.109ebd25812e8p-1",
            "0x1.5c8b7f10177c3p-1", "0x1.a11e8edc32785p-1", "0x1.4162fada9dca6p-1",
        ),
        "0x1.5e1ad80000000p-85", 27, 2, True, 1745, 957),
    "precision": (
        (
            "0x1.57965dfaf3c0ep-1", "0x1.93e62d8ef92b7p-1", "0x1.ee127453cb024p+0",
            "0x1.bcb76154bb131p-5", "0x1.38adf3ac2e258p-1", "0x1.109ebd257f92ap-1",
            "0x1.5c8b7f101760ep-1", "0x1.a11e8edc323e7p-1", "0x1.4162fada9d4a8p-1",
        ),
        "0x1.aca8000000000p-93", 9, 0, True, 892, 479),
    "symmetric": (
        (
            "0x1.57965dfaf3c0fp-1", "0x1.93e62d8ef928ap-1", "0x1.ee127453cb011p+0",
            "0x1.7b4c380cd57acp-1", "0x1.38adf3ac2e256p-1",
        ),
        "0x1.4000000000000p-99", 10, 6, True, 189, 120),
    "asymmetric": (
        (
            "0x1.57965dfae57bdp-1", "0x1.93e62d8ef6affp-1", "0x1.ee127453d21e8p+0",
            "0x1.7b4c380cdec80p-1", "0x1.38adf3ac33e91p-1", "0x1.109ebd257fd96p-1",
            "0x1.5c8b7f1017dfdp-1",
        ),
        "0x1.4cbffc0000000p-82", 11, 3, True, 240, 143),
    "shannon_sizeonly_ablation": (
        (
            "0x1.57965dfb50d69p-1", "0x1.8657c792a5473p-1", "0x1.dd7d44b1d5071p+0",
            "0x1.5628f3a4e0fadp+0", "0x1.fb2919787295dp-1", "0x1.109ebd257f820p-1",
            "0x1.5c8b7f101657dp-1", "0x1.a11e8edc3190cp-1", "0x1.4162fada9e7d3p-1",
        ),
        "0x1.4414d24800000p-87", 35, 0, True, 1143, 597),
}


@pytest.mark.parametrize("law_id", list(GOLDEN))
def test_fit_is_bit_identical(law_id):
    law = sl.get_law(law_id)
    true = random_params(law, np.random.default_rng(10_000 + SEED))
    data = grid_set(law, true, N_GRID, D_GRID, x_levels=X_LEVELS if law.needs_x else None)
    config = FitConfig(seed=SEED, max_iters=300, objective_space="log_loss",
                       **RECOVERY_CONFIGS.get(law_id, RECOVERY_DEFAULT))
    with counting_fitter_work() as counts:
        result = sl.fit(law, data, config)
    assert (tuple(v.hex() for v in result.params.values), result.sse.hex(),
            result.iterations_used, result.start_index_won, result.converged,
            counts["residuals"], counts["jacobians"]) == GOLDEN[law_id]


def test_every_law_is_pinned():
    assert tuple(GOLDEN) == sl.LAW_IDS
