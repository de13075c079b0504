"""The panel generator written one latent column at a time: the reference
that ``didbounds.simulation.generate_panel`` is checked against, bit for bit.

Each treated and untreated post-period selection is its own comparison, and
the observed one is picked by ``np.where``; an outcome is set to NaN where it
is not selected by ``np.where`` too.
"""

import numpy as np

from didbounds.data import PanelDataset
from didbounds.simulation import _latents


def generate_panel(config):
    rng = np.random.default_rng(config.seed)
    lat = _latents(rng, config.n, config)
    d = (lat["a"] + lat["w"] > 0).astype(np.int8)
    s0 = (lat["b"] + lat["v0"] > 0).astype(np.int8)
    s1_0 = (lat["b"] + lat["v1"] > 0).astype(np.int8)
    s1_1 = (config.selection_shift + lat["b"] + lat["v1"] > 0).astype(np.int8)
    s1 = np.where(d == 1, s1_1, s1_0)
    y0_star = lat["c"] + lat["u0"]
    y1_star = (
        config.outcome_intercept
        + config.att * (d == 1)
        + lat["c"]
        + lat["u1"]
    )
    y0 = np.where(s0 == 1, y0_star, np.nan)
    y1 = np.where(s1 == 1, y1_star, np.nan)
    ids = [str(i) for i in range(1, config.n + 1)]
    return PanelDataset.from_records(ids, d, s0, s1, y0, y1)
