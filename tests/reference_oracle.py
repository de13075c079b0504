"""The oracle written as two sign passes per block: the reference that
``didbounds.simulation.oracle_true_values`` is checked against, bit for bit.

Each block of antithetic pairs is turned into one statistics matrix per sign
of the latents, and the pair-averages are the mean of the two matrices. Its
blocks hold 62,500 pairs; the results do not depend on the block size.
"""

import math

import numpy as np

from didbounds.core import require_seed
from didbounds.errors import ValidationError
from didbounds.simulation import OracleResult, _latents, _norm_pdf, _norm_ppf

_BLOCK = 62_500


def oracle_true_values(config, mc_draws, seed=123456789):
    if mc_draws < 10**5:
        raise ValidationError("mc_draws must be >= 1e5")
    require_seed(seed)
    rng = np.random.default_rng(seed)
    half = (mc_draws + 1) // 2
    # pairs per partial sum of the du columns; it fixes their summation order
    reduction = 1_000_000
    shift = config.selection_shift

    def stats_matrix(lat, sign):
        z1 = sign * (lat["b"] + lat["v0"])
        z2 = sign * (lat["b"] + lat["v1"])   # both counterfactual post indices
        z4 = sign * (lat["a"] + lat["w"])
        du = sign * (lat["u1"] - lat["u0"])
        cond_t = (z1 > 0) & (z2 > -shift)    # treated observed-both conditioning
        cond_c = (z1 > 0) & (z2 > 0)         # control observed-both conditioning
        g_ooo1 = (cond_c & (z2 > -shift) & (z4 > 0)).astype(float)
        g_ono1 = ((z1 > 0) & (z2 < 0) & (z2 > -shift) & (z4 > 0)).astype(float)
        at = cond_t.astype(float)
        ac = cond_c.astype(float)
        return np.column_stack(
            [g_ooo1, g_ono1, at, at * du, at * du * du, ac, ac * du,
             (cond_c & cond_t).astype(float)]
        )

    # sq, cross and the indicator columns are sums of multiples of 1/4, exact
    # in any order; the du columns are summed row after row within each
    # reduction block, each piece's running sum carried into its next piece
    sums = np.zeros(8)
    sq = np.zeros(2)
    cross = 0.0
    pairs = 0
    while pairs < half:
        end = min(pairs + reduction, half)
        part = None
        while pairs < end:
            m = min(_BLOCK, end - pairs)
            lat = _latents(rng, m, config)
            acc = 0.5 * (stats_matrix(lat, 1.0) + stats_matrix(lat, -1.0))
            sq += (acc[:, :2] ** 2).sum(axis=0)
            cross += float((acc[:, 0] * acc[:, 1]).sum())
            if part is not None:
                acc[0] += part
            part = acc.sum(axis=0)
            pairs += m
        sums += part

    pi_ooo1 = sums[0] / pairs
    pi_ono1 = sums[1] / pairs
    p_true = pi_ooo1 / (pi_ooo1 + pi_ono1)
    mu1 = sums[3] / sums[2]
    mu2 = sums[4] / sums[2]
    mu3 = sums[6] / sums[5]
    p_true_alt = sums[7] / sums[2]

    var1 = sq[0] / pairs - pi_ooo1**2
    var2 = sq[1] / pairs - pi_ono1**2
    cov12 = cross / pairs - pi_ooo1 * pi_ono1
    tot = pi_ooo1 + pi_ono1
    d1 = pi_ono1 / tot**2
    d2 = -pi_ooo1 / tot**2
    se_mc = math.sqrt(
        max(d1 * d1 * var1 + 2 * d1 * d2 * cov12 + d2 * d2 * var2, 0.0) / pairs
    )

    sigma_w = math.sqrt(mu2 - mu1**2)
    mu_w = config.outcome_intercept + config.att + mu1
    control_mean = config.outcome_intercept + mu3
    lb_true = mu_w - sigma_w * _norm_pdf(_norm_ppf(p_true)) / p_true - control_mean
    ub_true = mu_w + sigma_w * _norm_pdf(_norm_ppf(1.0 - p_true)) / p_true - control_mean
    return OracleResult(
        p_true=p_true,
        lb_true=lb_true,
        ub_true=ub_true,
        mu1=mu1,
        mu2=mu2,
        mu3=mu3,
        mc_draws=2 * pairs,
        se_mc=se_mc,
        p_true_alt=p_true_alt,
    )
