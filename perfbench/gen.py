"""Seeded input generator for the benchmark workloads.

Every input follows the paper's simulation design: latent standard normals
(c, a) with correlation 0.7, outcome/selection pairs (u_t, v_t) with
correlation 0.6, independent b and w; treatment D = 1[a + w > 0]; selection
S_t = 1[shift * treated_t + b + v_t > 0] with shift 1.5, so treatment raises
selection (positive monotonicity holds unit by unit); outcomes
Y_t = 5 * 1[t > 0] + 4 * treated_t + c + u_t (ATT 4). Outcomes are blank in
the CSV exactly when the unit is not selected.

The arrays are drawn from ``numpy.random.default_rng([seed, stream, size])``; each
file has its own stream, so the same seed always gives the same files. Floats
are written with ``repr``, which round-trips, so the program reads back the
very arrays the checker recomputes from.

Run ``python3 perfbench/gen.py --workload ingest --seed 1`` to (re)generate a
workload's inputs into ``perfbench/.cache``; the benchmark does this itself
when they are missing.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

import workloads

RHO_CA = 0.7
RHO_UV = 0.6
SHIFT = 1.5
INTERCEPT = 5.0
ATT = 4.0

STREAMS = {"panel": 1, "rcs": 2, "multi": 3}


def _pair(rng, n, rho):
    x = rng.standard_normal(n)
    return x, rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)


def panel(seed: int, n: int) -> dict:
    """Two-period panel: treatment in period 1 only."""
    rng = np.random.default_rng([seed, STREAMS["panel"], n])
    c, a = _pair(rng, n, RHO_CA)
    u0, v0 = _pair(rng, n, RHO_UV)
    u1, v1 = _pair(rng, n, RHO_UV)
    b = rng.standard_normal(n)
    w = rng.standard_normal(n)
    d = (a + w > 0).astype(np.int8)
    s0 = (b + v0 > 0).astype(np.int8)
    s1 = (SHIFT * d + b + v1 > 0).astype(np.int8)
    y0 = np.where(s0 == 1, c + u0, np.nan)
    y1 = np.where(s1 == 1, INTERCEPT + ATT * d + c + u1, np.nan)
    return {"d": d, "s0": s0, "s1": s1, "y0": y0, "y1": y1}


def rcs(seed: int, n: int) -> dict:
    """Repeated cross-sections: each row is a fresh unit seen in one period."""
    rng = np.random.default_rng([seed, STREAMS["rcs"], n])
    c, a = _pair(rng, n, RHO_CA)
    u, v = _pair(rng, n, RHO_UV)
    b = rng.standard_normal(n)
    w = rng.standard_normal(n)
    t = (rng.random(n) < 0.5).astype(np.int8)
    d = (a + w > 0).astype(np.int8)
    s = (SHIFT * d * t + b + v > 0).astype(np.int8)
    y = np.where(s == 1, INTERCEPT * t + ATT * d * t + c + u, np.nan)
    return {"t": t, "d": d, "s": s, "y": y}


def multi(seed: int, units: int, periods: int) -> dict:
    """Staggered long panel, rows by unit then period.

    Treated units (D = 1) start treatment in period 2 or 3 with equal odds;
    gvar = 0 marks never-treated units.
    """
    rng = np.random.default_rng([seed, STREAMS["multi"], units])
    c, a = _pair(rng, units, RHO_CA)
    b = rng.standard_normal(units)
    w = rng.standard_normal(units)
    late = rng.random(units) < 0.5
    gvar = np.where(a + w > 0, np.where(late, 3, 2), 0).astype(np.int64)
    u, v = _pair(rng, units * periods, RHO_UV)
    u = u.reshape(units, periods)
    v = v.reshape(units, periods)
    t = np.arange(periods)
    treated = (gvar[:, None] > 0) & (t[None, :] >= gvar[:, None])
    s = (SHIFT * treated + b[:, None] + v > 0).astype(np.int8)
    y_star = INTERCEPT * (t[None, :] > 0) + ATT * treated + c[:, None] + u
    y = np.where(s == 1, y_star, np.nan)
    return {
        "unit": np.repeat(np.arange(1, units + 1), periods),
        "gvar": np.repeat(gvar, periods),
        "t": np.tile(t, units),
        "s": s.ravel(),
        "y": y.ravel(),
    }


def arrays(kind: str, seed: int, size: tuple) -> dict:
    if kind == "panel":
        return panel(seed, *size)
    if kind == "rcs":
        return rcs(seed, *size)
    return multi(seed, *size)


def _fmt(values: np.ndarray) -> list:
    return ["" if math.isnan(v) else repr(v) for v in values.tolist()]


def _ints(values: np.ndarray) -> list:
    return [str(v) for v in values.tolist()]


def csv_lines(kind: str, a: dict) -> list:
    if kind == "panel":
        n = a["d"].size
        cols = [_ints(np.arange(1, n + 1)), _ints(a["d"]), _ints(a["s0"]),
                _ints(a["s1"]), _fmt(a["y0"]), _fmt(a["y1"])]
    elif kind == "rcs":
        n = a["t"].size
        cols = [_ints(np.arange(1, n + 1)), _ints(a["t"]), _ints(a["d"]),
                _ints(a["s"]), _fmt(a["y"])]
    else:
        cols = [_ints(a["unit"]), _ints(a["gvar"]), _ints(a["t"]),
                _ints(a["s"]), _fmt(a["y"])]
    return [workloads.HEADERS[kind]] + [",".join(row) for row in zip(*cols)]


def ensure(workload: str, seed: int, root: str) -> list:
    """Write the workload's inputs for ``seed`` unless they exist already.

    Inputs of other seeds are removed, so the cache holds one seed per
    workload.
    """
    paths = []
    for kind, size in workloads.WORKLOADS[workload]["inputs"]:
        path = workloads.input_path(root, workload, seed, kind, size)
        paths.append(path)
        if os.path.exists(path):
            continue
        folder = os.path.dirname(path)
        os.makedirs(folder, exist_ok=True)
        prefix = workloads.input_prefix(kind, size)
        for name in os.listdir(folder):
            if name.startswith(prefix):
                os.remove(os.path.join(folder, name))
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(csv_lines(kind, arrays(kind, seed, size))) + "\n")
        os.replace(tmp, path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", default=".", help="checkout root (default: .)")
    args = parser.parse_args(argv)
    for path in ensure(args.workload, args.seed, args.root):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
