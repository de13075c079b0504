"""The benchmark's workloads: their inputs and the CLI calls made on them.

Standard library only: the process that spawns and times the CLI imports
this module, and it must stay small (see ``run.py``).
"""

from __future__ import annotations

import os

HEADERS = {
    "panel": "id,d,s0,s1,y0,y1",
    "rcs": "id,t,d,s,y",
    "multi": "id,gvar,t,s,y",
}

LOADERS = {"panel": "load_panel_csv", "rcs": "load_rcs_csv", "multi": "load_multi_csv"}

CACHE = os.path.join("perfbench", ".cache")
RESULTS = os.path.join("perfbench", "results")

BOOT_REPS = 200
MC_N = 2000
MC_REPS = 1000
ORACLE_DRAWS = 2_000_000


def _panel_boot(paths, seed):
    return [["bounds", "--data", paths[0], "--param", "ooo", "--assumptions", "nomono",
             "--ci", "im", "--boot", str(BOOT_REPS), "--seed", str(seed)]]


def _ingest(paths, seed):
    return [
        ["bounds", "--data", paths[0], "--param", "ono", "--assumptions", "mono-pos"],
        ["bounds-rcs", "--data", paths[1], "--variant", "trend", "--assumptions", "nomono"],
        ["bounds-staggered", "--data", paths[2], "--gamma", "2", "--t", "3"],
    ]


def _mc_sim(paths, seed):
    return [["simulate", "--n", str(MC_N), "--reps", str(MC_REPS), "--seed", str(seed),
             "--assumptions", "mono-pos,nomono", "--coverage", "interval",
             "--oracle-draws", str(ORACLE_DRAWS)]]


# inputs: (kind, size) per file; size is (rows,) or (units, periods)
WORKLOADS = {
    "panel-boot": {"inputs": [("panel", (100_000,))], "calls": _panel_boot},
    "ingest": {
        "inputs": [("panel", (200_000,)), ("rcs", (200_000,)), ("multi", (50_000, 4))],
        "calls": _ingest,
    },
    "mc-sim": {"inputs": [], "calls": _mc_sim},
}


def input_prefix(kind: str, size: tuple) -> str:
    return f"{kind}-{'x'.join(str(v) for v in size)}-seed"


def input_path(root: str, workload: str, seed: int, kind: str, size: tuple) -> str:
    name = f"{input_prefix(kind, size)}{seed}.csv"
    return os.path.join(root, CACHE, workload, name)


def input_paths(workload: str, seed: int) -> list:
    """Paths relative to the checkout root, where every child runs."""
    return [input_path("", workload, seed, kind, size)
            for kind, size in WORKLOADS[workload]["inputs"]]


def cli_calls(workload: str, seed: int) -> list:
    return WORKLOADS[workload]["calls"](input_paths(workload, seed), seed)


def setup_code(workload: str, seed: int) -> str:
    """Python source a fresh interpreter runs to time set-up: import the
    package, then read each input with the program's own loader."""
    lines = ["import didbounds"]
    for (kind, _), path in zip(WORKLOADS[workload]["inputs"], input_paths(workload, seed)):
        lines.append(f"didbounds.{LOADERS[kind]}({path!r})")
    return "\n".join(lines)
