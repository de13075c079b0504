"""didbounds benchmark: run one workload through the real CLI and report.

    python3 perfbench/run.py --workload panel-boot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The CLI runs as ``python -m didbounds.cli``
with ``src`` on the path, in child processes spawned one at a time from this
process, which adds no threads. Steps:

1. make the workload's inputs for ``--seed`` unless cached (``gen.py``);
2. one untimed warm-up: a child imports the package and its CLI module and
   reads every input, which fills the bytecode and file caches;
3. ``--trace 0`` only: time set-up ``SETUP_SAMPLES`` times, each a fresh
   interpreter that imports ``didbounds`` and reads the inputs with the
   program's own loaders;
4. rounds of the workload's CLI calls until ``--seconds`` have passed (at
   least one); every call's stdout must be byte-identical to round one's;
5. check round one's outputs apart from the program (``check.py``);
6. ``--trace 1`` only: one more round through ``trace.py``, whose stdout
   must match too.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (CLI calls made and calls that exited non-zero), and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Every sample is written to ``perfbench/results/``.

This process imports only the standard library. A child's peak RSS
(``ru_maxrss``) starts from the RSS of the process that spawned it, so the
spawning process must stay smaller than any CLI call.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SETUP_SAMPLES = 5
PYTHON = sys.executable


class Failure(Exception):
    """The benchmark cannot report: a helper failed or an output is wrong."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CHILD_ENV = _child_env()


@dataclass
class Child:
    code: int
    start: float    # perf_counter at spawn
    end: float      # perf_counter once reaped
    rss_mb: float

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list, stdout_path: str, stderr_path: str) -> Child:
    """Run a child to its exit, timing it from spawn to exit."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0)


def helper(results: str, name: str, argv: list) -> None:
    """Run a benchmark helper script; a non-zero exit stops the benchmark."""
    out, err = (os.path.join(results, f"{name}.{s}") for s in ("out", "err"))
    code = spawn([PYTHON] + argv, out, err).code
    if code != 0:
        with open(err, encoding="utf-8", errors="replace") as fh:
            raise Failure(f"{name} exited {code}: {fh.read().strip()[-2000:]}")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_rounds(args, results: str, calls: list) -> dict:
    """Timed rounds of the workload's calls for ``args.seconds``."""
    rounds, reference, failed = [], [], 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        walls, rss = [], []
        for i, argv in enumerate(calls):
            out = os.path.join(results, f"call{i}.out")
            child = spawn([PYTHON, "-m", "didbounds.cli"] + argv, out,
                          os.path.join(results, f"call{i}.err"))
            walls.append(child.wall)
            rss.append(child.rss_mb)
            text = _read(out) if child.code == 0 else None
            failed += child.code != 0
            if not rounds:
                reference.append(text)
                if text is not None:
                    os.replace(out, os.path.join(results, f"call{i}.first"))
            elif text != reference[i]:
                raise Failure(f"call {i} stdout differs from round one: {argv}")
        rounds.append({"wall_s": sum(walls), "peak_rss_mb": max(rss), "calls_s": walls})
    return {"rounds": rounds, "reference": reference, "failed": failed}


def traced_round(results: str, calls: list, reference: list) -> dict:
    """One round through trace.py; sums its layers over the calls."""
    wall, interpreter, layers, counts, sums = 0.0, 0.0, {}, {}, {}
    for i, argv in enumerate(calls):
        path, stamps = (os.path.join(results, f"trace{i}.{s}") for s in ("json", "out"))
        child = spawn([PYTHON, os.path.join(BENCH_DIR, "trace.py"), path, "--"] + argv,
                      stamps, os.path.join(results, f"trace{i}.err"))
        if child.code != 0:
            raise Failure(f"traced call {i} exited {child.code}: {argv}")
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        if reference[i] is not None and trace["stdout"].encode() != reference[i]:
            raise Failure(f"traced call {i} stdout differs from the untraced run")
        at = json.loads(_read(stamps))
        wall += child.wall
        interpreter += (at["main_at"] - child.start) + (child.end - at["written_at"])
        for src, dst in ((trace["layers"], layers), (trace["counts"], counts),
                         (trace["sums"], sums)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
    layers["interpreter.start_exit_s"] = interpreter
    return {"wall_s": wall, "layers": layers, "counts": counts, "sums": sums}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    s = traced["sums"]
    metrics = dict(traced["layers"])
    metrics.update(traced["counts"])
    metrics["data.load_rows_per_s"] = _ratio(s.get("load_rows", 0), s.get("load_incl_s", 0))
    metrics["data.take_bytes"] = s.get("take_bytes", 0)
    metrics["inference.reps_per_s"] = _ratio(s.get("boot_reps", 0), s.get("boot_incl_s", 0))
    metrics["inference.reps_used_ratio"] = _ratio(s.get("boot_reps_used", 0), s.get("boot_reps", 0))
    metrics["simulation.oracle_draws_per_s"] = _ratio(s.get("oracle_draws", 0),
                                                      s.get("oracle_incl_s", 0))
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    metrics["trace.unattributed_s"] = traced["wall_s"] - sum(traced["layers"].values())
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="didbounds benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "didbounds", "cli.py")):
        print("benchmark: src/didbounds not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    results = os.path.join(ROOT, workloads.RESULTS, args.workload)
    os.makedirs(results, exist_ok=True)
    calls = workloads.cli_calls(args.workload, args.seed)
    setup_code = workloads.setup_code(args.workload, args.seed)
    setup = [PYTHON, "-c", setup_code]
    seed_args = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        helper(results, "gen", [os.path.join(BENCH_DIR, "gen.py")] + seed_args + ["--root", ROOT])
        helper(results, "warmup", ["-c", setup_code + "\nimport didbounds.cli"])
        setup_s = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                child = spawn(setup, os.path.join(results, "setup.out"),
                              os.path.join(results, "setup.err"))
                if child.code != 0:
                    raise Failure(f"set-up child exited {child.code}")
                setup_s.append(child.wall)
        timed = run_rounds(args, results, calls)
        # a call that failed in round one has no output to check: "-"
        firsts = [os.path.join(results, f"call{i}.first") if text is not None else "-"
                  for i, text in enumerate(timed["reference"])]
        helper(results, "check", [os.path.join(BENCH_DIR, "check.py")] + seed_args + firsts)
        attempted = len(timed["rounds"]) * len(calls)
        wall_s = statistics.median(r["wall_s"] for r in timed["rounds"])
        if args.trace:
            traced = traced_round(results, calls, timed["reference"])
            attempted += len(calls)
            metrics = layer_metrics(traced, wall_s)
            names = spec["per_layer"]
        else:
            metrics = {
                "wall_s": wall_s,
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed["rounds"]),
            }
            names = spec["end_to_end"]
    except Failure as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": True,
        "attempted": attempted,
        "failed": timed["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples_s=setup_s, rounds=timed["rounds"])
    with open(os.path.join(results, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
