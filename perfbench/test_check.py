"""Tests of the benchmark's own checkers and tracer.

Run from the checkout root: ``python3 -m pytest -q perfbench``. Each checker
must accept the program's real output on a small generated input and reject
the same output perturbed.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import check  # noqa: E402
import gen  # noqa: E402
from didbounds import cli  # noqa: E402

SEED = 5
BOOT = 200


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    out = {}
    for kind, size in (("panel", (3000,)), ("rcs", (4000,)), ("multi", (1500, 4))):
        arrays = gen.arrays(kind, SEED, size)
        path = root / f"{kind}.csv"
        path.write_text("\n".join(gen.csv_lines(kind, arrays)) + "\n")
        out[kind] = (arrays, str(path))
    return out


def _panel_boot(inputs):
    arrays, path = inputs["panel"]
    argv = ["bounds", "--data", path, "--param", "ooo", "--assumptions", "nomono",
            "--ci", "im", "--boot", str(BOOT), "--seed", str(SEED)]

    def verify(out):
        check.check_bounds(out, check.panel_ooo_nomono(arrays), "panel-boot")
        check.check_im_ci(out, BOOT, check.bootstrap_ooo_nomono(arrays, BOOT, SEED))
    return argv, verify


def _ono(inputs):
    arrays, path = inputs["panel"]
    argv = ["bounds", "--data", path, "--param", "ono", "--assumptions", "mono-pos"]
    return argv, lambda out: check.check_bounds(out, check.panel_ono_mono(arrays), "ono")


def _rcs(inputs):
    arrays, path = inputs["rcs"]
    argv = ["bounds-rcs", "--data", path, "--variant", "trend", "--assumptions", "nomono"]
    return argv, lambda out: check.check_bounds(out, check.rcs_trend_nomono(arrays), "rcs")


def _staggered(inputs):
    arrays, path = inputs["multi"]
    argv = ["bounds-staggered", "--data", path, "--gamma", "2", "--t", "3"]
    expected = check.panel_ooo_mono(check.staggered_2x2(arrays, 2, 3))
    return argv, lambda out: check.check_bounds(out, expected, "staggered")


CASES = {"panel-boot": _panel_boot, "ono": _ono, "rcs": _rcs, "staggered": _staggered}


def _lb_up(out):
    out["lb"] += 1e-6


def _swap(out):
    out["lb"], out["ub"] = out["ub"], out["lb"]


def _drop_ci(out):
    del out["ci"]


PERTURBATIONS = {"lb+1e-6": _lb_up, "swap": _swap, "no-ci": _drop_ci}


@pytest.mark.parametrize("case", sorted(CASES))
def test_checker_on_program_output(case, inputs, capsys):
    argv, verify = CASES[case](inputs)
    assert cli.run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    verify(out)
    for name, perturb in PERTURBATIONS.items():
        if name == "no-ci" and "ci" not in out:
            continue
        bad = copy.deepcopy(out)
        perturb(bad)
        with pytest.raises(check.CheckError):
            verify(bad)


def _mc_table(changes=None) -> str:
    """A simulate CSV holding the paper's table values, then ``changes``,
    keyed by (assumption set, column)."""
    rows = {
        "mono-pos": {"mean_lb": 3.0794, "mean_ub": 4.3932, "mean_naive": 3.7727,
                     "mean_p_ooo1": 0.7052, "coverage": 0.15},
        "nomono": {"mean_lb": 2.7483, "mean_ub": 4.7250, "mean_naive": 3.7727,
                   "mean_p_ooo1": 0.6475, "coverage": 0.995},
    }
    for (aset, col), value in (changes or {}).items():
        rows[aset][col] = value
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "reps", "assumption_set", *rows["nomono"]])
    for aset, row in rows.items():
        writer.writerow([2000, 1000, aset, *row.values()])
    return buf.getvalue()


@pytest.mark.parametrize("changes", [
    {("mono-pos", "mean_lb"): 4.3932, ("mono-pos", "mean_ub"): 3.0794},
    {("mono-pos", "mean_lb"): 3.0794 + 0.031},
    {("mono-pos", "mean_naive"): 3.7363},
    {("nomono", "coverage"): 0.1},
])
def test_mc_checker(changes):
    check.check_mc(_mc_table())
    with pytest.raises(check.CheckError):
        check.check_mc(_mc_table(changes))


def test_trace_covers_every_layer(inputs, tmp_path):
    """The traced run sees the calls made through sibling-module names and
    class attributes, and its self times add up to its own wall time."""
    _, path = inputs["panel"]
    out = tmp_path / "trace.json"
    argv = ["bounds", "--data", path, "--param", "ooo", "--assumptions", "nomono",
            "--ci", "im", "--boot", "20", "--seed", str(SEED)]
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, os.path.join(HERE, "trace.py"), str(out), "--"] + argv,
                   env=env, check=True)
    trace = json.loads(out.read_text())
    assert trace["missing"] == []
    names = {name: parent for _, parent, name, _, _ in trace["spans"]}
    by_id = {i: name for i, _, name, _, _ in trace["spans"]}
    assert trace["calls"]["data.PanelDataset.take"] == 20
    assert trace["calls"]["data.PanelDataset.from_records"] == 1
    assert trace["calls"]["bounds.bounds_tau_ooo"] == 21
    # bounds imports trimmed_mean_lower by name; the call is traced anyway
    assert by_id[names["core.trimmed_mean_lower"]] == "bounds.bounds_tau_ooo"
    assert trace["counts"]["data.take_calls"] == 20
    assert trace["sums"]["boot_reps"] == 20
    total = sum(trace["layers"].values())
    assert abs(total - trace["inner_s"]) < 0.05 * trace["inner_s"]
