import argparse
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import didbounds
from didbounds import generate_panel, write_panel_csv, DgpConfig
from didbounds.cli import ASSUMPTION_FLAGS, _emit, build_parser, run

from conftest import make_panel, panel_rows

PANEL_CSV = """id,d,s0,s1,y0,y1
a1,1,1,1,10,11
a2,1,1,1,10,12
a3,1,1,1,10,13
a4,1,1,1,10,14
a5,1,1,1,10,15
a6,1,1,0,9,
b1,0,1,1,10,10
b2,0,1,1,10,12
b3,0,1,1,10,14
b4,0,1,0,7,
b5,0,1,0,8,
c1,1,0,1,,20
c2,1,0,1,,22
c3,1,0,1,,24
c4,1,0,0,,
c5,0,0,1,,18
c6,0,0,0,,
c7,0,0,0,,
"""

RCS_CSV = """id,t,d,s,y
r1,0,0,1,1.0
r2,0,0,1,3.0
r3,0,1,1,2.0
r4,0,1,1,4.0
r5,1,0,1,5.0
r6,1,0,1,6.0
r7,1,0,1,7.0
r8,1,0,0,
r9,1,1,1,10.0
r10,1,1,1,11.0
r11,1,1,1,12.0
r12,1,1,1,13.0
"""

MULTI_CSV = """id,gvar,t,s,y
t1,1,0,1,10.0
t1,1,1,1,13.0
t2,1,0,1,11.0
t2,1,1,1,12.0
c1,0,0,1,10.0
c1,0,1,1,11.0
c2,0,0,1,12.0
c2,0,1,1,12.5
"""


def _panel(tmp_path, text=PANEL_CSV, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_mono_bounds_json(self, tmp_path, capsys):
        code, out, err = _run(
            capsys, ["bounds", "--data", _panel(tmp_path), "--assumptions", "mono-pos"]
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["parameter"] == "tau_OOO"
        assert payload["lb"] == pytest.approx(0.5)
        assert payload["ub"] == pytest.approx(2.0)
        assert payload["proportions"]["p_ooo1"] == pytest.approx(0.72)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        argv = [
            "bounds", "--data", _panel(tmp_path), "--ci", "im",
            "--boot", "30", "--seed", "17",
        ]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("command, text", [
        (["bounds", "--assumptions", "mono-pos"], PANEL_CSV),
        (["bounds-rcs"], RCS_CSV),
        (["bounds-staggered", "--gamma", "1", "--t", "1"], MULTI_CSV),
    ], ids=["panel", "rcs", "staggered"])
    def test_byte_order_mark_is_not_data(self, tmp_path, capsys, command, text):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        plain = _run(capsys, [command[0], "--data", _panel(tmp_path, text)] + command[1:])
        marked = _run(capsys, [command[0], "--data", _panel(tmp_path, "\ufeff" + text, "bom.csv")]
                      + command[1:])
        assert plain[0] == 0 and marked == plain

    def test_ci_requires_seed(self, tmp_path, capsys):
        code, out, err = _run(
            capsys, ["bounds", "--data", _panel(tmp_path), "--ci", "union"]
        )
        assert code == 2
        assert json.loads(err)["code"] == "ValidationError"

    def test_im_ci_payload(self, tmp_path, capsys):
        code, out, _ = _run(
            capsys,
            ["bounds", "--data", _panel(tmp_path), "--ci", "im",
             "--boot", "30", "--seed", "1"],
        )
        assert code == 0
        ci = json.loads(out)["ci"]
        assert ci["method"] == "imbens_manski"
        assert ci["lo"] < 0.5 and ci["hi"] > 2.0
        assert 1.6 < ci["c_n"] < 1.96

    def test_other_group_param(self, tmp_path, capsys):
        code, out, _ = _run(
            capsys,
            ["bounds", "--data", _panel(tmp_path), "--param", "ono",
             "--assumptions", "mono-pos"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["parameter"] == "tau_ONO"
        assert payload["lb"] == pytest.approx(-3.0)
        assert payload["ub"] == pytest.approx(3.0)

    def test_other_group_requires_monotonicity(self, tmp_path, capsys):
        code, _, err = _run(
            capsys,
            ["bounds", "--data", _panel(tmp_path), "--param", "ono",
             "--assumptions", "nomono"],
        )
        assert code == 2
        assert json.loads(err)["code"] == "ValidationError"

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["bounds", "--data", "/nonexistent.csv"])
        assert code == 2
        assert json.loads(err)["code"] == "IOError"

    def test_estimation_error_exit_code(self, tmp_path, capsys):
        # no control units observed at baseline: selection rates not estimable
        text = (
            "id,d,s0,s1,y0,y1\n"
            "a,1,1,1,1,2\nb,1,1,0,1,\nc,1,0,1,,4\nd,0,0,1,,5\ne,0,0,0,,\n"
        )
        code, _, err = _run(
            capsys, ["bounds", "--data", _panel(tmp_path, text), "--param", "ono"]
        )
        assert code == 3
        assert json.loads(err)["code"] == "EmptyCell"

    def test_csv_output(self, tmp_path, capsys):
        code, out, _ = _run(
            capsys, ["bounds", "--data", _panel(tmp_path), "--output", "csv"]
        )
        assert code == 0
        header, values = out.strip().split("\n")
        cols = header.split(",")
        assert "lb" in cols and "ub" in cols and "proportions.p_ooo1" in cols

    def test_loader_warning_surfaces_in_payload(self, tmp_path, capsys):
        text = PANEL_CSV.replace("c6,0,0,0,,", "c6,0,0,0,5.0,")
        code, out, _ = _run(capsys, ["bounds", "--data", _panel(tmp_path, text)])
        assert code == 0
        warnings = json.loads(out)["warnings"]
        assert any("not selected" in w for w in warnings)


class TestOtherCommands:
    def test_naive_panel(self, tmp_path, capsys):
        code, out, _ = _run(capsys, ["naive", "--data", _panel(tmp_path)])
        assert code == 0
        assert json.loads(out)["naive_did"] == pytest.approx(1.0)

    def test_naive_rcs(self, tmp_path, capsys):
        path = _panel(tmp_path, RCS_CSV, "rcs.csv")
        code, out, _ = _run(capsys, ["naive", "--data", path, "--design", "rcs"])
        assert code == 0
        # (11.5 - 3) - (6 - 2)
        assert json.loads(out)["naive_did"] == pytest.approx(4.5)

    def test_bounds_rcs(self, tmp_path, capsys):
        path = _panel(tmp_path, RCS_CSV, "rcs.csv")
        code, out, _ = _run(capsys, ["bounds-rcs", "--data", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["lb"] == pytest.approx(4.0)
        assert payload["ub"] == pytest.approx(5.0)

    def test_bounds_staggered(self, tmp_path, capsys):
        path = _panel(tmp_path, MULTI_CSV, "multi.csv")
        code, out, _ = _run(
            capsys, ["bounds-staggered", "--data", path, "--gamma", "1", "--t", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["parameter"] == "tau_OOO_staggered"
        assert payload["gamma"] == 1 and payload["t"] == 1
        # fully observed 2x2: bounds collapse to the plain DiD contrast
        assert payload["lb"] == payload["ub"] == pytest.approx(2.0 - 0.75)

    def test_strata(self, tmp_path, capsys):
        code, out, _ = _run(capsys, ["strata", "--data", _panel(tmp_path)])
        assert code == 0
        payload = json.loads(out)
        strata = payload["proportions"]["strata"]
        assert strata["OOO1"] == pytest.approx(1 / 5)
        assert payload["cell_counts"]["s0=1,s1=1,d=1"] == 5

    def test_simulate_csv(self, capsys):
        code, out, _ = _run(
            capsys,
            ["simulate", "--n", "300", "--reps", "5", "--seed", "3",
             "--assumptions", "mono-pos"],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,reps,assumption_set")
        assert len(lines) == 2

    def test_oracle_json(self, capsys):
        code, out, _ = _run(
            capsys, ["oracle", "--mc-draws", "200000", "--seed", "5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.68 < payload["p_true"] < 0.73
        assert payload["lb_true"] < payload["ub_true"]

    def test_oracle_point_identified_without_selection_shift(self, capsys):
        # shift 0 leaves no ONO units, so p_true is exactly 1 and the bounds meet
        code, out, _ = _run(
            capsys,
            ["oracle", "--seed", "1", "--selection-shift", "0", "--mc-draws", "100000"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["p_true"] == 1.0
        assert payload["lb_true"] == payload["ub_true"]

    def test_unknown_command_flag(self, capsys):
        code, _, _ = _run(capsys, ["bounds", "--nope"])
        assert code == 2


def test_cli_matches_library_on_generated_data(tmp_path, capsys):
    data = generate_panel(DgpConfig(n=400, seed=21))
    path = tmp_path / "gen.csv"
    write_panel_csv(data, path)
    code, out, _ = _run(capsys, ["bounds", "--data", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["lb"] <= payload["ub"]


class TestRejectedFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--data", "PANEL", "--threads", "2"],
            ["bounds-rcs", "--data", "RCS", "--threads", "2"],
            ["bounds-staggered", "--data", "MULTI", "--gamma", "1", "--t", "1",
             "--threads", "2"],
            ["simulate", "--n", "300", "--reps", "1", "--seed", "1", "--threads", "2"],
            ["oracle", "--seed", "1", "--threads", "2"],
            ["bounds-staggered", "--data", "MULTI", "--gamma", "1", "--t", "1",
             "--ci", "im"],
            ["bounds-staggered", "--data", "MULTI", "--gamma", "1", "--t", "1",
             "--boot", "50"],
            ["bounds-staggered", "--data", "MULTI", "--gamma", "1", "--t", "1",
             "--seed", "1"],
            ["bounds-staggered", "--data", "MULTI", "--gamma", "1", "--t", "1",
             "--legacy-se-scaling"],
            ["bounds", "--data", "PANEL", "--ci", "im", "--seed", "1", "--legacy-se-scaling"],
            ["bounds-rcs", "--data", "RCS", "--ci", "im", "--seed", "1",
             "--legacy-se-scaling"],
        ],
    )
    def test_exits_2(self, tmp_path, capsys, argv):
        files = {
            "PANEL": _panel(tmp_path),
            "RCS": _panel(tmp_path, RCS_CSV, "rcs.csv"),
            "MULTI": _panel(tmp_path, MULTI_CSV, "multi.csv"),
        }
        code, out, err = _run(capsys, [files.get(a, a) for a in argv])
        assert code == 2
        assert out == "" and "unrecognized arguments" in err

    def test_duplicate_id_period_row_exits_2(self, tmp_path, capsys):
        # unit 1 has two period-1 rows; the second (y=50.0) used to win silently
        text = (
            "id,gvar,t,s,y\n"
            "1,1,0,1,0.0\n1,1,1,1,5.0\n1,1,1,1,50.0\n"
            "2,1,0,1,0.0\n2,1,1,1,1.0\n"
            "3,0,0,1,0.0\n3,0,1,1,0.5\n"
            "4,0,0,1,0.0\n4,0,1,1,0.0\n"
        )
        path = _panel(tmp_path, text, "multi.csv")
        code, out, err = _run(
            capsys, ["bounds-staggered", "--data", path, "--gamma", "1", "--t", "1"]
        )
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["code"] == "MalformedRow"
        assert payload["context"] == {"line": 4, "id": "1"}


class TestIgnoredFlags:
    """A flag the command would not use is an error, not silently dropped."""

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["bounds", "--data", "PANEL", "--param", "ooo", "--support-y00", "-100",
              "--support-y01", "-100"], ["--support-y00", "--support-y01"]),
            (["bounds", "--data", "PANEL", "--assumptions", "nomono", "--support-y10", "0"],
             ["--support-y10"]),
            # tau_ONO's terms use y01_lb only, tau_NOO's y00_lb and y10_lb
            (["bounds", "--data", "PANEL", "--param", "ono", "--support-y00", "-100",
              "--support-y01", "-100", "--support-y10", "-100"],
             ["--support-y00", "--support-y10"]),
            (["bounds", "--data", "PANEL", "--param", "noo", "--support-y01", "-100"],
             ["--support-y01"]),
            (["bounds", "--data", "PANEL", "--boot", "7", "--seed", "3"],
             ["--boot", "--seed"]),
            (["bounds", "--data", "PANEL", "--ci", "none", "--seed", "0"], ["--seed"]),
            (["bounds", "--data", "PANEL", "--param", "ono", "--boot", "200"], ["--boot"]),
            (["bounds-rcs", "--data", "RCS", "--boot", "7", "--seed", "3"],
             ["--boot", "--seed"]),
            (["bounds-rcs", "--data", "RCS", "--ci", "none", "--seed", "0"], ["--seed"]),
            (["simulate", "--n", "300", "--reps", "5", "--seed", "3", "--oracle-draws", "5"],
             ["--oracle-draws"]),
        ],
    )
    def test_exits_2(self, tmp_path, capsys, argv, flags):
        files = {"PANEL": _panel(tmp_path), "RCS": _panel(tmp_path, RCS_CSV, "rcs.csv")}
        code, out, err = _run(capsys, [files.get(a, a) for a in argv])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["code"] == "ValidationError"
        assert payload["context"] == {"flags": flags}

    @pytest.mark.parametrize("param, flags", [
        ("ono", ["--support-y01"]),
        ("nno", ["--support-y00", "--support-y01", "--support-y10"]),
        ("noo", ["--support-y00", "--support-y10"]),
    ])
    def test_support_flags_a_bound_uses_are_accepted(self, tmp_path, capsys, param, flags):
        argv = ["bounds", "--data", _panel(tmp_path), "--param", param]
        for flag in flags:
            argv += [flag, "-100"]
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        minima = json.loads(out)["support_minima"]
        assert all(minima[f"{flag[-3:]}_lb"] == -100.0 for flag in flags)

    def test_boot_is_200_when_a_ci_is_on(self, tmp_path, capsys):
        argv = ["bounds", "--data", _panel(tmp_path), "--ci", "im", "--seed", "5"]
        code, out, err = _run(capsys, argv)
        assert code == 0, err
        assert _run(capsys, argv + ["--boot", "200"]) == (0, out, "")
        assert json.loads(out)["ci"]["reps_used"] + json.loads(out)["ci"]["failed_reps"] == 200


class TestFlagsBeforeData:
    """A flag error exits 2 before the file is read, so a missing file does
    not hide it, and a negative seed is a flag error, not a traceback."""

    @pytest.mark.parametrize(
        "argv, error, context",
        [
            (["bounds", "--data", "MISSING", "--param", "ono", "--assumptions", "nomono"],
             "ValidationError", {}),
            (["bounds", "--data", "MISSING", "--boot", "7"], "ValidationError",
             {"flags": ["--boot"]}),
            (["bounds-rcs", "--data", "MISSING", "--ci", "union"], "ValidationError", {}),
            (["bounds-staggered", "--data", "MISSING", "--gamma", "2", "--t", "1"],
             "InvalidAssumptions", {}),
            (["bounds", "--data", "MISSING", "--ci", "im", "--seed", "-1"],
             "ValidationError", {"seed": -1}),
        ],
    )
    def test_flag_error_before_missing_file(self, tmp_path, capsys, argv, error, context):
        missing = str(tmp_path / "missing.csv")
        code, out, err = _run(capsys, [missing if a == "MISSING" else a for a in argv])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert (payload["code"], payload["context"]) == (error, context)

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--data", "PANEL", "--ci", "im", "--boot", "5", "--seed", "-1"],
            ["bounds-rcs", "--data", "RCS", "--ci", "union", "--boot", "5", "--seed", "-3"],
            ["simulate", "--n", "300", "--reps", "1", "--seed", "-1"],
            ["oracle", "--mc-draws", "100000", "--seed", "-1"],
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        files = {"PANEL": _panel(tmp_path), "RCS": _panel(tmp_path, RCS_CSV, "rcs.csv")}
        code, out, err = _run(capsys, [files.get(a, a) for a in argv])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["code"] == "ValidationError"
        assert payload["message"].startswith("seed must be non-negative")


@pytest.mark.parametrize(
    "argv, raw, line",
    [
        (["naive"], b"id,d,s0,s1,y0,y1\n\xe9,1,1,1,1.0,2.0\n", 2),
        (["bounds-staggered", "--gamma", "1", "--t", "1"],
         b"id,gvar,t,s,y\n1,99999999999999999999,0,1,1.0\n", 2),
        (["naive"], b"id,d,s0,s1,y0,y1\n" + b"x" * 140_000 + b",1,1,1,1.0,2.0\n", 2),
    ],
    ids=["not-utf8", "gvar-beyond-int64", "field-beyond-limit"],
)
def test_malformed_file_exits_2(tmp_path, capsys, argv, raw, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    code, out, err = _run(capsys, argv + ["--data", str(path)])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["code"] == "MalformedRow" and payload["context"] == {"line": line}


# stdout of each panel command on generate_panel(DgpConfig(n=300, seed=7)),
# recorded from the CLI when every bound built its own masks over the full
# arrays; regenerate it only for a change of output that is meant
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "panel_cli.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_panel_commands_match_golden_stdout(tmp_path, capsys, command):
    path = tmp_path / "panel.csv"
    write_panel_csv(generate_panel(DgpConfig(n=300, seed=7)), path)
    code, out, err = _run(capsys, command.split() + ["--data", str(path)])
    assert code == 0 and err == ""
    assert out == GOLDEN[command]


def _golden_inputs(tmp_path) -> dict:
    """Panel, repeated cross-section and staggered files, all drawn from
    generate_panel(DgpConfig(n=300, seed=7)), by argv placeholder."""
    panel = generate_panel(DgpConfig(n=300, seed=7))
    fmt = lambda v: "" if np.isnan(v) else repr(float(v))
    by_period = ((panel.s0, panel.y0), (panel.s1, panel.y1))
    # unit i is sampled in period i % 2 only, with that period's outcome
    rcs = ["id,t,d,s,y"] + [
        f"{uid},{i % 2},{panel.d[i]},{by_period[i % 2][0][i]},{fmt(by_period[i % 2][1][i])}"
        for i, uid in enumerate(panel.ids)
    ]
    # treated units alternate between cohorts 1 and 2; period 2 repeats
    # period 1 shifted by 0.5; rows shuffled so first-seen order is not id order
    multi = [
        f"{uid},{(1 + i % 2) * panel.d[i]},{t},{s[i]},{fmt(y[i] + shift)}"
        for i, uid in enumerate(panel.ids)
        for t, (s, y), shift in ((0, by_period[0], 0.0), (1, by_period[1], 0.0),
                                 (2, by_period[1], 0.5))
    ]
    order = np.random.default_rng(11).permutation(len(multi))
    multi = ["id,gvar,t,s,y"] + [multi[k] for k in order]
    files = {name: tmp_path / f"{name.lower()}.csv" for name in ("PANEL", "RCS", "MULTI")}
    write_panel_csv(panel, files["PANEL"])
    files["RCS"].write_text("\n".join(rcs) + "\n", encoding="utf-8")
    files["MULTI"].write_text("\n".join(multi) + "\n", encoding="utf-8")
    return {name: str(path) for name, path in files.items()}


# stdout of the commands that share the CLI's load/bound/CI/emit path, on the
# files of _golden_inputs, recorded from the CLI when each command had its own
# branch in cli.run and the staggered pivot read a stored unit list
GOLDEN_COMMANDS = json.loads(
    (Path(__file__).parent / "golden" / "cli_commands.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
def test_commands_match_golden_stdout(tmp_path, capsys, command):
    files = _golden_inputs(tmp_path)
    code, out, err = _run(capsys, [files.get(a, a) for a in command.split()])
    assert code == 0 and err == ""
    assert out == GOLDEN_COMMANDS[command]



@pytest.mark.parametrize(
    "full, partial, attrit_d, lb, ub",
    [((3, 2), (1, 2), 0, 1.0, 1.5), ((3, 2), (1, 1), 0, 1.5, 2.0),
     ((3, 2), (1, 2), 1, -1.5, -1.0), ((3, 2), (1, 1), 1, -2.0, -1.5)],
    ids=["control-attrits", "control-attrits-tied", "treated-attrits",
         "treated-attrits-tied"],
)
def test_weight_is_exactly_one_when_other_arm_keeps_every_unit(
    tmp_path, capsys, full, partial, attrit_d, lb, ub
):
    # the arm that keeps every unit (retention exactly 1) has dY `full`; the
    # other has dY `partial` and one attriter, so its weight must be exactly 1.0
    # and its mean untrimmed (the tied cases exited 3 with EmptyTrimSet)
    rows = [f"k{i},{1 - attrit_d},1,1,0,{dy}" for i, dy in enumerate(full)]
    rows += [f"p{i},{attrit_d},1,1,0,{dy}" for i, dy in enumerate(partial)]
    rows.append(f"x,{attrit_d},1,0,0,")
    text = "id,d,s0,s1,y0,y1\n" + "\n".join(rows) + "\n"
    code, out, err = _run(
        capsys, ["bounds", "--data", _panel(tmp_path, text), "--assumptions", "nomono"]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["lb"], payload["ub"]) == (lb, ub)
    assert payload["proportions"][("p_ooo0", "p_ooo1")[attrit_d]] == 1.0


@pytest.mark.parametrize(
    "argv", [["naive"], ["bounds", "--assumptions", "mono-pos"]], ids=["naive", "bounds"]
)
def test_overflowing_estimate_exits_3(tmp_path, capsys, argv):
    # finite outcomes whose mean overflows: a structured error, not a traceback
    text = "id,d,s0,s1,y0,y1\na,1,1,1,0,1e308\nb,1,1,1,0,1e308\n"
    text += "c,0,1,1,0,1\nd,0,1,1,0,2\ne,0,0,0,,\n"
    code, out, err = _run(capsys, argv + ["--data", _panel(tmp_path, text)])
    assert code == 3 and out == ""
    assert json.loads(err)["code"] == "NonFiniteEstimate"


@pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
def test_non_finite_outcome_exits_2(tmp_path, capsys, raw):
    text = PANEL_CSV.replace("a1,1,1,1,10,11", f"a1,1,1,1,10,{raw}")
    code, out, err = _run(capsys, ["naive", "--data", _panel(tmp_path, text)])
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "MalformedRow"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--data", "PANEL", "--param", "ono", "--support-y01", "inf"],
        ["bounds", "--data", "PANEL", "--param", "nno", "--support-y00", "nan"],
        ["oracle", "--seed", "1", "--att", "nan"],
        ["oracle", "--seed", "1", "--selection-shift=-inf"],
        ["simulate", "--n", "300", "--reps", "1", "--seed", "1", "--att", "inf"],
    ],
)
def test_non_finite_float_flag_exits_2(tmp_path, capsys, argv):
    code, out, err = _run(capsys, [_panel(tmp_path) if a == "PANEL" else a for a in argv])
    assert code == 2 and out == ""
    assert "not a finite number" in err


def test_emit_refuses_non_finite_values():
    for output in ("json", "csv"):
        with pytest.raises(ValueError):
            _emit({"schema": 1, "lb": float("nan")}, output)
        with pytest.raises(ValueError):
            _emit({"schema": 1, "ci": {"hi": float("inf")}}, output)


# every subcommand's option strings; a new flag shows up here as a test diff
CLI_SURFACE = {
    "bounds": ["--assumptions", "--boot", "--ci", "--data", "--output", "--param",
               "--seed", "--support-y00", "--support-y01", "--support-y10"],
    "bounds-rcs": ["--assumptions", "--boot", "--ci", "--data", "--output", "--seed",
                   "--variant"],
    "bounds-staggered": ["--assumptions", "--data", "--gamma", "--output", "--t"],
    "naive": ["--data", "--design", "--output"],
    "strata": ["--data", "--output"],
    "simulate": ["--assumptions", "--att", "--coverage", "--n", "--oracle-draws",
                 "--reps", "--seed"],
    "oracle": ["--att", "--mc-draws", "--seed", "--selection-shift"],
}


def test_cli_surface():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: sorted(
            opt for action in sub._actions for opt in action.option_strings
            if opt not in ("-h", "--help")
        )
        for name, sub in commands.choices.items()
    }
    assert surface == CLI_SURFACE


# every public name of the package, with the parameters of each function and
# constructor (None for a constant); a new name or parameter shows up here as
# a test diff
PUBLIC_SURFACE = {
    "AssumptionSet": ["variant", "direction", "joint_independence", "mean_dominance"],
    "BootstrapResult": ["se_lb", "se_ub", "replicates", "reps_used", "failed_reps"],
    "BootstrapSpec": ["reps", "seed"],
    "BoundsResult": ["parameter", "assumptions", "lb", "ub", "proportions",
                     "support_minima", "warnings", "extras"],
    "ConfidenceInterval": ["method", "level", "lo", "hi", "se_lb", "se_ub", "c_n",
                           "reps_used", "failed_reps", "warnings"],
    "DgpConfig": ["n", "rho_ca", "rho_uv", "outcome_intercept", "att",
                  "selection_shift", "seed"],
    "FrechetInterval": ["lo", "hi"],
    "MONO_NEGATIVE": None,
    "MONO_POSITIVE": None,
    "MixingProportions": ["p_ooo1", "p_ooo0", "source", "p_ooo1_interval",
                          "p_ooo0_interval", "p_ono0", "p_nno1", "strata", "warnings"],
    "MultiPeriodPanel": ["ids", "gvar", "t", "s", "y"],
    "OracleResult": ["p_true", "lb_true", "ub_true", "mu1", "mu2", "mu3", "mc_draws",
                     "se_mc", "p_true_alt"],
    "PanelDataset": ["ids", "d", "s0", "s1", "y0", "y1"],
    "ProbEstimate": ["value", "numerator_count", "denominator_count"],
    "RcsDataset": ["ids", "t", "d", "s", "y"],
    "StaggeredTarget": ["gamma", "t"],
    "WITHOUT_MONOTONICITY": None,
    "bootstrap_ses": ["data", "bound_fn", "spec"],
    "bounds_staggered": ["data", "target", "assumptions"],
    "bounds_tau_nno": ["data", "assumptions", "support_overrides"],
    "bounds_tau_noo": ["data", "assumptions", "support_overrides"],
    "bounds_tau_ono": ["data", "assumptions", "support_overrides"],
    "bounds_tau_oo_rcs": ["data", "variant", "assumptions"],
    "bounds_tau_ooo": ["data", "assumptions"],
    "ci_imbens_manski": ["lb", "ub", "se_lb", "se_ub"],
    "ci_union": ["lb", "ub", "se_lb", "se_ub"],
    "cond_prob_s1": ["data", "d", "s0"],
    "empirical_quantile": ["values", "q"],
    "frechet_interval": ["p_a", "p_b"],
    "generate_panel": ["config"],
    "group_proportion": ["mix", "group"],
    "load_multi_csv": ["path"],
    "load_panel_csv": ["path"],
    "load_rcs_csv": ["path"],
    "mixing_mono": ["data", "direction"],
    "mixing_no_mono": ["data"],
    "monte_carlo_csv": ["rows"],
    "naive_did": ["data"],
    "naive_did_rcs": ["data"],
    "oracle_true_values": ["config", "mc_draws", "seed"],
    "rcs_weights": ["data", "variant", "mono"],
    "run_monte_carlo": ["config", "reps", "assumption_sets", "coverage", "oracle_draws"],
    "solve_c_n": ["delta", "tol"],
    "strata_proportions": ["data"],
    "trimmed_mean_lower": ["values", "p"],
    "trimmed_mean_upper": ["values", "p"],
    "write_panel_csv": ["data", "path"],
}


def test_public_surface():
    public = {name: value for name, value in vars(didbounds).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    surface = {name: list(inspect.signature(value).parameters) if callable(value) else None
               for name, value in public.items()}
    assert sorted(surface) == sorted(PUBLIC_SURFACE)
    assert surface == PUBLIC_SURFACE


def test_importing_the_cli_does_not_import_multiprocessing():
    # run_monte_carlo imports it on first use, so that every command's start-up
    # does not pay for it
    src = str(Path(didbounds.__file__).parents[1])
    code = "import sys, didbounds.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
    assert out.stdout == "False\n"


# other-group parameters are identified only under positive monotonicity;
# other --assumptions are a flag error whatever the file holds
_FLAG_ERRORS = {(param, name) for param in ("ono", "nno", "noo")
                for name in ASSUMPTION_FLAGS if name != "mono-pos"}


@settings(max_examples=60, deadline=None)
@given(rows=panel_rows)
def test_valid_panel_csv_never_exits_2(rows):
    # a file the canonical writer produced is valid: each command either
    # estimates (0) or reports why it cannot (3), never a validation error
    commands = [(["bounds", "--param", param, "--assumptions", name],
                 (param, name) in _FLAG_ERRORS)
                for param in ("ooo", "ono", "nno", "noo") for name in ASSUMPTION_FLAGS]
    commands += [(["strata"], False), (["naive"], False)]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "panel.csv")
        write_panel_csv(make_panel(rows), path)
        for command, flag_error in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = run(command + ["--data", path])
            if flag_error:
                assert code == 2 and "requires --assumptions mono-pos" in err.getvalue()
            else:
                assert code in (0, 3), (command, err.getvalue())
