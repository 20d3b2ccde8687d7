import argparse
import json
import math
import re
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import cutpaste.tvlab.exact
from cutpaste.chains import run_efcp_matrix, standard_ehrenfest
from cutpaste.cli import COMMANDS, _float, _int, build_parser, main
from cutpaste.errors import BUDGETS, BudgetRefusal, ValidationError, _renamed
from cutpaste.paintbox import PermutationMix, SelfSimilar, law_from_config
from cutpaste.partitions import Coloring
from cutpaste.products import estimate_lyapunov
from cutpaste.projections import projected_mixing_equivalence, words
from cutpaste.tvlab import (
    ProductMultinomialLaw,
    ehrenfest_mixing_time,
    ehrenfest_tv_profile,
    loglog_schedule,
    make_constant_pair,
    tv_exact_atomic,
    tv_exact_product_multinomial,
    tv_upper_mc,
)

ATOMIC_LAW = {
    "kind": "atomic",
    "atoms": [[[0.8, 0.3], [0.2, 0.7]], [[0.6, 0.45], [0.4, 0.55]]],
    "weights": [0.5, 0.5],
}

RCE_LAW = {
    "kind": "atomic",
    "atoms": [
        [[0.8, 0.3], [0.2, 0.7]],
        [[0.2, 0.7], [0.8, 0.3]],
        [[0.3, 0.8], [0.7, 0.2]],
        [[0.7, 0.2], [0.3, 0.8]],
    ],
    "weights": [0.25, 0.25, 0.25, 0.25],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_simulate_json_deterministic(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    argv = ["simulate", "--config", cfg, "--n", "6", "--steps", "5", "--seed", "3", "--x0-color", "1"]
    rc1, out1, err1 = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert err1 == ""
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema_version"] == 1
    assert doc["command"] == "simulate"
    assert doc["config"]["n"] == 6
    assert set(doc["config"]) == {"law", "n", "steps", "seed", "thin", "construction", "x0"}
    traj = doc["result"]["trajectory"]
    assert traj[0] == {"step": 0, "word": "111111"}
    assert traj[-1]["step"] == 5
    assert all(set(row["word"]) <= {"1", "2"} for row in traj)


def test_simulate_seed_changes_output(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    base = ["simulate", "--config", cfg, "--n", "8", "--steps", "6", "--x0-color", "1"]
    _, out_a, _ = run_cli(capsys, base + ["--seed", "1"])
    _, out_b, _ = run_cli(capsys, base + ["--seed", "2"])
    assert json.loads(out_a)["result"] != json.loads(out_b)["result"]


def test_simulate_explicit_x0_and_constructions(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    for construction in ("matrix", "coordinate"):
        rc, out, _ = run_cli(
            capsys,
            ["simulate", "--config", cfg, "--n", "4", "--steps", "3", "--seed", "0",
             "--x0", "1212", "--construction", construction],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["config"]["construction"] == construction
        assert doc["result"]["trajectory"][0]["word"] == "1212"


def test_simulate_refuses_n_that_disagrees_with_x0(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    base = ["simulate", "--config", cfg, "--steps", "1", "--seed", "0", "--x0", "12121"]
    for n in ("4", "6"):
        rc, out, err = run_cli(capsys, base + ["--n", n])
        assert rc == 2
        assert out == ""
        assert _validation_field(err) == "n"
    rc, out, _ = run_cli(capsys, base + ["--n", "5"])
    assert rc == 0
    assert json.loads(out)["config"]["n"] == 5


def test_missing_setting_exits_2(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    rc, out, err = run_cli(capsys, ["simulate", "--config", cfg, "--n", "4"])
    assert rc == 2
    assert out == ""
    diag = json.loads(err)
    assert diag["error"]["type"] == "validation"
    assert diag["error"]["field"] == "steps"


def test_bad_law_config_exits_2(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": {"kind": "mystery"}})
    rc, _, err = run_cli(capsys, ["simulate", "--config", cfg, "--n", "4", "--steps", "2", "--seed", "0"])
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "validation"


def test_flag_overrides_config(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW, "n": 4, "steps": 2, "seed": 9, "x0_color": 1})
    rc, out, _ = run_cli(capsys, ["simulate", "--config", cfg, "--n", "6"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["n"] == 6
    assert doc["config"]["steps"] == 2
    assert len(doc["result"]["trajectory"][0]["word"]) == 6


def test_tv_exact_csv_grid(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    argv = ["tv", "--config", cfg, "--n", "8", "--method", "exact", "--pair", "constant",
            "--m-grid", "1,2,3", "--seed", "5"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,tv_value,kind,std_error,replicates,seed"
    assert len(lines) == 4
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [r["m"] for r in rows] == ["1", "2", "3"]
    assert all(r["kind"] == "exact" and r["std_error"] == "0.0" for r in rows)
    values = [float(r["tv_value"]) for r in rows]
    assert values[0] > values[1] > values[2]
    rc2, out2, _ = run_cli(capsys, argv)
    assert out2 == out


def test_tv_upper_single_m_json(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    rc, out, _ = run_cli(
        capsys,
        ["tv", "--config", cfg, "--n", "8", "--method", "upper", "--pair", "constant",
         "--m", "2", "--replicates", "200", "--seed", "1"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert set(doc["config"]) == {
        "law", "n", "m", "method", "pair", "color_a", "color_b", "replicates", "seed",
    }
    result = doc["result"]
    assert result["kind"] == "upper_bound"
    assert result["replicates"] == 200
    assert 0.0 <= result["value"] <= 1.0


def test_tv_lower_requires_block_pair_exit_3(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    rc, out, err = run_cli(
        capsys,
        ["tv", "--config", cfg, "--n", "8", "--method", "lower", "--pair", "constant",
         "--m", "2", "--replicates", "50", "--seed", "1"],
    )
    assert rc == 3
    assert out == ""
    diag = json.loads(err)
    assert diag["error"]["type"] == "theory_gate"
    assert "block design" in diag["error"]["reason"]


def test_mixing_time_deterministic_and_refusal(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    argv = ["mixing-time", "--config", cfg, "--n", "8", "--k", "2", "--epsilon", "0.5,0.25",
            "--method", "exact_atomic", "--seed", "2"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    tmix = {row["epsilon"]: row["m"] for row in doc["result"]["t_mix"]}
    assert tmix[0.25] is not None
    _, out2, _ = run_cli(capsys, argv)
    assert out2 == out

    perm = write_config(tmp_path, {"law": {"kind": "permutation_mix", "k": 2}}, "perm.json")
    rc3, _, err3 = run_cli(
        capsys,
        ["mixing-time", "--config", perm, "--n", "8", "--k", "2", "--epsilon", "0.25",
         "--method", "exact_atomic", "--seed", "2"],
    )
    assert rc3 == 3
    assert json.loads(err3)["error"]["type"] == "theory_gate"


def test_mixing_time_cli_stops_at_its_crossing_inside_the_budget(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    rc, out, _ = run_cli(capsys, [
        "mixing-time", "--config", cfg, "--n", "1000", "--k", "2", "--epsilon", "0.01,0.001",
        "--method", "exact_atomic",
    ])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["t_mix"] == [{"epsilon": 0.001, "m": 9}, {"epsilon": 0.01, "m": 7}]
    assert result["flags"] == []
    assert [e["m"] for e in result["estimates"]] == list(range(1, 10))


def test_mixing_time_cli_flags_the_budget_under_mc(capsys, tmp_path):
    # the k = 4 conditional TVs at n = 500 enumerate C(503, 3) > 2e7 states
    cfg = write_config(tmp_path, {"law": {"kind": "self_similar", "nu": [1.0] * 4}})
    rc, out, _ = run_cli(capsys, [
        "mixing-time", "--config", cfg, "--n", "500", "--k", "4", "--replicates", "20",
    ])
    assert rc == 0
    result = json.loads(out)["result"]
    assert result["flags"] == ["enumeration budget reached at m=1 (21084251 needed)"]
    assert result["estimates"] == [] and result["t_mix"] == [{"epsilon": 0.25, "m": None}]


def test_collapse_command(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": {"kind": "self_similar", "nu": [1.0, 1.0]}})
    rc, out, _ = run_cli(capsys, ["collapse", "--config", cfg, "--seed", "0", "--replicates", "100"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "yes"


def test_lyapunov_point_mass_matches_trace(capsys, tmp_path):
    matrix = [[0.85, 0.25], [0.15, 0.75]]
    cfg = write_config(tmp_path, {"law": {"kind": "point_mass", "matrix": matrix}})
    rc, out, _ = run_cli(capsys, ["lyapunov", "--config", cfg, "--m", "400", "--replicates", "8", "--seed", "0"])
    assert rc == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["kind"] == "mc_estimate"
    want = abs(matrix[0][0] + matrix[1][1] - 1.0)
    assert abs(result["lambda1"] - want) < 1e-9


def test_cutoff_command_smoke(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": {"kind": "self_similar", "nu": [1.0, 1.0]}})
    argv = ["cutoff", "--config", cfg, "--k", "2", "--n-grid", "16,32", "--epsilon", "0.25",
            "--replicates", "300", "--m-max", "64", "--lyapunov-m", "300",
            "--lyapunov-replicates", "8", "--seed", "6"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    doc = json.loads(out)
    result = doc["result"]
    assert 0.0 < result["lambda1_hat"] < 1.0
    assert len(result["profiles"]) == 2
    _, out2, _ = run_cli(capsys, argv)
    assert out2 == out


def test_ehrenfest_bounds_json(capsys):
    rc, out, _ = run_cli(capsys, ["ehrenfest", "--n", "64", "--alpha", "0.25", "--t", "30", "--beta", "1.0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["kind"] == "bounds"
    assert doc["result"]["upper_at_t"] == 64 * (1 - 16 / 64) ** 30


def test_cutoff_has_no_window_ratio_at_one_site(capsys, tmp_path):
    # log 1 = 0: the ratio was printed as Infinity
    cfg = write_config(tmp_path, {**BASE["cutoff"], "n_grid": [1, 4]})
    rc, out, err = run_cli(capsys, ["cutoff", "--config", cfg])
    assert rc == 0, err
    result = json.loads(out)["result"]
    assert [p["n"] for p in result["profiles"]] == [1, 4]
    assert result["window_ratios"][0] is None


def test_ehrenfest_lower_schedule_before_time_zero_is_null(capsys):
    # (64 / 32) log 64 - 100 * 64 / 16 < 0: the lower schedule has no time
    rc, out, err = run_cli(capsys, ["ehrenfest", "--n", "64", "--alpha", "0.25", "--beta", "100"])
    assert rc == 0, err
    result = json.loads(out)["result"]
    assert result["t_lower_schedule"] is None and result["lower_at_schedule"] is None
    assert result["t_upper_schedule"] == 2 * math.log(64) + 100 * 64 / 16


@pytest.mark.parametrize("argv", [
    ["--n", "1000", "--loglog", "--beta", "1e308"],
    ["--n", "64", "--alpha", "0.25", "--beta", "1e308"],
    ["--n", "64", "--alpha", "0.25", "--t", "3", "--beta", "1e308"],
])
def test_ehrenfest_refuses_a_beta_whose_schedule_overflows(capsys, argv):
    rc, out, err = run_cli(capsys, ["ehrenfest", *argv])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "beta"


def test_ehrenfest_exact_csv_matches_library(capsys):
    rc, out, _ = run_cli(capsys, ["ehrenfest", "--n", "16", "--standard", "--exact", "--t-grid", "0,5,10"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,m,tv_value,kind,std_error,replicates,seed"
    profile = ehrenfest_tv_profile(standard_ehrenfest(16), [0, 5, 10])
    for line, (t, est) in zip(lines[1:], profile):
        cells = line.split(",")
        assert int(cells[1]) == t
        assert abs(float(cells[2]) - est.value) < 1e-15
        assert cells[3] == "exact"


def test_ehrenfest_mixing_eps(capsys):
    rc, out, _ = run_cli(capsys, ["ehrenfest", "--n", "32", "--standard", "--mixing-eps", "0.25"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["kind"] == "exact"
    assert doc["result"]["t_mix"] == ehrenfest_mixing_time(standard_ehrenfest(32), 0.25)


def test_ehrenfest_loglog_schedule(capsys):
    rc, out, _ = run_cli(capsys, ["ehrenfest", "--n", "1000", "--loglog", "--beta", "2.0"])
    assert rc == 0
    doc = json.loads(out)
    sched = loglog_schedule(1000, 2.0)
    assert doc["result"]["upper_rate"] == sched.upper_rate
    assert doc["result"]["upper_rate"] <= doc["result"]["target"] * (1 + 1e-12)


def test_ehrenfest_conflicting_requests_exit_2(capsys):
    rc, _, err = run_cli(capsys, ["ehrenfest", "--n", "16"])
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "validation"


def test_ehrenfest_bounds_without_t_or_beta_name_t(capsys):
    rc, out, err = run_cli(capsys, ["ehrenfest", "--n", "64", "--alpha", "0.25", "--t-grid", "1,2"])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "t"


def test_project_command(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": RCE_LAW})
    rc, out, _ = run_cli(capsys, ["project", "--config", cfg, "--n", "4", "--k", "2",
                                  "--epsilon", "0.5,0.25", "--seed", "0"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["equal_crossings"] is True
    t_lab = {row["epsilon"]: row["m"] for row in doc["result"]["t_labeled"]}
    t_proj = {row["epsilon"]: row["m"] for row in doc["result"]["t_projected"]}
    assert t_lab == t_proj


def test_project_non_rce_exit_3(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    rc, _, err = run_cli(capsys, ["project", "--config", cfg, "--n", "4", "--k", "2"])
    assert rc == 3
    assert json.loads(err)["error"]["type"] == "theory_gate"


def test_project_non_ergodic_exit_3(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": {"kind": "permutation_mix", "k": 2}})
    rc, out, err = run_cli(capsys, ["project", "--config", cfg, "--n", "3", "--k", "2"])
    assert rc == 3
    assert out == ""
    diag = json.loads(err)["error"]
    assert diag["type"] == "theory_gate"
    assert "stationary law" in diag["reason"]


def test_project_non_ergodic_k3_names_the_count_chain(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": {"kind": "permutation_mix", "k": 3}})
    rc, out, err = run_cli(capsys, ["project", "--config", cfg, "--n", "2", "--k", "3"])
    assert (rc, out) == (3, "")
    diag = json.loads(err)["error"]
    assert diag["type"] == "theory_gate"
    assert diag["details"]["stationary"].startswith("chain of color counts")
    assert "unique" in diag["details"]["stationary"]


@pytest.mark.parametrize(
    "settings,field",
    [
        ({"epsilon": []}, "epsilon"),
        ({"m_max": -3}, "m_max"),
        ({"m_max": 0}, "m_max"),
        ({"n": 0}, "n"),
    ],
)
def test_project_malformed_settings_exit_2(capsys, tmp_path, settings, field):
    cfg = write_config(tmp_path, {"law": RCE_LAW, "n": 4, "k": 2, **settings})
    rc, out, err = run_cli(capsys, ["project", "--config", cfg])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == field


def test_out_file_redirects_stdout(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    target = tmp_path / "run.json"
    rc, out, _ = run_cli(capsys, ["simulate", "--config", cfg, "--n", "4", "--steps", "2",
                                  "--seed", "0", "--x0-color", "1", "--out", str(target)])
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "simulate"


def test_config_must_be_object(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2, 3]")
    rc, _, err = run_cli(capsys, ["simulate", "--config", str(path), "--n", "4", "--steps", "2"])
    assert rc == 2
    assert json.loads(err)["error"]["field"] == "config"


def _validation_field(err: str):
    diag = json.loads(err)
    assert diag["error"]["type"] == "validation"
    return diag["error"]["field"]


def test_malformed_json_config_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"law": {"kind": "point_mass",')
    rc, out, err = run_cli(capsys, ["lyapunov", "--config", str(path), "--m", "5"])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "config"


def test_missing_config_file_exits_2(capsys, tmp_path):
    path = tmp_path / "absent.json"
    rc, out, err = run_cli(capsys, ["collapse", "--config", str(path)])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "config"


def test_non_numeric_matrix_entry_exits_2(capsys, tmp_path):
    law = {"kind": "point_mass", "matrix": [[0.9, "a lot"], [0.1, 0.8]]}
    cfg = write_config(tmp_path, {"law": law})
    rc, out, err = run_cli(capsys, ["lyapunov", "--config", cfg, "--m", "5"])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "law.matrix"
    ragged = dict(ATOMIC_LAW, atoms=[[[0.8, 0.3], [0.2]], ATOMIC_LAW["atoms"][1]])
    rc, _, err = run_cli(capsys, ["collapse", "--config", write_config(tmp_path, {"law": ragged})])
    assert rc == 2
    assert _validation_field(err) == "law.atoms"


def test_simulate_thinned_trajectory_steps(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW})
    rc, out, _ = run_cli(
        capsys, ["simulate", "--config", cfg, "--n", "4", "--steps", "7", "--thin", "3", "--seed", "1"]
    )
    assert rc == 0
    assert [row["step"] for row in json.loads(out)["result"]["trajectory"]] == [0, 3, 6, 7]


def test_non_numeric_scalar_settings_exit_2(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW, "m": "many"})
    rc, out, err = run_cli(capsys, ["lyapunov", "--config", cfg])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "m"
    law = {"kind": "permutation_mix", "k": "three"}
    rc, out, err = run_cli(capsys, ["collapse", "--config", write_config(tmp_path, {"law": law})])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "law.k"
    law = {"kind": "permutation_mix", "k": 3, "perms": [[1, 2, "x"]]}
    rc, _, err = run_cli(capsys, ["collapse", "--config", write_config(tmp_path, {"law": law})])
    assert rc == 2
    assert _validation_field(err) == "law.perms"
    for key, value in (("n_grid", [64, "big"]), ("epsilon", "tiny"), ("replicates", 1e400),
                       ("n_grid", [8, 8.5]), ("epsilon", True), ("replicates", True)):
        cfg = write_config(tmp_path, {"law": ATOMIC_LAW, "n_grid": [8], key: value})
        rc, _, err = run_cli(capsys, ["cutoff", "--config", cfg])
        assert rc == 2
        assert _validation_field(err) == key
    # a boolean is no number, and an int setting takes only integral numbers
    for value in (2.9, True, False):
        cfg = write_config(tmp_path, {"law": ATOMIC_LAW, "m": value})
        rc, _, err = run_cli(capsys, ["lyapunov", "--config", cfg])
        assert rc == 2
        assert _validation_field(err) == "m"
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW, "m": 6, "replicates": 2})
    want = run_cli(capsys, ["lyapunov", "--config", cfg])
    assert want[0] == 0
    for value in (6.0, "6"):
        cfg = write_config(tmp_path, {"law": ATOMIC_LAW, "m": value, "replicates": 2})
        assert run_cli(capsys, ["lyapunov", "--config", cfg]) == want


def test_ehrenfest_boolean_settings(capsys, tmp_path):
    base = {"n": 16, "alpha": 0.25, "t": 3}
    for key, value in (("exact", "false"), ("standard", "no"), ("loglog", 1), ("exact", [])):
        cfg = write_config(tmp_path, {**base, key: value})
        rc, out, err = run_cli(capsys, ["ehrenfest", "--config", cfg])
        assert rc == 2
        assert out == ""
        assert _validation_field(err) == key
    # JSON false and null both leave the bounds request (alpha 0.25, batch 4)
    want = run_cli(capsys, ["ehrenfest", "--config", write_config(tmp_path, base)])
    for value in (False, None):
        cfg = write_config(tmp_path, {**base, "exact": value, "standard": value, "loglog": value})
        got = run_cli(capsys, ["ehrenfest", "--config", cfg])
        assert got == want
    assert json.loads(want[1])["result"]["batch_size"] == 4
    # JSON true matches the store_true flag
    cfg = write_config(tmp_path, {"n": 16, "standard": True, "exact": True, "t_grid": [0, 5]})
    flags = ["ehrenfest", "--n", "16", "--standard", "--exact", "--t-grid", "0,5"]
    assert run_cli(capsys, ["ehrenfest", "--config", cfg]) == run_cli(capsys, flags)


def test_ehrenfest_exact_refuses_past_the_size_limit(capsys):
    rc, out, err = run_cli(capsys, ["ehrenfest", "--n", "2000", "--alpha", "0.25", "--exact"])
    assert rc == 3
    assert out == ""
    diag = json.loads(err)["error"]
    assert diag["type"] == "budget_exceeded"
    assert diag["details"] == {"budget_name": "ehrenfest_sites", "required": 2000, "budget": 1100}


@pytest.mark.parametrize("n,grid", [("1029", "0,100"), ("1100", "100")])
def test_ehrenfest_exact_single_site_near_the_size_limit(capsys, n, grid):
    # the unnormalised stationary law passes the double range near n = 1030
    argv = ["ehrenfest", "--n", n, "--standard", "--exact", "--t-grid", grid]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0
    assert err == ""
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[1] for row in rows] == grid.split(",")
    assert all(row[3] == "exact" and 0.0 <= float(row[2]) <= 1.0 for row in rows)
    if rows[0][1] == "0":
        # 1 - 2^-1029 rounds to 1
        assert rows[0][2] == "1.0"


# ----------------------------------------------------- the settings table

# The flags and config keys each command accepts. The law is a config key
# only; every other setting is also a flag.
ACCEPTED = {
    "simulate": "law n steps seed thin construction x0 x0_color",
    "lyapunov": "law m replicates seed",
    "collapse": "law m_max replicates delta seed",
    "tv": "law n m m_grid method pair color_a color_b replicates seed",
    "mixing-time": "law n k epsilon method replicates m_max seed",
    "cutoff": "law k n_grid epsilon method replicates m_max lyapunov_m lyapunov_replicates seed",
    "ehrenfest": "n alpha standard t beta exact t_grid mixing_eps loglog seed",
    "project": "law n k epsilon m_max seed",
}

# A quick, valid run of each command; the tests below change one setting
# at a time.
BASE = {
    "simulate": {"law": ATOMIC_LAW, "n": 4, "steps": 2},
    "lyapunov": {"law": ATOMIC_LAW, "m": 5, "replicates": 2},
    "collapse": {"law": ATOMIC_LAW, "m_max": 4, "replicates": 5},
    "tv": {"law": ATOMIC_LAW, "n": 4, "m": 1, "method": "exact"},
    "mixing-time": {"law": ATOMIC_LAW, "n": 4, "method": "exact_atomic"},
    "cutoff": {"law": {"kind": "self_similar", "nu": [1.0, 1.0]}, "n_grid": [4, 8],
               "replicates": 50, "m_max": 8, "lyapunov_m": 5, "lyapunov_replicates": 2},
    "ehrenfest": {"n": 16, "alpha": 0.25, "t": 3, "beta": 1.0},
    "project": {"law": RCE_LAW, "n": 3},
}

# One value per setting that differs from the base run; (command, key)
# entries win over the shared ones. Whole numbers for float settings check
# that a config value is converted just as its flag is.
SAMPLE = {
    "n": 5, "steps": 3, "seed": 7, "thin": 2, "construction": "coordinate", "x0": "1212",
    "x0_color": 2, "m": 2, "replicates": 3, "m_max": 6, "delta": 0.001, "pair": "block",
    "color_a": 2, "color_b": 1, "m_grid": [1, 2], "k": 2, "epsilon": [0.5, 0.3],
    "n_grid": [4, 6], "lyapunov_m": 6, "lyapunov_replicates": 3,
    "alpha": 0.5, "t": 4, "beta": 2, "mixing_eps": 0.3, "t_grid": [1, 2],
    "standard": True, "exact": True, "loglog": True,
    ("tv", "method"): "upper", ("tv", "n"): 8, ("mixing-time", "method"): "mc_sandwich",
    ("cutoff", "method"): "mc_sandwich", ("cutoff", "epsilon"): 0.3, ("cutoff", "m_max"): 16,
}

# A setting that only one mode reads is sampled against a base run in that
# mode: the command refuses it next to a setting of another mode.
MODE_BASE = {
    ("tv", "m_grid"): {"law": ATOMIC_LAW, "n": 4, "method": "exact"},
    ("tv", "replicates"): {"law": ATOMIC_LAW, "n": 4, "m": 1, "method": "upper"},
    ("mixing-time", "replicates"): {"law": ATOMIC_LAW, "n": 4, "method": "mc_sandwich"},
    ("ehrenfest", "standard"): {"n": 16, "t": 3, "beta": 1.0},
    ("ehrenfest", "exact"): {"n": 16, "alpha": 0.25},
    ("ehrenfest", "t_grid"): {"n": 16, "alpha": 0.25, "exact": True},
    ("ehrenfest", "mixing_eps"): {"n": 16, "alpha": 0.25},
    ("ehrenfest", "loglog"): {"n": 16, "beta": 1.0},
}

SETTINGS = [(command, key, read) for command, (_, _, table) in COMMANDS.items()
            for key, (read, *_) in table.items()]


def _as_flag(key, value) -> list[str]:
    flag = "--" + key.replace("_", "-")
    if value is True:
        return [flag]
    return [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]


def test_settings_table_declares_the_accepted_keys_and_flags():
    declared = {command: set(table) for command, (_, _, table) in COMMANDS.items()}
    assert declared == {command: set(keys.split()) for command, keys in ACCEPTED.items()}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(ACCEPTED)
    for command, keys in ACCEPTED.items():
        flags = {f for a in sub.choices[command]._actions for f in a.option_strings}
        want = {"-h", "--help", "--config", "--out"}
        want |= {"--" + k.replace("_", "-") for k in keys.split() if k != "law"}
        assert flags == want, command


@pytest.mark.parametrize("command,key", [(c, k) for c, k, _ in SETTINGS if k != "law"])
def test_flag_reads_like_config(capsys, tmp_path, command, key):
    value = SAMPLE.get((command, key), SAMPLE.get(key))
    base = {k: v for k, v in MODE_BASE.get((command, key), BASE[command]).items() if k != key}
    by_config = run_cli(capsys, [command, "--config", write_config(tmp_path, {**base, key: value})])
    by_flag = run_cli(capsys, [command, "--config", write_config(tmp_path, base, "base.json"),
                               *_as_flag(key, value)])
    assert by_config[0] == 0, by_config[2]
    assert by_flag == by_config


@pytest.mark.parametrize("command,key,read", [s for s in SETTINGS if s[2] in (_int, _float)])
def test_malformed_number_exits_2(capsys, tmp_path, command, key, read):
    for value in ["x", True] + ([2.5] if read is _int else []):
        cfg = write_config(tmp_path, {**BASE[command], key: value})
        rc, out, err = run_cli(capsys, [command, "--config", cfg])
        assert rc == 2, value
        assert out == ""
        assert _validation_field(err) == key
    rc, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, BASE[command]),
                                    *_as_flag(key, "x")])
    assert rc == 2
    assert _validation_field(err) == key


@pytest.mark.parametrize("command,key", [
    *[(c, k) for c, k, read in SETTINGS if read is _float],
    ("mixing-time", "epsilon"), ("project", "epsilon"),
])
def test_a_non_finite_number_exits_2(capsys, tmp_path, command, key):
    listed = key == "epsilon" and command != "cutoff"
    for value in (math.nan, math.inf, -math.inf):
        cfg = write_config(tmp_path, {**BASE[command], key: [0.25, value] if listed else value})
        rc, out, err = run_cli(capsys, [command, "--config", cfg])
        assert rc == 2, value
        assert out == ""
        assert _validation_field(err) == key
    flag = "--" + key.replace("_", "-")
    for text in ("nan", "inf", "-inf", "1e999"):
        rc, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, BASE[command]),
                                        f"{flag}={'0.25,' if listed else ''}{text}"])
        assert rc == 2, text
        assert out == ""
        assert _validation_field(err) == key


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("key", ["replicate", "out"])
def test_unknown_config_key_exits_2(capsys, tmp_path, command, key):
    cfg = write_config(tmp_path, {**BASE[command], key: 1})
    rc, out, err = run_cli(capsys, [command, "--config", cfg])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == key


@pytest.mark.parametrize("command", ["mixing-time", "project"])
@pytest.mark.parametrize("how", ["config", "flag"])
def test_empty_epsilon_list_exits_2(capsys, tmp_path, command, how):
    base = {k: v for k, v in BASE[command].items() if k != "epsilon"}
    if how == "config":
        argv = [command, "--config", write_config(tmp_path, {**base, "epsilon": []})]
    else:
        argv = [command, "--config", write_config(tmp_path, base), "--epsilon="]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "epsilon"


@pytest.mark.parametrize("command,settings,field", [
    ("mixing-time", {"law": ATOMIC_LAW, "n": 8, "k": 2, "epsilon": [1e-13]}, "epsilon"),
    ("ehrenfest", {"n": 32, "standard": True, "mixing_eps": 1e-13}, "mixing_eps"),
])
def test_epsilon_below_the_rounding_floor_exits_2(capsys, tmp_path, command, settings, field):
    # an exact TV is good to about 1e-11, so rounding alone would certify a
    # horizon below 1e-13
    rc, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, settings)])
    assert (rc, out) == (2, "")
    assert _validation_field(err) == field


@pytest.mark.parametrize("command,settings,field", [
    ("tv", {"law": ATOMIC_LAW, "n": 4, "method": "exact", "m": 1, "m_grid": [1, 2]}, "m"),
    ("ehrenfest", {"n": 64, "alpha": 0.25, "t": 3, "t_grid": [1, 2]}, "t_grid"),
    ("ehrenfest", {"n": 64, "alpha": 0.25, "beta": 1.0, "t_grid": [1, 2]}, "t_grid"),
    ("ehrenfest", {"n": 64, "alpha": 0.25, "mixing_eps": 0.25, "t_grid": [1, 2]}, "t_grid"),
    ("ehrenfest", {"n": 16, "alpha": 0.25, "exact": True, "mixing_eps": 0.25}, "mixing_eps"),
    ("ehrenfest", {"n": 16, "standard": True, "alpha": 0.25, "exact": True}, "alpha"),
    ("ehrenfest", {"n": 16, "alpha": 0.25, "exact": True, "t": 3}, "t"),
    ("ehrenfest", {"n": 16, "alpha": 0.25, "exact": True, "beta": 1.0}, "beta"),
    ("ehrenfest", {"n": 16, "alpha": 0.25, "mixing_eps": 0.25, "t": 3}, "t"),
    ("ehrenfest", {"n": 16, "alpha": 0.25, "mixing_eps": 0.25, "beta": 1.0}, "beta"),
    ("ehrenfest", {"n": 64, "beta": 1.5, "loglog": True, "alpha": 0.3}, "alpha"),
    ("ehrenfest", {"n": 64, "beta": 1.5, "loglog": True, "t": 4}, "t"),
    ("ehrenfest", {"n": 64, "beta": 1.5, "loglog": True, "t_grid": [1, 2]}, "t_grid"),
    ("ehrenfest", {"n": 64, "beta": 1.5, "loglog": True, "mixing_eps": 0.25}, "mixing_eps"),
    ("ehrenfest", {"n": 64, "beta": 1.5, "loglog": True, "standard": True}, "standard"),
    ("ehrenfest", {"n": 64, "beta": 1.5, "loglog": True, "exact": True}, "exact"),
    ("tv", {"law": ATOMIC_LAW, "n": 4, "m": 1, "method": "exact", "replicates": 5}, "replicates"),
    ("tv", {"law": ATOMIC_LAW, "n": 4, "method": "exact", "m_grid": [1, 2], "replicates": 5},
     "replicates"),
    ("mixing-time", {"law": ATOMIC_LAW, "n": 4, "method": "exact_atomic", "replicates": 5},
     "replicates"),
    ("tv", {"law": ATOMIC_LAW, "n": 4, "m": 1, "method": "exact", "pair": "block", "color_a": 1},
     "color_a"),
    ("tv", {"law": ATOMIC_LAW, "n": 4, "m": 1, "method": "exact", "pair": "block", "color_b": 2},
     "color_b"),
    ("simulate", {"law": ATOMIC_LAW, "n": 4, "steps": 1, "x0": "1212", "x0_color": 2},
     "x0_color"),
])
def test_setting_the_mode_ignores_exits_2(capsys, tmp_path, command, settings, field):
    rc, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, settings)])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == field
    # without the ignored setting the same run answers
    rest = {k: v for k, v in settings.items() if k != field}
    assert run_cli(capsys, [command, "--config", write_config(tmp_path, rest)])[0] == 0


def test_every_read_condition_has_an_ignored_setting_row():
    rows = next(mark.args[1] for mark in test_setting_the_mode_ignores_exits_2.pytestmark
                if mark.name == "parametrize")
    conditioned = {(command, key) for command, (_, _, table) in COMMANDS.items()
                   for key, entry in table.items() if len(entry) == 3}
    assert conditioned - {(command, field) for command, _, field in rows} == set()


def test_replicates_echo_only_where_read(capsys, tmp_path):
    # MC runs echo the default they used; exact runs read none and echo none
    runs = [
        ("tv", {"law": ATOMIC_LAW, "n": 4, "m": 1, "method": "upper"}, 10_000),
        ("tv", {"law": ATOMIC_LAW, "n": 4, "m": 1, "method": "exact"}, None),
        ("mixing-time", {"law": ATOMIC_LAW, "n": 4, "method": "mc_sandwich"}, 2000),
        ("mixing-time", {"law": ATOMIC_LAW, "n": 4, "method": "exact_atomic"}, None),
    ]
    for command, settings, want in runs:
        rc, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, settings)])
        assert rc == 0, err
        assert json.loads(out)["config"].get("replicates") == want


def test_lyapunov_ends_on_columns_whose_gamma_draws_underflow(tmp_path):
    # every Gamma draw at 1e-300 is exactly 0; drawing such columns must end
    law = {"kind": "dirichlet_columns", "alpha_columns": [[1e-300, 1e-300], [1e-300, 1e-300]]}
    argv = ["lyapunov", "--config", write_config(tmp_path, {"law": law}), "--m", "5",
            "--replicates", "2"]
    src = str(Path(cutpaste.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); from cutpaste.cli import main; sys.exit(main({argv!r}))"],
        capture_output=True, text=True, timeout=5,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["kind"] == "mc_estimate"


@pytest.mark.parametrize("delta", ["-1", "0", "1", "nan", "inf", "-inf", "1.5"])
def test_collapse_refuses_a_delta_outside_the_unit_interval(capsys, tmp_path, delta):
    cfg = write_config(tmp_path, {"law": {"kind": "permutation_mix", "k": 2}})
    rc, out, err = run_cli(capsys, ["collapse", "--config", cfg, f"--delta={delta}"])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "delta"


@pytest.mark.parametrize("key", ["replicates", "m_max"])
@pytest.mark.parametrize("value", [0, -1])
def test_collapse_names_a_nonpositive_size(capsys, tmp_path, key, value):
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW, key: value})
    rc, out, err = run_cli(capsys, ["collapse", "--config", cfg])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == key


@pytest.mark.parametrize("command,settings,field", [
    ("simulate", {"steps": -1}, "steps"),
    ("simulate", {"thin": -1}, "thin"),
    ("simulate", {"x0": "1X21"}, "x0"),
    ("simulate", {"x0": ""}, "x0"),
    ("cutoff", {"n_grid": [0, 32]}, "n_grid"),
    ("cutoff", {"lyapunov_m": 0}, "lyapunov_m"),
    ("cutoff", {"lyapunov_replicates": 0}, "lyapunov_replicates"),
    ("ehrenfest", {"beta": -1}, "beta"),
    ("ehrenfest", {"beta": 0}, "beta"),
    # JSON null unsets the base run's t and beta, which mixing_eps does not read
    ("ehrenfest", {"mixing_eps": 0, "t": None, "beta": None}, "mixing_eps"),
    ("ehrenfest", {"mixing_eps": -1, "t": None, "beta": None}, "mixing_eps"),
    # JSON null unsets the base run's m, which m_grid replaces
    ("tv", {"m_grid": [-1, 2], "m": None}, "m_grid"),
    ("tv", {"m_grid": [], "m": None}, "m_grid"),
    # cutoff runs mc_sandwich only, and its config may say so
    ("cutoff", {"method": "bogus"}, "method"),
    ("cutoff", {"method": "exact_atomic"}, "method"),
])
def test_a_bad_value_names_the_setting_given(capsys, tmp_path, command, settings, field):
    cfg = write_config(tmp_path, {**BASE[command], **settings})
    rc, out, err = run_cli(capsys, [command, "--config", cfg])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == field


@pytest.mark.parametrize("command", ["mixing-time", "cutoff"])
def test_mc_certification_refuses_one_replicate(capsys, tmp_path, command):
    base = {k: v for k, v in BASE[command].items() if k != "method"}
    cfg = write_config(tmp_path, {**base, "method": "mc_sandwich", "replicates": 1})
    rc, out, err = run_cli(capsys, [command, "--config", cfg])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == "replicates"
    # a plain MC estimate may still use one replicate
    cfg = write_config(tmp_path, {"law": ATOMIC_LAW, "n": 4, "m": 1, "replicates": 1})
    rc, out, _ = run_cli(capsys, ["tv", "--config", cfg])
    assert rc == 0
    assert json.loads(out)["result"]["mc_std_error"] == 0.0


ONE_COLOR_LAW = {"kind": "point_mass", "matrix": [[1.0]]}


@pytest.mark.parametrize("command,settings,field", [
    ("lyapunov", {"law": ONE_COLOR_LAW, "m": 5}, "law"),
    ("tv", {"law": ATOMIC_LAW, "n": 4, "m": 1, "color_b": 3}, "color_b"),
    ("tv", {"law": ATOMIC_LAW, "n": 4, "m": 1, "color_a": 0}, "color_a"),
    ("tv", {"law": ONE_COLOR_LAW, "n": 4, "m": 1, "pair": "block"}, "law"),
    # the search has no designed pair to probe; this was a traceback
    ("mixing-time", {"law": ONE_COLOR_LAW, "n": 4, "method": "exact_atomic", "m_max": 4}, "k"),
    ("simulate", {"law": ATOMIC_LAW, "n": 4, "steps": 1, "x0": "1313"}, "x0"),
    ("simulate", {"law": ATOMIC_LAW, "n": 4, "steps": 1, "x0_color": 3}, "x0_color"),
])
def test_settings_out_of_the_laws_range_name_a_setting(capsys, tmp_path, command, settings,
                                                       field):
    rc, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, settings)])
    assert rc == 2
    assert out == ""
    assert _validation_field(err) == field

README = Path(__file__).resolve().parents[1] / "README.md"
README_EXAMPLES = [
    line for line in README.read_text().split("## CLI")[1].split("\n## ")[0].splitlines()
    if line.startswith("cutpaste ")
]


@pytest.mark.parametrize("line", README_EXAMPLES)
def test_readme_example_runs(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, {"law": ATOMIC_LAW}, "law.json")
    write_config(tmp_path, {"law": {"kind": "self_similar", "nu": [1.0, 1.0]}}, "selfsim.json")
    write_config(tmp_path, {"law": RCE_LAW}, "rce_law.json")
    rc, out, err = run_cli(capsys, shlex.split(line)[1:])
    assert rc == 0, err
    assert out


@pytest.mark.parametrize("command,settings,field,message", [
    ("simulate", {"steps": -1}, "steps", "need steps >= 0, got -1"),
    ("simulate", {"x0": ""}, "x0", "need at least one color digit"),
    ("cutoff", {"lyapunov_m": 0}, "lyapunov_m", "need lyapunov_m >= 1, got 0"),
    ("cutoff", {"lyapunov_replicates": 0}, "lyapunov_replicates", "need at least one replicate"),
    ("ehrenfest", {"mixing_eps": 1.5, "t": None, "beta": None}, "mixing_eps",
     "mixing_eps must lie in (0, 1)"),
    ("ehrenfest", {"beta": -1}, "beta", "need beta > 0"),
    # alpha = 1 (refresh every site at once) is in range
    ("ehrenfest", {"alpha": 1.5}, "alpha", "alpha=1.5 outside (0, 1]"),
])
def test_a_renamed_setting_is_named_in_the_message_too(capsys, tmp_path, command, settings,
                                                        field, message):
    cfg = write_config(tmp_path, {**BASE[command], **settings})
    rc, out, err = run_cli(capsys, [command, "--config", cfg])
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "validation", "field": field, "message": message}


def test_renaming_replaces_whole_words_and_library_calls_keep_their_names():
    with pytest.raises(ValidationError) as exc, _renamed({"m": "lyapunov_m"}):
        raise ValidationError("need m >= 1 and m_max >= m, got m=0", field="m")
    assert str(exc.value) == "need lyapunov_m >= 1 and m_max >= lyapunov_m, got lyapunov_m=0"
    assert exc.value.field == "lyapunov_m"
    law = law_from_config(ATOMIC_LAW)
    with pytest.raises(ValidationError, match=r"^need m_steps >= 0, got -1$"):
        run_efcp_matrix(law, Coloring.constant(4, 2, 1), -1, 0)
    with pytest.raises(ValidationError, match=r"^need m >= 1, got 0$"):
        estimate_lyapunov(law, 0, 2, 0)


@pytest.mark.parametrize("law,field", [
    (dict(ATOMIC_LAW, atoms=[[[0.8, 0.3], [0.2]], ATOMIC_LAW["atoms"][1]]), "law.atoms"),
    (dict(ATOMIC_LAW, atoms=[[[0.8, 0.3], [0.3, 0.7]], ATOMIC_LAW["atoms"][1]]), "law.atoms"),
    (dict(ATOMIC_LAW, atoms=5), "law.atoms"),
    (dict(ATOMIC_LAW, weights=[0.7, 0.7]), "law.weights"),
    ({"kind": "dirichlet_columns"}, "law.alpha_columns"),
    ({"kind": "dirichlet_columns", "alpha_columns": [[1.0, -1.0], [1.0, 1.0]]}, "law.alpha_columns"),
    ({"kind": "self_similar", "nu": [1.0, 0.0]}, "law.nu"),
    ({"kind": "mystery"}, "law.kind"),
    ([1], "law"),
    (dict(ATOMIC_LAW, weigths=[0.2, 0.8]), "law.weigths"),
    (dict(ATOMIC_LAW, weights=[math.nan, 1.0]), "law.weights"),
    (dict(ATOMIC_LAW, weights=[math.inf, 1.0]), "law.weights"),
    ({"kind": "permutation_mix", "k": 2, "perms": [[1, 2], [2, 1]], "weights": [math.nan, 1.0]},
     "law.weights"),
    ({"kind": "permutation_mix", "k": 2, "perms": [[1, 2], [2, 1]], "weights": [-math.inf, 1.0]},
     "law.weights"),
])
def test_a_malformed_law_names_its_own_key(capsys, tmp_path, law, field):
    cfg = write_config(tmp_path, {"law": law})
    rc, out, err = run_cli(capsys, ["lyapunov", "--config", cfg, "--m", "5"])
    assert (rc, out) == (2, "")
    assert _validation_field(err) == field


@pytest.mark.parametrize("law,field,message", [
    ({"kind": "point_mass", "matrix": [[math.nan, 0.5], [0.5, 0.5]]}, "law.matrix",
     "matrix must be finite"),
    ({"kind": "point_mass", "matrix": [[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]}, "law.matrix",
     "matrix must form a square matrix"),
    (dict(ATOMIC_LAW, atoms=[[[math.inf, 0.3], [0.2, 0.7]], ATOMIC_LAW["atoms"][1]]), "law.atoms",
     "atoms must be finite"),
])
def test_a_malformed_law_message_names_the_key_of_its_field(capsys, tmp_path, law, field, message):
    cfg = write_config(tmp_path, {"law": law})
    rc, out, err = run_cli(capsys, ["lyapunov", "--config", cfg, "--m", "5"])
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "validation", "field": field, "message": message}


def test_an_overflowing_column_sum_is_refused_without_a_warning(capsys, tmp_path):
    # numpy reports the overflow as a RuntimeWarning; raising it would exit 1
    law = {"kind": "point_mass", "matrix": [[1e308, 0.5], [1e308, 0.5]]}
    cfg = write_config(tmp_path, {"law": law})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, ["lyapunov", "--config", cfg, "--m", "5"])
    assert (rc, out) == (2, "")
    assert _validation_field(err) == "law.matrix"


def test_project_refuses_a_huge_n_from_n_and_k_alone(capsys, tmp_path):
    cfg = write_config(tmp_path, {"law": {"kind": "permutation_mix", "k": 3}})
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, ["project", "--config", cfg, "--n", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (3, "")
    diag = json.loads(err)["error"]
    assert diag["type"] == "budget_exceeded"
    assert diag["details"] == {
        "budget_name": "project_states", "required": "3^100000000", "budget": 4096,
    }
    # an exact count while it stays below 2^63
    rc, _, err = run_cli(capsys, ["project", "--config", cfg, "--n", "39"])
    assert rc == 3
    assert json.loads(err)["error"]["details"] == {
        "budget_name": "project_states", "required": 3**39, "budget": 4096,
    }


def test_exact_tv_refuses_a_huge_horizon_from_r_m_and_the_statistic_alone(capsys, tmp_path):
    law = {
        "kind": "atomic",
        "atoms": [[[0.8, 0.3], [0.2, 0.7]], [[0.6, 0.45], [0.4, 0.55]], [[0.5, 0.5], [0.5, 0.5]]],
        "weights": [0.3, 0.3, 0.4],
    }
    cfg = write_config(tmp_path, {"law": law})
    start = time.perf_counter()
    argv = ["tv", "--config", cfg, "--method", "exact", "--n", "4", "--m", "100000000"]
    rc, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (3, "")
    diag = json.loads(err)["error"]
    assert diag["type"] == "budget_exceeded"
    # 3^m atom sequences times the 5 count vectors of 4 sites at k = 2
    assert diag["details"] == {
        "budget_name": "enumeration", "required": "3^100000000*5", "budget": 20_000_000,
    }


def _refused(call, *args):
    with pytest.raises(BudgetRefusal) as exc:
        call(*args)
    return exc.value.details


def _exit_3(capsys, tmp_path, command, settings):
    rc, out, err = run_cli(capsys, [command, "--config", write_config(tmp_path, settings)])
    assert (rc, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["type"] == "budget_exceeded"
    return error["details"]


def _upper_two_replicates(law, x0, x1, m):
    return tv_upper_mc(law, x0, x1, m, replicates=2, seed=0)


# One way to reach each size gate: the budget's name, then a call
# (function, *args) or a CLI run (command, config).
SIZE_GATES = {
    "tv_exact_atomic": ("enumeration", (
        tv_exact_atomic, law_from_config(ATOMIC_LAW), *make_constant_pair(6, 2), 40)),
    # one block of 500 sites at k = 4 holds C(503, 3) count vectors
    "tv_exact_product_multinomial": ("enumeration", (
        tv_exact_product_multinomial,
        ProductMultinomialLaw(((500, (0.4, 0.3, 0.2, 0.1)),)),
        ProductMultinomialLaw(((500, (0.25, 0.25, 0.25, 0.25)),)))),
    # one mixed cell of 6400 sites at k = 3 holds C(6402, 2) count vectors
    "tv_upper_mc": ("enumeration", (
        _upper_two_replicates, SelfSimilar([1.0, 1.0, 1.0]), *make_constant_pair(6400, 3), 1)),
    "projected_mixing_equivalence": ("project_states", (
        projected_mixing_equivalence, PermutationMix(3), 10, 3)),
    "project": ("project_states", (
        "project", {"law": {"kind": "permutation_mix", "k": 3}, "n": 100_000_000})),
    "ehrenfest": ("ehrenfest_sites", ("ehrenfest", {"n": 2000, "alpha": 0.25, "exact": True})),
    "words": ("project_states", (words, 25, 3)),
}


@pytest.mark.parametrize("gate", SIZE_GATES)
def test_every_size_gate_refuses_with_one_payload(capsys, tmp_path, gate):
    name, reach = SIZE_GATES[gate]
    if isinstance(reach[0], str):
        details = _exit_3(capsys, tmp_path, *reach)
    else:
        details = _refused(*reach)
    assert set(details) == {"budget_name", "required", "budget"}
    assert details["budget_name"] == name
    assert details["budget"] == BUDGETS[name]
    required = details["required"]
    if isinstance(required, str):
        assert re.fullmatch(r"\d+\^\d+(\*\d+)*", required)
    else:
        assert required > details["budget"]


def test_a_nan_from_the_program_is_a_fault_not_bad_input(tmp_path, monkeypatch):
    # a fault raises out of main, so the process exits 1 with a traceback
    monkeypatch.setattr(cutpaste.tvlab.exact, "_half_l1", lambda d: math.nan)
    with pytest.raises(FloatingPointError):
        main(["tv", "--config", write_config(tmp_path, BASE["tv"])])


def test_a_command_parser_declares_only_its_own_flags():
    def flags(parser):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {c: {f for a in p._actions for f in a.option_strings} for c, p in sub.choices.items()}

    full = flags(build_parser())
    for command in COMMANDS:
        assert flags(build_parser(command)) == {
            c: want if c == command else {"-h", "--help"} for c, want in full.items()
        }
        assert build_parser(command).format_help() == build_parser().format_help()
