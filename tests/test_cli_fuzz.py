"""CLI fuzz over generated configs: small runs of every command with bad and
boundary values mixed in. Every run must exit 0, 2 or 3, print the same
bytes when rerun, print strict JSON (no NaN or Infinity) wherever it prints
JSON, and name, when it exits 2, a setting the command accepts, or a key of
the law as law.<key>: one that some law kind reads, or one that the drawn
law config holds."""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cutpaste.cli import COMMANDS, main

LAWS = [
    {"kind": "atomic", "atoms": [[[0.8, 0.3], [0.2, 0.7]], [[0.6, 0.45], [0.4, 0.55]]],
     "weights": [0.5, 0.5]},
    {"kind": "permutation_mix", "k": 2},
    {"kind": "permutation_mix", "k": 3, "perms": [[2, 3, 1], [1, 3, 2]], "weights": [0.4, 0.6]},
    {"kind": "self_similar", "nu": [1.0, 1.0]},
    {"kind": "point_mass", "matrix": [[1.0, 0.5, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]]},
    {"kind": "point_mass", "matrix": [[1.0]]},
    # malformed laws, each reported under one of LAW_KEYS or a key it holds
    {"kind": "permutation_mix", "k": 2, "perms": [[1, 2], [2, 1]], "weights": [math.nan, 1.0]},
    {"kind": "atomic", "atoms": [[[0.8, 0.3], [0.2, 0.7]]], "weights": [1.0],
     "weigths": [0.2, 0.8]},
    {"kind": "atomic", "atoms": [[[0.8, 0.3], [0.2]], [[0.6, 0.45], [0.4, 0.55]]],
     "weights": [0.5, 0.5]},
    {"kind": "atomic", "atoms": [[[0.8, 0.3], [0.3, 0.7]]], "weights": [1.0]},
    {"kind": "atomic", "atoms": 5, "weights": [1.0]},
    {"kind": "dirichlet_columns"},
    {"kind": "self_similar", "nu": [1.0, math.nan]},
    {"kind": "mystery"},
    [1],
]
LAW_KEYS = ("kind", "matrix", "atoms", "weights", "k", "perms", "alpha_columns", "nu")
SEEDS = [0, 7, -5, 2**70, "x", True, 1.5]
COUNTS = [-1, 0, 1, 2, 3, "x", True, 2.5, math.inf]
FRACTIONS = [-1.0, 0.0, 1e-6, 0.25, 0.5, 1.0, 1.5, math.nan, math.inf, "x", True]
EPSILON_LISTS = [[0.25], [0.5, 0.25], [], [0.0], [1.0], [math.nan], ["x"], 0.3]
# a switch is a bare flag, so only True is ever given as one
SWITCHES = [True, False, 1, "x"]

# Each command's settings, each with the values it may take; a setting
# marked optional may also be left out, which reads its default. Sizes
# that set the cost (steps, horizons, n, replicates) are always given and
# kept small.
FUZZED = {
    "simulate": {
        "law": (LAWS, False), "n": ([-1, 0, 1, 4, "x", 2.5], False),
        "steps": ([-1, 0, 1, 3, "x"], False), "thin": ([-1, 0, 1, 2, "x"], True),
        "construction": (["matrix", "coordinate", "bogus"], True),
        "x0": (["1212", "1313", "1X21", "", "12", 1212], True),
        "x0_color": ([0, 1, 2, 3, "x"], True), "seed": (SEEDS, True),
    },
    "collapse": {
        "law": (LAWS, False),
        "m_max": (COUNTS + [6], True), "replicates": (COUNTS + [20], True),
        "delta": (FRACTIONS, True), "seed": (SEEDS, True),
    },
    "lyapunov": {
        "law": (LAWS, False), "m": (COUNTS + [5], False), "replicates": (COUNTS + [4], True),
        "seed": (SEEDS, True),
    },
    "tv": {
        "law": (LAWS, False), "n": ([-1, 0, 1, 4, 12, "x", 2.5], False),
        "m": ([-1, 0, 1, 3, "x"], True),
        "m_grid": ([[1, 2], [0], [], [-1], ["x"], [3, 1], "2,1"], True),
        "method": (["exact", "upper", "lower", "bogus", 3], True),
        "pair": (["constant", "block", "bogus"], True),
        "color_a": ([0, 1, 2, 3, "x"], True), "color_b": ([0, 1, 2, 4], True),
        "replicates": ([-1, 0, 1, 2, 50, "x"], True), "seed": (SEEDS, True),
    },
    "mixing-time": {
        "law": (LAWS, False), "n": ([-1, 0, 1, 4, 6, "x"], False), "k": ([1, 2, 3, "x"], True),
        "epsilon": (EPSILON_LISTS, True),
        "method": (["exact_atomic", "mc_sandwich", "bogus"], True),
        "replicates": ([-1, 0, 1, 2, 20, "x"], True), "m_max": ([-1, 0, 1, 4, 16], False),
        "seed": (SEEDS, True),
    },
    "cutoff": {
        "law": (LAWS, False), "k": ([1, 2, 3, "x"], True),
        "n_grid": ([[4, 8], [0, 8], [8, 4], [4], [], ["x"], "4,8"], False),
        "epsilon": ([0.25, 0.0, 0.3, 0.5, math.nan, "x", True], True),
        "method": (["exact_atomic", "mc_sandwich", "bogus"], True),
        "replicates": ([-1, 0, 1, 2, 20, "x"], False), "m_max": ([-1, 0, 1, 8], False),
        "lyapunov_m": (COUNTS + [5], False), "lyapunov_replicates": (COUNTS, True),
        "seed": (SEEDS, True),
    },
    "ehrenfest": {
        "n": ([-1, 0, 1, 2, 16, 64, 2000, "x", 2.5], False),
        "alpha": ([-0.5, 0.1, 0.25, 0.5, 1.0, 1.5, math.nan, "x", True], True),
        "standard": (SWITCHES, True),
        "loglog": (SWITCHES, True), "exact": (SWITCHES, True),
        "beta": (FRACTIONS + [1e308], True),
        "t": ([-1, 0, 3, 1e6, 1e308, math.nan, "x"], True),
        "t_grid": ([[0, 5], [40], [], [-1], ["x"], [3, 1], "2,1"], True),
        "mixing_eps": ([0.25, 1e-3, -1.0, 0.0, 1.0, 1.5, math.nan, "x", True], True),
        "seed": (SEEDS, True),
    },
    "project": {
        "law": (LAWS, False), "n": ([-1, 0, 1, 3, 4, "x"], False), "k": ([1, 2, 3, "x"], True),
        "epsilon": (EPSILON_LISTS, True), "state_budget": ([-1, 0, 8, 100, "x"], True),
        "m_max": ([-1, 0, 1, 8, "x"], False), "seed": (SEEDS, True),
    },
}


def _strict_json(text):
    """text parsed as JSON that holds no NaN or Infinity."""
    def refuse(constant):
        raise AssertionError(f"{constant} in {text!r}")
    return json.loads(text, parse_constant=refuse)


@st.composite
def runs(draw, command):
    config = {}
    for key, (values, optional) in FUZZED[command].items():
        if optional and draw(st.booleans()):
            continue
        config[key] = draw(st.sampled_from(values))
    as_flag = sorted(
        k for k, v in config.items()
        if k != "law" and (FUZZED[command][k][0] is not SWITCHES or v is True)
        and draw(st.booleans())
    )
    return config, as_flag


def _argv(tmp_path, command, config, as_flag):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if k not in as_flag}))
    argv = [command, "--config", str(path)]
    for key in as_flag:
        flag, value = "--" + key.replace("_", "-"), config[key]
        if FUZZED[command][key][0] is SWITCHES:
            argv.append(flag)
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        argv.append(f"{flag}={value}")
    return argv


def test_fuzzed_settings_table_covers_the_commands():
    for command, fuzzed in FUZZED.items():
        assert set(fuzzed) == set(COMMANDS[command][2])


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exits_cleanly_and_names_an_accepted_setting(tmp_path_factory, capsys, data):
    # each example runs every command once, so each command gets the same share
    for command in sorted(FUZZED):
        config, as_flag = data.draw(runs(command), label=command)
        argv = _argv(tmp_path_factory.mktemp("fuzz"), command, config, as_flag)
        outcomes = []
        for _ in range(2):
            rc = main(argv)
            captured = capsys.readouterr()
            outcomes.append((rc, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        rc, out, err = outcomes[0]
        assert rc in (0, 2, 3), err
        if rc == 0:
            assert out and not err
            if out.startswith("{"):
                _strict_json(out)
            continue
        assert not out
        error = _strict_json(err)["error"]
        if rc == 2:
            assert error["type"] == "validation"
            setting, _, law_key = error["field"].partition(".")
            assert setting in COMMANDS[command][2], (argv, error)
            held = config["law"] if isinstance(config.get("law"), dict) else {}
            assert not law_key or (
                setting == "law" and (law_key in LAW_KEYS or law_key in held)
            ), (argv, error)
        else:
            assert error["type"] in ("theory_gate", "budget_exceeded", "inconclusive")
