"""Command-line entry point.

JSON config in, JSON or CSV out, with every output fully determined by
(config, seed): keys are sorted, no timestamps are emitted, and replicate
reductions are index-ordered. Malformed input, a setting the requested
mode would not read included, exits 2 with a field-level diagnostic; a
refusal exits 3 with its code: theory_gate for a theory hypothesis,
budget_exceeded for a size budget, inconclusive for a step allowance.

Every command's settings are declared once, in COMMANDS: each key maps to
the reader that converts its value, to its default and, for a setting that
only some modes read, to a read condition that states those modes; any
other mode refuses the setting when given. The parser's flags and the
accepted config keys both come from that table, and a flag value goes
through the same reader as a config value.

Each command's handler imports the modules it calls, and a call naming a
command builds that command's parser alone, so a call loads and parses no
more than its command needs. `cutpaste --help`, and a call that names no
command, build the parser of every command.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .errors import Refusal, ValidationError, _renamed, coerce

SCHEMA_VERSION = 1

TV_CSV_FIELDS = ("n", "m", "tv_value", "kind", "std_error", "replicates", "seed")


def _coerce(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(command: str, config: dict, result, out: str | None) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
    }
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_coerce)
    _write_text(text + "\n", out)


def _emit_csv(n: int, seed: int, estimates, out: str | None) -> None:
    """One TV_CSV_FIELDS row per (horizon, TVEstimate) pair."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TV_CSV_FIELDS)
    writer.writerows(
        (n, m, est.value, est.kind, est.mc_std_error, est.replicates, seed)
        for m, est in estimates
    )
    _write_text(buf.getvalue(), out)


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ValidationError(
            f"cannot read config file {args.config!r}: {e.strerror or e}", field="config"
        ) from None
    except ValueError as e:
        raise ValidationError(f"config file is not valid JSON: {e}", field="config") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object", field="config")
    return cfg


# A reader converts one setting, given as flag text or as a JSON value, and
# raises ValidationError naming the setting when it cannot. A setting whose
# default is REQUIRED must be given.
REQUIRED = object()


def _int(v, key):
    return coerce(v, int, key)


def _float(v, key):
    x = coerce(v, float, key)
    if not math.isfinite(x):
        raise ValidationError(f"{key} must be a finite number, got {v!r}", field=key)
    return x


def _text(v, key):
    return str(v)


def _bool(v, key):
    if not isinstance(v, bool):
        raise ValidationError(f"{key} must be true or false, got {v!r}", field=key)
    return v


def _law(v, key):
    """The law from its config; malformed input names the law's own key,
    as law.atoms or law.kind, or the law itself when it is no mapping."""
    from .paintbox import law_from_config

    try:
        return law_from_config(v)
    except ValidationError as e:
        field = key if e.field is None else f"{key}.{e.field}"
        raise ValidationError(str(e), field=field) from None


def _list_of(entry):
    """A reader for a JSON list or a comma list, each entry read by entry."""
    def read(v, key):
        if not isinstance(v, list):
            v = [p for p in str(v).split(",") if p != ""]
        return [entry(x, key) for x in v]
    return read


def _one_of(what: str, *names: str):
    """A reader that accepts one of the given names."""
    def read(v, key):
        if v not in names:
            raise ValidationError(f"unknown {what} {v!r}", field=key)
        return v
    return read


def _law_k(values: dict) -> int:
    return values["law"].k


def _given(v) -> bool:
    """A setting counts as given unless it is unset or a switch left off."""
    return v is not None and v is not False


def _unread_with(*keys):
    """The read condition of a setting that no mode with one of keys given
    reads: why it is unread, naming the first such key."""
    return lambda values: next((f"with {k}" for k in keys if _given(values[k])), None)


def _unread_when(key, value):
    """The read condition of a setting that the mode key = value does not read."""
    return lambda values: values[key] == value and f"with {key} {value}"


def _settings(args, table: dict) -> dict:
    """Every setting of the table, in table order: the flag if given, else
    the config value (a JSON null counts as unset), converted by the
    setting's reader. A setting whose read condition says the run's mode
    does not read it must not be given and stays unset; any other unset
    setting takes its default. Conditions and defaults may be computed from
    the settings before them. A config key outside the table is malformed
    input."""
    cfg = _load_config(args)
    for key in cfg:
        if key not in table:
            raise ValidationError(f"unknown setting {key!r}", field=key)
    values = {}
    for key, (read, default, *unread) in table.items():
        v = getattr(args, key, None)
        if v is None:
            v = cfg.get(key)
        if v is not None:
            v = read(v, key)
        why = unread[0](values) if unread else None
        if why:
            if _given(v):
                raise ValidationError(f"{key} is not used {why}", field=key)
            v = None
        elif v is None:
            v = default(values) if callable(default) else default
            if v is REQUIRED:
                raise ValidationError(f"missing required setting {key!r}", field=key)
        values[key] = v
    return values


def _echo(s: dict) -> dict:
    """The settings a run used, as the output's config: unset ones left
    out, and the law shown as its own config."""
    return {k: v.config() if k == "law" else v for k, v in s.items() if v is not None}


def _cmd_simulate(s, out) -> None:
    from .chains import run_efcp_coordinate, run_efcp_matrix
    from .partitions import Coloring

    law = s["law"]
    x0_color = s.pop("x0_color")
    if s["x0"] is not None:
        with _renamed({"word": "x0"}):
            x0 = Coloring.from_string(s["x0"], law.k)
        if x0.n != s["n"]:
            raise ValidationError(f"n={s['n']} but x0 has {x0.n} sites", field="n")
    else:
        with _renamed({"word": "x0_color"}):
            x0 = Coloring.constant(s["n"], law.k, x0_color)
    run_efcp = run_efcp_matrix if s["construction"] == "matrix" else run_efcp_coordinate
    with _renamed({"m_steps": "steps"}):
        run = run_efcp(law, x0, s["steps"], s["seed"], thin=s["thin"])
    s["x0"] = x0.to_string()
    result = {
        "final": run.final.to_string(),
        "trajectory": [
            {"step": t, "word": x.to_string()}
            for t, x in zip(run.recorded_steps, run.trajectory, strict=True)
        ],
    }
    _emit_json("simulate", _echo(s), result, out)


def _cmd_lyapunov(s, out) -> None:
    from .products import estimate_lyapunov

    est = estimate_lyapunov(s["law"], s["m"], s["replicates"], s["seed"])
    _emit_json("lyapunov", _echo(s), {"kind": "mc_estimate", **est.to_json()}, out)


def _cmd_collapse(s, out) -> None:
    from .products import collapse_diagnostic

    rep = collapse_diagnostic(s["law"], s["m_max"], s["replicates"], s["seed"], s["delta"])
    _emit_json("collapse", _echo(s), rep.to_json(), out)


def _cmd_tv(s, out) -> None:
    from .tvlab.exact import tv_exact_atomic
    from .tvlab.mc import make_constant_pair, make_test_pair, tv_lower_mc, tv_upper_mc

    law, n, method, seed = s["law"], s["n"], s["method"], s["seed"]
    if s["pair"] == "constant":
        for key in ("color_a", "color_b"):
            if not 1 <= s[key] <= law.k:
                raise ValidationError(f"{key} must lie in 1..{law.k}", field=key)
        x0, x1 = make_constant_pair(n, law.k, s["color_a"], s["color_b"])
    elif law.k < 2:
        raise ValidationError("the block design needs a law with k >= 2", field="law")
    else:
        x0, x1 = make_test_pair(n, law.k)

    def estimate(m):
        if method == "exact":
            return tv_exact_atomic(law, x0, x1, m)
        tv_mc = tv_upper_mc if method == "upper" else tv_lower_mc
        return tv_mc(law, x0, x1, m, s["replicates"], seed)

    if s["m_grid"] is not None:
        if not s["m_grid"]:
            raise ValidationError("m_grid needs at least one horizon", field="m_grid")
        with _renamed({"m": "m_grid"}):
            rows = [(m, estimate(m)) for m in sorted(set(s["m_grid"]))]
        _emit_csv(n, seed, rows, out)
    else:
        _emit_json("tv", _echo(s), estimate(s["m"]).to_json(), out)


def _cmd_mixing_time(s, out) -> None:
    from .tvlab.mixing import mixing_time

    prof = mixing_time(
        s["law"], s["n"], s["k"], tuple(s["epsilon"]), s["method"], s["seed"],
        replicates=s["replicates"], m_max=s["m_max"],
    )
    _emit_json("mixing-time", _echo(s), prof.to_json(), out)


def _cmd_cutoff(s, out) -> None:
    from .tvlab.mixing import cutoff_experiment

    rep = cutoff_experiment(
        s["law"], s["k"], s["n_grid"], s["epsilon"], s["seed"],
        s["replicates"], s["m_max"], s["lyapunov_m"], s["lyapunov_replicates"],
    )
    _emit_json("cutoff", _echo(s), rep.to_json(), out)


def _default_ehrenfest_grid(params) -> list[int]:
    scale = (params.n / params.batch_size) * math.log(params.n)
    return sorted({int(round(c * scale)) for c in (0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.75)})


def _cmd_ehrenfest(s, out) -> None:
    from .chains import EhrenfestParams, standard_ehrenfest
    from .tvlab.ehrenfest import (
        ehrenfest_bounds,
        ehrenfest_mixing_time,
        ehrenfest_tv_profile,
        loglog_schedule,
    )

    n, seed = s["n"], s["seed"]
    if s["loglog"]:
        # the schedule picks its own refresh fraction from n
        _emit_json("ehrenfest", {"n": n, "beta": s["beta"], "loglog": True, "seed": seed},
                   loglog_schedule(n, s["beta"]).to_json(), out)
        return
    params = standard_ehrenfest(n) if s["standard"] else EhrenfestParams(n, s["alpha"])
    if s["exact"]:
        grid = _default_ehrenfest_grid(params) if s["t_grid"] is None else sorted(set(s["t_grid"]))
        _emit_csv(n, seed, ehrenfest_tv_profile(params, grid), out)
        return
    echo = {
        "n": n, "alpha": params.alpha, "variant": params.variant,
        "batch_size": params.batch_size, "seed": seed,
    }
    eps = s["mixing_eps"]
    if eps is not None:
        with _renamed({"epsilon": "mixing_eps"}):
            t_mix = ehrenfest_mixing_time(params, eps)
        _emit_json("ehrenfest", {**echo, "mixing_eps": eps},
                   {"t_mix": t_mix, "kind": "exact"}, out)
        return
    bounds = ehrenfest_bounds(params, s["t"], s["beta"])
    _emit_json("ehrenfest", {**echo, "t": s["t"], "beta": s["beta"]},
               {"kind": "bounds", **bounds.to_json()}, out)


def _cmd_project(s, out) -> None:
    from .projections import projected_mixing_equivalence

    rep = projected_mixing_equivalence(
        s["law"], s["n"], s["k"], tuple(s["epsilon"]), m_max=s["m_max"],
    )
    _emit_json("project", _echo(s), rep.to_json(), out)


_LAW = (_law, REQUIRED)
_SEED = (_int, 0)

# command: (handler, help, {setting: (reader, default[, read condition])}).
# A setting is read from its --flag (store_true for _bool readers) or its
# config key, except the law, which only a config can hold. A read condition
# reads only the settings above it in its table.
COMMANDS = {
    "simulate": (_cmd_simulate, "run one chain and record its trajectory", {
        "law": _LAW, "n": (_int, REQUIRED), "steps": (_int, REQUIRED), "seed": _SEED,
        "thin": (_int, 0),
        "construction": (_one_of("construction", "matrix", "coordinate"), "matrix"),
        "x0": (_text, None), "x0_color": (_int, 1, _unread_with("x0")),
    }),
    "lyapunov": (_cmd_lyapunov, "estimate product growth rates", {
        "law": _LAW, "m": (_int, 2000), "replicates": (_int, 32), "seed": _SEED,
    }),
    "collapse": (_cmd_collapse, "sample the simplex-collapse diagnostic", {
        "law": _LAW, "m_max": (_int, 32), "replicates": (_int, 200),
        "delta": (_float, 1e-6), "seed": _SEED,
    }),
    "tv": (_cmd_tv, "TV estimates between two designed starts", {
        "law": _LAW, "n": (_int, REQUIRED),
        "method": (_one_of("tv method", "exact", "upper", "lower"), "upper"),
        "pair": (_one_of("pair design", "constant", "block"), "constant"),
        "color_a": (_int, 1, _unread_when("pair", "block")),
        "color_b": (_int, 2, _unread_when("pair", "block")),
        "replicates": (_int, 10_000, _unread_when("method", "exact")),
        "seed": _SEED, "m_grid": (_list_of(_int), None),
        "m": (_int, REQUIRED, _unread_with("m_grid")),
    }),
    "mixing-time": (_cmd_mixing_time,
                    "smallest horizon at which the TV between constant-coloring starts is "
                    "certified below epsilon (mc_sandwich: through the shared-paintbox "
                    "coupling bound)", {
        "law": _LAW, "n": (_int, REQUIRED), "k": (_int, _law_k),
        "epsilon": (_list_of(_float), (0.25,)),
        "method": (_one_of("mixing method", "exact_atomic", "mc_sandwich"), "mc_sandwich"),
        "replicates": (_int, 2000, _unread_when("method", "exact_atomic")),
        "m_max": (_int, 4096), "seed": _SEED,
    }),
    "cutoff": (_cmd_cutoff,
               "across a size grid, the horizons at which the TV between constant-coloring "
               "starts is certified below epsilon through the shared-paintbox coupling bound", {
        "law": _LAW, "k": (_int, _law_k), "n_grid": (_list_of(_int), REQUIRED),
        "epsilon": (_float, 0.25),
        # the one method cutoff runs; configs may still name it
        "method": (_one_of("cutoff method", "mc_sandwich"), "mc_sandwich"),
        "replicates": (_int, 2000), "m_max": (_int, 4096), "lyapunov_m": (_int, 2000),
        "lyapunov_replicates": (_int, 32), "seed": _SEED,
    }),
    "ehrenfest": (_cmd_ehrenfest, "batch-refresh chain bounds and exact curves", {
        "seed": _SEED, "loglog": (_bool, False), "n": (_int, REQUIRED),
        "standard": (_bool, False, _unread_with("loglog")),
        "alpha": (_float, REQUIRED, _unread_with("loglog", "standard")),
        "exact": (_bool, False, _unread_with("loglog")),
        "mixing_eps": (_float, None, _unread_with("loglog", "exact")),
        "beta": (_float, lambda s: REQUIRED if s["loglog"] else None,
                 _unread_with("exact", "mixing_eps")),
        # bounds mode reads t, beta or both; given neither, it names t
        "t": (_float, lambda s: REQUIRED if s["beta"] is None else None,
              _unread_with("loglog", "exact", "mixing_eps")),
        "t_grid": (_list_of(_int), None, lambda s: (
            "with loglog" if s["loglog"] else None if s["exact"] else "without exact")),
    }),
    "project": (_cmd_project, "labeled vs projected mixing equivalence", {
        "law": _LAW, "n": (_int, REQUIRED), "k": (_int, _law_k),
        "epsilon": (_list_of(_float), (0.5, 0.25)), "m_max": (_int, 512), "seed": _SEED,
    }),
}


def _add_flags(parser: argparse.ArgumentParser, table: dict) -> argparse.ArgumentParser:
    """A command's flags on parser: --config, --out and one per setting of
    its table but the law."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output path (default stdout)")
    for key, (read, *_) in table.items():
        if key == "law":
            continue
        flag = "--" + key.replace("_", "-")
        if read is _bool:
            parser.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            parser.add_argument(flag, dest=key)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, one subparser each; given a command,
    that command's own parser, which parses the arguments after its name
    and prints the same help as its subparser."""
    if command is not None:
        return _add_flags(argparse.ArgumentParser(prog=f"cutpaste {command}"), COMMANDS[command][2])
    parser = argparse.ArgumentParser(
        prog="cutpaste",
        description="Simulation and analysis of paintbox-driven coloring chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, table) in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_text), table)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        command = argv[0]
        args = build_parser(command).parse_args(argv[1:])
    else:
        args = build_parser().parse_args(argv)
        command = args.command
    handler, _, table = COMMANDS[command]
    try:
        handler(_settings(args, table), args.out)
        return 0
    except ValidationError as e:
        error, code = {"type": "validation", "message": str(e), "field": e.field}, 2
    except Refusal as e:
        error, code = {"type": e.code, "reason": e.reason, "details": e.details}, 3
    doc = {"schema_version": SCHEMA_VERSION, "error": error}
    sys.stderr.write(json.dumps(doc, sort_keys=True, allow_nan=False, default=_coerce) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
