"""Command-line entry point.

JSON config in, JSON or CSV out, with every output fully determined by
(config, seed): keys are sorted, no timestamps are emitted, and replicate
reductions are index-ordered. Malformed input exits 2 with a field-level
diagnostic; a precondition gate that declines to run (theory hypothesis,
enumeration budget, inconclusive certification) exits 3 with a
machine-readable reason.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .chains import (
    EhrenfestParams,
    run_efcp_coordinate,
    run_efcp_matrix,
    standard_ehrenfest,
)
from .errors import Refusal, ValidationError, coerce
from .paintbox import law_from_config
from .partitions import Coloring
from .products import collapse_diagnostic, estimate_lyapunov
from .projections import projected_mixing_equivalence
from .tvlab import (
    cutoff_experiment,
    ehrenfest_bounds,
    ehrenfest_mixing_time,
    ehrenfest_tv_profile,
    loglog_schedule,
    make_constant_pair,
    make_test_pair,
    mixing_time,
    tv_exact_atomic,
    tv_lower_mc,
    tv_upper_mc,
)

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
    _write_text(json.dumps(doc, sort_keys=True, indent=2, default=_coerce) + "\n", out)


def _emit_csv(rows, out: str | None) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TV_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
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


def _setting(args, cfg: dict, key: str, default=None, kind=None):
    """The flag if given, else the config value, converted by kind (int or
    float) when one is named; default when neither is set."""
    v = getattr(args, key.replace("-", "_"), None)
    if v is None:
        v = cfg.get(key)
    if v is None:
        return default
    return v if kind is None else coerce(v, kind, key)


def _flag(args, cfg: dict, key: str) -> bool:
    """The store_true flag if given, else a JSON true/false from the config;
    a JSON null counts as unset."""
    if getattr(args, key, False):
        return True
    v = cfg.get(key)
    if v is None or isinstance(v, bool):
        return bool(v)
    raise ValidationError(f"{key} must be true or false, got {v!r}", field=key)


def _require(value, key: str):
    if value is None:
        raise ValidationError(f"missing required setting {key!r}", field=key)
    return value


def _law(cfg: dict):
    if "law" not in cfg:
        raise ValidationError("config must define a 'law' object", field="law")
    return law_from_config(cfg["law"])


def _pair(name: str, n: int, k: int, color_a: int, color_b: int):
    if name == "constant":
        return make_constant_pair(n, k, color_a, color_b)
    if name == "block":
        return make_test_pair(n, k)
    raise ValidationError(f"unknown pair design {name!r}", field="pair")


def _list(text, kind, key: str) -> list:
    """A JSON list or a comma list, each entry converted by kind."""
    if not isinstance(text, (list, tuple)):
        text = [p for p in str(text).split(",") if p != ""]
    return [coerce(v, kind, key) for v in text]


def _cmd_simulate(args) -> None:
    cfg = _load_config(args)
    law = _law(cfg)
    n = _require(_setting(args, cfg, "n", kind=int), "n")
    steps = _require(_setting(args, cfg, "steps", kind=int), "steps")
    seed = _setting(args, cfg, "seed", 0, int)
    thin = _setting(args, cfg, "thin", 0, int)
    construction = _setting(args, cfg, "construction", "matrix")
    x0_text = _setting(args, cfg, "x0")
    if x0_text is not None:
        x0 = Coloring.from_string(str(x0_text), law.k)
    else:
        x0 = Coloring.constant(n, law.k, _setting(args, cfg, "x0_color", 1, int))
    if construction == "matrix":
        run = run_efcp_matrix(law, x0, steps, seed, thin=thin)
    elif construction == "coordinate":
        run = run_efcp_coordinate(law, x0, steps, seed, thin=thin)
    else:
        raise ValidationError(f"unknown construction {construction!r}", field="construction")
    resolved = {
        "law": law.config(), "n": n, "steps": steps, "seed": seed,
        "thin": thin, "construction": construction, "x0": x0.to_string(),
    }
    result = {
        "final": run.final.to_string(),
        "trajectory": [
            {"step": s, "word": x.to_string()}
            for s, x in zip(run.recorded_steps, run.trajectory, strict=True)
        ],
    }
    _emit_json("simulate", resolved, result, args.out)


def _cmd_lyapunov(args) -> None:
    cfg = _load_config(args)
    law = _law(cfg)
    m = _setting(args, cfg, "m", 2000, int)
    replicates = _setting(args, cfg, "replicates", 32, int)
    seed = _setting(args, cfg, "seed", 0, int)
    est = estimate_lyapunov(law, m, replicates, seed)
    resolved = {"law": law.config(), "m": m, "replicates": replicates, "seed": seed}
    _emit_json("lyapunov", resolved, {"kind": "mc_estimate", **est.to_json()}, args.out)


def _cmd_collapse(args) -> None:
    cfg = _load_config(args)
    law = _law(cfg)
    m_max = _setting(args, cfg, "m_max", 32, int)
    replicates = _setting(args, cfg, "replicates", 200, int)
    delta = _setting(args, cfg, "delta", 1e-6, float)
    seed = _setting(args, cfg, "seed", 0, int)
    rep = collapse_diagnostic(law, m_max, replicates, seed, delta)
    resolved = {
        "law": law.config(), "m_max": m_max, "replicates": replicates,
        "delta": delta, "seed": seed,
    }
    _emit_json("collapse", resolved, rep.to_json(), args.out)


def _estimate_tv(law, method, x0, x1, m, replicates, seed):
    if method == "exact":
        return tv_exact_atomic(law, x0, x1, m)
    if method == "upper":
        return tv_upper_mc(law, x0, x1, m, replicates, seed)
    if method == "lower":
        return tv_lower_mc(law, x0, x1, m, replicates, seed)
    raise ValidationError(f"unknown tv method {method!r}", field="method")


def _cmd_tv(args) -> None:
    cfg = _load_config(args)
    law = _law(cfg)
    n = _require(_setting(args, cfg, "n", kind=int), "n")
    method = _setting(args, cfg, "method", "upper")
    pair = _setting(args, cfg, "pair", "constant")
    color_a = _setting(args, cfg, "color_a", 1, int)
    color_b = _setting(args, cfg, "color_b", 2, int)
    replicates = _setting(args, cfg, "replicates", 10_000, int)
    seed = _setting(args, cfg, "seed", 0, int)
    x0, x1 = _pair(pair, n, law.k, color_a, color_b)
    grid = _setting(args, cfg, "m_grid")
    if grid is not None:
        rows = []
        for m in sorted(set(_list(grid, int, "m_grid"))):
            est = _estimate_tv(law, method, x0, x1, m, replicates, seed)
            rows.append({
                "n": n, "m": m, "tv_value": est.value, "kind": est.kind,
                "std_error": est.mc_std_error, "replicates": est.replicates,
                "seed": seed,
            })
        _emit_csv(rows, args.out)
        return
    m = _require(_setting(args, cfg, "m", kind=int), "m")
    est = _estimate_tv(law, method, x0, x1, m, replicates, seed)
    resolved = {
        "law": law.config(), "n": n, "m": m, "method": method, "pair": pair,
        "color_a": color_a, "color_b": color_b, "replicates": replicates,
        "seed": seed,
    }
    _emit_json("tv", resolved, est.to_json(), args.out)


def _cmd_mixing_time(args) -> None:
    cfg = _load_config(args)
    law = _law(cfg)
    n = _require(_setting(args, cfg, "n", kind=int), "n")
    k = _setting(args, cfg, "k", law.k, int)
    epsilons = _list(_setting(args, cfg, "epsilon", "0.25"), float, "epsilon")
    method = _setting(args, cfg, "method", "mc_sandwich")
    replicates = _setting(args, cfg, "replicates", 2000, int)
    m_max = _setting(args, cfg, "m_max", 4096, int)
    seed = _setting(args, cfg, "seed", 0, int)
    prof = mixing_time(
        law, n, k, tuple(epsilons), method, seed,
        replicates=replicates, m_max=m_max,
    )
    resolved = {
        "law": law.config(), "n": n, "k": k, "epsilon": epsilons,
        "method": method, "replicates": replicates, "m_max": m_max, "seed": seed,
    }
    _emit_json("mixing-time", resolved, prof.to_json(), args.out)


def _cmd_cutoff(args) -> None:
    cfg = _load_config(args)
    law = _law(cfg)
    k = _setting(args, cfg, "k", law.k, int)
    n_grid = _list(_require(_setting(args, cfg, "n_grid"), "n_grid"), int, "n_grid")
    epsilon = _setting(args, cfg, "epsilon", 0.25, float)
    method = _setting(args, cfg, "method", "mc_sandwich")
    replicates = _setting(args, cfg, "replicates", 2000, int)
    m_max = _setting(args, cfg, "m_max", 4096, int)
    lyapunov_m = _setting(args, cfg, "lyapunov_m", 2000, int)
    lyapunov_replicates = _setting(args, cfg, "lyapunov_replicates", 32, int)
    seed = _setting(args, cfg, "seed", 0, int)
    rep = cutoff_experiment(
        law, k, n_grid, epsilon, seed, method, replicates, m_max,
        lyapunov_m, lyapunov_replicates,
    )
    resolved = {
        "law": law.config(), "k": k, "n_grid": n_grid, "epsilon": epsilon,
        "method": method, "replicates": replicates, "m_max": m_max,
        "lyapunov_m": lyapunov_m, "lyapunov_replicates": lyapunov_replicates,
        "seed": seed,
    }
    _emit_json("cutoff", resolved, rep.to_json(), args.out)


def _ehrenfest_params(args, cfg) -> EhrenfestParams:
    n = _require(_setting(args, cfg, "n", kind=int), "n")
    if _flag(args, cfg, "standard"):
        return standard_ehrenfest(n)
    alpha = _require(_setting(args, cfg, "alpha", kind=float), "alpha")
    return EhrenfestParams(n, alpha)


def _default_ehrenfest_grid(params: EhrenfestParams) -> list[int]:
    scale = (params.n / params.batch_size) * math.log(params.n)
    return sorted({int(round(c * scale)) for c in (0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.75)})


def _cmd_ehrenfest(args) -> None:
    cfg = _load_config(args)
    seed = _setting(args, cfg, "seed", 0, int)
    if _flag(args, cfg, "loglog"):
        # the schedule picks its own refresh fraction from n
        n = _require(_setting(args, cfg, "n", kind=int), "n")
        beta = _require(_setting(args, cfg, "beta", kind=float), "beta")
        sched = loglog_schedule(n, beta)
        _emit_json("ehrenfest", {"n": n, "beta": beta, "loglog": True, "seed": seed},
                   sched.to_json(), args.out)
        return
    params = _ehrenfest_params(args, cfg)
    if _flag(args, cfg, "exact"):
        grid_setting = _setting(args, cfg, "t_grid")
        grid = sorted(set(_list(grid_setting, int, "t_grid"))) if grid_setting is not None else _default_ehrenfest_grid(params)
        rows = []
        for t, est in ehrenfest_tv_profile(params, grid):
            rows.append({
                "n": params.n, "m": t, "tv_value": est.value, "kind": est.kind,
                "std_error": est.mc_std_error, "replicates": est.replicates,
                "seed": seed,
            })
        _emit_csv(rows, args.out)
        return
    resolved = {
        "n": params.n, "alpha": params.alpha, "variant": params.variant,
        "batch_size": params.batch_size, "seed": seed,
    }
    eps = _setting(args, cfg, "mixing_eps", kind=float)
    if eps is not None:
        t_mix = ehrenfest_mixing_time(params, eps)
        _emit_json("ehrenfest", {**resolved, "mixing_eps": eps},
                   {"t_mix": t_mix, "kind": "exact"}, args.out)
        return
    t = _setting(args, cfg, "t")
    beta = _setting(args, cfg, "beta")
    bounds = ehrenfest_bounds(params, _setting(args, cfg, "t", kind=float), _setting(args, cfg, "beta", kind=float))
    _emit_json("ehrenfest", {**resolved, "t": t, "beta": beta},
               {"kind": "bounds", **bounds.to_json()}, args.out)


def _cmd_project(args) -> None:
    cfg = _load_config(args)
    law = _law(cfg)
    n = _require(_setting(args, cfg, "n", kind=int), "n")
    k = _setting(args, cfg, "k", law.k, int)
    epsilons = _list(_setting(args, cfg, "epsilon", "0.5,0.25"), float, "epsilon")
    state_budget = _setting(args, cfg, "state_budget", 4096, int)
    m_max = _setting(args, cfg, "m_max", 512, int)
    seed = _setting(args, cfg, "seed", 0, int)
    rep = projected_mixing_equivalence(
        law, n, k, tuple(epsilons), seed, state_budget=state_budget, m_max=m_max
    )
    resolved = {
        "law": law.config(), "n": n, "k": k, "epsilon": epsilons,
        "state_budget": state_budget, "m_max": m_max, "seed": seed,
    }
    _emit_json("project", resolved, rep.to_json(), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutpaste",
        description="Simulation and analysis of paintbox-driven coloring chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("simulate", help="run one chain and record its trajectory")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--thin", type=int)
    p.add_argument("--construction", choices=("matrix", "coordinate"))
    p.add_argument("--x0", help="initial coloring as a digit string")
    p.add_argument("--x0-color", type=int, dest="x0_color")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("lyapunov", help="estimate product growth rates")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--replicates", type=int)
    p.set_defaults(handler=_cmd_lyapunov)

    p = sub.add_parser("collapse", help="sample the simplex-collapse diagnostic")
    common(p)
    p.add_argument("--m-max", type=int, dest="m_max")
    p.add_argument("--replicates", type=int)
    p.add_argument("--delta", type=float)
    p.set_defaults(handler=_cmd_collapse)

    p = sub.add_parser("tv", help="TV estimates between two designed starts")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--m-grid", dest="m_grid", help="comma list of horizons; emits CSV")
    p.add_argument("--method", choices=("exact", "upper", "lower"))
    p.add_argument("--pair", choices=("constant", "block"))
    p.add_argument("--color-a", type=int, dest="color_a")
    p.add_argument("--color-b", type=int, dest="color_b")
    p.add_argument("--replicates", type=int)
    p.set_defaults(handler=_cmd_tv)

    p = sub.add_parser("mixing-time", help="smallest certified horizon under epsilon")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon", help="comma list of thresholds")
    p.add_argument("--method", choices=("exact_atomic", "mc_sandwich"))
    p.add_argument("--replicates", type=int)
    p.add_argument("--m-max", type=int, dest="m_max")
    p.set_defaults(handler=_cmd_mixing_time)

    p = sub.add_parser("cutoff", help="mixing horizons across a size grid")
    common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--n-grid", dest="n_grid", help="comma list of sizes")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--method", choices=("exact_atomic", "mc_sandwich"))
    p.add_argument("--replicates", type=int)
    p.add_argument("--m-max", type=int, dest="m_max")
    p.add_argument("--lyapunov-m", type=int, dest="lyapunov_m")
    p.add_argument("--lyapunov-replicates", type=int, dest="lyapunov_replicates")
    p.set_defaults(handler=_cmd_cutoff)

    p = sub.add_parser("ehrenfest", help="batch-refresh chain bounds and exact curves")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--standard", action="store_true", help="single-site variant")
    p.add_argument("--t", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--exact", action="store_true", help="emit the exact TV curve as CSV")
    p.add_argument("--t-grid", dest="t_grid", help="comma list of horizons for --exact")
    p.add_argument("--mixing-eps", dest="mixing_eps", type=float)
    p.add_argument("--loglog", action="store_true", help="evaluate the loglog schedule")
    p.set_defaults(handler=_cmd_ehrenfest)

    p = sub.add_parser("project", help="labeled vs projected mixing equivalence")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--epsilon", help="comma list of thresholds")
    p.add_argument("--state-budget", type=int, dest="state_budget")
    p.add_argument("--m-max", type=int, dest="m_max")
    p.set_defaults(handler=_cmd_project)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except ValidationError as e:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "error": {"type": "validation", "message": str(e), "field": e.field},
        }
        sys.stderr.write(json.dumps(doc, sort_keys=True, default=_coerce) + "\n")
        return 2
    except Refusal as e:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "error": {"type": e.code, "reason": e.reason, "details": e.details},
        }
        sys.stderr.write(json.dumps(doc, sort_keys=True, default=_coerce) + "\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
