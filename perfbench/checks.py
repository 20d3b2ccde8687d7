"""Output checks: invariants of each answer, and agreement with the reference.

A query's output is reduced to a digest, a flat mapping from a key to a
tagged value:

- ["exact", x]: an exact float, compared at EXACT_TOL;
- ["int", i] and ["str", s]: compared for equality;
- ["mc", v, se]: a Monte Carlo estimate, compared within Z_MC combined
  standard errors;
- ["lower", v, se]: a lower bound reported as max(0, est - 3 se), compared
  through est = v + 3 se;
- ["frac", p, r]: an MC frequency over r replicates, compared within Z_MC
  combined binomial standard errors.

MC answers are compared only on the keys both sides have (a search may probe
horizons the reference did not); every other key must be present on both.
"""

from __future__ import annotations

import csv
import io
import json
import math

EXACT_TOL = 1e-9
Z_MC = 5.0
MC_FLOOR = 1e-9
IDENTITY_TOL = 1e-8
CLOSED_FORM_TOL = 1e-12
LAMBDA1_UNIFORM = math.exp(-1.5)
LAMBDA1_TOL = 0.01
SANDWICH_SIGMAS = 3.0
OPTIONAL_TAGS = ("mc", "lower", "frac")


class CheckError(Exception):
    """An answer that is wrong or malformed."""


def _envelope(out: str) -> dict:
    doc = json.loads(out)
    if doc.get("schema_version") != 1 or "result" not in doc:
        raise CheckError("output is not a result envelope")
    return doc["result"]


def _rows(out: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(out)))
    if not rows:
        raise CheckError("empty CSV output")
    return rows


def _tv_entry(kind: str, value: float, se: float) -> list:
    if kind == "exact":
        return ["exact", value]
    if kind == "lower_bound":
        return ["lower", value, se]
    return ["mc", value, se]


def _certified(entry: dict, eps: float) -> bool:
    if entry["kind"] == "exact":
        return entry["value"] < eps
    return entry["value"] + 3.0 * entry["mc_std_error"] < eps


def _check_tv_value(v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise CheckError(f"TV value {v} outside [0, 1]")


def _check_t_mix(profile: dict) -> None:
    """t_mix must be the smallest probed horizon certified below epsilon."""
    ests = profile["estimates"]
    ms = [e["m"] for e in ests]
    if ms != sorted(set(ms)):
        raise CheckError("probed horizons are not sorted and distinct")
    for e in ests:
        _check_tv_value(e["value"])
    for row in profile["t_mix"]:
        hits = [e["m"] for e in ests if _certified(e, row["epsilon"])]
        if row["m"] != (min(hits) if hits else None):
            raise CheckError(f"t_mix {row['m']} at epsilon {row['epsilon']} disagrees with the estimates")


def digest_tv_json(out: str, err: str) -> dict:
    r = _envelope(out)
    _check_tv_value(r["value"])
    return {"tv": _tv_entry(r["kind"], r["value"], r["mc_std_error"])}


def digest_tv_csv(out: str, err: str) -> dict:
    d = {}
    for row in _rows(out):
        v = float(row["tv_value"])
        _check_tv_value(v)
        d[f"{row['kind']}:n={row['n']}:m={row['m']}"] = _tv_entry(row["kind"], v, float(row["std_error"]))
    return d


def digest_cutoff(out: str, err: str) -> dict:
    r = _envelope(out)
    if r["flags"]:
        raise CheckError(f"cutoff flags: {r['flags']}")
    lam = r["lambda1_hat"]
    if abs(lam - LAMBDA1_UNIFORM) > LAMBDA1_TOL:
        raise CheckError(f"lambda1_hat {lam} not within {LAMBDA1_TOL} of exp(-1.5)")
    theta = -1.0 / (2.0 * math.log(lam))
    if abs(r["theta_hat"] - theta) > CLOSED_FORM_TOL * theta:
        raise CheckError("theta_hat is not -1 / (2 log lambda1_hat)")
    if [p["n"] for p in r["profiles"]] != r["n_grid"]:
        raise CheckError("one profile per grid size expected")
    d = {}
    for p in r["profiles"]:
        _check_t_mix(p)
        for e in p["estimates"]:
            d[f"{e['kind']}:n={p['n']}:m={e['m']}"] = _tv_entry(e["kind"], e["value"], e["mc_std_error"])
    return d


def digest_lyapunov(out: str, err: str) -> dict:
    r = _envelope(out)
    if r["flags"]:
        raise CheckError(f"lyapunov flags: {r['flags']}")
    # exp(m * sum of exponents) = |det(Q_m|V)|, so the summed log spectrum
    # equals the mean per-step log-determinant
    total = sum(math.log(v) for v in r["spectrum"])
    if abs(total - r["kappa_hat"]) > IDENTITY_TOL:
        raise CheckError(f"sum log spectrum {total} != kappa_hat {r['kappa_hat']}")
    if abs(r["lambda1"] - max(r["spectrum"])) > CLOSED_FORM_TOL:
        raise CheckError("lambda1 is not the top of the spectrum")
    return {"lambda1": ["mc", r["lambda1"], r["std_error"]]}


def digest_collapse(out: str, err: str) -> dict:
    r = _envelope(out)
    reps = r["replicates"]
    d = {
        "verdict": ["str", r["verdict"]],
        "first_positivity_m": ["int", r["first_positivity_m"]],
    }
    for name in ("p_contract", "p_positive"):
        for m, p in enumerate(r[name], start=1):
            d[f"{name}:m={m}"] = ["frac", p, reps]
    return d


def digest_mixing(out: str, err: str) -> dict:
    r = _envelope(out)
    if r["flags"]:
        raise CheckError(f"mixing flags: {r['flags']}")
    _check_t_mix(r)
    d = {f"t_mix:eps={row['epsilon']}": ["int", row["m"]] for row in r["t_mix"]}
    for e in r["estimates"]:
        d[f"{e['kind']}:m={e['m']}"] = _tv_entry(e["kind"], e["value"], e["mc_std_error"])
    return d


def digest_simulate(out: str, err: str) -> dict:
    """Structure, and where the final colour frequencies may lie.

    Each entry of a product S Q of column-stochastic matrices lies between
    the smallest and largest entry of the same row of S, so after a step the
    frequency of colour r sits within the row-r range of the atoms, up to
    binomial noise of the per-site moves.
    """
    doc = json.loads(out)
    cfg, r = doc["config"], doc["result"]
    n, steps = cfg["n"], cfg["steps"]
    atoms = cfg["law"]["atoms"]
    k = len(atoms[0])
    traj = r["trajectory"]
    if [t["step"] for t in traj] != [0, steps] or traj[-1]["word"] != r["final"]:
        raise CheckError("trajectory does not hold exactly x0 and the final state")
    if traj[0]["word"] != cfg["x0"]:
        raise CheckError("trajectory does not start at x0")
    final = r["final"]
    if len(final) != n or not set(final) <= {str(c) for c in range(1, k + 1)}:
        raise CheckError("final state is not a k-colouring of n sites")
    slack = 6.0 * math.sqrt(0.25 / n)
    for row in range(k):
        lo = min(min(a[row]) for a in atoms) - slack
        hi = max(max(a[row]) for a in atoms) + slack
        freq = final.count(str(row + 1)) / n
        if not lo <= freq <= hi:
            raise CheckError(f"colour {row + 1} frequency {freq:.4f} outside [{lo:.4f}, {hi:.4f}]")
    return {}


def digest_project(out: str, err: str) -> dict:
    r = _envelope(out)
    if r["flags"]:
        raise CheckError(f"projection flags: {r['flags']}")
    if r["equal_crossings"] is not True:
        raise CheckError("labeled and projected chains cross at different times")
    d = {}
    for name in ("t_labeled", "t_projected"):
        for row in r[name]:
            d[f"{name}:eps={row['epsilon']}"] = ["int", row["m"]]
    for row in r["profile"]:
        if row["tv_projected"] > row["tv_labeled"] + 1e-9:
            raise CheckError(f"projection increased TV at m={row['m']}")
        d[f"labeled:m={row['m']}"] = ["exact", row["tv_labeled"]]
        d[f"projected:m={row['m']}"] = ["exact", row["tv_projected"]]
    return d


def digest_ehrenfest_csv(out: str, err: str) -> dict:
    rows = _rows(out)
    n = int(rows[0]["n"])
    d = {}
    prev = 1.0
    for row in rows:
        t, v = int(row["m"]), float(row["tv_value"])
        if row["kind"] != "exact":
            raise CheckError("exact Ehrenfest profile must be exact")
        _check_tv_value(v)
        if v > prev + 1e-12:
            raise CheckError(f"TV to stationarity increased at t={t}")
        prev = v
        d[f"t={t}"] = ["exact", v]
    return d


def digest_ehrenfest_mixing(out: str, err: str) -> dict:
    r = _envelope(out)
    if r["kind"] != "exact":
        raise CheckError("Ehrenfest mixing time must be exact")
    return {"t_mix": ["int", r["t_mix"]]}


def digest_ehrenfest_bounds(out: str, err: str) -> dict:
    doc = json.loads(out)
    cfg, r = doc["config"], doc["result"]
    n, a, beta = r["n"], r["batch_size"], r["beta"]
    if a != math.floor(cfg["alpha"] * n):
        raise CheckError("batch size is not floor(alpha n)")
    base = (n / (2.0 * a)) * math.log(n)
    want = {
        "t_upper_schedule": base + beta * n / a,
        "upper_at_schedule": n * (1.0 - a / n) ** (base + beta * n / a),
        "t_lower_schedule": base - beta * n / a,
        "lower_at_schedule": 1.0 - 8.0 * math.exp(1.0 - 2.0 * beta),
    }
    for key, v in want.items():
        if abs(r[key] - v) > CLOSED_FORM_TOL * max(1.0, abs(v)):
            raise CheckError(f"{key} = {r[key]}, closed form gives {v}")
    return {key: ["exact", r[key]] for key in want}


def digest_refusal(out: str, err: str) -> dict:
    doc = json.loads(err.strip().splitlines()[-1])
    return {"error": ["str", doc["error"]["type"]]}


DIGESTS = {
    name[len("digest_"):]: fn for name, fn in globals().items() if name.startswith("digest_")
}


def _agree(tag: str, a: list, b: list) -> bool:
    if tag == "exact":
        return abs(a[1] - b[1]) <= EXACT_TOL
    if tag in ("int", "str"):
        return a[1] == b[1]
    if tag == "mc":
        return abs(a[1] - b[1]) <= Z_MC * math.hypot(a[2], b[2]) + MC_FLOOR
    if tag == "lower":
        tol = Z_MC * math.hypot(a[2], b[2]) + MC_FLOOR
        est_a, est_b = a[1] + 3.0 * a[2], b[1] + 3.0 * b[2]
        if a[1] > 0.0 and b[1] > 0.0:
            return abs(est_a - est_b) <= tol
        # a bound clipped at 0 only says est <= 3 se
        if a[1] == 0.0 and b[1] == 0.0:
            return True
        hi, clipped = (est_b, a) if a[1] == 0.0 else (est_a, b)
        return hi - tol <= 3.0 * clipped[2]
    if tag == "frac":
        var = a[1] * (1.0 - a[1]) / a[2] + b[1] * (1.0 - b[1]) / b[2]
        return abs(a[1] - b[1]) <= Z_MC * math.sqrt(var) + MC_FLOOR
    raise CheckError(f"unknown digest tag {tag!r}")


def compare(digest: dict, reference: dict) -> list[str]:
    """Problems found comparing a digest with its reference digest."""
    problems = []
    for key in sorted(set(digest) | set(reference)):
        a, b = digest.get(key), reference.get(key)
        if a is None or b is None:
            tag = (a or b)[0]
            if tag not in OPTIONAL_TAGS:
                problems.append(f"{key}: {'missing' if a is None else 'not in reference'}")
            continue
        if a[0] != b[0]:
            problems.append(f"{key}: kind {a[0]} != reference {b[0]}")
        elif not _agree(a[0], a, b):
            problems.append(f"{key}: {a[1:]} disagrees with reference {b[1:]}")
    return problems


def _sandwich(digests: dict, exact: str, lower: str | None, upper: str) -> list[str]:
    """lower <= exact <= upper + 3 sigma, horizon by horizon across queries."""
    ex, up, lo = digests[exact], digests[upper], digests[lower] if lower else {}

    def horizon(key):
        return key.partition(":")[2]

    by_h = {horizon(key): v[1] for key, v in ex.items()}
    problems = []
    for key, v in up.items():
        h = horizon(key)
        if h in by_h and by_h[h] > v[1] + SANDWICH_SIGMAS * v[2] + MC_FLOOR:
            problems.append(f"{upper} {h}: exact {by_h[h]} above upper {v[1]} + 3 se")
    for key, v in lo.items():
        h = horizon(key)
        if h in by_h and v[1] > by_h[h] + MC_FLOOR:
            problems.append(f"{lower} {h}: lower {v[1]} above exact {by_h[h]}")
    return problems


def _coupling(digest: dict, cfg: dict) -> list[str]:
    """The mean residual-coupling bound n (1 - a/n)^t is at least the exact TV."""
    n = cfg["n"]
    a = 1 if cfg.get("standard") else math.floor(cfg["alpha"] * n)
    problems = []
    for key, v in digest.items():
        t = int(key.split("=")[1])
        if n * (1.0 - a / n) ** t < v[1]:
            problems.append(f"t={t}: exact TV {v[1]} above the coupling bound")
    return problems


# sandwich checks per workload: (exact, lower or None, upper) query names
SANDWICHES = {
    "atomic_k3": (
        ("tv_const_exact", None, "tv_const_upper"),
        ("tv_block_exact", "tv_block_lower", "tv_block_upper"),
    ),
}


def cross_checks(workload, digests: dict) -> dict[str, list[str]]:
    """Checks that relate a query to others of the same pass, keyed by the
    query that is marked failed when they do not hold. A check is skipped
    when one of its queries gave no digest (that query has failed already)."""
    out = {}
    for exact, lower, upper in SANDWICHES.get(workload.name, ()):
        if all(name in digests for name in (exact, lower or exact, upper)):
            out[upper] = _sandwich(digests, exact, lower, upper)
    for q in workload.queries:
        if q.digest == "ehrenfest_csv" and q.name in digests:
            out[q.name] = _coupling(digests[q.name], q.config)
    return out
