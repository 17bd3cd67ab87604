"""Seeded operation streams and per-operation output checks.

An operation is one call into the program's public entry points: a
``cli.main`` argument vector, or a library call of
``dispersion.collision_interval`` (which no command exposes).  Streams
are built in rounds with a fixed composition, so that a run cut at any
whole round measures the same mix; every random draw comes from a
``random.Random`` seeded with (workload, seed, round).

Expected values come from closed forms written here, independently of
the program:

* {-1,0}, beta > 0:  s = xi0*(1 - xi0) solves 3*q*s^2 + s - 1 = 0 with
  q = beta*k^4/gamma, and the leading-order growth rate is k^2*a*sqrt(s);
* {-1,1}, beta < 0:  k^4 = gamma / (3*(1 - xi0^2));
* {-2,0}, beta < 0:  k^4 = gamma / (3*xi0*(2 - xi0));
* {-1,0} over the full Floquet family, beta > 0: with p = x*(x+1) the
  kernel is (1 + p)/(3*p^2), least at the open end x -> -3/2, so the
  interval is ((28*gamma/(27*beta))^(1/4), inf).
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep-n32", "queries")

# Fourier truncation of the spectrum ops of each workload.
SWEEP_N = {"sweep-n32": 32, "queries": 32}

GAMMA = (0.5, 6.0)
AMPLITUDE = (0.005, 0.02)
# k / (4*gamma/beta)**(1/4) for beta = +1.  Resonances sit at 1/sqrt(2n),
# n >= 2 (0.5 and below); the threshold neighbourhood (0.92, 1.05) is
# left out because the leading-order oracle does not apply there.
ABOVE = (1.05, 1.6)
BELOW = (0.6, 0.92)
# k / gamma**(1/4) for beta = -1.
NEGATIVE = (0.5, 1.6)
# Collision xi of the dn = 2 pencils, away from the interval ends.
XI_DN2 = (0.05, 0.45)

# Opposite-Krein pairs by (sign of beta, dn): acceptance criterion 4.
PAIR_TABLE = {
    (1, 1): {(-1, 0)}, (-1, 1): set(),
    (1, 2): set(), (-1, 2): {(-2, 0), (-1, 1)},
    (1, 3): {(-1, 2), (-2, 1)}, (-1, 3): {(-3, 0)},
    (1, 4): {(-1, 3), (-2, 2), (-3, 1)}, (-1, 4): {(-4, 0)},
}

# Output directory of the figures ops, relative to the checkout root.
FIG_DIR = ".bench_work/fig"

# Known defects, recorded as shares and never counted as failures.
DEFECTS = ("near_origin_growth", "c7_pencil_stable", "c7_hill_grows")
# Near-origin growth: the CLI xi grid starts at 1/1024, inside the first
# cell of the library grid, which starts at 1/1024 + (1/2 - 1/1024)/512.
NEAR_ORIGIN_XI = 1.0 / 512


@dataclass
class Op:
    """One operation: ``argv`` for cli.main, or ``call`` for the library."""

    kind: str
    argv: tuple[str, ...] = ()
    call: tuple = ()
    expect: dict = field(default_factory=dict)


def _r(x: float) -> float:
    """Six significant digits, so every input reads back exactly."""
    return float(f"{x:.6g}")


def _arg(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _cli(kind: str, command: str, expect: dict | None = None, **flags) -> Op:
    argv = [command]
    for name, value in flags.items():
        if value is True:
            argv.append("--" + name.replace("_", "-"))
        elif value is not None:
            argv += ["--" + name.replace("_", "-"), _arg(value)]
    return Op(kind=kind, argv=tuple(argv), expect=expect or {})


def threshold(beta: float, gamma: float) -> float:
    return (4.0 * gamma / beta) ** 0.25


def xi0_dn1(beta: float, gamma: float, k: float) -> float:
    """{-1,0} collision xi for beta > 0 above the threshold."""
    q = beta * k**4 / gamma
    s = (math.sqrt(1.0 + 12.0 * q) - 1.0) / (6.0 * q)
    return (1.0 - math.sqrt(1.0 - 4.0 * s)) / 2.0


def omega(beta, gamma, k, x):
    c0 = gamma / k**2 + beta * k**2
    return k**2 * x * (c0 - beta * k**2 * x**2) - gamma / x


# ---------------------------------------------------------------------------
# parameter groups

def _above(rng):
    gamma = _r(rng.uniform(*GAMMA))
    k = _r(rng.uniform(*ABOVE) * threshold(1.0, gamma))
    return 1.0, gamma, k


def _below(rng):
    gamma = _r(rng.uniform(*GAMMA))
    k = _r(rng.uniform(*BELOW) * threshold(1.0, gamma))
    return 1.0, gamma, k


def _negative(rng):
    gamma = _r(rng.uniform(*GAMMA))
    return -1.0, gamma, _r(rng.uniform(*NEGATIVE) * gamma**0.25)


def _amplitude(rng):
    return _r(rng.uniform(*AMPLITUDE))


def make_round(workload: str, seed: int, index: int) -> list[Op]:
    """Operations of round ``index``; the same arguments give equal lists."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "queries":
        return _queries_round(rng)
    return _sweep_round(rng, SWEEP_N[workload])


def _sweep_round(rng, N: int) -> list[Op]:
    ops = []
    for group, draw in (("above", _above), ("below", _below),
                        ("negative", _negative)):
        beta, gamma, k = draw(rng)
        a = _amplitude(rng)
        expect = {"group": group}
        if group == "above":
            xi0 = xi0_dn1(beta, gamma, k)
            expect.update(xi0=xi0, growth=k**2 * a * math.sqrt(xi0 * (1 - xi0)))
        ops.append(_cli(f"sweep-{group}", "spectrum", expect, beta=beta,
                        gamma=gamma, k=k, a=a, N=N))
    return ops


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """Operations run before timing: one query of each kind, or one sweep
    on a 32-point grid (same code paths as a full sweep, fewer slices)."""
    ops = make_round(workload, seed, -1)
    if workload == "queries":
        return ops
    return [Op(kind=ops[0].kind, argv=ops[0].argv + ("--xi-grid", "32"),
               expect={"group": "warmup"})]


def _queries_round(rng) -> list[Op]:
    ops = []
    for draw in (_above, _negative):
        beta, gamma, k = draw(rng)
        ops.append(_cli("wave", "wave", {}, beta=beta, gamma=gamma, k=k,
                        a=_amplitude(rng)))
    beta, gamma = _r(rng.uniform(0.5, 2.0)), _r(rng.uniform(*GAMMA))
    ops.append(_cli("threshold", "threshold", {}, beta=beta, gamma=gamma))
    for sign, flag in ((1.0, True), (-1.0, None)):
        beta, gamma = _r(sign * rng.uniform(0.5, 2.0)), _r(rng.uniform(*GAMMA))
        ops.append(_cli("collisions", "collisions", {}, beta=beta, gamma=gamma,
                        opposite_krein=flag))
    for fmt in ("json", "csv"):
        beta, gamma, k = rng.choice((_above, _below, _negative))(rng)
        ops.append(_cli("dispersion", "dispersion", {}, beta=beta, gamma=gamma,
                        k=k, xi=_r(rng.uniform(0.01, 0.5)), format=fmt))

    beta, gamma, k = _above(rng)
    xi0 = xi0_dn1(beta, gamma, k)
    ops.append(_cli("krein", "krein", {"xi0": xi0}, beta=beta, gamma=gamma,
                    k=k, n=-1, m=0))
    a = _amplitude(rng)
    ops.append(_cli("reduced-dn1", "reduced", {
        "xi0": xi0, "growth": k**2 * a * math.sqrt(xi0 * (1 - xi0))},
        beta=beta, gamma=gamma, k=k, n=-1, m=0, a=a))

    gamma = _r(rng.uniform(*GAMMA))
    xi = rng.uniform(*XI_DN2)
    k = _r((gamma / (3 * xi * (2 - xi))) ** 0.25)
    t = gamma / (3 * k**4)
    ops.append(_cli("reduced-dn2", "reduced", {"xi0": 1 - math.sqrt(1 - t)},
                    beta=-1.0, gamma=gamma, k=k, n=-2, m=0, a=_amplitude(rng)))
    gamma = _r(rng.uniform(*GAMMA))
    xi = rng.uniform(*XI_DN2)
    k = _r((gamma / (3 * (1 - xi * xi))) ** 0.25)
    xi0 = math.sqrt(1 - gamma / (3 * k**4))
    a = _amplitude(rng)
    ops.append(_cli("reduced-c7", "reduced", {"xi0": xi0}, beta=-1.0,
                    gamma=gamma, k=k, n=-1, m=1, a=a))
    ops.append(_cli("slice-c7", "spectrum", {"N": 32}, beta=-1.0, gamma=gamma,
                    k=k, a=a, xi=xi0))
    for draw in (_above, _negative):
        beta, gamma, k = draw(rng)
        ops.append(_cli("slice", "spectrum", {"N": 32}, beta=beta, gamma=gamma,
                        k=k, a=_amplitude(rng), xi=_r(rng.uniform(0.01, 0.5))))

    beta, gamma = _r(rng.uniform(0.5, 2.0)), _r(rng.uniform(*GAMMA))
    ops.append(_cli("figure-K", "figures", {}, which="K_curves", beta=beta,
                    gamma=gamma, out=FIG_DIR))
    n, m = rng.choice(((-3, -1), (-1, 0), (-2, 0), (-1, 1)))
    ops.append(_cli("figure-ranges", "figures", {}, which="collision_ranges",
                    beta=rng.choice((beta, -beta)), gamma=gamma, n=n, m=m,
                    out=FIG_DIR))
    ops.append(_cli("figure-contour", "figures", {}, which="collision_contour",
                    beta=beta, gamma=gamma, out=FIG_DIR))

    beta, gamma = _r(rng.uniform(0.5, 2.0)), _r(rng.uniform(*GAMMA))
    ops.append(Op(kind="interval", call=(beta, gamma, -3, -1)))
    beta, gamma = _r(rng.uniform(0.5, 2.0)), _r(rng.uniform(*GAMMA))
    ops.append(Op(kind="interval", call=(beta, gamma, -1, 0)))
    return ops


# ---------------------------------------------------------------------------
# checks

def _flag(argv, name):
    i = argv.index("--" + name)
    return float(argv[i + 1])


def _close(x, y, rel=1e-12, abs_tol=0.0):
    return math.isfinite(x) and abs(x - y) <= rel * abs(y) + abs_tol


def check(op: Op, rc: int, out):
    """Validate one result.

    Returns (error, defects): error is None or a one-line reason;
    defects maps each known-defect name this operation is a candidate
    for to whether the defect showed.
    """
    try:
        if op.call:
            return _check_interval(op, out), {}
        if rc != 0:
            return f"exit code {rc}", {}
        return CHECKS[op.kind](op, out)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}", {}


def _check_interval(op, out):
    beta, gamma, n, m = op.call
    if isinstance(out, Exception):
        return f"raised {out!r}"
    scale = (gamma / beta) ** 0.25
    if (n, m) == (-3, -1):
        # criterion 5 at beta = gamma = 1, scaled by (gamma/beta)^(1/4)
        if not (0.48 * scale <= out.k_min <= 0.52 * scale
                and 0.71 * scale <= out.k_max <= 0.75 * scale):
            return f"{{-3,-1}} interval ({out.k_min}, {out.k_max}) out of bounds"
        return None
    k_min = (28 * gamma / (27 * beta)) ** 0.25
    if not (_close(out.k_min, k_min, rel=1e-6) and math.isinf(out.k_max)):
        return f"{{-1,0}} interval ({out.k_min}, {out.k_max}) != ({k_min}, inf)"
    return None


def _envelope(out):
    doc = json.loads(out)
    missing = {"schema_version", "command", "inputs", "results", "diagnostics"} - set(doc)
    if missing:
        raise ValueError(f"envelope lacks {sorted(missing)}")
    return doc["results"]


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_sweep(op, out):
    res = _envelope(out)
    growth, xi_star = res["growth"], res["xi_star"]
    if not (_finite(growth, xi_star) and growth >= 0 and res["paired"] is True):
        return f"growth {growth!r} xi* {xi_star!r} paired {res['paired']!r}", {}
    group = op.expect["group"]
    if group == "above":
        rel = abs(growth - op.expect["growth"]) / op.expect["growth"]
        if rel > 0.10:
            return f"growth {growth} vs leading order {op.expect['growth']}", {}
        if abs(xi_star - op.expect["xi0"]) >= 0.02:
            return f"xi* {xi_star} vs collision {op.expect['xi0']}", {}
    if group == "below":
        return None, {"near_origin_growth":
                      growth > 0 and xi_star < NEAR_ORIGIN_XI}
    return None, {}


def _check_wave(op, out):
    res = _envelope(out)
    beta, gamma, k = (_flag(op.argv, f) for f in ("beta", "gamma", "k"))
    a = _flag(op.argv, "a")
    a2 = 2 * k**2 / (3 * gamma - 12 * beta * k**4)
    speed = res["c0"] + a**2 * res["c2"] + a**4 * res["c4"]
    if not (_close(res["c0"], gamma / k**2 + beta * k**2)
            and _close(res["A2"], a2) and _close(res["c2"], a2)
            and _close(res["speed"], speed)):
        return "wave coefficients disagree with the closed forms", {}
    if not (_finite(res["residual_l2"]) and 0 <= res["residual_l2"] < a**3):
        return f"residual {res['residual_l2']!r} not O(a^5)-small", {}
    return None, {}


def _check_threshold(op, out):
    beta, gamma = _flag(op.argv, "beta"), _flag(op.argv, "gamma")
    k_min = _envelope(out)["k_min"]
    if not _close(k_min, threshold(beta, gamma), rel=1e-14):
        return f"threshold {k_min!r} != (4*gamma/beta)^(1/4)", {}
    return None, {}


def _check_collisions(op, out):
    res = _envelope(out)
    beta, gamma = _flag(op.argv, "beta"), _flag(op.argv, "gamma")
    sign = 1 if beta > 0 else -1
    for dn in (1, 2, 3, 4):
        got = {(p["n"], p["m"]) for p in res["pairs"]
               if p["dn"] == dn and p["opposite_krein"]}
        if got != PAIR_TABLE[(sign, dn)]:
            return f"dn={dn} opposite pairs {sorted(got)} (criterion 4)", {}
    if "--opposite-krein" in op.argv and not all(
            p["opposite_krein"] for p in res["pairs"]):
        return "--opposite-krein kept a same-signature pair", {}
    origin = res["origin"]
    if beta < 0:
        return (None if origin == [] else "origin collisions for beta < 0"), {}
    if len(origin) != 13 or not all(
            _close(e["k"], (gamma / (beta * (e["n"] + 0.5) ** 2)) ** 0.25,
                   rel=1e-12) and e["m"] == -e["n"] - 1 for e in origin):
        return "origin collisions disagree with (gamma/(beta(n+1/2)^2))^(1/4)", {}
    return None, {}


def _check_dispersion(op, out):
    beta, gamma, k, xi = (_flag(op.argv, f) for f in ("beta", "gamma", "k", "xi"))
    if "csv" in op.argv:
        rows = list(csv.reader(out.splitlines()[1:]))
        if rows[0] != ["n", "x", "omega", "krein"]:
            return f"csv header {rows[0]}", {}
        modes = [{"n": int(r[0]), "omega": float(r[2]), "krein": int(r[3])}
                 for r in rows[1:]]
    else:
        modes = _envelope(out)["modes"]
    if [mo["n"] for mo in modes] != list(range(-6, 7)):
        return "modes are not n = -6..6", {}
    for mo in modes:
        x = mo["n"] + xi
        w = omega(beta, gamma, k, x)
        if not _close(mo["omega"], w, rel=1e-12, abs_tol=1e-12):
            return f"omega({x}) = {mo['omega']} vs {w}", {}
        if abs(w) > 1e-9 and mo["krein"] != (1 if w / x > 0 else -1):
            return f"krein sign at x={x}", {}
    return None, {}


def _check_krein(op, out):
    events = _envelope(out)["events"]
    if len(events) != 1:
        return f"{len(events)} {{-1,0}} collisions, expected 1", {}
    e = events[0]
    if not (_close(e["xi0"], op.expect["xi0"], rel=0, abs_tol=1e-9)
            and e["opposite_krein"] and not e["at_origin"]
            and e["kappa_n"] == -e["kappa_m"] != 0):
        return f"event {e} (expected xi0 {op.expect['xi0']})", {}
    return None, {}


def _pencil(op, out):
    pencils = _envelope(out)["pencils"]
    if len(pencils) != 1:
        raise ValueError(f"{len(pencils)} pencils, expected 1")
    p = pencils[0]
    if not _close(p["xi0"], op.expect["xi0"], rel=0, abs_tol=1e-9):
        raise ValueError(f"xi0 {p['xi0']} vs {op.expect['xi0']}")
    if not (_finite(p["discriminant"], p["growth_rate"]) and p["growth_rate"] >= 0
            and p["unstable"] == (p["discriminant"] < -1e-14)):
        raise ValueError(f"inconsistent pencil {p}")
    return p


def _check_reduced_dn1(op, out):
    p = _pencil(op, out)
    pred = op.expect["growth"]
    if not (p["unstable"] and abs(p["growth_rate"] - pred) <= 0.10 * pred
            and _close(p["predicted_growth_rate"], pred, rel=1e-9)):
        return f"dn=1 pencil growth {p['growth_rate']} vs {pred}", {}
    return None, {}


def _check_reduced_dn2(op, out):
    p = _pencil(op, out)
    if p["unstable"]:
        return "{-2,0} pencil reports instability; the collision is quiescent", {}
    return None, {}


def _check_reduced_c7(op, out):
    return None, {"c7_pencil_stable": not _pencil(op, out)["unstable"]}


def _check_slice(op, out):
    res = _envelope(out)
    lam = res["eigenvalues"]
    size = 2 * op.expect["N"] + 1
    if not (len(lam) == size and res["paired"] is True
            and _finite(res["max_real_part"], *(c for z in lam for c in z))
            and res["max_real_part"] >= 0):
        return f"slice: {len(lam)} eigenvalues (want {size}), paired " \
               f"{res['paired']!r}", {}
    if op.kind == "slice-c7":
        return None, {"c7_hill_grows": res["max_real_part"] > 0}
    return None, {}


def _figure_rows(which: str, args: dict) -> dict[str, int]:
    """Expected data rows of each figure file (blank rows included)."""
    if which == "K_curves":
        return {f"k_curves_dn{dn}.csv": 256 * (dn + 2) + 513 for dn in (1, 2, 3, 4)}
    if which == "collision_ranges":
        n, m = sorted((int(args["n"]), int(args["m"])))
        return {f"collision_ranges_n{n}_m{m}.csv": 2048}
    return {"collision_contour.csv": 512}


def _check_figure(op, out):
    files = _envelope(out)["files"]
    args = dict(zip(op.argv[1::2], op.argv[2::2]))
    args = {k.lstrip("-"): v for k, v in args.items()}
    want = _figure_rows(args["which"], args)
    if sorted(Path(f).name for f in files) != sorted(want):
        return f"figure files {files}", {}
    for f in files:
        lines = Path(f).read_text().splitlines()
        if (len(lines) != want[Path(f).name] + 2 or not lines[0].startswith("#")):
            return f"{f}: {len(lines) - 2} data rows, expected {want[Path(f).name]}", {}
    return None, {}


CHECKS = {
    "sweep-above": _check_sweep,
    "sweep-below": _check_sweep,
    "sweep-negative": _check_sweep,
    "wave": _check_wave,
    "threshold": _check_threshold,
    "collisions": _check_collisions,
    "dispersion": _check_dispersion,
    "krein": _check_krein,
    "reduced-dn1": _check_reduced_dn1,
    "reduced-dn2": _check_reduced_dn2,
    "reduced-c7": _check_reduced_c7,
    "slice": _check_slice,
    "slice-c7": _check_slice,
    "figure-K": _check_figure,
    "figure-ranges": _check_figure,
    "figure-contour": _check_figure,
}
