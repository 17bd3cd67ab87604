"""Command-line front end.

One subcommand per analysis stage (wave, dispersion, collisions, krein,
reduced, spectrum, threshold, figures).  Every run emits a ResultEnvelope
(JSON or CSV) echoing the inputs and recording solver diagnostics, so
results are reproducible byte for byte up to the wall-time field.

Exit codes: 0 success, 2 domain error (resonant wavenumber, xi out of
range, below-threshold query, non-finite input or result, overflow, ...),
1 internal failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dispersion, hill, reduced, stokes
from .errors import DomainError

SCHEMA_VERSION = "1"

USAGE_EXIT = 64
DOMAIN_EXIT = 2
INTERNAL_EXIT = 1

_TOLERANCES = {
    "collision_check": reduced.COLLISION_TOL,
    "xi_root": dispersion.XI_ROOT_TOL,
    "pairing": hill.PAIRING_TOL,
    "omega_origin": dispersion.OMEGA_ORIGIN_TOL,
}


@dataclass
class ResultEnvelope:
    command: str
    inputs: dict
    results: dict
    diagnostics: dict
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(_jsonable(self.to_dict()), indent=2) + "\n"


def validate_envelope(doc: dict) -> None:
    """Round-trip schema check for emitted envelopes."""
    for key in ("schema_version", "command", "inputs", "results", "diagnostics"):
        if key not in doc:
            raise ValueError(f"envelope missing key {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unknown schema version {doc['schema_version']!r}")
    if not isinstance(doc["inputs"], dict) or not isinstance(doc["results"], dict):
        raise ValueError("inputs and results must be objects")


def _jsonable(obj):
    """JSON-ready copy of obj; a non-finite float raises DomainError."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if not math.isfinite(v):
            raise DomainError(f"non-finite result {v!r}")
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _fmt(x) -> str:
    """Shortest round-trip decimal form, capped at 17 significant digits."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _require(args, *names):
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(f"{args.command}: missing required flags: {', '.join(missing)}")


class UsageError(Exception):
    pass


def _params(args) -> stokes.PhysicalParams:
    _require(args, "beta", "gamma", "k")
    return stokes.PhysicalParams(beta=args.beta, gamma=args.gamma, k=args.k)


def _coefficients(args) -> tuple[float, float]:
    """(beta, gamma), checked as PhysicalParams checks them, for the
    commands that take no wavenumber."""
    _require(args, "beta", "gamma")
    stokes.check_coefficients(args.beta, args.gamma)
    return args.beta, args.gamma


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, csv rows or None)

def _cmd_wave(args):
    """Stokes expansion coefficients and residual"""
    wave = stokes.stokes_coefficients(_params(args))
    results = {
        "c0": wave.c0, "A2": wave.A2, "A3": wave.A3,
        "A42": wave.A42, "A44": wave.A44, "c2": wave.c2, "c4": wave.c4,
    }
    if args.a is not None:
        results["speed"] = stokes.eval_speed(wave, args.a)
        results["residual_l2"] = stokes.residual_F(wave, args.a)
    rows = [("coefficient", "value")] + [(k, _fmt(v)) for k, v in results.items()]
    return results, rows


def _cmd_dispersion(args):
    """Bloch frequencies and Krein signatures at one xi"""
    params = _params(args)
    _require(args, "xi")
    dispersion.check_xi(args.xi)
    c0 = stokes.phase_speed_c0(params)
    modes = []
    for n in range(-args.n_range, args.n_range + 1):
        x = n + args.xi
        w = dispersion.omega(params, c0, x)
        modes.append({
            "n": n, "x": x, "omega": w,
            "krein": dispersion.krein_signature(params, c0, x),
        })
    rows = [("n", "x", "omega", "krein")]
    rows += [(m["n"], _fmt(m["x"]), _fmt(m["omega"]), m["krein"]) for m in modes]
    return {"c0": c0, "modes": modes}, rows


def _cmd_collisions(args):
    """colliding mode pairs and origin collisions"""
    beta, gamma = _coefficients(args)
    pairs = dispersion.enumerate_collision_pairs(beta, args.dn_max, args.n_range)
    if args.opposite_krein:
        pairs = [p for p in pairs if p.opposite_krein]
    origin = dispersion.origin_collisions(beta, gamma, args.n_range)
    results = {
        "pairs": [{"n": p.n, "m": p.m, "dn": p.dn,
                   "opposite_krein": p.opposite_krein} for p in pairs],
        "origin": [{"n": e.n, "m": e.m, "xi": e.xi0, "k": e.k} for e in origin],
    }
    rows = [("n", "m", "dn", "opposite_krein")]
    rows += [(p.n, p.m, p.dn, p.opposite_krein) for p in pairs]
    return results, rows


def _cmd_krein(args):
    """resolved collisions of one pair with signatures"""
    params = _params(args)
    _require(args, "n", "m")
    c0 = stokes.phase_speed_c0(params)
    events = dispersion.collision_events(params, args.n, args.m)
    out = []
    for e in events:
        out.append({
            "n": e.n, "m": e.m, "xi0": e.xi0, "k": e.k, "omega": e.omega,
            "at_origin": e.at_origin, "opposite_krein": e.opposite_krein,
            "kappa_n": dispersion.krein_signature(params, c0, e.n + e.xi0),
            "kappa_m": dispersion.krein_signature(params, c0, e.m + e.xi0),
        })
    rows = [("n", "m", "xi0", "omega", "kappa_n", "kappa_m", "opposite_krein")]
    rows += [(e["n"], e["m"], _fmt(e["xi0"]), _fmt(e["omega"]),
              e["kappa_n"], e["kappa_m"], e["opposite_krein"]) for e in out]
    return {"events": out}, rows


def _cmd_reduced(args):
    """2x2 reduced pencil, discriminant, growth rate"""
    params = _params(args)
    _require(args, "n", "m", "a")
    wave = stokes.stokes_coefficients(params)
    if args.xi is not None:
        dispersion.check_xi(args.xi)
        xis = [args.xi]
    else:
        xis = dispersion.collision_xi(params, args.n, args.m)
        if not xis:
            raise DomainError(
                f"pair {{{args.n},{args.m}}} has no collision at k={params.k}"
            )
    out = []
    for xi0 in xis:
        pencil = reduced.reduced_pencil(wave, args.n, args.m, xi0, args.a)
        shifts = reduced.eigenvalue_shifts(pencil)
        entry = {
            "xi0": xi0, "omega": pencil.omega, "order": pencil.order,
            "B_imag": pencil.B.imag.tolist(),
            "discriminant": shifts.value,
            "shifts": [[s.real, s.imag] for s in shifts.shifts],
            "unstable": shifts.unstable,
            "growth_rate": shifts.growth_rate,
        }
        if pencil.m - pencil.n == 1:
            entry["discriminant_leading"] = reduced.discriminant_dn1(
                wave, pencil.n, xi0, args.a)
            if shifts.unstable:
                entry["predicted_growth_rate"] = reduced.predicted_growth_rate(
                    wave, pencil.n, xi0, args.a)
        out.append(entry)
    rows = [("xi0", "omega", "discriminant", "growth_rate", "unstable")]
    rows += [(_fmt(e["xi0"]), _fmt(e["omega"]), _fmt(e["discriminant"]),
              _fmt(e["growth_rate"]), e["unstable"]) for e in out]
    return {"pencils": out}, rows


def _cmd_spectrum(args):
    """truncated-Fourier spectrum slice or xi sweep"""
    params = _params(args)
    _require(args, "a")
    wave = stokes.stokes_coefficients(params)
    cfg = hill.TruncationConfig(N=args.N, xi_grid=args.xi_grid)
    if args.xi is not None:
        sl = hill.spectrum_slice(wave, args.a, args.xi, cfg)
        results = {
            "xi": sl.xi, "max_real_part": sl.max_real_part, "paired": sl.paired,
            "eigenvalues": [[z.real, z.imag] for z in sl.eigenvalues],
        }
        rows = [("re", "im")]
        rows += [(_fmt(z.real), _fmt(z.imag)) for z in sl.eigenvalues]
        return results, rows
    xi_star, growth, sl = hill.max_growth(wave, args.a, cfg)
    results = {
        "xi_star": xi_star, "growth": growth, "paired": sl.paired,
        "slice": {"xi": sl.xi, "max_real_part": sl.max_real_part},
    }
    rows = [("xi_star", "growth"), (_fmt(xi_star), _fmt(growth))]
    return results, rows


def _cmd_threshold(args):
    """instability threshold wavenumber (beta > 0)"""
    _require(args, "beta", "gamma")
    k_min = reduced.instability_threshold_dn1(args.beta, args.gamma)
    return {"k_min": k_min}, [("k_min",), (_fmt(k_min),)]


def _cmd_figures(args):
    """CSV data for the kernel/collision figures"""
    _require(args, "which")
    outdir = Path(args.out) if args.out else Path(".")
    files = _FIGURES[args.which](args, outdir)
    return {"files": [str(f) for f in files]}, None


# ---------------------------------------------------------------------------
# figure-data emitters

def _csv_comment(args) -> str:
    vals = [("beta", args.beta), ("gamma", args.gamma), ("k", args.k),
            ("a", args.a), ("N", args.N)]
    return "# " + " ".join(f"{name}={_fmt(v) if v is not None else ''}"
                           for name, v in vals)


def _write_csv(path: Path, comment: str, header, rows) -> None:
    # created only once the inputs have passed validation
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(comment + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _emit_k_curves(args, outdir: Path) -> list[Path]:
    files = []
    for dn in (1, 2, 3, 4):
        xs = np.arange(-256 * (dn + 2), 256 * 2 + 1) / 256.0
        rows = [(_fmt(x), _fmt(K)) if not math.isnan(K) else ()
                for x, K in zip(xs.tolist(), dispersion.collision_K(xs, dn).tolist())]
        path = outdir / f"k_curves_dn{dn}.csv"
        _write_csv(path, _csv_comment(args), ("x", "K"), rows)
        files.append(path)
    return files


def _emit_collision_ranges(args, outdir: Path) -> list[Path]:
    _require(args, "beta", "gamma", "n", "m")
    beta, gamma = _coefficients(args)
    n, m = min(args.n, args.m), max(args.n, args.m)
    xi = np.arange(-1023, 1025) / 2048.0
    x = n + xi
    # xi = 0 is left out of the Floquet family: a blank row
    k4 = np.where(xi == 0, np.nan, dispersion._collision_k4(beta, gamma, x, m - n))
    rows = [(_fmt(xj), _fmt(k4j**0.25)) if k4j > 0 else ()
            for xj, k4j in zip(x.tolist(), k4.tolist())]
    path = outdir / f"collision_ranges_n{n}_m{m}.csv"
    _write_csv(path, _csv_comment(args), ("x", "k"), rows)
    return [path]


def _emit_collision_contour(args, outdir: Path) -> list[Path]:
    beta, gamma = _coefficients(args)
    if beta <= 0:
        raise DomainError("collision contour requires beta > 0")
    rows = []
    for xi in hill.default_xi_grid(args.xi_grid):
        k = dispersion.collision_wavenumber(beta, gamma, -1, 0, float(xi))
        rows.append((_fmt(float(xi)), _fmt(k)) if k is not None else ())
    path = outdir / "collision_contour.csv"
    _write_csv(path, _csv_comment(args), ("xi", "k"), rows)
    return [path]


# plot-ready CSV files by --which name; singular points become blank rows
_FIGURES = {
    "K_curves": _emit_k_curves,
    "collision_ranges": _emit_collision_ranges,
    "collision_contour": _emit_collision_contour,
}


# ---------------------------------------------------------------------------
# driver

_HANDLERS = {
    "wave": _cmd_wave,
    "dispersion": _cmd_dispersion,
    "collisions": _cmd_collisions,
    "krein": _cmd_krein,
    "reduced": _cmd_reduced,
    "spectrum": _cmd_spectrum,
    "threshold": _cmd_threshold,
    "figures": _cmd_figures,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ostro-stab",
        description="Spectral stability of small-amplitude periodic "
                    "Ostrovsky waves: wave construction, collision and "
                    "Krein analysis, reduced pencils, Hill spectra.",
        epilog="commands:\n" + "\n".join(
            f"  {name:<12}{handler.__doc__}" for name, handler in _HANDLERS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_HANDLERS,
                        help="analysis stage to run (see below)")
    parser.add_argument("--beta", type=float, help="dispersion coefficient (nonzero)")
    parser.add_argument("--gamma", type=float, help="rotation coefficient (> 0)")
    parser.add_argument("--k", type=float, help="carrier wavenumber (> 0)")
    parser.add_argument("--a", type=float, help="wave amplitude")
    parser.add_argument("--n", type=int, help="first mode index")
    parser.add_argument("--m", type=int, help="second mode index")
    parser.add_argument("--xi", type=float, help="Floquet exponent in (0, 1/2]")
    parser.add_argument("--dn-max", dest="dn_max", type=int, default=4,
                        help="largest mode separation (default 4)")
    parser.add_argument("--n-range", dest="n_range", type=int, default=6,
                        help="mode index window |n| <= n_range (default 6)")
    parser.add_argument("--N", type=int, default=hill.TruncationConfig.N,
                        help="Fourier truncation, modes -N..N, "
                             f"8 <= N <= {(hill.MAX_DIM - 1) // 2} (default %(default)s)")
    parser.add_argument("--xi-grid", dest="xi_grid", type=int,
                        default=hill.TruncationConfig.xi_grid,
                        help="number of xi sweep points, "
                             f"1..{hill.MAX_XI_GRID} (default %(default)s)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="output file (figures: output directory)")
    parser.add_argument("--opposite-krein", dest="opposite_krein",
                        action="store_true",
                        help="keep only opposite-Krein pairs")
    # last, so that the echoed inputs keep their key order
    parser.add_argument("--which", choices=_FIGURES,
                        help="figure data set to emit (figures command)")
    return parser


def run(args: argparse.Namespace) -> tuple[str, str]:
    """Execute one command; returns (serialized envelope, output path or '').

    Raises DomainError for a non-finite float flag, before any work, and
    for a non-finite float anywhere in the results, before anything is
    written.
    """
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{name.replace('_', '-')} must be finite, "
                              f"got {value!r}")
    t0 = time.perf_counter()
    results, rows = _HANDLERS[args.command](args)
    wall = time.perf_counter() - t0
    results = _jsonable(results)
    diagnostics = {
        "N": args.N,
        "xi_grid": args.xi_grid,
        "tolerances": dict(_TOLERANCES),
        "wall_time_s": wall,
    }
    envelope = ResultEnvelope(
        command=args.command, inputs=dict(vars(args)),
        results=results, diagnostics=diagnostics,
    )
    if args.format == "csv" and rows:
        buf = io.StringIO()
        buf.write(_csv_comment(args) + "\n")
        writer = csv.writer(buf)
        for row in rows:
            writer.writerow(row)
        payload = buf.getvalue()
    else:
        payload = envelope.to_json()
    out = args.out if args.command != "figures" else None
    return payload, out or ""


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, out = run(args)
    except UsageError as exc:
        print(f"ostro-stab: error: {exc}", file=sys.stderr)
        print("run 'ostro-stab --help' for usage",
              file=sys.stderr)
        return USAGE_EXIT
    except (DomainError, ValueError, ArithmeticError) as exc:
        print(f"ostro-stab: domain error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except Exception:
        traceback.print_exc()
        return INTERNAL_EXIT
    if out:
        Path(out).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
