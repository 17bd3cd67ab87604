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
import functools
import io
import json
import math
import re
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dispersion, hill, reduced, stokes
from .errors import DomainError, ResonantWavenumber, Singularity

SCHEMA_VERSION = "1"

USAGE_EXIT = 64
DOMAIN_EXIT = 2
INTERNAL_EXIT = 1

_encode_str = json.encoder.encode_basestring_ascii

_TOLERANCES = {
    "collision_check": reduced.COLLISION_TOL,
    "xi_root": dispersion.XI_ROOT_TOL,
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
        return _dumps(self.to_dict()) + "\n"


def validate_envelope(doc: dict) -> None:
    """Round-trip schema check for emitted envelopes."""
    for key in ("schema_version", "command", "inputs", "results", "diagnostics"):
        if key not in doc:
            raise ValueError(f"envelope missing key {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unknown schema version {doc['schema_version']!r}")
    if not isinstance(doc["inputs"], dict) or not isinstance(doc["results"], dict):
        raise ValueError("inputs and results must be objects")


def _dumps(obj) -> str:
    """The text of json.dumps(obj, indent=2), written in one pass, with
    numpy values converted and every float checked.

    An ndarray is written as its tolist(), a numpy bool, integer or float
    as the Python value, a complex number as [re, im].  A non-finite
    float anywhere raises DomainError.  Keys must be strings.
    """
    out = []
    _dump(obj, "\n", out)
    return "".join(out)


def _dump(obj, nl: str, out: list) -> None:
    """Append the text of obj to out; nl is the line break and indent of
    the line obj starts on."""
    t = type(obj)
    if t is float:
        if not math.isfinite(obj):
            raise DomainError(f"non-finite result {obj!r}")
        out.append(float.__repr__(obj))
    elif t is str:
        out.append(_encode_str(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            out += (sep, _encode_str(key), ": ")
            _dump(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _dump(value, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif t is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif t is bool:
        out.append("true" if obj else "false")
    else:
        _dump(_plain(obj), nl, out)


def _plain(obj):
    """The Python value written for a numpy value or a complex number."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _fmt(x) -> str:
    """Shortest round-trip decimal form, capped at 17 significant digits."""
    if isinstance(x, float):
        return float.__repr__(x)
    return str(x)


def _require(args, *names):
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError(f"{args.command}: missing required flags: {', '.join(missing)}")


class UsageError(Exception):
    pass


class OutputError(Exception):
    """An output file could not be written; exit 64 without a traceback."""

    def __init__(self, path, exc: OSError):
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


def _params(args) -> stokes.PhysicalParams:
    _require(args, "beta", "gamma", "k")
    return stokes.PhysicalParams(beta=args.beta, gamma=args.gamma, k=args.k)


def _ordered_wave(params: stokes.PhysicalParams, a: float) -> stokes.StokesWave:
    """The Stokes wave of params, refused where its expansion is not
    ordered at amplitude a.

    Next to a harmonic resonance the expansion coefficients blow up, and
    a harmonic W_j, j >= 2, can reach the fundamental W_1 = a.  The
    truncated profile is then no small-amplitude wave, and any growth or
    pencil computed on it is spurious.
    """
    wave = stokes.stokes_coefficients(params)
    W = np.abs(stokes.harmonic_amplitudes(wave, a))
    j = int(np.argmax(W[1:])) + 1
    if W[j] >= W[0] > 0:
        raise ResonantWavenumber(
            f"expansion not ordered at a={a!r}: harmonic W{j + 1} = "
            f"{W[j]:.3g} is not smaller than |a| (k={params.k!r} is near "
            "a harmonic resonance)")
    return wave


def _n_range(args) -> int:
    """--n-range, refused outside [0, hill.MAX_N_RANGE]."""
    if not 0 <= args.n_range <= hill.MAX_N_RANGE:
        raise DomainError(f"--n-range {args.n_range} not in "
                          f"[0, {hill.MAX_N_RANGE}]")
    return args.n_range


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
    n_range = _n_range(args)
    params = _params(args)
    _require(args, "xi")
    dispersion.check_xi(args.xi)
    c0 = stokes.phase_speed_c0(params)
    ns = np.arange(-n_range, n_range + 1)
    x = ns + args.xi
    columns = (ns.tolist(), x.tolist(), dispersion.omega(params, c0, x).tolist(),
               dispersion.krein_signature(params, c0, x).tolist())
    modes = [{"n": n, "x": xn, "omega": w, "krein": kappa}
             for n, xn, w, kappa in zip(*columns)]
    rows = [("n", "x", "omega", "krein")]
    rows += [(n, _fmt(xn), _fmt(w), kappa) for n, xn, w, kappa in zip(*columns)]
    return {"c0": c0, "modes": modes}, rows


def _cmd_collisions(args):
    """colliding mode pairs and origin collisions"""
    n_range = _n_range(args)
    beta, gamma = _coefficients(args)
    pairs = dispersion.enumerate_collision_pairs(beta, args.dn_max, n_range)
    if args.opposite_krein:
        pairs = [p for p in pairs if p.opposite_krein]
    origin = dispersion.origin_collisions(beta, gamma, n_range)
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
    wave = _ordered_wave(params, args.a)
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
    wave = _ordered_wave(params, args.a)
    cfg = hill.TruncationConfig(N=args.N, xi_grid=args.xi_grid)
    if args.xi is not None:
        sl = hill.spectrum_slice(wave, args.a, args.xi, cfg)
        ev = sl.eigenvalues
        eigenvalues = np.column_stack((ev.real, ev.imag)).tolist()
        results = {
            "xi": sl.xi, "max_real_part": sl.max_real_part, "paired": sl.paired,
            "growth_clusters": [{"modes": list(c.modes), "boundary": c.boundary}
                                for c in sl.growth_clusters],
            "eigenvalues": eigenvalues,
        }
        rows = [("re", "im")]
        rows += [(_fmt(re), _fmt(im)) for re, im in eigenvalues]
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
    tables = _FIGURES[args.which](args)
    # every value is checked before the first file is written
    for name, (_, values, keep, _) in tables.items():
        if not np.isfinite(values[keep]).all():
            raise DomainError(f"non-finite value in {name}")
    for name, table in tables.items():
        _write_csv(outdir / name, _csv_comment(args), *table)
    return {"files": [str(outdir / name) for name in tables]}, None


# ---------------------------------------------------------------------------
# figure-data emitters: each returns {file name: (header, values, keep,
# text)}, where values holds one (x, y) row per grid point, keep marks the
# rows written (the others are blank rows) and text holds the two columns
# already formatted, or is None

def _csv_comment(args) -> str:
    vals = [("beta", args.beta), ("gamma", args.gamma), ("k", args.k),
            ("a", args.a), ("N", args.N)]
    return "# " + " ".join(f"{name}={_fmt(v) if v is not None else ''}"
                           for name, v in vals)


def _write_csv(path: Path, comment: str, header, values, keep, text=None) -> None:
    """Write a comment line, the header and one row per point of values.

    The bytes are those of csv.writer on rows (x, y), or () where keep is
    false: floats by repr, as _fmt writes them, and CRLF line ends.  text
    is the two columns as repr strings; without it the kept rows of values
    are formatted here, column by column, and a blank row costs nothing.
    """
    kept = keep.tolist()
    if text is None:
        xs, ys = [iter(_repr_column(column)) for column in values[keep].T]
        body = "".join([f"{next(xs)},{next(ys)}\r\n" if k else "\r\n"
                        for k in kept])
    else:
        body = "".join([f"{x},{y}\r\n" if k else "\r\n"
                        for x, y, k in zip(*text, kept)])
    # created only once the inputs have passed validation
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(f"{comment}\n{','.join(header)}\r\n{body}")
    except OSError as exc:
        raise OutputError(path, exc) from exc


def _repr_column(values) -> list[str]:
    """The repr of each float of a 1-d array."""
    return list(map(float.__repr__, values.tolist()))


def _mirror_text(values) -> list[str]:
    """_repr_column(values), formatting each pair of mirror points once.

    The left half, centre included, is formatted.  A point of the right
    half reuses the text of its mirror point where the two have the same
    bits, and is formatted itself where they do not: the result is right
    for any values, and cheapest for an array that reads the same
    reversed.
    """
    n = values.size
    h = (n + 1) // 2
    text = _repr_column(values[:h])
    right = text[:n - h][::-1]
    bits = values.view(np.int64)
    diff = np.flatnonzero(bits[h:] != bits[:n - h][::-1])
    for j, t in zip(diff.tolist(), _repr_column(values[h:][diff])):
        right[j] = t
    return text + right


def _k_rows(x, k4):
    """Rows (x, k) with k = k4**(1/4), kept where k4 > 0.

    The quarter power is taken per value on Python floats (libm pow), so
    the digits do not depend on how numpy's array power is built.
    """
    keep = k4 > 0
    k = np.full(k4.shape, np.nan)
    k[keep] = [v ** 0.25 for v in k4[keep].tolist()]
    return np.column_stack((x, k)), keep


def _emit_k_curves(args) -> dict:
    # the grid of dn is x = i/256, i in [-256*(dn+2), 512]: a tail of the
    # dn = 4 grid with the same bits, so one array and its text serve all
    x4 = np.arange(-256 * 6, 256 * 2 + 1) / 256.0
    x4_text = _repr_column(x4)
    tables = {}
    for dn in (1, 2, 3, 4):
        start = 256 * (4 - dn)
        xs = x4[start:]
        # symmetric about x = -dn/2, where x*(x+dn) and (x+dn/2)^2, and so
        # the kernel, round alike: the right half repeats the left's text
        K = dispersion.collision_K(xs, dn)
        tables[f"k_curves_dn{dn}.csv"] = (
            ("x", "K"), np.column_stack((xs, K)), ~np.isnan(K),
            (x4_text[start:], _mirror_text(K)))
    return tables


def _emit_collision_ranges(args) -> dict:
    _require(args, "beta", "gamma", "n", "m")
    beta, gamma = _coefficients(args)
    if args.n == args.m:
        raise DomainError("need two distinct modes")
    n, m = min(args.n, args.m), max(args.n, args.m)
    xi = np.arange(-1023, 1025) / 2048.0
    x = n + xi
    # xi = 0 is left out of the Floquet family: a blank row
    k4 = np.where(xi == 0, np.nan, dispersion._collision_k4(beta, gamma, x, m - n))
    return {f"collision_ranges_n{n}_m{m}.csv": (("x", "k"), *_k_rows(x, k4), None)}


def _emit_collision_contour(args) -> dict:
    beta, gamma = _coefficients(args)
    if beta <= 0:
        raise DomainError("collision contour requires beta > 0")
    # the {-1, 0} collision wavenumber of each grid xi
    xi = hill.default_xi_grid(args.xi_grid)
    x = -1 + xi
    k4 = dispersion._collision_k4(beta, gamma, x, 1)
    pole = np.isnan(k4)
    if pole.any():
        raise Singularity(f"collision kernel pole at x={x[pole].tolist()[0]!r}, dn=1")
    return {"collision_contour.csv": (("xi", "k"), *_k_rows(xi, k4), None)}


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
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # argparse takes "-1e-07" or "-inf" for an option, since its own
        # pattern knows only "-1" and "-1.5"; no option here looks like a
        # number, so every negative float literal is a value
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)

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
                        help="mode index window |n| <= n_range, "
                             f"0..{hill.MAX_N_RANGE} (default %(default)s)")
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


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: parsing leaves it as
    it was."""
    return build_parser()


def run(args: argparse.Namespace) -> tuple[str, str]:
    """Execute one command; returns (serialized envelope, output path or '').

    Raises DomainError for a non-finite float flag, before any work, and
    for a non-finite float anywhere in the results, before anything is
    written: the results are checked in the one pass that serializes the
    envelope, or, for CSV, before the first row.  Floating-point warnings
    are not raised or printed: an overflow or an invalid operation shows
    as a non-finite result.
    """
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"--{name.replace('_', '-')} must be finite, "
                              f"got {value!r}")
    t0 = time.perf_counter()
    with np.errstate(all="ignore"):
        results, rows = _HANDLERS[args.command](args)
    wall = time.perf_counter() - t0
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
        _dumps(results)  # every result is checked before a row is written
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, out = run(args)
        if out:
            try:
                Path(out).write_text(payload)
            except OSError as exc:
                raise OutputError(out, exc) from exc
    except OutputError as exc:
        print(f"ostro-stab: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
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
    if not out:
        sys.stdout.write(payload)
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
