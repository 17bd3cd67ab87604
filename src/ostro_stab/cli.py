"""Command-line front end.

One subcommand per analysis stage (wave, dispersion, collisions, krein,
reduced, spectrum, sweep, threshold, figures).  Every run emits a
result envelope (JSON or CSV) echoing the inputs, with the wall time as
its only diagnostic, so results are reproducible byte for byte up to
that field.

Exit codes: 0 success, 2 domain error (resonant wavenumber, xi out of
range, below-threshold query, non-finite input or result, overflow, ...),
1 internal failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import dispersion, hill, reduced, stokes
from .errors import DomainError, Singularity

SCHEMA_VERSION = "1"

USAGE_EXIT = 64
DOMAIN_EXIT = 2
INTERNAL_EXIT = 1

# Largest number of points of a sweep along k or a.
MAX_SWEEP = 1000

_encode_str = json.encoder.encode_basestring_ascii


def _dumps(obj) -> str:
    """The text of json.dumps(obj, indent=2), written in one pass, with
    every float checked.

    obj holds plain Python values only: dicts with string keys, lists,
    tuples, strings, ints, floats, bools and None.  Any other value,
    a numpy scalar, an ndarray or a complex number, raises TypeError,
    and a non-finite float anywhere raises DomainError.
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
        raise TypeError(f"{t.__name__} is not JSON serializable")


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
    """The Stokes wave of params, refused up front, by
    stokes.harmonic_amplitudes, where its expansion is not ordered at
    amplitude a: a sweep checks every point before its first sweep."""
    wave = stokes.stokes_coefficients(params)
    stokes.harmonic_amplitudes(wave, a)
    return wave


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
        # refuses an unordered expansion, or an overflowing power of a,
        # before eval_speed takes the same powers
        stokes.harmonic_amplitudes(wave, args.a)
        results["speed"] = stokes.eval_speed(wave, args.a)
        results["residual_l2"] = stokes.residual_F(wave, args.a)
    rows = [("coefficient", "value")] + list(results.items())
    return results, rows


def _cmd_dispersion(args):
    """Bloch frequencies and Krein signatures at one xi"""
    n_range = stokes._check_count("--n-range", args.n_range, 0, dispersion.MAX_N_RANGE)
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
    rows += list(zip(*columns))
    return {"c0": c0, "modes": modes}, rows


def _cmd_collisions(args):
    """colliding mode pairs and origin collisions"""
    # checked here as well, under the flag's name, before the library runs
    n_range = stokes._check_count("--n-range", args.n_range, 0, dispersion.MAX_N_RANGE)
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
    rows += [(e["n"], e["m"], e["xi0"], e["omega"],
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
            "B_imag": pencil.M.tolist(),
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
    rows += [(e["xi0"], e["omega"], e["discriminant"], e["growth_rate"],
              e["unstable"]) for e in out]
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
        # 2N+1 rows of text that only --format csv writes
        rows = [("re", "im")] + eigenvalues if args.format == "csv" else None
        return results, rows
    xi_star, growth, sl = hill.max_growth(wave, args.a, cfg)
    # a certified maximiser is not solved; its solve would be paired
    results = {"xi_star": xi_star, "growth": growth, "paired": sl is None or sl.paired}
    rows = [("xi_star", "growth"), (xi_star, growth)]
    return results, rows


def _cmd_sweep(args):
    """xi sweeps along --k or --a, whichever is left out"""
    _require(args, "beta", "gamma", "lo", "hi", "num")
    if (args.k is None) == (args.a is None):
        raise UsageError("sweep: give one of --k, --a; the other is swept")
    stokes._check_count("--num", args.num, 1, MAX_SWEEP)
    if not 0 < args.lo < args.hi:
        raise DomainError(f"need 0 < --lo < --hi, got {args.lo!r}, {args.hi!r}")
    cfg = hill.TruncationConfig(N=args.N, xi_grid=args.xi_grid)
    if args.a is None:
        points = [(args.k, a) for a in
                  np.geomspace(args.lo, args.hi, args.num).tolist()]
    else:
        points = [(k, args.a) for k in
                  np.linspace(args.lo, args.hi, args.num).tolist()]
    # every point is checked, and its {-1,0} rate predicted, before the
    # first sweep; the rate is 0.0 where the pair does not collide
    checked = []
    for k, a in points:
        wave = _ordered_wave(stokes.PhysicalParams(args.beta, args.gamma, k), a)
        xis = dispersion.collision_xi(wave.params, -1, 0)
        checked.append((wave, reduced.predicted_growth_rate(wave, -1, xis[0], a)
                        if xis else 0.0))
    out = []
    for (k, a), (wave, predicted) in zip(points, checked):
        xi_star, growth, _ = hill.max_growth(wave, a, cfg)
        out.append({"k": k, "a": a, "xi_star": xi_star, "growth": growth,
                    "predicted": predicted})
    rows = [("k", "a", "xi_star", "growth", "predicted")]
    rows += [tuple(p.values()) for p in out]
    return {"points": out}, rows


def _cmd_threshold(args):
    """instability threshold wavenumber (beta > 0)"""
    _require(args, "beta", "gamma")
    k_min = reduced.instability_threshold_dn1(args.beta, args.gamma)
    return {"k_min": k_min}, [("k_min",), (k_min,)]


def _cmd_figures(args):
    """CSV data for the kernel/collision figures"""
    _require(args, "which")
    outdir = Path(args.out) if args.out else Path(".")
    tables = _FIGURES[args.which](args)
    # every value is checked before the first file is written
    for name, (_, values, keep, _) in tables.items():
        if not np.isfinite(values[keep]).all():
            raise DomainError(f"non-finite value in {name}")
    for name, (header, _, _, rows) in tables.items():
        _write_csv(outdir / name, _csv_comment(args), header, rows)
    return {"files": [str(outdir / name) for name in tables]}, None


# ---------------------------------------------------------------------------
# figure-data emitters: each returns {file name: (header, values, keep,
# rows)}, where values holds one (x, y) row per grid point, keep marks the
# rows written (the others are blank rows) and rows holds each row's text,
# "x,y" or "" for a blank row

def _csv_comment(args) -> str:
    vals = [("beta", args.beta), ("gamma", args.gamma), ("k", args.k),
            ("a", args.a), ("N", args.N)]
    return "# " + " ".join(f"{name}={'' if v is None else v}" for name, v in vals)


def _write_csv(path: Path, comment: str, header, rows) -> None:
    """Write a comment line, the header and the rows' text.

    The bytes are those of csv.writer on rows (x, y), or () for a blank
    row: floats by repr, which is their str, and CRLF line ends.
    """
    # each row, the last too, ends in CRLF; no rows, no body
    body = "\r\n".join([*rows, ""])
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
    """Rows (x, k) with k = k4**(1/4), kept where k4 > 0, and their text,
    formatted in the kept rows only.

    The quarter power is taken per value on Python floats (libm pow), so
    the digits do not depend on how numpy's array power is built.
    """
    keep = k4 > 0
    k = np.full(k4.shape, np.nan)
    k[keep] = [v ** 0.25 for v in k4[keep].tolist()]
    rows = [""] * k.size
    for i, x_text, k_text in zip(np.flatnonzero(keep).tolist(),
                                 _repr_column(x[keep]), _repr_column(k[keep])):
        rows[i] = f"{x_text},{k_text}"
    return np.column_stack((x, k)), keep, rows


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
        keep = ~np.isnan(K)
        rows = [f"{x},{k}" if kept else "" for x, k, kept in
                zip(x4_text[start:], _mirror_text(K), keep.tolist())]
        tables[f"k_curves_dn{dn}.csv"] = (("x", "K"), np.column_stack((xs, K)), keep, rows)
    return tables


def _emit_collision_ranges(args) -> dict:
    _require(args, "beta", "gamma", "n", "m")
    beta, gamma = _coefficients(args)
    if args.n == args.m:
        raise DomainError("need two distinct modes")
    # past it the grid n + xi loses the xi that tells its rows apart
    for flag, mode in (("--n", args.n), ("--m", args.m)):
        stokes._check_count(flag, mode, -dispersion.MAX_N_RANGE, dispersion.MAX_N_RANGE)
    n, m = min(args.n, args.m), max(args.n, args.m)
    xi = np.arange(-1023, 1025) / 2048.0
    x = n + xi
    # xi = 0 is left out of the Floquet family: a blank row
    k4 = np.where(xi == 0, np.nan, dispersion._collision_k4(beta, gamma, x, m - n))
    return {f"collision_ranges_n{n}_m{m}.csv": (("x", "k"), *_k_rows(x, k4))}


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
    return {"collision_contour.csv": (("xi", "k"), *_k_rows(xi, k4))}


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
    "sweep": _cmd_sweep,
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
                             f"0..{dispersion.MAX_N_RANGE} (default %(default)s)")
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
    # --which and the sweep range last, so that the echoed inputs keep
    # their key order
    parser.add_argument("--which", choices=_FIGURES,
                        help="figure data set to emit (figures command)")
    parser.add_argument("--lo", type=float,
                        help="sweep: first value of the swept --k or --a")
    parser.add_argument("--hi", type=float,
                        help="sweep: last value of the swept --k or --a")
    parser.add_argument("--num", type=int,
                        help="sweep: number of points, k evenly spaced, a "
                             f"geometrically, 1..{MAX_SWEEP}")
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
    if args.format == "csv" and rows:
        _dumps(results)  # every result is checked before a row is written
        payload = _csv_comment(args) + "\n" + "".join(
            [",".join(map(str, row)) + "\r\n" for row in rows])
    else:
        payload = _dumps({
            "schema_version": SCHEMA_VERSION, "command": args.command,
            "inputs": vars(args), "results": results,
            "diagnostics": {"wall_time_s": wall},
        }) + "\n"
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
