import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostro_stab import (
    PhysicalParams,
    TruncationConfig,
    cli,
    dispersion,
    hill,
    max_growth,
    stokes,
    stokes_coefficients,
)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def read_csv(path):
    with open(path) as fh:
        comment = fh.readline()
        rows = list(csv.reader(fh))
    return comment, rows


def forbid_hill_work(monkeypatch, message):
    """Make every Hill-layer step that seeds, certifies or solves a slice
    fail the test with ``message``."""
    def no_work(*args, **kwargs):
        raise AssertionError(message)
    for name in ("spectrum_slice", "eigenvalues", "_solve_window", "_on_axis",
                 "_bubble_seeds"):
        monkeypatch.setattr(hill, name, no_work)


class TestExitCodes:
    def test_threshold_ok(self, capsys):
        code, doc = run_json(capsys, ["threshold", "--beta", "1", "--gamma", "6"])
        assert code == 0
        assert doc["results"]["k_min"] == pytest.approx(2.2133638394006434,
                                                        rel=1e-12)

    @pytest.mark.parametrize("argv, message", [
        # 3*gamma - 12*beta*k^4 zero to rounding, and exactly zero
        ("wave --beta 1 --gamma 1 --k 0.7071067811865476", "at the n=2 harmonic"),
        ("wave --beta 1 --gamma 4 --k 1", "at the n=2 harmonic"),
        # 1e-8 off the resonance the coefficients are finite, and the
        # ordering rule refuses the amplitude
        ("wave --beta 1 --gamma 1 --k 0.70710678 --a 0.01", "expansion not ordered"),
    ])
    def test_resonant_wavenumber_domain_error(self, argv, message, capsys):
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ostro-stab: domain error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        # k near resonances n >= 5, which the expansion does not divide by
        "dispersion --beta 1 --gamma 1 --k 0.2 --xi 0.3",
        "krein --beta 1 --gamma 1 --k 0.2 --n -1 --m 0",
        # a long wave, taken at beta > 0 as it is at beta = -1
        "spectrum --beta 1 --gamma 1 --k 0.0015 --a 0.01",
        # beta*k^4 underflows to 0: the collision quadratic is linear
        "krein --beta 1 --gamma 1 --k 1e-100 --n -1 --m 0",
    ])
    def test_off_resonance_wavenumber_runs(self, argv, capsys):
        assert cli.main(argv.split()) == 0
        assert capsys.readouterr().err == ""

    def test_threshold_wrong_sign_domain_error(self):
        assert cli.main(["threshold", "--beta", "-1", "--gamma", "1"]) == 2

    def test_reduced_below_threshold_domain_error(self):
        assert cli.main(["reduced", "--beta", "1", "--gamma", "1", "--k", "1.2",
                         "--n", "-1", "--m", "0", "--a", "0.01"]) == 2

    def test_unknown_command_usage_error(self):
        assert cli.main(["frobnicate"]) == 64

    def test_missing_flags_usage_error(self):
        assert cli.main(["threshold", "--beta", "1"]) == 64

    def test_xi_zero_domain_error(self):
        assert cli.main(["spectrum", "--beta", "1", "--gamma", "1", "--k", "1.3",
                         "--a", "0.01", "--xi", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        "dispersion --beta 1 --gamma 1 --k 1 --xi 0",
        "dispersion --beta 1 --gamma 1 --k 1 --xi 0.75",
        "reduced --beta 1 --gamma 1 --k 1.6 --n -1 --m 0 --a 0.01 --xi 0.6",
    ])
    def test_xi_outside_floquet_domain(self, argv, capsys):
        assert cli.main(argv.split()) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        "threshold --beta nan --gamma 1",
        "threshold --beta 1 --gamma nan",
        "threshold --beta inf --gamma 1",
        "wave --beta nan --gamma 1 --k 1.6",
        "wave --beta inf --gamma 1 --k 1.6",
        "wave --beta 1 --gamma 1 --k 1.6 --a nan",
        "collisions --beta 1 --gamma nan",
        "collisions --beta nan --gamma 1",
        "figures --which collision_ranges --beta nan --gamma 1 --n -1 --m 0",
        "figures --which K_curves --beta nan --gamma 1",
        # finite flags whose figure rows overflow to k = inf
        "figures --which collision_ranges --beta 1e-300 --gamma 1e300 --n -1 --m 0",
        "dispersion --beta 1 --gamma 1 --k 1 --xi nan",
        "reduced --beta 1 --gamma 1 --k 1.6 --n -1 --m 0 --a 0.01 --xi nan",
    ])
    def test_non_finite_input_domain_error(self, argv, capsys, tmp_path):
        argv = argv.split()
        if argv[0] == "figures":
            argv += ["--out", str(tmp_path / "figs")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, out", [
        ("threshold --beta 1 --gamma 1", "missing/x.json"),
        ("figures --which K_curves --beta 1 --gamma 1", "a_file"),
    ])
    def test_unwritable_out_usage_error(self, argv, out, capsys, tmp_path):
        # a missing directory, or a file where figures want a directory
        (tmp_path / "a_file").write_text("")
        assert cli.main(argv.split() + ["--out", str(tmp_path / out)]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ostro-stab: error: cannot write ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, a", [
        ("spectrum --beta 1 --gamma 1 --k 0.7075 --a 0.05", "0.05"),
        ("spectrum --beta 1 --gamma 1 --k 0.708 --a 0.05", "0.05"),
        ("reduced --beta 1 --gamma 1 --k 0.708 --n -1 --m 0 --a 0.05", "0.05"),
        ("wave --beta 1 --gamma 1 --k 0.708 --a 0.08", "0.08"),
    ])
    def test_unordered_expansion_domain_error(self, argv, a, capsys, monkeypatch):
        # next to the second-harmonic resonance k = 2^(-1/2) the harmonic W2
        # outgrows a = W1: refused before any slice is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a slice of an unordered expansion")
        monkeypatch.setattr(hill, "spectrum_slice", no_solve)
        monkeypatch.setattr(hill, "max_growth", no_solve)
        assert cli.main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"ostro-stab: domain error: expansion not ordered at a={a}")
        assert captured.err.count("\n") == 1

    def test_ordered_expansion_near_resonance_runs(self, capsys):
        code, doc = run_json(capsys, ["spectrum", "--beta", "1", "--gamma", "1",
                                      "--k", "0.708", "--a", "0.005"])
        assert code == 0
        assert doc["results"]["growth"] == 0.0

    def test_overflowing_amplitude_domain_error(self, capsys):
        # a**4 overflows in eval_speed as in the harmonics: the harmonics,
        # checked first, name the power
        assert cli.main(["wave", "--beta", "1", "--gamma", "1", "--k", "1",
                         "--a", "1e100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("ostro-stab: domain error: expansion not "
                                "evaluable at a=1e+100: a**4 overflows\n")

    @pytest.mark.parametrize("value", ["-1e-07", "-1E+2", "-.5", "-inf"])
    def test_negative_value_separate_argument(self, value, capsys):
        # "--beta -1e-07" reaches the program exactly as "--beta=-1e-07"
        spaced = cli.main(["threshold", "--beta", value, "--gamma", "1"])
        spaced_err = capsys.readouterr().err
        joined = cli.main(["threshold", f"--beta={value}", "--gamma", "1"])
        assert spaced == joined == 2
        assert spaced_err == capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "wave --beta 1 --gamma 1 --k 1e100 --a 0.01",
        "wave --beta -1 --gamma 1e300 --k 1e-10 --a 0.01",
        "krein --beta 1 --gamma 1 --k 1e100 --n -1 --m 0",
        "threshold --beta 1e-320 --gamma 1",
        "dispersion --beta 1e300 --gamma 1 --k 1e10 --xi 0.3",
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_or_non_finite_result_domain_error(self, argv, fmt, capsys):
        # finite flags whose results overflow: exit 2 before any output
        assert cli.main(argv.split() + ["--format", fmt]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_prints_no_numpy_warning(self, capsys):
        # beta*k^4*j^4 overflows in the residual's harmonic j = 2: one
        # error line, no numpy warning, also where warnings are errors
        # (-W error::RuntimeWarning)
        argv = ["wave", "--beta=-1e200", "--gamma=1.0", "--k=1e27", "--a=0.0625"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("ostro-stab: domain error: non-finite result")

    @pytest.mark.parametrize("argv", [
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --N 5000",
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --N 5000 --xi 0.3",
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --xi-grid 0",
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --xi-grid 1048577",
        # (2N+1)*ceil(xi_grid/64) past hill.MAX_HULL_ENTRIES
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --N 2000 --xi-grid 1048576",
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --N 128 --xi-grid 1048576",
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --N 4999 --xi-grid 65536",
        "sweep --beta 1 --gamma 1 --a 0.01 --lo 1.2 --hi 1.6 --num 2 --N 128 "
        "--xi-grid 1048576",
        "figures --which collision_contour --beta 1 --gamma 6 --xi-grid 0",
        f"sweep --beta 1 --gamma 1 --a 0.01 --lo 1.2 --hi 1.6 --num {cli.MAX_SWEEP + 1}",
        "figures --which collision_ranges --beta 1 --gamma 1 "
        f"--n {dispersion.MAX_N_RANGE + 1} --m 0",
    ])
    def test_size_bounds_domain_error(self, argv, capsys, tmp_path, monkeypatch):
        # the guards must fire before any slice is seeded, certified or
        # solved; a sweep's hull-entry guard is checked inside max_growth
        forbid_hill_work(monkeypatch, "solved a slice past the size guard")
        argv = argv.split()
        if argv[0] == "figures":
            argv += ["--out", str(tmp_path / "figs")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n_range", [-1, dispersion.MAX_N_RANGE + 1])
    @pytest.mark.parametrize("argv", [
        "dispersion --beta 1 --gamma 1 --k 1.6 --xi 0.3",
        "collisions --beta 1 --gamma 1",
    ])
    def test_n_range_bounds_domain_error(self, argv, n_range, capsys,
                                         monkeypatch):
        # the guard fires before any mode is evaluated
        def no_work(*args, **kwargs):
            raise AssertionError("evaluated modes past the --n-range guard")
        for name in ("omega", "enumerate_collision_pairs", "origin_collisions"):
            monkeypatch.setattr(dispersion, name, no_work)
        assert cli.main(argv.split() + ["--n-range", str(n_range)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--n-range {n_range} not in [0, {dispersion.MAX_N_RANGE}]" in captured.err

    def test_hull_entries_ceiling_runs(self, capsys, monkeypatch):
        # N = 32 on the largest grid passes max_growth's guard (its
        # certificate is stubbed to certify every slice: the pass takes
        # seconds), and N = 4999 sweeps the default grid
        monkeypatch.setattr(hill, "_on_axis", lambda wave, a, xis, N: [()] * xis.size)
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.6", "--a", "0.01",
            "--N", "32", "--xi-grid", str(hill.MAX_XI_GRID)])
        assert code == 0
        assert doc["inputs"]["xi_grid"] == hill.MAX_XI_GRID
        monkeypatch.undo()
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.6", "--a", "0.01",
            "--N", "4999"])
        assert code == 0
        assert doc["results"]["growth"] > 0
        # a single slice builds no grid, so the sweep's bound does not apply
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.6", "--a", "0.01",
            "--xi", "0.3", "--N", "128", "--xi-grid", str(hill.MAX_XI_GRID)])
        assert code == 0
        assert len(doc["results"]["eigenvalues"]) == 257

    def test_n_range_ceiling_runs(self, capsys):
        n_range = str(dispersion.MAX_N_RANGE)
        code, doc = run_json(capsys, [
            "dispersion", "--beta", "1", "--gamma", "1", "--k", "1.6",
            "--xi", "0.3", "--n-range", n_range])
        assert code == 0
        assert len(doc["results"]["modes"]) == 2 * dispersion.MAX_N_RANGE + 1
        code, doc = run_json(capsys, [
            "collisions", "--beta", "1", "--gamma", "1", "--n-range", n_range])
        assert code == 0
        assert len(doc["results"]["origin"]) == 2 * dispersion.MAX_N_RANGE + 1

    @pytest.mark.parametrize("argv, code", [
        # the swept variable is the one of --k, --a left out
        ("--k 1.6 --a 0.01 --lo 1.2 --hi 2.4 --num 3", 64),
        ("--lo 1.2 --hi 2.4 --num 3", 64),
        ("--a 0.01 --lo 1.2 --hi 2.4", 64),
        ("--a 0.01 --lo 1.2 --num 3", 64),
        ("--a 0.01 --lo 1.2 --hi 2.4 --num 0", 2),
        ("--a 0.01 --lo 1.2 --hi 2.4 --num -3", 2),
        (f"--a 0.01 --lo 1.2 --hi 2.4 --num {cli.MAX_SWEEP + 1}", 2),
        ("--a 0.01 --lo 2.4 --hi 1.2 --num 3", 2),
        ("--a 0.01 --lo 1.2 --hi 1.2 --num 3", 2),
        ("--k 1.6 --lo 0 --hi 0.04 --num 3", 2),
        ("--k 1.6 --lo -0.01 --hi 0.04 --num 3", 2),
        ("--a nan --lo 1.2 --hi 2.4 --num 3", 2),
        ("--a 0.01 --lo 1.2 --hi inf --num 3", 2),
        # k = 0.5 = (1/16)^(1/4), the n = 4 resonance, mid-range
        ("--a 0.005 --lo 0.4 --hi 0.6 --num 3", 2),
        # the last point's expansion is not ordered: next to a resonance,
        # and far from any at an amplitude so large that W3 outgrows a
        ("--k 0.708 --lo 0.001 --hi 0.05 --num 4", 2),
        ("--k 1.6 --lo 0.01 --hi 20 --num 3", 2),
        ("--a 0.01 --lo 1.2 --hi 2.4 --num 3 --N 5000", 2),
        ("--a 0.01 --lo 1.2 --hi 2.4 --num 3 --N 2000 --xi-grid 1048576", 2),
    ])
    def test_sweep_refused_before_any_sweep(self, argv, code, capsys,
                                            monkeypatch):
        # max_growth itself refuses a sweep past the hull-entry guard, so
        # the spies sit on the work a sweep does
        forbid_hill_work(monkeypatch, "swept before every point was checked")
        assert cli.main(["sweep", "--beta", "1", "--gamma", "1",
                         *argv.split()]) == code
        assert capsys.readouterr().out == ""

    def test_sweep_past_a_0_1_runs(self, capsys):
        # no bound on the bare amplitude: a = 0.2 is ordered at k = 1.6
        code, doc = run_json(capsys, [
            "sweep", "--beta", "1", "--gamma", "1", "--k", "1.6", "--lo", "0.01",
            "--hi", "0.2", "--num", "3"])
        assert code == 0
        assert [p["a"] for p in doc["results"]["points"]][::2] == [0.01, 0.2]

    def test_sweep_num_ceiling_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(hill, "max_growth", lambda wave, a, cfg: (0.25, 0.0, None))
        code, doc = run_json(capsys, [
            "sweep", "--beta", "1", "--gamma", "1", "--a", "0.01", "--lo", "1.2",
            "--hi", "2.4", "--num", str(cli.MAX_SWEEP)])
        assert code == 0
        assert len(doc["results"]["points"]) == cli.MAX_SWEEP

    def test_slice_builds_no_xi_grid(self, capsys, monkeypatch):
        def no_grid(num):
            raise AssertionError(f"built a {num}-point xi grid for one slice")
        monkeypatch.setattr(hill, "default_xi_grid", no_grid)
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.6",
            "--a", "0.01", "--xi", "0.3", "--N", "8", "--xi-grid", "1048576"])
        assert code == 0
        assert doc["inputs"]["xi_grid"] == 1048576

    @staticmethod
    def _run(*args):
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, timeout=60)

    def _run_module(self, module):
        proc = self._run("-m", module, "threshold", "--beta", "1", "--gamma", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["k_min"] == \
            pytest.approx(2**0.5, rel=1e-12)

    def test_python_dash_m(self):
        self._run_module("ostro_stab")

    def test_python_dash_m_cli_module(self):
        self._run_module("ostro_stab.cli")

    def test_cli_loads_no_scipy(self):
        # the command line needs only numpy: a fresh interpreter that
        # imports the CLI and runs a command has loaded no scipy module
        proc = self._run("-c", "\n".join([
            "import json, sys",
            "from ostro_stab.cli import main",
            "rc = main(['threshold', '--beta', '1', '--gamma', '1'])",
            "print(json.dumps(sorted(m for m in sys.modules",
            "                        if m.partition('.')[0] == 'scipy')))",
            "sys.exit(rc)",
        ]))
        assert proc.returncode == 0, proc.stderr
        *envelope, loaded = proc.stdout.strip().splitlines()
        assert json.loads("\n".join(envelope))["results"]["k_min"] == \
            pytest.approx(2**0.5, rel=1e-12)
        assert json.loads(loaded) == []


class TestEnvelope:
    def test_round_trip_and_schema(self, capsys):
        code, doc = run_json(capsys, ["wave", "--beta", "1", "--gamma", "1",
                                      "--k", "1", "--a", "0.05"])
        assert code == 0
        assert set(doc) == {"schema_version", "command", "inputs", "results",
                            "diagnostics"}
        assert doc["schema_version"] == cli.SCHEMA_VERSION == "1"
        assert doc["inputs"]["beta"] == 1.0
        assert doc["results"]["A2"] == pytest.approx(-2 / 9, rel=1e-15)
        assert doc["results"]["residual_l2"] < 1e-7
        # N and xi_grid are inputs, echoed there only; no module constant
        # is echoed
        assert set(doc["diagnostics"]) == {"wall_time_s"}
        assert doc["inputs"]["N"] == hill.TruncationConfig.N

    def test_determinism_modulo_wall_time(self, capsys):
        argv = ["collisions", "--beta", "-1", "--gamma", "1",
                "--dn-max", "4", "--n-range", "6"]
        _, doc1 = run_json(capsys, argv)
        _, doc2 = run_json(capsys, argv)
        doc1["diagnostics"].pop("wall_time_s")
        doc2["diagnostics"].pop("wall_time_s")
        assert json.dumps(doc1, indent=2) == json.dumps(doc2, indent=2)


def _leaf_pairs():
    """(value, the plain value json.dumps writes for it) for every leaf
    the serializer takes: the JSON scalars of Python."""
    floats = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from((-0.0, 5e-324, 1e-5, 1e16, 1e22, -1.7976931348623157e308)))
    return st.one_of(
        st.text().map(lambda v: (v, v)),
        st.sampled_from(('"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600"))
        .map(lambda v: (v, v)),
        st.integers().map(lambda v: (v, v)),
        st.booleans().map(lambda v: (v, v)),
        st.none().map(lambda v: (v, v)),
        floats.map(lambda v: (v, v)),
    )


def _envelope_pairs():
    """(value, plain reference) for nested dicts, lists and tuples."""
    def containers(children):
        return st.one_of(
            st.lists(children, max_size=5).map(
                lambda v: ([o for o, _ in v], [r for _, r in v])),
            st.lists(children, max_size=5).map(
                lambda v: (tuple(o for o, _ in v), [r for _, r in v])),
            st.dictionaries(st.text(max_size=8), children, max_size=5).map(
                lambda d: ({k: o for k, (o, _) in d.items()},
                           {k: r for k, (_, r) in d.items()})),
        )
    return st.recursive(_leaf_pairs(), containers, max_leaves=30)


# where a bad leaf sits in the envelope, and the ids of those places
_PLACES = [
    lambda v: v,
    lambda v: {"results": {"pencils": [{"shifts": [[0.0, 1.0], v]}]}},
    lambda v: [1, "x", (2.5, [v])],
    lambda v: {"a": None, "b": True, "c": {"d": ("e", v)}},
]
_PLACE_IDS = ["top", "dict-list", "list-tuple", "deep-dict"]


class TestSerializer:
    """cli._dumps writes the bytes of json.dumps(..., indent=2) in one
    pass, refuses every non-finite float, and takes no value json.dumps
    does not take."""

    @settings(max_examples=300, deadline=None)
    @given(pair=_envelope_pairs())
    @example(pair=({}, {}))
    @example(pair=(([], {"": ()}), [[], {"": []}]))
    def test_bytes_of_json_dumps(self, pair):
        obj, reference = pair
        assert cli._dumps(obj) == json.dumps(reference, indent=2)

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -float("inf"),
    ], ids=repr)
    @pytest.mark.parametrize("place", _PLACES, ids=_PLACE_IDS)
    def test_non_finite_domain_error(self, bad, place):
        with pytest.raises(cli.DomainError, match="non-finite result"):
            cli._dumps(place(bad))

    @pytest.mark.parametrize("bad", [
        np.float64("nan"), np.float32("inf"), complex(0.0, float("inf")),
        np.complex128(complex(float("nan"), 1.0)),
        np.array([1.0, float("inf")]), np.array([[0.0, 1.0], [float("nan"), 2.0]]),
        np.array([1 + 1j, complex(1.0, float("nan"))]),
        np.float64(0.5), np.bool_(True), np.int64(3), 1 + 2j, np.array([1.0]),
    ], ids=repr)
    @pytest.mark.parametrize("place", _PLACES, ids=_PLACE_IDS)
    def test_numpy_and_complex_type_error(self, bad, place):
        # the writer takes only what json.dumps takes: a numpy value or a
        # complex number, finite or not, is a TypeError, not a result
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._dumps(place(bad))

    def test_non_json_types_type_error(self):
        with pytest.raises(TypeError):
            cli._dumps({1: 2.0})
        with pytest.raises(TypeError):
            cli._dumps([object()])

    @pytest.mark.parametrize("argv", [
        "wave --beta 1 --gamma 1 --k 1.6 --a 0.01",
        "threshold --beta 1 --gamma 6",
        "collisions --beta -1 --gamma 1",
        "collisions --beta 1 --gamma 1 --opposite-krein",
        "dispersion --beta 1 --gamma 1 --k 1.4142135623730951 --xi 0.5",
        "krein --beta 1 --gamma 1 --k 1.6 --n -1 --m 0",
        "reduced --beta 1 --gamma 1 --k 1.6 --n -1 --m 0 --a 0.01",
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --xi 0.28 --N 8",
        "spectrum --beta 1 --gamma 1 --k 1.6 --a 0.01 --N 8 --xi-grid 16",
        "figures --which K_curves --beta 1 --gamma 1",
        "sweep --beta -1 --gamma 1 --a 0.01 --lo 0.6 --hi 1 --num 2 --N 8 --xi-grid 16",
    ])
    def test_every_command_round_trips(self, argv, capsys, tmp_path):
        argv = argv.split()
        if argv[0] == "figures":
            argv += ["--out", str(tmp_path)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert set(doc["diagnostics"]) == {"wall_time_s"}


class TestCommands:
    @pytest.mark.parametrize("flags, xi_star, growth", [
        # {-2,0}; the larger modulational bubble peaks below 1/1024
        ("--beta -1 --gamma 1 --k 2.0 --a 0.01", 0.0104715, 1.1687e-8),
        # the modulational bubble, below the grid's first point
        ("--beta 1 --gamma 2.51238 --k 1.19522 --a 0.00719485", 0.0012014, 1.2464e-5),
        # {-3,0}, a bubble far narrower than the grid's spacing
        ("--beta -1 --gamma 5.87039 --k 1.04514 --a 0.0155491", 0.148037, 1.7152e-10),
    ])
    def test_sweep_finds_each_bubble_at_its_peak(self, capsys, flags, xi_star, growth):
        code, doc = run_json(capsys, ["spectrum", *flags.split()])
        assert code == 0
        assert doc["results"]["xi_star"] == pytest.approx(xi_star, rel=1e-3)
        assert doc["results"]["growth"] == pytest.approx(growth, rel=1e-3)

    def test_collisions_table(self, capsys):
        code, doc = run_json(capsys, [
            "collisions", "--beta", "1", "--gamma", "1", "--dn-max", "4",
            "--n-range", "6", "--opposite-krein"])
        assert code == 0
        pairs = {(p["n"], p["m"]) for p in doc["results"]["pairs"]}
        assert pairs == {(-1, 0), (-2, 1), (-1, 2), (-3, 1), (-2, 2), (-1, 3)}
        origin = doc["results"]["origin"]
        assert any(e["n"] == 0 and e["k"] == pytest.approx(2**0.5)
                   for e in origin)
        # a window narrower than --dn-max lists the pairs that fit in it
        code, doc = run_json(capsys, [
            "collisions", "--beta", "1", "--gamma", "1", "--n-range", "2",
            "--opposite-krein"])
        assert code == 0
        pairs = {(p["n"], p["m"]) for p in doc["results"]["pairs"]}
        assert pairs == {(-1, 0), (-2, 1), (-1, 2), (-2, 2)}

    def test_collisions_csv(self, capsys):
        code = cli.main(["collisions", "--beta", "-1", "--gamma", "1",
                         "--dn-max", "2", "--n-range", "6",
                         "--opposite-krein", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# beta=-1.0")
        assert lines[1] == "n,m,dn,opposite_krein"
        assert lines[2:] == ["-2,0,2,True", "-1,1,2,True"]

    def test_krein_events(self, capsys):
        code, doc = run_json(capsys, ["krein", "--beta", "1", "--gamma", "1",
                                      "--k", "1.6", "--n", "-1", "--m", "0"])
        assert code == 0
        ev = doc["results"]["events"][0]
        assert ev["xi0"] == pytest.approx(0.2798306772509555, abs=1e-9)
        assert ev["opposite_krein"] is True
        assert ev["kappa_n"] * ev["kappa_m"] == -1

    def test_reduced_pencil(self, capsys):
        code, doc = run_json(capsys, [
            "reduced", "--beta", "1", "--gamma", "1", "--k", "1.6",
            "--n", "-1", "--m", "0", "--a", "0.01"])
        assert code == 0
        pen = doc["results"]["pencils"][0]
        assert pen["unstable"] is True
        assert pen["growth_rate"] == pytest.approx(pen["predicted_growth_rate"],
                                                   rel=1e-3)

    def test_reduced_pencil_unstable_at_tiny_amplitude(self, capsys):
        # the dn = 1 discriminant scales like a^2 (-5.3e-16 here): any
        # negative one is unstable, with growth at the leading-order rate
        code, doc = run_json(capsys, [
            "reduced", "--beta", "1", "--gamma", "1", "--k", "1.6",
            "--n", "-1", "--m", "0", "--a", "1e-8"])
        assert code == 0
        pen = doc["results"]["pencils"][0]
        assert pen["discriminant"] < 0 and pen["unstable"] is True
        assert pen["predicted_growth_rate"] == pytest.approx(pen["growth_rate"],
                                                             rel=1e-9)

    def test_spectrum_slice(self, capsys):
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.3",
            "--a", "0.01", "--xi", "0.25", "--N", "16"])
        assert code == 0
        r = doc["results"]
        assert r["paired"] is True
        assert len(r["eigenvalues"]) == 33
        assert r["max_real_part"] < 1e-8
        assert r["growth_clusters"] == []

    def test_spectrum_slice_solves_every_mode(self, capsys):
        # a --xi query solves all 2N+1 modes, not a window: at the {-1,0}
        # collision its eigenvalues are the full real solve's, sorted by
        # (imag, real), bit for bit
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.6",
            "--a", "0.01", "--xi", "0.27983", "--N", "32"])
        assert code == 0
        wave = stokes_coefficients(PhysicalParams(1, 1, 1.6))
        lam = 1j * np.linalg.eigvals(hill._assemble_real(wave, 0.01, 0.27983, 32))
        lam = lam[np.lexsort((lam.real, lam.imag))]
        assert doc["results"]["eigenvalues"] == np.column_stack(
            (lam.real, lam.imag)).tolist()
        assert len(lam) == 65 and doc["results"]["max_real_part"] > 0.01

    @pytest.mark.parametrize("boundary", [False, True])
    def test_spectrum_slice_names_growth_clusters(self, capsys, monkeypatch,
                                                  boundary):
        # {-1,0} at its collision: the growth counts, unless its cluster
        # held a boundary mode, as the patched certificate says here
        on_axis = hill._on_axis

        def flagged(wave, a, xis, N):
            return [tuple(c._replace(boundary=boundary) for c in cs)
                    for cs in on_axis(wave, a, xis, N)]

        monkeypatch.setattr(hill, "_on_axis", flagged)
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.6",
            "--a", "0.01", "--xi", "0.27983", "--N", "16"])
        assert code == 0
        r = doc["results"]
        assert r["growth_clusters"] == [{"modes": [-1, 0], "boundary": boundary}]
        assert (r["max_real_part"] > 0) != boundary
        assert max(re for re, _ in r["eigenvalues"]) > 0.01

    def test_spectrum_slice_names_sub_picoscale_growth(self, capsys):
        # a {-4,0} bubble peaks near 2.4e-13, at order a^4: its growth
        # counts and its open cluster is listed, however small
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "-1", "--gamma", "1.12795", "--k", "0.620027",
            "--a", "0.0143143", "--xi", "0.09050255045736069"])
        assert code == 0
        r = doc["results"]
        assert r["max_real_part"] == pytest.approx(2.4367e-13, rel=1e-3)
        assert r["growth_clusters"] == [{"modes": [-4, 0], "boundary": False}]

    def test_spectrum_slice_csv_cells_are_floats(self, capsys):
        # every CSV cell is a plain float literal, equal to the JSON eigenvalue
        argv = ["spectrum", "--beta", "1", "--gamma", "1", "--k", "1.3",
                "--a", "0.01", "--xi", "0.3", "--N", "8"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert cli.main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "re,im"
        cells = [row for row in csv.reader(lines[2:])]
        assert [[float(c) for c in row] for row in cells] == doc["results"]["eigenvalues"]
        assert all(float(c).__repr__() == c for row in cells for c in row)

    def test_csv_writes_floats_by_repr(self, capsys, monkeypatch):
        # a CSV cell that holds a float reads as the float's repr
        for v in (-0.0, 5e-324, 1 / 3, -220601.012883971):
            monkeypatch.setattr(cli.reduced, "instability_threshold_dn1",
                                lambda beta, gamma, v=v: v)
            assert cli.main(["threshold", "--beta", "1", "--gamma", "1",
                             "--format", "csv"]) == 0
            assert capsys.readouterr().out.splitlines()[1:] == ["k_min", repr(v)]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_numpy_result_is_internal_error(self, fmt, capsys, monkeypatch):
        # a handler that leaks an np.float64 is a bug: exit 1, nothing printed
        monkeypatch.setattr(cli.reduced, "instability_threshold_dn1",
                            lambda beta, gamma: np.float64(2**0.5))
        assert cli.main(["threshold", "--beta", "1", "--gamma", "1",
                         "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float64 is not JSON serializable" in captured.err

    def test_spectrum_sweeps_library_grid(self, capsys):
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.2",
            "--a", "0.01", "--N", "16", "--xi-grid", "64"])
        assert code == 0
        wave = stokes_coefficients(PhysicalParams(1, 1, 1.2))
        xi_star, growth, _ = max_growth(wave, 0.01,
                                        TruncationConfig(N=16, xi_grid=64))
        assert doc["results"].keys() == {"xi_star", "growth", "paired"}
        assert doc["results"]["xi_star"] == xi_star
        assert doc["results"]["growth"] == growth

    @pytest.mark.parametrize("argv, swept, ends", [
        ("--a 0.005 --lo 1.2 --hi 1.6", "k", [1.2, 1.6]),
        ("--k 1.6 --lo 0.0025 --hi 0.04", "a", [0.0025, 0.04]),
    ])
    def test_sweep_matches_leading_order(self, argv, swept, ends, capsys):
        # each point is max_growth at its (k, a, N), bit for bit, and on
        # the unstable points it is the {-1,0} leading-order rate to 1%
        argv = ["sweep", "--beta", "1", "--gamma", "1", *argv.split(),
                "--num", "2", "--N", "8"]
        code, doc = run_json(capsys, argv)
        assert code == 0
        points = doc["results"]["points"]
        assert [p[swept] for p in points] == ends
        for p in points:
            wave = stokes_coefficients(PhysicalParams(1, 1, p["k"]))
            xi_star, growth, _ = max_growth(wave, p["a"], TruncationConfig(N=8))
            assert (p["xi_star"], p["growth"]) == (xi_star, growth)
        unstable = [p for p in points if p["predicted"] > 0]
        assert unstable
        for p in unstable:
            assert p["growth"] == pytest.approx(p["predicted"], rel=0.01)
        assert cli.main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "k,a,xi_star,growth,predicted"
        assert [row for row in csv.reader(lines[2:])] == \
            [[repr(v) for v in p.values()] for p in points]

    def test_dispersion_modes(self, capsys):
        code, doc = run_json(capsys, [
            "dispersion", "--beta", "1", "--gamma", "1", "--k", "1",
            "--xi", "0.25", "--n-range", "2"])
        assert code == 0
        by_n = {m["n"]: m for m in doc["results"]["modes"]}
        assert by_n[0]["omega"] == pytest.approx(-3.515625, rel=1e-12)
        assert by_n[0]["krein"] == -1

    def test_dispersion_tiny_xi(self, capsys):
        # a tiny nonzero Bloch index is no pole: omega = -gamma/x dominates
        code, doc = run_json(capsys, [
            "dispersion", "--beta", "1", "--gamma", "1", "--k", "1",
            "--xi", "1e-13", "--n-range", "0"])
        assert code == 0
        (mode,) = doc["results"]["modes"]
        assert mode["omega"] == pytest.approx(-1e13, rel=1e-15)
        assert mode["krein"] == -1

    @pytest.mark.parametrize("beta, k, xi", [
        (1.0, 2**0.5, 0.5),   # origin collision of {0, -1}: krein 0
        (1.0, 1.6, 0.2798306772509555),
        (-1.0, 0.78, 0.01),
    ])
    def test_dispersion_rows_match_scalar_calls(self, beta, k, xi, capsys):
        # the array evaluation gives the scalar omega and krein_signature
        # bit for bit
        params = PhysicalParams(beta, 1.0, k)
        c0 = stokes.phase_speed_c0(params)
        code, doc = run_json(capsys, [
            "dispersion", "--beta", repr(beta), "--gamma", "1", "--k", repr(k),
            "--xi", repr(xi)])
        assert code == 0
        expected = [{"n": n, "x": n + xi,
                     "omega": dispersion.omega(params, c0, n + xi),
                     "krein": dispersion.krein_signature(params, c0, n + xi)}
                    for n in range(-6, 7)]
        assert json.dumps(doc["results"]["modes"]) == json.dumps(expected)
        if xi == 0.5 and beta > 0:
            assert [m["krein"] for m in expected if m["n"] in (-1, 0)] == [0, 0]

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "th.json"
        code = cli.main(["threshold", "--beta", "1", "--gamma", "1",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["k_min"] == pytest.approx(2**0.5, rel=1e-12)


class TestUnits:
    """Each command at gamma = 1e-12 is its gamma = 1 counterpart with k
    scaled by 1e-3: every omega shrinks by 1e-12 and every xi stays put.
    The answers are the same."""

    def test_dispersion_krein(self, capsys):
        def krein(gamma, k):
            code, doc = run_json(capsys, [
                "dispersion", "--beta", "1", "--gamma", gamma, "--k", k,
                "--xi", "0.25", "--n-range", "2"])
            assert code == 0
            return [mode["krein"] for mode in doc["results"]["modes"]]
        assert krein("1e-12", "1.3e-4") == krein("1", "0.13") == [1, -1, -1, 1, 1]

    def test_krein_opposite_collision(self, capsys):
        def events(gamma, k):
            code, doc = run_json(capsys, [
                "krein", "--beta", "-1", "--gamma", gamma, "--k", k,
                "--n", "-1", "--m", "1"])
            assert code == 0
            return [(e["at_origin"], e["kappa_n"], e["kappa_m"], e["opposite_krein"])
                    for e in doc["results"]["events"]]
        assert events("1e-12", "8e-4") == events("1", "0.8") == [(False, -1, 1, True)]

    @pytest.mark.parametrize("gamma, k, a", [("1e-12", "8e-4", "1e-8"),
                                             ("1", "0.8", "0.01")])
    def test_reduced_refuses_non_collision(self, gamma, k, a, capsys):
        # xi = 0.2 is not the collision xi0 = 0.4315: the gap is 2.6% of omega
        code = cli.main(["reduced", "--beta", "-1", "--gamma", gamma, "--k", k,
                         "--n", "-1", "--m", "1", "--a", a, "--xi", "0.2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "omega gap" in captured.err


    @pytest.mark.parametrize("command", [
        ["spectrum"], ["reduced", "--n", "-1", "--m", "0"]])
    def test_amplitude_rescaled(self, command, capsys):
        # (beta, k, a) -> (8^4*beta, k/8, 64*a) keeps beta*k^4/gamma,
        # a*k^2/gamma and every entry of the matrices: a = 0.64 there is
        # the wave a = 0.01 is here, and gets the same results bit for bit
        def results(beta, k, a):
            code, doc = run_json(capsys, [*command, "--beta", beta, "--gamma", "1",
                                          "--k", k, "--a", a])
            assert code == 0
            return json.dumps(doc["results"])
        assert results("4096", "0.2", "0.64") == results("1", "1.6", "0.01")


class TestFigures:
    def test_k_curves(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["figures", "--which", "K_curves",
                                      "--beta", "1", "--gamma", "1",
                                      "--out", str(tmp_path)])
        assert code == 0
        assert len(doc["results"]["files"]) == 4
        comment, rows = read_csv(tmp_path / "k_curves_dn1.csv")
        assert comment.startswith("#")
        assert rows[0] == ["x", "K"]
        by_x = {r[0]: r for r in rows[1:] if r}
        assert float(by_x["-0.5"][1]) == pytest.approx(4.0, rel=1e-12)
        # singular points become blank rows
        assert by_x["0.0"] == [] if "0.0" in by_x else True
        assert any(r == [] for r in rows[1:])

    def test_collision_ranges(self, tmp_path, capsys):
        code, doc = run_json(capsys, [
            "figures", "--which", "collision_ranges", "--beta", "1",
            "--gamma", "1", "--n", "-3", "--m", "-1", "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "collision_ranges_n-3_m-1.csv")
        ks = [float(r[1]) for r in rows[1:] if len(r) == 2]
        assert min(ks) == pytest.approx(0.502, abs=0.02)
        assert max(ks) == pytest.approx(0.7186, abs=0.02)

    def test_collision_contour(self, tmp_path, capsys):
        code, doc = run_json(capsys, [
            "figures", "--which", "collision_contour", "--beta", "1",
            "--gamma", "6", "--out", str(tmp_path)])
        assert code == 0
        _, rows = read_csv(tmp_path / "collision_contour.csv")
        pts = [(float(r[0]), float(r[1])) for r in rows[1:] if len(r) == 2]
        xi_min, k_min = min(pts, key=lambda t: t[1])
        assert k_min == pytest.approx(2.2134, abs=1e-3)
        assert xi_min == pytest.approx(0.5, abs=1e-9)

    def test_contour_needs_positive_beta(self, tmp_path):
        assert cli.main(["figures", "--which", "collision_contour",
                         "--beta", "-1", "--gamma", "1",
                         "--out", str(tmp_path)]) == 2

    def test_figures_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            cli.main(["figures", "--which", "K_curves", "--beta", "1",
                      "--gamma", "1", "--out", str(d)])
        assert (a / "k_curves_dn2.csv").read_bytes() == \
               (b / "k_curves_dn2.csv").read_bytes()

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_collision_ranges_needs_two_modes(self, n, capsys, tmp_path):
        assert cli.main(["figures", "--which", "collision_ranges", "--beta",
                         "1", "--gamma", "1", "--n", n, "--m", n,
                         "--out", str(tmp_path / "figs")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need two distinct modes" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n, m", [
        ("100000000000000000000", "100000000000000000001"),
        ("0", str(10**30)),
        (str(-dispersion.MAX_N_RANGE - 1), "0"),
    ])
    def test_collision_ranges_bounds_modes(self, n, m, capsys, tmp_path):
        # past the bound n + xi rounds to n on the whole grid
        assert cli.main(["figures", "--which", "collision_ranges", "--beta",
                         "1", "--gamma", "1", "--n", n, "--m", m,
                         "--out", str(tmp_path / "figs")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # the first mode out of bounds is named
        flag, mode = ("--n", n) if abs(int(n)) > dispersion.MAX_N_RANGE else ("--m", m)
        bound = dispersion.MAX_N_RANGE
        assert f"{flag} {mode} not in [-{bound}, {bound}]" in captured.err
        assert list(tmp_path.iterdir()) == []
        assert cli.main(["figures", "--which", "collision_ranges", "--beta",
                         "1", "--gamma", "1", "--n", str(-dispersion.MAX_N_RANGE),
                         "--m", str(dispersion.MAX_N_RANGE),
                         "--out", str(tmp_path / "figs")]) == 0

    def test_figures_requires_which(self):
        assert cli.main(["figures", "--beta", "1", "--gamma", "1"]) == 64


class TestFigureCsv:
    """_table and _write_csv write the bytes of csv.writer, kept here as
    the reference, and no figure file is written unless every value is
    finite."""

    @pytest.fixture
    def fresh_tables(self):
        # the K_curves tables, the figure text and the pair tables are
        # built once per process: each test that counts or patches their
        # build, or the kernel under them, starts and ends with none
        caches = (cli._k_curves, cli._dyadic_digits, cli._xi_grid_text,
                  dispersion._pair_table)
        for cache in caches:
            cache.cache_clear()
        yield
        for cache in caches:
            cache.cache_clear()

    @staticmethod
    def reference_bytes(comment, header, values, keep):
        buf = io.StringIO(newline="")
        buf.write(comment + "\n")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(tuple(row) if kept else ()
                         for row, kept in zip(values.tolist(), keep.tolist()))
        return buf.getvalue().encode()

    def check(self, tmp_path, values, keep):
        path = tmp_path / "t.csv"
        x = values[:, 0]
        _, header, body = cli._table("t.csv", ("x", "k"), x,
                                     lambda: cli._repr_column(x),
                                     values[:, 1], keep)
        cli._write_csv(path, "# beta=1.0 gamma=", header, body)
        assert path.read_bytes() == self.reference_bytes(
            "# beta=1.0 gamma=", ("x", "k"), values, keep)

    def test_matches_csv_writer(self, tmp_path):
        x = np.arange(-1023, 1025) / 2048.0 - 3  # dyadic, negative and not
        y = np.concatenate([[1e300, -1.7976931348623157e308, 1e-300, 5e-324,
                             -2.2250738585072014e-308, 0.0, -0.0, 1 / 3],
                            np.geomspace(1e-300, 1e300, x.size - 8)])
        keep = np.arange(x.size) % 7 != 3
        keep[0] = keep[-1] = False  # blank first and last rows
        self.check(tmp_path, np.column_stack((x, y)), keep)
        self.check(tmp_path, np.column_stack((x, -y)), ~keep)

    @settings(max_examples=50, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(allow_nan=False,
                                             allow_infinity=False),
                                   st.floats(allow_nan=False,
                                             allow_infinity=False),
                                   st.booleans()), max_size=40))
    def test_matches_csv_writer_any_floats(self, rows):
        values = np.array([r[:2] for r in rows], dtype=float).reshape(-1, 2)
        keep = np.array([r[2] for r in rows], dtype=bool)
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp), values, keep)

    @staticmethod
    def k_curves_grid(dn):
        return np.arange(-256 * (dn + 2), 256 * 2 + 1) / 256.0

    def check_k_curves(self, out):
        # each file holds a fresh full-grid evaluation of the kernel
        argv = ["figures", "--which", "K_curves", "--beta", "1", "--gamma",
                "1", "--out", str(out)]
        assert cli.main(argv) == 0
        comment = cli._csv_comment(cli.build_parser().parse_args(argv))
        for dn in (1, 2, 3, 4):
            x = self.k_curves_grid(dn)
            K = dispersion.collision_K(x, dn)
            assert (out / f"k_curves_dn{dn}.csv").read_bytes() == \
                self.reference_bytes(comment, ("x", "K"),
                                     np.column_stack((x, K)), ~np.isnan(K))

    def test_k_curves_match_csv_writer(self, capsys, tmp_path):
        self.check_k_curves(tmp_path)

    def test_k_curves_take_no_physical_parameter(self, capsys, tmp_path,
                                                 monkeypatch, fresh_tables):
        # beta and gamma only echo in the comment line, and the kernel is
        # evaluated in the first call only
        collision_K = dispersion.collision_K
        dns = []

        def spy(x, dn):
            dns.append(dn)
            return collision_K(x, dn)
        monkeypatch.setattr(dispersion, "collision_K", spy)
        for beta, gamma, d in (("1", "1", "a"), ("-2.5", "0.3", "b")):
            assert cli.main(["figures", "--which", "K_curves", "--beta", beta,
                             "--gamma", gamma, "--out", str(tmp_path / d)]) == 0
            assert dns == [1, 2, 3, 4]
        for dn in (1, 2, 3, 4):
            name = f"k_curves_dn{dn}.csv"
            a = (tmp_path / "a" / name).read_bytes().split(b"\n", 1)
            b = (tmp_path / "b" / name).read_bytes().split(b"\n", 1)
            assert a[0] != b[0]
            assert a[1] == b[1]

    @pytest.mark.parametrize("dn", [1, 2, 3, 4])
    def test_k_curves_kernel_reads_same_reversed(self, dn):
        # x*(x+dn) and (x+dn/2)^2 round alike about x = -dn/2, so the
        # kernel is bitwise symmetric there, its poles included
        K = dispersion.collision_K(self.k_curves_grid(dn), dn)
        bits = K.view(np.int64)
        assert np.isnan(K).any()
        assert np.array_equal(bits, bits[::-1])

    @pytest.mark.parametrize("n", [-1000, -999, -1, 0, 1, 999, 1000])
    def test_dyadic_text_is_repr(self, n):
        x = n + np.arange(-1023, 1025) / 2048.0
        assert cli._dyadic_text(n) == cli._repr_column(x)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(-dispersion.MAX_N_RANGE, dispersion.MAX_N_RANGE))
    def test_dyadic_text_is_repr_any_mode(self, n):
        self.test_dyadic_text_is_repr(n)

    def check_figure(self, argv, path, header, x, k4):
        # path holds a fresh evaluation of the kernel on the grid x
        assert cli.main(argv) == 0
        k = [v ** 0.25 if v > 0 else math.nan for v in k4.tolist()]
        comment = cli._csv_comment(cli.build_parser().parse_args(argv))
        assert path.read_bytes() == self.reference_bytes(
            comment, header, np.column_stack((x, k)), k4 > 0)

    @pytest.mark.parametrize("n, m", [(-1000, -999), (1000, 999), (-1, 0),
                                      (0, 1), (-3, 0)])
    def test_collision_ranges_match_csv_writer(self, n, m, capsys, tmp_path):
        lo, hi = min(n, m), max(n, m)
        xi = np.arange(-1023, 1025) / 2048.0
        # both signs of beta, and each call after the first reads the
        # cached digits
        for beta, gamma in ((1.3, 2.1), (-0.7, 0.4), (2.0**-20, 3.0)):
            argv = ["figures", "--which", "collision_ranges", "--beta", repr(beta),
                    "--gamma", repr(gamma), "--n", str(n), "--m", str(m),
                    "--out", str(tmp_path)]
            k4 = dispersion._collision_k4(beta, gamma, lo + xi, hi - lo)
            self.check_figure(argv, tmp_path / f"collision_ranges_n{lo}_m{hi}.csv",
                              ("x", "k"), lo + xi, np.where(xi == 0, np.nan, k4))

    @pytest.mark.parametrize("num", [1, 7, 512])
    def test_collision_contour_matches_csv_writer(self, num, capsys, tmp_path):
        xi = hill.default_xi_grid(num)
        for beta, gamma in ((1.0, 6.0), (0.3, 1e-3), (1e300, 1e-300)):
            argv = ["figures", "--which", "collision_contour", "--beta", repr(beta),
                    "--gamma", repr(gamma), "--xi-grid", str(num),
                    "--out", str(tmp_path)]
            self.check_figure(argv, tmp_path / "collision_contour.csv", ("xi", "k"),
                              xi, dispersion._collision_k4(beta, gamma, -1 + xi, 1))

    def test_failed_check_caches_no_text(self, capsys, tmp_path, fresh_tables):
        # k overflows: the grid's text is not built, and nothing is written
        assert cli.main(["figures", "--which", "collision_contour", "--beta",
                         "1e-300", "--gamma", "1e300", "--xi-grid", "7",
                         "--out", str(tmp_path / "figs")]) == 2
        assert cli._xi_grid_text.cache_info().currsize == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        "figures --which collision_ranges --beta 1e-300 --gamma 1e300 --n -1 --m 0",
        "figures --which collision_contour --beta 1e-300 --gamma 1e300",
    ])
    def test_overflow_writes_nothing(self, argv, capsys, tmp_path):
        assert cli.main(argv.split() + ["--out", str(tmp_path / "figs")]) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_last_table_checked_before_first_write(self, capsys, tmp_path,
                                                   monkeypatch, fresh_tables):
        # an inf in k_curves_dn4.csv keeps k_curves_dn1.csv from being written
        collision_K = dispersion.collision_K

        def inf_at_dn4(x, dn):
            K = collision_K(x, dn)
            return np.where(x == 0.5, np.inf, K) if dn == 4 else K
        monkeypatch.setattr(dispersion, "collision_K", inf_at_dn4)
        assert cli.main(["figures", "--which", "K_curves", "--beta", "1",
                         "--gamma", "1", "--out", str(tmp_path / "figs")]) == 2
        assert "non-finite value in k_curves_dn4.csv" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # the build that failed left nothing cached
        monkeypatch.undo()
        self.check_k_curves(tmp_path / "figs")

    def test_contour_pole_is_singularity(self, capsys, tmp_path, monkeypatch):
        # a NaN on the contour grid raises Singularity (exit 2), not a blank row
        k4 = dispersion._collision_k4

        def nan_at_half(beta, gamma, x, dn):
            return np.where(x == -0.5, np.nan, k4(beta, gamma, x, dn))
        monkeypatch.setattr(dispersion, "_collision_k4", nan_at_half)
        assert cli.main(["figures", "--which", "collision_contour", "--beta",
                         "1", "--gamma", "6", "--xi-grid", "2",
                         "--out", str(tmp_path / "figs")]) == 2
        assert "collision kernel pole at x=-0.5," in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_help_lists_every_command(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(f"\n  {name} " in out for name in cli._HANDLERS)


_FLOAT_FLAGS = ("beta", "gamma", "k", "a", "xi", "lo", "hi")
_INT_FLAGS = ("n", "m", "dn-max", "n-range", "xi-grid", "num")
# arbitrary floats, plus ranges and values where commands succeed
_FUZZ_FLOATS = st.one_of(
    st.floats(), st.floats(-3, 3), st.floats(-0.1, 0.1), st.floats(0, 0.5),
    st.sampled_from((1.0, -1.0, 1.6, 0.78, 0.01, 0.28, 0.5, 0.0, 5e-324, 1e300)))
_NON_FINITE = ("nan", "inf", "-inf")


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [leaf for x in obj for leaf in _leaves(x)]
    return [obj]


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(cli._HANDLERS)))
    argv = [command]
    # each flag is left out one time in eight, --xi of spectrum never, and
    # one of --k, --a of sweep always (the one it sweeps); the
    # --flag=value form passes values such as -1e-07 and -inf to the program
    swept = draw(st.sampled_from(("k", "a"))) if command == "sweep" else None
    for name in _FLOAT_FLAGS:
        if name == swept:
            continue
        if draw(st.integers(0, 7)) < 7 or (name, command) == ("xi", "spectrum"):
            argv.append(f"--{name}={draw(_FUZZ_FLOATS)!r}")
    for name in _INT_FLAGS:
        if draw(st.integers(0, 7)) < 7:
            argv.append(f"--{name}={draw(st.integers(-3, 8))}")
    argv += ["--N", str(draw(st.integers(8, 16))),
             "--format", draw(st.sampled_from(("json", "csv")))]
    if draw(st.booleans()):
        argv.append("--opposite-krein")
    if command == "figures":
        argv += ["--which", draw(st.sampled_from(sorted(cli._FIGURES)))]
    if command == "sweep" and draw(st.booleans()):
        # half the sweeps also get a positive range, which the last --lo
        # and --hi set: few arbitrary ranges pass every check
        top = 0.1 if swept == "a" else 3.0
        argv += [f"--{name}={v!r}" for name, v in zip(
            ("lo", "hi"), sorted(draw(st.tuples(st.floats(1e-3, top),
                                                st.floats(1e-3, top)))))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_cli_argv())
# random draws rarely hit a collision, so reduced runs at two known ones
@example(argv=["reduced", "--beta=1.0", "--gamma=1.0", "--k=1.6", "--n=-1",
               "--m=0", "--a=0.01"])
@example(argv=["reduced", "--beta=-1.0", "--gamma=1.0", "--k=0.78", "--n=-1",
               "--m=1", "--a=0.0", "--format=csv"])
@example(argv=["sweep", "--beta=1.0", "--gamma=1.0", "--a=0.01", "--lo=1.2",
               "--hi=1.6", "--num=2", "--N", "8", "--xi-grid=64"])
# a tiny nonzero Bloch index runs (exit 0, finite); a sweep past the
# hull-entry guard is refused (exit 2) before any slice is solved
@example(argv=["dispersion", "--beta=1.0", "--gamma=1.0", "--k=1.0",
               "--xi=1e-13", "--n-range=0"])
@example(argv=["spectrum", "--beta=1.0", "--gamma=1.0", "--k=1.6", "--a=0.01",
               "--N", "2000", "--xi-grid=1048576"])
# the Bloch matrix overflows to inf: refused with exit 2, before LAPACK runs
@example(argv=["spectrum", "--beta=1.8589625809806455e+277", "--gamma=1.0",
               "--k=11241138.0", "--a=0.0", "--xi=0.5", "--lo=0.0", "--hi=0.0",
               "--n=0", "--m=0", "--dn-max=0", "--n-range=0", "--xi-grid=1",
               "--num=0", "--N", "8", "--format", "json"])
def test_fuzz_exit_codes_and_finite_results(argv):
    """Arbitrary flag values exit 0, 2 or 64, and exit 0 only with finite
    results.

    ``spectrum`` always gets ``--xi`` and N <= 16: an xi sweep solves
    hundreds of slices and is too slow for one fuzz case.  A ``sweep``
    makes at most 8 xi sweeps (--num <= 8), at N <= 16.
    """
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        if argv[0] == "figures":
            argv = argv + ["--out", tmp]
        code = cli.main(argv)
    assert code in (0, 2, 64), argv
    if code != 0:
        return
    text = out.getvalue()
    if text.startswith("{"):
        leaves = _leaves(json.loads(text)["results"])
    else:
        leaves = [cell for row in csv.reader(io.StringIO(text)) for cell in row]
    assert not [v for v in leaves if str(v) in _NON_FINITE], argv
