import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ostro_stab import (
    PhysicalParams,
    TruncationConfig,
    cli,
    hill,
    max_growth,
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


class TestExitCodes:
    def test_threshold_ok(self, capsys):
        code, doc = run_json(capsys, ["threshold", "--beta", "1", "--gamma", "6"])
        assert code == 0
        assert doc["results"]["k_min"] == pytest.approx(2.2133638394006434,
                                                        rel=1e-12)

    def test_resonant_wavenumber_domain_error(self, capsys):
        code = cli.main(["wave", "--beta", "1", "--gamma", "1",
                         "--k", "0.70710678"])
        assert code == 2

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
        assert capsys.readouterr().out == ""
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

    @pytest.mark.parametrize("argv", [
        "spectrum --beta 1 --gamma 1 --k 0.7075 --a 0.05",
        "spectrum --beta 1 --gamma 1 --k 0.708 --a 0.05",
        "reduced --beta 1 --gamma 1 --k 0.708 --n -1 --m 0 --a 0.05",
    ])
    def test_unordered_expansion_domain_error(self, argv, capsys, monkeypatch):
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
            "ostro-stab: domain error: expansion not ordered at a=0.05")
        assert captured.err.count("\n") == 1

    def test_ordered_expansion_near_resonance_runs(self, capsys):
        code, doc = run_json(capsys, ["spectrum", "--beta", "1", "--gamma", "1",
                                      "--k", "0.708", "--a", "0.005"])
        assert code == 0
        assert doc["results"]["growth"] == 0.0

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
        "wave --beta 1 --gamma 1 --k 1e-100 --a 0.01",
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
        # the residual's sum overflows: one error line, no numpy warning,
        # also where warnings are errors (-W error::RuntimeWarning)
        argv = ["wave", "--beta=4.657190547248174e+96", "--gamma=1.0",
                "--k=1.0717681799107786e+18", "--a=0.0625"]
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
        "figures --which collision_contour --beta 1 --gamma 6 --xi-grid 0",
    ])
    def test_size_bounds_domain_error(self, argv, capsys, tmp_path, monkeypatch):
        # the guards must fire before any slice is solved
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a slice past the size guard")
        monkeypatch.setattr(hill, "spectrum_slice", no_solve)
        monkeypatch.setattr(hill, "max_growth", no_solve)
        argv = argv.split()
        if argv[0] == "figures":
            argv += ["--out", str(tmp_path / "figs")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_slice_builds_no_xi_grid(self, capsys, monkeypatch):
        def no_grid(num):
            raise AssertionError(f"built a {num}-point xi grid for one slice")
        monkeypatch.setattr(hill, "default_xi_grid", no_grid)
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.6",
            "--a", "0.01", "--xi", "0.3", "--N", "8", "--xi-grid", "1048576"])
        assert code == 0
        assert doc["diagnostics"]["xi_grid"] == 1048576

    @staticmethod
    def _run_module(module):
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", module, "threshold", "--beta", "1",
             "--gamma", "1"], capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["k_min"] == \
            pytest.approx(2**0.5, rel=1e-12)

    def test_python_dash_m(self):
        self._run_module("ostro_stab")

    def test_python_dash_m_cli_module(self):
        self._run_module("ostro_stab.cli")


class TestEnvelope:
    def test_round_trip_and_schema(self, capsys):
        code, doc = run_json(capsys, ["wave", "--beta", "1", "--gamma", "1",
                                      "--k", "1", "--a", "0.05"])
        assert code == 0
        cli.validate_envelope(doc)
        assert doc["schema_version"] == "1"
        assert doc["inputs"]["beta"] == 1.0
        assert doc["results"]["A2"] == pytest.approx(-2 / 9, rel=1e-15)
        assert doc["results"]["residual_l2"] < 1e-7
        assert "wall_time_s" in doc["diagnostics"]
        assert doc["diagnostics"]["tolerances"]["pairing"] == 1e-9

    def test_determinism_modulo_wall_time(self, capsys):
        argv = ["collisions", "--beta", "-1", "--gamma", "1",
                "--dn-max", "4", "--n-range", "6"]
        _, doc1 = run_json(capsys, argv)
        _, doc2 = run_json(capsys, argv)
        doc1["diagnostics"].pop("wall_time_s")
        doc2["diagnostics"].pop("wall_time_s")
        assert json.dumps(doc1, indent=2) == json.dumps(doc2, indent=2)

    def test_validate_rejects_bad_docs(self):
        with pytest.raises(ValueError):
            cli.validate_envelope({"schema_version": "1"})
        with pytest.raises(ValueError):
            cli.validate_envelope({
                "schema_version": "0", "command": "x", "inputs": {},
                "results": {}, "diagnostics": {},
            })


class TestCommands:
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

    def test_spectrum_slice(self, capsys):
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.3",
            "--a", "0.01", "--xi", "0.25", "--N", "16"])
        assert code == 0
        r = doc["results"]
        assert r["paired"] is True
        assert len(r["eigenvalues"]) == 33
        assert r["max_real_part"] < 1e-8

    def test_spectrum_sweeps_library_grid(self, capsys):
        code, doc = run_json(capsys, [
            "spectrum", "--beta", "1", "--gamma", "1", "--k", "1.2",
            "--a", "0.01", "--N", "16", "--xi-grid", "64"])
        assert code == 0
        wave = stokes_coefficients(PhysicalParams(1, 1, 1.2))
        xi_star, growth, _ = max_growth(wave, 0.01,
                                        TruncationConfig(N=16, xi_grid=64))
        assert doc["results"]["xi_star"] == xi_star
        assert doc["results"]["growth"] == growth

    def test_dispersion_modes(self, capsys):
        code, doc = run_json(capsys, [
            "dispersion", "--beta", "1", "--gamma", "1", "--k", "1",
            "--xi", "0.25", "--n-range", "2"])
        assert code == 0
        by_n = {m["n"]: m for m in doc["results"]["modes"]}
        assert by_n[0]["omega"] == pytest.approx(-3.515625, rel=1e-12)
        assert by_n[0]["krein"] == -1

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "th.json"
        code = cli.main(["threshold", "--beta", "1", "--gamma", "1",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["k_min"] == pytest.approx(2**0.5, rel=1e-12)


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

    def test_figures_requires_which(self):
        assert cli.main(["figures", "--beta", "1", "--gamma", "1"]) == 64


def test_help_lists_every_command(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(f"\n  {name} " in out for name in cli._HANDLERS)


_FLOAT_FLAGS = ("beta", "gamma", "k", "a", "xi")
_INT_FLAGS = ("n", "m", "dn-max", "n-range", "xi-grid")
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
    # each flag is left out one time in eight, --xi of spectrum never; the
    # --flag=value form passes values such as -1e-07 and -inf to the program
    for name in _FLOAT_FLAGS:
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
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_cli_argv())
# random draws rarely hit a collision, so reduced runs at two known ones
@example(argv=["reduced", "--beta=1.0", "--gamma=1.0", "--k=1.6", "--n=-1",
               "--m=0", "--a=0.01"])
@example(argv=["reduced", "--beta=-1.0", "--gamma=1.0", "--k=0.78", "--n=-1",
               "--m=1", "--a=0.0", "--format=csv"])
def test_fuzz_exit_codes_and_finite_results(argv):
    """Arbitrary flag values exit 0, 2 or 64, and exit 0 only with finite
    results.

    ``spectrum`` always gets ``--xi`` and N <= 16: an xi sweep solves
    hundreds of slices and is too slow for one fuzz case.
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
