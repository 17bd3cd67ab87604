"""The benchmark's own output checks (bench/workloads.py ``check``) pass on
rounds 0-3 of seeds 1-10 of every workload, every operation the benchmark
runs, so an output the benchmark would count as incorrect fails here
first.  The operations run through the
benchmark's own ``execute``, loaded from bench/run.py; nothing under
bench/ is changed."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ostro_stab import cli, dispersion

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load_run()
wl = run.wl


@pytest.mark.parametrize("round_index", range(4))
@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_round_passes_checks(workload, seed, round_index, tmp_path, monkeypatch):
    # the figures ops write under FIG_DIR, relative to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / wl.FIG_DIR).mkdir(parents=True)
    program = {"cli": cli, "dispersion": dispersion}
    ops = wl.make_round(workload, seed, round_index)
    errors = []
    for i, op in enumerate(ops):
        error, _ = wl.check(op, *run.execute(program, op))
        if error:
            errors.append(f"op {i} {op.kind} {' '.join(op.argv) or op.call}: {error}")
    assert ops and not errors
