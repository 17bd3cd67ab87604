#!/usr/bin/env python3
"""Benchmark of ostro-stab through its public entry points.

    python3 bench/run.py --workload sweep-n32 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
and driven in-process, one client in a closed loop: ``cli.main`` with a
generated argument vector, or ``dispersion.collision_interval``.  Inputs
come from ``--seed`` alone (see workloads.py); every output is checked.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see tracer.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it repeat the metrics by name and unit and
record the environment, the results digest and the known defects.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

# Single-threaded BLAS and sweep: the plain serial run is the baseline.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OSTRO_STAB_THREADS": "1",
}

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_LAUNCHES = 9

# Passes over the same operations in one run; an operation's latency is
# the median of its calibrated executions.
PASSES = 3

# Host-speed calibration (see calibrate.py): the reference kernel is timed
# at least every KERNEL_EVERY_S of the run, and every timing is scaled to
# a host on which the kernel takes KERNEL_NOMINAL_S.
KERNEL_EVERY_S = 0.5
KERNEL_NOMINAL_S = 0.05
# The launch reports when it finished (time.monotonic is one clock for
# all processes of the machine) and then times the reference kernel, on
# the CPU that ran it and after the timed part.
SETUP_CODE = """\
import sys, time
t0 = time.monotonic()
from ostro_stab.cli import main
t1 = time.monotonic()
rc = main(["threshold", "--beta", "1", "--gamma", "1"])
done = time.monotonic()
sys.path.insert(0, sys.argv[1])
from calibrate import kernel_s
kernel_s()
kernel = (kernel_s() + kernel_s()) / 2
sys.stderr.write(f"import_s={t1 - t0!r} done={done!r} kernel_s={kernel!r}\\n")
sys.exit(rc)
"""

# Computed (not measured) LAPACK flop counts for an n x n real
# nonsymmetric matrix: eigenvalues only, and eigenvalues plus vectors.
EIGVALS_FLOPS = 10
EIG_FLOPS = 25

PROGRAM_MODULES = ("cli", "dispersion", "hill", "reduced", "stokes")


def load_program() -> dict:
    if not (SRC / "ostro_stab" / "cli.py").is_file():
        raise SystemExit(f"bench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    modules = {name: importlib.import_module(f"ostro_stab.{name}")
               for name in PROGRAM_MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit("bench: ostro_stab was not imported from src/")
    return modules


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **PINNED_ENV,
    }


# ---------------------------------------------------------------------------
# host-speed calibration

class Calibration:
    """Reference kernel timings interleaved with the operations.

    An operation's time is divided by the mean of the kernel timings just
    before and just after it, and multiplied by KERNEL_NOMINAL_S.
    """

    def __init__(self):
        from calibrate import kernel_s  # after PINNED_ENV is set

        self._kernel_s = kernel_s
        self.times: list[float] = []
        self._last = -float("inf")
        kernel_s()  # warm-up

    def measure(self) -> int:
        """Time the kernel once; return the index of the timing."""
        self.times.append(self._kernel_s())
        self._last = time.perf_counter()
        return len(self.times) - 1

    def last_if_fresh(self) -> int:
        """Index of the last timing, measuring anew if it is stale."""
        if time.perf_counter() - self._last >= KERNEL_EVERY_S or not self.times:
            return self.measure()
        return len(self.times) - 1

    def scale(self, before: int) -> float:
        """Factor for a timing made between kernel timings ``before`` and
        ``before + 1``."""
        return KERNEL_NOMINAL_S * 2 / (self.times[before] + self.times[before + 1])


# ---------------------------------------------------------------------------
# set-up time in fresh interpreters

class Setup:
    """Set-up time measured in fresh interpreters: start, import, threshold.

    Launches are spread over the timed passes (see run_pass), so that the
    median samples the machine over the run, not at one moment.
    """

    def __init__(self, launches: int):
        self.launches = launches
        self.made = 0
        self.totals: list[float] = []
        self.scaled: list[float] = []
        self.imports: list[float] = []
        self.errors: list[str] = []

    def launch(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.made += 1
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        try:
            k_min = json.loads(proc.stdout)["results"]["k_min"]
            report = dict(kv.split("=") for kv in proc.stderr.split()
                          if kv.split("=")[0] in ("import_s", "done", "kernel_s"))
            total = float(report["done"]) - t0
            self.imports.append(float(report["import_s"]))
            self.totals.append(total)
            self.scaled.append(total * KERNEL_NOMINAL_S / float(report["kernel_s"]))
        except (ValueError, KeyError, IndexError):
            k_min = None
        if proc.returncode != 0 or k_min != wl.threshold(1.0, 1.0):
            self.errors.append(f"setup launch: exit {proc.returncode}, "
                               f"k_min {k_min!r}")

    def due(self, fraction: float) -> bool:
        """Whether a launch is due once ``fraction`` of the run is done."""
        return self.made < min(self.launches, 1 + int(fraction * self.launches))

    def finish(self) -> tuple[float, float]:
        """Median calibrated set-up time, and median raw import time."""
        while self.made < self.launches:
            self.launch()
        return (statistics.median(self.scaled or [0.0]),
                statistics.median(self.imports or [0.0]))


# ---------------------------------------------------------------------------
# the closed loop

class Stream:
    """The seeded operation list of one workload, built round by round."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.ops: list[wl.Op] = []
        self.rounds = 0

    def __getitem__(self, i: int) -> wl.Op:
        while len(self.ops) <= i:
            self.ops += wl.make_round(self.workload, self.seed, self.rounds)
            self.rounds += 1
        return self.ops[i]


@dataclass
class Pass:
    """Per-operation records of one pass over a stream."""

    latencies: list[float] = field(default_factory=list)
    kernels: list[int] = field(default_factory=list)  # Calibration index before
    errors: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)
    defects: dict = field(default_factory=lambda: {d: [0, 0] for d in wl.DEFECTS})
    busy_s: float = 0.0
    unattributed_s: float = 0.0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    prefix_digest: str = ""


def execute(program: dict, op: wl.Op):
    if op.call:
        try:
            return 0, program["dispersion"].collision_interval(*op.call)
        except Exception as exc:  # recorded as a failed operation
            return 1, exc
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = program["cli"].main(list(op.argv))
    return rc, out.getvalue()


def result_bytes(op: wl.Op, rc: int, out) -> bytes:
    """What the digest covers: the envelope without its wall time, CSV
    output, and the figure files the operation wrote."""
    if op.call:
        text = repr(out)
    elif out.startswith("{"):
        doc = json.loads(out)
        doc["diagnostics"].pop("wall_time_s", None)
        text = json.dumps(doc, sort_keys=True)
        for f in doc["results"].get("files", ()) if op.kind.startswith("figure") else ():
            text += Path(f).read_text()
    else:
        text = out
    return f"{op.kind}\n{rc}\n{text}\n".encode()


def run_pass(program: dict, stream: Stream, seconds: float, min_ops: int,
             prefix_ops: int, cal: Calibration, tracer: Tracer | None = None,
             setup: Setup | None = None, share: tuple[int, int] = (0, 1)) -> Pass:
    """Run operations until ``seconds`` of operation time and ``min_ops``.

    ``share`` = (index, count) places the pass among the run's passes, so
    that set-up launches spread evenly over all of them.
    """
    p = Pass()
    i = 0
    while i < min_ops or p.busy_s < seconds:
        done = p.busy_s / seconds if seconds else i / min_ops
        if setup and setup.due((share[0] + min(done, 1.0)) / share[1]):
            setup.launch()
        p.kernels.append(cal.last_if_fresh())
        op = stream[i]
        top0 = tracer.top_s if tracer else 0.0
        t0 = time.perf_counter()
        rc, out = execute(program, op)
        wall = time.perf_counter() - t0
        p.latencies.append(wall)
        p.busy_s += wall
        if tracer:
            top = tracer.top_s - top0
            p.unattributed_s += wall - top
            if not 0 <= top <= wall:
                p.errors.append(f"op {i}: traced span {top} outside op wall {wall}")
        error, defects = wl.check(op, rc, out)
        if error:
            p.errors.append(f"op {i} {op.kind} {' '.join(op.argv)}: {error}")
            p.failed_ops.add(i)
        for name, hit in defects.items():
            p.defects[name][0] += hit
            p.defects[name][1] += 1
        try:
            p.digest.update(result_bytes(op, rc, out))
        except (ValueError, KeyError, OSError) as exc:
            p.digest.update(f"unreadable {exc!r}".encode())
        i += 1
        if i == prefix_ops:
            p.prefix_digest = p.digest.hexdigest()
    cal.measure()  # every operation has a kernel timing after it
    return p


# ---------------------------------------------------------------------------
# metrics

def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_latencies(passes: list[Pass], cal: Calibration | None) -> list[float]:
    """Each operation ran once per pass; its latency is the median of those
    executions, calibrated unless ``cal`` is None."""
    runs = [[t * (cal.scale(k) if cal else 1.0)
             for t, k in zip(p.latencies, p.kernels)] for p in passes]
    return [statistics.median(ts) for ts in zip(*runs)]


def end_to_end(passes: list[Pass], setup_s: float, cal: Calibration) -> dict:
    lat = op_latencies(passes, cal)
    correct = len(lat) - len(set().union(*(p.failed_ops for p in passes)))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (correct / sum(lat), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (quantile(lat, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced: Pass, plain: list[Pass], n_dense: int,
              import_s: float, cal: Calibration) -> dict:
    ops = len(traced.latencies)
    out = {}
    for mod, fn in TARGETS:
        s = tracer.stats[f"{mod}.{fn}"]
        out[f"{mod}.{fn}.calls"] = (s.calls / ops, "calls/op")
        out[f"{mod}.{fn}.self_s"] = (s.self_s / ops, "s/op")
        out[f"{mod}.{fn}.raised"] = (s.raised / ops, "raises/op")
    sweeps = tracer.stats["hill.max_growth"].calls
    slices = tracer.stats["hill.spectrum_slice"]
    eigvec = tracer.stats["hill.assemble_L_matrix"].calls
    flops = n_dense**3 * (EIGVALS_FLOPS * slices.calls + EIG_FLOPS * eigvec)
    out.update({
        "hill.slices_per_sweep": (slices.calls / sweeps if sweeps else 0.0, "slices/sweep"),
        "hill.eigvec_share": (eigvec / slices.calls if slices.calls else 0.0, "share"),
        "hill.slice_mean_s": (slices.total_s / slices.calls if slices.calls else 0.0, "s"),
        "hill.dense_n": (n_dense, "count"),
        "hill.eig_flops_computed": (flops / ops, "flop/op"),
        "setup.import_s": (import_s, "s"),
        "host.kernel_s": (statistics.median(cal.times), "s"),
        "trace.overhead_s": ((sum(op_latencies([traced], cal))
                              - sum(op_latencies(plain, cal))) / ops, "s/op"),
        "trace.unattributed_s": (traced.unattributed_s / ops, "s/op"),
    })
    for name, (hits, candidates) in traced.defects.items():
        out[f"defect.{name}"] = (hits / candidates if candidates else 0.0, "share")
    return out


# ---------------------------------------------------------------------------

def self_checks(workload: str, seed: int) -> list[str]:
    errors = []
    first = wl.make_round(workload, seed, 0)
    if first != wl.make_round(workload, seed, 0):
        errors.append("self-check: the same seed gave different inputs")
    if first == wl.make_round(workload, seed + 1, 0):
        errors.append("self-check: another seed gave the same inputs")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(PINNED_ENV)  # before numpy is first imported
    program = load_program()
    os.chdir(ROOT)
    work = ROOT / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    (ROOT / wl.FIG_DIR).mkdir(parents=True)
    try:
        return _run(args, program)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, program) -> int:
    errors = self_checks(args.workload, args.seed)
    cal = Calibration()
    setup = Setup(SETUP_LAUNCHES)

    warm = Stream(args.workload, args.seed)
    warm.ops = wl.warmup_ops(args.workload, args.seed)
    errors += [f"warm-up: {e}"
               for e in run_pass(program, warm, 0, len(warm.ops), 0, cal).errors]
    cal.times.clear()

    # PASSES passes over the same operations, each a share of --seconds
    # (and at least one round).  With --trace 1 the first pass is traced
    # and the others give the untraced time of the same work.
    stream = Stream(args.workload, args.seed)
    prefix = len(wl.make_round(args.workload, args.seed, 0))
    tracer = Tracer(program) if args.trace else None
    if tracer:
        tracer.install()
    try:
        first = run_pass(program, stream, args.seconds / PASSES, prefix, prefix,
                         cal, tracer, setup, (0, PASSES))
    finally:
        if tracer:
            tracer.uninstall()
    passes = [first] + [run_pass(program, stream, 0, len(first.latencies),
                                 prefix, cal, setup=setup, share=(j, PASSES))
                        for j in range(1, PASSES)]
    setup_s, import_s = setup.finish()
    if any(p.digest.hexdigest() != first.digest.hexdigest() for p in passes):
        errors.append("self-check: repeating the operations"
                      + (" without tracing" if tracer else "")
                      + " changed the results digest")
    if tracer:
        if not tracer.restored():
            errors.append("self-check: the tracer left a patched attribute")
        self_total = sum(s.self_s for s in tracer.stats.values())
        if abs(self_total - tracer.top_s) > 1e-6 * (1 + tracer.top_s):
            errors.append(f"self-check: self times sum to {self_total}, "
                          f"top-level spans to {tracer.top_s}")
        metrics = per_layer(tracer, first, passes[1:],
                            2 * wl.SWEEP_N[args.workload] + 1, import_s, cal)
    else:
        metrics = end_to_end(passes, setup_s, cal)
    for p in passes:
        errors += p.errors
    errors += setup.errors
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.errors) for p in passes)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client: {len(first.latencies)} operations "
          f"({stream.rounds} rounds of {prefix}), each run {PASSES} times")
    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(f"# operations attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.6g}")
    print(f"# results digest sha256 {first.prefix_digest} "
          f"(first {prefix} operations, wall times removed)")
    raw = op_latencies(passes, None)
    print(f"# uncalibrated: setup_s {statistics.median(setup.totals or [0]):.6g}  "
          f"op_p50_s {statistics.median(raw):.6g}  "
          f"ops_per_s {len(raw) / sum(raw):.6g}  "
          f"reference kernel median {statistics.median(cal.times):.6g} s "
          f"(nominal {KERNEL_NOMINAL_S} s)")
    for name, (hits, candidates) in first.defects.items():
        if candidates:
            print(f"# known defect {name}: {hits}/{candidates}")
    for e in errors:
        print(f"# error {e}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
