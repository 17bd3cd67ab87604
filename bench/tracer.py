"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the ostro_stab modules by
wrappers, through ``setattr`` on the module, and restores the originals
afterwards.  Calls that look the name up through the module at call time
are caught (``hill.max_growth -> spectrum_slice -> assemble_L_matrix``,
``cli -> dispersion.omega``, ...); names bound by ``from ... import``,
including the package re-exports, are not.

Each call is a span.  A span's self time is its duration minus the
durations of the traced calls made inside it, so the self times of all
spans of one top-level call add up to that call's duration.  Spans are
aggregated per function in memory.  The tracer keeps one stack and is not
thread-safe; the benchmark pins OSTRO_STAB_THREADS=1.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

# (module, function) pairs that make up the per-layer breakdown.
TARGETS = (
    ("cli", "main"),
    ("hill", "max_growth"),
    ("hill", "spectrum_slice"),
    ("hill", "assemble_L_matrix"),
    ("dispersion", "collision_xi"),
    ("dispersion", "collision_events"),
    ("dispersion", "collision_interval"),
    ("dispersion", "enumerate_collision_pairs"),
    ("dispersion", "collision_K"),
    ("dispersion", "omega"),
    ("reduced", "reduced_pencil"),
    ("reduced", "eigenvalue_shifts"),
    ("stokes", "stokes_coefficients"),
    ("stokes", "harmonic_amplitudes"),
    ("stokes", "eval_speed"),
    ("stokes", "residual_F"),
)


@dataclass
class FunctionStats:
    calls: int = 0
    raised: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Wraps TARGETS in the given modules (a dict name -> module object)."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.stats = {f"{mod}.{fn}": FunctionStats() for mod, fn in TARGETS}
        self.top_s = 0.0

    def install(self) -> None:
        for mod_name, fn_name in TARGETS:
            module = self._modules[mod_name]
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name,
                    self._wrap(self.stats[f"{mod_name}.{fn_name}"], original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)

    def restored(self) -> bool:
        """True when every patched attribute is the original object again."""
        return all(getattr(module, fn_name) is original
                   for module, fn_name, original in self._saved)

    def _wrap(self, stats: FunctionStats, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                duration = time.perf_counter() - t0
                children = stack.pop()
                stats.calls += 1
                stats.self_s += duration - children
                stats.total_s += duration
                if stack:
                    stack[-1] += duration
                else:
                    self.top_s += duration

        return span
