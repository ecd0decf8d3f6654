"""Spans and counts around the calls into sicnet's layers (traced run only).

The layers are the modules ``numerics`` (L0), ``analytic`` (L1),
``montecarlo`` (L2) and ``experiments`` (L3).  :class:`Tracer` replaces each
measured public function, in every sicnet module that holds it, with a
wrapper that records a span; calls from one layer into another (for
instance ``analytic`` -> ``numerics.c_integral``) are therefore spans too.
A span's self time is its duration minus the durations of its direct child
spans.  Spans are aggregated per name as they close, so memory stays flat.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import tracemalloc
from collections import defaultdict

from sicnet import analytic, experiments, montecarlo, numerics

NUMERICS = ("c_integral", "adaptive_gauss")
ANALYTIC = (
    "ps_can",
    "ps_sic",
    "ps_sic_max_inst_sir",
    "outage_max_inst_sir",
    "rate_coverage_max_sir",
    "rate_coverage_min_load",
    "ps_ic_rea",
)


def _mode(flag: str, on: str, off: str):
    return lambda a: on if a[flag] else off


# simulator -> variant suffix from its bound arguments
SIMULATORS = {
    "ps_can_curve_mc": lambda a: "",
    "ps_sic_curve_mc": _mode("independent_stages", ".independent_stages", ""),
    "simulate_rea": lambda a: "." + a["cancel_mode"],
    "simulate_min_load": lambda a: "",
    "max_sir_success_curve_mc": _mode("independent_fields", ".independent", ".shared"),
    "simulate_max_inst_sir": _mode("independent_fields", ".independent", ".shared"),
}
SIM_VARIANTS = (
    "ps_can_curve_mc",
    "ps_sic_curve_mc",
    "ps_sic_curve_mc.independent_stages",
    "simulate_rea.strongest",
    "simulate_rea.annulus",
    "simulate_min_load",
    "max_sir_success_curve_mc.shared",
    "max_sir_success_curve_mc.independent",
    "simulate_max_inst_sir.shared",
    "simulate_max_inst_sir.independent",
)
PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6")


class Tracer:
    """Installs span wrappers on entry and restores the originals on exit.

    ``stderrs`` maps a simulator's output to the standard errors of its
    estimates.  With ``alloc=True`` each simulator call also records its
    tracemalloc peak above the memory traced at its start.
    """

    def __init__(self, stderrs, alloc: bool = False):
        self.stderrs = stderrs
        self.alloc = alloc
        self.stack = []
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.sims = defaultdict(lambda: {"trials": 0, "s": 0.0, "stderrs": [], "peak": 0})
        self._patched = []

    # -- span recording --------------------------------------------------

    def _timed(self, name: str, fn, args, kwargs):
        frame = [0.0]  # time covered by direct children
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1][0] += dur
            rec = self.spans[name]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[0]
        return out, dur

    def _plain(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._timed(name, fn, args, kwargs)[0]

        return wrapper

    def _simulator(self, base: str, fn, variant_of):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            variant = base + variant_of(bound.arguments)
            if self.alloc:
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
            out, dur = self._timed("montecarlo." + variant, fn, args, kwargs)
            rec = self.sims[variant]
            rec["trials"] += int(bound.arguments["trials"])
            rec["s"] += dur
            rec["stderrs"] += self.stderrs(out)
            if self.alloc:
                rec["peak"] = max(rec["peak"], tracemalloc.get_traced_memory()[1] - start)
            return out

        return wrapper

    def _preset(self, fn):
        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            return self._timed("experiments.run_preset." + spec.preset, fn, (spec,) + args, kwargs)[0]

        return wrapper

    # -- installation ----------------------------------------------------

    def _install(self, owner, name: str, wrapped) -> None:
        original = getattr(owner, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "sicnet" and getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)
                self._patched.append((mod, name, original))

    def __enter__(self):
        for f in NUMERICS:
            self._install(numerics, f, self._plain(f"numerics.{f}", getattr(numerics, f)))
        for f in ANALYTIC:
            self._install(analytic, f, self._plain(f"analytic.{f}", getattr(analytic, f)))
        for f, variant_of in SIMULATORS.items():
            self._install(montecarlo, f, self._simulator(f, getattr(montecarlo, f), variant_of))
        self._install(experiments, "run_preset", self._preset(experiments.run_preset))
        if self.alloc:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.alloc:
            tracemalloc.stop()
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()
        return False

    # -- per-layer values of one traced pass -----------------------------

    def values(self) -> dict:
        v = {}
        for f in NUMERICS:
            calls, _, own = self.spans.get(f"numerics.{f}", (0, 0.0, 0.0))
            v[f"numerics.{f}.calls"] = calls
            v[f"numerics.{f}.self_s"] = own
        for f in ANALYTIC:
            calls, total, own = self.spans.get(f"analytic.{f}", (0, 0.0, 0.0))
            v[f"analytic.{f}.s_per_point"] = total / calls if calls else 0.0
            v[f"analytic.{f}.self_s"] = own
        v["montecarlo.trials_drawn"] = sum(r["trials"] for r in self.sims.values())
        for name in SIM_VARIANTS:
            rec = self.sims.get(name)
            ses = rec["stderrs"] if rec else []
            v[f"montecarlo.{name}.trials_per_s"] = rec["trials"] / rec["s"] if rec and rec["s"] else 0.0
            v[f"montecarlo.{name}.peak_alloc_mb"] = rec["peak"] / 2**20 if rec else 0.0
            v[f"montecarlo.{name}.rms_stderr"] = (
                math.sqrt(sum(s * s for s in ses) / len(ses)) if ses else 0.0
            )
        for p in PRESETS:
            _, total, own = self.spans.get(f"experiments.run_preset.{p}", (0, 0.0, 0.0))
            v[f"experiments.run_preset.{p}.s"] = total
            v[f"experiments.run_preset.{p}.self_s"] = own
        return v
