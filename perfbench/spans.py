"""Span tracer for the traced benchmark run.

Importing this module changes nothing.  ``Tracer.install`` replaces the
public functions of the todalab modules (and the constructors of the two
state classes) with wrappers that record one span per call: function
layer, parent span, start, end and self time, where self time is the
span's duration minus the time its child spans cover.  Spans stay in
memory; ``summary`` turns them into the per-layer metrics.  Only the
traced process imports this module; nothing inside todalab is changed on
disk.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("core", "maps", "lax", "realizations", "pluri", "poisson", "flows",
           "verify", "cli")

# function -> layer.  Unlisted functions of verify and cli belong to the
# module's single layer; those of the other modules to "<module>.other".
LAYER_OF = {
    "core.shifted": "core.shifted",
    "maps.dtl_step": "maps.step",
    "maps.drtl_plus_step": "maps.step",
    "maps.drtl_minus_step": "maps.step",
    "maps.drtl_plus_explicit_step": "maps.step",
    "maps.drtl_minus_explicit_step": "maps.step",
    "maps.drtl_plus_explicit_inverse": "maps.step",
    "lax.spectral_invariants": "lax.invariants",
    "lax.build_T": "lax.build",
    "lax.build_LU_rtl": "lax.build",
    "lax.rtl_t1": "lax.build",
    "lax.exact_solution": "lax.exact_solution",
    "lax.crout_lu": "lax.exact_solution",
    "lax.monodromy_toda": "lax.monodromy",
    "lax.monodromy_rtl": "lax.monodromy",
    "lax.toda_local_matrix": "lax.monodromy",
    "lax.rtl_local_matrix": "lax.monodromy",
    "lax.zcr_residual_drtl": "lax.monodromy",
    "lax.drtl_transition_L": "lax.monodromy",
    "lax.drtl_transition_M": "lax.monodromy",
    "realizations.flaschka_of": "realizations.chart",
    "realizations.symplectic_defect": "realizations.fd",
    "realizations.pullback_consistency": "realizations.fd",
    "pluri.chain_step": "pluri.chain_step",
    "pluri.closure_value_1d": "pluri.forms",
    "pluri.closure_value_2d": "pluri.forms",
    "pluri.closure_values_2d": "pluri.forms",
    "pluri.spectrality_residual": "pluri.forms",
    "pluri.conservation_residual_2d": "pluri.forms",
    "pluri.corner_residuals_1d": "pluri.forms",
    "pluri.corner_residuals_2d": "pluri.forms",
    "pluri.superposition_1d": "pluri.forms",
    "pluri.superposition_2d": "pluri.forms",
    "pluri.quad_value": "pluri.cube",
    "pluri.quad_solve": "pluri.cube",
    "pluri.cube_consistency": "pluri.cube",
    "pluri.check_3d_consistency": "pluri.cube",
    "poisson.fd_jacobian": "poisson.fd_jacobian",
    "poisson.bracket_matrix": "poisson.bracket",
    "poisson.combo": "poisson.bracket",
    "poisson.poisson_map_residual": "poisson.residual",
    "poisson.involution_residual": "poisson.residual",
    "poisson.jacobi_residual": "poisson.residual",
    "poisson.realization_residual": "poisson.residual",
    "poisson.fd_gradient": "poisson.residual",
    "flows.vector_field": "flows.rk4",
    "flows.rk4_step": "flows.rk4",
    "flows.rk4_trajectory": "flows.rk4",
}
# functions whose layer depends on the boundary of their state argument
SPLIT = {
    "maps.dtl_factor_diag": ("maps.factors", 0),
    "maps.drtl_plus_factors": ("maps.factors", 0),
    "maps.drtl_minus_factors": ("maps.factors", 0),
    "realizations.canonical_step": ("realizations.step", 1),
}
SPLIT_SUFFIX = {"open": "_open", "periodic": "_ring"}
# a NumericalError leaving the outermost span of these modules is a failure
FAILURE_MODULES = ("maps", "realizations")
BENCH_OP = "bench.op"


def layer_names():
    """Every layer a span can belong to, bench.op first."""
    names = {BENCH_OP, "core.state_init", "verify", "cli"}
    names.update(LAYER_OF.values())
    names.update(base + suffix for base, _ in SPLIT.values() for suffix in SPLIT_SUFFIX.values())
    names.update(f"{m}.other" for m in MODULES if m not in ("verify", "cli"))
    return [BENCH_OP] + sorted(names - {BENCH_OP})


class Tracer:
    def __init__(self):
        self.layers = layer_names()
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.self_ns = array("q")
        self.failures = array("q")      # spans left by a NumericalError
        self.stack = []                 # open spans
        self.child_ns = []              # time covered by children, per open span
        self.bytes_written = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, layer=None, layer_of=None):
        """Wrapper recording a span of `layer` (or of layer_of(args)) per call."""
        lid = None if layer is None else self.layer_id[layer]
        layers, parent, start, end, self_ns = (self.span_layer, self.parent, self.start,
                                               self.end, self.self_ns)
        stack, child_ns, failures = self.stack, self.child_ns, self.failures
        clock = time.perf_counter_ns
        from todalab.errors import NumericalError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(layers)
            layers.append(lid if layer_of is None else layer_of(args))
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            self_ns.append(0)
            stack.append(idx)
            child_ns.append(0)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            except NumericalError:
                failures.append(idx)
                raise
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                end[idx] = t1
                self_ns[idx] = d - child_ns.pop()
                if child_ns:
                    child_ns[-1] += d
        return wrapper

    def install(self):
        """Replace the public functions of the todalab modules by wrappers,
        in every todalab module that holds a reference to them."""
        import importlib

        mods = {m: importlib.import_module(f"todalab.{m}") for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    replace[obj] = self._wrapper_for(short, name, obj)
        cli = mods["cli"]
        replace[cli._write] = self.wrap(self._counting(cli._write), "cli")
        for cls in (mods["core"].FlaschkaState, mods["core"].CanonicalState):
            cls.__init__ = self.wrap(cls.__init__, "core.state_init")
        for modname, mod in list(sys.modules.items()):
            if modname == "todalab" or modname.startswith("todalab."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replace:
                        setattr(mod, name, replace[obj])

    def _wrapper_for(self, module, name, fn):
        key = f"{module}.{name}"
        if key in SPLIT:
            base, pos = SPLIT[key]
            ids = {b: self.layer_id[base + s] for b, s in SPLIT_SUFFIX.items()}
            return self.wrap(fn, layer_of=lambda args: ids[args[pos].boundary.value])
        if key in LAYER_OF:
            return self.wrap(fn, LAYER_OF[key])
        return self.wrap(fn, module if module in ("verify", "cli") else f"{module}.other")

    def _counting(self, write):
        def counting_write(path, text):
            self.bytes_written += len(text.encode("utf-8"))
            return write(path, text)
        return counting_write

    # -- summary -----------------------------------------------------------

    def summary(self, passes: float) -> dict:
        """Per-layer totals over all spans, per pass of the workload.

        Returns {layer: {"calls", "self_s", "p50_us", "p99_us"}} plus the
        failure counts, the maps steps run inside FD Jacobians, and the
        total self time of all spans.
        """
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        self_ns = np.frombuffer(self.self_ns, dtype=np.int64)
        nl = len(self.layers)
        calls = np.bincount(layer, minlength=nl)
        self_tot = np.bincount(layer, weights=self_ns, minlength=nl)
        out = {}
        for lid, name in enumerate(self.layers):
            d = dur[layer == lid]
            # a percentile is reported only with at least 10 samples beyond it
            out[name] = {"calls": calls[lid] / passes, "self_s": self_tot[lid] * 1e-9 / passes,
                         "p50_us": float(np.percentile(d, 50)) * 1e-3 if len(d) >= 20 else 0.0,
                         "p99_us": float(np.percentile(d, 99)) * 1e-3 if len(d) >= 1000 else 0.0}

        failed = {m: 0 for m in FAILURE_MODULES}
        for idx in self.failures:
            mod = self.layers[layer[idx]].split(".")[0]
            p = parent[idx]
            if mod in failed and (p < 0 or self.layers[layer[p]].split(".")[0] != mod):
                failed[mod] += 1

        fd = self.layer_id["poisson.fd_jacobian"]
        in_fd = np.zeros(len(layer), dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            in_fd[live] |= layer[anc[live]] == fd
            anc[live] = parent[anc[live]]
        maps_in_fd = int(np.count_nonzero(in_fd & (layer == self.layer_id["maps.step"])))
        return {"layers": out, "failed": failed, "maps_in_fd": maps_in_fd / passes,
                "bytes_written": self.bytes_written / passes,
                "self_total_s": float(self_ns.sum()) * 1e-9,
                "spans": len(layer)}
