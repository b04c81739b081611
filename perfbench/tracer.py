"""Outside-in span tracer for the sinkflow layers.

The layers are the library's modules.  ``Tracer.install`` wraps each
function named in ``LAYERS`` in its home module *and* in every other
loaded ``sinkflow`` module that imported it by name (``experiments`` and
``particles`` bind ``s_step``, ``step`` and ``inverse_gradient_map`` at
import, so patching only the home module would miss those calls).
``uninstall`` restores every binding.  Nothing inside the library changes.

Each wrapped call is a span.  A function's self time is its span minus the
spans of traced calls made inside it; the calls, self time and inclusive
time are kept per function, and SinkflowErrors are counted once, against
the layer of the innermost traced call that raised them.  A few derived
counts are read from argument and result array sizes at the same
boundaries (see ``_observe``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from sinkflow.errors import SinkflowError

LAYERS = {
    "grids": ("grad_central", "second_central", "pushforward_values_linear",
              "cdf_values", "kl_divergence", "discretize"),
    "transport": ("legendre_transform", "w2_distance", "lot_distance"),
    "sinkhorn": ("v_operator", "u_operator", "s_step", "initial_state"),
    "pma": ("step", "run_flow", "fokker_planck_step", "inverse_gradient_map",
            "metric_derivative_lot", "kl_decay_series"),
    "closed_form": ("evaluate",),
    "particles": ("sinkhorn_sde_step", "dual_sde_step", "markov_chain_step",
                  "noise_block", "uniform_block", "ks_distance"),
    "experiments": ("execute",),
}

# particle steppers whose cost is reported per particle step
PARTICLE_STEPS = {"particles.sinkhorn_sde_step": "sde",
                  "particles.dual_sde_step": "dual",
                  "particles.markov_chain_step": "chain"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.errors = defaultdict(int)
        self.run_s = defaultdict(float)          # execute wall time per experiment
        self.kernel_entries = 0                  # x*y table entries the operators build
        self.substeps = 0                        # second_central calls inside pma.step
        self.projection_max = 0.0
        self.particle_steps = defaultdict(int)   # sde/dual/chain -> particles moved
        self.chain_table_bytes = 0
        self._stack: list[float] = []            # child time of each open span
        self._step_depth = 0
        self._raised: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "sinkflow" or name.startswith("sinkflow."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"sinkflow.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        is_step = key == "pma.step"
        is_second = key == "grids.second_central"
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_second and self._step_depth:
                self.substeps += 1
            if is_step:
                self._step_depth += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SinkflowError as exc:
                if not any(seen is exc for seen in self._raised):
                    self._raised.append(exc)
                    self.errors[layer] += 1
                raise
            finally:
                span = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += span
                if is_step:
                    self._step_depth -= 1
                self.calls[key] += 1
                self.self_s[key] += span - child
                self.total_s[key] += span
            self._observe(key, args, kwargs, result, span)
            return result

        return wrapper

    def _observe(self, key: str, args, kwargs, result, span: float) -> None:
        """Derived counts, computed from array sizes at the layer boundary."""
        if key == "sinkhorn.v_operator":
            # v_operator(u, mu, eps, y_grid=None): rows are y nodes, columns mu's nodes
            mu = args[1]
            out_grid = kwargs.get("y_grid", args[3] if len(args) > 3 else None) or mu.grid
            self.kernel_entries += out_grid.n * mu.grid.n
        elif key == "sinkhorn.u_operator":
            nu = args[1]
            out_grid = kwargs.get("x_grid", args[3] if len(args) > 3 else None) or nu.grid
            self.kernel_entries += out_grid.n * nu.grid.n
        elif key == "pma.step":
            self.projection_max = max(self.projection_max, float(result.projection_magnitude))
        elif key == "experiments.execute":
            self.run_s[args[0].experiment] += span
        if key in PARTICLE_STEPS:
            count = args[0].positions.size
            self.particle_steps[PARTICLE_STEPS[key]] += count
            if key == "particles.markov_chain_step":
                sk = args[1]
                # one float64 log-conditional table per coupling the step
                # conditions on: one at k = 0 (product coupling), two after
                tables = 1 if sk.u_prev is None else 2
                self.chain_table_bytes += tables * count * sk.mu.grid.n * 8

    # -- report -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        return {layer: sum(self.self_s[f"{layer}.{name}"] for name in names)
                for layer, names in LAYERS.items()}

    def metrics(self, experiments) -> dict[str, float]:
        """Flat per-layer metric map; every traced name appears, used or not."""
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for name in names:
                out[f"{layer}.{name}.calls"] = self.calls[f"{layer}.{name}"]
                out[f"{layer}.{name}.self_s"] = self.self_s[f"{layer}.{name}"]
        for layer, value in self.layer_self_s().items():
            out[f"{layer}.self_s"] = value
            out[f"{layer}.errors"] = self.errors[layer]
        for exp in experiments:
            out[f"experiments.run_s.{exp}"] = self.run_s[exp]
        op_s = self.self_s["sinkhorn.v_operator"] + self.self_s["sinkhorn.u_operator"]
        out["sinkhorn.kernel_entries"] = self.kernel_entries
        out["sinkhorn.kernel_entries_per_s"] = self.kernel_entries / op_s if op_s > 0 else 0.0
        steps = self.calls["pma.step"]
        out["pma.substeps_per_step"] = self.substeps / steps if steps else 0.0
        out["pma.projection_max"] = self.projection_max
        out["particles.particle_steps"] = sum(self.particle_steps.values())
        for key, short in PARTICLE_STEPS.items():
            moved = self.particle_steps[short]
            out[f"particles.ns_per_particle_step.{short}"] = (
                1e9 * self.total_s[key] / moved if moved else 0.0)
        out["particles.chain_table_bytes"] = self.chain_table_bytes
        return out

    def per_call_ms(self, key: str) -> float | None:
        calls = self.calls[key]
        return 1e3 * self.total_s[key] / calls if calls else None
