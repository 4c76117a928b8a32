"""Per-layer spans recorded from outside the library.

`Tracer.install` replaces each traced function with a timing wrapper in
every `simcache` module namespace that holds it, i.e. where its callers
look it up, and class methods on their class.  Each call adds to the
function's call count, total time, and self time (total minus the time of
traced calls made inside it).  `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

MB = 1024.0 * 1024.0

# name -> (module, attribute path); "cost.PathGeometry" times construction
TRACED = {
    "scenario.generate_scenario": ("simcache.scenario", "generate_scenario"),
    "scenario.load_scenario": ("simcache.scenario", "load_scenario"),
    "cost.PathGeometry": ("simcache.cost", "PathGeometry.__init__"),
    "cost.delays": ("simcache.cost", "PathGeometry.delays"),
    "cost.availability_products": ("simcache.cost", "PathGeometry.availability_products"),
    "cost.lagrangian": ("simcache.cost", "PathGeometry.lagrangian"),
    "gradients.grad_x": ("simcache.gradients", "grad_x"),
    "gradients.grad_q": ("simcache.gradients", "grad_q"),
    "gradients.grad_mu": ("simcache.gradients", "grad_mu"),
    "gradients.x_position_contributions": ("simcache.gradients", "x_position_contributions"),
    "projection.project_cache_matrix": ("simcache.projection", "project_cache_matrix"),
    "projection.project_delivery_matrix": ("simcache.projection", "project_delivery_matrix"),
    "hibsa.solve_offline": ("simcache.hibsa", "solve_offline"),
    "hibsa.primal_step": ("simcache.hibsa", "primal_step"),
    "hibsa.projected_primal_update": ("simcache.hibsa", "projected_primal_update"),
    "hibsa.dual_step": ("simcache.hibsa", "dual_step"),
    "hibsa.round_caching": ("simcache.hibsa", "round_caching"),
    "hibsa.round_delivery": ("simcache.hibsa", "round_delivery"),
    "hibsa.evaluate_integer": ("simcache.hibsa", "evaluate_integer"),
    "online.run_online": ("simcache.online", "run_online"),
    "online.RequestStreams.draw_counts": ("simcache.online", "RequestStreams.draw_counts"),
    "online.stochastic_gradients": ("simcache.online", "stochastic_gradients"),
    "baselines.solve_adaptive_caching": ("simcache.baselines", "solve_adaptive_caching"),
}

# the tracemalloc peak of allocations made inside this function is recorded
# on every PEAK_EVERY-th call; tracing allocations on every call of a
# small grad_x would slow it by more than half
PEAK_TRACED = "gradients.grad_x"
PEAK_EVERY = 8


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(TRACED, 0)
        self.total_s = dict.fromkeys(TRACED, 0.0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.peak_mb = 0.0
        self._stack = []  # child time of each open span
        self._restore = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            peak = name == PEAK_TRACED and self.calls[name] % PEAK_EVERY == 0
            self._stack.append(0.0)
            if peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if peak:
                    self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / MB)
                    tracemalloc.stop()
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - child

        return wrapper

    def install(self):
        for module, _ in TRACED.values():
            importlib.import_module(module)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "simcache" or key.startswith("simcache.")]
        for name, (module, attr) in TRACED.items():
            owner = sys.modules[module]
            if "." in attr:  # method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
