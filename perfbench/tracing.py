"""Spans and counters recorded around the package's public entry points.

Tracing is installed from outside: each entry point is replaced by a wrapper
in every module that holds a binding to it (names re-imported elsewhere, such
as `family4.build_alpha` or `cli.write_fields`, included), and methods are
replaced on their class. Spans stay in memory and are written once, at the
end of the run. A span is (id, name, start, end, parent, run id); a layer's
self time is its spans' duration minus the part covered by child spans. The
parent is the innermost open span of the same thread, so a span opened on a
worker thread is a root.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

from pmcsurf import cli, coeffs, construct, family4, fields, jets, profile, verify

# span name -> (owner, attribute); every owner binding and re-import is wrapped
FUNCTIONS = {
    "construct.construct_surface": (construct, "construct_surface"),
    "construct.build_alpha": (construct, "build_alpha"),
    "construct.omega_W": (construct, "omega_W"),
    "construct.integrate_nu": (construct, "integrate_nu"),
    "construct.gauss_curvature": (construct, "gauss_curvature"),
    "profile.solve_profile": (profile, "solve_profile"),
    "profile.build_potential": (profile, "build_potential"),
    "family4.family_surface": (family4, "family_surface"),
    "family4.family_potential": (family4, "family_potential"),
    "fields.write_fields": (fields, "write_fields"),
    "fields.read_fields": (fields, "read_fields"),
    "verify.verify_suite": (verify, "verify_suite"),
    "cli.cmd_construct": (cli, "cmd_construct"),
    "cli.cmd_family": (cli, "cmd_family"),
}
METHODS = {
    "coeffs.CoeffCache": (coeffs.CoeffCache, "__init__"),
    "coeffs.get": (coeffs.CoeffCache, "get"),
}
MAX_ORDER = 3          # per-order product counts reported; jets.mul_calls counts every order
BYTES_PER_COEFF = 16   # complex128


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [id, name, start, end, parent]
        self.counts: dict = defaultdict(int)
        self._ids = itertools.count()
        self._lock = threading.Lock()    # counts may be bumped from worker threads
        self._local = threading.local()
        self._undo: list = []

    # ---- recording ----

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _wrap(self, name, fn, on_result=None):
        spans, stack_of, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [next(ids), name, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, out)
            return out

        return functools.wraps(fn)(traced)

    def _mul(self, fn):
        """Jet products: a span and product-term counts for Jet x Jet only."""
        count = self.count
        traced = self._wrap("jets.mul", fn)

        def mul(a, b):
            if not isinstance(b, jets.Jet):
                return fn(a, b)
            out = traced(a, b)
            points = int(np.prod(out.coeffs.shape[1:], dtype=np.int64))
            terms = len(jets._product_table(a.order)[0]) * points
            count(f"mul_calls.o{a.order}")
            count("product_terms", terms)
            # gather both operands, write and re-read the product, read-modify-
            # write each output slot per term, zero-fill the output
            count("bytes_moved", BYTES_PER_COEFF * (6 * terms + jets.ncoeff(a.order) * points))
            return out

        return mul

    # ---- installing ----

    def install(self) -> None:
        count = self.count

        def on_construct(args, result):
            m = result.fields.mask
            count("construct.attempted", m.size)
            count("construct.masked", int(np.count_nonzero(m)))
            for bit, key in ((fields.MASK_SINGULAR, "mask_singular"),
                             (fields.MASK_NUPATH, "mask_nupath"),
                             (fields.MASK_DOMAIN, "mask_domain")):
                count(f"construct.{key}", int(np.count_nonzero(m & bit)))

        def on_write(args, path):
            count("fields.bytes_written", os.path.getsize(path))

        def on_read(args, result):
            count("fields.bytes_read", os.path.getsize(os.path.join(args[0], "fields.csv")))

        batches = weakref.WeakValueDictionary()   # id -> live point batch

        def on_cache(args, result):
            # verify builds one cache per t9 reading on the same point batch
            point = args[1]
            with self._lock:
                if batches.get(id(point)) is point:
                    return
                batches[id(point)] = point
            count("coeffs.points_evaluated", point.alpha.size)

        def on_suite(args, report):
            count("verify.residual_tasks", len(report.rows))

        hooks = {"construct.construct_surface": on_construct, "fields.write_fields": on_write,
                 "fields.read_fields": on_read, "coeffs.CoeffCache": on_cache,
                 "verify.verify_suite": on_suite}
        modules = [m for n, m in sys.modules.items() if n == "pmcsurf" or n.startswith("pmcsurf.")]
        for name, (owner, attr) in FUNCTIONS.items():
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, val))
                        setattr(mod, key, wrapper)
        for name, (cls, attr) in METHODS.items():
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, hooks.get(name)))
        orig = jets.Jet.__dict__["__mul__"]
        mul = self._mul(orig)
        for attr in ("__mul__", "__rmul__"):
            self._undo.append((jets.Jet, attr, jets.Jet.__dict__[attr]))
            setattr(jets.Jet, attr, mul)

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._undo):
            setattr(owner, key, val)
        self._undo.clear()

    # ---- results ----

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "columns": ["id", "name", "start", "end", "parent", "run_id"],
                       "spans": [s + [self.run_id] for s in self.spans],
                       "counts": dict(self.counts)}, fh)

    def metrics(self) -> dict:
        """Per-layer totals, self times, counts and ratios, keyed by metric name."""
        total, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        child = defaultdict(float)
        names = {span[0]: span[1] for span in self.spans}
        cascade_s = 0.0   # time inside an outermost coeffs span
        for sid, name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
            if name.startswith("coeffs.") and not names.get(parent, "").startswith("coeffs."):
                cascade_s += end - start
        for sid, name, start, end, parent in self.spans:
            total[name] += end - start
            self_t[name] += end - start - child[sid]
            calls[name] += 1
        c = self.counts
        points = c["coeffs.points_evaluated"]
        return {
            "jets.mul_calls": sum(v for k, v in c.items() if k.startswith("mul_calls.o")),
            **{f"jets.mul_calls.o{k}": c[f"mul_calls.o{k}"] for k in range(MAX_ORDER + 1)},
            "jets.product_terms": c["product_terms"],
            "jets.product_terms_per_point": c["product_terms"] / points if points else 0.0,
            "jets.bytes_moved_computed": c["bytes_moved"],
            "jets.mul_s": total["jets.mul"],
            "jets.terms_per_s": c["product_terms"] / total["jets.mul"] if total["jets.mul"] else 0.0,
            "coeffs.cascade_s": cascade_s,
            "coeffs.caches_built": calls["coeffs.CoeffCache"],
            "coeffs.points_evaluated": points,
            "coeffs.get_calls": calls["coeffs.get"],
            "verify.verify_suite_s": self_t["verify.verify_suite"],
            "verify.residual_tasks": c["verify.residual_tasks"],
            "construct.construct_surface_s": self_t["construct.construct_surface"],
            "construct.build_alpha_s": total["construct.build_alpha"],
            "construct.omega_W_s": total["construct.omega_W"],
            "construct.integrate_nu_s": total["construct.integrate_nu"],
            "construct.gauss_curvature_s": total["construct.gauss_curvature"],
            "construct.mask_singular": c["construct.mask_singular"],
            "construct.mask_nupath": c["construct.mask_nupath"],
            "construct.mask_domain": c["construct.mask_domain"],
            "construct.masked_frac": (c["construct.masked"] / c["construct.attempted"]
                                      if c["construct.attempted"] else 0.0),
            "profile.solve_profile_s": total["profile.solve_profile"],
            "profile.build_potential_s": total["profile.build_potential"],
            "family4.family_surface_s": self_t["family4.family_surface"],
            "family4.family_potential_s": total["family4.family_potential"],
            "fields.write_fields_s": total["fields.write_fields"],
            "fields.read_fields_s": total["fields.read_fields"],
            "fields.bytes_written": c["fields.bytes_written"],
            "fields.write_MBps": (c["fields.bytes_written"] / 1e6 / total["fields.write_fields"]
                                  if total["fields.write_fields"] else 0.0),
            "fields.read_MBps": (c["fields.bytes_read"] / 1e6 / total["fields.read_fields"]
                                 if total["fields.read_fields"] else 0.0),
            "cli.construct_s": self_t["cli.cmd_construct"],
            "cli.family_s": self_t["cli.cmd_family"],
        }
