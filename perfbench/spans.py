"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``confgauss`` from the outside: each
wrapped call records a span (name, start, end, parent, request).  A
function is replaced in every ``confgauss.*`` module namespace that binds
it, so ``from .x import f`` bindings are caught, and in every module-level
list that holds it (``acceptance.CRITERIA``).  ``ChartGrid.d_u``/``d_v``
and ``ChartGrid.__post_init__`` are wrapped on the class.  ``uninstall``
puts every original back.

A span's self time is its duration minus the durations of its child spans.
Work done by unwrapped code is charged to the nearest wrapped caller; in
particular the lazily computed ``CongruenceGrid.Yzz``/``Yzzb`` are charged
to whichever span first reads them (their stencil passes are spans of
their own).  Hashing the inputs of axis passes, done to count repeated
passes, is recorded as a ``trace.hash`` span so that it is subtracted from
its caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

# (module, public function, span name)
FUNCTIONS = [
    ("zoo", "sample", "zoo.sample"),
    ("grid", "fundamental_data", "grid.fundamental_data"),
    ("grid", "export_csv", "grid.export_csv"),
    ("models", "representation", "models.representation"),
    ("jets", "push_stereo", "jets.push"),
    ("jets", "push_stereo_inv", "jets.push"),
    ("jets", "push_hyper", "jets.push"),
    ("jets", "push_hyper_inv", "jets.push"),
    ("jets", "push_word", "jets.push"),
    ("lorentz", "lorentz_product", "lorentz.product"),
    ("congruence", "conformal_gauss_map", "congruence.gauss_map"),
    ("congruence", "transform_immersion", "congruence.transform_immersion"),
    ("congruence", "isotropic_frame", "congruence.isotropic_frame"),
    ("willmore", "willmore_scalar", "willmore.scalar"),
    ("willmore", "harmonicity_residual", "willmore.harmonicity_residual"),
    ("willmore", "direct_currents", "willmore.direct_currents"),
    ("willmore", "conserved_matrix", "willmore.conserved_matrix"),
    ("classify", "classify_data", "classify.classify_data"),
    ("classify", "bryant_q", "classify.bryant_q"),
    ("classify", "estimate_classification_noise", "classify.noise_estimate"),
    ("classify", "classification_value", "classify.classification_value"),
    ("classify", "hyperplane_fit", "classify.hyperplane_fit"),
    ("cli", "main", "cli.main"),
]

CRITERIA_COUNT = 11

# per-layer metric -> (unit, better); the order is the report order
LAYER_METRICS = {
    "zoo.sample_calls": ("count", "lower"),
    "zoo.sample_s": ("s", "lower"),
    "grid.axis_passes": ("count", "lower"),
    "grid.axis_pass_unique_frac": ("frac", "higher"),
    "grid.axis_pass_s": ("s", "lower"),
    "grid.fundamental_data_calls": ("count", "lower"),
    "grid.fundamental_data_s": ("s", "lower"),
    "grid.chartgrid_builds": ("count", "lower"),
    "grid.export_csv_s": ("s", "lower"),
    "grid.export_csv_mb": ("MB", "lower"),
    "models.representation_calls": ("count", "lower"),
    "models.representation_s": ("s", "lower"),
    "jets.push_calls": ("count", "lower"),
    "jets.push_s": ("s", "lower"),
    "lorentz.product_calls": ("count", "lower"),
    "lorentz.product_s": ("s", "lower"),
    "congruence.gauss_map_calls": ("count", "lower"),
    "congruence.gauss_map_s": ("s", "lower"),
    "congruence.transform_immersion_s": ("s", "lower"),
    "congruence.isotropic_frame_s": ("s", "lower"),
    "willmore.scalar_calls": ("count", "lower"),
    "willmore.scalar_s": ("s", "lower"),
    "willmore.harmonicity_residual_s": ("s", "lower"),
    "willmore.direct_currents_s": ("s", "lower"),
    "willmore.conserved_matrix_s": ("s", "lower"),
    "classify.classify_data_calls": ("count", "lower"),
    "classify.classify_data_self_s": ("s", "lower"),
    "classify.bryant_q_s": ("s", "lower"),
    "classify.noise_estimate_s": ("s", "lower"),
    "classify.classification_value_s": ("s", "lower"),
    "classify.hyperplane_fit_s": ("s", "lower"),
    **{f"acceptance.criterion{k:02d}_s": ("s", "lower")
       for k in range(1, CRITERIA_COUNT + 1)},
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

# metric -> span whose call count it reports
_CALL_METRICS = {
    "zoo.sample_calls": "zoo.sample",
    "grid.axis_passes": "grid.axis_pass",
    "grid.fundamental_data_calls": "grid.fundamental_data",
    "grid.chartgrid_builds": "grid.chartgrid_build",
    "models.representation_calls": "models.representation",
    "jets.push_calls": "jets.push",
    "lorentz.product_calls": "lorentz.product",
    "congruence.gauss_map_calls": "congruence.gauss_map",
    "willmore.scalar_calls": "willmore.scalar",
    "classify.classify_data_calls": "classify.classify_data",
}

# metric -> span whose self seconds it reports
_SELF_METRICS = {
    "zoo.sample_s": "zoo.sample",
    "grid.axis_pass_s": "grid.axis_pass",
    "grid.fundamental_data_s": "grid.fundamental_data",
    "grid.export_csv_s": "grid.export_csv",
    "models.representation_s": "models.representation",
    "jets.push_s": "jets.push",
    "lorentz.product_s": "lorentz.product",
    "congruence.gauss_map_s": "congruence.gauss_map",
    "congruence.transform_immersion_s": "congruence.transform_immersion",
    "congruence.isotropic_frame_s": "congruence.isotropic_frame",
    "willmore.scalar_s": "willmore.scalar",
    "willmore.harmonicity_residual_s": "willmore.harmonicity_residual",
    "willmore.direct_currents_s": "willmore.direct_currents",
    "willmore.conserved_matrix_s": "willmore.conserved_matrix",
    "classify.classify_data_self_s": "classify.classify_data",
    "classify.bryant_q_s": "classify.bryant_q",
    "classify.noise_estimate_s": "classify.noise_estimate",
    "classify.classification_value_s": "classify.classification_value",
    "classify.hyperplane_fit_s": "classify.hyperplane_fit",
    "cli.self_s": "cli.main",
}


def _confgauss_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "confgauss" or name.startswith("confgauss.")]


class Tracer:
    """Records spans of wrapped ``confgauss`` calls, in memory."""

    def __init__(self):
        # each span: [name, start, end, parent index, request index]
        self.spans = []
        self._stack = []
        self._request = -1
        self._seen_passes = set()
        self.axis_passes = 0
        self.unique_axis_passes = 0
        self.export_bytes = 0
        self._patches = []

    # -- spans ----------------------------------------------------------
    def _open(self, name, root=False):
        """Open a span; outside a request (e.g. in a check) record nothing."""
        if not (root or self._stack):
            return None
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        if idx is not None:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _begin_scope(self):
        """Start a new request scope for counting repeated axis passes."""
        self._seen_passes.clear()

    @contextlib.contextmanager
    def request(self, label):
        """Root span of one benchmark request."""
        self._request += 1
        self._begin_scope()
        idx = self._open(f"request:{label}", root=True)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args)
            return result

        return wrapper

    def _hash_pass(self, axis):
        def before(args):
            if not self._stack:
                return
            grid, f = args[0], np.ascontiguousarray(args[1])
            idx = self._open("trace.hash")
            try:
                n, h = (len(grid.u), grid.hu) if axis == 0 else (len(grid.v), grid.hv)
                digest = hashlib.blake2b(f, digest_size=16)
                key = (axis, n, h, f.shape, f.dtype.str, digest.digest())
            finally:
                self._close(idx)
            self.axis_passes += 1
            if key not in self._seen_passes:
                self._seen_passes.add(key)
                self.unique_axis_passes += 1
        return before

    def _count_export(self, args):
        if self._stack:
            self.export_bytes += os.path.getsize(args[0])

    def _scope_reset(self, args):
        self._begin_scope()

    def _rebind(self, orig, wrapper):
        """Replace ``orig`` by ``wrapper`` wherever a confgauss module binds it."""
        for mod in _confgauss_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig, "attr"))
                elif type(value) is list:
                    for i, item in enumerate(value):
                        if item is orig:
                            value[i] = wrapper
                            self._patches.append((value, i, orig, "item"))

    def install(self):
        import confgauss.acceptance  # noqa: F401  (loads every submodule)
        import confgauss.cli  # noqa: F401
        from confgauss import acceptance
        from confgauss.grid import ChartGrid

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__: m for m in _confgauss_modules()}
        for modname, attr, span in FUNCTIONS:
            orig = getattr(modules[f"confgauss.{modname}"], attr)
            after = self._count_export if span == "grid.export_csv" else None
            self._rebind(orig, self._wrap(orig, span, after=after))
        for idx, crit in enumerate(list(acceptance.CRITERIA), start=1):
            span = f"acceptance.criterion{idx:02d}"
            self._rebind(crit, self._wrap(crit, span, before=self._scope_reset))
        for attr, span, before in [
            ("d_u", "grid.axis_pass", self._hash_pass(0)),
            ("d_v", "grid.axis_pass", self._hash_pass(1)),
            ("__post_init__", "grid.chartgrid_build", None),
        ]:
            orig = ChartGrid.__dict__[attr]
            setattr(ChartGrid, attr, self._wrap(orig, span, before=before))
            self._patches.append((ChartGrid, attr, orig, "attr"))

    def uninstall(self):
        for target, key, orig, kind in reversed(self._patches):
            if kind == "attr":
                setattr(target, key, orig)
            else:
                target[key] = orig
        self._patches = []

    # -- results --------------------------------------------------------
    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out = {}
        for i, (name, _, _, _, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur[i], self_s + dur[i] - child[i])
        return out

    def layer_metrics(self, requests, rounds, overhead_frac):
        """Every per-layer metric, as counts and self seconds per request.

        ``acceptance.criterionNN_s`` is the criterion's inclusive time per
        round, i.e. the latency of that request.
        """
        totals = self.totals()
        metrics = {}
        for name in LAYER_METRICS:
            if name in _CALL_METRICS:
                value = totals.get(_CALL_METRICS[name], (0, 0.0, 0.0))[0] / requests
            elif name in _SELF_METRICS:
                value = totals.get(_SELF_METRICS[name], (0, 0.0, 0.0))[2] / requests
            elif name.startswith("acceptance.criterion"):
                span = name[: -len("_s")]
                value = totals.get(span, (0, 0.0, 0.0))[1] / rounds
            elif name == "grid.axis_pass_unique_frac":
                value = (self.unique_axis_passes / self.axis_passes
                         if self.axis_passes else 0.0)
            elif name == "grid.export_csv_mb":
                value = self.export_bytes / 1e6 / requests
            else:  # trace.overhead_frac
                value = overhead_frac
            metrics[name] = {"value": value, "unit": LAYER_METRICS[name][0]}
        return metrics

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
