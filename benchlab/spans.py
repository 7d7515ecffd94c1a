"""Span tracing of bianchi_lab's public functions, from outside the program.

Each traced function is replaced by a wrapper in every place its callers
look it up: the module that defines it, every bianchi_lab module that
imported the name directly (``verify`` and ``bvp`` do), the class dict for
methods (``Jet.__rmul__`` is the same function as ``Jet.__mul__``) and the
``verify.SUITES`` table.  A call records a span (name, start, end, parent);
spans stay in memory and are written once, when the run ends.

Spans are grouped; a group is one per-layer metric family.  A call made
while a span of the same group is open is not traced, so inclusive group
times never count the same interval twice.  The jet and algebra groups are
called hundreds of thousands of times per pass, so their spans are folded
into per-parent (calls, seconds) totals instead of being stored one by one.

Self time is a span's duration less the duration of its traced children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from math import comb, prod

__all__ = ["Tracer", "targets", "per_layer_metrics", "PER_LAYER"]

# metric name -> (unit, better)
PER_LAYER = {
    "jets.mul.calls": ("count", "lower"),
    "jets.mul.s": ("s", "lower"),
    "jets.mul.gflop": ("GFLOP", "lower"),
    "jets.mul.gflops": ("GFLOP/s", "higher"),
    "jets.mul.gb": ("GB", "lower"),
    "jets.series.s": ("s", "lower"),
    "jets.matrix_inverse.s": ("s", "lower"),
    "charts.geometry_from_jets.calls": ("count", "lower"),
    "charts.geometry_from_jets.s": ("s", "lower"),
    "charts.nabla.s": ("s", "lower"),
    "charts.metric_jets.s": ("s", "lower"),
    "algebra.calls": ("count", "lower"),
    "algebra.s": ("s", "lower"),
    "boundary.boundary_state.calls": ("count", "lower"),
    "boundary.boundary_state.s": ("s", "lower"),
    "boundary.distance_jet.s": ("s", "lower"),
    "boundary.weyl_constraint.s": ("s", "lower"),
    "linearize.dein_closed_jets.calls": ("count", "lower"),
    "linearize.dein_closed_jets.s": ("s", "lower"),
    "linearize.normal_identity.s": ("s", "lower"),
    "quadrature.defect.s": ("s", "lower"),
    "quadrature.nodes": ("count", "lower"),
    "bvp.assemble.s": ("s", "lower"),
    "bvp.assemble.nnz": ("count", "lower"),
    "bvp.make_source.s": ("s", "lower"),
    "bvp.lsmr.s": ("s", "lower"),
    "bvp.lsmr.iterations": ("count", "lower"),
    "bvp.lsmr.solves": ("count", "lower"),
    "bvp.blocks.s": ("s", "lower"),
    "bvp.blocks.count": ("count", "lower"),
    "bvp.probe.s": ("s", "lower"),
    "verify.suite.algebra.s": ("s", "lower"),
    "verify.suite.calculus.s": ("s", "lower"),
    "verify.suite.boundary.s": ("s", "lower"),
    "verify.suite.linearization.s": ("s", "lower"),
    "verify.suite.green.s": ("s", "lower"),
    "conventions.load.s": ("s", "lower"),
}

# groups whose spans are folded into per-parent totals
FOLDED = ("jets.", "algebra")


class _Frame:
    __slots__ = ("name", "group", "start", "child", "sid")

    def __init__(self, name, group, start, sid):
        self.name = name
        self.group = group
        self.start = start
        self.child = 0.0
        self.sid = sid


class Tracer:
    """In-memory span recorder; ``install`` patches bianchi_lab in place."""

    def __init__(self):
        self.spans = []      # [id, name, start, end, parent id]
        self.folded = {}     # (parent id, name) -> [calls, seconds]
        self.by_name = {}    # name -> [calls, inclusive s, self s]
        self.by_group = {}   # group -> [calls, inclusive s]
        self.counters = {}   # counter name -> value
        self._stack = []
        self._patched = []   # (container, key, original) for restore
        self.t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name, group, hook):
        stack = self._stack
        folded = group.startswith(FOLDED)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1].group == group:
                return fn(*args, **kwargs)
            parent = stack[-1].sid if stack else None
            if folded:
                sid = parent
            else:
                sid = len(self.spans)
                self.spans.append(None)
            frame = _Frame(name, group, clock(), sid)
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                if stack:
                    stack[-1].child += dur
                rec = self.by_name.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame.child
                grp = self.by_group.setdefault(group, [0, 0.0])
                grp[0] += 1
                grp[1] += dur
                if folded:
                    tot = self.folded.setdefault((parent, name), [0, 0.0])
                    tot[0] += 1
                    tot[1] += dur
                else:
                    self.spans[sid] = [sid, name, frame.start - self.t0,
                                       end - self.t0, parent]
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, wrapped, containers):
        hits = 0
        for container in containers:
            items = (container.items() if isinstance(container, dict)
                     else vars(container).items())
            for key, value in list(items):
                if value is original:
                    self._patched.append((container, key, value))
                    if isinstance(container, dict):
                        container[key] = wrapped
                    else:
                        setattr(container, key, wrapped)
                    hits += 1
        return hits

    def install(self, package_modules, targets, extra_containers=()):
        """Wrap each (owner, attribute, name, group, hook) target.

        ``owner`` is a module or class; the wrapper replaces the original
        object wherever ``package_modules``, ``owner`` or
        ``extra_containers`` hold it.
        """
        for owner, attr, name, group, hook in targets:
            original = vars(owner)[attr]
            wrapped = self._wrap(original, name, group, hook)
            containers = [owner] + [m for m in package_modules
                                    if m is not owner]
            containers += list(extra_containers)
            if not self._replace_everywhere(original, wrapped, containers):
                raise RuntimeError(f"could not patch {name}")

    def uninstall(self):
        for container, key, value in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path, meta):
        spans = [s for s in self.spans if s is not None]
        folded = [[parent, name, calls, secs]
                  for (parent, name), (calls, secs) in self.folded.items()]
        summary = {name: {"calls": c, "inclusive_s": inc, "self_s": slf}
                   for name, (c, inc, slf) in sorted(self.by_name.items())}
        with open(path, "w") as fh:
            json.dump({"meta": meta, "summary": summary,
                       "counters": self.counters,
                       "spans": {"fields": ["id", "name", "start", "end",
                                            "parent"], "rows": spans},
                       "folded": {"fields": ["parent", "name", "calls",
                                             "seconds"], "rows": folded}},
                      fh)


# ---------------------------------------------------------------------------
# counters computed from arguments and results


def _jet_mul_hook(tracer, args, kwargs, out):
    """Computed work of one product from the table size and batch shape.

    A jet of order p in d variables has K = C(p + d, d) coefficients; the
    product table pairs every (alpha, beta) with |alpha| + |beta| <= p,
    which is C(p + 2d, 2d) pairs.  One multiply-add per pair and batch
    point; bytes are the gathered operands (two per pair) and the K
    outputs, 8 bytes each.  A product by a scalar is K multiplies.
    """
    dim, order = out.dim, out.order
    batch = prod(out.c.shape[:-1])
    k = comb(order + dim, dim)
    if any(type(a) is type(out) for a in args[1:]):
        pairs = comb(order + 2 * dim, 2 * dim)
        tracer.count("jets.mul.flop", pairs * batch)
        tracer.count("jets.mul.bytes", 8 * batch * (2 * pairs + k))
    else:
        tracer.count("jets.mul.flop", k * batch)
        tracer.count("jets.mul.bytes", 8 * batch * 2 * k)


def _nnz_hook(tracer, args, kwargs, out):
    tracer.count("bvp.assemble.nnz", out.matrix.nnz)


def _lsmr_hook(tracer, args, kwargs, out):
    tracer.count("bvp.lsmr.iterations", out[1].iterations)
    tracer.count("bvp.lsmr.solves", 1)


def _nodes_hook(tracer, args, kwargs, out):
    tracer.count("quadrature.nodes", out.shape[0])


def _blocks_hook(fn):
    sig = inspect.signature(fn)

    def hook(tracer, args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        n, d = bound.arguments["n"], bound.arguments["d"]
        torus = bound.arguments.get("closed_torus", False)
        tracer.count("bvp.blocks.count", n ** (d if torus else d - 1))

    return hook


def targets(bl):
    """The traced functions of the bianchi_lab package ``bl``."""
    jets, charts, algebra = bl.jets, bl.charts, bl.algebra
    boundary, linearize, quadrature = bl.boundary, bl.linearize, bl.quadrature
    bvp, verify, conventions = bl.bvp, bl.verify, bl.conventions
    out = [
        (jets.Jet, "__mul__", "jets.mul", "jets.mul", _jet_mul_hook),
        (jets.Jet, "_series", "jets.series", "jets.series", None),
        (jets, "jet_matrix_inverse", "jets.matrix_inverse",
         "jets.matrix_inverse", None),
        (charts, "geometry_from_jets", "charts.geometry_from_jets",
         "charts.geometry_from_jets", None),
        (charts, "nabla", "charts.nabla", "charts.nabla", None),
        (charts.MetricChart, "metric_jets", "charts.metric_jets",
         "charts.metric_jets", None),
        (boundary, "boundary_state", "boundary.boundary_state",
         "boundary.boundary_state", None),
        (boundary, "distance_jet", "boundary.distance_jet",
         "boundary.distance_jet", None),
        (boundary, "weyl_constraint_residual_at", "boundary.weyl_constraint",
         "boundary.weyl_constraint", None),
        (linearize, "dein_closed_jets", "linearize.dein_closed_jets",
         "linearize.dein_closed_jets", None),
        (linearize, "normal_identity_residuals", "linearize.normal_identity",
         "linearize.normal_identity", None),
        (quadrature, "interior_nodes", "quadrature.interior_nodes",
         "quadrature.nodes", _nodes_hook),
        (quadrature, "face_nodes", "quadrature.face_nodes",
         "quadrature.nodes", _nodes_hook),
        (bvp, "assemble", "bvp.assemble", "bvp.assemble", _nnz_hook),
        (bvp, "make_source", "bvp.make_source", "bvp.make_source", None),
        (bvp, "solve_least_squares", "bvp.solve_least_squares", "bvp.lsmr",
         _lsmr_hook),
        (bvp, "kernel_probe", "bvp.kernel_probe", "bvp.probe", None),
        (bvp, "cohomology_probe", "bvp.cohomology_probe", "bvp.probe", None),
        (conventions, "load_conventions", "conventions.load",
         "conventions.load", None),
    ]
    for fn in ("green_killing_defect", "green_einstein_sym_defect",
               "dewitt_green_ric_defect"):
        out.append((quadrature, fn, f"quadrature.{fn}", "quadrature.defect",
                    None))
    for fn in ("lateral_block_svals", "h0_spectrum", "h1_spectrum"):
        out.append((bvp, fn, f"bvp.{fn}", "bvp.blocks",
                    _blocks_hook(getattr(bvp, fn))))
    for fn in algebra.__all__:
        obj = getattr(algebra, fn)
        if inspect.isfunction(obj):
            out.append((algebra, fn, f"algebra.{fn}", "algebra", None))
    for suite in ("algebra", "calculus", "boundary", "linearization",
                  "green"):
        out.append((verify, f"suite_{suite}", f"verify.suite.{suite}",
                    f"verify.suite.{suite}", None))
    return out


def per_layer_metrics(tracer, passes):
    """Every PER_LAYER metric, per pass, from a finished traced run.

    ``<group>.calls`` and ``<group>.s`` are the calls and inclusive seconds
    of a span group; the other counts are counters of the same name.
    ``conventions.load.s`` is per run, not per pass: the first call in
    this process reads the artifact cold, later calls return the cached
    copy, and the set-up probes run untraced in other interpreters.
    """
    calls = {g: c for g, (c, _) in tracer.by_group.items()}
    secs = {g: t for g, (_, t) in tracer.by_group.items()}
    flop = tracer.counters.get("jets.mul.flop", 0)
    mul_s = secs.get("jets.mul", 0.0)
    values = {
        "jets.mul.gflop": flop / 1e9 / passes,
        "jets.mul.gflops": flop / 1e9 / mul_s if mul_s else 0.0,
        "jets.mul.gb": tracer.counters.get("jets.mul.bytes", 0) / 1e9
        / passes,
        "conventions.load.s": secs.get("conventions.load", 0.0),
    }
    for name in PER_LAYER:
        if name in values:
            continue
        if name.endswith(".calls"):
            total = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".s"):
            total = secs.get(name[:-len(".s")], 0.0)
        else:
            total = tracer.counters.get(name, 0)
        values[name] = total / passes
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}
