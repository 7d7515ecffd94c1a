"""The four workloads: one pass of each calls bianchi_lab's public
functions and checks every output.

Library functions are always reached through their module
(``bvp.assemble``, never a name imported from it), so the tracer's
patches apply to the benchmark's own calls as well.

An operation is one verify case, one solve, or one spectrum or probe.  An
operation fails when the program reports the failure itself (a verify
case that does not pass, an exception, an eikonal Newton solve that did not
converge).  An output that the benchmark's own check finds wrong is a
problem and makes the run incorrect.
"""

from __future__ import annotations

import time
import traceback
from itertools import product

import numpy as np
import scipy.linalg

import checks
from bianchi_lab import boundary, bvp, charts, quadrature, verify

DIM = 3


class Tally:
    """Operation counts and check problems of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []   # one entry per failed operation
        self.problems = []   # outputs the checks found wrong
        self.seconds = {}    # operation name -> wall seconds, all passes

    @property
    def failed(self):
        return len(self.failures)

    def run(self, name, fn, *args, **kwargs):
        """Call fn, timed under name; an exception is a failed operation."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{name}: raised\n{traceback.format_exc()}")
            return None
        finally:
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + time.perf_counter() - t0)

    def op(self, name, fn, *args, **kwargs):
        """One operation: counted as attempted, then run."""
        self.attempted += 1
        return self.run(name, fn, *args, **kwargs)

    def fail(self, name, reason):
        self.failures.append(f"{name}: {reason}")

    def check(self, name, problems):
        self.problems.extend(f"{name}: {p}" for p in problems)


def _suite(tally, name, cfg):
    """One verify suite: each case is an operation, failing unless it
    passes; the suite call itself counts only if it raises."""
    cases = tally.run(name, verify.run_suite, name, cfg)
    if cases is None:
        tally.attempted += 1
        return
    for case in cases:
        tally.attempted += 1
        if not case["pass"]:
            tally.fail(f"{name}/{case['name']}",
                       f"value {case['value']!r} tol {case['tolerance']!r}")


# ---------------------------------------------------------------------------
# pointwise-geometry

# The boundary suite's d=4 Gauss-Codazzi cases and d=5 Weyl case take 16
# of its 23 s (2-vCPU Xeon VM) in per-product Python overhead and add no
# new code path; d=4 stays covered by the Weyl case.  The other suites run
# at their defaults.
GEOMETRY_SUITES = (("algebra", {}), ("calculus", {}),
                   ("boundary", {"dims": [3], "dims_weyl": [4]}),
                   ("linearization", {}))


def _metric_values(chart):
    return lambda pts: charts.tensor_values(chart.metric_jets(pts, 0))


def _eikonal_directions(d):
    """Rays from a face point: the inward normal and inward diagonals."""
    normal = np.eye(d)[d - 1]
    out = [normal]
    for a in range(d - 1):
        for s in (1.0, -1.0):
            out.append((s * np.eye(d)[a] + normal) / np.sqrt(2.0))
    return out


def _eikonal(tally, name, state):
    """|grad r|^2_g = 1 near each face point, to the order of the jet.

    The faces here are lower faces (``face=0``), where the jet's
    coordinates are the chart's."""
    rjet, d = state.rjet, state.rjet.dim
    x = state.collar.ambient_point(state.y)
    coeffs = {alpha: np.broadcast_to(rjet.coeff(alpha), x.shape[:1])
              for alpha in product(range(rjet.order + 1), repeat=d)
              if sum(alpha) <= rjet.order}
    ray_coeffs = checks.eikonal_ray_coefficients(
        coeffs, x, _metric_values(state.collar.chart), _eikonal_directions(d))
    for problem in checks.check_eikonal(ray_coeffs, rjet.order):
        tally.fail(name, problem)


def pointwise_geometry(seed, tally):
    for name, extra in GEOMETRY_SUITES:
        _suite(tally, name, {"seed": seed, **extra})
    rng = np.random.default_rng(seed)

    chart = charts.make_chart("curved_generic", DIM,
                              seed=int(rng.integers(1, 1000)))
    pts = rng.uniform(0.2, 0.8, size=(4, DIM))
    geom = tally.op("ricci-curved-generic", charts.chart_geometry, chart,
                    pts, order=2)
    if geom is not None:
        ric = charts.tensor_values(geom.ric)
        tally.check("ricci-curved-generic", checks.check_ricci(
            ric, checks.fd_ricci(_metric_values(chart), pts)))

    radius = float(rng.uniform(1.5, 3.0))
    ball = charts.make_chart("polar_ball", DIM, radius=radius)
    y = np.stack([rng.uniform(0.9, 2.1, 6), rng.uniform(0.1, 1.1, 6)],
                 axis=-1)
    state = tally.op("sphere-frame", boundary.boundary_state,
                     boundary.CollarChart(ball), y)
    if state is not None:
        f = state.frame
        tally.check("sphere-frame", checks.check_sphere_frame(
            f.mean_curv, f.second_ff, f.induced_metric, radius, DIM))
        _eikonal(tally, "sphere-frame", state)

    y = rng.uniform(0.1, 0.9, size=(6, DIM - 1))
    state = tally.op("eikonal-curved-generic", boundary.boundary_state,
                     boundary.CollarChart(chart), y)
    if state is not None:
        _eikonal(tally, "eikonal-curved-generic", state)


# ---------------------------------------------------------------------------
# green-quadrature

GREEN_GRIDS = [8, 16, 32]


def green_quadrature(seed, tally):
    _suite(tally, "green", {"seed": seed, "grid": GREEN_GRIDS})
    rng = np.random.default_rng(seed)
    slab = charts.make_chart("flat_slab_periodic", DIM)
    for n in GREEN_GRIDS:
        grid = quadrature.GridSpec.for_chart(slab, n)
        f, c0 = checks.trig_polynomial(rng, DIM, n)
        value = tally.op(f"midpoint-interior-n{n}",
                         quadrature.integrate_scalar_samples, grid,
                         f(quadrature.interior_nodes(grid)), "interior")
        if value is not None:
            tally.check(f"midpoint-interior-n{n}",
                        checks.check_integral(value, c0))
        g, c1 = checks.trig_polynomial(rng, DIM - 1, n)
        lateral = quadrature.face_nodes(grid, 1)[:, :-1]
        value = tally.op(f"midpoint-face-n{n}",
                         quadrature.integrate_scalar_samples, grid,
                         g(lateral), "boundary")
        if value is not None:
            tally.check(f"midpoint-face-n{n}",
                        checks.check_integral(value, c1))


# ---------------------------------------------------------------------------
# slab-solve

# The discrete-admissible source needs n >= 15; one LSMR solve there takes
# about 15 s (2-vCPU Xeon VM), so it is the only solve above n = 10.  The continuum study
# needs three grids for its slope.
SOLVES = (("discrete-admissible", (15,)),
          ("continuum-admissible", (6, 8, 10)),
          ("inadmissible-divergence", (8, 10)),
          ("inadmissible-boundary", (8, 10)))


def _solve(chart, n, kind, seed):
    system = bvp.assemble(n, chart)
    source = bvp.make_source(n, chart, kind, seed=seed)
    x, report = bvp.solve_least_squares(system, source)
    b = system.rhs_from_einstein_block(source.values)
    return checks.relative_residual(system.matrix, x, b), report


def slab_solve(seed, tally):
    chart = charts.make_chart("flat_slab_periodic", DIM)
    for kind, grids in SOLVES:
        rels = []
        for n in grids:
            name = f"solve-{kind}-n{n}"
            out = tally.op(name, _solve, chart, n, kind, seed)
            if out is None:
                continue
            rel, report = out
            if not report.converged:
                tally.fail(name, f"LSMR stopped after {report.iterations} "
                                 f"iterations without converging")
                continue
            tally.check(name, checks.check_solve(
                kind, rel, report.relative_residual))
            rels.append(rel)
        if kind == "continuum-admissible" and len(rels) == len(grids):
            tally.check("continuum-slope", checks.check_slope(grids, rels))


# ---------------------------------------------------------------------------
# slab-spectra

SPECTRA_GRIDS = (8, 12)
# A dense SVD of the assembled matrix takes 8.6 s at n=8 and 0.04 s at n=4
# (2-vCPU Xeon VM).
DENSE_GRID = 4


def slab_spectra(seed, tally):
    chart = charts.make_chart("flat_slab_periodic", DIM)
    spectra = {}
    for n in (DENSE_GRID,) + SPECTRA_GRIDS:
        out = tally.op(f"lateral-block-svals-n{n}", bvp.lateral_block_svals,
                       n, DIM)
        if out is not None:
            spectra[n] = out["spectrum"]
            tally.check(f"lateral-block-svals-n{n}",
                        checks.check_positive_spectrum(spectra[n]))

    if DENSE_GRID in spectra:
        dense = scipy.linalg.svdvals(
            bvp.assemble(DENSE_GRID, chart).matrix.toarray())
        tally.check(f"dense-svd-n{DENSE_GRID}",
                    checks.check_sigma_min(spectra[DENSE_GRID], dense))

    n = SPECTRA_GRIDS[0]
    out = tally.op(f"deflated-gap-n{n}", bvp.deflated_gap, n, DIM)
    if out is not None and n in spectra:
        tally.check(f"deflated-gap-n{n}", checks.check_gap(*out, spectra[n]))
    probe = tally.op(f"kernel-probe-n{n}", lambda: bvp.kernel_probe(
        bvp.assemble(n, chart).matrix, seed=seed))
    if probe is not None and n in spectra:
        tally.check(f"kernel-probe-n{n}",
                    checks.check_kernel_probe(probe, spectra[n]))

    for n in SPECTRA_GRIDS:
        out = tally.op(f"cohomology-n{n}", bvp.cohomology_probe, n, chart)
        if out is not None:
            tally.check(f"cohomology-n{n}", checks.check_slab_cohomology(out))
    n = SPECTRA_GRIDS[0]
    out = tally.op(f"cohomology-torus-n{n}", bvp.cohomology_probe, n, chart,
                   closed_torus=True)
    if out is not None:
        tally.check(f"cohomology-torus-n{n}", checks.check_torus(out, DIM))


WORKLOADS = {
    "pointwise-geometry": pointwise_geometry,
    "green-quadrature": green_quadrature,
    "slab-solve": slab_solve,
    "slab-spectra": slab_spectra,
}
