"""The tensor-jet engine against the object-array engine it replaced.

Every jet coefficient of every field must agree to 1e-12 of the largest
reference coefficient of the same computation (the whole Geometry, the
three dRic parts), so that roundoff-level curvature on the flat
``polar_ball`` chart is measured against the size of the terms that
cancel in it.  The boundary pipeline is scaled the same way, by the largest
reference coefficient of (r, n, Hess r) at each order: ``conformal_bump``
is e^{2 phi} times the flat metric with phi proportional to
prof(x_d) = 1 + x_d/2 - x_d^2/4, and prof'(1) = 0, so d_n phi = 0 on the
upper face.  That face's second fundamental form e^phi (d_n phi) g_flat
vanishes: the face is totally geodesic and Hess r is zero there, so its
own largest coefficient is roundoff.
"""

import numpy as np
import pytest

import oracles as ref
from bianchi_lab import boundary, charts, linearize
from bianchi_lab.boundary import CollarChart, collar_metric_jets
from bianchi_lab.charts import make_chart, sample_points
from bianchi_lab.conventions import ricci_action
from bianchi_lab.jets import Jet, stack
from bianchi_lab.linearize import trig_poly_sym_field
from oracles import jet_sin

PRESETS = ("curved_generic", "conformal_bump", "polar_ball")
GEOMETRY = ("g", "ginv", "gamma", "riem", "ric", "sc", "ein")


def _tensor(x):
    return ref.tensor_jet(x) if isinstance(x, np.ndarray) else x


def _scale(*refs) -> float:
    return max(float(np.abs(_tensor(r).c).max()) for r in refs)


def _assert_matches(new: Jet, old, scale: float):
    want = _tensor(old)
    assert new.order == want.order
    assert new.c.shape == want.c.shape
    assert np.all(np.abs(new.c - want.c) <= 1e-12 * scale)


def _vector_field(x, order):
    xs = Jet.variables(x, order)
    return stack([jet_sin(xs[1] * 2.0) * 0.3, xs[-1] * xs[0] * 0.2]
                 + [0.1 * xs[a] for a in range(2, len(xs))])


@pytest.mark.parametrize("order", (2, 3, 4))
@pytest.mark.parametrize("d", (3, 4, 5))
@pytest.mark.parametrize("preset", PRESETS)
def test_interior_engine_matches_object_arrays(preset, d, order):
    chart = make_chart(preset, d)
    x = sample_points(chart, 3, np.random.default_rng(10 * d + order))
    g = chart.metric_jets(x, order)
    geom = charts.geometry_from_jets(g)
    old = ref.geometry_from_jets(ref.object_jets(g, 2))
    scale = _scale(*(getattr(old, f) for f in GEOMETRY))
    for f in GEOMETRY:
        _assert_matches(getattr(geom, f), getattr(old, f), scale)

    sig = trig_poly_sym_field(d, d + order)(x, order)
    sig_old = ref.object_jets(sig, 2)
    for new, want in ((charts.nabla(geom, sig), ref.nabla(old, sig_old)),
                      (charts.bianchi_b(geom, sig),
                       ref.bianchi_b(old, sig_old)),
                      (charts.divergence(geom, sig),
                       ref.divergence(old, sig_old))):
        _assert_matches(new, want, _scale(want))
    X = _vector_field(x, order)
    want = ref.killing(old, ref.object_jets(X, 1))
    _assert_matches(charts.killing(geom, X), want, _scale(want))

    parts = linearize.dric_parts_jets(geom, sig)
    want = ref.dric_parts_jets(old, sig_old)
    scale = _scale(*want)
    for new, w in zip(parts, want):
        _assert_matches(new, w, scale)
    want = ref.dein_closed_jets(old, sig_old, ricci_action())
    _assert_matches(linearize.dein_closed_jets(geom, sig), want,
                    _scale(want))


@pytest.mark.parametrize("face", (0, 1))
@pytest.mark.parametrize("d", (3, 4, 5))
@pytest.mark.parametrize("preset", PRESETS)
def test_boundary_pipeline_matches_object_arrays(preset, d, face):
    collar = CollarChart(make_chart(preset, d), face)
    rng = np.random.default_rng(d + 10 * face)
    y = np.stack([rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 3)
                  for lo, hi in collar.chart.domain[:-1]], axis=-1)
    for order in (2, 3, 4):
        g = collar_metric_jets(collar, y, order)
        geom = charts.geometry_from_jets(g, curvature=False)
        old = ref.geometry_from_jets(ref.object_jets(g, 2), curvature=False)
        rjet, nvec = boundary.normal_field(geom)
        rold, nold = ref.normal_field(old)
        hess_old = ref.distance_hessian(old, rold)
        # one scale per order, as for the interior geometry: the upper face
        # of conformal_bump is totally geodesic (see the module docstring),
        # so there the Hessian alone would scale by its own roundoff
        scale = _scale(rold, nold, hess_old)
        _assert_matches(rjet, rold, scale)
        _assert_matches(nvec, nold, scale)
        _assert_matches(boundary.distance_hessian(geom, rjet), hess_old,
                        scale)
