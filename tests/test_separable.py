"""Separable jets: the closed-form univariate coefficients and
``jets.separable`` against jet composition, and every builder that forms
a product of univariate factors against its former jet-composition
version in ``oracles``."""

import numpy as np
import pytest

import oracles
from bianchi_lab import bvp, charts, linearize, quadrature, verify
from bianchi_lab.charts import make_chart, sample_points
from bianchi_lab.jets import (
    Jet,
    cos_coeffs,
    poly_coeffs,
    separable,
    series_mul,
    sin_coeffs,
)
from oracles import jet_cos, jet_sin

ORDERS = range(5)
SHAPES = [(), (7,), (4, 3)]


@pytest.mark.parametrize("order", ORDERS)
def test_univariate_coefficients_match_jet_composition(order):
    t0 = np.array([-1.3, 0.0, 0.4, 2.2])
    (t,) = Jet.variables(t0[:, None], order)
    w, ph = 2.7, 0.9
    assert np.allclose(cos_coeffs(w, w * t0 + ph, order),
                       jet_cos(t * w + ph).c, rtol=0, atol=1e-13)
    assert np.allclose(sin_coeffs(w, w * t0 + ph, order),
                       jet_sin(t * w + ph).c, rtol=0, atol=1e-13)
    p = (0.5, -2.0, 0.0, 3.0, 1.5)
    ref = sum(ck * t ** k for k, ck in enumerate(p))
    assert np.allclose(poly_coeffs(t0, p, order), ref.c, rtol=0,
                       atol=1e-12 * np.abs(ref.c).max())
    s = jet_sin(t * np.pi)
    su = sin_coeffs(np.pi, np.pi * t0, order)
    assert np.allclose(series_mul(su, su), (s * s).c, rtol=0, atol=1e-13)


def test_separable_absent_axis_is_the_factor_one():
    x = np.array([[0.2, 0.7, 0.4], [0.9, 0.1, 0.3]])
    xs = Jet.variables(x, 3)
    got = separable(3, 3, {0: cos_coeffs(2.0, 2.0 * x[:, 0], 3),
                           2: poly_coeffs(x[:, 2], (1.0, 0.0, -2.0), 3)})
    ref = jet_cos(xs[0] * 2.0) * (1.0 - 2.0 * xs[2] * xs[2])
    assert np.allclose(got.c, ref.c, rtol=0, atol=1e-14)


def _metric(preset):
    new = {"polar_ball": charts._metric_polar_ball,
           "conformal_bump": charts._metric_conformal,
           "curved_generic": charts._metric_curved_generic}[preset]
    old = {"polar_ball": oracles.metric_polar_ball,
           "conformal_bump": oracles.metric_conformal,
           "curved_generic": oracles.metric_curved_generic}[preset]

    def build(d):
        chart = make_chart(preset, d)
        return (chart, lambda x, order: new(chart, x, order),
                lambda x, order: old(chart, x, order))
    return build


def _field(new, old, preset="flat_slab_periodic"):
    def build(d):
        chart = make_chart(preset, d)
        return chart, new(chart), old(chart)
    return build


def _trig_terms(normal_vanish):
    def build(d):
        rng = np.random.default_rng(d + normal_vanish)
        coef = rng.standard_normal(5)
        ks = rng.integers(0, 3, size=(5, d))
        ph = rng.uniform(0, 2 * np.pi, size=(5, d))
        return (make_chart("flat_slab_periodic", d),
                lambda x, order: quadrature._trig_terms(
                    x, order, coef, ks, ph, normal_vanish),
                lambda x, order: oracles.trig_terms(
                    x, order, coef, ks, ph, normal_vanish))
    return build


BUILDERS = {
    "trig_terms": _trig_terms(0),
    "trig_terms_vanish2": _trig_terms(2),
    "trig_poly_sym_field": _field(
        lambda c: linearize.trig_poly_sym_field(c.dim, 3),
        lambda c: oracles.trig_poly_sym_field(c.dim, 3)),
    "trig_poly_sym_field_order3": _field(
        lambda c: linearize.trig_poly_sym_field(c.dim, 4, boundary_order=3),
        lambda c: oracles.trig_poly_sym_field(c.dim, 4, boundary_order=3)),
    "box_bump_sym_field": _field(
        lambda c: quadrature.box_bump_sym_field(c, 6),
        lambda c: oracles.box_bump_sym_field(c, 6), "polar_ball"),
    "continuum_potential": _field(
        lambda c: bvp._continuum_potential(c.dim, 7),
        lambda c: oracles.continuum_potential(c.dim, 7)),
    "probe_vector_field": _field(lambda c: verify._probe_vector_field,
                                 lambda c: oracles.probe_vector_field),
    "lateral_wave": _field(lambda c: verify._lateral_wave,
                           lambda c: oracles.lateral_wave),
    "metric_polar_ball": _metric("polar_ball"),
    "metric_conformal": _metric("conformal_bump"),
    "metric_curved_generic": _metric("curved_generic"),
}

# the linearization suite's two fields are defined in three dimensions
CASES = [(name, d) for name in BUILDERS for d in (3, 4, 5)
         if d == 3 or name not in ("probe_vector_field", "lateral_wave")]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name,d", CASES)
def test_builder_matches_jet_composition_oracle(name, d, order, shape):
    chart, new, old = BUILDERS[name](d)
    rng = np.random.default_rng(100 * d + order)
    x = sample_points(chart, int(np.prod(shape)), rng).reshape(shape + (d,))
    got, ref = new(x, order), old(x, order)
    assert got.order == ref.order == order
    assert got.c.shape == ref.c.shape
    assert np.max(np.abs(got.c - ref.c)) <= 1e-12 * np.max(np.abs(ref.c))
