"""Each value-only jet evaluation reads the lowest order that gives its
values (DECISIONS.md, "Jet order per evaluation").

Truncated Taylor arithmetic computes a degree-k coefficient only from
inputs of degree <= k, so evaluating with every jet source raised to the
order the call site used before must give the same values to roundoff.
Each test runs a call site as it is and with its metric jets (and its
fields) lifted by the orders it dropped, and compares: relatively to 1e-12,
or absolutely to 1e-13 for outputs that are roundoff residuals.  An order
lowered one step too far fails here, by a changed value or by a jet that
cannot be differentiated.
"""

from itertools import product

import numpy as np
import pytest

from bianchi_lab import charts, verify
from bianchi_lab.boundary import CollarChart
from bianchi_lab.jets import separable, sin_coeffs, stack
from bianchi_lab.linearize import (
    dboundary_data_fd,
    dric_closed,
    equivariance_residual,
    first_order_dependence_residual,
    fit_ricci_action,
    gamma_tilde_at,
    jet_surgery_pair,
    normal_identity_residuals,
    trig_poly_sym_field,
)

CURVED = [("conformal_bump", {"amp": 0.1}), ("curved_generic", {"seed": 13})]
CASES = [pytest.param(preset, kw, d, id=f"{preset}-d{d}")
         for (preset, kw), d in product(CURVED, (3, 4))]

REL, ABS = 1e-12, 1e-13


@pytest.fixture
def lift(monkeypatch):
    """``lift(k)`` makes every chart build its metric jets k orders above
    the order asked for, for the rest of the test."""
    def apply(k):
        for preset, build in list(charts._METRIC_BUILDERS.items()):
            monkeypatch.setitem(charts._METRIC_BUILDERS, preset,
                                lambda chart, x, order, build=build:
                                build(chart, x, order + k))
    return apply


def lifted(field, k):
    """The jet field evaluated k orders above the order asked for."""
    return lambda x, order: field(x, order + k)


def interior(chart, n, seed):
    r = np.random.default_rng(seed)
    return np.stack([r.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), n)
                     for lo, hi in chart.domain], axis=-1)


def assert_close(new, old, residual=False):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    err = float(np.max(np.abs(new - old)))
    if residual:
        assert err <= ABS, err
    else:
        assert err <= REL * float(np.max(np.abs(old))), err


def test_calculus_suite_orders(monkeypatch):
    """Curved charts at order 3 (from 4), flat presets at order 2 (from 4);
    the suite runs both curved presets at each of its dims."""
    cfg = {"seed": 1, "samples": 20, "dims": [3, 4]}
    new = verify.run_suite("calculus", cfg)
    monkeypatch.setattr(verify, "chart_geometry",
                        lambda chart, x, order: charts.chart_geometry(
                            chart, x, 4))
    old = verify.run_suite("calculus", cfg)
    assert [c["name"] for c in new] == [c["name"] for c in old]
    for a, b in zip(new, old):
        assert a["pass"] and b["pass"]
        assert_close(a["value"], b["value"], residual=True)


@pytest.mark.parametrize("preset, kw, d", CASES)
def test_dric_closed_order(lift, preset, kw, d):
    chart = charts.make_chart(preset, d, **kw)
    x = interior(chart, 5, d)
    sigma = trig_poly_sym_field(d, 3)
    new = dric_closed(chart, x, sigma)
    lift(1)
    assert_close(new, dric_closed(chart, x, lifted(sigma, 1)))


@pytest.mark.parametrize("preset, kw, d", CASES)
def test_gamma_tilde_order(lift, preset, kw, d):
    chart = charts.make_chart(preset, d, **kw)
    x = interior(chart, 5, d + 1)
    sigma = trig_poly_sym_field(d, 4)
    new = gamma_tilde_at(chart, x, sigma)
    lift(1)
    assert_close(new, gamma_tilde_at(chart, x, lifted(sigma, 1)))


@pytest.mark.parametrize("preset, kw, d", CASES)
def test_dboundary_data_order(lift, preset, kw, d):
    collar = CollarChart(charts.make_chart(preset, d, **kw))
    y = np.random.default_rng(d + 2).uniform(0.2, 0.8, size=(4, d - 1))
    sigma = trig_poly_sym_field(d, 5)
    new = dboundary_data_fd(collar, y, sigma)
    lift(1)
    old = dboundary_data_fd(collar, y, lifted(sigma, 1))
    for a, b in zip(new, old):
        assert_close(a, b)


def _vector_field(d):
    """X^k = sum_a c_ka sin(x_a + p_ka), a smooth field on any chart."""
    r = np.random.default_rng(d)
    c, p = 0.3 * r.standard_normal((d, d)), r.uniform(0, np.pi, (d, d))

    def field(x, order):
        return stack([sum(separable(d, order, {a: c[k, a] * sin_coeffs(
            1.0, x[..., a] + p[k, a], order)}) for a in range(d))
            for k in range(d)])
    return field


@pytest.mark.parametrize("preset, kw, d", CASES)
def test_equivariance_order(lift, preset, kw, d):
    """Geometry at order 3 (from 4) and X at order 1 (from 3)."""
    chart = charts.make_chart(preset, d, **kw)
    x = interior(chart, 5, d + 3)
    field = _vector_field(d)
    new = equivariance_residual(chart, x, field)
    lift(1)
    assert_close(new, equivariance_residual(chart, x, lifted(field, 2)),
                 residual=True)


@pytest.mark.parametrize("preset, kw, d", CASES)
def test_first_order_dependence_order(lift, preset, kw, d):
    chart = charts.make_chart(preset, d, **kw)
    x = interior(chart, 1, d + 4)
    s1, s2 = jet_surgery_pair(trig_poly_sym_field(d, 6), x[0])
    new = first_order_dependence_residual(chart, x, s1, s2)
    lift(1)
    old = first_order_dependence_residual(chart, x, lifted(s1, 1),
                                          lifted(s2, 1))
    assert_close(new, old, residual=True)


@pytest.mark.parametrize("preset, d", product(("polar_ball",
                                               "flat_slab_periodic"), (3, 4)))
def test_normal_identity_order(lift, preset, d):
    """Order 4 (from 6).  The probe refuses charts that are not Ricci-flat,
    so it runs on the flat presets; the polar ball's metric is not
    constant."""
    collar = CollarChart(charts.make_chart(preset, d))
    y = interior(collar.chart, 3, d + 5)[:, :-1]
    sigma = trig_poly_sym_field(d, 7, boundary_order=2)
    r1, r2, r3 = normal_identity_residuals(collar, y, sigma)
    lift(2)
    o1, o2, o3 = normal_identity_residuals(collar, y, lifted(sigma, 2))
    assert r2 > 1e-3  # a value, not a residual
    assert_close(r1, o1, residual=True)
    assert_close(r2, o2)
    assert_close(r3, o3, residual=True)


def test_fit_ricci_action_order(lift):
    """The audit's fit at order 2 (from 3), on the audit's charts."""
    audit = [charts.make_chart("conformal_bump", 3, amp=0.12),
             charts.make_chart("curved_generic", 3, seed=3),
             charts.make_chart("curved_generic", 4, seed=5)]
    (ab, defect) = fit_ricci_action(audit)
    lift(1)
    (ab_old, defect_old) = fit_ricci_action(audit)
    assert ab == ab_old == (1, 2)
    assert_close(defect, defect_old)
