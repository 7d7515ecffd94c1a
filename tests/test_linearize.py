import numpy as np
import pytest

from bianchi_lab import conventions
from bianchi_lab.boundary import CollarChart
from bianchi_lab.charts import (
    chart_geometry,
    geometry_from_jets,
    make_chart,
    tensor_values,
)
from bianchi_lab.conventions import load_conventions
from bianchi_lab.jets import Jet, stack
from bianchi_lab.linearize import (
    Perturbation,
    dboundary_data_fd,
    dein_closed,
    dein_fd,
    dric_closed,
    dric_closed_jets,
    dric_fd,
    dric_parts_jets,
    equivariance_residual,
    first_order_dependence_residual,
    fit_ricci_action,
    gamma_tilde_at,
    gauge_divergence_jets,
    jet_surgery_pair,
    normal_identity_residuals,
    richardson_slope,
    sample_connection,
    trig_poly_sym_field,
)

from oracles import jet_cos, jet_sin


def rng(seed=0):
    return np.random.default_rng(seed)


def interior_points(chart, n, seed):
    r = rng(seed)
    return np.stack([r.uniform(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), n)
                     for lo, hi in chart.domain], axis=-1)


def metric_as_field(chart):
    return Perturbation(lambda x, o: chart.metric_jets(x, o), chart.dim)


# ---------------------------------------------------------------------------
# closed form vs finite differences


def test_ricci_action_audit_matches_artifact():
    charts = [make_chart("conformal_bump", 3, amp=0.12),
              make_chart("curved_generic", 3, seed=3),
              make_chart("curved_generic", 4, seed=5)]
    (a, b), defect = fit_ricci_action(charts)
    assert [a, b] == load_conventions()["ricci_action"]
    assert defect <= 1e-5


def test_dric_closed_jets_reads_the_loaded_artifact(monkeypatch):
    # no caller passes (a, b): the closed route reads the conventions it
    # loaded, so another artifact changes dRic to that artifact's sum
    chart = make_chart("curved_generic", 3, seed=3)
    x = interior_points(chart, 3, 40)
    geom = geometry_from_jets(chart.metric_jets(x, 3))
    sig = trig_poly_sym_field(3, 41)(x, 3)
    committed = dric_closed_jets(geom, sig).c
    monkeypatch.setattr(conventions, "_CACHE",
                        dict(load_conventions(), ricci_action=[2, 1]))
    base, comp, curv = dric_parts_jets(geom, sig)
    got = dric_closed_jets(geom, sig).c
    assert np.array_equal(got, (base + 0.5 * (2 * comp + curv)).c)
    assert np.abs(got - committed).max() > 1e-3 * np.abs(committed).max()


def test_flat_chart_constant_sigma_and_metric_direction():
    chart = make_chart("flat_cartesian", 3)
    x = interior_points(chart, 4, 1)

    def const_field(xq, order):
        return Jet.const(3, order, np.broadcast_to(1.0 + np.eye(3),
                                                   xq.shape[:-1] + (3, 3)))

    assert np.abs(dric_closed(chart, x, Perturbation(const_field, 3))).max() \
        <= 1e-13
    assert np.abs(dric_fd(chart, x, Perturbation(const_field, 3))).max() \
        <= 1e-10
    # scaling direction: dRic(g) = 0 on any chart
    curved = make_chart("conformal_bump", 3, amp=0.1)
    xc = interior_points(curved, 4, 2)
    assert np.abs(dric_closed(curved, xc, metric_as_field(curved))).max() \
        <= 1e-12


def test_closed_vs_fd_calibrated_tolerance():
    chart = make_chart("conformal_bump", 3, amp=0.02)
    x = interior_points(chart, 10, 3)
    for seed in (7, 8, 9):
        field = trig_poly_sym_field(3, seed)
        sigma = Perturbation(lambda x, o, f=field: 0.2 * f(x, o), 3)
        closed = dric_closed(chart, x, sigma)
        fd = dric_fd(chart, x, sigma, eps=1e-3)
        assert np.abs(closed - fd).max() <= 1e-6


def test_richardson_slope_of_fd_error():
    for preset, kw in [("conformal_bump", {"amp": 0.1}),
                       ("curved_generic", {"seed": 4})]:
        chart = make_chart(preset, 3, **kw)
        x = interior_points(chart, 5, 4)
        sigma = trig_poly_sym_field(3, 11)
        slope = richardson_slope(chart, x, sigma)
        assert slope >= 1.9


# ---------------------------------------------------------------------------
# Einstein routes


def test_dein_routes_agree():
    chart = make_chart("conformal_bump", 3, amp=0.05)
    x = interior_points(chart, 6, 5)
    sigma = trig_poly_sym_field(3, 12)
    closed = dein_closed(chart, x, sigma)
    f1 = dein_fd(chart, x, sigma, 1e-3)
    f2 = dein_fd(chart, x, sigma, 5e-4)
    richardson = (4.0 * f2 - f1) / 3.0
    assert np.abs(closed - richardson).max() <= 1e-8


def test_dein_is_trace_reversed_dric_on_flat():
    chart = make_chart("flat_slab_periodic", 3)
    x = interior_points(chart, 5, 6)
    sigma = trig_poly_sym_field(3, 13)
    dein = dein_closed(chart, x, sigma)
    dric = dric_closed(chart, x, sigma)
    treversal = dric - 0.5 * np.trace(dric, axis1=-2, axis2=-1)[..., None, None] \
        * np.eye(3)
    assert np.abs(dein - treversal).max() <= 1e-12


def test_connection_term_is_pointwise():
    # gamma tilde = B^-1 (dEin + conn) - dRic: its connection part is
    # B^-1 of (Ein g^-1 sigma + sigma g^-1 Ein) / 2 at each point
    chart = make_chart("conformal_bump", 3, amp=0.1)
    x = interior_points(chart, 5, 7)
    sigma = trig_poly_sym_field(3, 14)
    geom = chart_geometry(chart, x, order=4)
    gv, ein = tensor_values(geom.g), tensor_values(geom.ein)
    ginv = np.linalg.inv(gv)
    sv = tensor_values(sigma(x, 0))

    def b_inverse(tau):  # d - 2 = 1
        tr = np.einsum("...ij,...ij->...", ginv, tau)
        return tau - tr[..., None, None] * gv

    conn = 0.5 * (np.einsum("...ik,...kl,...lj->...ij", ein, ginv, sv)
                  + np.einsum("...ik,...kl,...lj->...ij", sv, ginv, ein))
    assert np.abs(conn).max() > 1e-3  # the term is not vacuous
    assert np.allclose(sample_connection(ein, sv, ginv), conn, rtol=0,
                       atol=1e-14)
    without = b_inverse(dein_closed(chart, x, sigma)) \
        - dric_closed(chart, x, sigma)
    assert np.abs(gamma_tilde_at(chart, x, sigma) - without
                  - b_inverse(conn)).max() <= 1e-11


# ---------------------------------------------------------------------------
# gamma tilde


def test_gamma_tilde_vanishes_on_flat_presets():
    for preset in ("flat_cartesian", "polar_ball"):
        chart = make_chart(preset, 3)
        x = interior_points(chart, 4, 8)
        sigma = trig_poly_sym_field(3, 15)
        gt = gamma_tilde_at(chart, x, sigma)
        assert np.abs(gt).max() <= 1e-11


def test_gamma_tilde_tensoriality():
    chart = make_chart("conformal_bump", 3, amp=0.1)
    x = interior_points(chart, 1, 9)
    base = trig_poly_sym_field(3, 16)
    s1, s2 = jet_surgery_pair(base, x[0])
    g1 = gamma_tilde_at(chart, x, s1)
    g2 = gamma_tilde_at(chart, x, s2)
    assert np.abs(g1 - g2).max() <= 1e-7


def test_gamma_tilde_pairing_defect_formula():
    # the DeWitt pairing defect has the closed form
    # (  <Ric, s> tr e - <Ric, e> tr s ) / 2, vanishing iff Ric ~ g
    chart = make_chart("conformal_bump", 3, amp=0.1)
    x = interior_points(chart, 5, 10)
    sf, ef = trig_poly_sym_field(3, 17), trig_poly_sym_field(3, 18)
    gs = gamma_tilde_at(chart, x, sf)
    ge = gamma_tilde_at(chart, x, ef)
    geom = chart_geometry(chart, x, order=4)
    gv = tensor_values(geom.g)
    ginv = np.linalg.inv(gv)
    ric = tensor_values(geom.ric)
    sv = tensor_values(sf(x, 0))
    ev = tensor_values(ef(x, 0))

    def pair(a, b):
        return np.einsum("...ij,...kl,...ik,...jl->...", a, b, ginv, ginv)

    def tr(a):
        return np.einsum("...ij,...ij->...", ginv, a)

    def dewitt(a, b):
        return pair(a, b) - 0.5 * tr(a) * tr(b)

    defect = dewitt(gs, ev) - dewitt(ge, sv)
    predicted = 0.5 * (pair(ric, sv) * tr(ev) - pair(ric, ev) * tr(sv))
    assert np.abs(defect - predicted).max() <= 1e-11


# ---------------------------------------------------------------------------
# equivariance and order reduction


def x_field(dim, seed):
    r = rng(seed)
    coef = r.standard_normal((dim, dim)) * 0.3

    def fn(x, order):
        xs = Jet.variables(x, order)
        X = []
        for i in range(dim):
            acc = Jet.const(dim, order, np.full(x.shape[:-1], 0.1 * i))
            for j in range(dim):
                acc = acc + coef[i, j] * jet_sin(xs[j] * 2.0)
            X.append(acc)
        return stack(X)

    return fn


def test_equivariance_identity():
    for preset, kw in [("flat_cartesian", {}),
                       ("conformal_bump", {"amp": 0.1}),
                       ("curved_generic", {"seed": 19})]:
        chart = make_chart(preset, 3, **kw)
        x = interior_points(chart, 5, 11)
        res = equivariance_residual(chart, x, x_field(3, 20))
        assert res <= 1e-6, preset


def test_equivariance_rotation_field_flat():
    chart = make_chart("flat_cartesian", 3)
    x = interior_points(chart, 4, 12)

    def rot(xq, order):
        xs = Jet.variables(xq, order)
        return stack([xs[1], -1.0 * xs[0],
                      Jet.const(3, order, np.zeros(xq.shape[:-1]))])

    assert equivariance_residual(chart, x, rot) <= 1e-12


def test_first_order_dependence():
    chart = make_chart("conformal_bump", 3, amp=0.1)
    x = interior_points(chart, 1, 13)
    base = trig_poly_sym_field(3, 21)
    s1, s2 = jet_surgery_pair(base, x[0])
    assert first_order_dependence_residual(chart, x, s1, s2) <= 1e-7
    assert first_order_dependence_residual(chart, x, s1, s1) == 0.0


def test_gauge_divergence_vanishes_on_ricci_flat():
    # the gauged divergence of the linearized operator carries a curvature
    # factor, so it vanishes identically on Ricci-flat presets
    for preset in ("flat_slab_periodic", "polar_ball"):
        chart = make_chart(preset, 3)
        x = interior_points(chart, 5, 14)
        geom = geometry_from_jets(chart.metric_jets(x, 4))
        sig = trig_poly_sym_field(3, 22)(x, 4)
        gd = gauge_divergence_jets(geom, sig)
        worst = max(np.abs(gd[..., i].value).max() for i in range(3))
        assert worst <= 1e-8, preset


# ---------------------------------------------------------------------------
# linearized boundary data


def test_dboundary_slab_linear_profile():
    chart = make_chart("flat_slab_periodic", 3)
    collar = CollarChart(chart)
    y = rng(15).uniform(0.2, 0.8, size=(3, 2))
    S = np.array([[0.7, 0.2], [0.2, -0.4]])

    def field(x, order):
        xs = Jet.variables(x, order)
        full = np.zeros((3, 3))
        full[:2, :2] = S
        return xs[2][..., None, None] * full

    dA, dH, dM = dboundary_data_fd(collar, y, Perturbation(field, 3))
    assert np.abs(dA - 0.5 * S).max() <= 1e-9
    assert np.abs(dH - 0.5 * np.trace(S)).max() <= 1e-9


def test_dboundary_vanishing_orders():
    chart = make_chart("flat_slab_periodic", 3)
    collar = CollarChart(chart)
    y = rng(16).uniform(0.2, 0.8, size=(2, 2))
    sig2 = trig_poly_sym_field(3, 23, boundary_order=2)
    dA, dH, dM = dboundary_data_fd(collar, y, sig2)
    assert np.abs(dA).max() <= 1e-9
    assert np.abs(dH).max() <= 1e-9
    sig3 = trig_poly_sym_field(3, 24, boundary_order=3)
    dA, dH, dM = dboundary_data_fd(collar, y, sig3)
    assert np.abs(dA).max() <= 1e-9
    assert np.abs(dM).max() <= 1e-9


def test_killing_fields_preserve_cauchy_data():
    # X vanishing on the boundary: the linearized Cauchy data of delta* X
    # vanish (both faces' pullback and second fundamental form)
    chart = make_chart("conformal_bump", 3, amp=0.08)
    collar = CollarChart(chart)
    y = rng(17).uniform(0.2, 0.8, size=(3, 2))

    def killing_field(x, order):
        from bianchi_lab.charts import killing

        g = geometry_from_jets(chart.metric_jets(x, order + 1),
                               curvature=False)
        xs = Jet.variables(x, order + 1)
        cut = xs[2] * (1.0 - xs[2])
        X = stack([cut * jet_sin(xs[0] * 2.0), cut * xs[1] * 0.5,
                   cut * (jet_cos(xs[1] * 2.0) + 0.3)])
        return killing(g, X).truncate(order)

    sig = Perturbation(killing_field, 3)
    x_face = collar.ambient_point(y)
    svals = tensor_values(sig(x_face, 0))
    assert np.abs(svals[..., :2, :2]).max() <= 1e-11  # tangential pullback
    dA, dH, dM = dboundary_data_fd(collar, y, sig)
    assert np.abs(dA).max() <= 1e-6


# ---------------------------------------------------------------------------
# normal-trace identities on Ricci-flat collars


def test_normal_identities_order_two():
    chart = make_chart("flat_slab_periodic", 3)
    collar = CollarChart(chart)
    y = rng(18).uniform(0.2, 0.8, size=(2, 2))
    sig = trig_poly_sym_field(3, 25, boundary_order=2)
    r1, r2, r3 = normal_identity_residuals(collar, y, sig)
    assert r1 <= 1e-6
    assert r3 <= 1e-6

    # the first normal-derivative trace does NOT vanish at this vanishing
    # order: the operator is second order, so its boundary value survives
    # and feeds the tangential divergence; see the order-three case below
    def lateral_wave(x, order):
        xs = Jet.variables(x, order)
        wave = xs[2] * xs[2] * jet_sin(xs[1] * (2 * np.pi))
        return wave[..., None, None] * np.diag([1.0, 0.0, 0.0])

    _, r2w, _ = normal_identity_residuals(collar, y,
                                          Perturbation(lateral_wave, 3))
    assert r2w > 1e-2


def test_normal_identities_order_three():
    chart = make_chart("flat_slab_periodic", 3)
    collar = CollarChart(chart)
    y = rng(19).uniform(0.2, 0.8, size=(2, 2))
    sig = trig_poly_sym_field(3, 26, boundary_order=3)
    r1, r2, r3 = normal_identity_residuals(collar, y, sig)
    assert max(r1, r2, r3) <= 1e-6


def test_normal_identities_zero_field():
    chart = make_chart("flat_slab_periodic", 3)
    collar = CollarChart(chart)
    y = rng(20).uniform(0.2, 0.8, size=(2, 2))

    def zero(x, order):
        return Jet.const(3, order, np.zeros(x.shape[:-1] + (3, 3)))

    r1, r2, r3 = normal_identity_residuals(collar, y, Perturbation(zero, 3))
    assert max(r1, r2, r3) == 0.0


def test_normal_identities_reject_bad_input():
    chart = make_chart("flat_slab_periodic", 3)
    collar = CollarChart(chart)
    y = rng(21).uniform(0.2, 0.8, size=(2, 2))
    with pytest.raises(ValueError):
        normal_identity_residuals(collar, y, trig_poly_sym_field(3, 27))
    # vanishing to first order only: the value passes, the normal
    # derivative does not
    with pytest.raises(ValueError, match="second order"):
        normal_identity_residuals(collar, y,
                                  trig_poly_sym_field(3, 27, boundary_order=1))
    curved = make_chart("conformal_bump", 3)
    with pytest.raises(ValueError):
        normal_identity_residuals(CollarChart(curved), y,
                                  trig_poly_sym_field(3, 28, boundary_order=2))
