import numpy as np
import pytest

import oracles
from bianchi_lab import charts, quadrature
from bianchi_lab.charts import chart_geometry, make_chart, tensor_values
from bianchi_lab.quadrature import (
    box_bump_sym_field,
    GridSpec,
    convergence_study,
    dewitt_green_ric_defect,
    face_nodes,
    green_einstein_sym_defect,
    green_killing_defect,
    green_symmetry_defects,
    integrate_scalar_samples,
    interior_nodes,
    periodic_sym_field,
    periodic_vector_field,
)
from bianchi_lab.linearize import dein_closed, trig_poly_sym_field


def slab(d=3):
    return make_chart("flat_slab_periodic", d)


# ---------------------------------------------------------------------------
# basic rule


def test_integrate_constant_and_periodic_modes():
    grid = GridSpec.for_chart(slab(), 8)
    x = interior_nodes(grid)
    assert np.isclose(integrate_scalar_samples(grid, np.ones(len(x)),
                                               "interior"), 1.0, atol=1e-14)
    wave = np.sin(2 * np.pi * x[:, 0])
    assert abs(integrate_scalar_samples(grid, wave, "interior")) <= 1e-14
    # sub-Nyquist products integrate exactly on the periodic torus factor
    prod = np.sin(2 * np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 0])
    assert np.isclose(integrate_scalar_samples(grid, prod, "interior"), 0.5,
                      atol=1e-14)


def test_conformal_volume_refines_second_order():
    chart = make_chart("conformal_bump", 3, amp=0.15)

    def volume(n):
        grid = GridSpec.for_chart(chart, n)
        x = interior_nodes(grid)
        g = tensor_values(chart.metric_jets(x, 0))
        return integrate_scalar_samples(grid, np.sqrt(np.linalg.det(g)),
                                        "interior")

    ref = volume(96)
    errs = [abs(volume(n) - ref) for n in (8, 16)]
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_grid_validation():
    unit = tuple([(0.0, 1.0)] * 3)
    with pytest.raises(ValueError):
        GridSpec(3, 3, unit)
    with pytest.raises(ValueError):
        GridSpec(3, 8, unit[:2])
    grid = GridSpec.for_chart(slab(), 8)
    with pytest.raises(ValueError):
        integrate_scalar_samples(grid, np.ones(7), "interior")


# ---------------------------------------------------------------------------
# Green formula for the Killing operator


def test_green_killing_interior_supported_near_exact():
    chart = slab()
    grid = GridSpec.for_chart(chart, 16)
    X = periodic_vector_field(3, 1, normal_vanish=2)
    sigma = periodic_sym_field(3, 2)
    assert green_killing_defect(grid, chart, X, sigma) <= 1e-10


def test_green_killing_with_boundary_term_flat_trig():
    # general pair on the flat slab: trig-polynomial integrands keep the
    # midpoint rule exact, so the three-term identity closes to roundoff
    chart = slab()
    grid = GridSpec.for_chart(chart, 16)
    X = periodic_vector_field(3, 3)
    sigma = periodic_sym_field(3, 4)
    assert green_killing_defect(grid, chart, X, sigma) <= 1e-10


def test_green_killing_conformal_bump_converges():
    chart = make_chart("conformal_bump", 3, amp=0.1)
    X = periodic_vector_field(3, 5)
    sigma = trig_poly_sym_field(3, 6)

    study = convergence_study(
        lambda n: green_killing_defect(GridSpec.for_chart(chart, n), chart,
                                       X, sigma),
        (8, 16, 32))
    assert study["status"] == "ok"
    assert study["slope"] >= 1.8


# ---------------------------------------------------------------------------
# Einstein / Ricci Green symmetry on kernel-constrained pairs


def test_einstein_symmetry_interior_supported_flat():
    chart = slab()
    grid = GridSpec.for_chart(chart, 16)
    sigma = periodic_sym_field(3, 7, normal_vanish=2)
    eta = periodic_sym_field(3, 8, normal_vanish=2)
    assert green_einstein_sym_defect(grid, chart, sigma, eta) <= 1e-9


def test_einstein_symmetry_self_pair_exact():
    chart = slab()
    grid = GridSpec.for_chart(chart, 8)
    sigma = periodic_sym_field(3, 9, normal_vanish=2)
    assert green_einstein_sym_defect(grid, chart, sigma, sigma) == 0.0


def test_einstein_symmetry_rejects_surviving_boundary_jets():
    chart = slab()
    grid = GridSpec.for_chart(chart, 8)
    sigma = periodic_sym_field(3, 10)  # no boundary vanishing
    eta = periodic_sym_field(3, 11, normal_vanish=2)
    with pytest.raises(ValueError):
        green_einstein_sym_defect(grid, chart, sigma, eta)
    # vanishing to first order only: the face values pass, the normal
    # derivatives do not
    first = periodic_sym_field(3, 10, normal_vanish=1)
    with pytest.raises(ValueError, match="order-2 boundary vanishing"):
        green_einstein_sym_defect(grid, chart, first, eta)


def test_einstein_symmetry_defect_limit_is_the_tensorial_correction():
    # on non-Ricci-flat interiors the plain pairing defect converges to
    # the (<Ein,s> tr_e - <Ein,e> tr_s)/2 integral; subtracting it leaves
    # pure quadrature error
    chart = make_chart("conformal_bump", 3, amp=0.1)
    sigma = periodic_sym_field(3, 12, normal_vanish=2)
    eta = periodic_sym_field(3, 13, normal_vanish=2)
    study = convergence_study(
        lambda n: green_einstein_sym_defect(GridSpec.for_chart(chart, n),
                                            chart, sigma, eta,
                                            ein_corrected=True),
        (8, 16, 32))
    assert study["status"] == "ok"
    assert study["slope"] >= 1.8
    plain = green_einstein_sym_defect(GridSpec.for_chart(chart, 16), chart,
                                      sigma, eta)
    assert plain > 1e-4  # the uncorrected defect does not vanish here


def test_einstein_symmetry_converges_on_ricci_flat_curvilinear_chart():
    # polar_ball is flat in curved coordinates: the identity is exact in
    # the continuum and the measured defect is pure O(h^2) quadrature error
    chart = make_chart("polar_ball", 3)
    sigma = box_bump_sym_field(chart, 21)
    eta = box_bump_sym_field(chart, 22)
    study = convergence_study(
        lambda n: green_einstein_sym_defect(GridSpec.for_chart(chart, n),
                                            chart, sigma, eta),
        (8, 16, 32))
    assert study["status"] == "ok"
    assert study["slope"] >= 1.8


def test_dewitt_route_matches_einstein_route():
    chart = make_chart("conformal_bump", 3, amp=0.1)
    grid = GridSpec.for_chart(chart, 8)
    sigma = periodic_sym_field(3, 14, normal_vanish=2)
    eta = periodic_sym_field(3, 15, normal_vanish=2)
    d1 = green_einstein_sym_defect(grid, chart, sigma, eta)
    d2 = dewitt_green_ric_defect(grid, chart, sigma, eta)
    assert abs(d1 - d2) <= 1e-9
    assert dewitt_green_ric_defect(grid, chart, sigma, sigma) == 0.0


def _reference_integrals(grid, chart, sigma, eta, route, ein_corrected):
    """(one, two, correction) of a symmetry defect, per field: dEin of each
    field from its own ``dein_closed`` pass, the correction
    (<Ein,s> tr e - <Ein,e> tr s)/2 from a separate curvature pass."""
    x = interior_nodes(grid)
    gv = tensor_values(chart.metric_jets(x, 0))
    ginv = np.linalg.inv(gv)
    dens = np.sqrt(np.linalg.det(gv))
    sv, ev = sigma(x, 0).value, eta(x, 0).value
    de_s = dein_closed(chart, x, sigma)
    de_e = dein_closed(chart, x, eta)

    def inner(a, b):
        return np.einsum("...ij,...kl,...ik,...jl->...", a, b, ginv, ginv)

    def trace(a):
        return np.einsum("...ij,...ij->...", ginv, a)

    if route == "dewitt":
        def pair(a, b):
            return inner(a, b) - 0.5 * trace(a) * trace(b)

        def op(de):  # B^{-1}
            return de - (trace(de) / (chart.dim - 2))[..., None, None] * gv
    else:
        pair, op = inner, (lambda de: de)
    one = integrate_scalar_samples(grid, pair(op(de_s), ev) * dens,
                                   "interior")
    two = integrate_scalar_samples(grid, pair(sv, op(de_e)) * dens,
                                   "interior")
    corr = 0.0
    if ein_corrected:
        ein = chart_geometry(chart, x, order=2).ein.value
        corr = integrate_scalar_samples(
            grid, 0.5 * (inner(ein, sv) * trace(ev)
                         - inner(ein, ev) * trace(sv)) * dens, "interior")
    return one, two, corr


def _shared_geometry_cases():
    flat = slab()
    ball = make_chart("polar_ball", 3)
    bump = make_chart("conformal_bump", 3, amp=0.1)
    return [
        ("flat", flat, periodic_sym_field(3, 31, normal_vanish=2),
         periodic_sym_field(3, 32, normal_vanish=2), False),
        ("ball", ball, box_bump_sym_field(ball, 33),
         box_bump_sym_field(ball, 34), False),
        ("bump", bump, periodic_sym_field(3, 35, normal_vanish=2),
         periodic_sym_field(3, 36, normal_vanish=2), True),
    ]


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("route,defect", [
    ("einstein", green_einstein_sym_defect),
    ("dewitt", dewitt_green_ric_defect)])
def test_shared_geometry_defect_matches_per_field_reference(case, route,
                                                            defect):
    _, chart, sigma, eta, corrected = _shared_geometry_cases()[case]
    grid = GridSpec.for_chart(chart, 8)
    one, two, corr = _reference_integrals(grid, chart, sigma, eta, route,
                                          corrected)
    got = defect(grid, chart, sigma, eta, ein_corrected=corrected)
    # roundoff of the integrals whose difference the defect is
    assert abs(got - abs(one - two - corr)) <= 1e-12 * (
        abs(one) + abs(two) + abs(corr))


@pytest.mark.parametrize("defect", [green_einstein_sym_defect,
                                    dewitt_green_ric_defect])
def test_symmetry_defect_builds_one_geometry_per_chunk(defect, monkeypatch):
    chart = make_chart("conformal_bump", 3, amp=0.1)
    grid = GridSpec.for_chart(chart, 8)
    sigma = periodic_sym_field(3, 37, normal_vanish=2)
    eta = periodic_sym_field(3, 38, normal_vanish=2)
    calls = []
    build = quadrature.geometry_from_jets

    def counted(*args, **kwargs):
        calls.append(args[0].c.shape[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(quadrature, "geometry_from_jets", counted)
    monkeypatch.setattr(charts, "_CHUNK", 128)
    defect(grid, chart, sigma, eta, ein_corrected=True)
    assert calls == [128] * 4


# ---------------------------------------------------------------------------
# convergence study plumbing


def test_convergence_study_synthetic_quadratic():
    study = convergence_study(lambda n: 3.0 / n ** 2, (8, 16, 32))
    assert study["status"] == "ok"
    assert abs(study["slope"] - 2.0) <= 0.01


def test_convergence_study_exact_status():
    study = convergence_study(lambda n: 0.0, (8, 16, 32))
    assert study["status"] == "exact"
    assert study["slope"] is None


def test_convergence_study_needs_three_points():
    with pytest.raises(ValueError):
        convergence_study(lambda n: 1.0 / n, (8, 16))


# ---------------------------------------------------------------------------
# value pairings, one pass for both symmetry routes, Killing jet order


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)], ids=str)
def test_pair_matmuls_match_the_einsum(batch):
    rng = np.random.default_rng(len(batch))
    a, b, ginv = (rng.standard_normal(batch + (4, 4)) for _ in range(3))
    ref = np.einsum("...ij,...kl,...ik,...jl->...", a, b, ginv, ginv)
    got = charts._pair(a, b, ginv)  # ginv not symmetric here
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
    g = ginv @ np.swapaxes(ginv, -1, -2) + np.eye(4)  # a metric
    gi = np.linalg.inv(g)
    tr_a, tr_b = (np.einsum("...ij,...ij->...", gi, t) for t in (a, b))
    dw = (np.einsum("...ij,...kl,...ik,...jl->...", a, b, gi, gi)
          - 0.5 * tr_a * tr_b)
    assert np.allclose(charts.dewitt_inner(a, b, gi), dw, rtol=1e-13,
                       atol=0)


@pytest.mark.parametrize("corrected", [False, True])
def test_symmetry_defects_one_pass_equal_the_single_routes(corrected):
    chart = make_chart("conformal_bump", 3, amp=0.1) if corrected else slab()
    grid = GridSpec.for_chart(chart, 8)
    sigma = periodic_sym_field(3, 39, normal_vanish=2)
    eta = periodic_sym_field(3, 40, normal_vanish=2)
    both = green_symmetry_defects(grid, chart, sigma, eta,
                                  ein_corrected=corrected)
    assert both == (
        green_einstein_sym_defect(grid, chart, sigma, eta,
                                  ein_corrected=corrected),
        dewitt_green_ric_defect(grid, chart, sigma, eta,
                                ein_corrected=corrected))


def _killing_cases():
    return {
        "slab": (slab(), periodic_vector_field(3, 41, normal_vanish=2),
                 periodic_sym_field(3, 42)),
        "conformal_bump": (make_chart("conformal_bump", 3, amp=0.1),
                           periodic_vector_field(3, 43),
                           trig_poly_sym_field(3, 44)),
    }


@pytest.mark.parametrize("case", ["slab", "conformal_bump"])
def test_killing_defect_matches_the_order2_oracle(case):
    chart, X, sigma = _killing_cases()[case]
    grid = GridSpec.for_chart(chart, 8)
    lhs, bulk, flux = oracles.green_killing_integrals(grid, chart, X, sigma)
    got = green_killing_defect(grid, chart, X, sigma)
    # relative to the integrals whose sum the defect is
    assert abs(got - abs(lhs - bulk + flux)) <= 1e-12 * max(
        abs(lhs), abs(bulk), abs(flux))


@pytest.mark.parametrize("case", ["slab", "conformal_bump"])
def test_killing_defect_asks_for_jet_order_at_most_one(case, monkeypatch):
    chart, X, sigma = _killing_cases()[case]
    orders = []

    def recorded(field):
        def wrapped(x, order):
            orders.append(order)
            return field(x, order)
        return wrapped

    metric_jets = charts.MetricChart.metric_jets

    def metric_recorded(self, x, order):
        orders.append(order)
        return metric_jets(self, x, order)

    monkeypatch.setattr(charts.MetricChart, "metric_jets", metric_recorded)
    green_killing_defect(GridSpec.for_chart(chart, 8), chart, recorded(X),
                         recorded(sigma))
    assert orders and max(orders) <= 1
