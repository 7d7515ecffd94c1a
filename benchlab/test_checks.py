"""Each output check of the benchmark passes on a right output and fails on
a wrong one.

    python3 -m pytest benchlab/test_checks.py -q

(from the root of a checkout; about 15 s.)
"""

from __future__ import annotations

import copy
import json
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from bianchi_lab import boundary, bvp, charts, jets, quadrature  # noqa: E402


# ---------------------------------------------------------------------------
# pointwise geometry


@pytest.fixture(scope="module")
def curved():
    chart = charts.make_chart("curved_generic", 3, seed=11)
    pts = np.random.default_rng(0).uniform(0.2, 0.8, size=(3, 3))
    ric = charts.tensor_values(charts.chart_geometry(chart, pts, 2).ric)
    return chart, pts, ric


def test_ricci_check_accepts_library_and_rejects_perturbed(curved):
    chart, pts, ric = curved
    fd = checks.fd_ricci(workloads._metric_values(chart), pts)
    assert np.abs(ric).max() > 1e-2        # the check is not vacuous
    assert checks.check_ricci(ric, fd) == []
    wrong = ric.copy()
    wrong[0, 0, 1] += 1e-3
    assert checks.check_ricci(wrong, fd)
    assert checks.check_ricci(-ric, fd)


def test_fd_ricci_vanishes_on_flat_polar_ball():
    ball = charts.make_chart("polar_ball", 3)
    pts = np.array([[1.2, 0.5, 0.3], [1.7, 0.9, 0.6]])
    fd = checks.fd_ricci(workloads._metric_values(ball), pts)
    assert np.abs(fd).max() < 1e-5


@pytest.fixture(scope="module")
def sphere_state():
    radius = 2.5
    ball = charts.make_chart("polar_ball", 3, radius=radius)
    y = np.array([[1.0, 0.5], [1.6, 0.9]])
    return radius, boundary.boundary_state(boundary.CollarChart(ball), y)


def test_sphere_frame_check(sphere_state):
    radius, st = sphere_state
    f = st.frame
    args = (f.mean_curv, f.second_ff, f.induced_metric)
    assert checks.check_sphere_frame(*args, radius, 3) == []
    assert checks.check_sphere_frame(*args, radius * 1.01, 3)
    assert checks.check_sphere_frame(-f.mean_curv, f.second_ff,
                                     f.induced_metric, radius, 3)


@pytest.fixture(scope="module")
def curved_state(curved):
    chart, _, _ = curved
    y = np.random.default_rng(1).uniform(0.1, 0.9, size=(4, 2))
    return boundary.boundary_state(boundary.CollarChart(chart), y)


@pytest.mark.parametrize("which", ["sphere", "curved"])
@pytest.mark.parametrize("alpha", [(0, 0, 1), (0, 0, 2), (1, 0, 3),
                                   (0, 0, 4)])
def test_eikonal_check_flags_an_error_at_any_order(which, alpha,
                                                   sphere_state,
                                                   curved_state):
    st = sphere_state[1] if which == "sphere" else curved_state
    rjet = st.rjet
    tally = workloads.Tally()
    workloads._eikonal(tally, "eikonal", st)
    assert tally.failed == 0
    # an error of 1e-6 in one coefficient, up to the jet's top order
    idx = jets._exp_index(rjet.dim, rjet.order)[alpha]
    wrong = rjet.c.copy()
    wrong[..., idx] += 1e-6
    st_wrong = copy.copy(st)
    st_wrong.rjet = jets.Jet(rjet.dim, rjet.order, wrong)
    workloads._eikonal(tally, "eikonal", st_wrong)
    assert tally.failed == 1


# ---------------------------------------------------------------------------
# quadrature


def test_midpoint_integral_check():
    slab = charts.make_chart("flat_slab_periodic", 3)
    grid = quadrature.GridSpec.for_chart(slab, 8)
    f, c0 = checks.trig_polynomial(np.random.default_rng(3), 3, 8)
    value = quadrature.integrate_scalar_samples(
        grid, f(quadrature.interior_nodes(grid)), "interior")
    assert checks.check_integral(value, c0) == []
    assert checks.check_integral(value, c0 + 1e-9)
    # a frequency at the grid's Nyquist limit aliases: the rule is wrong
    coarse = quadrature.GridSpec.for_chart(slab, 4)
    x = quadrature.interior_nodes(coarse)
    alias = 1.0 + np.cos(2 * np.pi * 4 * x[:, 0])
    value = quadrature.integrate_scalar_samples(coarse, alias, "interior")
    assert checks.check_integral(value, 1.0)


def test_face_integral_check_over_many_draws():
    """The workload's face integrals pass for every draw, including the
    frequencies that would be constant on the face of a 3-D draw."""
    slab = charts.make_chart("flat_slab_periodic", 3)
    grid = quadrature.GridSpec.for_chart(slab, 4)
    lateral = quadrature.face_nodes(grid, 1)[:, :-1]
    rng = np.random.default_rng(0)
    for _ in range(200):
        g, c1 = checks.trig_polynomial(rng, 2, 4)
        value = quadrature.integrate_scalar_samples(grid, g(lateral),
                                                    "boundary")
        assert checks.check_integral(value, c1) == []
    # why the draw is lateral: a normal-only frequency (0, 0, k) is the
    # constant cos(2 pi k + phi) on the face x_3 = 1, not a zero-mean mode
    face = quadrature.face_nodes(grid, 1)
    normal_only = 1.0 + np.cos(2 * np.pi * 3 * face[:, 2] + 0.4)
    value = quadrature.integrate_scalar_samples(grid, normal_only,
                                                "boundary")
    assert checks.check_integral(value, 1.0)


# ---------------------------------------------------------------------------
# slab solves


@pytest.fixture(scope="module")
def inadmissible_solve():
    chart = charts.make_chart("flat_slab_periodic", 3)
    return workloads._solve(chart, 8, "inadmissible-divergence", 1)


def test_inadmissible_source_checked_as_admissible_fails(inadmissible_solve):
    rel, report = inadmissible_solve
    assert checks.check_solve("inadmissible-divergence", rel,
                              report.relative_residual) == []
    assert checks.check_solve("discrete-admissible", rel,
                              report.relative_residual)


def test_solve_check_rejects_small_inadmissible_residual_and_misreport():
    assert checks.check_solve("discrete-admissible", 1e-10, 1e-10) == []
    assert checks.check_solve("inadmissible-boundary", 1e-10, 1e-10)
    assert checks.check_solve("discrete-admissible", 1e-10, 2e-10)


def test_residual_is_recomputed_from_the_matrix(inadmissible_solve):
    rel, report = inadmissible_solve
    assert abs(rel - report.relative_residual) <= 1e-9 * rel
    A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 1.0, 1.0])
    assert checks.relative_residual(A, np.ones(2), b) == pytest.approx(
        1 / np.sqrt(3))


def test_slope_check():
    ns = [6, 8, 10]
    assert checks.check_slope(ns, [1.0 / n ** 2 for n in ns]) == []
    assert checks.check_slope(ns, [1.0 / n for n in ns])


# ---------------------------------------------------------------------------
# slab spectra


@pytest.fixture(scope="module")
def spectrum4():
    chart = charts.make_chart("flat_slab_periodic", 3)
    fourier = bvp.lateral_block_svals(4, 3)["spectrum"]
    dense = np.linalg.svd(bvp.assemble(4, chart).matrix.toarray(),
                          compute_uv=False)
    return fourier, dense


def test_sigma_min_check(spectrum4):
    fourier, dense = spectrum4
    assert checks.check_sigma_min(fourier, dense) == []
    assert checks.check_sigma_min(fourier * (1 + 1e-6), dense)
    assert checks.check_sigma_min(np.r_[0.0, fourier[1:]], dense)
    assert checks.check_sigma_min(fourier[1:], dense)
    assert checks.check_positive_spectrum(np.r_[0.0, fourier[1:]])


def test_probe_and_gap_checks(spectrum4):
    fourier, _ = spectrum4
    assert checks.check_kernel_probe(fourier[0], fourier) == []
    assert checks.check_kernel_probe(fourier[0] * 1.001, fourier)
    assert checks.check_gap(fourier[0], 0, fourier) == []
    assert checks.check_gap(fourier[fourier > 1.01 * fourier[0]][0], 0,
                            fourier)
    assert checks.check_gap(fourier[0], 12, fourier)


def test_cohomology_checks():
    assert checks.check_slab_cohomology({"dim_h0": 0, "dim_h1": 0}) == []
    assert checks.check_slab_cohomology({"dim_h0": 0, "dim_h1": 12})
    good = {"dim_h0": 3, "translation_image_norms": [0.0, 1e-14, 0.0]}
    assert checks.check_torus(good, 3) == []
    assert checks.check_torus({**good, "dim_h0": 2}, 3)
    assert checks.check_torus({**good, "translation_image_norms": [1e-6]}, 3)


# ---------------------------------------------------------------------------
# tracing and the benchmark definition


def test_product_table_size_formula():
    for dim in (2, 3, 4):
        for order in (0, 1, 2, 4):
            table = jets._mul_table(dim, order)
            assert sum(len(ia) for ia, _ in table) == \
                comb(order + 2 * dim, 2 * dim)
            assert len(table) == comb(order + dim, dim)


def test_tracer_records_and_restores():
    import bianchi_lab

    modules = [boundary, bvp, charts, jets, quadrature]
    original = jets.Jet.__mul__
    tracer = spans.Tracer()
    tracer.install(modules, [(jets.Jet, "__mul__", "jets.mul", "jets.mul",
                              spans._jet_mul_hook)])
    try:
        x = jets.Jet.variables(np.zeros((5, 3)), 2)
        (x[0] * x[1]) * 2.0
        2.0 * x[2]
    finally:
        tracer.uninstall()
    assert jets.Jet.__mul__ is original and jets.Jet.__rmul__ is original
    assert tracer.by_group["jets.mul"][0] == 3
    pairs, k = comb(2 + 6, 6), comb(2 + 3, 3)
    assert tracer.counters["jets.mul.flop"] == 5 * pairs + 2 * 5 * k
    metrics = spans.per_layer_metrics(tracer, 1)
    assert set(metrics) == set(spans.PER_LAYER)
    assert metrics["jets.mul.calls"]["value"] == 3
    assert metrics["jets.mul.gflop"]["value"] == pytest.approx(
        (5 * pairs + 2 * 5 * k) / 1e9)
    assert bianchi_lab.jets.Jet.__mul__ is original


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == spans.PER_LAYER
