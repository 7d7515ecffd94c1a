"""Acceptance gate: every criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line.  Three sub-criteria rest on
an analysis recorded in DECISIONS.md: the two slab criteria 9 (the
width-modulus deformations, removed by the sigma(n, .) boundary rows)
and the order-two normal-trace criterion 7 (whose first normal trace
equals a boundary divergence rather than zero).  They are isolated in
their own test functions and print their measured values.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from bianchi_lab import algebra as alg
from bianchi_lab.boundary import (
    CollarChart,
    constraint_residuals_at,
    weyl_constraint_residual_at,
)
from bianchi_lab.charts import (
    bianchi_b,
    chart_geometry,
    divergence,
    make_chart,
    orthonormal_frame,
    rm_covector,
    sample_points,
    sym_to_frame,
    tensor_values,
)
from bianchi_lab.jets import Jet, stack
from bianchi_lab.linearize import (
    dboundary_data_fd,
    equivariance_residual,
    first_order_dependence_residual,
    gamma_tilde_at,
    jet_surgery_pair,
    normal_identity_residuals,
    richardson_slope,
    trig_poly_sym_field,
)

from oracles import jet_sin



def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_duality_identities():
    rng = np.random.default_rng(11)
    t0 = time.time()
    worst = 0.0
    for d in (3, 4, 5, 6):
        for _ in range(200):
            psi = alg.random_bianchi(rng, d, 2, 2)
            sig = alg.random_bianchi(rng, d, 1, 1)
            r1, r2 = alg.duality_residuals(psi, sig)
            scale = max(psi.norm_inf(), sig.norm_inf(), 1.0)
            worst = max(worst, r1 / scale, r2 / scale)
    exact = 0
    for d in (3, 4, 5):
        psi = alg.random_bianchi(rng, d, 2, 2, rational=True)
        sig = alg.random_bianchi(rng, d, 1, 1, rational=True)
        r1, r2 = alg.duality_residuals(psi, sig)
        exact = max(exact, r1, r2)
    elapsed = time.time() - t0
    report("criterion 1 (contraction duality)",
           worst <= 1e-12 and exact == 0 and elapsed <= 5.0,
           f"float residual {worst:.2e} (tol 1e-12), rational residual "
           f"{exact}, runtime {elapsed:.1f}s (budget 5s)")


def test_criterion_02_appendix_algebra():
    rng = np.random.default_rng(12)
    sign_ok = True
    for d in range(2, 7):
        for k in range(d + 1):
            for I in combinations(range(d), k):
                a = alg.basis_covector(d, I, ())
                twice = alg.hodge(alg.hodge(a, "first"), "first")
                if (twice - (-1.0) ** (k * (d - k)) * a).norm_inf() != 0:
                    sign_ok = False

    assoc = 0.0
    for _ in range(100):
        a = alg.random_covector(rng, 4, 1, 1)
        b = alg.random_covector(rng, 4, 1, 0)
        c = alg.random_covector(rng, 4, 0, 1)
        assoc = max(assoc, (alg.wedge(alg.wedge(a, b), c)
                            - alg.wedge(a, alg.wedge(b, c))).norm_inf())
    ra = alg.random_bianchi(rng, 4, 1, 1, rational=True)
    rb = alg.random_bianchi(rng, 4, 1, 1, rational=True)
    rc = alg.random_bianchi(rng, 4, 1, 1, rational=True)
    assoc_exact = (alg.wedge(alg.wedge(ra, rb), rc)
                   - alg.wedge(ra, alg.wedge(rb, rc))).norm_inf()

    m = rng.standard_normal((4, 4))
    sym_in = alg.bianchi_sum(alg.sym_matrix_covector(0.5 * (m + m.T)))
    anti_out = alg.bianchi_sum(alg.sym_matrix_covector(0.5 * (m - m.T)))

    kulkarni = 0.0
    for d in (3, 4, 5, 6):
        w1 = alg.random_covector(rng, d, 1, 0)
        w2 = alg.random_covector(rng, d, 1, 0)
        plane = alg.wedge(w1, w2)
        sq = alg.wedge(plane, alg.transpose(plane))
        kulkarni = max(kulkarni, alg.bianchi_sum(sq).norm_inf()
                       / max(1.0, sq.norm_inf()))

    ok = (sign_ok and assoc <= 1e-13 and assoc_exact == 0
          and sym_in.norm_inf() <= 1e-13 and anti_out.norm_inf() > 0.1
          and kulkarni <= 1e-13)
    report("criterion 2 (appendix algebra)", ok,
           f"sign law {'exact' if sign_ok else 'BROKEN'}, associativity "
           f"{assoc:.2e}/rational {assoc_exact}, symmetric-kernel "
           f"{sym_in.norm_inf():.2e}, kulkarni {kulkarni:.2e}")


def test_criterion_03_curvature_identities():
    rng = np.random.default_rng(13)
    worst = {"bianchi": 0.0, "einstein": 0.0, "gauge_div": 0.0,
             "weyl": 0.0, "schouten": 0.0}
    for d in (3, 4):
        for preset, kw in (("conformal_bump", {"amp": 0.1}),
                           ("curved_generic", {"seed": 13})):
            chart = make_chart(preset, d, **kw)
            pts = sample_points(chart, 100, rng)
            geom = chart_geometry(chart, pts, order=4)
            riem = tensor_values(geom.riem)
            ein = tensor_values(geom.ein)
            frame = orthonormal_frame(tensor_values(geom.g))
            ein_f = sym_to_frame(ein, frame)
            g_alg = alg.metric_covector(d)
            for i in range(len(pts)):
                rm = rm_covector(riem[i], frame[i])
                scale = max(1.0, rm.norm_inf())
                worst["bianchi"] = max(worst["bianchi"],
                                       alg.bianchi_sum(rm).norm_inf() / scale)
                worst["einstein"] = max(
                    worst["einstein"],
                    float(np.abs(alg.op_e(rm).sym_matrix()
                                 - ein_f[i]).max()) / scale)
                if d == 4:
                    p, wey = alg.schouten_weyl_split(rm)
                    worst["weyl"] = max(
                        worst["weyl"],
                        alg.trace(wey).norm_inf() / scale,
                        (-1.0 * alg.wedge(g_alg, p) + wey - rm).norm_inf()
                        / scale)
                    worst["schouten"] = max(
                        worst["schouten"],
                        float(np.abs(-(d - 2) * alg.op_c(p).sym_matrix()
                                     - ein_f[i]).max()) / scale)
            div_bric = tensor_values(
                divergence(geom, bianchi_b(geom, geom.ric)))
            worst["gauge_div"] = max(worst["gauge_div"],
                                     float(np.abs(div_bric).max()))
    ok = all(v <= 1e-8 for v in worst.values())
    report("criterion 3 (curvature identities)", ok,
           ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
           + " (tol 1e-8)")


def test_criterion_04_constraint_equations():
    rng = np.random.default_rng(14)
    worst_gc = 0.0
    for d in (4, 5):
        for preset, kw in (("conformal_bump", {"amp": 0.1}),
                           ("curved_generic", {"seed": 17})):
            chart = make_chart(preset, d, **kw)
            y = rng.uniform(0.1, 0.9, size=(50, d - 1))
            res = constraint_residuals_at(CollarChart(chart), y)
            worst_gc = max(worst_gc, *(float(np.abs(res[k]).max())
                                       for k in ("rnn", "rnt", "rtt")))
    worst_weyl = 0.0
    for d in (4, 5):
        chart = make_chart("conformal_bump", d, amp=0.1)
        y = rng.uniform(0.1, 0.9, size=(50, d - 1))
        out = weyl_constraint_residual_at(CollarChart(chart), y)
        worst_weyl = max(worst_weyl, float(np.abs(out["residual"]).max()),
                         float(np.abs(out["rm_defect"]).max()))

    d, R = 4, 2.0
    chart = make_chart("polar_ball", d, radius=R)
    y = rng.uniform(0.9, 1.1, size=(10, d - 1))
    res = constraint_residuals_at(CollarChart(chart), y)
    _, sc_b, a_sq, tr_a_sq = res["terms_nn"]
    ball_ok = (np.allclose(sc_b, (d - 1) * (d - 2) / R ** 2, atol=1e-9)
               and np.allclose(a_sq, (d - 1) / R ** 2, atol=1e-9)
               and np.allclose(tr_a_sq, (d - 1) ** 2 / R ** 2, atol=1e-9)
               and np.abs(res["rnn"]).max() <= 1e-9)

    ok = worst_gc <= 1e-8 and worst_weyl <= 1e-8 and ball_ok
    report("criterion 4 (constraint equations)", ok,
           f"gauss-codazzi {worst_gc:.2e}, weyl {worst_weyl:.2e} (tol 1e-8), "
           f"flat-ball cancellation with nonzero terms "
           f"{'holds' if ball_ok else 'FAILS'}")


def test_criterion_05_green_killing():
    from bianchi_lab.quadrature import (
        GridSpec,
        convergence_study,
        green_killing_defect,
        periodic_sym_field,
        periodic_vector_field,
    )

    slab = make_chart("flat_slab_periodic", 3)
    grid = GridSpec.for_chart(slab, 16)
    interior = green_killing_defect(
        grid, slab, periodic_vector_field(3, 51, normal_vanish=2),
        periodic_sym_field(3, 52))

    bump = make_chart("conformal_bump", 3, amp=0.1)
    X = periodic_vector_field(3, 53)
    sig = trig_poly_sym_field(3, 54)
    study = convergence_study(
        lambda n: green_killing_defect(GridSpec.for_chart(bump, n), bump,
                                       X, sig), (8, 16, 32))
    slope = study["slope"]
    ok = interior <= 1e-10 and slope >= 1.8
    report("criterion 5 (Killing Green formula)", ok,
           f"interior-supported defect {interior:.2e} (tol 1e-10), "
           f"general-pair slope {slope:.2f} (need >= 1.8)")


def test_criterion_06_green_einstein_symmetry():
    from bianchi_lab.quadrature import (
        GridSpec,
        box_bump_sym_field,
        convergence_study,
        green_einstein_sym_defect,
        periodic_sym_field,
    )

    slab = make_chart("flat_slab_periodic", 3)
    grid = GridSpec.for_chart(slab, 16)
    sig = periodic_sym_field(3, 61, normal_vanish=2)
    eta = periodic_sym_field(3, 62, normal_vanish=2)
    interior = green_einstein_sym_defect(grid, slab, sig, eta)

    ball = make_chart("polar_ball", 3)
    study_flat = convergence_study(
        lambda n: green_einstein_sym_defect(
            GridSpec.for_chart(ball, n), ball, box_bump_sym_field(ball, 63),
            box_bump_sym_field(ball, 64)), (8, 16, 32))
    bump = make_chart("conformal_bump", 3, amp=0.1)
    study_corr = convergence_study(
        lambda n: green_einstein_sym_defect(
            GridSpec.for_chart(bump, n), bump, sig, eta,
            ein_corrected=True), (8, 16, 32))
    s1, s2 = study_flat["slope"], study_corr["slope"]
    ok = interior <= 1e-9 and s1 >= 1.8 and s2 >= 1.8
    report("criterion 6 (Einstein/Ricci Green symmetry)", ok,
           f"interior-supported defect {interior:.2e} (tol 1e-9), slopes: "
           f"ricci-flat chart {s1:.2f}, tensorial-corrected curved {s2:.2f} "
           f"(need >= 1.8)")


def test_criterion_07_linearization_identities():
    rng = np.random.default_rng(17)
    chart = make_chart("conformal_bump", 3, amp=0.1)
    pts = np.stack([rng.uniform(0.15, 0.85, 6) for _ in range(3)], axis=-1)

    slope = richardson_slope(chart, pts, trig_poly_sym_field(3, 71))

    def xf(x, order):
        xs = Jet.variables(x, order)
        return stack([jet_sin(xs[1] * 2.0) * 0.3, xs[2] * xs[0] * 0.2,
                      0.1 * xs[0]])

    equi = equivariance_residual(chart, pts, xf)

    s1, s2 = jet_surgery_pair(trig_poly_sym_field(3, 72), pts[0])
    tens = float(np.abs(
        gamma_tilde_at(chart, pts[0:1], s1)
        - gamma_tilde_at(chart, pts[0:1], s2)).max())

    slab = CollarChart(make_chart("flat_slab_periodic", 3))
    y = rng.uniform(0.2, 0.8, size=(3, 2))
    r1, _, r3 = normal_identity_residuals(
        slab, y, trig_poly_sym_field(3, 73, boundary_order=2))
    lr1, lr2, lr3 = normal_identity_residuals(
        slab, y, trig_poly_sym_field(3, 74, boundary_order=3))

    ok = (slope >= 1.9 and equi <= 1e-6 and tens <= 1e-7 and r1 <= 1e-6
          and r3 <= 1e-6 and max(lr1, lr2, lr3) <= 1e-6)
    report("criterion 7 (linearization identities)", ok,
           f"richardson slope {slope:.2f} (>=1.9), equivariance {equi:.1e} "
           f"(tol 1e-6), tensoriality {tens:.1e} (tol 1e-7), mixed "
           f"normal-trace {r1:.1e} and tangential-divergence form {r3:.1e} "
           f"at order-2, all traces {max(lr1, lr2, lr3):.1e} on "
           f"vanishing-trace sources (tol 1e-6)")


def test_criterion_07_first_normal_trace_at_order_two():
    # for a source with order-two boundary vanishing, T(n, .) vanishes on
    # the face but the first normal trace does not: the linearized
    # contracted Bianchi identity gives (nabla_n T)(n, .) = -div(T^tan)
    # there.  For sigma = x_d^2 s(x_1) dx_0^2, s = sin 2 pi x_1, that is
    # (0, -s', 0), so r2 = 2 pi max |cos 2 pi y_1|.  Vanishing holds from
    # order three on (covered above); see DECISIONS.md, "first normal
    # trace at order two"
    rng = np.random.default_rng(18)
    slab = CollarChart(make_chart("flat_slab_periodic", 3))
    y = rng.uniform(0.2, 0.8, size=(3, 2))

    def lateral_wave(x, order):
        xs = Jet.variables(x, order)
        wave = xs[2] * xs[2] * jet_sin(xs[1] * (2 * np.pi))
        return wave[..., None, None] * np.diag([1.0, 0.0, 0.0])

    from bianchi_lab.linearize import Perturbation

    r1, r2, _ = normal_identity_residuals(slab, y,
                                          Perturbation(lateral_wave, 3))
    expected = 2 * np.pi * float(np.abs(np.cos(2 * np.pi * y[:, 1])).max())
    report("criterion 7 (first normal trace at order-2 vanishing)",
           r1 <= 1e-6 and abs(r2 - expected) <= 1e-6,
           f"normal trace {r1:.1e} (tol 1e-6); first normal trace {r2:.6f} "
           f"against the boundary divergence {expected:.6f} (tol 1e-6)")


def test_criterion_08_solvability_probe():
    # the n >= 12 solves and the continuum study use the direct solve on
    # the real lateral-Fourier blocks; at n=8 the dense-QR range distance
    # checks it and LSMR
    from bianchi_lab.bvp import assemble, make_source, solve_least_squares
    from oracles import lsmr_solve

    t0 = time.time()
    chart = make_chart("flat_slab_periodic", 3)

    src = make_source(16, chart, "discrete-admissible", seed=81)
    _, rep = solve_least_squares(assemble(16, chart), src)
    discrete_rel = rep.relative_residual

    rels = []
    ns = (8, 12, 16)
    for n in ns:
        s = make_source(n, chart, "continuum-admissible", seed=82)
        _, r = solve_least_squares(assemble(n, chart), s)
        rels.append(r.relative_residual)
    slope = float(np.polyfit(np.log([1.0 / n for n in ns]),
                             np.log(rels), 1)[0])

    system8 = assemble(8, chart)
    # A has full column rank, so the Q of its reduced QR spans range(A)
    Q, R = np.linalg.qr(system8.matrix.toarray())
    diag = np.abs(np.diag(R))
    assert diag.min() > 1e-10 * diag.max()
    worst_inadm = 1.0
    oracle_consistent = True
    for kind in ("inadmissible-divergence", "inadmissible-boundary"):
        src8 = make_source(8, chart, kind, seed=83)
        b = system8.rhs_from_einstein_block(src8.values)
        dist = np.linalg.norm(b - Q @ (Q.T @ b)) / np.linalg.norm(b)
        _, r8 = lsmr_solve(system8, src8)
        _, f8 = solve_least_squares(system8, src8)
        oracle_consistent &= abs(dist - r8.relative_residual) <= 1e-6
        oracle_consistent &= abs(dist - f8.relative_residual) <= 1e-6
        src16 = make_source(16, chart, kind, seed=83)
        _, r16 = solve_least_squares(assemble(16, chart), src16)
        worst_inadm = min(worst_inadm, dist, r8.relative_residual,
                          f8.relative_residual, r16.relative_residual)
    elapsed = time.time() - t0
    ok = (discrete_rel <= 1e-8 and slope >= 1.8 and worst_inadm >= 0.05
          and oracle_consistent and elapsed <= 90.0)
    report("criterion 8 (solvability probe)", ok,
           f"discrete-admissible residual {discrete_rel:.2e} (tol 1e-8), "
           f"continuum slope {slope:.2f} (>=1.8), inadmissible residual "
           f">= {worst_inadm:.3f} (need 0.05, dense-QR range oracle "
           f"{'agrees' if oracle_consistent else 'DISAGREES'} with LSMR and "
           f"the Fourier solve), runtime {elapsed:.0f}s (budget 90s)")


def test_criterion_09_torus_control_and_h0():
    from bianchi_lab.bvp import cohomology_probe

    chart = make_chart("flat_slab_periodic", 3)
    torus = cohomology_probe(8, chart, closed_torus=True)
    slab = cohomology_probe(8, chart)
    ok = (torus["dim_h0"] >= 3
          and max(torus["translation_image_norms"]) <= 1e-10
          and slab["dim_h0"] == 0
          and min(slab["translation_image_norms"]) > 1e-3)
    report("criterion 9 (torus Killing control and restored boundary rows)",
           ok,
           f"torus kernel dim {torus['dim_h0']} with exact translation "
           f"witnesses; slab kernel dim {slab['dim_h0']} once boundary "
           f"rows are added")


def test_criterion_09_sigma_min_stability():
    # the constant deformations dx_a.dx_d and dx_d^2 (times the lateral
    # dead modes) move each face by an isometry, so only the sigma(n, .)
    # rows of the extended Cauchy data see them; with those rows the
    # system has no kernel; see DECISIONS.md, "slab kernel"
    from bianchi_lab.bvp import deflated_gap, lateral_block_svals

    spec8 = lateral_block_svals(8, 3)["spectrum"]
    sigma_min = float(spec8[0])
    gap8, nk8 = deflated_gap(8, 3)
    gap16, nk16 = deflated_gap(16, 3)
    stable = gap16 >= gap8 / 2.0
    report("criterion 9 (sigma_min positivity under refinement)",
           sigma_min > 1e-8 * spec8[-1] and stable,
           f"sigma_min = {sigma_min:.3f} ({nk8}-dim kernel, sigma_max "
           f"{spec8[-1]:.0f}); gap {gap8:.3f} -> {gap16:.3f} under "
           f"n=8->16 ({nk16}-dim kernel)")


def test_criterion_09_cohomology_slab():
    # the width-modulus deformations span the kernel of the geometric
    # rows (certified below); the sigma(n, .) rows of the H1 stack remove
    # them; see DECISIONS.md, "slab kernel"
    from bianchi_lab.bvp import assemble, cohomology_probe

    from oracles import discrete_kernel_basis

    chart = make_chart("flat_slab_periodic", 3)
    out8 = cohomology_probe(8, chart)
    out12 = cohomology_probe(12, chart)
    counts = (out8["dim_h0"], out8["dim_h1"], out12["dim_h0"],
              out12["dim_h1"])
    system = assemble(8, chart)
    geometric = system.matrix[system._rows(
        ("einstein", "gauge", "pullback", "dA", "dnA"))]
    certificate = float(np.linalg.norm(
        geometric @ discrete_kernel_basis(8, 3), axis=0).max())
    report("criterion 9 (slab cohomology probe reports (0,0))",
           counts == (0, 0, 0, 0) and certificate <= 1e-12,
           f"measured (h0, h1) = {counts[:2]} at n=8 and {counts[2:]} at "
           f"n=12; kernel certificate norms {certificate:.1e} (<= 1e-12)")


def test_criterion_10_determinism(tmp_path):
    from bianchi_lab.cli import main

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(["verify", "--suite", "algebra", "--seed", "9", "--serial",
                  "--out", str(a)])
    code2 = main(["verify", "--suite", "algebra", "--seed", "9", "--serial",
                  "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    report("criterion 10 (deterministic serial reports)",
           code1 == 0 and code2 == 0 and identical,
           "same manifest and seed give byte-identical reports"
           if identical else "reports differ")
