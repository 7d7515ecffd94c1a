"""Verification suites: each returns report cases with stable anchors.

A case is {name, value, tolerance, at_least, pass, anchor}.  It passes
iff value <= tolerance; a lower-bound case (at_least true: an obstruction
residual, a smallest singular value, a convergence slope) passes iff
value >= tolerance, and reports the measured quantity itself, never its
distance from the bound.  Anchors are stable identity tags naming the
mathematical fact a case checks, one per case.
"""

from __future__ import annotations

import numpy as np

from . import algebra as alg
from .boundary import CollarChart, constraint_residuals_at, \
    weyl_constraint_residual_at
from .charts import (
    bianchi_b,
    chart_geometry,
    divergence,
    make_chart,
    orthonormal_frame,
    rm_covector,
    sample_points,
    sym_to_frame,
)
from .linearize import (
    Perturbation,
    dboundary_data_fd,
    equivariance_residual,
    first_order_dependence_residual,
    gamma_tilde_at,
    jet_surgery_pair,
    normal_identity_residuals,
    richardson_slope,
    sample_connection,
    trig_poly_sym_field,
)
from .jets import poly_coeffs, separable, sin_coeffs, stack

__all__ = ["run_suite", "SUITES", "slab_solve_cases",
           "slab_unchecked_reason"]


def _case(name, value, tolerance, anchor, at_least=False):
    value, tolerance = float(value), float(tolerance)
    passed = value >= tolerance if at_least else value <= tolerance
    return {"name": name, "value": value, "tolerance": tolerance,
            "at_least": bool(at_least), "pass": bool(passed),
            "anchor": anchor}


# ---------------------------------------------------------------------------
# algebra


def _batch(covectors) -> alg.KmCovector:
    """One batched covector from unbatched ones of the same type."""
    a = covectors[0]
    return alg.KmCovector(a.dim, a.k, a.m,
                          np.stack([c.coeffs for c in covectors]))


def suite_algebra(cfg) -> list:
    rng = np.random.default_rng(cfg["seed"])
    cases = []
    for d in cfg.get("dims") or [3, 4, 5, 6]:
        draws = [(alg.random_bianchi(rng, d, 2, 2),
                  alg.random_bianchi(rng, d, 1, 1))
                 for _ in range(cfg.get("samples", 50))]
        psi, sig = (_batch(group) for group in zip(*draws))
        r1, r2 = alg.duality_residuals(psi, sig)
        scale = np.maximum(np.maximum(psi.norm_inf(), sig.norm_inf()), 1.0)
        cases.append(_case(f"duality-contraction-d{d}",
                           np.max(np.maximum(r1, r2) / scale), 1e-12,
                           "duality.einstein-contraction"))
    psi = alg.random_bianchi(rng, 4, 2, 2, rational=True)
    sig = alg.random_bianchi(rng, 4, 1, 1, rational=True)
    r1, r2 = alg.duality_residuals(psi, sig)
    cases.append(_case("duality-rational-exact", max(r1, r2), 0.0,
                       "duality.einstein-contraction"))

    sign_ok = True
    for d in range(2, 7):
        for k in range(d + 1):
            a = alg.random_covector(rng, d, k, 1 if d > 1 else 0)
            twice = alg.hodge(alg.hodge(a, "first"), "first")
            expect = (-1.0) ** (k * (d - k))
            if (twice - expect * a).norm_inf() > 1e-13 * max(1, a.norm_inf()):
                sign_ok = False
    cases.append(_case("hodge-sign-law", 0.0 if sign_ok else 1.0, 1e-13,
                       "hodge.double-dual-sign"))

    triples = [(alg.random_covector(rng, 4, 1, 1),
                alg.random_covector(rng, 4, 1, 0),
                alg.random_covector(rng, 4, 0, 1)) for _ in range(100)]
    a, b, c = (_batch(group) for group in zip(*triples))
    defect = (alg.wedge(alg.wedge(a, b), c)
              - alg.wedge(a, alg.wedge(b, c))).norm_inf()
    cases.append(_case("wedge-associativity", float(np.max(defect)), 1e-13,
                       "wedge.associativity"))

    m = rng.standard_normal((4, 4))
    sym_defect = alg.bianchi_sum(
        alg.sym_matrix_covector(0.5 * (m + m.T))).norm_inf()
    anti_value = alg.bianchi_sum(
        alg.sym_matrix_covector(0.5 * (m - m.T))).norm_inf()
    cases.append(_case("bianchi-kernel-symmetric", sym_defect, 1e-13,
                       "bianchi-sum.symmetric-kernel"))
    cases.append(_case("bianchi-kernel-rejects-antisymmetric", anti_value,
                       0.1, "bianchi-sum.symmetric-kernel", at_least=True))

    worst_kulkarni = 0.0
    for d in (3, 4, 5):
        w1 = alg.random_covector(rng, d, 1, 0)
        w2 = alg.random_covector(rng, d, 1, 0)
        plane = alg.wedge(w1, w2)
        sq = alg.wedge(plane, alg.transpose(plane))
        worst_kulkarni = max(worst_kulkarni,
                             alg.bianchi_sum(sq).norm_inf()
                             / max(1.0, sq.norm_inf()))
    cases.append(_case("kulkarni-squares-in-kernel", worst_kulkarni, 1e-13,
                       "kulkarni.kernel-span"))
    return cases


# ---------------------------------------------------------------------------
# chart calculus


def suite_calculus(cfg) -> list:
    rng = np.random.default_rng(cfg["seed"])
    cases = []
    npts = cfg.get("samples", 100)
    for d in cfg.get("dims") or [3, 4]:
        for preset, kw in (("conformal_bump", {"amp": 0.1}),
                           ("curved_generic", {"seed": 13})):
            chart = make_chart(preset, d, **kw)
            pts = sample_points(chart, npts, rng)
            geom = chart_geometry(chart, pts, order=4)
            riem = geom.riem.value
            ein = geom.ein.value
            frame = orthonormal_frame(geom.g.value)
            ein_f = sym_to_frame(ein, frame)
            tag = f"{preset}-d{d}"
            rm = rm_covector(riem, frame)
            scale = np.maximum(1.0, rm.norm_inf())
            worst_b = np.max(alg.bianchi_sum(rm).norm_inf() / scale)
            worst_e = np.max(np.abs(alg.op_e(rm).sym_matrix() - ein_f)
                             .max(axis=(-2, -1)) / scale)
            if d >= 4:
                p, wey = alg.schouten_weyl_split(rm, tol=1e-6)
                recon = -1.0 * alg.wedge(alg.metric_covector(d), p) + wey
                worst_w = np.max(np.maximum((recon - rm).norm_inf(),
                                            alg.trace(wey).norm_inf()) / scale)
                cp = -(d - 2) * alg.op_c(p).sym_matrix()
                worst_cp = np.max(np.abs(cp - ein_f).max(axis=(-2, -1))
                                  / scale)
            cases.append(_case(f"first-bianchi-{tag}", worst_b, 1e-8,
                               "curvature.first-bianchi"))
            cases.append(_case(f"einstein-contraction-{tag}", worst_e, 1e-8,
                               "curvature.einstein-from-riemann"))
            div_bric = divergence(geom, bianchi_b(geom, geom.ric)).value
            cases.append(_case(f"gauged-divergence-ricci-{tag}",
                               float(np.abs(div_bric).max()), 1e-8,
                               "curvature.divergence-free"))
            if d >= 4:
                cases.append(_case(f"weyl-split-{tag}", worst_w, 1e-8,
                                   "weyl.traceless-reconstruction"))
                cases.append(_case(f"schouten-einstein-{tag}", worst_cp, 1e-8,
                                   "weyl.schouten-einstein"))
    # flat presets carry no curvature
    worst_flat = 0.0
    for preset in ("flat_cartesian", "flat_slab_periodic", "polar_ball"):
        chart = make_chart(preset, 3)
        pts = sample_points(chart, 20, rng)
        geom = chart_geometry(chart, pts, order=4)
        worst_flat = max(worst_flat,
                         float(np.abs(geom.riem.value).max()))
    cases.append(_case("flat-presets-zero-curvature", worst_flat, 1e-12,
                       "curvature.flat-presets"))
    return cases


# ---------------------------------------------------------------------------
# boundary


def suite_boundary(cfg) -> list:
    rng = np.random.default_rng(cfg["seed"])
    cases = []
    npts = cfg.get("samples", 50)
    for d in cfg.get("dims") or [3, 4]:
        for preset, kw in (("conformal_bump", {"amp": 0.1}),
                           ("curved_generic", {"seed": 17})):
            chart = make_chart(preset, d, **kw)
            y = rng.uniform(0.1, 0.9, size=(npts, d - 1))
            res = constraint_residuals_at(CollarChart(chart), y)
            worst = max(float(np.abs(res[k]).max())
                        for k in ("rnn", "rnt", "rtt"))
            cases.append(_case(f"gauss-codazzi-{preset}-d{d}", worst, 1e-8,
                               "constraint.gauss-codazzi"))
    for d in cfg.get("dims_weyl") or [4, 5]:
        chart = make_chart("conformal_bump", d, amp=0.1)
        y = rng.uniform(0.1, 0.9, size=(min(npts, 25), d - 1))
        out = weyl_constraint_residual_at(CollarChart(chart), y)
        cases.append(_case(f"weyl-electric-constraint-d{d}",
                           float(np.abs(out["residual"]).max()), 1e-8,
                           "constraint.weyl-electric"))
        cases.append(_case(f"radial-curvature-equation-d{d}",
                           float(np.abs(out["rm_defect"]).max()), 1e-8,
                           "constraint.radial-curvature"))
    # flat-ball cancellation with individually nonzero terms
    d, R = 4, 2.0
    chart = make_chart("polar_ball", d, radius=R)
    y = rng.uniform(0.9, 1.1, size=(10, d - 1))
    res = constraint_residuals_at(CollarChart(chart), y)
    lhs_nn, sc_b, a_sq, tr_a_sq = res["terms_nn"]
    terms = max(float(np.abs(term - closed).max()) for term, closed in (
        (sc_b, (d - 1) * (d - 2) / R ** 2), (a_sq, (d - 1) / R ** 2),
        (tr_a_sq, (d - 1) ** 2 / R ** 2)))
    cases.append(_case("flat-ball-scalar-terms", terms, 1e-9,
                       "constraint.flat-ball-cancellation"))
    cases.append(_case("flat-ball-scalar-cancellation",
                       float(np.abs(res["rnn"]).max()), 1e-9,
                       "constraint.flat-ball-cancellation"))
    return cases


# ---------------------------------------------------------------------------
# linearization


def _probe_vector_field(x, order):
    """X = (0.3 sin 2 x_1, 0.2 x_0 x_2, 0.1 x_0), separable components."""
    return stack([
        separable(3, order, {1: 0.3 * sin_coeffs(2.0, 2.0 * x[..., 1], order)}),
        separable(3, order, {0: poly_coeffs(x[..., 0], (0.0, 0.2), order),
                             2: poly_coeffs(x[..., 2], (0.0, 1.0), order)}),
        separable(3, order, {0: poly_coeffs(x[..., 0], (0.0, 0.1), order)})])


def _lateral_wave(x, order):
    """sigma = x_2^2 sin(2 pi x_1) dx_0^2, a separable jet."""
    wave = separable(3, order, {
        1: sin_coeffs(2 * np.pi, 2 * np.pi * x[..., 1], order),
        2: poly_coeffs(x[..., 2], (0.0, 0.0, 1.0), order)})
    return wave[..., None, None] * np.diag([1.0, 0.0, 0.0])


def suite_linearization(cfg) -> list:
    rng = np.random.default_rng(cfg["seed"])
    cases = []
    chart = make_chart("conformal_bump", 3, amp=0.1)
    pts = np.stack([rng.uniform(0.15, 0.85, 6) for _ in range(3)], axis=-1)

    sigma = trig_poly_sym_field(3, cfg["seed"] + 1)
    slope = richardson_slope(chart, pts, sigma)
    cases.append(_case("ricci-variation-richardson-slope", slope, 1.9,
                       "ricci-variation.closed-vs-fd", at_least=True))

    cases.append(_case("equivariance-killing-directions",
                       equivariance_residual(chart, pts,
                                             _probe_vector_field), 1e-6,
                       "equivariance.lie-ricci"))

    base = trig_poly_sym_field(3, cfg["seed"] + 2)
    s1, s2 = jet_surgery_pair(base, pts[0])
    g1 = gamma_tilde_at(chart, pts[0:1], s1, conn=sample_connection)
    g2 = gamma_tilde_at(chart, pts[0:1], s2, conn=sample_connection)
    cases.append(_case("covariant-correction-tensoriality",
                       float(np.abs(g1 - g2).max()), 1e-7,
                       "covariant-correction.tensorial"))

    cases.append(_case("gauged-divergence-first-order-dependence",
                       first_order_dependence_residual(chart, pts[0:1],
                                                       s1, s2),
                       1e-7, "order-reduction.first-order"))

    slab = make_chart("flat_slab_periodic", 3)
    collar = CollarChart(slab)
    y = rng.uniform(0.2, 0.8, size=(3, 2))
    sig2 = trig_poly_sym_field(3, cfg["seed"] + 3, boundary_order=2)
    r1, _, r3 = normal_identity_residuals(collar, y, sig2)
    cases.append(_case("normal-trace-mixed-order2", r1, 1e-6,
                       "normal-trace.mixed"))

    # at order two the first normal trace is -div(T^tan), not zero: for
    # sigma = x_d^2 sin(2 pi x_1) dx_0^2 it is (0, -2 pi cos 2 pi x_1, 0)
    _, r2, _ = normal_identity_residuals(
        collar, y, Perturbation(_lateral_wave, 3, 2))
    closed = 2 * np.pi * float(np.abs(np.cos(2 * np.pi * y[:, 1])).max())
    cases.append(_case("normal-trace-first-order2", abs(r2 - closed), 1e-6,
                       "normal-trace.first"))
    cases.append(_case("normal-trace-second-order2", r3, 1e-6,
                       "normal-trace.second"))
    sig3 = trig_poly_sym_field(3, cfg["seed"] + 4, boundary_order=3)
    r1b, r2b, r3b = normal_identity_residuals(collar, y, sig3)
    cases.append(_case("normal-trace-vanishing-source",
                       max(r1b, r2b, r3b), 1e-6, "normal-trace.lemma-form"))

    # linearized Cauchy data of boundary-vanishing deformations
    sig_k = trig_poly_sym_field(3, cfg["seed"] + 5, boundary_order=2)
    dA, dH, dM = dboundary_data_fd(collar, y, sig_k)
    cases.append(_case("boundary-kernel-inclusion",
                       max(np.abs(dA).max(), np.abs(dH).max()), 1e-6,
                       "boundary-data.kernel-inclusion"))
    return cases


# ---------------------------------------------------------------------------
# green formulae


def suite_green(cfg) -> list:
    from .quadrature import (
        GridSpec,
        box_bump_sym_field,
        convergence_study,
        green_einstein_sym_defect,
        green_killing_defect,
        green_symmetry_defects,
        periodic_sym_field,
        periodic_vector_field,
    )

    cases = []
    seed = cfg["seed"]
    slab = make_chart("flat_slab_periodic", 3)

    grid = GridSpec.for_chart(slab, 16)
    X0 = periodic_vector_field(3, seed + 1, normal_vanish=2)
    sig0 = periodic_sym_field(3, seed + 2)
    cases.append(_case("killing-adjunction-interior", green_killing_defect(
        grid, slab, X0, sig0), 1e-10, "green.killing"))

    bump = make_chart("conformal_bump", 3, amp=0.1)
    X1 = periodic_vector_field(3, seed + 3)
    sig1 = trig_poly_sym_field(3, seed + 4)
    study = convergence_study(
        lambda n: green_killing_defect(GridSpec.for_chart(bump, n),
                                       bump, X1, sig1),
        cfg.get("grid") or [8, 16, 32])
    slope = study["slope"] if study["status"] == "ok" else 2.0
    cases.append(_case("killing-adjunction-slope", slope, 1.8,
                       "green.killing-convergence", at_least=True))

    sig2 = periodic_sym_field(3, seed + 5, normal_vanish=2)
    eta2 = periodic_sym_field(3, seed + 6, normal_vanish=2)
    ein_defect, dewitt_defect = green_symmetry_defects(grid, slab, sig2, eta2)
    cases.append(_case("einstein-symmetry-interior", ein_defect, 1e-9,
                       "green.einstein-symmetry"))
    cases.append(_case("dewitt-ricci-route-agreement",
                       abs(ein_defect - dewitt_defect), 1e-9,
                       "green.dewitt-ricci"))

    ball = make_chart("polar_ball", 3)
    sb = box_bump_sym_field(ball, seed + 7)
    eb = box_bump_sym_field(ball, seed + 8)
    study2 = convergence_study(
        lambda n: green_einstein_sym_defect(GridSpec.for_chart(ball, n),
                                            ball, sb, eb),
        cfg.get("grid") or [8, 16, 32])
    slope2 = study2["slope"] if study2["status"] == "ok" else 2.0
    cases.append(_case("einstein-symmetry-slope-ricci-flat", slope2, 1.8,
                       "green.einstein-convergence", at_least=True))

    study3 = convergence_study(
        lambda n: green_einstein_sym_defect(GridSpec.for_chart(bump, n),
                                            bump, sig2, eta2,
                                            ein_corrected=True),
        cfg.get("grid") or [8, 16, 32])
    slope3 = study3["slope"] if study3["status"] == "ok" else 2.0
    cases.append(_case("einstein-symmetry-slope-corrected", slope3, 1.8,
                       "green.einstein-convergence-corrected",
                       at_least=True))
    return cases


# ---------------------------------------------------------------------------
# bvp


def slab_unchecked_reason(kind: str, grids, study: bool = True):
    """Why ``slab_solve_cases`` builds no case for a slab source of this
    kind on these grids, or None when it builds one."""
    from .bvp import SOURCE_MIN_GRID

    if max(grids) < SOURCE_MIN_GRID[kind]:
        return f"needs a grid >= {SOURCE_MIN_GRID[kind]}"
    if kind == "continuum-admissible" and not (study and len(grids) >= 3):
        return ("is checked only by its convergence slope: needs --study "
                "and at least 3 grids")
    return None


def slab_solve_cases(chart, runs, study: bool = True):
    """Solve slab sources with ``solve_least_squares`` and judge them, one
    rule per kind.

    ``runs`` holds (kind, grids, seed) triples; grids below the kind's
    ``SOURCE_MIN_GRID`` are dropped.  discrete-admissible: one case per
    grid, residual <= 1e-8.  continuum-admissible: its
    convergence slope >= 1.8, over at least 3 grids and only with
    ``study``.  inadmissible-*: the smallest residual over the grids stays
    >= 0.05.  Returns (cases, residual tables {kind: [[n, residual]]} of
    the kinds solved, {kind: reason} of the kinds that got no case).
    """
    from .bvp import (
        SOURCE_MIN_GRID,
        assemble,
        make_source,
        solve_least_squares,
    )

    cases, tables, unchecked = [], {}, {}
    for kind, grids, seed in runs:
        reason = slab_unchecked_reason(kind, grids, study)
        if reason:
            unchecked[kind] = reason
        grids = [n for n in grids if n >= SOURCE_MIN_GRID[kind]]
        rels = [solve_least_squares(assemble(n, chart),
                                    make_source(n, chart, kind, seed=seed)
                                    )[1].relative_residual for n in grids]
        if rels:
            tables[kind] = [[n, r] for n, r in zip(grids, rels)]
        if reason:
            continue
        if kind == "discrete-admissible":
            cases.extend(_case(f"solvable-discrete-n{n}", r, 1e-8,
                               "bvp.solvable-discrete")
                         for n, r in zip(grids, rels))
        elif kind == "continuum-admissible":
            slope = float(np.polyfit(np.log([1.0 / n for n in grids]),
                                     np.log(rels), 1)[0])
            cases.append(_case("solvable-continuum-slope", slope, 1.8,
                               "bvp.solvable-continuum", at_least=True))
        else:
            tag = kind.split("-")[1]
            cases.append(_case(f"obstruction-{tag}", min(rels), 0.05,
                               f"bvp.obstruction-{tag}", at_least=True))
    return cases, tables, unchecked


def suite_bvp(cfg) -> list:
    from .bvp import (
        assemble,
        cohomology_probe,
        deflated_gap,
        kernel_probe,
        lateral_block_svals,
        spectral_gap,
    )

    seed = cfg["seed"]
    d = cfg.get("dim", 3)
    chart = make_chart("flat_slab_periodic", d)
    grid = cfg.get("grid")
    cases, _, unchecked = slab_solve_cases(chart, [
        ("discrete-admissible", [max(grid or [16])], seed),
        ("continuum-admissible", grid or [8, 12, 16], seed + 1),
        ("inadmissible-divergence", (8, 16), seed + 2),
        ("inadmissible-boundary", (8, 16), seed + 2)])
    if unchecked:
        raise ValueError("; ".join(f"the {kind} source {why}"
                                   for kind, why in unchecked.items()))

    spec8 = lateral_block_svals(8, d)["spectrum"]
    sig_min = float(spec8[0])
    probe = kernel_probe(assemble(8, chart).matrix)
    cases.append(_case("kernel-sigma-min-positive", sig_min,
                       1e-8 * spec8[-1], "bvp.kernel-sigma-min",
                       at_least=True))
    cases.append(_case("kernel-probe-consistency", abs(probe - sig_min),
                       1e-8 * spec8[-1], "bvp.kernel-probe"))
    gap8, nk8 = spectral_gap(spec8)
    gap16, nk16 = deflated_gap(16, d)
    cases.append(_case("kernel-gap-stability",
                       gap8 / gap16 if gap16 else np.inf, 2.0,
                       "bvp.kernel-gap-stability"))

    probe8 = cohomology_probe(8, chart)
    probe12 = cohomology_probe(12, chart)
    cases.append(_case("cohomology-slab",
                       probe8["dim_h1"] + probe12["dim_h1"]
                       + probe8["dim_h0"] + probe12["dim_h0"], 0.0,
                       "bvp.cohomology-slab"))
    torus = cohomology_probe(8, chart, closed_torus=True)
    cases.append(_case("cohomology-torus-kernel", torus["dim_h0"], d,
                       "bvp.cohomology-torus", at_least=True))
    cases.append(_case("cohomology-torus-control",
                       float(max(torus["translation_image_norms"])), 1e-10,
                       "bvp.cohomology-torus"))
    return cases


SUITES = {
    "algebra": suite_algebra,
    "calculus": suite_calculus,
    "boundary": suite_boundary,
    "linearization": suite_linearization,
    "green": suite_green,
    "bvp": suite_bvp,
}

#: The keys each suite reads besides ``seed``; ``all`` reads their union.
_SUITE_KEYS = {"algebra": ("dims", "samples"), "calculus": ("dims", "samples"),
               "boundary": ("dims", "dims_weyl", "samples"),
               "linearization": (), "green": ("grid",), "bvp": ("dim", "grid")}


def run_suite(name: str, cfg: dict) -> list:
    if name == "all":
        cases = []
        for key in SUITES:
            cases.extend(run_suite(key, cfg))
        return cases
    return SUITES[name](cfg)
