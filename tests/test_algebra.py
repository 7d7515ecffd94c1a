from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi_lab.algebra import (
    FrameVector,
    KmCovector,
    _require_bianchi,
    basis_covector,
    bianchi_dim,
    bianchi_sum,
    duality_residuals,
    hodge,
    interior,
    metric_covector,
    op_c,
    op_c_inverse,
    op_e,
    project_bianchi,
    random_bianchi,
    random_covector,
    restrict_covector,
    schouten_weyl_split,
    star_star_v,
    sym_matrix_covector,
    trace,
    transpose,
    wedge,
)
from bianchi_lab.charts import (
    chart_geometry,
    make_chart,
    orthonormal_frame,
    rm_covector,
    sample_points,
)

from oracles import (
    bubble_parity,
    covector_to_dict,
    dict_allclose,
    naive_bianchi_sum_dict,
    naive_hodge_dict,
    naive_interior_dict,
    naive_restrict_dict,
    naive_wedge_dict,
    trace_oracle,
    transpose_dict,
)


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# wedge


def test_wedge_single_basis_term():
    a = basis_covector(3, (0,), (0,))
    b = basis_covector(3, (1,), (1,))
    w = wedge(a, b)
    expect = basis_covector(3, (0, 1), (0, 1))
    assert (w - expect).norm_inf() == 0


def test_wedge_degree_overflow_is_zero():
    g = metric_covector(2)
    gg = wedge(g, g)           # (2,2) still fits in d=2
    over = wedge(gg, g)        # (3,3) exceeds d=2
    assert over.coeffs.size == 0
    assert over.norm_inf() == 0


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(metric_covector(2), metric_covector(3))


def test_wedge_associativity_against_expansion_oracle():
    r = rng(1)
    worst = 0.0
    for _ in range(100):
        a = random_covector(r, 4, 1, 1)
        b = random_covector(r, 4, 1, 0)
        c = random_covector(r, 4, 0, 1)
        left = wedge(wedge(a, b), c)
        right = wedge(a, wedge(b, c))
        worst = max(worst, (left - right).norm_inf())
        oracle = naive_wedge_dict(naive_wedge_dict(covector_to_dict(a),
                                                   covector_to_dict(b)),
                                  covector_to_dict(c))
        assert dict_allclose(covector_to_dict(left), oracle, 1e-12)
    assert worst <= 1e-13


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_wedge_bilinear_and_transpose_compatible(seed, d):
    r = rng(seed)
    a = random_covector(r, d, 1, 1)
    b = random_covector(r, d, 1, 0)
    c = random_covector(r, d, 1, 0)
    lin = wedge(a, b + 2.5 * c) - (wedge(a, b) + 2.5 * wedge(a, c))
    assert lin.norm_inf() <= 1e-13
    tw = transpose(wedge(a, b)) - wedge(transpose(a), transpose(b))
    assert tw.norm_inf() <= 1e-13


# ---------------------------------------------------------------------------
# transpose, interior


def test_transpose_involution_and_metric():
    r = rng(2)
    a = random_covector(r, 4, 2, 1)
    assert (transpose(transpose(a)) - a).norm_inf() == 0
    g = metric_covector(5)
    assert (transpose(g) - g).norm_inf() == 0


def test_transpose_basis_relabeling():
    a = basis_covector(3, (0, 1), (2,))
    t = transpose(a)
    assert (t - basis_covector(3, (2,), (0, 1))).norm_inf() == 0


def test_interior_dual_pairing():
    a = basis_covector(3, (0,), (0,))
    e1 = FrameVector.basis(3, 0)
    e2 = FrameVector.basis(3, 1)
    got = interior(e1, a, "first")
    assert (got - basis_covector(3, (), (0,))).norm_inf() == 0
    assert interior(e2, a, "first").norm_inf() == 0


def test_interior_squares_to_zero():
    r = rng(3)
    a = random_covector(r, 4, 2, 2)
    X = FrameVector(4, r.standard_normal(4))
    for slot in ("first", "second"):
        twice = interior(X, interior(X, a, slot), slot)
        assert twice.norm_inf() <= 1e-14


def test_interior_on_zero_degree_gives_zero():
    a = basis_covector(3, (), (0,))
    X = FrameVector.basis(3, 0)
    out = interior(X, a, "first")
    assert out.norm_inf() == 0


# ---------------------------------------------------------------------------
# hodge


def test_hodge_volume_form():
    one = KmCovector.zero(3, 0, 0)
    one.coeffs[0, 0] = 1.0
    vol = hodge(one, "first")
    assert (vol - basis_covector(3, (0, 1, 2), ())).norm_inf() == 0


def brute_force_star_sign(d, I):
    comp = tuple(sorted(set(range(d)) - set(I)))
    return bubble_parity(I + comp), comp


def test_hodge_star_star_sign_law():
    # brute-force sign table over the canonical basis for all d <= 6
    for d in range(2, 7):
        for k in range(d + 1):
            for I in combinations(range(d), k):
                a = basis_covector(d, I, ())
                twice = hodge(hodge(a, "first"), "first")
                expect = (-1) ** (k * (d - k))
                assert (twice - expect * a).norm_inf() == 0
                # independent parity route
                s1, comp = brute_force_star_sign(d, I)
                s2, _ = brute_force_star_sign(d, comp)
                assert s1 * s2 == expect


def test_hodge_both_slots_example():
    psi = basis_covector(4, (0, 1), (0, 1))
    out = star_star_v(psi)
    assert (out - basis_covector(4, (2, 3), (2, 3))).norm_inf() == 0


# ---------------------------------------------------------------------------
# trace


def test_trace_of_metric_is_dimension():
    for d in (2, 3, 4, 6):
        assert trace(metric_covector(d)).scalar() == d


def test_trace_iterated_combinatorial_factor():
    # d=5, k=2: triple trace of (theta^3 ^ theta^4 ^ theta^5)^2
    d, k = 5, 2
    top = basis_covector(d, (2, 3, 4), (2, 3, 4))
    got = top
    for _ in range(d - k - 1):
        got = trace(got)
    expect = KmCovector.zero(d, 1, 1)
    for j in range(k, d):
        expect.coeffs[j, j] = factorial(d - k - 1)
    assert (got - expect).norm_inf() <= 1e-13
    assert factorial(d - k - 1) == 2


def test_trace_off_diagonal_vanishes():
    a = basis_covector(3, (0,), (1,))
    assert trace(a).norm_inf() == 0


def test_trace_against_full_tensor_oracle():
    r = rng(4)
    for d, k, m in [(3, 1, 1), (4, 2, 2), (5, 2, 1)]:
        a = random_covector(r, d, k, m)
        got = trace(a)
        oracle = trace_oracle(a)
        assert (got - oracle).norm_inf() <= 1e-12 * max(1.0, a.norm_inf())


# ---------------------------------------------------------------------------
# bianchi sum


def test_bianchi_sum_of_metric_vanishes():
    for d in (2, 3, 5):
        assert bianchi_sum(metric_covector(d)).norm_inf() == 0


def test_bianchi_sum_detects_symmetry():
    r = rng(5)
    d = 4
    m = r.standard_normal((d, d))
    sym = sym_matrix_covector(0.5 * (m + m.T))
    anti = sym_matrix_covector(0.5 * (m - m.T))
    assert bianchi_sum(sym).norm_inf() <= 1e-14
    assert bianchi_sum(anti).norm_inf() > 0.1


def test_kulkarni_squares_lie_in_kernel():
    r = rng(6)
    for d in (3, 4, 5):
        w1 = random_covector(r, d, 1, 0)
        w2 = random_covector(r, d, 1, 0)
        plane = wedge(w1, w2)
        sq = wedge(plane, transpose(plane))
        assert bianchi_sum(sq).norm_inf() <= 1e-13 * max(1.0, sq.norm_inf())


def test_projection_lands_in_kernel_and_fixes_it():
    r = rng(7)
    a = random_covector(r, 4, 2, 2)
    p = project_bianchi(a)
    assert bianchi_sum(p).norm_inf() <= 1e-13
    assert (project_bianchi(p) - p).norm_inf() <= 1e-13
    assert bianchi_dim(4, 2, 2) == 20  # algebraic curvature tensors in d=4


# ---------------------------------------------------------------------------
# contractions E and C


def test_op_e_plane_square():
    for d in (3, 4, 5):
        psi = basis_covector(d, (0, 1), (0, 1))
        out = op_e(psi)
        expect = KmCovector.zero(d, 1, 1)
        for j in range(2, d):
            expect.coeffs[j, j] = 1.0
        assert (out - expect).norm_inf() <= 1e-14


def test_op_c_examples():
    d = 3
    sigma = basis_covector(d, (0,), (0,))
    out = op_c(sigma)
    expect = KmCovector.zero(d, 1, 1)
    for j in range(1, d):
        expect.coeffs[j, j] = 1.0
    assert (out - expect).norm_inf() == 0
    g = metric_covector(d)
    assert (op_c(g) - (d - 1) * g).norm_inf() == 0


def test_contractions_match_loop_oracle():
    r = rng(8)
    d = 4
    psi = random_covector(r, d, 2, 2)
    t = trace_oracle(psi)
    tt = trace_oracle(t).scalar()
    expect = -1.0 * t + 0.5 * tt * metric_covector(d)
    assert (op_e(psi) - expect).norm_inf() <= 1e-12
    sig = random_covector(r, d, 1, 1)
    expect_c = -1.0 * sig + trace_oracle(sig).scalar() * metric_covector(d)
    assert (op_c(sig) - expect_c).norm_inf() <= 1e-12


# ---------------------------------------------------------------------------
# duality identities


def test_duality_plane_example_d4():
    psi = basis_covector(4, (0, 1), (0, 1))
    sigma = sym_matrix_covector(np.zeros((4, 4)))
    r1, _ = duality_residuals(psi, sigma)
    assert r1 == 0
    lhs = star_star_v(wedge(metric_covector(4), psi))
    expect = KmCovector.zero(4, 1, 1)
    expect.coeffs[2, 2] = expect.coeffs[3, 3] = 1.0
    assert (lhs - expect).norm_inf() <= 1e-14


def test_duality_vector_example_d3():
    sigma = basis_covector(3, (0,), (0,))
    psi = KmCovector.zero(3, 2, 2)
    _, r2 = duality_residuals(psi, sigma)
    assert r2 == 0
    lhs = star_star_v(wedge(metric_covector(3), sigma))
    expect = KmCovector.zero(3, 1, 1)
    expect.coeffs[1, 1] = expect.coeffs[2, 2] = 1.0
    assert (lhs - expect).norm_inf() <= 1e-14


def test_duality_random_bianchi_samples():
    r = rng(9)
    for d in (3, 4, 5, 6):
        for _ in range(20):
            psi = random_bianchi(r, d, 2, 2)
            sigma = random_bianchi(r, d, 1, 1)
            r1, r2 = duality_residuals(psi, sigma)
            scale = max(psi.norm_inf(), sigma.norm_inf(), 1.0)
            assert r1 <= 1e-12 * scale
            assert r2 <= 1e-12 * scale


def test_duality_exact_in_rational_mode():
    r = rng(10)
    for d in (3, 4, 5):
        psi = random_bianchi(r, d, 2, 2, rational=True)
        sigma = random_bianchi(r, d, 1, 1, rational=True)
        r1, r2 = duality_residuals(psi, sigma)
        assert r1 == 0 and isinstance(r1, Fraction) is False
        assert r2 == 0


def test_duality_rejects_non_bianchi_input():
    r = rng(11)
    psi = random_covector(r, 4, 2, 2)  # not projected
    sigma = random_bianchi(r, 4, 1, 1)
    if bianchi_sum(psi).norm_inf() > 1e-6:
        with pytest.raises(ValueError):
            duality_residuals(psi, sigma)


# ---------------------------------------------------------------------------
# Schouten/Weyl split


def test_split_pure_trace_curvature():
    d = 4
    g = metric_covector(d)
    rm = wedge(g, g)
    p, weyl = schouten_weyl_split(rm)
    assert weyl.norm_inf() <= 1e-13
    assert (p + g).norm_inf() <= 1e-13  # P = -g, proportional to g


def test_split_reconstruction_and_traceless():
    r = rng(12)
    d = 4
    g = metric_covector(d)
    for _ in range(100):
        rm = random_bianchi(r, d, 2, 2)
        p, weyl = schouten_weyl_split(rm)
        scale = max(1.0, rm.norm_inf())
        recon = -1.0 * wedge(g, p) + weyl
        assert (recon - rm).norm_inf() <= 1e-12 * scale
        assert trace(weyl).norm_inf() <= 1e-13 * scale
        # Einstein consistency: op_e(rm) = -(d-2) op_c(P)
        lhs = op_e(rm)
        rhs = -(d - 2) * op_c(p)
        assert (lhs - rhs).norm_inf() <= 1e-12 * scale


def test_split_weyl_forced_zero_in_d3():
    r = rng(13)
    rm = random_bianchi(r, 3, 2, 2)
    p, weyl = schouten_weyl_split(rm)
    assert weyl.norm_inf() == 0
    recon = -1.0 * wedge(metric_covector(3), p)
    assert (recon - rm).norm_inf() <= 1e-11 * max(1.0, rm.norm_inf())


# ---------------------------------------------------------------------------
# rational backend exactness


def test_rational_wedge_associativity_exact():
    r = rng(14)
    d = 4
    a = random_bianchi(r, d, 1, 1, rational=True)
    b = random_bianchi(r, d, 1, 1, rational=True)
    c = random_bianchi(r, d, 1, 1, rational=True)
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert (left - right).norm_inf() == 0
    assert left.rational


# ---------------------------------------------------------------------------
# batch axes: a stacked batch equals the operation point by point

BATCH = (2, 3)


def stacked(covs, batch=BATCH):
    """One batched covector from a list of unbatched ones."""
    c = covs[0]
    coeffs = np.stack([a.coeffs for a in covs])
    return KmCovector(c.dim, c.k, c.m, coeffs.reshape(batch + c.coeffs.shape))


def point(a, idx):
    return KmCovector(a.dim, a.k, a.m, a.coeffs[idx])


def random_rational(r, d, k, m):
    num = r.integers(-9, 10, size=(comb(d, k), comb(d, m)))
    return KmCovector(d, k, m, np.array(
        [[Fraction(int(v), 4) for v in row] for row in num], dtype=object))


def unary_ops(d):
    """name -> (input bidegree, operation), every output a covector."""
    def normal(a):
        return FrameVector.basis(d, d - 1)

    return {
        "transpose": ((2, 1), transpose),
        "interior-first": ((2, 2), lambda a: interior(normal(a), a, "first")),
        "interior-second": ((2, 2),
                            lambda a: interior(normal(a), a, "second")),
        "hodge-first": ((2, 1), lambda a: hodge(a, "first")),
        "hodge-second": ((1, 2), lambda a: hodge(a, "second")),
        "star-star": ((2, 2), star_star_v),
        "trace": ((2, 2), trace),
        "trace-twice": ((2, 2), lambda a: trace(trace(a))),
        "bianchi-sum": ((2, 2), bianchi_sum),
        "op-e": ((2, 2), op_e),
        "op-c": ((1, 1), op_c),
        "op-c-inverse": ((1, 1), op_c_inverse),
        "restrict": ((2, 1), lambda a: restrict_covector(a, 1)),
        "wedge-metric": ((2, 2), lambda a: wedge(metric_covector(d), a)),
        "schouten": ((2, 2), lambda a: schouten_weyl_split(a)[0]),
        "weyl": ((2, 2), lambda a: schouten_weyl_split(a)[1]),
    }


BACKENDS = [(False, 3), (False, 4), (False, 5), (False, 6), (True, 4)]


def assert_batch_matches_points(batched, per_point, exact):
    """``per_point`` lists the unbatched results in ``np.ndindex`` order."""
    for idx, want in zip(np.ndindex(BATCH), per_point):
        got = point(batched, idx)
        assert (got.dim, got.k, got.m) == (want.dim, want.k, want.m)
        if exact:
            assert all(isinstance(v, Fraction) for v in got.coeffs.flat)
            assert (got - want).norm_inf() == 0
        else:
            assert (got - want).norm_inf() <= 1e-13 * max(1.0, want.norm_inf())


def batch_inputs(r, d, k, m, rational):
    n = int(np.prod(BATCH))
    if (k, m) in ((1, 1), (2, 2)):
        return [random_bianchi(r, d, k, m, rational) for _ in range(n)]
    make = random_rational if rational else random_covector
    return [make(r, d, k, m) for _ in range(n)]


@pytest.mark.parametrize("rational,d", BACKENDS)
@pytest.mark.parametrize("name", list(unary_ops(4)))
def test_unary_op_on_batch_matches_points(name, rational, d):
    (k, m), op = unary_ops(d)[name]
    covs = batch_inputs(rng(100 + d), d, k, m, rational)
    assert_batch_matches_points(op(stacked(covs)), [op(a) for a in covs],
                                exact=rational)


@pytest.mark.parametrize("rational,d", BACKENDS)
def test_binary_ops_on_batch_match_points(rational, d):
    r = rng(300 + d)
    a = batch_inputs(r, d, 2, 1, rational)
    b = batch_inputs(r, d, 1, 1, rational)
    x = r.integers(-3, 4, size=BATCH + (d,))
    if rational:
        x = np.array(x.tolist(), dtype=object) * Fraction(1, 2)
    X = FrameVector(d, x)
    frames = [FrameVector(d, x[idx]) for idx in np.ndindex(BATCH)]
    for op in (wedge, lambda p, q: wedge(q, p)):
        assert_batch_matches_points(op(stacked(a), stacked(b)),
                                    [op(p, q) for p, q in zip(a, b)],
                                    exact=rational)
    for slot in ("first", "second"):
        assert_batch_matches_points(interior(X, stacked(a), slot),
                                    [interior(Xp, p, slot)
                                     for Xp, p in zip(frames, a)],
                                    exact=rational)
    # an unbatched factor broadcasts against the batch
    assert_batch_matches_points(wedge(stacked(a), b[0]),
                                [wedge(p, b[0]) for p in a], exact=rational)


def test_norms_scalars_and_residuals_per_point():
    r = rng(400)
    d = 4
    psi = [random_bianchi(r, d, 2, 2) for _ in range(6)]
    sig = [random_bianchi(r, d, 1, 1) for _ in range(6)]
    big_psi, big_sig = stacked(psi), stacked(sig)
    norms = big_psi.norm_inf()
    assert norms.shape == BATCH and isinstance(psi[0].norm_inf(), float)
    tt = trace(trace(big_psi)).scalar()
    r1, r2 = duality_residuals(big_psi, big_sig)
    assert r1.shape == r2.shape == BATCH
    for idx, p, s in zip(np.ndindex(BATCH), psi, sig):
        assert norms[idx] == p.norm_inf()
        assert abs(tt[idx] - trace(trace(p)).scalar()) <= 1e-13 * norms[idx]
        q1, q2 = duality_residuals(p, s)
        scale = max(p.norm_inf(), s.norm_inf(), 1.0)
        assert r1[idx] <= 1e-12 * scale and abs(r1[idx] - q1) <= 1e-13 * scale
        assert r2[idx] <= 1e-12 * scale and abs(r2[idx] - q2) <= 1e-13 * scale
    scaled = big_sig * np.arange(6.0).reshape(BATCH)
    for idx, s in zip(np.ndindex(BATCH), sig):
        expect = s * float(np.ravel_multi_index(idx, BATCH))
        assert (point(scaled, idx) - expect).norm_inf() == 0


def test_projection_on_batch_matches_points():
    r = rng(401)
    covs = [random_covector(r, 5, 2, 2) for _ in range(6)]
    assert_batch_matches_points(project_bianchi(stacked(covs)),
                                [project_bianchi(a) for a in covs],
                                exact=False)


def test_require_bianchi_checks_each_point_against_its_own_scale():
    r = rng(402)
    d = 4
    covs = [1e6 * random_bianchi(r, d, 2, 2) for _ in range(6)]
    small = random_bianchi(r, d, 2, 2)
    small = small * (1.0 / small.norm_inf())
    bad = small + 1e-6 * random_covector(r, d, 2, 2)
    assert bianchi_sum(bad).norm_inf() > 1e-9 * max(1.0, bad.norm_inf())
    covs[4] = bad
    batch = stacked(covs)
    # against the largest scale in the batch the bad point would pass
    assert bianchi_sum(batch).norm_inf().max() <= 1e-9 * batch.norm_inf().max()
    with pytest.raises(ValueError):
        _require_bianchi(batch, 1e-9, "batch")
    # schouten_weyl_split reads the same per-point scale, to 1e-6
    covs[4] = small + 1e-3 * random_covector(r, d, 2, 2)
    batch = stacked(covs)
    assert bianchi_sum(batch).norm_inf().max() <= 1e-6 * batch.norm_inf().max()
    with pytest.raises(ValueError):
        schouten_weyl_split(batch)
    covs[4] = small
    _require_bianchi(stacked(covs), 1e-9, "batch")


@pytest.mark.parametrize("rational,d", BACKENDS)
def test_table_operations_against_dict_oracles(rational, d):
    r = rng(500 + d)
    make = random_rational if rational else random_covector
    x = r.standard_normal(d)
    if rational:
        x = np.array([Fraction(int(v), 3) for v in r.integers(-5, 6, d)],
                     dtype=object)
    X = FrameVector(d, x)
    for k, m in [(1, 1), (2, 1), (2, 2), (1, 3)]:
        a = make(r, d, k, m)
        ad = covector_to_dict(a)
        pairs = [
            (interior(X, a, "first"), naive_interior_dict(x, ad)),
            (interior(X, a, "second"),
             transpose_dict(naive_interior_dict(x, transpose_dict(ad)))),
            (hodge(a, "first"), naive_hodge_dict(ad, d)),
            (bianchi_sum(a), naive_bianchi_sum_dict(ad)),
            (restrict_covector(a, 1), naive_restrict_dict(ad, 1)),
        ]
        for got, want in pairs:
            assert dict_allclose(covector_to_dict(got), want,
                                 0 if rational else 1e-12)


def test_rm_covector_on_batch_matches_points():
    for d in (3, 4, 5):
        chart = make_chart("curved_generic", d, seed=11)
        pts = sample_points(chart, 6, rng(403)).reshape(BATCH + (d,))
        geom = chart_geometry(chart, pts, order=2)
        riem = geom.riem.value
        frame = orthonormal_frame(geom.g.value)
        assert_batch_matches_points(
            rm_covector(riem, frame),
            [rm_covector(riem[idx], frame[idx]) for idx in np.ndindex(BATCH)],
            exact=False)
