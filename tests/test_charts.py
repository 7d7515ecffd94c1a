import numpy as np
import pytest

from bianchi_lab import charts
from bianchi_lab.algebra import (
    bianchi_sum,
    metric_covector,
    op_c,
    op_e,
    schouten_weyl_split,
    trace,
    wedge,
)
from bianchi_lab.charts import (
    Geometry,
    bianchi_b,
    bianchi_b_inverse,
    chart_geometry,
    dewitt_inner,
    divergence,
    geometry_from_jets,
    killing,
    lie_derivative_sym2,
    make_chart,
    nabla,
    orthonormal_frame,
    rm_covector,
    sample_points,
    sym_to_frame,
    tensor_values,
    trace_sym2,
)
from bianchi_lab.jets import Jet, contract, stack

from oracles import fd_christoffel, fd_ricci, jet_sin


def rng(seed=0):
    return np.random.default_rng(seed)


def metric_value_fn(chart):
    def fn(x):
        return tensor_values(chart.metric_jets(np.asarray(x), order=0))
    return fn


# ---------------------------------------------------------------------------
# presets


def test_flat_chart_metric_and_derivatives():
    chart = make_chart("flat_cartesian", 3)
    x = np.array([[0.2, 0.4, 0.7], [0.9, 0.1, 0.3]])
    g = chart.metric_jets(x, order=3)
    vals = tensor_values(g)
    assert np.allclose(vals, np.eye(3))
    for i in range(3):
        for j in range(3):
            assert np.allclose(g[..., i, j].c[..., 1:], 0.0)


def test_conformal_bump_chain_rule():
    chart = make_chart("conformal_bump", 3)
    x = np.array([0.3, 0.6, 0.4])
    g = chart.metric_jets(x, order=2)
    # d_0 g_00 = 2 (d_0 phi) e^{2 phi}; read phi derivatives off log(g_00),
    # a first derivative being its Taylor coefficient
    g00 = g[..., 0, 0]
    dphi = 0.5 * g00.coeff((1, 0, 0)) / g00.value
    assert np.isclose(g00.coeff((1, 0, 0)), 2 * dphi * g00.value)
    # components stay conformally diagonal
    assert np.allclose(g[..., 0, 1].c, 0.0)


def test_curved_generic_positive_definite():
    # the smallest metric eigenvalue over points up to the box walls
    for d, seed, npts, r in ((3, 7, 1000, rng(3)), (4, 11, 300, rng(4))):
        chart = make_chart("curved_generic", d, seed=seed)
        pts = np.stack([r.uniform(lo, hi, size=npts)
                        for lo, hi in chart.domain], axis=-1)
        g = chart.metric_jets(pts, order=0).value
        assert np.linalg.eigvalsh(g).min() > 0.0


def test_out_of_domain_rejected():
    chart = make_chart("polar_ball", 3)
    with pytest.raises(ValueError):
        chart.metric_jets(np.array([1.0, 0.5, 1.7]), order=1)


# ---------------------------------------------------------------------------
# christoffel


def test_flat_christoffel_zero():
    chart = make_chart("flat_slab_periodic", 3)
    gam = chart_geometry(chart, sample_points(chart, 5, rng(1)),
                         order=2).gamma.value
    assert np.allclose(gam, 0.0, atol=1e-14)


def test_polar_ball_christoffel_closed_form_and_fd():
    chart = make_chart("polar_ball", 3, radius=2.0)
    pts = sample_points(chart, 4, rng(2))
    gam = chart_geometry(chart, pts, order=2).gamma.value
    r = 2.0 - pts[:, 2]
    # axes are (theta, phi, u) with u = R - r, so Gamma^u_{theta theta} = r
    assert np.allclose(gam[:, 2, 0, 0], r, atol=1e-12)
    oracle = np.stack([fd_christoffel(metric_value_fn(chart), p) for p in pts])
    assert np.allclose(gam, oracle, atol=1e-6)


def test_christoffel_symmetric_lower_indices():
    chart = make_chart("curved_generic", 3, seed=5)
    gam = chart_geometry(chart, sample_points(chart, 6, rng(5)),
                         order=2).gamma.value
    assert np.allclose(gam, np.swapaxes(gam, 2, 3), atol=1e-14)


# ---------------------------------------------------------------------------
# curvature


def test_flat_presets_have_zero_curvature():
    for preset in ("flat_cartesian", "flat_slab_periodic", "polar_ball"):
        chart = make_chart(preset, 3)
        pts = sample_points(chart, 4, rng(6))
        geom = chart_geometry(chart, pts, order=4)
        assert np.max(np.abs(geom.riem.value)) <= 1e-12
        assert np.max(np.abs(geom.ric.value)) <= 1e-12
        assert np.max(np.abs(geom.ein.value)) <= 1e-12


def sphere_geometry(radius, x, order=4):
    """Round 2-sphere of given radius in colatitude/longitude coordinates."""
    th, ph = Jet.variables(x, order)
    s = jet_sin(th)
    diag = stack([Jet.const(2, order, np.full(np.shape(x)[:-1], radius ** 2)),
                  (radius ** 2) * s * s])
    return geometry_from_jets(diag[..., None] * np.eye(2))


def test_round_sphere_scalar_curvature_positive():
    for radius in (1.0, 1.7):
        geom = sphere_geometry(radius, np.array([[1.1, 0.4], [0.7, 2.0]]))
        assert np.allclose(geom.sc.value, 2.0 / radius ** 2, atol=1e-10)


def test_ricci_against_fd_oracle_on_curved_chart():
    chart = make_chart("conformal_bump", 3, amp=0.1)
    pts = sample_points(chart, 3, rng(7))
    ric = chart_geometry(chart, pts, order=4).ric.value
    for i, p in enumerate(pts):
        oracle = fd_ricci(metric_value_fn(chart), p)
        assert np.allclose(ric[i], oracle, atol=2e-4)


def test_curvature_identities_conformal_bump():
    chart = make_chart("conformal_bump", 3, amp=0.1)
    pts = sample_points(chart, 25, rng(8))
    geom = chart_geometry(chart, pts, order=4)
    riem, ric, ein = geom.riem.value, geom.ric.value, geom.ein.value
    frame = orthonormal_frame(geom.g.value)
    for i in range(len(pts)):
        rm = rm_covector(riem[i], frame[i])
        scale = max(1.0, rm.norm_inf())
        assert bianchi_sum(rm).norm_inf() <= 1e-9 * scale
        ein_f = sym_to_frame(ein, frame)[i]
        got = op_e(rm).sym_matrix()
        assert np.max(np.abs(got - ein_f)) <= 1e-9 * max(1.0, np.abs(ein_f).max())
        # rm encodes tr rm = -Ric
        ric_f = sym_to_frame(ric, frame)[i]
        assert np.max(np.abs(trace(rm).sym_matrix() + ric_f)) <= 1e-9 * scale


def test_weyl_pipeline_d4():
    chart = make_chart("curved_generic", 4, seed=3)
    pts = sample_points(chart, 10, rng(9))
    geom = chart_geometry(chart, pts, order=4)
    riem, ein = geom.riem.value, geom.ein.value
    frame = orthonormal_frame(geom.g.value)
    g4 = metric_covector(4)
    for i in range(len(pts)):
        rm = rm_covector(riem[i], frame[i])
        scale = max(1.0, rm.norm_inf())
        assert bianchi_sum(rm).norm_inf() <= 1e-7 * scale
        p, weyl = schouten_weyl_split(rm)
        recon = -1.0 * wedge(g4, p) + weyl
        assert (recon - rm).norm_inf() <= 1e-8 * scale
        assert trace(weyl).norm_inf() <= 1e-8 * scale
        ein_f = sym_to_frame(ein, frame)[i]
        rhs = -2.0 * op_c(p).sym_matrix()  # Ein = -(d-2) C P at d=4
        assert np.max(np.abs(ein_f - rhs)) <= 1e-8 * scale


def test_differential_bianchi_identity():
    # div Ein = 0 and div B Ric = 0, needing third metric derivatives
    for preset, kw in [("conformal_bump", {"amp": 0.1}),
                       ("curved_generic", {"seed": 13})]:
        chart = make_chart(preset, 3, **kw)
        pts = sample_points(chart, 10, rng(10))
        geom = chart_geometry(chart, pts, order=4)
        div_ein = tensor_values(divergence(geom, geom.ein))
        assert np.max(np.abs(div_ein)) <= 1e-8
        bric = bianchi_b(geom, geom.ric)
        div_bric = tensor_values(divergence(geom, bric))
        assert np.max(np.abs(div_bric)) <= 1e-8


# ---------------------------------------------------------------------------
# covariant derivative, divergence, killing, lie


def test_metric_compatibility():
    for preset, kw in [("polar_ball", {}), ("curved_generic", {"seed": 2})]:
        chart = make_chart(preset, 3, **kw)
        pts = sample_points(chart, 5, rng(11))
        geom = chart_geometry(chart, pts, order=3)
        ng = tensor_values(nabla(geom, geom.g))
        assert np.max(np.abs(ng)) <= 1e-11


def test_flat_covariant_derivative_is_partial():
    chart = make_chart("flat_cartesian", 3)
    pts = sample_points(chart, 4, rng(12))
    geom = chart_geometry(chart, pts, order=3)
    xs = Jet.variables(pts, 3)
    sig = stack([stack([xs[0] * xs[1] if i == j else xs[2] * 0.5
                        for j in range(3)]) for i in range(3)], axis=-2)
    ns = nabla(geom, sig)
    assert np.allclose(tensor_values(ns)[..., 0, 0, 0],
                       pts[:, 1], atol=1e-13)  # d_0 (x0 x1)


def test_leibniz_rule():
    chart = make_chart("curved_generic", 3, seed=4)
    pts = sample_points(chart, 5, rng(13))
    geom = chart_geometry(chart, pts, order=3)
    xs = Jet.variables(pts, 3)
    f = jet_sin(xs[0] + 0.3 * xs[2]) + 1.5
    sig = stack([stack([xs[i] * xs[j] + (1.0 if i == j else 0.0)
                        for j in range(3)]) for i in range(3)], axis=-2)
    fsig = contract(",ij->ij", f, sig)
    lhs = tensor_values(nabla(geom, fsig))
    nsig = nabla(geom, sig)
    d = 3
    rhs = np.empty_like(lhs)
    fvals = f.value
    for k in range(d):
        dfk = f.partial(k).value
        for i in range(d):
            for j in range(d):
                rhs[..., k, i, j] = (dfk * sig[..., i, j].value
                                     + fvals * nsig[..., k, i, j].value)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_divergence_sign_convention():
    chart = make_chart("flat_cartesian", 3)
    pts = sample_points(chart, 4, rng(14))
    geom = chart_geometry(chart, pts, order=2)
    xs = Jet.variables(pts, 2)
    sig = xs[0][..., None, None] * np.diag([1.0, 0.0, 0.0])
    div = tensor_values(divergence(geom, sig))
    assert np.allclose(div[..., 0], -1.0, atol=1e-13)
    assert np.allclose(div[..., 1:], 0.0, atol=1e-13)


def test_divergence_of_metric_vanishes():
    chart = make_chart("curved_generic", 4, seed=8)
    pts = sample_points(chart, 4, rng(15))
    geom = chart_geometry(chart, pts, order=3)
    div = tensor_values(divergence(geom, geom.g))
    assert np.max(np.abs(div)) <= 1e-11


def test_bianchi_b_examples_and_inverse():
    d = 4
    chart = make_chart("curved_generic", d, seed=9)
    pts = sample_points(chart, 5, rng(16))
    geom = chart_geometry(chart, pts, order=2)
    bg = bianchi_b(geom, geom.g)
    gv = tensor_values(geom.g)
    assert np.allclose(tensor_values(bg), (1 - d / 2) * gv, atol=1e-12)

    xs = Jet.variables(pts, 2)
    sig = stack([stack([xs[min(i, j)] * 0.3 + (1.0 if i == j else 0.0)
                        for j in range(d)]) for i in range(d)], axis=-2)
    back = bianchi_b_inverse(geom, bianchi_b(geom, sig))
    assert np.max(np.abs(tensor_values(back) - tensor_values(sig))) <= 1e-12


def test_killing_flat_shear_field():
    chart = make_chart("flat_cartesian", 3)
    pts = sample_points(chart, 3, rng(17))
    geom = chart_geometry(chart, pts, order=2)
    xs = Jet.variables(pts, 2)
    X = xs[1][..., None] * np.array([1.0, 0.0, 0.0])  # X = (x^2, 0, 0)
    ds = tensor_values(killing(geom, X))
    expect = np.zeros_like(ds)
    expect[..., 0, 1] = expect[..., 1, 0] = 0.5
    assert np.allclose(ds, expect, atol=1e-13)


def test_lie_derivative_identities_and_flow_oracle():
    chart = make_chart("curved_generic", 3, seed=6)
    r = rng(18)
    pts = np.stack([r.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo),
                              size=4) for lo, hi in chart.domain], axis=-1)
    geom = chart_geometry(chart, pts, order=3)
    xs = Jet.variables(pts, 3)

    def xfield(xjets):
        return stack([jet_sin(xjets[1] * 2.0) * 0.5, xjets[2] * xjets[0],
                      0.2 + 0.1 * xjets[0]])

    X = xfield(xs)
    # L_X g = 2 delta* X
    lie_g = tensor_values(lie_derivative_sym2(X, geom.g))
    two_ds = 2.0 * tensor_values(killing(geom, X))
    assert np.max(np.abs(lie_g - two_ds)) <= 1e-11

    # flow oracle for a non-metric tensor field
    def sig_vals(x):
        out = np.zeros(x.shape[:-1] + (3, 3))
        for i in range(3):
            for j in range(3):
                out[..., i, j] = np.sin(x[..., i]) * x[..., j] \
                    + (1.0 if i == j else 0.0)
        return out

    def sig_jets(xjets):
        return stack([stack([jet_sin(xjets[i]) * xjets[j]
                             + (1.0 if i == j else 0.0) for j in range(3)])
                      for i in range(3)], axis=-2)

    lie = tensor_values(lie_derivative_sym2(X, sig_jets(xs)))
    t = 1e-4
    xv = pts
    Xv = tensor_values(X)
    # explicit Euler pullback (phi_t^* sigma - sigma) / t
    dX = np.zeros((len(pts), 3, 3))
    for k in range(3):
        for a in range(3):
            dX[:, k, a] = X[..., a].partial(k).value
    jac = np.eye(3) + t * dX
    shifted = sig_vals(xv + t * Xv)
    pulled = np.einsum("pia,pjb,pab->pij", jac, jac, shifted)
    oracle = (pulled - sig_vals(xv)) / t
    assert np.max(np.abs(lie - oracle)) <= 5e-3


def test_constant_field_flat_lie_zero():
    chart = make_chart("flat_cartesian", 3)
    pts = sample_points(chart, 2, rng(19))
    xs = Jet.variables(pts, 2)
    const_vec = Jet.const(3, 2, np.ones((len(pts), 3)))
    const_sig = Jet.const(3, 2, 0.5 * np.ones((len(pts), 3, 3)))
    out = tensor_values(lie_derivative_sym2(const_vec, const_sig))
    assert np.allclose(out, 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# DeWitt pairing


def test_dewitt_metric_self_pairing():
    for d in (3, 4):
        chart = make_chart("curved_generic", d, seed=d)
        pts = sample_points(chart, 5, rng(20))
        gv = tensor_values(chart.metric_jets(pts, 0))
        val = dewitt_inner(gv, gv, np.linalg.inv(gv))
        assert np.allclose(val, d - d * d / 2.0, atol=1e-12)
    # d = 3 case from the contract: -1.5
    assert np.isclose(d - d * d / 2.0, -4.0)  # d == 4 at loop exit


def test_dewitt_symmetry_and_tracefree_positivity():
    d = 3
    chart = make_chart("curved_generic", d, seed=21)
    pts = sample_points(chart, 3, rng(21))
    gv = tensor_values(chart.metric_jets(pts, 0))
    r = rng(22)
    sig = r.standard_normal((len(pts), d, d))
    sig = 0.5 * (sig + np.swapaxes(sig, 1, 2))
    eta = r.standard_normal((len(pts), d, d))
    eta = 0.5 * (eta + np.swapaxes(eta, 1, 2))
    ginvs = np.linalg.inv(gv)
    assert np.allclose(dewitt_inner(sig, eta, ginvs),
                       dewitt_inner(eta, sig, ginvs), atol=1e-12)
    # positivity on trace-free tensors: Gram matrix of a trace-free basis
    ginv = np.linalg.inv(gv[0])
    basis = []
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0
            e = e - (np.sum(ginv * e) / d) * gv[0]  # roughly trace-free
            e = e - (np.sum(ginv * e) / np.sum(ginv * gv[0])) * gv[0]
            basis.append(e)
    basis = basis[:-1]  # drop one to keep the span trace-free and independent
    G = np.array([[dewitt_inner(a[None], b[None], ginv[None])[0]
                   for b in basis] for a in basis])
    assert np.linalg.eigvalsh(G).min() > 0


# ---------------------------------------------------------------------------
# chunked pointwise evaluation


def _ricci_and_points(chart):
    def fn(x):
        geom = geometry_from_jets(chart.metric_jets(x, 2))
        return geom.ric.value, x[:, 0].copy()
    return fn


def _chunk_map(fn, x, step):
    parts = [fn(x[lo:lo + step]) for lo in range(0, len(x), step)]
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def test_by_chunks_threads_equal_the_sequential_map_bit_for_bit(monkeypatch):
    chart = make_chart("curved_generic", 3)
    x = sample_points(chart, 1000, rng(5))
    fn = _ricci_and_points(chart)
    monkeypatch.setattr(charts, "_CHUNK", 128)
    monkeypatch.setattr(charts, "_chunk_workers", lambda: 3)
    got = charts._by_chunks(fn, x)
    want = _chunk_map(fn, x, 128)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.array_equal(got[1], x[:, 0])  # chunk order kept


def test_by_chunks_under_thread_switching_stress(monkeypatch):
    # more workers than cores, every lazy jet table built while the
    # workers race, and a thread switch every microsecond
    import sys
    import threading

    from bianchi_lab import jets

    chart = make_chart("conformal_bump", 4, amp=0.1)
    x = sample_points(chart, 400, rng(6))
    fn = _ricci_and_points(chart)
    want = _chunk_map(fn, x, 16)
    monkeypatch.setattr(charts, "_CHUNK", 16)
    monkeypatch.setattr(charts, "_chunk_workers", lambda: 8)
    for name in ("_exponents", "_exp_index", "_mul_table", "_mul_flat",
                 "_inverse_table", "_outer_index"):
        getattr(jets, name).cache_clear()
    threads = set()

    def traced(xc):
        threads.add(threading.get_ident())
        return fn(xc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = charts._by_chunks(traced, x)
    finally:
        sys.setswitchinterval(interval)
    assert threading.get_ident() not in threads
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_by_chunks_raises_the_error_of_a_failing_chunk(monkeypatch):
    from bianchi_lab.jets import jet_matrix_inverse

    chart = make_chart("flat_cartesian", 3)
    x = sample_points(chart, 600, rng(7))
    bad = 450  # in the fourth chunk of 128

    def inverse(xc):
        G = chart.metric_jets(xc, 1)
        hit = np.flatnonzero(np.isin(xc[:, 0], x[bad, 0]))
        G.c[hit, 0, 0, 0] = 0.0  # a vanishing pivot
        return (jet_matrix_inverse(G).c,)

    monkeypatch.setattr(charts, "_CHUNK", 128)
    monkeypatch.setattr(charts, "_chunk_workers", lambda: 2)
    with pytest.raises(np.linalg.LinAlgError, match="vanishing pivot"):
        charts._by_chunks(inverse, x)


@pytest.mark.parametrize("points, workers", [(100, 4), (1000, 1)])
def test_by_chunks_runs_inline_for_one_chunk_or_one_worker(points, workers,
                                                           monkeypatch):
    import threading

    monkeypatch.setattr(charts, "_CHUNK", 128)
    monkeypatch.setattr(charts, "_chunk_workers", lambda: workers)
    seen = []

    def fn(xc):
        seen.append(threading.get_ident())
        return (xc.sum(axis=-1),)

    x = rng(8).uniform(size=(points, 3))
    (got,) = charts._by_chunks(fn, x)
    assert np.array_equal(got, x.sum(axis=-1))
    assert seen == [threading.get_ident()] * -(-points // 128)

