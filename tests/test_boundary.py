import numpy as np
import pytest

from bianchi_lab import conventions
from bianchi_lab.boundary import (
    CollarChart,
    boundary_state,
    collar_metric_jets,
    combine_constraint_residuals,
    constraint_pieces,
    constraint_residuals_at,
    distance_jet,
    face_adapted_jets,
    weyl_constraint_residual_at,
)
from bianchi_lab.charts import (
    chart_geometry,
    geometry_from_jets,
    make_chart,
    tensor_values,
)
from bianchi_lab.conventions import (
    compute_constraint_constants,
    constraint_constants,
    load_conventions,
)
from bianchi_lab.jets import Jet, stack
from bianchi_lab.linearize import dboundary_data_fd

from oracles import fd_second_fundamental_form, jet_cos


def rng(seed=0):
    return np.random.default_rng(seed)


def lateral_points(d, n, seed, lo=0.1, hi=0.9):
    return rng(seed).uniform(lo, hi, size=(n, d - 1))


CONSTS = constraint_constants()


# ---------------------------------------------------------------------------
# frames


def test_slab_boundary_is_totally_geodesic_both_faces():
    chart = make_chart("flat_slab_periodic", 3)
    for face in (0, 1):
        fr = boundary_state(CollarChart(chart, face),
                            lateral_points(3, 4, 1)).frame
        assert np.abs(fr.second_ff).max() <= 1e-12
        assert np.abs(fr.mean_curv).max() <= 1e-12
        assert np.abs(fr.normal_deriv_a).max() <= 1e-12
        assert np.allclose(fr.induced_metric, np.eye(2))
        assert fr.normal_defect <= 1e-12


def test_polar_ball_shape_operator_closed_forms():
    for d in (3, 4):
        R = 2.0
        chart = make_chart("polar_ball", d, radius=R)
        y = lateral_points(d, 3, 2, lo=0.9, hi=1.1)
        fr = boundary_state(CollarChart(chart), y).frame
        assert np.abs(fr.second_ff + fr.induced_metric / R).max() <= 1e-10
        assert np.abs(fr.mean_curv + (d - 1) / R).max() <= 1e-10
        assert np.abs(fr.normal_deriv_a + fr.induced_metric / R ** 2).max() <= 1e-10


def test_second_ff_matches_normal_flow_oracle():
    chart = make_chart("conformal_bump", 3, amp=0.1)
    collar = CollarChart(chart)
    y = lateral_points(3, 3, 3)
    fr = boundary_state(collar, y).frame

    def metric_fn(p):
        return tensor_values(chart.metric_jets(p, 0))

    for i, yy in enumerate(y):
        x_face = np.concatenate([yy, [0.0]])
        oracle = fd_second_fundamental_form(metric_fn, x_face)
        assert np.abs(fr.second_ff[i] - oracle).max() <= 1e-7


def test_boundary_invariants_curved():
    for preset, kw in [("conformal_bump", {"amp": 0.12}),
                       ("curved_generic", {"seed": 5})]:
        chart = make_chart(preset, 4, **kw)
        fr = boundary_state(CollarChart(chart), lateral_points(4, 4, 4)).frame
        assert fr.normal_defect <= 1e-11
        assert np.abs(fr.second_ff - np.swapaxes(fr.second_ff, -1, -2)).max() \
            <= 1e-12


def test_distance_jet_solves_eikonal():
    chart = make_chart("curved_generic", 3, seed=9)
    collar = CollarChart(chart)
    st = boundary_state(collar, lateral_points(3, 4, 5))
    r = st.rjet
    # |grad r|^2 = 1 to truncation order
    geom = st.geom
    dr = [r.partial(a) for a in range(3)]
    acc = None
    for i in range(3):
        for j in range(3):
            t = geom.ginv[..., i, j].truncate(3) * dr[i] * dr[j]
            acc = t if acc is None else acc + t
    assert np.abs(acc.c[..., 0] - 1.0).max() <= 1e-12
    assert np.abs(acc.c[..., 1:]).max() <= 1e-11
    # on the flat slab the distance is exactly the collar coordinate
    slab = CollarChart(make_chart("flat_slab_periodic", 3))
    st2 = boundary_state(slab, lateral_points(3, 2, 6))
    xd = Jet.variable(3, 4, 2, np.zeros(2))
    assert np.abs(st2.rjet.c - xd.c).max() <= 1e-13


def test_distance_jet_raises_when_newton_does_not_converge():
    collar = CollarChart(make_chart("curved_generic", 3))
    g = collar_metric_jets(collar, lateral_points(3, 2, 4), 4)
    geom = geometry_from_jets(g)
    with pytest.raises(RuntimeError, match="did not converge in 0 steps"):
        distance_jet(geom, newton_steps=0)


# ---------------------------------------------------------------------------
# mirrored faces


def sym_field_from_matrix_fn(d, entries):
    """entries(xs) -> (d, d) nested list of jets; wraps into a field
    callback returning the tensor jet."""

    def fn(x, order):
        xs = Jet.variables(x, order)
        return stack([stack(row) for row in entries(xs)], axis=-2)

    return fn


def mirrored_sym_field(d, mirror):
    """A field with nonzero sigma(n, t); ``mirror`` gives its image under
    x^d -> 1 - x^d, whose mixed (a, d) entries change sign."""
    mat = rng(12).standard_normal((d, d))
    mat = 0.5 * (mat + mat.T)

    def entries(xs):
        s = 1.0 - xs[-1] if mirror else xs[-1]
        out = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                mixed = mirror and (i == d - 1) != (j == d - 1)
                lateral = jet_cos(xs[0] * (2 * np.pi) + (i + j)) * 0.3 \
                    + mat[i, j]
                v = lateral * (s * s * 0.7 + s * 0.5 + 1.0)
                out[i][j] = out[j][i] = -v if mixed else v
        return out

    return sym_field_from_matrix_fn(d, entries)


def test_upper_face_mirrors_lower_face_on_curved_chart():
    # profile 1 + x/2 - x^2/4 becomes 5/4 - x^2/4 under x -> 1 - x, so the
    # upper face of the second chart is the lower face of the first
    d = 3
    lower = CollarChart(make_chart("conformal_bump", d, amp=0.1), 0)
    upper = CollarChart(make_chart("conformal_bump", d, amp=0.1,
                                   profile=(1.25, 0.0, -0.25)), 1)
    y = lateral_points(d, 3, 14)
    sig_lo, sig_up = mirrored_sym_field(d, False), mirrored_sym_field(d, True)

    fr_lo = boundary_state(lower, y).frame
    fr_up = boundary_state(upper, y).frame
    for name in ("second_ff", "mean_curv", "normal_deriv_a"):
        lo, up = getattr(fr_lo, name), getattr(fr_up, name)
        assert np.abs(lo).max() > 1e-2
        assert np.abs(lo - up).max() <= 1e-12
    # the upper face's reflection flips the normal derivatives and the
    # mixed (a, d) entries, which the mirrored field carries with its sign
    j_lo = face_adapted_jets(lower, y, sig_lo, 3)
    j_up = face_adapted_jets(upper, y, sig_up, 3)
    assert np.abs(j_lo.value[..., : d - 1, d - 1]).max() > 0.1
    assert np.abs(j_lo.c - j_up.c).max() <= 1e-12
    for lo, up in zip(dboundary_data_fd(lower, y, sig_lo),
                      dboundary_data_fd(upper, y, sig_up)):
        assert np.abs(lo).max() > 1e-2
        assert np.abs(lo - up).max() <= 1e-12


# ---------------------------------------------------------------------------
# constraints


def test_constraint_constants_match_committed_artifact():
    got, defect = compute_constraint_constants()
    committed = load_conventions()["constraints"]
    assert {k: list(v) for k, v in got.items()} == committed
    assert defect <= 1e-8


def test_constraints_vanish_on_flat_presets():
    for preset in ("flat_slab_periodic", "flat_cartesian"):
        chart = make_chart(preset, 3)
        res = constraint_residuals_at(CollarChart(chart),
                                      lateral_points(3, 4, 11))
        assert np.abs(res["rnn"]).max() <= 1e-12
        assert np.abs(res["rnt"]).max() <= 1e-12
        assert np.abs(res["rtt"]).max() <= 1e-12


def test_constraints_hold_on_curved_charts():
    for d in (3, 4):
        for preset, kw in [("conformal_bump", {"amp": 0.1}),
                           ("curved_generic", {"seed": 17})]:
            chart = make_chart(preset, d, **kw)
            res = constraint_residuals_at(CollarChart(chart),
                                          lateral_points(d, 8, 12))
            for key in ("rnn", "rnt", "rtt"):
                assert np.abs(res[key]).max() <= 1e-8, (preset, d, key)


def test_polar_ball_scalar_constraint_cancellation():
    # individually nonzero terms with the documented magnitudes cancel
    for d in (3, 4, 5):
        R = 2.0
        chart = make_chart("polar_ball", d, radius=R)
        res = constraint_residuals_at(CollarChart(chart),
                                      lateral_points(d, 3, 13, 0.9, 1.1))
        lhs_nn, sc_b, a_sq, tr_a_sq = res["terms_nn"]
        assert np.allclose(sc_b, (d - 1) * (d - 2) / R ** 2, atol=1e-9)
        assert np.allclose(a_sq, (d - 1) / R ** 2, atol=1e-10)
        assert np.allclose(tr_a_sq, (d - 1) ** 2 / R ** 4 * R ** 2, atol=1e-10)
        assert np.abs(lhs_nn).max() <= 1e-12
        assert np.abs(res["rnn"]).max() <= 1e-10


def test_constraint_residuals_read_the_loaded_artifact(monkeypatch):
    # no caller passes the line constants: both residuals read the
    # conventions they loaded, so another artifact changes them
    collar = CollarChart(make_chart("curved_generic", 3, seed=3))
    y = lateral_points(3, 3, 42)
    weyl = CollarChart(make_chart("conformal_bump", 4, amp=0.1))
    y4 = lateral_points(4, 3, 43)
    committed = weyl_constraint_residual_at(weyl, y4)["residual"]
    constraints = {"line1": [2.0, 1, -1], "line2": [0.5, 1, 1],
                   "line3": [2.0, -1, -1]}
    monkeypatch.setattr(conventions, "_CACHE",
                        dict(load_conventions(), constraints=constraints))
    patched = constraint_constants()
    assert patched == {k: tuple(v) for k, v in constraints.items()}
    want = combine_constraint_residuals(constraint_pieces(collar, y), patched)
    got = constraint_residuals_at(collar, y)
    for key in ("rnn", "rnt", "rtt"):
        assert np.array_equal(got[key], want[key])
        assert np.abs(got[key]).max() > 1e-3
    assert np.abs(committed).max() <= 1e-8
    assert np.abs(weyl_constraint_residual_at(weyl, y4)["residual"]
                  ).max() > 1e-3


def test_cauchy_data_equivalence_probe_flat_slab():
    # flat data (h, K, M) = (delta, 0, 0) satisfies the prescribed-data
    # constraints with every line identically zero
    chart = make_chart("flat_slab_periodic", 4)
    pieces = constraint_pieces(CollarChart(chart), lateral_points(4, 4, 14))
    st = pieces["state"]
    assert np.abs(st.frame.induced_metric - np.eye(3)).max() <= 1e-12
    assert np.abs(st.frame.second_ff).max() <= 1e-12
    assert np.abs(st.frame.normal_deriv_a).max() <= 1e-12
    res = combine_constraint_residuals(pieces, CONSTS)
    for key in ("rnn", "rnt", "rtt"):
        assert np.abs(res[key]).max() <= 1e-12


# ---------------------------------------------------------------------------
# Weyl form of the tangential constraint


def test_weyl_constraint_flat_d4():
    chart = make_chart("flat_slab_periodic", 4)
    out = weyl_constraint_residual_at(CollarChart(chart),
                                      lateral_points(4, 3, 15))
    assert out["skipped"] is None
    assert np.abs(out["residual"]).max() <= 1e-12
    assert np.abs(out["rm_defect"]).max() <= 1e-12


def test_weyl_constraint_curved():
    for d in (4, 5):
        chart = make_chart("conformal_bump", d, amp=0.1)
        out = weyl_constraint_residual_at(CollarChart(chart),
                                          lateral_points(d, 5, 16))
        assert np.abs(out["residual"]).max() <= 1e-8, d
        # curvature-equation consistency: pnn Rm = nabla_n A + A^2
        assert np.abs(out["rm_defect"]).max() <= 1e-8, d
        assert out["frame_gram_defect"] <= 1e-11


def test_weyl_constraint_skipped_below_d4():
    chart = make_chart("conformal_bump", 3)
    out = weyl_constraint_residual_at(CollarChart(chart),
                                      lateral_points(3, 2, 17))
    assert out["skipped"] == "d <= 3"
    assert out["residual"] is None
