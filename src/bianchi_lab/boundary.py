"""Adapted boundary geometry on collar charts.

The boundary face sits at the last coordinate's lower end (or upper end for
``face=1``) and the inward normal points into the domain.  All boundary
data derives from the jet of the boundary-distance function, obtained by a
Newton solve of the eikonal equation |grad r|_g = 1 on Taylor coefficients;
the normal field grad r is then geodesic, its Hessian is the tangential
second-fundamental-form field of the distance foliation, and one more
covariant derivative gives the normal derivative data.

Every caller, here and in ``linearize``, goes through one pipeline, with
one function per step:

* ``face_adapted_jets`` -- a symmetric 2-tensor field at face points, with
  the upper face reflected so that the inward normal is always +x^d;
* ``normal_field`` -- the distance jet r and n^i = g^{ij} d_j r;
* ``distance_hessian`` -- Hess r, the A-field;
* ``normal_derivative`` -- the contraction n^k nabla_k T;
* ``face_restriction`` -- the tangential block as lateral jets on the face;
* ``boundary_divergence`` -- -g_bnd^{kb} nabla_k S_ba on the face.

Fields are tensor jets as in ``charts`` (batch axes, then tensor axes,
then coefficients), and each step above is a few ``jets.contract`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    FrameVector,
    interior,
    op_e,
    restrict_covector,
    schouten_weyl_split,
    sym_matrix_covector,
    wedge,
)
from .charts import (
    Geometry,
    MetricChart,
    _rank,
    geometry_from_jets,
    nabla,
    orthonormal_frame,
    rm_covector,
    sym_to_frame,
)
from .conventions import constraint_constants
from .jets import Jet, _exp_index, _exponents, contract

__all__ = [
    "CollarChart",
    "BoundaryFrameData",
    "BoundaryState",
    "boundary_state",
    "normal_derivative",
    "constraint_pieces",
    "combine_constraint_residuals",
    "constraint_residuals_at",
    "weyl_constraint_residual_at",
    "distance_jet",
    "normal_field",
    "distance_hessian",
    "reflect_jet_normal",
    "face_adapted_jets",
    "collar_metric_jets",
    "face_restriction",
    "boundary_divergence",
]


@dataclass(frozen=True)
class CollarChart:
    """A chart whose last coordinate is the collar depth with a boundary face.

    ``face=0`` places the boundary at the lower end with inward +x^d;
    ``face=1`` uses the upper end (the slab's second face), handled by
    reflecting the normal coordinate.
    """

    chart: MetricChart
    face: int = 0

    def __post_init__(self):
        if self.chart.periodic[-1]:
            raise ValueError("collar axis must not be periodic")
        if self.face not in (0, 1):
            raise ValueError("face must be 0 or 1")

    @property
    def dim(self) -> int:
        return self.chart.dim

    def ambient_point(self, y) -> np.ndarray:
        """Lateral boundary coordinates -> ambient chart point on the face."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        lo, hi = self.chart.domain[-1]
        depth = np.full(y.shape[:-1] + (1,), lo if self.face == 0 else hi)
        return np.concatenate([y, depth], axis=-1)


def reflect_jet_normal(j: Jet) -> Jet:
    """Pull a jet back under x^d -> const - x^d (flip odd normal orders)."""
    exps = _exponents(j.dim, j.order)
    signs = np.array([(-1.0) ** e[-1] for e in exps])
    return Jet(j.dim, j.order, j.c * signs)


def face_adapted_jets(collar: CollarChart, y, field, order: int) -> Jet:
    """Jets of a symmetric 2-tensor field at face points, face-adapted.

    ``field(x, order)`` returns the tensor jet at chart points.  For the
    upper face the normal coordinate is reflected, x^d -> const - x^d, so
    the inward direction is always the positive last axis: odd normal
    orders flip, and so do the mixed (a, d) entries.
    """
    T = field(collar.ambient_point(y), order)
    if collar.face == 0:
        return T
    normal = np.arange(collar.dim) == collar.dim - 1
    sign = np.where(normal[:, None] != normal[None, :], -1.0, 1.0)
    return reflect_jet_normal(T) * sign


def collar_metric_jets(collar: CollarChart, y, order: int):
    """Metric jets at boundary points in face-adapted coordinates."""
    return face_adapted_jets(collar, y, collar.chart.metric_jets, order)


# ---------------------------------------------------------------------------
# eikonal distance jet


# Largest |Taylor coefficient| of |grad r|^2_g - 1 accepted from the
# eikonal Newton solve.
_EIKONAL_TOL = 1e-12


def distance_jet(geom: Geometry, newton_steps: int = 12) -> Jet:
    """Jet of the boundary-distance function at face points.

    Solves |grad r|^2_g = 1 with r = 0 on the face for the Taylor
    coefficients of r with nonzero normal exponent.  The system is square
    order by order; a Newton iteration on the full coefficient vector
    converges quadratically from r = x^d.  Raises RuntimeError if the
    residual is not below ``_EIKONAL_TOL`` after ``newton_steps`` steps.
    """
    d, p = geom.dim, geom.order
    exps = _exponents(d, p)
    unknowns = [i for i, e in enumerate(exps) if e[-1] >= 1]
    n_res = len(_exponents(d, p - 1))
    if len(unknowns) != n_res:
        raise AssertionError("eikonal system is not square")

    batch = geom.g.c.shape[:-3]
    r = Jet.const(d, p, np.zeros(batch))
    e1 = [0] * d
    e1[-1] = 1
    r.c[..., _exp_index(d, p)[tuple(e1)]] = 1.0
    # the Newton basis e_u is a batch axis after the points
    basis = Jet(d, p, np.eye(len(exps))[unknowns]).grad()

    for step in range(newton_steps + 1):
        dr = r.grad()
        n_low = contract("ij,i->j", geom.ginv, dr)  # g^{ij} d_i r
        res = contract("j,j->", n_low, dr) - 1.0
        err = float(np.max(np.abs(res.c)))
        if err < _EIKONAL_TOL:
            return r
        if step == newton_steps:
            raise RuntimeError(
                f"eikonal Newton solve did not converge in {newton_steps} "
                f"steps: residual {err:.3e} >= tol {_EIKONAL_TOL:.1e}")
        # J[:, u] = 2 sum g^{ij} d_i r d_j e_u
        J = 2.0 * np.swapaxes(
            contract("j,j->", n_low[..., None, :], basis).c, -1, -2)
        delta = np.linalg.solve(J, -res.c[..., None])[..., 0]
        newc = r.c.copy()
        newc[..., unknowns] += delta
        r = Jet(d, p, newc)


def normal_field(geom: Geometry):
    """The distance jet r and the normal field n^i = g^{ij} d_j r."""
    rjet = distance_jet(geom)
    return rjet, contract("ij,j->i", geom.ginv, rjet.grad())


def distance_hessian(geom: Geometry, rjet: Jet) -> Jet:
    """Hess r, the A-field: tangential by the eikonal equation."""
    dr = rjet.grad()
    ddr = dr.grad()
    return ddr - contract("kij,k->ij", geom.gamma, dr.truncate(ddr.order))


def normal_derivative(geom: Geometry, nvec: Jet, T: Jet) -> Jet:
    """Contract the covariant derivative of T with the normal field jets."""
    idx = "abcdefgh"[:_rank(geom, T)]
    return contract(f"k,k{idx}->{idx}", nvec, nabla(geom, T))


# ---------------------------------------------------------------------------
# boundary state


@dataclass
class BoundaryFrameData:
    """Adapted boundary package at a batch of face points (plain values)."""

    dim: int
    normal: np.ndarray          # inward unit normal, ambient components
    tangent_frame: np.ndarray   # rows t_a, ambient components, orthonormal
    induced_metric: np.ndarray  # g_ab on boundary coordinates
    second_ff: np.ndarray       # A_ab, boundary coordinates
    mean_curv: np.ndarray       # tr_{g_bnd} A
    normal_deriv_a: np.ndarray  # (nabla_n A)_ab, boundary coordinates
    normal_defect: float        # max |A(n,.)|, |nabla_n A(n,.)|, |g(n,t_a)|


@dataclass
class BoundaryState:
    """Everything the constraint tests need at a batch of face points."""

    collar: CollarChart
    y: np.ndarray
    geom: Geometry              # ambient, face-adapted coordinates
    rjet: Jet
    nvec: Jet                   # normal field jets (raised components)
    bgeom: Geometry             # intrinsic boundary geometry (dim d-1)
    a_lateral: Jet              # A_ab as lateral jets on the boundary
    frame: BoundaryFrameData


def _restrict_to_face(j: Jet) -> Jet:
    """Drop the normal variable: lateral jet of the face restriction."""
    d, p = j.dim, j.order
    idx = _exp_index(d, p)
    sel = [idx[e + (0,)] for e in _exponents(d - 1, p)]
    return Jet(d - 1, p, j.c[..., sel])


def face_restriction(T: Jet) -> Jet:
    """Tangential block of a 2-tensor jet as lateral jets on the face."""
    return _restrict_to_face(T[..., :-1, :-1])


def boundary_divergence(bgeom: Geometry, S: Jet) -> Jet:
    """-g_bnd^{kb} nabla_k S_ba of lateral jets S_ab: covector jets."""
    return -contract("kb,kba->a", bgeom.ginv, nabla(bgeom, S))


def boundary_state(collar: CollarChart, y) -> BoundaryState:
    d = collar.dim
    # order-4 metric jets: nabla_n A, the deepest field read, has order 1
    g = collar_metric_jets(collar, y, 4)
    geom = geometry_from_jets(g)
    rjet, nvec = normal_field(geom)
    hess = distance_hessian(geom, rjet)
    dn_a = normal_derivative(geom, nvec, hess)
    # intrinsic boundary geometry from the lateral restriction of g_ab
    bgeom = geometry_from_jets(face_restriction(g))
    a_lat = face_restriction(hess)

    # plain-value views
    gvals, nvals, avals, mvals = g.value, nvec.value, hess.value, dn_a.value
    gb = gvals[..., : d - 1, : d - 1]
    ab = avals[..., : d - 1, : d - 1]
    mb = mvals[..., : d - 1, : d - 1]
    hmean = np.einsum("...ab,...ab->...", np.linalg.inv(gb), ab)

    # adapted orthonormal tangent frame (rows), ambient components
    lb = orthonormal_frame(gb)
    tframe = np.zeros(lb.shape[:-2] + (d - 1, d))
    tframe[..., :, : d - 1] = lb

    nlow = np.einsum("...ij,...j->...i", gvals, nvals)
    defects = [
        np.abs(np.einsum("...ij,...j->...i", avals, nvals)).max(),
        np.abs(np.einsum("...ij,...j->...i", mvals, nvals)).max(),
        np.abs(np.einsum("...ai,...i->...a", tframe, nlow)).max(),
        np.abs(np.einsum("...i,...i->...", nlow, nvals) - 1.0).max(),
    ]
    frame = BoundaryFrameData(
        dim=d, normal=nvals, tangent_frame=tframe, induced_metric=gb,
        second_ff=ab, mean_curv=hmean, normal_deriv_a=mb,
        normal_defect=float(max(defects)))
    return BoundaryState(collar=collar, y=np.atleast_2d(y), geom=geom,
                         rjet=rjet, nvec=nvec, bgeom=bgeom,
                         a_lateral=a_lat, frame=frame)


# ---------------------------------------------------------------------------
# constraint equations


def _boundary_frame_sym(st: BoundaryState, sym_coord: np.ndarray) -> np.ndarray:
    lb = orthonormal_frame(st.frame.induced_metric)
    return np.einsum("...ai,...bj,...ij->...ab", lb, lb, sym_coord)


def _frame_to_coord_sym(st: BoundaryState, sym_frame: np.ndarray) -> np.ndarray:
    lb = orthonormal_frame(st.frame.induced_metric)
    linv = np.linalg.inv(lb)
    return np.einsum("...ia,...jb,...ab->...ij", linv, linv, sym_frame)


def _e_of_a_wedge_a(st: BoundaryState) -> np.ndarray:
    """E_{g_bnd}(A wedge A) in boundary coordinates, per point."""
    a_cov = sym_matrix_covector(_boundary_frame_sym(st, st.frame.second_ff))
    return _frame_to_coord_sym(st, op_e(wedge(a_cov, a_cov)).sym_matrix())


def _boundary_div_a(st: BoundaryState) -> np.ndarray:
    """(delta_{g_bnd} A)_a as a lowered boundary covector (values)."""
    return boundary_divergence(st.bgeom, st.a_lateral).value


def _d_trace_a(st: BoundaryState) -> np.ndarray:
    """Exterior derivative of the mean curvature, boundary covector values."""
    return contract("ab,ab->", st.bgeom.ginv, st.a_lateral).grad().value


def _a_squared(st: BoundaryState) -> np.ndarray:
    gb_inv = np.linalg.inv(st.frame.induced_metric)
    A = st.frame.second_ff
    return np.einsum("...ac,...ce,...eb->...ab", A, gb_inv, A)


def _c_gb(st: BoundaryState, sym_coord: np.ndarray) -> np.ndarray:
    """C on boundary coordinates: -sigma + tr sigma * g_bnd."""
    gb = st.frame.induced_metric
    tr = np.einsum("...ab,...ab->...", np.linalg.inv(gb), sym_coord)
    return -sym_coord + tr[..., None, None] * gb


def constraint_pieces(collar: CollarChart, y) -> dict:
    """Raw terms of the three constraint lines, batched over points.

    The curvature route gives the left sides (ambient Einstein
    projections); the boundary route gives the right-side building blocks.
    The convention audit searches sign/factor combinations over these.
    """
    st = boundary_state(collar, y)
    d = collar.dim
    ein = st.geom.ein.value
    n = st.frame.normal
    gb_inv = np.linalg.inv(st.frame.induced_metric)

    ein_n_low = np.einsum("...ij,...i->...j", ein, n)
    A = st.frame.second_ff
    a_sq_full = np.einsum("...ab,...ab->...", np.einsum(
        "...ac,...bd,...cd->...ab", gb_inv, gb_inv, A), A)
    m_plus_a2 = st.frame.normal_deriv_a + _a_squared(st)
    return {
        "state": st,
        "lhs_nn": np.einsum("...j,...j->...", ein_n_low, n),
        "lhs_nt": ein_n_low[..., : d - 1],
        "lhs_tt": ein[..., : d - 1, : d - 1],
        "sc_b": st.bgeom.sc.value,
        "a_sq": a_sq_full,
        "tr_a_sq": st.frame.mean_curv ** 2,
        "div_a": _boundary_div_a(st),
        "d_tr_a": _d_trace_a(st),
        "ein_b": st.bgeom.ein.value,
        "c_m_a2": _c_gb(st, m_plus_a2),
        "e_awa": 0.5 * _e_of_a_wedge_a(st),
    }


def combine_constraint_residuals(pieces: dict, constants) -> dict:
    c1, e1, e2 = constants["line1"]
    c2, e3, e4 = constants["line2"]
    c3, e5, e6 = constants["line3"]
    rnn = pieces["lhs_nn"] - c1 * (e1 * pieces["sc_b"]
                                   + e2 * (pieces["tr_a_sq"] - pieces["a_sq"]))
    rnt = pieces["lhs_nt"] - c2 * (e3 * pieces["div_a"]
                                   + e4 * pieces["d_tr_a"])
    rtt = pieces["lhs_tt"] - c3 * (pieces["ein_b"] + e5 * pieces["c_m_a2"]
                                   + e6 * pieces["e_awa"])
    return {"rnn": rnn, "rnt": rnt, "rtt": rtt}


def constraint_residuals_at(collar: CollarChart, y):
    """LHS - RHS of the three constraint lines, read with the constants
    of ``conventions.constraint_constants``.

    Returns dict with rnn (scalar), rnt (covector), rtt (sym tensor),
    batched over the points, plus the individual line-1 terms.
    """
    pieces = constraint_pieces(collar, y)
    out = combine_constraint_residuals(pieces, constraint_constants())
    out["state"] = pieces["state"]
    out["terms_nn"] = (pieces["lhs_nn"], pieces["sc_b"], pieces["a_sq"],
                       pieces["tr_a_sq"])
    return out


def weyl_constraint_residual_at(collar: CollarChart, y):
    """Residual of the electric-Weyl form of the tangential constraint.

    Valid for d > 3.  The right side carries the Schouten correction
    -(d-3) P(n,n) g_bnd, which vanishes exactly on boundary-Ricci-flat
    backgrounds (the regime the identity is quoted for) and is required
    for the identity to close on general metrics; the returned
    ``schouten_term`` lets callers inspect it.  Also returns the
    curvature-equation consistency defect |pnn Rm - (nabla_n A + A^2)|
    used by the first identity.  Line 3's signs come from ``conventions``.
    """
    st = boundary_state(collar, y)
    d = collar.dim
    if d <= 3:
        return {"state": st, "residual": None, "skipped": "d <= 3"}

    ein, riem, gvals = st.geom.ein.value, st.geom.riem.value, st.geom.g.value

    # adapted orthonormal frame: tangent rows then the normal
    frame_rows = np.concatenate(
        [st.frame.tangent_frame, st.frame.normal[..., None, :]], axis=-2)
    gram = np.einsum("...ai,...bj,...ij->...ab", frame_rows, frame_rows, gvals)

    lhs_tt_f = sym_to_frame(ein, frame_rows)[..., : d - 1, : d - 1]

    ein_b_f = _boundary_frame_sym(st, st.bgeom.ein.value)
    m_plus_a2_f = _boundary_frame_sym(
        st, st.frame.normal_deriv_a + _a_squared(st))
    a_f = _boundary_frame_sym(st, st.frame.second_ff)

    _, e5, e6 = constraint_constants()["line3"]
    nfr = FrameVector.basis(d, d - 1)

    def pnn(psi):
        """psi(., n, ., n) restricted to the tangent frame."""
        return restrict_covector(
            interior(nfr, interior(nfr, psi, "first"), "second"),
            drop_axis=d - 1).sym_matrix()

    rm = rm_covector(riem, frame_rows)
    p, wey = schouten_weyl_split(rm, tol=1e-6)
    a_cov = sym_matrix_covector(a_f)
    eaa = op_e(wedge(a_cov, a_cov)).sym_matrix()
    schouten_term = -(d - 3) * p.sym_matrix()[..., d - 1, d - 1, None, None] \
        * np.eye(d - 1)
    out = ((d - 3) / (d - 2)) * lhs_tt_f - (
        ein_b_f - e5 * pnn(wey) + e6 * 0.5 * eaa + schouten_term)
    rm_defect = pnn(rm) - e5 * m_plus_a2_f

    gram_defect = float(np.abs(gram - np.eye(d)).max())
    return {"state": st, "residual": out, "rm_defect": rm_defect,
            "schouten_term": schouten_term,
            "frame_gram_defect": gram_defect, "skipped": None}
