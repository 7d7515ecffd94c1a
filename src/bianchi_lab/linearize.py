"""Linearized curvature and boundary operators.

Two independent routes everywhere: closed variational formulas evaluated
with jet-exact derivatives, and central finite differences of the
nonlinear maps through perturbed metrics g + t*sigma.  The curvature
action entering the closed Ricci formula carries two integer coefficients
pinned once against the finite-difference oracle (see conventions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import (
    CollarChart,
    boundary_divergence,
    collar_metric_jets,
    distance_hessian,
    face_adapted_jets,
    face_restriction,
    normal_derivative,
    normal_field,
)
from .charts import (
    Geometry,
    MetricChart,
    bianchi_b,
    bianchi_b_inverse,
    divergence,
    geometry_from_jets,
    killing,
    lie_derivative_sym2,
    nabla,
    sym_values,
    tensor_values,
)
from .jets import Jet

__all__ = [
    "Perturbation",
    "trig_poly_sym_field",
    "bump_sym_field",
    "jet_surgery_pair",
    "perturbed_geometry",
    "dric_parts_jets",
    "dric_closed_jets",
    "dric_closed",
    "dric_fd",
    "dein_closed_jets",
    "dein_closed",
    "dein_fd",
    "sample_connection",
    "gamma_tilde_at",
    "dboundary_data_fd",
    "equivariance_residual",
    "first_order_dependence_residual",
    "normal_identity_residuals",
    "fit_ricci_action",
    "richardson_slope",
]


@dataclass
class Perturbation:
    """A jet-evaluable symmetric 2-tensor field on a chart.

    ``fn(x, order)`` returns the (d, d) object array of component jets;
    ``boundary_order`` records the intended vanishing order at the collar
    face (0 = none), verified by tests through normal-jet sampling.
    """

    fn: object
    dim: int
    boundary_order: int = 0

    def __call__(self, x, order: int):
        sig = self.fn(np.asarray(x, dtype=float), order)
        for i in range(self.dim):
            for j in range(i):
                if sig[i, j] is not sig[j, i]:
                    dc = np.max(np.abs(sig[i, j].c - sig[j, i].c))
                    if dc > 1e-14:
                        raise ValueError("perturbation is not symmetric")
        return sig


def trig_poly_sym_field(dim: int, seed: int, boundary_order: int = 0,
                        freq: int = 1, amp: float = 1.0) -> Perturbation:
    """Random lateral trig polynomial times a normal-axis factor.

    The normal factor is x_d^boundary_order * (smooth), so the field
    vanishes at the lower collar face to exactly the requested order.
    """
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((dim, dim))
    coef = 0.5 * (coef + coef.T) * amp
    ks = rng.integers(0, freq + 1, size=(dim, dim, dim - 1))
    ks = np.minimum(ks, np.transpose(ks, (1, 0, 2)))
    phases = rng.uniform(0, 2 * np.pi, size=(dim, dim, dim - 1))
    phases = 0.5 * (phases + np.transpose(phases, (1, 0, 2)))
    poly = rng.uniform(-1, 1, size=(dim, dim, 2))
    poly = 0.5 * (poly + np.transpose(poly, (1, 0, 2)))

    def fn(x, order):
        xs = Jet.variables(x, order)
        out = np.empty((dim, dim), dtype=object)
        for i in range(dim):
            for j in range(i, dim):
                term = Jet.const(dim, order, np.full(x.shape[:-1], coef[i, j]))
                for a in range(dim - 1):
                    term = term * (xs[a] * (2 * np.pi * ks[i, j, a])
                                   + phases[i, j, a]).cos()
                prof = poly[i, j, 0] + 1.0 + poly[i, j, 1] * xs[-1]
                term = term * prof
                for _ in range(boundary_order):
                    term = term * xs[-1]
                out[i, j] = out[j, i] = term
        return out

    return Perturbation(fn, dim, boundary_order)


def bump_sym_field(dim: int, seed: int, center=0.5, width=0.25,
                   amp: float = 1.0) -> Perturbation:
    """Interior-supported-in-spirit field: lateral trig times a normal
    polynomial bump ((x_d - c)^2 - w^2)^2 clipped outside |x_d - c| < w.

    The clip keeps jets polynomial near the support; callers sample inside.
    """
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((dim, dim))
    coef = 0.5 * (coef + coef.T) * amp

    def fn(x, order):
        xs = Jet.variables(x, order)
        w2 = width * width
        b = (xs[-1] - center) * (xs[-1] - center) - w2
        bump = b * b * (1.0 / w2 ** 2)
        inside = np.abs(x[..., -1] - center) < width
        out = np.empty((dim, dim), dtype=object)
        for i in range(dim):
            for j in range(i, dim):
                term = Jet.const(dim, order, np.full(x.shape[:-1], coef[i, j]))
                term = term * (xs[0] * (2 * np.pi) ).cos()
                term = term * bump
                term.c[...] = np.where(inside[..., None], term.c, 0.0)
                out[i, j] = out[j, i] = term
        return out

    return Perturbation(fn, dim, boundary_order=4)


def jet_surgery_pair(base: Perturbation, x0, scale: float = 1.0):
    """Two fields with the same value and first derivatives at x0.

    The second adds a quadratically vanishing modification at x0, so any
    operator depending only on the 1-jet must treat them identically.
    """
    dim = base.dim
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(101)
    c2 = rng.standard_normal((dim, dim, dim, dim))
    c2 = 0.5 * (c2 + np.transpose(c2, (1, 0, 2, 3))) * scale

    def fn2(x, order):
        sig = base.fn(x, order)
        xs = Jet.variables(x, order)
        shift = [xs[a] - x0[a] for a in range(dim)]
        out = np.empty((dim, dim), dtype=object)
        for i in range(dim):
            for j in range(i, dim):
                extra = None
                for a in range(dim):
                    for b in range(dim):
                        t = c2[i, j, a, b] * (shift[a] * shift[b])
                        extra = t if extra is None else extra + t
                out[i, j] = out[j, i] = sig[i, j] + extra
        return out

    return base, Perturbation(fn2, dim, base.boundary_order)


# ---------------------------------------------------------------------------
# perturbed geometry


def perturbed_geometry(chart: MetricChart, x, sigma, eps: float,
                       order: int = 2, curvature: bool = True) -> Geometry:
    g = chart.metric_jets(x, order)
    sig = sigma(x, order)
    d = chart.dim
    gp = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            gp[i, j] = g[i, j] + eps * sig[i, j]
    return geometry_from_jets(gp, curvature=curvature)


# ---------------------------------------------------------------------------
# linearized Ricci and Einstein operators


def dric_parts_jets(geom: Geometry, sig: np.ndarray):
    """The three building blocks of the closed linearized Ricci tensor.

    Returns (base, comp, curv): the gauge-reduced second-order part
    rough-Laplacian/2 - killing(div B sigma), the Ricci composition
    Ric o sigma + sigma o Ric, and the curvature contraction Rm[sigma].
    """
    d = geom.dim
    ns = nabla(geom, sig)
    nns = nabla(geom, ns)
    o = nns.flat[0].order
    lap = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(i, d):
            acc = None
            for a in range(d):
                for b in range(d):
                    term = geom.ginv[a, b].truncate(o) * nns[a, b, i, j]
                    acc = term if acc is None else acc + term
            lap[i, j] = lap[j, i] = -acc  # rough Laplacian nabla* nabla

    X = divergence(geom, bianchi_b(geom, sig))
    ds = killing(geom, X)

    ginv_o = np.empty((d, d), dtype=object)
    sig_o = np.empty((d, d), dtype=object)
    ric_o = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            ginv_o[i, j] = geom.ginv[i, j].truncate(o)
            sig_o[i, j] = sig[i, j].truncate(o)
            ric_o[i, j] = geom.ric[i, j].truncate(o)

    sig_up = np.empty((d, d), dtype=object)  # sigma^{kl}
    for k in range(d):
        for l in range(d):
            acc = None
            for a in range(d):
                for b in range(d):
                    term = ginv_o[k, a] * ginv_o[l, b] * sig_o[a, b]
                    acc = term if acc is None else acc + term
            sig_up[k, l] = acc

    base = np.empty((d, d), dtype=object)
    comp = np.empty((d, d), dtype=object)
    curv = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(i, d):
            # Ric o sigma + sigma o Ric with one raised middle index
            acc = None
            for k in range(d):
                for l in range(d):
                    term = ginv_o[k, l] * (ric_o[i, k] * sig_o[l, j]
                                           + sig_o[i, k] * ric_o[l, j])
                    acc = term if acc is None else acc + term
            comp[i, j] = comp[j, i] = acc
            acc = None
            for k in range(d):
                for l in range(d):
                    term = geom.riem[i, k, j, l].truncate(o) * sig_up[k, l]
                    acc = term if acc is None else acc + term
            curv[i, j] = curv[j, i] = acc
            base[i, j] = base[j, i] = 0.5 * lap[i, j] - ds[i, j]
    return base, comp, curv


def dric_closed_jets(geom: Geometry, sig: np.ndarray, action) -> np.ndarray:
    """Jet-valued closed form of the linearized Ricci tensor.

    dRic sigma = rough-Laplacian term / 2 - killing(div B sigma)
                 + curvature action / 2, with the two integer coefficients
    of the curvature action supplied by ``action`` = (a, b).
    """
    d = geom.dim
    a_c, b_c = action
    base, comp, curv = dric_parts_jets(geom, sig)
    out = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            out[i, j] = base[i, j] + 0.5 * (a_c * comp[i, j]
                                            + b_c * curv[i, j])
    return out


def dric_closed(chart: MetricChart, x, sigma, action,
                order: int = 3) -> np.ndarray:
    """Closed-form dRic values at x (batched)."""
    geom = geometry_from_jets(chart.metric_jets(x, order))
    sig = sigma(x, order)
    return tensor_values(dric_closed_jets(geom, sig, action))


def dric_fd(chart: MetricChart, x, sigma, eps: float = 1e-3) -> np.ndarray:
    """Central difference (Ric_{g+eps sigma} - Ric_{g-eps sigma}) / (2 eps)."""
    gp = perturbed_geometry(chart, x, sigma, +eps)
    gm = perturbed_geometry(chart, x, sigma, -eps)
    rp = tensor_values(gp.ric)
    rm = tensor_values(gm.ric)
    return (rp - rm) / (2 * eps)


def dein_fd(chart: MetricChart, x, sigma, eps: float = 1e-3) -> np.ndarray:
    gp = perturbed_geometry(chart, x, sigma, +eps)
    gm = perturbed_geometry(chart, x, sigma, -eps)
    return (tensor_values(gp.ein) - tensor_values(gm.ein)) / (2 * eps)


def dein_closed_jets(geom: Geometry, sig: np.ndarray, action,
                     conn=None) -> np.ndarray:
    """Covariant linearized Einstein operator via trace reversal.

    dEin sigma = B(dRic sigma) + <sigma, Ric> g / 2 - Sc sigma / 2
    plus the tensorial connection term conn(Ein, sigma) when given.
    """
    d = geom.dim
    dric = dric_closed_jets(geom, sig, action)
    out = bianchi_b(geom, dric)
    o = out[0, 0].order
    ginv_o = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            ginv_o[i, j] = geom.ginv[i, j].truncate(o)
    pairing = None  # <sigma, Ric>_g
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    term = (ginv_o[i, k] * ginv_o[j, l]
                            * sig[i, j].truncate(o) * geom.ric[k, l].truncate(o))
                    pairing = term if pairing is None else pairing + term
    sc_o = geom.sc.truncate(o)
    for i in range(d):
        for j in range(i, d):
            val = (out[i, j] + 0.5 * (pairing * geom.g[i, j].truncate(o))
                   - 0.5 * (sc_o * sig[i, j].truncate(o)))
            out[i, j] = val
            out[j, i] = val
    if conn is not None:
        ein_vals = tensor_values(geom.ein)
        sig_vals = tensor_values(sig)
        gvals = sym_values(geom.g)
        corr = conn(ein_vals, sig_vals, gvals)
        for i in range(d):
            for j in range(d):
                out[i, j] = out[i, j] + Jet.const(d, o, corr[..., i, j])
    return out


def dein_closed(chart: MetricChart, x, sigma, action, conn=None,
                order: int = 3) -> np.ndarray:
    geom = geometry_from_jets(chart.metric_jets(x, order))
    sig = sigma(x, order)
    return tensor_values(dein_closed_jets(geom, sig, action, conn))


def sample_connection(t_vals: np.ndarray, sigma_vals: np.ndarray,
                      gvals: np.ndarray) -> np.ndarray:
    """Fiberwise symmetric product (T o sigma + sigma o T) / 2."""
    ginv = np.linalg.inv(gvals)
    prod1 = np.einsum("...ik,...kl,...lj->...ij", t_vals, ginv, sigma_vals)
    prod2 = np.einsum("...ik,...kl,...lj->...ij", sigma_vals, ginv, t_vals)
    return 0.5 * (prod1 + prod2)


def gamma_tilde_at(chart: MetricChart, x, sigma, action, conn=None,
                   order: int = 3) -> np.ndarray:
    """Tensorial correction B^{-1}(dEin + conn term) - dRic, as values."""
    geom = geometry_from_jets(chart.metric_jets(x, order))
    sig = sigma(x, order)
    dein = dein_closed_jets(geom, sig, action, conn)
    dric = dric_closed_jets(geom, sig, action)
    binv = bianchi_b_inverse(geom, dein)
    d = chart.dim
    out = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            out[i, j] = binv[i, j] - dric[i, j]
    return tensor_values(out)


# ---------------------------------------------------------------------------
# linearized boundary data (finite differences through the full pipeline)


def dboundary_data_fd(collar: CollarChart, y, sigma, eps: float = 1e-3,
                      order: int = 4):
    """Central differences of (A, H, nabla_n A) along g + t sigma.

    All outputs are in boundary coordinates at the face points.
    """
    d = collar.dim
    g = collar_metric_jets(collar, y, order)
    sig = face_adapted_jets(collar, y, sigma, order)

    def perturbed_data(t):
        gp = np.empty((d, d), dtype=object)
        for i in range(d):
            for j in range(d):
                gp[i, j] = g[i, j] + t * sig[i, j]
        return _boundary_data_from_geom(
            geometry_from_jets(gp, curvature=False))

    ap, hp, mp = perturbed_data(+eps)
    am, hm, mm = perturbed_data(-eps)
    return ((ap - am) / (2 * eps), (hp - hm) / (2 * eps), (mp - mm) / (2 * eps))


def _boundary_data_from_geom(geom: Geometry):
    """(A, H, nabla_n A) in boundary coordinates from face-adapted jets."""
    d = geom.dim
    rjet, nvec = normal_field(geom)
    hess = distance_hessian(geom, rjet)
    dn = normal_derivative(geom, nvec, hess)
    avals = tensor_values(hess)[..., : d - 1, : d - 1]
    gb = sym_values(geom.g)[..., : d - 1, : d - 1]
    hmean = np.einsum("...ab,...ab->...", np.linalg.inv(gb), avals)
    mvals = tensor_values(dn)[..., : d - 1, : d - 1]
    return avals, hmean, mvals


# ---------------------------------------------------------------------------
# identity probes


def equivariance_residual(chart: MetricChart, x, x_field, action) -> float:
    """max |dRic(killing X) - Lie_X Ric / 2| over the batch."""
    geom = geometry_from_jets(chart.metric_jets(x, 4))
    d = chart.dim

    def sigma(xq, order):
        g = geometry_from_jets(chart.metric_jets(xq, order + 1),
                               curvature=False)
        X = x_field(xq, order + 1)
        ds = killing(g, X)
        out = np.empty((d, d), dtype=object)
        for i in range(d):
            for j in range(d):
                out[i, j] = ds[i, j].truncate(order)
        return out

    lhs = dric_closed(chart, x, sigma, action)
    X = x_field(x, 3)
    ric3 = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            ric3[i, j] = geom.ric[i, j]
    lie = tensor_values(lie_derivative_sym2(X, ric3))
    return float(np.max(np.abs(lhs - 0.5 * lie)))


def gauge_divergence_jets(geom: Geometry, sig: np.ndarray, action) -> np.ndarray:
    """delta B dRic sigma as vector jets (first-order content probe)."""
    dric = dric_closed_jets(geom, sig, action)
    return divergence(geom, bianchi_b(geom, dric))


def first_order_dependence_residual(chart: MetricChart, x, sigma1, sigma2,
                                    action) -> float:
    """|delta B dRic (sigma1 - sigma2)| at x for 1-jet-matched fields."""
    geom = geometry_from_jets(chart.metric_jets(x, 4))
    s1 = sigma1(x, 4)
    s2 = sigma2(x, 4)
    x = np.atleast_2d(x)
    v1 = tensor_values(s1)
    v2 = tensor_values(s2)
    if np.max(np.abs(v1 - v2)) > 1e-10:
        raise ValueError("fields do not share the 0-jet at x")
    g1 = gauge_divergence_jets(geom, s1, action)
    g2 = gauge_divergence_jets(geom, s2, action)
    return float(max(np.max(np.abs((g1[i] - g2[i]).value))
                     for i in range(chart.dim)))


def normal_identity_residuals(collar: CollarChart, y, sigma, action,
                              require_vanishing: int = 2):
    """Normal-trace identities of the gauged linearized operator on
    Ricci-flat collars.

    For sigma with vanishing 0th and 1st normal jets the normal component
    of T = dEin sigma vanishes on the face (r1).  The first normal trace
    (r2) then equals -div(T^tan) by the linearized contracted Bianchi
    identity, which is nonzero whenever T varies along the face; it
    vanishes once sigma vanishes to order three, since T is then zero on
    the face (see DECISIONS.md, "first normal trace at order two").  The
    second normal derivative's normal part equals the boundary divergence
    of the tangential part of the first (r3).
    Returns (r1, r2, r3) max-norms: r1 = |T(n, .)|, r2 = |(nabla_n T)(n, .)|
    and r3 the defect of the second-order identity.
    """
    if not collar.chart.ricci_flat:
        raise ValueError("normal identity probes need a Ricci-flat preset")
    if collar.face == 1:
        raise ValueError("probe implemented on the lower face")
    d = collar.dim
    order = 6
    g = collar_metric_jets(collar, y, order)
    geom = geometry_from_jets(g)
    sig = face_adapted_jets(collar, y, sigma, order)

    if require_vanishing >= 1:
        v0 = np.max(np.abs(tensor_values(sig)))
        dn1 = np.empty((d, d), dtype=object)
        for i in range(d):
            for j in range(d):
                dn1[i, j] = sig[i, j].partial(d - 1)
        v1 = np.max(np.abs(tensor_values(dn1)))
        if v0 > 1e-9 or (require_vanishing >= 2 and v1 > 1e-9):
            raise ValueError("sigma does not vanish to the stated order")

    T = dein_closed_jets(geom, sig, action)
    _, nvec = normal_field(geom)
    nvals = tensor_values(nvec)

    def normal_component(Sjets):
        return np.einsum("...ij,...i->...j", tensor_values(Sjets), nvals)

    T1 = normal_derivative(geom, nvec, T)
    T2 = normal_derivative(geom, nvec, T1)

    r1 = float(np.max(np.abs(normal_component(T))))
    r2 = float(np.max(np.abs(normal_component(T1))))

    # boundary divergence of the tangential block of T1, in the intrinsic
    # boundary geometry
    bgeom = geometry_from_jets(face_restriction(g), curvature=False)
    div_t1 = boundary_divergence(bgeom, face_restriction(T1))
    pn_t2 = normal_component(T2)[..., : d - 1]
    r3 = float(np.max(np.abs(pn_t2 - tensor_values(div_t1))))
    return r1, r2, r3


# ---------------------------------------------------------------------------
# convention pinning and convergence helpers


def fit_ricci_action(charts, npts: int = 6, seed: int = 5,
                     tol: float = 1e-5):
    """Grid-search the curvature-action coefficients against the FD oracle.

    Richardson extrapolation of the central difference gives an oracle with
    error well below the separation between grid candidates.  Returns
    ((a, b), defect) of the winner; raises if no candidate reaches tol.
    """
    rng = np.random.default_rng(seed)
    best = None
    cases = []
    for chart in charts:
        x = np.stack([rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo),
                                  size=npts)
                      for lo, hi in chart.domain], axis=-1)
        sigma = trig_poly_sym_field(chart.dim, seed + chart.dim)
        eps = 1e-3
        f1 = dric_fd(chart, x, sigma, eps)
        f2 = dric_fd(chart, x, sigma, eps / 2)
        oracle = (4.0 * f2 - f1) / 3.0
        geom = geometry_from_jets(chart.metric_jets(x, 3))
        parts = dric_parts_jets(geom, sigma(x, 3))
        cases.append(tuple(tensor_values(p) for p in parts) + (oracle,))
    for a in (-2, -1, 1, 2):
        for b in (-2, -1, 1, 2):
            worst = 0.0
            for base, comp, curv, oracle in cases:
                got = base + 0.5 * (a * comp + b * curv)
                worst = max(worst, float(np.max(np.abs(got - oracle))))
            if best is None or worst < best[1]:
                best = ((a, b), worst)
    if best[1] > tol:
        raise RuntimeError(
            f"no curvature-action candidate reaches tolerance: best {best}")
    return best


def richardson_slope(chart: MetricChart, x, sigma, action,
                     eps_list=(1e-2, 5e-3)) -> float:
    """Observed order of the FD error against the closed route."""
    ref = dric_closed(chart, x, sigma, action)
    errs = [float(np.max(np.abs(dric_fd(chart, x, sigma, e) - ref)))
            for e in eps_list]
    return float(np.log(errs[0] / errs[1])
                 / np.log(eps_list[0] / eps_list[1]))
