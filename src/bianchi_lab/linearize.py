"""Linearized curvature and boundary operators.

Two independent routes everywhere: closed variational formulas evaluated
with jet-exact derivatives, and central finite differences of the
nonlinear maps through perturbed metrics g + t*sigma.  The curvature
action entering the closed Ricci formula carries two integer coefficients
pinned once against the finite-difference oracle; ``dric_closed_jets``
reads them from the committed artifact (see conventions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import (
    CollarChart,
    _boundary_data,
    boundary_divergence,
    collar_metric_jets,
    face_adapted_jets,
    face_restriction,
    normal_derivative,
    normal_field,
)
from .charts import (
    Geometry,
    MetricChart,
    _by_chunks,
    bianchi_b,
    bianchi_b_inverse,
    divergence,
    geometry_from_jets,
    killing,
    lie_derivative_sym2,
    nabla,
    sym_from_upper,
)
from .conventions import ricci_action
from .jets import (
    Jet,
    contract,
    cos_coeffs,
    poly_coeffs,
    separable,
    stack,
)

__all__ = [
    "Perturbation",
    "trig_poly_sym_field",
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
    """A jet-evaluable symmetric 2-tensor field on a chart:
    ``fn(x, order)`` returns the (d, d) tensor jet."""

    fn: object
    dim: int

    def __call__(self, x, order: int):
        sig = self.fn(np.asarray(x, dtype=float), order)
        if np.any(np.abs(sig.c - np.swapaxes(sig.c, -2, -3)) > 1e-14):
            raise ValueError("perturbation is not symmetric")
        return sig


def trig_poly_sym_field(dim: int, seed: int,
                        boundary_order: int = 0) -> Perturbation:
    """Random lateral trig polynomial (each axis at frequency 0 or 1) times
    a normal-axis factor.

    The normal factor is x_d^boundary_order * (smooth), so the field
    vanishes at the lower collar face to exactly the requested order.
    """
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((dim, dim))
    coef = 0.5 * (coef + coef.T)
    ks = rng.integers(0, 2, size=(dim, dim, dim - 1))
    ks = np.minimum(ks, np.transpose(ks, (1, 0, 2)))
    phases = rng.uniform(0, 2 * np.pi, size=(dim, dim, dim - 1))
    phases = 0.5 * (phases + np.transpose(phases, (1, 0, 2)))
    poly = rng.uniform(-1, 1, size=(dim, dim, 2))
    poly = 0.5 * (poly + np.transpose(poly, (1, 0, 2)))

    upper = np.triu_indices(dim)
    coef, ks, phases, poly = coef[upper], ks[upper], phases[upper], poly[upper]

    # coef (1 + p0 + p1 x_d) x_d^boundary_order as one polynomial in x_d
    normal = np.zeros((len(coef), boundary_order + 2))
    normal[:, boundary_order] = coef * (poly[:, 0] + 1.0)
    normal[:, boundary_order + 1] = coef * poly[:, 1]
    w = 2 * np.pi * ks

    def fn(x, order):
        x = x[..., None, :]  # entries broadcast
        factors = {a: cos_coeffs(w[:, a], w[:, a] * x[..., a] + phases[:, a],
                                 order) for a in range(dim - 1)}
        factors[dim - 1] = poly_coeffs(x[..., -1], normal, order)
        return sym_from_upper(separable(dim, order, factors), dim)

    return Perturbation(fn, dim)


def jet_surgery_pair(base: Perturbation, x0):
    """Two fields with the same value and first derivatives at x0.

    The second adds a quadratically vanishing modification at x0, so any
    operator depending only on the 1-jet must treat them identically.
    """
    dim = base.dim
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(101)
    c2 = rng.standard_normal((dim, dim, dim, dim))
    c2 = 0.5 * (c2 + np.transpose(c2, (1, 0, 2, 3)))

    def fn2(x, order):
        shift = stack(Jet.variables(x, order)) - x0
        quad = contract("a,b->ab", shift, shift)
        return base.fn(x, order) + contract(
            "ijab,ab->ij", Jet.const(dim, order, c2), quad)

    return base, Perturbation(fn2, dim)


# ---------------------------------------------------------------------------
# perturbed geometry


def perturbed_geometry(chart: MetricChart, x, sigma, eps: float) -> Geometry:
    """The geometry of g + eps sigma from order-2 jets."""
    return geometry_from_jets(chart.metric_jets(x, 2) + eps * sigma(x, 2))


# ---------------------------------------------------------------------------
# linearized Ricci and Einstein operators


def _raise_both(geom: Geometry, sig: Jet) -> Jet:
    """sigma^{kl} = g^{ka} g^{lb} sigma_ab."""
    return contract("ka,al->kl", geom.ginv,
                    contract("lb,ab->al", geom.ginv, sig))


def dric_parts_jets(geom: Geometry, sig: Jet):
    """The three building blocks of the closed linearized Ricci tensor.

    Returns (base, comp, curv): the gauge-reduced second-order part
    rough-Laplacian/2 - killing(div B sigma), the Ricci composition
    Ric o sigma + sigma o Ric, and the curvature contraction Rm[sigma].
    One nabla sigma serves both: with nabla g = 0,
    (delta B sigma)^m = -g^{mj} (g^{ki} nabla_k sigma_ij
                                 - g^{ab} nabla_j sigma_ab / 2).
    """
    ns = nabla(geom, sig)
    cov = (contract("ki,kij->j", geom.ginv, ns)
           - 0.5 * contract("ab,jab->j", geom.ginv, ns))
    ds = killing(geom, -contract("mj,j->m", geom.ginv, cov))
    nns = nabla(geom, ns)
    del ns
    lap = -contract("ab,abij->ij", geom.ginv, nns)  # rough Laplacian
    low = sig.truncate(nns.order)
    # Ric o sigma with one raised middle index, plus its transpose
    half = contract("ik,kj->ij", geom.ric,
                    contract("kl,lj->kj", geom.ginv, low))
    comp = half + contract("ij->ji", half)
    curv = contract("ikjl,kl->ij", geom.riem, _raise_both(geom, low))
    base = 0.5 * lap - ds
    return base, comp, curv


def dric_closed_jets(geom: Geometry, sig: Jet) -> Jet:
    """Jet-valued closed form of the linearized Ricci tensor.

    dRic sigma = rough-Laplacian term / 2 - killing(div B sigma)
                 + curvature action / 2.  The two integer coefficients
    (a, b) of the curvature action are read here from the committed
    ``conventions.ricci_action``, not supplied by a caller.
    """
    a_c, b_c = ricci_action()
    base, comp, curv = dric_parts_jets(geom, sig)
    return base + 0.5 * (a_c * comp + b_c * curv)


def dric_closed(chart: MetricChart, x, sigma) -> np.ndarray:
    """Closed-form dRic values at x (batched), from order-2 jets: dRic is
    second order, so these values are exact."""
    geom = geometry_from_jets(chart.metric_jets(x, 2))
    return dric_closed_jets(geom, sigma(x, 2)).value


def dric_fd(chart: MetricChart, x, sigma, eps: float = 1e-3) -> np.ndarray:
    """Central difference (Ric_{g+eps sigma} - Ric_{g-eps sigma}) / (2 eps)."""
    gp = perturbed_geometry(chart, x, sigma, +eps)
    gm = perturbed_geometry(chart, x, sigma, -eps)
    return (gp.ric.value - gm.ric.value) / (2 * eps)


def dein_fd(chart: MetricChart, x, sigma, eps: float = 1e-3) -> np.ndarray:
    gp = perturbed_geometry(chart, x, sigma, +eps)
    gm = perturbed_geometry(chart, x, sigma, -eps)
    return (gp.ein.value - gm.ein.value) / (2 * eps)


def dein_closed_jets(geom: Geometry, sig: Jet) -> Jet:
    """Covariant linearized Einstein operator via trace reversal.

    dEin sigma = B(dRic sigma) + <sigma, Ric> g / 2 - Sc sigma / 2.
    """
    dric = dric_closed_jets(geom, sig)
    low = sig.truncate(dric.order)
    pairing = contract("kl,kl->", _raise_both(geom, low), geom.ric)
    return (bianchi_b(geom, dric) + 0.5 * contract(",ij->ij", pairing, geom.g)
            - 0.5 * contract(",ij->ij", geom.sc, low))


def dein_closed(chart: MetricChart, x, sigma) -> np.ndarray:
    """Closed-form dEin values at the points x (batched by chunks), from
    order-2 jets: dEin is second order, so these values are exact."""
    def values(xc):
        geom = geometry_from_jets(chart.metric_jets(xc, 2))
        return (dein_closed_jets(geom, sigma(xc, 2)).value,)

    return _by_chunks(values, np.asarray(x, dtype=float))[0]


def sample_connection(t_vals: np.ndarray, sigma_vals: np.ndarray,
                      ginv: np.ndarray) -> np.ndarray:
    """Fiberwise symmetric product (T o sigma + sigma o T) / 2, contracted
    through the inverse metric values ``ginv``."""
    prod1 = np.einsum("...ik,...kl,...lj->...ij", t_vals, ginv, sigma_vals)
    prod2 = np.einsum("...ik,...kl,...lj->...ij", sigma_vals, ginv, t_vals)
    return 0.5 * (prod1 + prod2)


def gamma_tilde_at(chart: MetricChart, x, sigma) -> np.ndarray:
    """Tensorial correction B^{-1}(dEin + conn term) - dRic, as values,
    from order-2 jets; the connection term is ``sample_connection`` of
    (Ein, sigma)."""
    geom = geometry_from_jets(chart.metric_jets(x, 2))
    sig = sigma(x, 2)
    dein = dein_closed_jets(geom, sig)
    conn = sample_connection(geom.ein.value, sig.value, geom.ginv.value)
    dein = dein + Jet.const(geom.dim, dein.order, conn)
    dric = dric_closed_jets(geom, sig)
    return (bianchi_b_inverse(geom, dein) - dric).value


# ---------------------------------------------------------------------------
# linearized boundary data (finite differences through the full pipeline)


def dboundary_data_fd(collar: CollarChart, y, sigma, eps: float = 1e-3):
    """Central differences of (A, H, nabla_n A) along g + t sigma, from
    order-3 jets: the value of nabla_n A reads the metric to order 3.

    All outputs are in boundary coordinates at the face points.
    """
    g = collar_metric_jets(collar, y, 3)
    sig = face_adapted_jets(collar, y, sigma, 3)

    def perturbed_data(t):
        return _boundary_data(
            geometry_from_jets(g + t * sig, curvature=False))[-1]

    ap, hp, mp = perturbed_data(+eps)
    am, hm, mm = perturbed_data(-eps)
    return ((ap - am) / (2 * eps), (hp - hm) / (2 * eps), (mp - mm) / (2 * eps))


# ---------------------------------------------------------------------------
# identity probes


def equivariance_residual(chart: MetricChart, x, x_field) -> float:
    """max |dRic(killing X) - Lie_X Ric / 2| over the batch.

    Lie_X Ric reads one derivative of Ric and of X, so the geometry is
    built from order-3 jets and X from order-1 jets."""
    geom = geometry_from_jets(chart.metric_jets(x, 3))

    def sigma(xq, order):
        g = geometry_from_jets(chart.metric_jets(xq, order + 1),
                               curvature=False)
        return killing(g, x_field(xq, order + 1)).truncate(order)

    lhs = dric_closed(chart, x, sigma)
    lie = lie_derivative_sym2(x_field(x, 1), geom.ric).value
    return float(np.max(np.abs(lhs - 0.5 * lie)))


def gauge_divergence_jets(geom: Geometry, sig: Jet) -> Jet:
    """delta B dRic sigma as vector jets (first-order content probe)."""
    dric = dric_closed_jets(geom, sig)
    return divergence(geom, bianchi_b(geom, dric))


def first_order_dependence_residual(chart: MetricChart, x, sigma1,
                                    sigma2) -> float:
    """|delta B dRic (sigma1 - sigma2)| at x for 1-jet-matched fields,
    from order-3 jets: delta reads one derivative of dRic."""
    geom = geometry_from_jets(chart.metric_jets(x, 3))
    s1 = sigma1(x, 3)
    s2 = sigma2(x, 3)
    x = np.atleast_2d(x)
    if np.max(np.abs(s1.value - s2.value)) > 1e-10:
        raise ValueError("fields do not share the 0-jet at x")
    g1 = gauge_divergence_jets(geom, s1)
    g2 = gauge_divergence_jets(geom, s2)
    return float(np.max(np.abs((g1 - g2).value)))


def normal_identity_residuals(collar: CollarChart, y, sigma):
    """Normal-trace identities of the gauged linearized operator on
    Ricci-flat collars.

    sigma must vanish to second order on the face (its value and first
    normal derivative are checked; otherwise ``ValueError``).  Then the
    normal component of T = dEin sigma vanishes on the face (r1).  The
    first normal trace (r2) equals -div(T^tan) by the linearized
    contracted Bianchi identity, which is nonzero whenever T varies along
    the face; it vanishes once sigma vanishes to order three, since T is
    then zero on the face (see DECISIONS.md, "first normal trace at order
    two").  The second normal derivative's normal part equals the
    boundary divergence of the tangential part of the first (r3).
    Returns (r1, r2, r3) max-norms: r1 = |T(n, .)|, r2 = |(nabla_n T)(n, .)|
    and r3 the defect of the second-order identity.  The values of T,
    nabla_n T and nabla_n nabla_n T read sigma and g to order 4.
    """
    if not collar.chart.ricci_flat:
        raise ValueError("normal identity probes need a Ricci-flat preset")
    if collar.face == 1:
        raise ValueError("probe implemented on the lower face")
    d = collar.dim
    order = 4
    g = collar_metric_jets(collar, y, order)
    geom = geometry_from_jets(g)
    sig = face_adapted_jets(collar, y, sigma, order)

    if max(np.max(np.abs(sig.value)),
           np.max(np.abs(sig.partial(d - 1).value))) > 1e-9:
        raise ValueError("sigma does not vanish to second order")

    T = dein_closed_jets(geom, sig)
    _, nvec = normal_field(geom)

    def normal_component(Sjets):
        return np.einsum("...ij,...i->...j", Sjets.value, nvec.value)

    T1 = normal_derivative(geom, nvec, T)
    T2 = normal_derivative(geom, nvec, T1)

    r1 = float(np.max(np.abs(normal_component(T))))
    r2 = float(np.max(np.abs(normal_component(T1))))

    # boundary divergence of the tangential block of T1, in the intrinsic
    # boundary geometry
    bgeom = geometry_from_jets(face_restriction(g), curvature=False)
    div_t1 = boundary_divergence(bgeom, face_restriction(T1))
    pn_t2 = normal_component(T2)[..., : d - 1]
    r3 = float(np.max(np.abs(pn_t2 - div_t1.value)))
    return r1, r2, r3


# ---------------------------------------------------------------------------
# convention pinning and convergence helpers


def fit_ricci_action(charts):
    """Grid-search the curvature-action coefficients against the FD oracle,
    at 4 random points per chart.

    Richardson extrapolation of the central difference gives an oracle with
    error well below the separation between grid candidates.  Returns
    ((a, b), defect) of the winner; raises if no candidate reaches 1e-5.
    """
    seed = 5
    rng = np.random.default_rng(seed)
    best = None
    cases = []
    for chart in charts:
        x = np.stack([rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo),
                                  size=4)
                      for lo, hi in chart.domain], axis=-1)
        sigma = trig_poly_sym_field(chart.dim, seed + chart.dim)
        eps = 1e-3
        f1 = dric_fd(chart, x, sigma, eps)
        f2 = dric_fd(chart, x, sigma, eps / 2)
        oracle = (4.0 * f2 - f1) / 3.0
        geom = geometry_from_jets(chart.metric_jets(x, 2))
        parts = dric_parts_jets(geom, sigma(x, 2))
        cases.append(tuple(p.value for p in parts) + (oracle,))
    for a in (-2, -1, 1, 2):
        for b in (-2, -1, 1, 2):
            worst = 0.0
            for base, comp, curv, oracle in cases:
                got = base + 0.5 * (a * comp + b * curv)
                worst = max(worst, float(np.max(np.abs(got - oracle))))
            if best is None or worst < best[1]:
                best = ((a, b), worst)
    if best[1] > 1e-5:
        raise RuntimeError(
            f"no curvature-action candidate reaches tolerance: best {best}")
    return best


def richardson_slope(chart: MetricChart, x, sigma) -> float:
    """Observed order of the FD error against the closed route, from the
    steps 1e-2 and 5e-3."""
    eps_list = (1e-2, 5e-3)
    ref = dric_closed(chart, x, sigma)
    errs = [float(np.max(np.abs(dric_fd(chart, x, sigma, e) - ref)))
            for e in eps_list]
    return float(np.log(errs[0] / errs[1])
                 / np.log(eps_list[0] / eps_list[1]))
