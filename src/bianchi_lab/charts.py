"""Preset metric charts and jet-exact first-order differential geometry.

A MetricChart names a metric on a coordinate box and evaluates its
components to jets at (batches of) points.  The geometry engine below works
on any metric-jet provider, so perturbed metrics g + t*sigma reuse the same
code paths.  Tensor components are stored in object ndarrays of Jets with
lower indices; the last chart axis is the collar/normal direction wherever
boundary semantics matter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import KmCovector
from .jets import Jet, jet_matrix_inverse

__all__ = [
    "MetricChart",
    "make_chart",
    "Geometry",
    "geometry_from_jets",
    "chart_geometry",
    "christoffel_at",
    "curvature_at",
    "rm_covector",
    "nabla",
    "divergence",
    "killing",
    "lie_derivative_sym2",
    "bianchi_b",
    "bianchi_b_inverse",
    "trace_sym2",
    "dewitt_inner",
    "sym_values",
    "tensor_values",
    "orthonormal_frame",
    "sample_points",
    "positive_definite_audit",
    "PRESETS",
]

PRESETS = ("flat_cartesian", "flat_slab_periodic", "polar_ball",
           "conformal_bump", "curved_generic")

FLAT_PRESETS = ("flat_cartesian", "flat_slab_periodic", "polar_ball")


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class MetricChart:
    preset: str
    dim: int
    params: tuple  # sorted (key, value) pairs
    domain: tuple  # per-axis (lo, hi)
    periodic: tuple  # per-axis bool

    @property
    def param_dict(self) -> dict:
        return dict(self.params)

    @property
    def ricci_flat(self) -> bool:
        return self.preset in FLAT_PRESETS

    def metric_jets(self, x, order: int):
        """d x d object array of Jets for g_ij at points x (last axis dim)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError("point dimension mismatch")
        self._check_domain(x)
        return _METRIC_BUILDERS[self.preset](self, x, order)

    def _check_domain(self, x):
        for a, (lo, hi) in enumerate(self.domain):
            xa = x[..., a]
            if self.periodic[a]:
                continue
            slack = 1e-4 * (hi - lo)  # finite-difference probes may graze
            if np.any(xa < lo - slack) or np.any(xa > hi + slack):
                raise ValueError(f"point outside chart domain on axis {a}")


def make_chart(preset: str, dim: int, **params) -> MetricChart:
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    if not 3 <= dim <= 6:
        raise ValueError("dim must be between 3 and 6")
    defaults: dict = {}
    if preset == "polar_ball":
        defaults = {"radius": 2.0}
        domain = tuple([(0.8, 2.2)] * (dim - 2) + [(0.0, 1.2), (0.0, 1.0)])
        periodic = (False,) * dim
    elif preset == "conformal_bump":
        defaults = {"amp": 0.08, "freq": 1, "centers": None,
                    "profile": (1.0, 0.5, -0.25)}
        domain = tuple([(0.0, 1.0)] * dim)
        periodic = (True,) * (dim - 1) + (False,)
    elif preset == "curved_generic":
        defaults = {"amp": 0.05, "seed": 7, "nmodes": 3}
        domain = tuple([(0.0, 1.0)] * dim)
        periodic = (True,) * (dim - 1) + (False,)
    else:
        domain = tuple([(0.0, 1.0)] * dim)
        periodic = ((True,) * (dim - 1) + (False,)
                    if preset == "flat_slab_periodic" else (False,) * dim)
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown params for {preset}: {sorted(unknown)}")
    merged = {**defaults, **params}
    if preset == "curved_generic":
        merged["modes"] = _generic_modes(dim, merged["seed"], merged["nmodes"],
                                         merged["amp"])
    if preset == "conformal_bump" and merged["centers"] is None:
        merged["centers"] = tuple(0.15 + 0.1 * a for a in range(dim - 1))
    merged = {k: (tuple(map(tuple, v)) if isinstance(v, list) else v)
              for k, v in merged.items()}
    return MetricChart(preset, dim, tuple(sorted(merged.items(),
                                                 key=lambda kv: kv[0])),
                       domain, periodic)


def _obj_array(shape):
    return np.empty(shape, dtype=object)


def _metric_flat(chart: MetricChart, x, order: int):
    d = chart.dim
    base = np.zeros(x.shape[:-1])
    g = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            g[i, j] = Jet.const(d, order, base + (1.0 if i == j else 0.0))
    return g


def _metric_polar_ball(chart: MetricChart, x, order: int):
    """Flat metric in spherical coordinates (angles..., u), r = R - u."""
    d = chart.dim
    R = chart.param_dict["radius"]
    xs = Jet.variables(x, order)
    r = R - xs[-1]
    zero = Jet.const(d, order, np.zeros(x.shape[:-1]))
    g = _obj_array((d, d))
    g[:] = zero
    angular = r * r
    for i in range(d - 1):
        g[i, i] = angular
        if i < d - 2:
            s = xs[i].sin()
            angular = angular * (s * s)
    g[d - 1, d - 1] = Jet.const(d, order, np.ones(x.shape[:-1]))
    return g


def _metric_conformal(chart: MetricChart, x, order: int):
    d = chart.dim
    p = chart.param_dict
    xs = Jet.variables(x, order)
    phi = Jet.const(d, order, np.full(x.shape[:-1], p["amp"]))
    for a in range(d - 1):
        phi = phi * ((xs[a] - p["centers"][a]) * (2 * np.pi * p["freq"])).cos()
    prof = Jet.const(d, order, np.zeros(x.shape[:-1]))
    for k, ck in enumerate(p["profile"]):
        prof = prof + ck * xs[-1] ** k
    phi = phi * prof
    conf = (2.0 * phi).exp()
    zero = Jet.const(d, order, np.zeros(x.shape[:-1]))
    g = _obj_array((d, d))
    g[:] = zero
    for i in range(d):
        g[i, i] = conf
    return g


def _generic_modes(dim, seed, nmodes, amp):
    rng = np.random.default_rng(seed)
    modes = []
    for _ in range(nmodes):
        coef = rng.standard_normal((dim, dim))
        coef = 0.5 * (coef + coef.T)
        coef *= amp / (nmodes * max(1.0, np.abs(coef).sum(axis=1).max()))
        ks = rng.integers(0, 2, size=dim - 1)
        phases = rng.uniform(0, 2 * np.pi, size=dim - 1)
        poly = rng.uniform(-1, 1, size=3)
        modes.append((tuple(map(tuple, coef)), tuple(int(k) for k in ks),
                      tuple(phases), tuple(poly)))
    return tuple(modes)


def _metric_curved_generic(chart: MetricChart, x, order: int):
    d = chart.dim
    modes = chart.param_dict["modes"]
    xs = Jet.variables(x, order)
    g = _obj_array((d, d))
    base = np.zeros(x.shape[:-1])
    for i in range(d):
        for j in range(d):
            g[i, j] = Jet.const(d, order, base + (1.0 if i == j else 0.0))
    for coef, ks, phases, poly in modes:
        bump = Jet.const(d, order, np.ones(x.shape[:-1]))
        for a in range(d - 1):
            bump = bump * (xs[a] * (2 * np.pi * ks[a]) + phases[a]).cos()
        prof = poly[0] + poly[1] * xs[-1] + poly[2] * xs[-1] ** 2
        bump = bump * prof
        for i in range(d):
            for j in range(d):
                if coef[i][j]:
                    g[i, j] = g[i, j] + coef[i][j] * bump
    return g


_METRIC_BUILDERS = {
    "flat_cartesian": _metric_flat,
    "flat_slab_periodic": _metric_flat,
    "polar_ball": _metric_polar_ball,
    "conformal_bump": _metric_conformal,
    "curved_generic": _metric_curved_generic,
}


def sample_points(chart: MetricChart, n: int, rng: np.random.Generator,
                  margin: float = 0.05) -> np.ndarray:
    pts = np.empty((n, chart.dim))
    for a, (lo, hi) in enumerate(chart.domain):
        pad = (hi - lo) * margin
        pts[:, a] = rng.uniform(lo + pad, hi - pad, size=n)
    return pts


def positive_definite_audit(chart: MetricChart, n: int,
                            rng: np.random.Generator) -> float:
    """Smallest metric eigenvalue over n sample points (must be > 0)."""
    pts = sample_points(chart, n, rng, margin=0.0)
    g = sym_values(chart.metric_jets(pts, order=0))
    return float(np.linalg.eigvalsh(g).min())


# ---------------------------------------------------------------------------
# geometry engine


@dataclass
class Geometry:
    dim: int
    order: int
    g: np.ndarray          # (d,d) object array of Jets, order p
    ginv: np.ndarray       # order p
    gamma: np.ndarray      # (d,d,d) Gamma^k_[ij], order p-1
    riem: np.ndarray | None = None   # (d,d,d,d) lower Riem_{ijkl}, order p-2
    ric: np.ndarray | None = None    # (d,d), order p-2
    sc: Jet | None = None
    ein: np.ndarray | None = None


def geometry_from_jets(g: np.ndarray, curvature: bool = True) -> Geometry:
    """Christoffel symbols and (optionally) curvature from metric jets."""
    d = g.shape[0]
    order = g[0, 0].order
    ginv_ll = jet_matrix_inverse([[g[i, j] for j in range(d)] for i in range(d)])
    ginv = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            ginv[i, j] = ginv_ll[i][j]

    dg = _obj_array((d, d, d))  # dg[a,i,j] = d_a g_ij
    for a in range(d):
        for i in range(d):
            for j in range(i, d):
                dg[a, i, j] = dg[a, j, i] = g[i, j].partial(a)

    ginv1 = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            ginv1[i, j] = ginv[i, j].truncate(order - 1)

    gamma = _obj_array((d, d, d))  # gamma[k,i,j] = Gamma^k_ij
    for k in range(d):
        for i in range(d):
            for j in range(i, d):
                acc = None
                for l in range(d):
                    term = ginv1[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    acc = term if acc is None else acc + term
                gamma[k, i, j] = gamma[k, j, i] = 0.5 * acc

    geom = Geometry(dim=d, order=order, g=g, ginv=ginv, gamma=gamma)
    if not curvature:
        return geom

    dgamma = _obj_array((d, d, d, d))  # dgamma[a,k,i,j] = d_a Gamma^k_ij
    for a in range(d):
        for k in range(d):
            for i in range(d):
                for j in range(i, d):
                    dgamma[a, k, i, j] = dgamma[a, k, j, i] = \
                        gamma[k, i, j].partial(a)

    o2 = order - 2
    gam2 = _obj_array((d, d, d))
    for idx in np.ndindex(d, d, d):
        gam2[idx] = gamma[idx].truncate(o2)

    # R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik
    #            + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    rup = _obj_array((d, d, d, d))  # rup[l,k,i,j]
    for l in range(d):
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    if j < i:
                        continue
                    acc = dgamma[i, l, j, k] - dgamma[j, l, i, k]
                    for m in range(d):
                        acc = acc + gam2[l, i, m] * gam2[m, j, k]
                        acc = acc - gam2[l, j, m] * gam2[m, i, k]
                    rup[l, k, i, j] = acc
                    rup[l, k, j, i] = -acc

    g2 = _obj_array((d, d))
    ginv2 = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            g2[i, j] = g[i, j].truncate(o2)
            ginv2[i, j] = ginv[i, j].truncate(o2)

    riem = _obj_array((d, d, d, d))  # Riem_{ijkl} = g_{lm} R^m_{kij}
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    acc = None
                    for m in range(d):
                        term = g2[l, m] * rup[m, k, i, j]
                        acc = term if acc is None else acc + term
                    riem[i, j, k, l] = acc

    ric = _obj_array((d, d))  # Ric_jk = sum_i R^i_{kij}
    for j in range(d):
        for k in range(j, d):
            acc = None
            for i in range(d):
                term = rup[i, k, i, j]
                acc = term if acc is None else acc + term
            ric[j, k] = ric[k, j] = acc

    sc = None
    for j in range(d):
        for k in range(d):
            term = ginv2[j, k] * ric[j, k]
            sc = term if sc is None else sc + term

    ein = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            ein[i, j] = ric[i, j] - 0.5 * (sc * g2[i, j])

    geom.riem, geom.ric, geom.sc, geom.ein = riem, ric, sc, ein
    return geom


def chart_geometry(chart: MetricChart, x, order: int = 4,
                   curvature: bool = True) -> Geometry:
    return geometry_from_jets(chart.metric_jets(x, order), curvature)


# ---------------------------------------------------------------------------
# value extraction and frames


def tensor_values(T: np.ndarray) -> np.ndarray:
    """Object array of Jets -> float array with tensor axes trailing."""
    flat = T.reshape(-1)
    vals = [np.asarray(j.value) for j in flat]
    shape = np.broadcast_shapes(*[v.shape for v in vals])
    out = np.empty(shape + T.shape)
    for idx, j in np.ndenumerate(T):
        out[(...,) + idx] = np.broadcast_to(np.asarray(j.value), shape)
    return out


sym_values = tensor_values


def orthonormal_frame(gvals: np.ndarray) -> np.ndarray:
    """Rows L[a] with L g L^T = I via Cholesky; deterministic column order."""
    C = np.linalg.cholesky(gvals)
    return np.linalg.inv(C)


# ---------------------------------------------------------------------------
# pointwise operations on jets


def nabla(geom: Geometry, T: np.ndarray, order_drop: int = 1) -> np.ndarray:
    """Covariant derivative of a (0, r) tensor of jets.

    Returns object array with the derivative index first:
    (nabla T)_{k,i1..ir} = d_k T - sum_s Gamma^l_{k i_s} T[.. l ..].
    """
    r = T.ndim
    d = geom.dim
    o = T.flat[0].order - 1
    gam = _obj_array((d, d, d))
    for idx in np.ndindex(d, d, d):
        gam[idx] = geom.gamma[idx].truncate(o) if geom.gamma[idx].order > o \
            else geom.gamma[idx]
    out = _obj_array((d,) + T.shape)
    for k in range(d):
        for idx in np.ndindex(*T.shape):
            acc = T[idx].partial(k)
            for s in range(r):
                for l in range(d):
                    lidx = idx[:s] + (l,) + idx[s + 1:]
                    acc = acc - gam[l, k, idx[s]] * T[lidx]
            out[(k,) + idx] = acc
    return out


def trace_sym2(geom: Geometry, sigma: np.ndarray, order: int | None = None) -> Jet:
    d = geom.dim
    o = order if order is not None else sigma[0, 0].order
    acc = None
    for i in range(d):
        for j in range(d):
            term = geom.ginv[i, j].truncate(o) * sigma[i, j].truncate(o)
            acc = term if acc is None else acc + term
    return acc


def bianchi_b(geom: Geometry, sigma: np.ndarray) -> np.ndarray:
    """Trace reversal B sigma = sigma - (tr sigma / 2) g on jets."""
    d = geom.dim
    o = sigma[0, 0].order
    t = trace_sym2(geom, sigma, o)
    out = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = sigma[i, j] - 0.5 * (t * geom.g[i, j].truncate(o))
    return out


def bianchi_b_inverse(geom: Geometry, tau: np.ndarray) -> np.ndarray:
    d = geom.dim
    if d == 2:
        raise ValueError("B_g is not invertible in dimension 2")
    o = tau[0, 0].order
    t = trace_sym2(geom, tau, o)
    out = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = tau[i, j] - (1.0 / (d - 2)) * (t * geom.g[i, j].truncate(o))
    return out


def divergence(geom: Geometry, sigma: np.ndarray) -> np.ndarray:
    """delta sigma = -tr_g(nabla sigma) as a vector of jets (raised index)."""
    d = geom.dim
    ns = nabla(geom, sigma)
    o = ns.flat[0].order
    cov = _obj_array((d,))
    for j in range(d):
        acc = None
        for k in range(d):
            for i in range(d):
                term = geom.ginv[k, i].truncate(o) * ns[k, i, j]
                acc = term if acc is None else acc + term
        cov[j] = -acc
    out = _obj_array((d,))
    for m in range(d):
        acc = None
        for j in range(d):
            term = geom.ginv[m, j].truncate(o) * cov[j]
            acc = term if acc is None else acc + term
        out[m] = acc
    return out


def killing(geom: Geometry, X: np.ndarray) -> np.ndarray:
    """delta* X = sym(nabla X-flat) on jets; X has raised components."""
    d = geom.dim
    o = X[0].order
    xflat = _obj_array((d,))
    for j in range(d):
        acc = None
        for k in range(d):
            term = geom.g[j, k].truncate(o) * X[k]
            acc = term if acc is None else acc + term
        xflat[j] = acc
    nx = nabla(geom, xflat)
    out = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = 0.5 * (nx[i, j] + nx[j, i])
    return out


def lie_derivative_sym2(X: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Coordinate Lie derivative of a (0,2) tensor along X (raised)."""
    d = X.shape[0]
    out = _obj_array((d, d))
    for i in range(d):
        for j in range(d):
            acc = None
            for k in range(d):
                term = (X[k].truncate(X[k].order - 1) * T[i, j].partial(k)
                        + T[k, j].truncate(T[k, j].order - 1) * X[k].partial(i)
                        + T[i, k].truncate(T[i, k].order - 1) * X[k].partial(j))
                acc = term if acc is None else acc + term
            out[i, j] = acc
    return out


def dewitt_inner(sigma: np.ndarray, eta: np.ndarray, gvals: np.ndarray):
    """Pointwise DeWitt pairing <sigma,eta> - (tr sigma)(tr eta)/2 on values."""
    ginv = np.linalg.inv(gvals)
    full = np.einsum("...ij,...kl,...ik,...jl->...", sigma, eta, ginv, ginv)
    tr_s = np.einsum("...ij,...ij->...", ginv, sigma)
    tr_e = np.einsum("...ij,...ij->...", ginv, eta)
    return full - 0.5 * tr_s * tr_e


# ---------------------------------------------------------------------------
# chart-level convenience wrappers


def christoffel_at(chart: MetricChart, x) -> np.ndarray:
    """Christoffel values Gamma^k_ij, batched (..., k, i, j)."""
    geom = chart_geometry(chart, x, order=2, curvature=False)
    return tensor_values(geom.gamma)


def curvature_at(chart: MetricChart, x, order: int = 4):
    """Geometry with curvature plus plain-value views.

    Returns (geom, rm_values, ric_values, sc_values, ein_values, frame)
    where rm_values are lower Riemann components in the coordinate frame
    and frame rows give the Gram-Schmidt orthonormal frame.
    """
    geom = chart_geometry(chart, x, order=order)
    gvals = sym_values(geom.g)
    frame = orthonormal_frame(gvals)
    return (geom, tensor_values(geom.riem), tensor_values(geom.ric),
            np.asarray(geom.sc.value), tensor_values(geom.ein), frame)


def rm_covector(riem_vals: np.ndarray, frame: np.ndarray,
                point_index=()) -> KmCovector:
    """Riemann values at one point as a Bianchi (2,2)-covector.

    Components are pushed to the orthonormal frame; the coefficient on
    (theta^a^theta^b) x (theta^c^theta^e) is Riem(E_a,E_b,E_c,E_e).
    """
    L = frame[point_index]
    R = riem_vals[point_index]
    d = L.shape[0]
    Rf = np.einsum("ai,bj,ck,el,ijkl->abce", L, L, L, L, R)
    out = KmCovector.zero(d, 2, 2)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for ii, (a, b) in enumerate(pairs):
        for jj, (c, e) in enumerate(pairs):
            out.coeffs[ii, jj] = Rf[a, b, c, e]
    return out


def sym_to_frame(sym_vals: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Push a (0,2) tensor to the orthonormal frame: S_ab = L_a^i L_b^j S_ij."""
    return np.einsum("...ai,...bj,...ij->...ab", frame, frame, sym_vals)
