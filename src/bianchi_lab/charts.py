"""Preset metric charts and jet-exact first-order differential geometry.

A MetricChart names a metric on a coordinate box and evaluates it to a
tensor jet at (batches of) points.  The geometry engine below works on any
metric-jet provider, so perturbed metrics g + t*sigma reuse the same code
paths.  A tensor field is one Jet with batch axes, then tensor axes (lower
indices unless noted), then coefficients, so ``T.value`` is the plain
tensor at every point; every index sum is one ``jets.contract``.
Operators that take a Geometry (``nabla`` and the ones built on it) read a
field's tensor rank off its axes beyond the geometry's batch axes, so a
field shares the batch shape of its geometry.  The last chart axis is the
collar/normal direction wherever boundary semantics matter.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .algebra import KmCovector
from .jets import (
    Jet,
    contract,
    cos_coeffs,
    jet_matrix_inverse,
    poly_coeffs,
    separable,
    series_mul,
    sin_coeffs,
)

__all__ = [
    "MetricChart",
    "make_chart",
    "Geometry",
    "geometry_from_jets",
    "chart_geometry",
    "rm_covector",
    "nabla",
    "divergence",
    "killing",
    "lie_derivative_sym2",
    "bianchi_b",
    "bianchi_b_inverse",
    "trace_sym2",
    "dewitt_inner",
    "tensor_values",
    "sym_from_upper",
    "orthonormal_frame",
    "sample_points",
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
        """Tensor jet of g_ij at points x (last axis = dim)."""
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


def _metric_flat(chart: MetricChart, x, order: int):
    d = chart.dim
    return Jet.const(d, order, np.broadcast_to(np.eye(d),
                                               x.shape[:-1] + (d, d)))


def _metric_polar_ball(chart: MetricChart, x, order: int):
    """Flat metric in spherical coordinates (angles..., u), r = R - u:
    diag(r^2, r^2 sin^2 x_0, ..., r^2 prod_{a < d-2} sin^2 x_a, 1), each
    entry a separable jet."""
    d = chart.dim
    R = chart.param_dict["radius"]
    unit = np.eye(1, order + 1)[0]
    entry = np.arange(d)[:, None]  # diagonal entry e
    factors = {}
    for a in range(d - 2):  # sin^2 x_a in the entries a < e < d - 1
        s = sin_coeffs(1.0, x[..., None, a], order)
        factors[a] = np.where((a < entry) & (entry < d - 1),
                              series_mul(s, s), unit)
    radial = np.where(entry < d - 1, (R * R, -2.0 * R, 1.0), (1.0, 0.0, 0.0))
    factors[d - 1] = poly_coeffs(x[..., None, -1], radial, order)
    return separable(d, order, factors)[..., None] * np.eye(d)


def _metric_conformal(chart: MetricChart, x, order: int):
    """e^{2 phi} delta with phi = amp prod_{a < d-1} cos(2 pi freq
    (x_a - c_a)) prof(x_d); phi is a separable jet."""
    d = chart.dim
    p = chart.param_dict
    w = 2 * np.pi * p["freq"]
    factors = {a: cos_coeffs(w, w * (x[..., a] - p["centers"][a]), order)
               for a in range(d - 1)}
    factors[d - 1] = poly_coeffs(x[..., -1],
                                 2.0 * p["amp"] * np.array(p["profile"]),
                                 order)
    conf = separable(d, order, factors).exp()
    return conf[..., None, None] * np.eye(d)


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
    """delta + sum_m bump_m coef_m, with the separable mode bumps
    bump_m = prod_{a < d-1} cos(2 pi ks_ma x_a + phase_ma) poly_m(x_d)."""
    d = chart.dim
    coef, ks, phases, poly = (np.array(v, dtype=float) for v in
                              zip(*chart.param_dict["modes"]))
    x = x[..., None, :]  # modes broadcast
    w = 2 * np.pi * ks
    factors = {a: cos_coeffs(w[:, a], w[:, a] * x[..., a] + phases[:, a],
                             order) for a in range(d - 1)}
    factors[d - 1] = poly_coeffs(x[..., -1], poly, order)
    c = np.einsum("...mk,mij->...ijk", separable(d, order, factors).c, coef)
    c[..., 0] += np.eye(d)
    return Jet(d, order, c)


_METRIC_BUILDERS = {
    "flat_cartesian": _metric_flat,
    "flat_slab_periodic": _metric_flat,
    "polar_ball": _metric_polar_ball,
    "conformal_bump": _metric_conformal,
    "curved_generic": _metric_curved_generic,
}


#: Points per jet evaluation in ``_by_chunks``: the jets of a chunk take a
#: few MB however many points there are.
_CHUNK = 2048


def _chunk_workers() -> int:
    """The most chunks ``_by_chunks`` evaluates at once: the CPUs this
    thread may run on (all of them where the platform has no affinity)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _by_chunks(fn, x) -> list:
    """A pointwise fn(x) on row chunks of the points x: each array it
    returns, concatenated over the chunks.

    The chunks run concurrently on a thread pool of ``_chunk_workers()``
    threads, at most one per chunk; a single chunk, or a single CPU, runs
    in the calling thread.  Jet work is numpy calls that release the GIL,
    so the threads overlap.  The results are concatenated in chunk order,
    so every value is bit-identical to the sequential map.  About one
    chunk's jets per worker are live at once: workers x ``_CHUNK`` rows,
    4096 rows on two CPUs.
    """
    step = _CHUNK
    starts = range(0, len(x), step)
    workers = min(_chunk_workers(), len(starts))
    if workers <= 1:
        parts = [fn(x[lo:lo + step]) for lo in starts]
    else:
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(lambda lo: fn(x[lo:lo + step]), starts))
    return [np.concatenate(arrays) for arrays in zip(*parts)]


def sample_points(chart: MetricChart, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """n uniform points of the chart's box, 5% of each side in from its
    ends."""
    pts = np.empty((n, chart.dim))
    for a, (lo, hi) in enumerate(chart.domain):
        pad = (hi - lo) * 0.05
        pts[:, a] = rng.uniform(lo + pad, hi - pad, size=n)
    return pts


# ---------------------------------------------------------------------------
# geometry engine


@dataclass
class Geometry:
    dim: int
    order: int
    g: Jet                 # (..., d, d) g_ij, order p
    ginv: Jet              # g^ij, order p
    gamma: Jet             # (..., d, d, d) Gamma^k_ij, order p-1
    riem: Jet | None = None   # (..., d, d, d, d) lower Riem_ijkl, order p-2
    ric: Jet | None = None    # (..., d, d), order p-2
    sc: Jet | None = None
    ein: Jet | None = None


def _christoffel(g: Jet, ginv: Jet) -> Jet:
    """Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    dg = g.grad()  # dg[i, j, a] = d_a g_ij
    first = contract("jli->lij", dg) + contract("ilj->lij", dg)
    first.c -= contract("ijl->lij", dg).c  # in place: d^3 jets
    del dg
    return contract("kl,lij->kij", 0.5 * ginv, first)


def _riemann_up(gamma: Jet) -> Jet:
    """R^l_{kij} = d_i Gamma^l_jk - d_j Gamma^l_ik
                  + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik."""
    low = gamma.truncate(gamma.order - 1)
    half = contract("lim,mjk->lkij", low, low)
    half.c += contract("ljki->lkij", gamma.grad()).c  # in place: d^4 jets
    return half - contract("lkji->lkij", half)


def geometry_from_jets(g: Jet, curvature: bool = True) -> Geometry:
    """Christoffel symbols and (optionally) curvature from metric jets."""
    ginv = jet_matrix_inverse(g)
    geom = Geometry(dim=g.c.shape[-2], order=g.order, g=g, ginv=ginv,
                    gamma=_christoffel(g, ginv))
    if not curvature:
        return geom
    rup = _riemann_up(geom.gamma)
    geom.riem = contract("lm,mkij->ijkl", g, rup)  # g_{lm} R^m_{kij}
    geom.ric = contract("ikij->jk", rup)           # sum_i R^i_{kij}
    geom.sc = contract("jk,jk->", ginv, geom.ric)
    geom.ein = geom.ric - 0.5 * contract(",ij->ij", geom.sc, g)
    return geom


def chart_geometry(chart: MetricChart, x, order: int) -> Geometry:
    """The geometry, curvature included, of the chart's metric jets."""
    return geometry_from_jets(chart.metric_jets(x, order))


# ---------------------------------------------------------------------------
# value extraction and frames


def tensor_values(T: Jet) -> np.ndarray:
    """Plain values of a tensor jet, tensor axes trailing (``T.value``)."""
    return T.value


def sym_from_upper(T: Jet, d: int) -> Jet:
    """The symmetric (d, d) tensor jet whose upper triangle is T's last
    tensor axis, in ``np.triu_indices(d)`` order."""
    pos = np.zeros((d, d), dtype=np.intp)
    pos[np.triu_indices(d)] = np.arange(d * (d + 1) // 2)
    return Jet(T.dim, T.order, T.c[..., pos + np.triu(pos, 1).T, :])


def orthonormal_frame(gvals: np.ndarray) -> np.ndarray:
    """Rows L[a] with L g L^T = I via Cholesky; deterministic column order."""
    C = np.linalg.cholesky(gvals)
    return np.linalg.inv(C)


# ---------------------------------------------------------------------------
# pointwise operations on jets


def _rank(geom: Geometry, T: Jet) -> int:
    """Tensor rank of a field that shares the geometry's batch axes."""
    return T.c.ndim - geom.g.c.ndim + 2


def nabla(geom: Geometry, T: Jet) -> Jet:
    """Covariant derivative of a (0, r) tensor jet, one order lower.

    The derivative index comes first:
    (nabla T)_{k,i1..ir} = d_k T - sum_s Gamma^l_{k i_s} T[.. l ..].
    """
    idx = "abcdefgh"[:_rank(geom, T)]
    dT = contract(f"{idx}k->k{idx}", T.grad())
    # one contiguous copy, the layout an out-of-place difference has, then
    # every Christoffel term is subtracted in place
    order = min(dT.order, geom.gamma.order)
    out = Jet(T.dim, order, np.ascontiguousarray(dT.truncate(order).c))
    low = T.truncate(order)
    for s, i in enumerate(idx):
        moved = idx[:s] + "l" + idx[s + 1:]
        out.c -= contract(f"lk{i},{moved}->k{idx}", geom.gamma, low).c
    return out


def trace_sym2(geom: Geometry, sigma: Jet) -> Jet:
    return contract("ij,ij->", geom.ginv, sigma)


def bianchi_b(geom: Geometry, sigma: Jet) -> Jet:
    """Trace reversal B sigma = sigma - (tr sigma / 2) g on jets."""
    return sigma - 0.5 * contract(",ij->ij", trace_sym2(geom, sigma), geom.g)


def bianchi_b_inverse(geom: Geometry, tau: Jet) -> Jet:
    d = geom.dim
    if d == 2:
        raise ValueError("B_g is not invertible in dimension 2")
    return tau - (1.0 / (d - 2)) * contract(",ij->ij", trace_sym2(geom, tau),
                                            geom.g)


def divergence(geom: Geometry, sigma: Jet) -> Jet:
    """delta sigma = -tr_g(nabla sigma) as a vector jet (raised index)."""
    cov = contract("ki,kij->j", geom.ginv, nabla(geom, sigma))
    return -contract("mj,j->m", geom.ginv, cov)


def killing(geom: Geometry, X: Jet) -> Jet:
    """delta* X = sym(nabla X-flat) on jets; X has raised components."""
    nx = nabla(geom, contract("jk,k->j", geom.g, X))
    return 0.5 * (nx + contract("ji->ij", nx))


def lie_derivative_sym2(X: Jet, T: Jet) -> Jet:
    """Coordinate Lie derivative of a (0,2) tensor along X (raised)."""
    dX = X.grad()  # dX[k, i] = d_i X^k
    return (contract("k,ijk->ij", X, T.grad())
            + contract("kj,ki->ij", T, dX) + contract("ik,kj->ij", T, dX))


def _pair(a: np.ndarray, b: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """<a, b>_g = g^{ik} g^{jl} a_ij b_kl on values: M = (g^-1)^T a g^-1
    by two batched matmuls, then sum_kl M_kl b_kl."""
    M = np.matmul(np.matmul(np.swapaxes(ginv, -1, -2), a), ginv)
    return np.einsum("...kl,...kl->...", M, b)


def dewitt_inner(sigma: np.ndarray, eta: np.ndarray, ginv: np.ndarray):
    """Pointwise DeWitt pairing <sigma,eta> - (tr sigma)(tr eta)/2 on values,
    through the inverse metric values ``ginv``.

    <sigma, eta> is averaged over the order of its arguments, so that the
    pairing is symmetric in sigma and eta to the last bit.
    """
    full = 0.5 * (_pair(sigma, eta, ginv) + _pair(eta, sigma, ginv))
    tr_s = np.einsum("...ij,...ij->...", ginv, sigma)
    tr_e = np.einsum("...ij,...ij->...", ginv, eta)
    return full - 0.5 * tr_s * tr_e


def rm_covector(riem_vals: np.ndarray, frame: np.ndarray) -> KmCovector:
    """Riemann values as Bianchi (2,2)-covectors, batched like the values.

    Components are pushed to the orthonormal frame; the coefficient on
    (theta^a^theta^b) x (theta^c^theta^e) is Riem(E_a,E_b,E_c,E_e).
    """
    d = frame.shape[-1]
    Rf = np.einsum("...ai,...bj,...ck,...el,...ijkl->...abce",
                   frame, frame, frame, frame, riem_vals, optimize=True)
    a, b = np.triu_indices(d, 1)  # the increasing pairs, in basis order
    return KmCovector(d, 2, 2, Rf[..., a[:, None], b[:, None], a, b])


def sym_to_frame(sym_vals: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Push a (0,2) tensor to the orthonormal frame: S_ab = L_a^i L_b^j S_ij."""
    return np.einsum("...ai,...bj,...ij->...ab", frame, frame, sym_vals)
