"""Independent brute-force oracles shared by the test suite.

Everything here is deliberately naive: dict-based exterior algebra with
permutation parity computed by bubble sort, full-tensor contractions, and
finite-difference geometry.  None of it shares code with the library,
except ``jet_mul_loop``: the former per-output jet product loop, which
reads the library's per-output pair table ``jets._mul_table``.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

import numpy as np


def bubble_parity(seq):
    """Sign of the permutation sorting seq, 0 on repeats."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


def naive_wedge_dict(a: dict, b: dict) -> dict:
    """Wedge on {(I, J): coeff} dicts, I, J tuples (not necessarily sorted)."""
    out: dict = {}
    for (I1, J1), x in a.items():
        for (I2, J2), y in b.items():
            sI = bubble_parity(I1 + I2)
            sJ = bubble_parity(J1 + J2)
            if sI == 0 or sJ == 0:
                continue
            key = (tuple(sorted(I1 + I2)), tuple(sorted(J1 + J2)))
            out[key] = out.get(key, 0.0) + sI * sJ * x * y
    return {k: v for k, v in out.items() if v != 0}


def covector_to_dict(a) -> dict:
    subs_k = list(combinations(range(a.dim), a.k))
    subs_m = list(combinations(range(a.dim), a.m))
    out = {}
    for i, I in enumerate(subs_k):
        for j, J in enumerate(subs_m):
            v = a.coeffs[i, j]
            if v != 0:
                out[(I, J)] = float(v)
    return out


def dict_allclose(a: dict, b: dict, tol: float) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


def covector_to_full(a) -> np.ndarray:
    """Full antisymmetric tensor T[i1..ik, j1..jm] of a (k,m)-covector."""
    d, k, m = a.dim, a.k, a.m
    T = np.zeros((d,) * (k + m))
    subs_k = list(combinations(range(d), k))
    subs_m = list(combinations(range(d), m))
    for i, I in enumerate(subs_k):
        for j, J in enumerate(subs_m):
            v = float(a.coeffs[i, j])
            if v == 0:
                continue
            for pI in permutations(range(k)):
                sI = bubble_parity(pI)
                for pJ in permutations(range(m)):
                    sJ = bubble_parity(pJ)
                    idx = tuple(I[p] for p in pI) + tuple(J[p] for p in pJ)
                    T[idx] += sI * sJ * v
    return T


def full_trace(T: np.ndarray, k: int, m: int) -> np.ndarray:
    """Contract the first index of each group; inverse normalization of the
    increasing-basis encoding is 1/((k-1)! (m-1)!) applied by the caller."""
    return np.trace(T, axis1=0, axis2=k)


def trace_oracle(a):
    """tr on a (k,m)-covector via the full-tensor representation."""
    from bianchi_lab.algebra import KmCovector

    d, k, m = a.dim, a.k, a.m
    T = covector_to_full(a)
    S = full_trace(T, k, m)
    # read back strictly increasing components
    out = KmCovector.zero(d, k - 1, m - 1)
    subs_k = list(combinations(range(d), k - 1))
    subs_m = list(combinations(range(d), m - 1))
    for i, I in enumerate(subs_k):
        for j, J in enumerate(subs_m):
            out.coeffs[i, j] = S[I + J]
    return out


def fd_metric_derivative(metric_fn, x, axis, h=1e-6):
    """Central difference of a metric-value callback along one axis."""
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[axis] += h
    xm[axis] -= h
    return (metric_fn(xp) - metric_fn(xm)) / (2 * h)


def fd_christoffel(metric_fn, x, h=1e-6):
    """Levi-Civita symbols from finite differences of metric values."""
    g = metric_fn(np.asarray(x, dtype=float))
    d = g.shape[0]
    ginv = np.linalg.inv(g)
    dg = np.stack([fd_metric_derivative(metric_fn, x, a, h) for a in range(d)])
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                gamma[k, i, j] = 0.5 * np.sum(
                    ginv[k] * (dg[i, j] + dg[j, i] - dg[:, i, j]))
    return gamma


def fd_riemann(metric_fn, x, h=1e-4):
    """Lower Riemann tensor R(ei,ej,ek,el) by differencing Christoffels."""
    x = np.asarray(x, dtype=float)
    g = metric_fn(x)
    d = g.shape[0]
    gamma = fd_christoffel(metric_fn, x, h=h * 1e-2)

    dgamma = np.zeros((d, d, d, d))  # dgamma[a, k, i, j] = d_a Gamma^k_ij
    for a in range(d):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        dgamma[a] = (fd_christoffel(metric_fn, xp, h=h * 1e-2)
                     - fd_christoffel(metric_fn, xm, h=h * 1e-2)) / (2 * h)

    # R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    #            + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}
    Rup = np.zeros((d, d, d, d))
    for l in range(d):
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    Rup[l, k, i, j] = (
                        dgamma[i, l, j, k] - dgamma[j, l, i, k]
                        + np.sum(gamma[l, i] * gamma[:, j, k])
                        - np.sum(gamma[l, j] * gamma[:, i, k]))
    # lower: Riem[i,j,k,l] = g_{lm} R^m_{kij}
    riem = np.einsum("lm,mkij->ijkl", g, Rup)
    return riem


def fd_ricci(metric_fn, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    d = metric_fn(x).shape[0]
    gamma0 = fd_christoffel(metric_fn, x, h=h * 1e-2)
    dgamma = np.zeros((d, d, d, d))
    for a in range(d):
        xp, xm = x.copy(), x.copy()
        xp[a] += h
        xm[a] -= h
        dgamma[a] = (fd_christoffel(metric_fn, xp, h=h * 1e-2)
                     - fd_christoffel(metric_fn, xm, h=h * 1e-2)) / (2 * h)
    ric = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            # Ric_{jk} = sum_i R^i_{kij}
            val = 0.0
            for i in range(d):
                val += (dgamma[i, i, j, k] - dgamma[j, i, i, k]
                        + np.sum(gamma0[i, i] * gamma0[:, j, k])
                        - np.sum(gamma0[i, j] * gamma0[:, i, k]))
            ric[j, k] = val
    return ric


def loglog_slope(hs, errs):
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    mask = errs > 0
    if mask.sum() < 2:
        return np.inf
    return np.polyfit(np.log(hs[mask]), np.log(errs[mask]), 1)[0]


def fd_second_fundamental_form(metric_fn, x_face, h=1e-5):
    """A_ab at a boundary-face point via the normal-flow pullback derivative.

    Uses the coordinate-aligned unit normal field nu = g^{-1} e_d (normalized),
    flows the face point by phi_t(p) = p + t nu(p), and differentiates the
    pulled-back metric in t.  Independent of the distance-jet machinery.
    """
    x_face = np.asarray(x_face, dtype=float)
    d = x_face.shape[-1]

    def nu(p):
        ginv = np.linalg.inv(metric_fn(p))
        v = ginv[:, -1]
        return v / np.sqrt(v[-1] if v[-1] > 0 else np.nan)  # v/sqrt(g^{dd})

    def dnu(p):
        out = np.zeros((d, d))  # out[i, a] = d_i nu^a
        for i in range(d):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            out[i] = (nu(pp) - nu(pm)) / (2 * h)
        return out

    def pullback(t, p):
        J = np.eye(d) + t * dnu(p)
        return J.T @ metric_fn(p + t * nu(p)) @ J

    t = h
    A_full = (pullback(t, x_face) - pullback(-t, x_face)) / (4 * t)
    return A_full[: d - 1, : d - 1]


def jet_mul_loop(a, b):
    """Taylor product of two jets by one sum per output coefficient.

    This is the product loop ``Jet.__mul__`` used before its single-kernel
    form: for each output index it gathers that index's (alpha, beta)
    pairs from the per-output table and sums them along the last axis.
    Mixed orders are truncated to the lower one.
    """
    from bianchi_lab.jets import Jet, _mul_table

    order = min(a.order, b.order)
    a, b = a.truncate(order), b.truncate(order)
    table = _mul_table(a.dim, a.order)
    shape = np.broadcast_shapes(a.c.shape[:-1], b.c.shape[:-1])
    out = np.empty(shape + (len(table),))
    for k, (ia, ib) in enumerate(table):
        out[..., k] = np.sum(a.c[..., ia] * b.c[..., ib], axis=-1)
    return Jet(a.dim, a.order, out)
