"""Independent brute-force oracles shared by the test suite.

Everything here is deliberately naive: dict-based exterior algebra with
permutation parity computed by bubble sort, full-tensor contractions, and
finite-difference geometry.  None of it shares code with the library,
except ``jet_mul_loop``: the former per-output jet product loop, which
reads the library's per-output pair table ``jets._mul_table``; the
per-term slab assembly and the lateral-Fourier block oracle (the lateral
DFT of its impulse responses), which read the library's 1-D stencils,
component pairs and boundary row layout; the slab kernel fields
``width_modulus_fields`` and ``discrete_kernel_basis``, which read the
component pairs; ``continuum_source_full_grid``, the former full-grid
continuum-admissible source, which reads the library's ``dein_closed``
and continuum potential; ``lsmr_solve``, the former LSMR least-squares
solve of ``bvp.py``, which touches the assembled matrix only through
products; ``lstsq_solve_loop``, a dense solve per lateral mode on the
blocks of that oracle; and the object-array jet engine: the former geometry,
boundary and linearization layers, which hold a tensor as an object
ndarray of scalar ``Jet``s and sum every index by hand, reading only the
library's scalar jet arithmetic and the ``Geometry`` record; the former
test-field and metric builders, which compose ``jet_cos``/``jet_sin``
(the former ``Jet.cos``/``sin``, on the library's ``Jet._series``) and
``Jet.exp`` and multiply whole jets where the library forms separable
jets; and ``green_killing_integrals``, the former order-2 Killing
adjunction, which reads the library's geometry operators.
"""

from __future__ import annotations

from itertools import combinations, permutations
from itertools import product as iproduct
from math import comb, factorial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bianchi_lab import bvp
from bianchi_lab.bvp import DiscreteSystem, SolveReport, SourceSpec
from bianchi_lab.charts import Geometry, make_chart, sym_from_upper
from bianchi_lab.jets import Jet, _exp_index, _exponents, contract, stack
from bianchi_lab.linearize import Perturbation, dein_closed


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


def naive_interior_dict(x, a: dict) -> dict:
    """i_X in the first index group of a dict with increasing keys."""
    out: dict = {}
    for (I, J), v in a.items():
        for pos, axis in enumerate(I):
            key = (I[:pos] + I[pos + 1:], J)
            out[key] = out.get(key, 0) + (-1) ** pos * x[axis] * v
    return out


def transpose_dict(a: dict) -> dict:
    return {(J, I): v for (I, J), v in a.items()}


def naive_hodge_dict(a: dict, d: int) -> dict:
    """Hodge dual in the first index group: theta^I -> +-theta^(I^c)."""
    out: dict = {}
    for (I, J), v in a.items():
        comp = tuple(x for x in range(d) if x not in I)
        out[(comp, J)] = bubble_parity(I + comp) * v
    return out


def naive_bianchi_sum_dict(a: dict) -> dict:
    """b psi = sum_i theta^i wedge i^V_{E_i} psi on a dict."""
    out: dict = {}
    for (I, J), v in a.items():
        for pos, axis in enumerate(J):
            sign = bubble_parity((axis,) + I)
            if sign:
                key = (tuple(sorted((axis,) + I)), J[:pos] + J[pos + 1:])
                out[key] = out.get(key, 0) + sign * (-1) ** pos * v
    return out


def naive_restrict_dict(a: dict, drop_axis: int) -> dict:
    """Drop every term that involves ``drop_axis``; relabel the rest."""
    def relabel(I):
        return tuple(x - (x > drop_axis) for x in I)
    return {(relabel(I), relabel(J)): v for (I, J), v in a.items()
            if drop_axis not in I + J}


def covector_to_dict(a) -> dict:
    """{(I, J): coeff} of the nonzero coefficients, Fractions kept exact."""
    subs_k = list(combinations(range(a.dim), a.k))
    subs_m = list(combinations(range(a.dim), a.m))
    out = {}
    for i, I in enumerate(subs_k):
        for j, J in enumerate(subs_m):
            v = a.coeffs[i, j]
            if v != 0:
                out[(I, J)] = v
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


def mul_table_loop(dim: int, order: int):
    """``jets._mul_table`` as it was first written: one Python pass over
    every pair of exponent tuples, A outer, B inner, so each output's
    pairs come ordered by A, then B."""
    exps = _exponents(dim, order)
    idx = _exp_index(dim, order)
    table = [[] for _ in exps]
    for ia, a in enumerate(exps):
        for ib, b in enumerate(exps):
            if sum(a) + sum(b) <= order:
                c = tuple(x + y for x, y in zip(a, b))
                table[idx[c]].append((ia, ib))
    return [(np.array([p[0] for p in pairs], dtype=np.intp),
             np.array([p[1] for p in pairs], dtype=np.intp))
            for pairs in table]


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


# ---------------------------------------------------------------------------
# lateral-Fourier block oracle: the former per-block sparse path of
# bvp.py, one collar-line block at a time, with its own copies of the
# interior, boundary and Killing assembly (only the 1-D stencils, the
# component pairs and the boundary row layout are the library's)


def interior_from_P_loop(P, d: int, N: int):
    """DEin and the gauge operator delta B from a commuting P family.

    Works for the full kron operators and for the lateral-Fourier blocks
    (where the lateral P's are complex multiples of the identity).
    """
    pairs = bvp._sym_pairs(d)
    nc = len(pairs)
    I = sp.identity(N, format="csr")
    lap = sum(Pk @ Pk for Pk in P)

    def sym_index(i, j):
        return pairs.index((min(i, j), max(i, j)))

    # B as a pointwise block matrix on components
    bmatrix = np.zeros((nc, nc))
    for ci, (i, j) in enumerate(pairs):
        bmatrix[ci, ci] += 1.0
        if i == j:
            for k in range(d):
                bmatrix[ci, sym_index(k, k)] -= 0.5
    B = sp.bmat([[bmatrix[ci, cj] * I if bmatrix[ci, cj] else None
                  for cj in range(nc)] for ci in range(nc)], format="csr")

    # divergence: (div sigma)_j = -sum_i P_i sigma_ij
    div_blocks = [[None] * nc for _ in range(d)]
    for j in range(d):
        for i in range(d):
            c = sym_index(i, j)
            blk = -P[i]
            div_blocks[j][c] = blk if div_blocks[j][c] is None \
                else div_blocks[j][c] + blk
    DIV = sp.bmat(div_blocks, format="csr")

    # killing: (delta* X)_{ij} = (P_i X_j + P_j X_i) / 2
    ds_blocks = [[None] * d for _ in range(nc)]
    for c, (i, j) in enumerate(pairs):
        if i == j:
            ds_blocks[c][i] = P[i]
        else:
            ds_blocks[c][j] = 0.5 * P[i]
            ds_blocks[c][i] = 0.5 * P[j]
    DSTAR = sp.bmat(ds_blocks, format="csr")

    LAP = sp.block_diag([lap] * nc, format="csr")
    GAUGE = (DIV @ B).tocsr()
    DRIC = (-0.5 * LAP - DSTAR @ GAUGE).tocsr()
    EIN = (B @ DRIC).tocsr()
    return EIN, GAUGE, B, DIV, DSTAR


def boundary_from_P_loop(P, E_faces, d: int, N: int, NF: int):
    """Rows for the pullback, the linearized second fundamental form and
    its normal derivative, on both faces (exact flat-slab forms), then
    the normal restriction sigma(n, .) on both faces.

    The last family completes the Cauchy data: the first three are
    geometric data of each face, blind to the constant deformations
    dx_a . dx_d and dx_d^2 that move a face by an isometry (see
    DECISIONS.md, "slab kernel").
    """
    pairs = bvp._sym_pairs(d)
    nc = len(pairs)

    def sym_index(i, j):
        return pairs.index((min(i, j), max(i, j)))

    def row_block(blocks):
        filled = [b if b is not None else sp.csr_matrix((NF, N))
                  for b in blocks]
        return sp.hstack(filled, format="csr")

    tang = [(a, b) for a in range(d - 1) for b in range(a, d - 1)]
    rows = []
    for face in (0, 1):
        E = E_faces[face]
        sgn = 1.0 if face == 0 else -1.0
        # pullback rows
        for a, b in tang:
            blocks = [None] * nc
            blocks[sym_index(a, b)] = E
            rows.append(row_block(blocks))
        # dA rows: (P_d s_ab - P_a s_bd - P_b s_ad) / 2 at the face,
        # sign flipped on the upper face (inward normal -e_d)
        for a, b in tang:
            blocks = [None] * nc
            blocks[sym_index(a, b)] = sgn * 0.5 * (E @ P[d - 1])
            pa = -sgn * 0.5 * (E @ P[a])
            c = sym_index(b, d - 1)
            blocks[c] = pa if blocks[c] is None else blocks[c] + pa
            pb = -sgn * 0.5 * (E @ P[b])
            c = sym_index(a, d - 1)
            blocks[c] = pb if blocks[c] is None else blocks[c] + pb
            rows.append(row_block(blocks))
        # d(nabla_n A) rows: collar derivative of the dA field plus the
        # distance-foliation tilt (the linearized eikonal gives the
        # normal derivative of the leaf displacement as sigma_dd / 2,
        # whose tangential Hessian enters the shape-operator field)
        for a, b in tang:
            blocks = [None] * nc
            blocks[sym_index(a, b)] = 0.5 * (E @ P[d - 1] @ P[d - 1])
            pa = -0.5 * (E @ P[d - 1] @ P[a])
            c = sym_index(b, d - 1)
            blocks[c] = pa if blocks[c] is None else blocks[c] + pa
            pb = -0.5 * (E @ P[d - 1] @ P[b])
            c = sym_index(a, d - 1)
            blocks[c] = pb if blocks[c] is None else blocks[c] + pb
            tilt = 0.5 * (E @ P[a] @ P[b])
            c = sym_index(d - 1, d - 1)
            blocks[c] = tilt if blocks[c] is None else blocks[c] + tilt
            rows.append(row_block(blocks))
    for E in E_faces:
        for a in range(d):
            blocks = [None] * nc
            blocks[sym_index(a, d - 1)] = E
            rows.append(row_block(blocks))
    return sp.vstack(rows, format="csr")


def dstar_from_P(P, d: int):
    pairs = bvp._sym_pairs(d)
    ds_blocks = [[None] * d for _ in range(len(pairs))]
    for c, (i, j) in enumerate(pairs):
        if i == j:
            ds_blocks[c][i] = P[i]
        else:
            ds_blocks[c][j] = 0.5 * P[i]
            ds_blocks[c][i] = 0.5 * P[j]
    filled = [[b if b is not None else sp.csr_matrix(P[0].shape,
                                                     dtype=P[0].dtype)
               for b in row] for row in ds_blocks]
    return sp.bmat(filled, format="csr")


def composed_symbols(d: int):
    """(DEin, delta B, delta*) of the composed flat forms above, each as
    the (terms, rows, cols) coefficient table of ``bvp._symbol``: P_k is
    multiplication by t_k on the polynomials of degree <= 2 in t,
    truncated, so the P's commute exactly and an operator maps the
    constant 1 on component c to sum_e C_e[:, c] t^e."""
    terms = bvp._terms(d)
    index = {e: i for i, e in enumerate(terms)}
    K = len(terms)
    P = []
    for k in range(d):
        up = [(index[tuple(sorted(e + (k,)))], i)
              for i, e in enumerate(terms) if len(e) < 2]
        rows, cols = zip(*up)
        P.append(sp.csr_matrix((np.ones(len(up)), (rows, cols)),
                               shape=(K, K)))
    EIN, GAUGE, _, _, DSTAR = interior_from_P_loop(P, d, K)

    def table(M):
        A = M.toarray().reshape(M.shape[0] // K, K, M.shape[1] // K, K)
        return A[..., 0].transpose(1, 0, 2)

    return table(EIN), table(GAUGE), table(DSTAR)


def grid_stencils(n: int, d: int, closed_torus: bool = False):
    """(P, E_faces) on the full n^d grid: each axis operator the kron of
    the 1-D stencil of ``bvp`` along its axis with the identity on the
    others, and each face row the kron of the identity on the lateral
    axes with the 1-D extrapolation row (no face rows on the closed
    torus)."""
    h = 1.0 / n

    def axis_operator(op1d, axis):
        mat = sp.identity(1, format="csr")
        for a in range(d):
            mat = sp.kron(mat, op1d if a == axis else sp.identity(n),
                          format="csr")
        return mat

    P = [axis_operator(
        bvp._first_derivative_1d(n, h, k < d - 1 or closed_torus), k)
        for k in range(d)]
    E_faces = [] if closed_torus else [
        sp.kron(sp.identity(n ** (d - 1)),
                bvp._face_extrapolation_1d(n, face), format="csr")
        for face in (0, 1)]
    return P, E_faces


def continuum_source_full_grid(n: int, d: int, seed: int):
    """(values, div_rel, boundary_rel) of the continuum-admissible source
    of ``bvp.make_source`` with ``dein_closed`` evaluated at every node of
    the n^d grid, and the divergence and face rows of the copies above."""
    chart = make_chart("flat_slab_periodic", d)
    tvals = dein_closed(chart, bvp.slab_nodes(n, d),
                        bvp._continuum_potential(d, seed))
    values = np.concatenate([tvals[:, i, j] for i in range(d)
                             for j in range(i, d)])
    P, E_faces = grid_stencils(n, d)
    DIV = interior_from_P_loop(P, d, n ** d)[3]
    faces = np.concatenate([E @ values.reshape(-1, n ** d).T
                            for E in E_faces])
    scale = np.abs(values).max()
    return (values, float(np.abs(DIV @ values).max() / scale),
            float(np.abs(faces).max() / scale))


def assemble_loop(n: int, d: int):
    """The weighted slab stack of ``bvp.assemble`` from the copies above."""
    P, E_faces = grid_stencils(n, d)
    EIN, GAUGE, _, _, _ = interior_from_P_loop(P, d, n ** d)
    BND = boundary_from_P_loop(P, E_faces, d, n ** d, n ** (d - 1))
    return sp.vstack([EIN, GAUGE, (1.0 / n) ** -0.5 * BND], format="csr")


def lateral_blocks_loop(n: int, d: int):
    """(kmodes, dense block) of the weighted slab stack, every lateral
    mode in ``itertools.product`` order.

    The stack of ``assemble_loop`` is invariant under lateral
    translation, so its columns at the lateral origin (each component at
    each collar node) hold every impulse response, and their lateral DFT
    is every mode's block.  Rows run as in the stack: each interior and
    gauge component along the collar line, then one row per boundary
    family row.
    """
    A = assemble_loop(n, d)
    nc, m = len(bvp._sym_pairs(d)), d - 1
    cols = (np.arange(nc)[:, None] * n ** d + np.arange(n)).ravel()
    impulse = A[:, cols].toarray()
    nodes = (nc + d) * n ** d
    lateral = tuple(range(1, d))
    # axes (family row, lateral..., [collar], column) -> (mode, row, column)
    interior = np.fft.fftn(impulse[:nodes].reshape((nc + d,) + (n,) * d
                                                   + (nc * n,)), axes=lateral)
    faces = np.fft.fftn(impulse[nodes:].reshape((-1,) + (n,) * m
                                                + (nc * n,)), axes=lateral)
    blocks = np.concatenate(
        [np.moveaxis(interior, 0, m).reshape(n ** m, -1, nc * n),
         np.moveaxis(faces, 0, m).reshape(n ** m, -1, nc * n)], axis=1)
    return zip(iproduct(range(n), repeat=m), blocks)


def h1_blocks_loop(n: int, d: int):
    """(kmodes, dense block) of the H1 stack: the rows of
    ``bvp.H1_FAMILIES`` in the blocks of ``lateral_blocks_loop``."""
    rows = bvp._stack_rows(d, n, 1, bvp.H1_FAMILIES)
    return ((k, A[rows]) for k, A in lateral_blocks_loop(n, d))


def h0_blocks_loop(n: int, d: int, closed_torus: bool = False):
    """(kmodes, dense block) of the H0 stack, mode by mode (all d axes
    are lateral on the closed torus)."""
    h = 1.0 / n
    naxes = d if closed_torus else d - 1
    Pd = bvp._first_derivative_1d(n, h, periodic=False).astype(complex)
    E_faces = [bvp._face_extrapolation_1d(n, face).astype(complex)
               for face in (0, 1)]
    for kmodes in iproduct(range(n), repeat=naxes):
        sym = [1j * np.sin(2 * np.pi * k / n) / h for k in kmodes]
        if closed_torus:
            P = [sp.identity(1, format="csr", dtype=complex) * s
                 for s in sym]
        else:
            P = [sp.identity(n, format="csr", dtype=complex) * s
                 for s in sym] + [Pd]
        rows = [dstar_from_P(P, d)]
        if not closed_torus:
            bw = h ** -0.5
            for E in E_faces:
                rows.append(bw * sp.block_diag([E] * d, format="csr"))
        A = sp.vstack(rows, format="csr")
        yield kmodes, A.toarray()


def block_spectrum(blocks) -> dict:
    """Sorted spectrum and per-block minima of (kmodes, block) pairs."""
    all_svals = []
    block_min = {}
    for kmodes, A in blocks:
        svals = np.linalg.svd(A, compute_uv=False)
        all_svals.append(svals)
        block_min[kmodes] = float(svals[-1])
    return {"spectrum": np.sort(np.concatenate(all_svals)),
            "block_min": block_min}


def width_modulus_fields(n: int, d: int) -> np.ndarray:
    """Constant fields dx_a . dx_d and dx_d^2 (the slab-width modulus and
    its shear companions), proportional to delta* of x_d d_a; annihilated
    by the interior, gauge and geometric boundary rows and removed only by
    the normal restriction rows sigma(n, .).

    Each column is a stacked component vector (components in the order of
    ``bvp._sym_pairs``).
    """
    pairs = bvp._sym_pairs(d)
    N = n ** d
    W = np.zeros((len(pairs) * N, d))
    for a in range(d):
        c = pairs.index((a, d - 1))
        W[c * N:(c + 1) * N, a] = 1.0
    return W


def discrete_kernel_basis(n: int, d: int) -> np.ndarray:
    """Orthonormal basis of the kernel of the slab system without its
    normal restriction rows (interior, gauge and geometric boundary rows).

    The width-modulus component patterns (dx_a . dx_d and dx_d^2) times
    every lateral function killed by the central difference: the constant
    and, on even grids, the per-axis Nyquist checkerboard (-1)^j, giving
    d * 2^(d-1) vectors on even grids.  The columns run mode-major: each
    dead mode times the d patterns of ``width_modulus_fields``.
    """
    lateral = np.indices((n,) * d).reshape(d, -1)[:-1]
    combos = np.array(list(iproduct((0, 1), repeat=d - 1)))
    dead = (-1.0) ** (combos[: None if n % 2 == 0 else 1] @ lateral)
    W = width_modulus_fields(n, d)
    K = np.tile(dead, len(bvp._sym_pairs(d))).T[:, :, None] * W[:, None, :]
    # + 0.0 turns the -0.0 of 0 * (-1) into 0.0: the Householder QR takes
    # a zero pivot's sign, so a signed zero would flip a column of Q
    return np.linalg.qr(K.reshape(len(W), -1) + 0.0)[0]


# ---------------------------------------------------------------------------
# least-squares oracle: the former iterative solve of bvp.py


def lsmr_solve(system: DiscreteSystem, source: SourceSpec,
               tol: float = 1e-12, maxiter: int | None = None
               ) -> tuple[np.ndarray, SolveReport]:
    """LSMR on the weighted stack with column equilibration.

    The operator is touched only through products with itself and its
    transpose; column scaling keeps the normal-equation conditioning
    manageable on fine grids.
    """
    b = system.rhs_from_einstein_block(source.values)
    A = system.matrix
    col = np.sqrt(np.asarray((A.multiply(A)).sum(axis=0)).ravel())
    col[col == 0] = 1.0
    D = sp.diags(1.0 / col)
    if maxiter is None:
        maxiter = 120 * system.n ** 2 + 4000
    res = spla.lsmr(A @ D, b, atol=tol, btol=tol, conlim=1e14,
                    maxiter=maxiter)
    x, istop, itn = D @ res[0], res[1], res[2]
    r = A @ x - b
    rel = float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))
    return x, SolveReport(
        converged=bool(istop in (0, 1, 2, 4, 5)),
        iterations=int(itn),
        relative_residual=rel,
        block_residuals=system._residual_blocks(r, source.values),
        solution_norm=float(np.linalg.norm(x)),
    )


def lstsq_solve_loop(system: DiscreteSystem, sources
                     ) -> list[tuple[np.ndarray, SolveReport]]:
    """Min-norm least squares mode by mode, for each of ``sources``.

    The unitary lateral DFT of each row family of b gives one complex
    right-hand side per lateral mode: each interior and gauge component
    along the collar line, then one entry per face row.
    ``np.linalg.lstsq`` solves it on the mode's block from
    ``lateral_blocks_loop``, every mode, with the default cut-off
    eps max(rows, cols) sigma_max; the inverse DFT of the solutions is x.
    All sources share one pass over the blocks.
    """
    d, n = system.dim, system.n
    nc, S = len(bvp._sym_pairs(d)), len(sources)
    # axes (source, component or row family, lateral..., [collar])
    lateral = tuple(range(2, d + 1))
    bs = np.stack([system.rhs_from_einstein_block(src.values)
                   for src in sources])
    nodes = (nc + d) * n ** d
    b_int = np.fft.fftn(bs[:, :nodes].reshape((S, -1) + (n,) * d),
                        axes=lateral, norm="ortho")
    b_bnd = np.fft.fftn(bs[:, nodes:].reshape((S, -1) + (n,) * (d - 1)),
                        axes=lateral, norm="ortho")
    xhat = np.zeros((S, nc) + (n,) * d, dtype=complex)
    for k, A in lateral_blocks_loop(n, d):
        at = (slice(None), slice(None)) + k
        rhs = np.concatenate([b_int[at].reshape(S, -1), b_bnd[at]], axis=1)
        sol = np.linalg.lstsq(A, rhs.T, rcond=None)[0]
        xhat[at] = sol.T.reshape(S, nc, n)
    xs = np.fft.ifftn(xhat, axes=lateral, norm="ortho").reshape(S, -1)
    if np.abs(xs.imag).max() > 1e-10 * np.abs(xs).max():
        raise RuntimeError("per-mode solve: x is not real")
    out = []
    for src, b, x in zip(sources, bs, xs.real):
        r = system.matrix @ x - b
        rel = float(np.linalg.norm(r) / max(np.linalg.norm(b), 1e-300))
        out.append((x, SolveReport(
            converged=True,
            iterations=0,
            relative_residual=rel,
            block_residuals=system._residual_blocks(r, src.values),
            solution_norm=float(np.linalg.norm(x)),
        )))
    return out


# ---------------------------------------------------------------------------
# object-array jet engine: the former geometry, boundary and linearization
# layers, one scalar Jet per tensor entry (copied verbatim), and the
# adapters between its object arrays and tensor jets


def object_jets(T: Jet, rank: int) -> np.ndarray:
    """Tensor jet -> object ndarray of its component jets."""
    shape = T.c.shape[T.c.ndim - 1 - rank:-1]
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = T[(...,) + idx]
    return out


def tensor_jet(A: np.ndarray) -> Jet:
    """Object ndarray of jets -> one tensor jet (batch, tensor, K axes)."""
    if isinstance(A, Jet):
        return A
    return stack([tensor_jet(A[i]) for i in range(A.shape[0])],
                 axis=-A.ndim)


def _obj_array(shape):
    return np.empty(shape, dtype=object)


def jet_matrix_inverse(G: list[list[Jet]]) -> list[list[Jet]]:
    """Invert a matrix of jets by Gauss-Jordan elimination.

    No pivoting: intended for positive-definite matrices whose leading
    minors stay away from zero (metric components).  Raises
    ``np.linalg.LinAlgError`` when a pivot's value is <= 1e-12 max|G| in
    absolute value at some batch point.
    """
    d = len(G)
    A = [[G[i][j] for j in range(d)] for i in range(d)]
    dim, order = A[0][0].dim, A[0][0].order
    shape = np.broadcast_shapes(*[A[i][j].c.shape[:-1] for i in range(d)
                                  for j in range(d)])
    ident = [[Jet.const(dim, order, np.full(shape, 1.0 if i == j else 0.0))
              for j in range(d)] for i in range(d)]
    tiny = 1e-12 * np.max(np.abs(np.broadcast_arrays(
        *[A[i][j].value for i in range(d) for j in range(d)])), axis=0)
    for col in range(d):
        if np.any(np.abs(A[col][col].value) <= tiny):
            raise np.linalg.LinAlgError(
                f"vanishing pivot in column {col} of a jet matrix inverse")
        inv_piv = A[col][col].reciprocal()
        for j in range(d):
            A[col][j] = A[col][j] * inv_piv
            ident[col][j] = ident[col][j] * inv_piv
        for row in range(d):
            if row == col:
                continue
            f = A[row][col]
            for j in range(d):
                A[row][j] = A[row][j] - f * A[col][j]
                ident[row][j] = ident[row][j] - f * ident[col][j]
    return ident


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


def distance_jet(geom: Geometry, newton_steps: int = 12,
                 tol: float = 1e-12) -> Jet:
    """Jet of the boundary-distance function at face points.

    Solves |grad r|^2_g = 1 with r = 0 on the face for the Taylor
    coefficients of r with nonzero normal exponent.  The system is square
    order by order; a Newton iteration on the full coefficient vector
    converges quadratically from r = x^d.  Raises RuntimeError if the
    residual is not below ``tol`` after ``newton_steps`` steps.
    """
    d, p = geom.dim, geom.order
    exps = _exponents(d, p)
    unknowns = [i for i, e in enumerate(exps) if e[-1] >= 1]
    n_res = len(_exponents(d, p - 1))
    if len(unknowns) != n_res:
        raise AssertionError("eikonal system is not square")

    batch = geom.g[0, 0].c.shape[:-1]
    r = Jet.const(d, p, np.zeros(batch))
    e1 = [0] * d
    e1[-1] = 1
    r.c[..., _exp_index(d, p)[tuple(e1)]] = 1.0

    def grad_sq(rj: Jet) -> Jet:
        dr = [rj.partial(a) for a in range(d)]
        acc = None
        for i in range(d):
            for j in range(d):
                term = geom.ginv[i, j].truncate(p - 1) * dr[i] * dr[j]
                acc = term if acc is None else acc + term
        return acc

    basis = []
    for u in unknowns:
        bj = Jet.const(d, p, np.zeros(()))
        bj.c = np.zeros((len(exps),))
        bj.c[u] = 1.0
        basis.append(bj)

    for step in range(newton_steps + 1):
        res = grad_sq(r) - 1.0
        err = float(np.max(np.abs(res.c)))
        if err < tol:
            return r
        if step == newton_steps:
            raise RuntimeError(
                f"eikonal Newton solve did not converge in {newton_steps} "
                f"steps: residual {err:.3e} >= tol {tol:.1e}")
        # J[:, u] = 2 sum g^{ij} d_i r d_j e_u
        cols = []
        dr = [r.partial(a) for a in range(d)]
        for bj in basis:
            db = [bj.partial(a) for a in range(d)]
            acc = None
            for i in range(d):
                for j in range(d):
                    term = geom.ginv[i, j].truncate(p - 1) * dr[i] * db[j]
                    acc = term if acc is None else acc + term
            cols.append(2.0 * acc.c)
        J = np.stack(np.broadcast_arrays(*cols), axis=-1)
        rhs = -np.broadcast_to(res.c, J.shape[:-1])
        delta = np.linalg.solve(J, rhs[..., None])[..., 0]
        batch_shape = delta.shape[:-1]
        newc = np.array(np.broadcast_to(r.c, batch_shape + (r.c.shape[-1],)),
                        copy=True)
        newc[..., unknowns] += delta
        r = Jet(d, p, newc)


def normal_field(geom: Geometry):
    """The distance jet r and the normal field n^i = g^{ij} d_j r."""
    d, p = geom.dim, geom.order
    rjet = distance_jet(geom)
    dr = [rjet.partial(a) for a in range(d)]
    nvec = np.empty(d, dtype=object)
    for i in range(d):
        acc = None
        for j in range(d):
            term = geom.ginv[i, j].truncate(p - 1) * dr[j]
            acc = term if acc is None else acc + term
        nvec[i] = acc
    return rjet, nvec


def distance_hessian(geom: Geometry, rjet: Jet) -> np.ndarray:
    """Hess r, the A-field: tangential by the eikonal equation."""
    d, p = geom.dim, geom.order
    dr = [rjet.partial(a) for a in range(d)]
    dr2 = [dj.truncate(p - 2) for dj in dr]
    hess = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(i, d):
            acc = dr[i].partial(j)
            for k in range(d):
                acc = acc - geom.gamma[k, i, j].truncate(p - 2) * dr2[k]
            hess[i, j] = hess[j, i] = acc
    return hess


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


def dein_closed_jets(geom: Geometry, sig: np.ndarray,
                     action) -> np.ndarray:
    """Covariant linearized Einstein operator via trace reversal.

    dEin sigma = B(dRic sigma) + <sigma, Ric> g / 2 - Sc sigma / 2.
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
    return out


# ---------------------------------------------------------------------------
# jet-composition field and metric builders: the former library versions,
# which compose jet_cos/jet_sin and Jet.exp and multiply full jets where
# the library now forms separable jets from closed-form univariate
# coefficients


def jet_sin(j: Jet) -> Jet:
    """sin of a jet, composed through ``Jet._series``."""
    cycle = [np.sin, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v)]
    return j._series(lambda v, k: cycle[k % 4](v) / factorial(k))


def jet_cos(j: Jet) -> Jet:
    """cos of a jet, composed through ``Jet._series``."""
    cycle = [np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v), np.sin]
    return j._series(lambda v, k: cycle[k % 4](v) / factorial(k))


def trig_terms(x, order, coef, ks, ph, normal_vanish):
    """Jets of coef_i prod_a cos(2 pi ks_ia x_a + ph_ia), times
    sin(pi x_d)^normal_vanish, one entry per row of ks."""
    xs = Jet.variables(x, order)
    term = Jet.const(len(xs), order, coef)
    for a, xa in enumerate(xs):
        term = term * jet_cos(xa[..., None] * (2 * np.pi * ks[:, a])
                              + ph[:, a])
    if normal_vanish:
        s = jet_sin(xs[-1] * np.pi)
        for _ in range(normal_vanish):
            term = contract("i,->i", term, s)
    return term


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

    upper = np.triu_indices(dim)
    coef, ks, phases, poly = coef[upper], ks[upper], phases[upper], poly[upper]

    def fn(x, order):
        xs = Jet.variables(x, order)
        term = Jet.const(dim, order, coef)
        for a in range(dim - 1):
            term = term * jet_cos(xs[a][..., None] * (2 * np.pi * ks[:, a])
                                  + phases[:, a])
        term = term * (poly[:, 0] + 1.0 + xs[-1][..., None] * poly[:, 1])
        for _ in range(boundary_order):
            term = contract("i,->i", term, xs[-1])
        return sym_from_upper(term, dim)

    return Perturbation(fn, dim)


def box_bump_sym_field(chart, seed: int, amp: float = 1.0):
    """Polynomial field vanishing to second order on the whole box boundary.

    Each component carries the factor prod_a (t_a (1 - t_a))^2 in box
    coordinates, so side-wall and collar-face contributions to the Green
    identities vanish; the components stay jet-exact polynomials.
    """
    dim = chart.dim
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((dim, dim)) * amp
    coef = 0.5 * (coef + coef.T)
    lin = rng.standard_normal((dim, dim, dim)) * 0.5
    lin = 0.5 * (lin + np.transpose(lin, (1, 0, 2)))
    upper = np.triu_indices(dim)
    coef, lin = coef[upper], lin[upper]

    def fn(x, order):
        xs = Jet.variables(x, order)
        ts = [(xs[a] - lo) * (1.0 / (hi - lo))
              for a, (lo, hi) in enumerate(chart.domain)]
        bump = Jet.const(dim, order, np.ones(x.shape[:-1]))
        for t in ts:
            b = t * (1.0 - t)
            bump = bump * (b * b * 16.0)
        poly = Jet.const(dim, order, coef)
        for a in range(dim):
            poly = poly + ts[a][..., None] * lin[:, a]
        return sym_from_upper(contract(",i->i", bump, poly), dim)

    return Perturbation(fn, dim)


def continuum_potential(d: int, seed: int):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((d, d))
    coef = 0.5 * (coef + coef.T)
    ks = rng.integers(0, 2, size=(d, d, d - 1))
    upper = np.triu_indices(d)
    coef, ks = coef[upper], np.minimum(ks, np.transpose(ks, (1, 0, 2)))[upper]

    def fn(x, order):
        xs = Jet.variables(x, order)
        cut = xs[-1] * (1.0 - xs[-1])
        cut3 = (cut * cut) * cut  # vanishes to third order at both faces
        term = Jet.const(d, order, coef)
        for a in range(d - 1):
            term = term * jet_cos(xs[a][..., None] * (2 * np.pi * ks[:, a]))
        return sym_from_upper(contract("i,->i", term, cut3), d)

    return Perturbation(fn, d)


def probe_vector_field(x, order):
    """The vector field of the linearization suite's equivariance case."""
    xs = Jet.variables(x, order)
    return stack([jet_sin(xs[1] * 2.0) * 0.3, xs[2] * xs[0] * 0.2,
                  0.1 * xs[0]])


def lateral_wave(x, order):
    """The linearization suite's sigma = x_d^2 sin(2 pi x_1) dx_0^2."""
    xs = Jet.variables(x, order)
    wave = xs[2] * xs[2] * jet_sin(xs[1] * (2 * np.pi))
    return wave[..., None, None] * np.diag([1.0, 0.0, 0.0])


def metric_flat(chart, x, order: int):
    d = chart.dim
    return Jet.const(d, order, np.broadcast_to(np.eye(d),
                                               x.shape[:-1] + (d, d)))


def metric_polar_ball(chart, x, order: int):
    """Flat metric in spherical coordinates (angles..., u), r = R - u."""
    d = chart.dim
    R = chart.param_dict["radius"]
    xs = Jet.variables(x, order)
    r = R - xs[-1]
    diag = [r * r]
    for i in range(d - 2):
        s = jet_sin(xs[i])
        diag.append(diag[-1] * (s * s))
    diag.append(Jet.const(d, order, np.ones(x.shape[:-1])))
    return stack(diag)[..., None] * np.eye(d)


def metric_conformal(chart, x, order: int):
    d = chart.dim
    p = chart.param_dict
    xs = Jet.variables(x, order)
    phi = Jet.const(d, order, np.full(x.shape[:-1], p["amp"]))
    for a in range(d - 1):
        phi = phi * jet_cos((xs[a] - p["centers"][a])
                            * (2 * np.pi * p["freq"]))
    prof = Jet.const(d, order, np.zeros(x.shape[:-1]))
    for k, ck in enumerate(p["profile"]):
        prof = prof + ck * xs[-1] ** k
    phi = phi * prof
    conf = (2.0 * phi).exp()
    return conf[..., None, None] * np.eye(d)


def metric_curved_generic(chart, x, order: int):
    d = chart.dim
    modes = chart.param_dict["modes"]
    xs = Jet.variables(x, order)
    g = metric_flat(chart, x, order)
    for coef, ks, phases, poly in modes:
        bump = Jet.const(d, order, np.ones(x.shape[:-1]))
        for a in range(d - 1):
            bump = bump * jet_cos(xs[a] * (2 * np.pi * ks[a]) + phases[a])
        prof = poly[0] + poly[1] * xs[-1] + poly[2] * xs[-1] ** 2
        bump = bump * prof
        g = g + bump[..., None, None] * np.array(coef)
    return g


def green_killing_integrals(grid, chart, x_field, sigma):
    """The Killing-adjunction integrals (lhs, bulk, flux) with the interior
    integrands at jet order 2, the former ``quadrature.green_killing_defect``;
    its defect is |lhs - bulk + flux|."""
    from bianchi_lab.charts import (_by_chunks, bianchi_b, dewitt_inner,
                                    divergence, geometry_from_jets, killing)
    from bianchi_lab.quadrature import (_face_geometry, _volume_density,
                                        integrate_scalar_samples,
                                        interior_nodes)

    def integrands(x):
        geom = geometry_from_jets(chart.metric_jets(x, 2), curvature=False)
        X, sig = x_field(x, 2), sigma(x, 2)
        gvals = geom.g.value
        dens = _volume_density(gvals)
        lhs = dewitt_inner(killing(geom, X).value, sig.value,
                           np.linalg.inv(gvals))
        dbs = divergence(geom, bianchi_b(geom, sig)).value
        bulk = np.einsum("...i,...j,...ij->...", X.value, dbs, gvals)
        return lhs * dens, bulk * dens

    lhs, bulk = (integrate_scalar_samples(grid, v, "interior")
                 for v in _by_chunks(integrands, interior_nodes(grid)))

    flux = 0.0
    for face in (0, 1):
        xf, gf, ginv_f, nvec, fdens = _face_geometry(chart, grid, face)
        sigf = sigma(xf, 1).value
        tr = np.einsum("...ij,...ij->...", ginv_f, sigf)
        bsig = sigf - 0.5 * tr[..., None, None] * gf
        xvf = x_field(xf, 1).value
        val = np.einsum("...ij,...i,...j->...", bsig, xvf, nvec)
        flux += integrate_scalar_samples(grid, val * fdens, "boundary")
    return lhs, bulk, flux
