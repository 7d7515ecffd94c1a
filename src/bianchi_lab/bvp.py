"""Finite-difference probe of the gauged linearized Einstein boundary-value
problem on the flat periodic slab.

Every discrete operator is built from one shared family of
first-derivative operators {P_k} and face rows E (the 1-D stencils of
``_first_derivative_1d`` and ``_face_extrapolation_1d``: periodic central
stencils laterally; central with third-order one-sided end rows on the
collar axis).  The family commutes, so flat-background polynomial
operator identities -- the gauged divergence of the interior operator
vanishing, and the interior operator annihilating Killing deformations --
hold exactly at the matrix level.  That exactness is what makes
"discrete-admissible" sources solvable to solver tolerance rather than
discretization accuracy.

Each operator is written once, as a stack builder ``stack(P, E_faces)``
(``_slab_stack`` and ``_h0_stack``), and evaluated only on the points
axis of the block polynomial (``_block_polynomial``): batched dense
arrays of a few collar-line blocks.  Every operator is invariant under lateral
translation, so the lateral DFT splits it into one collar-line block per
lateral mode, and has degree <= 2 in the P's, so each block is exactly a
polynomial of degree <= 2 in the lateral symbols i t_a.  A diagonal
phase makes every block real: the operators commute with the reflection
of all lateral axes, so a term of degree |e| only couples components
whose numbers of lateral indices differ by |e| mod 2, and scaling each
block row and column by i to the power of that number cancels every i.

The same invariance makes the full-grid matrix block-circulant in the
lateral axes, so its polynomial holds all of it: ``_expand`` writes the
CSR matrix from the polynomial's coefficients and the lateral shifts.
``_grid`` does so once per (n, d) and process for the weighted slab
matrix, the one full-grid operator, read-only.  ``assemble`` wraps it;
the solve's residual and the oracles read it and ``kernel_probe`` is
handed it.  ``make_source`` reads its einstein rows for the
discrete-admissible source and its gauge rows for every source's
divergence: the gauge rows are delta B, so delta T is the gauge rows
applied to B^-1 T (``_b_inverse``).  It applies the 1-D stencils along
each axis (``_along``) for the double-curl sources.  The spectra and
``cohomology_probe`` read only the blocks.  The continuum-admissible
source is evaluated on 4 lateral nodes per axis and interpolated
exactly, as it has lateral frequencies |k_a| <= 1.

The operators also commute with the reflection of each lateral axis a
alone, which maps t_a to -t_a; on a real block that is the similarity by
a +-1 diagonal on each side.  And t_a = sin(2 pi k_a / n) is the same for
k_a and n/2 - k_a, and changes sign from k_a to -k_a.  So every block is
+-1 diagonals times the block of its class of |t| (``_symbol_classes``):
floor(n/4) + 1 classes per axis on even n, (n + 1)/2 on odd n.  The exact
spectra factor one real block per class.  The one least-squares solver,
``solve_least_squares`` (a direct SVD solve), factors one real block per
class that the lateral DFT of the right-hand side touches: every source
kind lies on the modes with |k_a| <= 1, so at most 2^(d-1) classes at
any n.  LSMR, a per-mode dense solve and the dense SVD of the assembled
matrix are their oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .charts import MetricChart, sym_from_upper
from .jets import cos_coeffs, poly_coeffs, separable
from .linearize import Perturbation, dein_closed
from .quadrature import _mesh

__all__ = [
    "DiscreteSystem",
    "SourceSpec",
    "SolveReport",
    "assemble",
    "make_source",
    "solve_least_squares",
    "kernel_probe",
    "cohomology_probe",
    "slab_nodes",
    "vec_components",
]


# ---------------------------------------------------------------------------
# stencil building blocks


def _first_derivative_1d(n: int, h: float, periodic: bool) -> sp.csr_matrix:
    """The central first difference on n nodes of spacing h: periodic, or
    with third-order one-sided end rows, which keep compositions
    second-order accurate."""
    j = np.arange(n) if periodic else np.arange(1, n - 1)
    rows = [np.repeat(j, 2)]
    cols = [np.stack([(j - 1) % n, (j + 1) % n], axis=1).ravel()]
    vals = [np.tile([-0.5, 0.5], j.size)]
    if not periodic:
        rows += [np.zeros(4, int), np.full(4, n - 1)]
        cols += [np.arange(4), np.arange(n - 4, n)]
        vals += [np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0,
                 -np.array([2.0, -9.0, 18.0, -11.0]) / 6.0]
    m = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return m / h


def _face_extrapolation_1d(n: int, face: int) -> sp.csr_matrix:
    """Quadratic extrapolation from the first three cell centers to a face."""
    w = np.array([15.0, -10.0, 3.0]) / 8.0
    return sp.csr_matrix((w, np.arange(3), [0, 3]) if face == 0 else
                         (w[::-1], np.arange(n - 3, n), [0, 3]), shape=(1, n))


def _along(op1d: sp.csr_matrix, values: np.ndarray, axis: int,
           d: int) -> np.ndarray:
    """A 1-D operator (rows x n) applied along ``axis`` of node values on
    the n^d grid (``slab_nodes`` order), after any leading stacked
    blocks: what the kron of the operator with the identity on the other
    axes gives, row for row in the same order."""
    n = op1d.shape[1]
    post = n ** (d - 1 - axis)
    grid = values.reshape(-1, n, post).transpose(1, 0, 2)
    out = op1d @ grid.reshape(n, -1)
    return out.reshape(-1, grid.shape[1], post).transpose(1, 0, 2).ravel()


def _cell_centers(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def slab_nodes(n: int, d: int) -> np.ndarray:
    return _mesh([_cell_centers(n)] * d)


def _sym_pairs(d: int):
    return [(i, j) for i in range(d) for j in range(i, d)]


def _component_table(d: int) -> np.ndarray:
    """(d, d) table of the stacked component of sigma_ij = sigma_ji."""
    table = np.empty((d, d), dtype=int)
    for c, (i, j) in enumerate(_sym_pairs(d)):
        table[i, j] = table[j, i] = c
    return table


def vec_components(values: np.ndarray, pairs) -> np.ndarray:
    """Stack per-component node vectors: values shape (N, d, d)."""
    return np.concatenate([values[:, i, j] for i, j in pairs])


# ---------------------------------------------------------------------------
# system assembly


@dataclass
class DiscreteSystem:
    """The slab system A sigma = b on the n^d grid, ``matrix`` = A
    (``assemble``'s is ``_grid``'s lateral expansion of the slab block
    polynomial, shared and read-only; its column indices are not sorted
    within a row).

    Rows, in blocks of N = n^d node rows or NF = n^(d-1) face-node rows
    (``_stack_rows`` names the families): "einstein", DEin, one block of
    N per component of ``_sym_pairs(dim)``; "gauge", delta B, d blocks
    of N; then the rows of ``_boundary_from_P`` weighted by
    ``_boundary_weight(n)``: per face (d-1)d/2 blocks of NF for each of
    "pullback", "dA" and "dnA" (d(nabla_n A)), then d "normal"
    (sigma(n, .)) blocks per face.  A block of node rows runs over the
    nodes in ``slab_nodes`` order, lateral nodes then the collar node; a
    block of face rows over the lateral nodes.  The columns are one block
    of N per component, in the same node order.
    """
    dim: int
    n: int
    matrix: sp.csr_matrix

    def _rows(self, families) -> np.ndarray:
        d, n = self.dim, self.n
        return _stack_rows(d, n ** d, n ** (d - 1), families)

    def rhs_from_einstein_block(self, t_vec: np.ndarray) -> np.ndarray:
        b = np.zeros(self.matrix.shape[0])
        b[self._rows(("einstein",))] = t_vec
        return b

    def _residual_blocks(self, r: np.ndarray, t_vec: np.ndarray) -> dict:
        """|r| of the interior, gauge and (unweighted) boundary rows of the
        residual r = A x - b, relative to |t_vec|."""
        scale = max(np.linalg.norm(t_vec), 1e-300)

        def rel(families):
            return float(np.linalg.norm(r[self._rows(families)]) / scale)

        return {"einstein": rel(("einstein",)), "gauge": rel(("gauge",)),
                "boundary": rel(BOUNDARY_FAMILIES)
                / _boundary_weight(self.n)}


def _summed_blocks(nc: int, terms) -> list:
    """One block row over nc components from (component, block) terms:
    the terms of each component summed in order, None where there are
    none."""
    blocks = [None] * nc
    for c, t in terms:
        blocks[c] = t if blocks[c] is None else blocks[c] + t
    return blocks


def _block_matrix(rows) -> np.ndarray:
    """The (points, rows, cols) array of a grid of blocks, each of shape
    (points or 1, height, width) with one height and width throughout,
    and None for a zero block."""
    shape = np.broadcast_shapes(*(b.shape for row in rows for b in row
                                  if b is not None))
    q, height, width = shape
    out = np.zeros((q, len(rows) * height, len(rows[0]) * width))
    for r, row in enumerate(rows):
        for c, b in enumerate(row):
            if b is not None:
                out[:, r * height:(r + 1) * height,
                    c * width:(c + 1) * width] = b
    return out


# Every stack builder below takes the derivative family P and the face
# rows E_faces on the points axis of ``_block_polynomial``: each P_k a
# (points or 1, line, line) array and each face row a (1, 1, line) one,
# so that ``@`` composes them point by point.


def _divergence(P, d: int) -> np.ndarray:
    """(div sigma)_j = -sum_i P_i sigma_ij on stacked components."""
    sym = _component_table(d)
    nc = len(_sym_pairs(d))
    return _block_matrix([_summed_blocks(nc, [(sym[i, j], -P[i])
                                              for i in range(d)])
                          for j in range(d)])


def _killing(P, d: int) -> np.ndarray:
    """(delta* X)_ij = (P_i X_j + P_j X_i) / 2 on stacked components."""
    return _block_matrix([_summed_blocks(d, [(i, P[i])] if i == j else
                                         [(j, 0.5 * P[i]), (i, 0.5 * P[j])])
                          for i, j in _sym_pairs(d)])


def _interior_from_P(P, d: int):
    """(DEin, delta B): the interior and gauge operators from a commuting
    P family."""
    pairs = _sym_pairs(d)
    nc = len(pairs)
    sym = _component_table(d)
    lap = sum(Pk @ Pk for Pk in P)

    # B as a pointwise block matrix on components
    bmatrix = np.zeros((nc, nc))
    for ci, (i, j) in enumerate(pairs):
        bmatrix[ci, ci] += 1.0
        if i == j:
            for k in range(d):
                bmatrix[ci, sym[k, k]] -= 0.5
    B = np.kron(bmatrix, np.eye(lap.shape[-1]))

    LAP = _block_matrix([[lap if ci == cj else None for cj in range(nc)]
                         for ci in range(nc)])
    GAUGE = _divergence(P, d) @ B
    DRIC = -0.5 * LAP - _killing(P, d) @ GAUGE
    EIN = B @ DRIC
    return EIN, GAUGE


def _boundary_from_P(P, E_faces, d: int) -> np.ndarray:
    """Rows for the pullback, the linearized second fundamental form and
    its normal derivative, on both faces (exact flat-slab forms), then
    the normal restriction sigma(n, .) on both faces.

    The last family completes the Cauchy data: the first three are
    geometric data of each face, blind to the constant deformations
    dx_a . dx_d and dx_d^2 that move a face by an isometry (see
    DECISIONS.md, "slab kernel").
    """
    sym = _component_table(d)
    nc = len(_sym_pairs(d))
    rows = []

    def row(*terms):
        rows.append(_summed_blocks(nc, [(sym[i, j], t)
                                        for (i, j), t in terms]))

    tang = [(a, b) for a in range(d - 1) for b in range(a, d - 1)]
    for face in (0, 1):
        E = E_faces[face]
        sgn = 1.0 if face == 0 else -1.0
        # pullback rows
        for a, b in tang:
            row(((a, b), E))
        # dA rows: (P_d s_ab - P_a s_bd - P_b s_ad) / 2 at the face,
        # sign flipped on the upper face (inward normal -e_d)
        for a, b in tang:
            row(((a, b), sgn * 0.5 * (E @ P[d - 1])),
                ((b, d - 1), -sgn * 0.5 * (E @ P[a])),
                ((a, d - 1), -sgn * 0.5 * (E @ P[b])))
        # d(nabla_n A) rows: collar derivative of the dA field plus the
        # distance-foliation tilt (the linearized eikonal gives the
        # normal derivative of the leaf displacement as sigma_dd / 2,
        # whose tangential Hessian enters the shape-operator field)
        for a, b in tang:
            row(((a, b), 0.5 * (E @ P[d - 1] @ P[d - 1])),
                ((b, d - 1), -0.5 * (E @ P[d - 1] @ P[a])),
                ((a, d - 1), -0.5 * (E @ P[d - 1] @ P[b])),
                ((d - 1, d - 1), 0.5 * (E @ P[a] @ P[b])))
    for E in E_faces:
        for a in range(d):
            row(((a, d - 1), E))
    return _block_matrix(rows)


BOUNDARY_FAMILIES = ("pullback", "dA", "dnA", "normal")
H1_FAMILIES = ("einstein", "gauge", "pullback", "dA", "normal")


def _stack_rows(d: int, line: int, NF: int, families) -> np.ndarray:
    """Indices of the rows of the named families in the slab stack, in
    the order of ``DiscreteSystem``, with ``line`` nodes and NF face
    nodes: n^d and n^(d-1) on the full grid, n and 1 in a lateral-Fourier
    block."""
    face = [(fam, (d - 1) * d // 2 * NF) for fam in ("pullback", "dA", "dnA")]
    layout = ([("einstein", len(_sym_pairs(d)) * line), ("gauge", d * line)]
              + 2 * face + [("normal", 2 * d * NF)])
    ends = np.cumsum([size for _, size in layout])
    return np.concatenate([np.arange(end - size, end) for (fam, size), end
                           in zip(layout, ends) if fam in families])


def _boundary_weight(n: int) -> float:
    """Weight of the boundary rows of the slab system, h^(-1/2), so that
    the L^2(M)-vs-L^2(boundary) balance, and hence the singular-value
    ladder, is grid-stable; the interior and gauge rows carry 1."""
    return (1.0 / n) ** -0.5


def _slab_stack(n: int, d: int):
    """The slab stack builder: per-node rows DEin and delta B, and
    per-face-node rows, those of ``_boundary_from_P`` weighted by
    ``_boundary_weight(n)`` (see ``_block_polynomial``)."""
    bw = _boundary_weight(n)

    def stack(P, E_faces):
        EIN, GAUGE = _interior_from_P(P, d)
        return (np.concatenate([EIN, GAUGE], axis=1),
                bw * _boundary_from_P(P, E_faces, d))

    return stack


def _h0_stack(n: int, d: int):
    """The H0 stack builder: the Killing operator delta* per node, then
    the restriction of X to each face, weighted by
    ``_boundary_weight(n)``; no face rows without faces."""
    bw = _boundary_weight(n)

    def stack(P, E_faces):
        faces = [bw * _block_matrix([[E if a == b else None for b in range(d)]
                                     for a in range(d)]) for E in E_faces]
        return (_killing(P, d),
                np.concatenate(faces, axis=1) if faces else None)

    return stack


def _slab_dim(chart: MetricChart) -> int:
    """The dimension of ``chart``, which must be the flat periodic slab:
    the only background the discrete problem is posed on."""
    if chart.preset != "flat_slab_periodic":
        raise ValueError(f"the discrete problem is posed on the flat "
                         f"periodic slab, not on {chart.preset!r}; other "
                         f"presets would need lifted operators")
    return chart.dim


# ``slab_solve_cases`` and benchlab's slab-solve pass go kind by kind
# over their grids.  One ``verify --suite bvp`` run (seed 1) builds its
# three grids in 5 misses and 12 hits: the continuum study's n = 8, 12, 16
# evicts the discrete-admissible n = 16, and the divergence source's n = 8
# then misses again.  A rebuild only expands the cached polynomial: the
# two take 0.012-0.017 s of the 0.52-0.68 s suite (one BLAS thread, 2
# shared cores); a third slot would add a grid to peak memory.
@lru_cache(maxsize=2)
def _grid(n: int, d: int) -> sp.csr_matrix:
    """The weighted slab matrix on the full n^d grid, its node rows then
    its face rows: the lateral expansion (``_expand``) of
    ``_slab_polynomial``, so no stack builder runs on the n^d nodes.
    Built once per (n, d) and shared by ``assemble`` and ``make_source``,
    so its arrays are read-only."""
    matrix = _expand(_slab_polynomial(n, d), n)
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


def assemble(n: int, chart: MetricChart) -> DiscreteSystem:
    """The slab system on the full n^d grid; its matrix is ``_grid``'s,
    shared and read-only."""
    d = _slab_dim(chart)
    return DiscreteSystem(dim=d, n=n, matrix=_grid(n, d))


# ---------------------------------------------------------------------------
# sources


@dataclass
class SourceSpec:
    kind: str
    values: np.ndarray          # stacked component vector
    div_rel: float              # |delta_h T| / |T|
    boundary_rel: float         # face-extrapolated |T|, both faces, / |T|
    potential: np.ndarray | None = None


def _bivector_basis(d: int):
    return [(i, k) for i in range(d) for k in range(i + 1, d)]


def _normal_profile(n: int, lo: int, hi: int) -> np.ndarray:
    """Node profile supported exactly on cell layers [lo, hi]."""
    prof = np.zeros(n)
    for j in range(lo, hi + 1):
        t = (j - lo + 1) / (hi - lo + 2)
        prof[j] = np.sin(np.pi * t) ** 2
    return prof


def _double_curl_source(n: int, d: int, rng,
                        normal_support) -> np.ndarray:
    """tau_ij = P_k P_l phi_{ikjl} from bivector-pair potentials, with
    P_k the stencil of ``_first_derivative_1d`` along axis k: exactly
    divergence-free under those stencils."""
    N = n ** d
    P1d = [_first_derivative_1d(n, 1.0 / n, a < d - 1) for a in range(d)]

    def P(k, f):
        return _along(P1d[k], f, k, d)

    x = slab_nodes(n, d)
    bivs = _bivector_basis(d)
    prof = normal_support(x[:, -1])
    tau = np.zeros((N, d, d))
    for p, (i1, k1) in enumerate(bivs):
        for q in range(p, len(bivs)):
            i2, k2 = bivs[q]
            psi = prof * (1.0 + 0.5 * np.cos(2 * np.pi * x[:, 0]
                                             + rng.uniform(0, 2 * np.pi)))
            psi *= rng.standard_normal()
            if d > 2:
                psi *= (1.0 + 0.3 * np.sin(2 * np.pi * x[:, min(1, d - 2)]))
            # beta^p_{ik} beta^q_{jl} + beta^q_{ik} beta^p_{jl}, summed with
            # the antisymmetrizations written out; each inner P_l psi once
            for (bi, bk, bj, bl) in ((i1, k1, i2, k2), (i2, k2, i1, k1)):
                inner = [(sj, jj, P(ll, psi))
                         for sj, jj, ll in ((1.0, bj, bl), (-1.0, bl, bj))]
                for si, ii, kk in ((1.0, bi, bk), (-1.0, bk, bi)):
                    for sj, jj, dpsi in inner:
                        tau[:, ii, jj] += si * sj * P(kk, dpsi)
    return tau


# The smallest grid on which each source kind is built.  The one-sided
# collar rows of ``_first_derivative_1d`` span four nodes.  The
# discrete-admissible potential lives on the layers 7 .. n-8 and the
# divergence profile on 3 .. n-4; below these grids the layers are empty
# and the source would be 0.
SOURCE_MIN_GRID = {"discrete-admissible": 15, "continuum-admissible": 4,
                   "inadmissible-divergence": 7, "inadmissible-boundary": 4}


def make_source(n: int, chart: MetricChart, kind: str,
                seed: int = 1) -> SourceSpec:
    """Construct sources matching or violating the solvability conditions;
    a grid below the kind's ``SOURCE_MIN_GRID`` raises ``ValueError``.

    The slab matrix comes from ``_grid``, built once per (n, d): the
    discrete-admissible source is its einstein rows applied to the
    potential B^-1 tau, and ``div_rel`` is max |delta T| / max |T| with
    delta T its gauge rows applied to B^-1 T (``_b_inverse``).  The
    double-curl sources and the face diagnostic apply the 1-D stencils
    along each axis (``_along``).  The continuum-admissible source
    evaluates ``dein_closed`` on 4 lateral nodes per axis only
    (``_continuum_source``)."""
    d = _slab_dim(chart)
    if kind not in SOURCE_MIN_GRID:
        raise ValueError(f"unknown source kind {kind!r}")
    if n < SOURCE_MIN_GRID[kind]:
        raise ValueError(f"the {kind} source needs a grid >= "
                         f"{SOURCE_MIN_GRID[kind]}, not {n}")
    rng = np.random.default_rng(seed)
    pairs = _sym_pairs(d)
    matrix = _grid(n, d)

    if kind == "discrete-admissible":
        # the potential must clear the reach of the boundary rows (layers
        # <= 4 and >= n-5) plus the two-layer spread of the double curl
        lo, hi = 7, n - 8
        tau = _double_curl_source(
            n, d, rng, lambda xd: _normal_profile(n, lo, hi)[
                np.clip((xd * n - 0.5).astype(int), 0, n - 1)])
        # mu = B^{-1} tau keeps the gauge rows exactly zero
        potential = _b_inverse(vec_components(tau, pairs), d)
        values = (matrix @ potential)[:len(pairs) * n ** d]
    elif kind == "continuum-admissible":
        values = _continuum_source(n, chart, seed)
        potential = None
    elif kind == "inadmissible-divergence":
        x = slab_nodes(n, d)
        prof = _normal_profile(n, 3, n - 4)  # clear of the face stencils
        scalar = prof[np.clip((x[:, -1] * n - 0.5).astype(int), 0, n - 1)]
        scalar = scalar * (1.0 + 0.4 * np.cos(2 * np.pi * x[:, 0]))
        tvals = scalar[:, None, None] * np.eye(d)
        values = vec_components(tvals, pairs)
        potential = None
    else:  # inadmissible-boundary
        tau = _double_curl_source(n, d, rng,
                                  lambda xd: 1.0 + 0.5 * np.cos(np.pi * xd))
        values = vec_components(tau, pairs)
        # normalize so the face-center extrapolated magnitude is 1
        bnorm = _face_max(values, n, d)
        if bnorm < 1e-9:
            raise RuntimeError("boundary-violating source degenerated")
        values = values / bnorm
        potential = None

    scale = max(np.abs(values).max(), 1e-300)
    # delta T from the gauge rows alone, which are contiguous: the CSR of
    # their part of the matrix's arrays takes 8 ms at d=3, n=48, where a
    # row slice of the matrix takes 51 ms and the whole product 25 ms
    gauge = _stack_rows(d, n ** d, n ** (d - 1), ("gauge",))
    lo, hi = gauge[0], gauge[-1] + 1
    start, stop = matrix.indptr[lo], matrix.indptr[hi]
    rows = sp.csr_matrix((matrix.data[start:stop],
                          matrix.indices[start:stop],
                          matrix.indptr[lo:hi + 1] - start),
                         shape=(hi - lo, matrix.shape[1]))
    div = rows @ _b_inverse(values, d)
    return SourceSpec(kind=kind, values=values,
                      div_rel=float(np.abs(div).max() / scale),
                      boundary_rel=_face_max(values, n, d) / scale,
                      potential=potential)


def _b_inverse(values: np.ndarray, d: int) -> np.ndarray:
    """B^-1 tau = tau - tr(tau) I / (d - 2) of a stacked component vector:
    the inverse of the pointwise B sigma = sigma - tr(sigma) I / 2 that
    the gauge rows delta B apply."""
    comps = values.reshape(len(_sym_pairs(d)), -1)
    diag = _component_table(d).diagonal()
    out = comps.copy()
    out[diag] -= comps[diag].sum(axis=0) / (d - 2)
    return out.ravel()


# Lateral nodes per axis on which the continuum source is evaluated.
_CONTINUUM_NODES = 4


def _continuum_source(n: int, chart: MetricChart, seed: int) -> np.ndarray:
    """dEin of ``_continuum_potential`` at the n^d nodes, stacked.

    The potential has lateral frequencies |k_a| <= 1 and dEin on the flat
    slab has constant coefficients, so along each lateral axis the source
    is a trigonometric polynomial of degree <= 1.  ``dein_closed`` runs on
    4 lateral nodes per axis times the n collar nodes, and the
    interpolation matrix (1 + 2 cos 2 pi (x_i - y_j)) / 4 from the 4
    nodes y_j to the n nodes x_i, exact on the frequencies -1, 0 and 1
    (its only aliases are +-4), fills in each lateral axis.
    """
    d = chart.dim
    coarse = _cell_centers(_CONTINUUM_NODES)
    tvals = dein_closed(chart, _mesh([coarse] * (d - 1) + [_cell_centers(n)]),
                        _continuum_potential(d, seed), order=2)
    tvals = tvals.reshape((_CONTINUUM_NODES,) * (d - 1) + (n, d, d))
    interp = (1.0 + 2.0 * np.cos(2 * np.pi * (_cell_centers(n)[:, None]
                                              - coarse))) / _CONTINUUM_NODES
    for a in range(d - 1):
        tvals = np.moveaxis(np.tensordot(interp, tvals, axes=(1, a)), 0, a)
    return vec_components(tvals.reshape(n ** d, d, d), _sym_pairs(d))


def _continuum_potential(d: int, seed: int):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((d, d))
    coef = 0.5 * (coef + coef.T)
    ks = rng.integers(0, 2, size=(d, d, d - 1))
    upper = np.triu_indices(d)
    coef, ks = coef[upper], np.minimum(ks, np.transpose(ks, (1, 0, 2)))[upper]

    # coef x_d^3 (1 - x_d)^3: vanishes to third order at both faces
    cut3 = np.outer(coef, (0.0, 0.0, 0.0, 1.0, -3.0, 3.0, -1.0))
    w = 2 * np.pi * ks

    def fn(x, order):
        x = x[..., None, :]  # entries broadcast
        factors = {a: cos_coeffs(w[:, a], w[:, a] * x[..., a], order)
                   for a in range(d - 1)}
        factors[d - 1] = poly_coeffs(x[..., -1], cut3, order)
        return sym_from_upper(separable(d, order, factors), d)

    return Perturbation(fn, d, 3)


def _face_max(values: np.ndarray, n: int, d: int,
              faces=(0, 1)) -> float:
    """Largest face-extrapolated magnitude of a stacked component vector
    on the n^d grid, over every component and the given faces."""
    return max(float(np.abs(_along(_face_extrapolation_1d(n, face), values,
                                   d - 1, d)).max()) for face in faces)


# ---------------------------------------------------------------------------
# solves and probes


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    relative_residual: float
    block_residuals: dict
    solution_norm: float
    # smallest singular value of the blocks solved; None when no block
    # was factored
    sigma_min_estimate: float | None = None
    # modes of the solved classes whose block the SVD cut-off made
    # rank-deficient; None from a solver without blocks
    rank_deficient_blocks: int | None = None
    # class blocks factored: those holding a mode that b-hat touches;
    # None from a solver without blocks
    classes_solved: int | None = None
    schema: str = "solve-report/2"


def kernel_probe(matrix: sp.spmatrix, seed: int = 0) -> float:
    """Smallest-singular-value estimate via 60 steps of shifted inverse
    power iteration on the normal matrix, with a Rayleigh quotient against
    the unshifted normal matrix so exact kernels report near-zero.  The
    shifted normal matrix is symmetric positive definite, so SuperLU
    factors it in its symmetric mode: a minimum-degree ordering of its
    pattern and pivots on the diagonal."""
    A = matrix.tocsr()
    Nmat = (A.T @ A).tocsc()
    scale = spla.norm(Nmat, ord=1)
    shift = 1e-12 * scale
    lu = spla.splu(Nmat + shift * sp.identity(Nmat.shape[0], format="csc"),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(Nmat.shape[0])
    x /= np.linalg.norm(x)
    for _ in range(60):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
    lam = float(x @ (Nmat @ x))
    return float(np.sqrt(max(lam, 0.0)))


# ---------------------------------------------------------------------------
# lateral-Fourier blocks

# Largest |Im x| / max |x| accepted from the inverse DFT of the solve; the
# phased solutions of the modes k and -k are conjugate up to roundoff.
_IMAG_TOL = 1e-10


class _Polynomial(NamedTuple):
    """The lateral-Fourier blocks as a real polynomial in t_a = sin(2 pi
    k_a / n): sum_e t^e coef[e] is the block of mode k with row r scaled
    by i^(-row_parity[r]) and column c by i^(col_parity[c]).  row_axes
    (m x rows) and col_axes (m x cols) hold the parity of each row and
    column under the reflection of each lateral axis alone; row_parity
    and col_parity are their sums mod 2 (see ``_block_polynomial``).
    Each column component and node-row family runs along a collar line
    of ``line`` nodes; the rows from ``nodes`` on are face rows."""
    terms: tuple
    coef: np.ndarray
    row_parity: np.ndarray
    col_parity: np.ndarray
    row_axes: np.ndarray
    col_axes: np.ndarray
    line: int
    nodes: int


def _phase_flip(terms, row: np.ndarray, col: np.ndarray) -> np.ndarray:
    """(terms, rows, cols) mask of the entries whose phase i^(|e| + p_c -
    p_r) is -1, where the exponent is 2 mod 4 (see ``_block_polynomial``)."""
    deg = np.array([len(e) for e in terms])[:, None, None]
    return (deg + col - row[:, None]) % 4 == 2


def _block_polynomial(n: int, d: int, stack, unknowns,
                      closed_torus: bool = False) -> _Polynomial:
    """A lateral-Fourier block of ``stack`` as a real polynomial in the
    symbols.

    ``stack(P, E_faces)`` builds (per-node rows, per-face-node rows or
    None) from a commuting derivative family P and face rows, batched
    over a points axis; its columns are the components ``unknowns``
    (index tuples) of the unknown field.  In the block of lateral mode k
    each lateral P_a is i t_a / h times the identity, with t_a = sin(2 pi
    k_a / n); the collar P (absent on the closed torus, where all d axes
    are lateral) is the collar line's stencil.  Every row of the slab
    system has degree <= 2 in the P's (the interior rows through the
    Laplacian and delta* delta B, the boundary rows through E P_d P_a and
    E P_a P_b), so with u_a / h in place of each lateral P_a

        A(u) = A0 + sum_a u_a L_a + sum_{a<=b} u_a u_b Q_ab

    holds exactly, and its values at the 1 + 2m + m(m-1)/2 points u = 0,
    +-e_a and e_a + e_b (a < b) determine it.  One batched build gives
    them all: P_a = (u_a / h) I at each point, the collar P the dense 1-D
    stencil and the face rows the dense 1-D extrapolation rows, arrays of
    shape (points or 1, rows, cols).  No operator is derived a second
    time, and no builder sees more than a collar line: the full-grid
    matrix is the lateral expansion of the polynomial (``_expand``).

    The coefficients are real, and u = i t.  The operators commute with
    the reflection of each lateral axis a, which flips u_a and the sign
    of each tensor component with an odd number p_a of indices a.  So a
    term u^e can couple row r to column c only when e_a + p_a(c) - p_a(r)
    is even for every a, with e_a the number of a's in e.  Summed over
    the axes, |e| + p_c - p_r is even, with p the number of lateral
    indices mod 2, and then i^(|e| + p_c - p_r) is +1 or -1: scaling row
    r by i^(-p_r) and column c by i^(p_c) makes every block real.  The
    column parities come from ``unknowns``; each row takes, per axis, the
    parity its coefficients demand, and a coefficient that demands the
    other one raises ``ValueError``.
    """
    h = 1.0 / n
    m = d if closed_torus else d - 1
    line = 1 if closed_torus else n
    eye = np.eye(m)
    U = np.array([np.zeros(m), *eye, *-eye,
                  *(eye[a] + eye[b] for a in range(m)
                    for b in range(a + 1, m))])
    q = len(U)
    P = [(U[:, a] / h)[:, None, None] * np.eye(line) for a in range(m)]
    E_faces = []
    if not closed_torus:
        P.append(_first_derivative_1d(n, h, False).toarray()[None])
        E_faces = [_face_extrapolation_1d(n, face).toarray()[None]
                   for face in (0, 1)]
    nodes, faces = stack(P, E_faces)
    blocks = nodes if faces is None else np.concatenate(
        [nodes, np.broadcast_to(faces, (q,) + faces.shape[1:])], axis=1)

    A0, plus, minus = blocks[0], blocks[1:1 + m], blocks[1 + m:1 + 2 * m]
    mixed = iter(blocks[1 + 2 * m:])
    terms = [()] + [(a,) for a in range(m)]
    coef = [A0] + [0.5 * (plus[a] - minus[a]) for a in range(m)]
    for a in range(m):
        for b in range(a, m):
            terms.append((a, b))
            coef.append(0.5 * (plus[a] + minus[a]) - A0 if a == b else
                        next(mixed) - plus[a] - plus[b] + A0)
    coef = np.stack(coef)
    # The mixed differences cancel exact zeros only to roundoff (3.6e-15,
    # 2e-17 of the largest coefficient, at d=4, n=4), and the per-axis
    # gate below would read such a remainder as a coupling.  The smallest
    # true coefficient is 13 orders above the cut (1.2e-4 of the largest
    # at d=3, n=24).
    coef[np.abs(coef) <= 1e-12 * np.abs(coef).max()] = 0.0

    nonzero = coef != 0
    col_axes = np.repeat([[comp.count(a) % 2 for comp in unknowns]
                          for a in range(m)], line, axis=1)
    row_axes = np.empty((m, coef.shape[1]), dtype=int)
    for a in range(m):
        odd = (np.array([e.count(a) for e in terms])[:, None, None]
               + col_axes[a]) % 2 == 1
        row_axes[a] = np.any(nonzero & odd, axis=(0, 2))
        if np.any(row_axes[a] & np.any(nonzero & ~odd, axis=(0, 2))):
            raise ValueError("a block coefficient breaks the lateral "
                             "parity grading, so no diagonal phase makes "
                             "it real")
    row, col = row_axes.sum(axis=0) % 2, col_axes.sum(axis=0) % 2
    return _Polynomial(tuple(terms),
                       np.where(_phase_flip(terms, row, col), -coef, coef),
                       row, col, row_axes, col_axes, line, nodes.shape[1])


def _expand(poly: _Polynomial, n: int) -> sp.csr_matrix:
    """The full-grid matrix whose lateral-Fourier blocks ``poly`` holds.

    Lateral translation invariance makes the matrix block-circulant in
    the lateral axes, and on the full grid each lateral P_a is (S_a -
    S_a^-1) / (2h), with S_a the shift by one node along axis a.  So

        A = sum_e prod_{a in e} (S_a - S_a^-1) / 2  (x)  coef_e

    with coef_e the unphased coefficient of term e: a block M_delta for
    each lateral offset delta (mod n, so that the offsets +-2 of n=4
    coincide), whose weights are multiples of 1/4 and exact.  The CSR
    arrays are written directly in the layout of ``DiscreteSystem``:
    node rows (family, lateral node, collar node), then face rows (face
    row, lateral node), and columns (component, lateral node, collar
    node); within a row the entries run by component, offset and collar
    node, so the column indices are not sorted.  An entry is stored where
    its M_delta entry is not zero.
    """
    _, R, C = poly.coef.shape
    m, line = len(poly.row_axes), poly.line
    lateral = n ** m
    coef = np.where(_phase_flip(poly.terms, poly.row_parity,
                                poly.col_parity), -poly.coef, poly.coef)
    offset_blocks = {}
    for e, c in zip(poly.terms, coef):
        # the lateral factor of term e: one shift per sign choice
        weights = {}
        for signs in product((1, -1), repeat=len(e)):
            delta = np.zeros(m, dtype=int)
            np.add.at(delta, list(e), signs)
            delta = tuple(delta % n)
            weights[delta] = (weights.get(delta, 0.0)
                              + np.prod(signs) / 2 ** len(e))
        for delta, w in weights.items():
            if w:
                offset_blocks[delta] = offset_blocks.get(delta, 0.0) + w * c
    offsets = np.array(list(offset_blocks))
    M = np.stack(list(offset_blocks.values()))
    # the stored entries of each block row, by component, offset and
    # collar node
    r, comp, k, j = np.nonzero(
        M.reshape(len(M), R, C // line, line).transpose(1, 2, 0, 3))
    vals = M[k, r, comp * line + j]
    counts = np.bincount(r, minlength=R)
    starts = np.concatenate([[0], np.cumsum(counts)])
    nnz = lateral * r.size
    index = np.int32 if max(nnz, lateral * C) < 2 ** 31 else np.int64
    # flat lateral index of node L + delta for every node L and offset
    nodes = np.indices((n,) * m).reshape(m, lateral, 1)
    target = np.ravel_multi_index(tuple(nodes + offsets.T[:, None, :]),
                                  (n,) * m, mode="wrap").astype(index)
    base = (comp * (lateral * line) + j).astype(index)
    # row groups in the global order: each node-row family (line rows),
    # then each face row
    groups = ([(f, line) for f in range(0, poly.nodes, line)]
              + [(f, 1) for f in range(poly.nodes, R)])
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    lengths = []
    for first, height in groups:
        s0, s1 = starts[first], starts[first + height]
        span = slice(lateral * s0, lateral * s1)
        out = indices[span].reshape(lateral, s1 - s0)
        np.multiply(target[:, k[s0:s1]], line, out=out)
        out += base[s0:s1]
        data[span].reshape(lateral, s1 - s0)[:] = vals[s0:s1]
        lengths.append(np.tile(counts[first:first + height], lateral))
    indptr = np.zeros(lateral * R + 1, dtype=index)
    np.cumsum(np.concatenate(lengths), out=indptr[1:])
    return sp.csr_matrix((data, indices, indptr),
                         shape=(lateral * R, lateral * C))


# A polynomial takes J R C doubles, 6.3 MB at d=3, n=48.  Eight grids
# hold every (n, d) that one ``verify --suite bvp`` run solves on.
@lru_cache(maxsize=8)
def _slab_polynomial(n: int, d: int) -> _Polynomial:
    """``_block_polynomial`` of the slab stack of ``assemble``, built
    once per (n, d) and shared by every caller, so its arrays are
    read-only."""
    poly = _block_polynomial(n, d, _slab_stack(n, d), _sym_pairs(d))
    for array in poly[1:6]:
        array.flags.writeable = False
    return poly


def _class_count(n: int) -> int:
    """Number of distinct |sin(2 pi k / n)| over k = 0 .. n-1."""
    return n // 4 + 1 if n % 2 == 0 else (n + 1) // 2


def _symbol_classes(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(representative, negated axes) of every lateral mode.

    Modes run over (k_0, ..., k_{m-1}) in ``itertools.product`` order,
    which is also the C order of the lateral axes of an ``np.fft.fftn``.
    t = sin(2 pi k / n) changes sign from k to n - k and, on even n, is
    the same at k and n/2 - k; so |t_a| takes ``_class_count(n)``
    values, those of k_a = j = 0, 1, ..., and t_a is negative exactly
    where 2 k_a > n.  The representative of a mode is the index of its
    (j_0, ..., j_{m-1}) in product order over the classes.
    """
    k = np.indices((n,) * m).reshape(m, -1)
    j = np.minimum(k, n - k)
    if n % 2 == 0:
        j = np.minimum(j, n // 2 - j)
    return (np.ravel_multi_index(tuple(j), (_class_count(n),) * m),
            (2 * k > n).T)


def _reflect(v: np.ndarray, axis_parity: np.ndarray,
             negated: np.ndarray) -> None:
    """Scale row i of each mode's v (modes x rows or columns) by
    (-1)^axis_parity[a, i] for every axis a that the mode negates, in
    place: the diagonal that maps the block of its representative to the
    block of the mode, on that side."""
    for a, parity in enumerate(axis_parity):
        np.multiply(v, 1 - 2 * parity, out=v, where=negated[:, a, None])


def _fourier_blocks(poly: _Polynomial, n: int, classes: np.ndarray):
    """Yield the real lateral-Fourier block (rows, cols) of each class in
    ``classes`` (representatives of ``_symbol_classes``), in that order:
    sum_e w_e coef[e], with the symbol weights w_e = prod_{a in e} t_a of
    every class computed at once."""
    J, R, C = poly.coef.shape
    m = len(poly.row_axes)
    K = _class_count(n)
    t = np.sin(2 * np.pi * np.arange(K) / n)
    symbols = t[np.array(np.unravel_index(classes, (K,) * m)).T]
    W = np.stack([np.prod(symbols[:, list(e)], axis=1)
                  for e in poly.terms], axis=1)
    flat = poly.coef.reshape(J, -1)
    for w in W:
        yield (w @ flat).reshape(R, C)


def _spectrum(poly: _Polynomial, n: int) -> np.ndarray:
    """The singular values of every mode's block of ``poly``, ascending:
    one SVD per class, since the reflections that map a class's block to
    each of its modes' blocks leave the singular values unchanged."""
    m = len(poly.row_axes)
    svals = [np.linalg.svd(block, compute_uv=False) for block in
             _fourier_blocks(poly, n, np.arange(_class_count(n) ** m))]
    return np.sort(np.array(svals)[_symbol_classes(n, m)[0]].ravel())


def lateral_block_svals(n: int, d: int) -> dict:
    """Exact singular spectrum via lateral Fourier block diagonalization.

    All operators are lateral-translation invariant, so conjugating by the
    lateral DFT splits the system into n^(d-1) collar-line blocks in which
    each lateral derivative becomes the scalar symbol i sin(2 pi k / n) n.
    The blocks of one class of |sin| share their singular values, so each
    class is factored once (``_spectrum``).
    Returns {"spectrum": the ascending global spectrum}.  Serves as an
    independent oracle for the sparse kernel probes at any resolution.
    """
    return {"spectrum": _spectrum(_slab_polynomial(n, d), n)}


def _h0_polynomial(n: int, d: int, closed_torus: bool = False
                   ) -> _Polynomial:
    """``_block_polynomial`` of ``_h0_stack``, over the vector field X."""
    return _block_polynomial(n, d, _h0_stack(n, d), [(a,) for a in range(d)],
                             closed_torus)


def _h1_polynomial(n: int, d: int) -> _Polynomial:
    """The rows of the H1 operator in ``_slab_polynomial``: interior,
    gauge, pullback, dA and sigma(n, .), no normal-derivative data."""
    keep = _stack_rows(d, n, 1, H1_FAMILIES)
    poly = _slab_polynomial(n, d)
    return poly._replace(coef=poly.coef[:, keep],
                         row_parity=poly.row_parity[keep],
                         row_axes=poly.row_axes[:, keep])


def h0_spectrum(n: int, d: int, closed_torus: bool = False) -> np.ndarray:
    """Exact spectrum of the H0 operator via lateral Fourier blocks (on the
    closed torus, Fourier modes in all d axes)."""
    return _spectrum(_h0_polynomial(n, d, closed_torus), n)


def h1_spectrum(n: int, d: int) -> np.ndarray:
    """Exact spectrum of the middle-cohomology operator via Fourier
    blocks (rows as in ``_h1_polynomial``)."""
    return _spectrum(_h1_polynomial(n, d), n)


def solve_least_squares(system: DiscreteSystem, source: SourceSpec
                        ) -> tuple[np.ndarray, SolveReport]:
    """Min-norm least squares on the weighted stack, one real lateral-
    Fourier block per symbol class that the right-hand side touches.

    The unitary lateral DFT of each row family of b, with the row phases
    of ``_block_polynomial``, gives the right-hand side of each real
    block.  The min-norm solutions of the blocks (by SVD, with cut-off
    eps max(rows, cols) sigma_max of the block), with the column phases
    and the inverse DFT, are the min-norm least-squares solution of the
    whole system.  A mode with |b-hat_k| <= eps max(rows, cols) |b| is
    silent: its min-norm solution is roundoff divided by sigma_min, so it
    keeps x-hat_k = 0, and only the classes with a non-silent mode are
    factored.  The block of a mode is D_r B D_c, with B the block of its
    class of |t| and D_r, D_c the +-1 diagonals of the reflection of the
    axes it negates (``_symbol_classes``, ``_reflect``).  So one SVD
    B = U S V^T per class solves every mode of the class, each as more
    right-hand sides: x = D_c V S^+ U^T D_r b.  The classes are factored
    one at a time.  b is real, so x is real up to roundoff; anything more
    raises ``RuntimeError``.  The residual is recomputed from
    ``system.matrix``.  ``classes_solved`` counts the class blocks
    factored; ``sigma_min_estimate`` is the exact smallest singular value
    of those blocks (None when there are none, for b = 0), and
    ``rank_deficient_blocks`` counts the modes of those classes whose
    block the cut-off truncated.  A direct solve: ``converged`` is always
    True and ``iterations`` 0.
    """
    d, n = system.dim, system.n
    m = d - 1
    lateral = tuple(range(1, d))
    poly = _slab_polynomial(n, d)
    _, R, C = poly.coef.shape
    b = system.rhs_from_einstein_block(source.values)
    # block rows: each interior and gauge component along the collar line,
    # then one row per boundary family.  b is zero outside the einstein
    # rows, which come first, so only the source is transformed
    cols = len(_sym_pairs(d)) * n
    bhat = np.zeros((n ** m, R), dtype=complex)
    bhat[:, :cols] = np.moveaxis(np.fft.fftn(
        source.values.reshape((-1,) + (n,) * d), axes=lateral, norm="ortho"),
        0, m).reshape(n ** m, cols)
    bhat *= np.where(poly.row_parity, -1j, 1)
    rep, negated = _symbol_classes(n, m)
    tol = np.finfo(float).eps * max(R, C)
    classes = np.unique(rep[np.linalg.norm(bhat, axis=1)
                            > tol * np.linalg.norm(b)])
    _reflect(bhat, poly.row_axes, negated)
    xhat = np.zeros((n ** m, C), dtype=complex)
    # real blocks: the real and imaginary parts of each mode are two
    # right-hand sides
    rhs = bhat.view(float).reshape(n ** m, R, 2)
    sol = xhat.view(float).reshape(n ** m, C, 2)
    sigma_min, deficient = [], 0
    for cls, block in zip(classes, _fourier_blocks(poly, n, classes)):
        U, s, Vh = np.linalg.svd(block, full_matrices=False)
        modes = np.flatnonzero(rep == cls)
        keep = (s > tol * s[0])[:, None]
        y = rhs[modes].transpose(1, 0, 2).reshape(R, -1)
        c = np.divide(U.T @ y, s[:, None], out=np.zeros((C, y.shape[1])),
                      where=keep)
        sol[modes] = (Vh.T @ c).reshape(C, -1, 2).transpose(1, 0, 2)
        sigma_min.append(float(s[-1]))
        deficient += 0 if keep.all() else modes.size
    _reflect(xhat, poly.col_axes, negated)
    xhat *= np.where(poly.col_parity, 1j, 1)
    x = np.fft.ifftn(np.moveaxis(xhat.reshape((n,) * m + (-1, n)), m, 0),
                     axes=lateral, norm="ortho").ravel()
    imag = float(np.abs(x.imag).max())
    if imag > _IMAG_TOL * max(float(np.abs(x).max()), 1e-300):
        raise RuntimeError(f"Fourier solve: imaginary part {imag:.1e} of x "
                           f"is above roundoff")
    x = x.real.copy()
    r = system.matrix @ x - b
    return x, SolveReport(
        converged=True,
        iterations=0,
        relative_residual=float(np.linalg.norm(r)
                                / max(np.linalg.norm(b), 1e-300)),
        block_residuals=system._residual_blocks(r, source.values),
        solution_norm=float(np.linalg.norm(x)),
        sigma_min_estimate=min(sigma_min, default=None),
        rank_deficient_blocks=deficient,
        classes_solved=len(classes),
    )


def deflated_gap(n: int, d: int) -> tuple[float, int]:
    """(smallest singular value beyond the kernel, kernel dimension) from
    the exact lateral-Fourier spectrum."""
    return spectral_gap(lateral_block_svals(n, d)["spectrum"])


def spectral_gap(spec, zero_tol: float = 1e-10) -> tuple[float, int]:
    """(smallest singular value beyond the kernel, kernel dimension) of an
    ascending spectrum; the kernel is the values below zero_tol * max."""
    scale = spec[-1]
    nkernel = int(np.sum(spec < zero_tol * scale))
    return float(spec[nkernel]), nkernel


def cohomology_probe(n: int, chart: MetricChart,
                     closed_torus: bool = False) -> dict:
    """Counts of near-kernel directions of the H0 and H1 operators, and
    the images of the translations under H0.

    Counting runs on the exact lateral-Fourier spectra, with kernel
    threshold 1e-6 times the largest singular value.  A translation X =
    e_i lies on lateral mode 0, and the lateral DFT is unitary, so
    |H0 X| / |X| is |A_0 (e_i x 1)| / sqrt(line) for the mode-0 block A_0
    (the t = 0 coefficient of ``_h0_polynomial``, whose phases are
    unitary) over a collar line of ``line`` nodes: n on the slab, 1 on the
    closed torus.  On the closed torus the translations lie in the
    kernel; the boundary rows remove them.  One H0 polynomial serves the
    spectrum and the translations.
    """
    d = _slab_dim(chart)
    h0 = _h0_polynomial(n, d, closed_torus)
    out = {"dim_h0": spectral_gap(_spectrum(h0, n), 1e-6)[1]}
    A0 = h0.coef[0]
    line = A0.shape[1] // d
    out["translation_image_norms"] = (
        np.linalg.norm(A0.reshape(-1, d, line).sum(axis=2), axis=0)
        / np.sqrt(line)).tolist()
    if closed_torus:
        out["dim_h1"] = None
        return out
    gap1, out["dim_h1"] = spectral_gap(h1_spectrum(n, d), 1e-6)
    out["h1_gap_beyond_kernel"] = gap1
    return out
