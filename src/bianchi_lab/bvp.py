"""Finite-difference probe of the gauged linearized Einstein boundary-value
problem on the flat periodic slab.

Every operator is a coefficient table C_alpha (``_symbol`` layout: terms
alpha of degree <= 2 over the d axes, rows, columns), the coefficient of
the derivative d^alpha.  The interior rows DEin, the gauge rows delta B,
delta* and B^-1 are read off the jet route: ``_symbol`` applies
``linearize.dein_closed_jets``, ``charts.divergence`` of
``charts.bianchi_b``, ``charts.killing`` and ``charts.bianchi_b_inverse``
to polynomial basis fields, which gives their constant coefficients on
the flat slab.  The boundary rows (``_boundary_symbols``) are the only
table written here.

Every operator is invariant under lateral translation, so the lateral DFT
splits it into one collar-line block per lateral mode, a polynomial of
degree <= 2 in the lateral symbols i t_a, made real by a diagonal phase
in ``_fourier_blocks``.  ``_block_polynomial`` reads its coefficients
off the tables on the collar it is given, which enters only as a first
difference D, its square, face rows E and a boundary weight:
``_collar(n)``, one read-only value per grid that every slab reader
shares, or ``_periodic_collar(n)``, the closed torus's last axis.  D and
the lateral symbols come from one commuting family of first-derivative
operators, so flat-background polynomial identities -- the gauged
divergence of the interior operator vanishing, and the interior operator
annihilating Killing deformations -- hold exactly at the matrix level.
That exactness is what makes "discrete-admissible" sources solvable to
solver tolerance rather than discretization accuracy.

The same invariance makes the full-grid matrix block-circulant in the
lateral axes: ``_expand`` writes its CSR from the polynomial, and
``_grid`` does so once per (n, d) and process for the weighted slab
matrix, the one full-grid operator, read-only.  ``assemble`` hands it to
the solve's residual, the oracles and ``kernel_probe``.  ``make_source``
reads its einstein rows for the discrete-admissible source and its gauge
rows for every source's divergence (delta T is the gauge rows applied to
B^-1 T), and differentiates the double-curl sources with the collar's D
and the lateral central difference of ``_expand``.  The spectra and
``cohomology_probe`` read only the blocks and load no scipy module.
Only the functions that build a sparse matrix import scipy.sparse:
``_expand`` and ``_family_rows``.  ``kernel_probe`` imports
scipy.sparse.csgraph for its band ordering and scipy.linalg for its
banded Cholesky.
The continuum-admissible source is evaluated on 4 lateral nodes per axis
and interpolated exactly, as it has lateral frequencies |k_a| <= 1.

The operators also commute with the reflection of each lateral axis, and
t_a = sin(2 pi k_a / n) is the same for k_a and n/2 - k_a, so every block
is +-1 diagonals times the block of its class of |t|
(``_symbol_classes``).  The exact spectra factor one real block per
class, and the one least-squares solver, ``solve_least_squares`` (a
direct SVD solve), one per class that the lateral DFT of the right-hand
side touches: at most 2^(d-1) at any n.  LSMR, a per-mode dense solve and
the dense SVD of the assembled matrix are their oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .charts import (
    MetricChart,
    bianchi_b,
    bianchi_b_inverse,
    divergence,
    geometry_from_jets,
    killing,
    make_chart,
    sym_from_upper,
)
from .jets import Jet, cos_coeffs, poly_coeffs, separable
from .linearize import Perturbation, dein_closed, dein_closed_jets
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


class _Collar(NamedTuple):
    """An n-node collar: D (n, n), face rows E (faces, n), weight."""
    D: np.ndarray
    E: np.ndarray
    weight: float


@lru_cache(maxsize=None)
def _collar(n: int) -> _Collar:
    """The finite-difference collar of n nodes, built once and read-only:
    D the central first difference with third-order one-sided end rows
    (compositions stay second-order accurate), E the quadratic
    extrapolation to face 0 and face 1 from the three nearest nodes, and
    the boundary weight h^(-1/2), which keeps the singular-value ladder
    grid-stable.  The only place the collar is decided: the blocks, the
    double-curl sources, ``_face_max`` and the boundary residual share
    one D, and the exact discrete identities rest on that."""
    h = 1.0 / n
    D = 0.5 * (np.eye(n, k=1) - np.eye(n, k=-1))
    D[0, :4], D[-1, -4:] = np.array([[-11.0, 18.0, -9.0, 2.0],
                                     [-2.0, 9.0, -18.0, 11.0]]) / 6.0
    D *= 1 / h  # times 1/h, not / h: the blocks' bits rest on this rounding
    E = np.zeros((2, n))
    E[0, :3] = E[1, :-4:-1] = np.array([15.0, -10.0, 3.0]) / 8.0
    D.flags.writeable = E.flags.writeable = False
    return _Collar(D, E, h ** -0.5)


@lru_cache(maxsize=None)
def _periodic_collar(n: int) -> _Collar:
    """The closed torus's last axis as an n-node collar, read-only: D =
    (S - S^-1) / 2h with S the shift by one node, no face rows, weight 1."""
    S = np.roll(np.eye(n), 1, axis=1)
    D, E = (S - S.T) / (2.0 / n), np.zeros((0, n))
    D.flags.writeable = E.flags.writeable = False
    return _Collar(D, E, 1.0)


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
    within a row).  Each row family is a coefficient table, and the
    collar enters A only as ``_collar``'s D, D^2 and face rows E D^k
    (``_block_polynomial``).

    Rows, in blocks of N = n^d node rows or NF = n^(d-1) face-node rows
    (``_stack_rows`` names the families): "einstein", DEin, one block of
    N per component of ``_sym_pairs(dim)``; "gauge", delta B, d blocks
    of N; then the rows of ``_boundary_symbols`` weighted by the
    collar's weight: per face (d-1)d/2 blocks of NF for each of
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
                "boundary": rel(BOUNDARY_FAMILIES) / _collar(self.n).weight}


def _terms(m: int) -> list:
    """Multi-indices of degree <= 2 in m axes: (), (a,), (a, b) for a <= b."""
    return ([()] + [(a,) for a in range(m)]
            + [(a, b) for a in range(m) for b in range(a, m)])


def _gauge(geom, field):
    """The gauge operator delta B on the jet route."""
    return divergence(geom, bianchi_b(geom, field))


@lru_cache(maxsize=None)
def _flat_geometry(d: int):
    """The flat slab's order-2 geometry at the point ``_symbol`` reads."""
    return geometry_from_jets(make_chart("flat_slab_periodic", d)
                              .metric_jets(np.full((1, d), 0.5), 2))


@lru_cache(maxsize=None)
def _symbol(d: int, operator) -> np.ndarray:
    """The coefficients C_e, (terms, rows, cols), of a jet-route operator
    (geom, field) -> jet, of order <= 2, on the flat slab: C_e[r, c]
    multiplies d^e on component c in row r, for the terms e of
    ``_terms(d)``, with rows and columns over ``_sym_pairs(d)`` or over
    the d components of a vector (X for ``killing``).  The operator runs
    on the basis fields x^e / e! times each unit component, as order-2
    jets at one point, where d^e' x^e / e! is 1 for e' = e and 0 else: so
    the values are C_e, exact, and constant on the flat slab."""
    terms = _terms(d)
    # x^e / e! per term: its normalized Taylor coefficient at e is 1 / e!
    mono = Jet.const(d, 2, np.zeros(len(terms)))
    for t, e in enumerate(terms):
        mono.coeff(tuple(np.bincount(e, minlength=d)))[t] = (
            0.5 if len(set(e)) < len(e) else 1.0)
    pairs = tuple(np.array(_sym_pairs(d)).T)
    units = np.eye(d) if operator is killing else 1.0 * (
        _component_table(d) == np.arange(len(pairs[0]))[:, None, None])
    basis = np.moveaxis(np.multiply.outer(mono.c, units), 1, -1)
    values = operator(_flat_geometry(d), Jet(
        d, 2, basis.reshape((-1,) + basis.shape[2:]))).value
    if values.ndim == 3:
        values = values[:, pairs[0], pairs[1]]
    symbol = values.reshape(len(terms), len(units), -1).transpose(0, 2, 1)
    symbol.flags.writeable = False  # shared by every caller
    return symbol


def _boundary_symbols(d: int) -> tuple:
    """The boundary rows as ``_symbol`` tables (exact flat-slab forms),
    (face 0, face 1, normal): per face the pullback, the linearized second
    fundamental form dA and its normal derivative d(nabla_n A), dA's sign
    flipped on face 1 (inward normal -e_d); then the normal restriction
    sigma(n, .), one table for both faces.

    The last family completes the Cauchy data: the first three are
    geometric data of each face, blind to the constant deformations
    dx_a . dx_d and dx_d^2 that move a face by an isometry (see
    DECISIONS.md, "slab kernel").  They are written here, not read off the
    jet route, which has no exact linearization of the boundary data
    (DECISIONS.md, "One DEin").
    """
    terms, sym, c = _terms(d), _component_table(d), d - 1
    tang = [(a, b) for a in range(c) for b in range(a, c)]

    def table(rows):
        # rows of ((i, j), e, w): w d^e on component sigma_ij
        out = np.zeros((len(terms), len(rows), len(_sym_pairs(d))))
        for r, row in enumerate(rows):
            for (i, j), e, w in row:
                out[terms.index(e), r, sym[i, j]] += w
        return out

    def geometric(sgn):
        # dA: (d_d s_ab - d_a s_bd - d_b s_ad) / 2; d(nabla_n A): its
        # collar derivative plus the distance-foliation tilt (the
        # linearized eikonal gives the normal derivative of the leaf
        # displacement as sigma_dd / 2, whose tangential Hessian enters
        # the shape-operator field)
        return table([[((a, b), (), 1.0)] for a, b in tang]
                     + [[((a, b), (c,), sgn / 2), ((b, c), (a,), -sgn / 2),
                         ((a, c), (b,), -sgn / 2)] for a, b in tang]
                     + [[((a, b), (c, c), 0.5), ((b, c), (a, c), -0.5),
                         ((a, c), (b, c), -0.5), ((c, c), (a, b), 0.5)]
                        for a, b in tang])

    return (geometric(1.0), geometric(-1.0),
            table([[((a, c), (), 1.0)] for a in range(d)]))


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


def _slab_dim(chart: MetricChart) -> int:
    """The dimension of ``chart``, which must be the flat periodic slab:
    the only background the discrete problem is posed on."""
    if chart.preset != "flat_slab_periodic":
        raise ValueError(f"the discrete problem is posed on the flat "
                         f"periodic slab, not on {chart.preset!r}; other "
                         f"presets would need lifted operators")
    return chart.dim


# Two slots: a rebuild only expands the cached polynomial (12-17 ms per
# ``verify --suite bvp`` run, one BLAS thread, 2 shared cores), and a
# third slot would add a grid to peak memory.
@lru_cache(maxsize=2)
def _grid(n: int, d: int) -> sp.csr_matrix:
    """The weighted slab matrix on the full n^d grid, its node rows then
    its face rows: the lateral expansion (``_expand``) of
    ``_slab_polynomial``, so no operator is built on the n^d nodes.
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
                        layers: np.ndarray) -> np.ndarray:
    """tau_ij = P_k P_l phi_{ikjl} from bivector-pair potentials with the
    collar factor ``layers`` (one value per layer), P_k the slab matrix's
    first difference along axis k: ``_collar``'s D on the collar, (S_k -
    S_k^-1) / 2h on a lateral axis, S_k the shift by one node.  So the
    gauge rows annihilate tau exactly."""
    N = n ** d
    D = _collar(n).D

    def P(k, f):
        if k == d - 1:  # the collar is the fastest axis of ``slab_nodes``
            return (f.reshape(-1, n) @ D.T).ravel()
        g = f.reshape((n,) * d)
        return ((np.roll(g, -1, k) - np.roll(g, 1, k)) * (n / 2)).ravel()

    x = slab_nodes(n, d)
    bivs = _bivector_basis(d)
    prof = np.tile(layers, n ** (d - 1))
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
# rows of ``_collar``'s D span four nodes.  The discrete-admissible
# double-curl potential lives on the layers 7 .. n-8 and the divergence
# profile on 3 .. n-4; below these grids the layers are empty and the
# source would be 0.
SOURCE_MIN_GRID = {"discrete-admissible": 15, "continuum-admissible": 4,
                   "inadmissible-divergence": 7, "inadmissible-boundary": 4}


def make_source(n: int, chart: MetricChart, kind: str,
                seed: int = 1) -> SourceSpec:
    """Construct sources matching or violating the solvability conditions;
    a grid below the kind's ``SOURCE_MIN_GRID`` raises ``ValueError``.
    The discrete-admissible source is ``_grid``'s einstein rows applied
    to the potential B^-1 tau, and ``div_rel`` is max |delta T| / max |T|
    with delta T its gauge rows applied to B^-1 T (``_b_inverse``)."""
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
        tau = _double_curl_source(n, d, rng, _normal_profile(n, lo, hi))
        # mu = B^{-1} tau keeps the gauge rows exactly zero
        potential = _b_inverse(vec_components(tau, pairs), d)
        values = _family_rows(matrix, d, n, "einstein") @ potential
    elif kind == "continuum-admissible":
        values = _continuum_source(n, chart, seed)
        potential = None
    elif kind == "inadmissible-divergence":
        # the profile is clear of the face stencils
        scalar = np.tile(_normal_profile(n, 3, n - 4), n ** (d - 1)) * (
            1.0 + 0.4 * np.cos(2 * np.pi * slab_nodes(n, d)[:, 0]))
        tvals = scalar[:, None, None] * np.eye(d)
        values = vec_components(tvals, pairs)
        potential = None
    else:  # inadmissible-boundary
        tau = _double_curl_source(
            n, d, rng, 1.0 + 0.5 * np.cos(np.pi * _cell_centers(n)))
        values = vec_components(tau, pairs)
        # normalize so the face-center extrapolated magnitude is 1
        bnorm = _face_max(values, n)
        if bnorm < 1e-9:
            raise RuntimeError("boundary-violating source degenerated")
        values = values / bnorm
        potential = None

    scale = max(np.abs(values).max(), 1e-300)
    div = _family_rows(matrix, d, n, "gauge") @ _b_inverse(values, d)
    return SourceSpec(kind=kind, values=values,
                      div_rel=float(np.abs(div).max() / scale),
                      boundary_rel=_face_max(values, n) / scale,
                      potential=potential)


def _family_rows(matrix: sp.csr_matrix, d: int, n: int,
                 family: str) -> sp.csr_matrix:
    """The rows of one contiguous row family of the full-grid ``matrix``
    as a CSR on views of its arrays.  A CSR product sums each row in
    stored order, so it gives the bits of the whole product's rows: for
    the gauge rows it takes 8 ms at d=3, n=48, where a row slice of the
    matrix takes 51 ms and the whole product 25 ms."""
    import scipy.sparse as sp

    rows = _stack_rows(d, n ** d, n ** (d - 1), (family,))
    lo, hi = rows[0], rows[-1] + 1
    start, stop = matrix.indptr[lo], matrix.indptr[hi]
    return sp.csr_matrix((matrix.data[start:stop],
                          matrix.indices[start:stop],
                          matrix.indptr[lo:hi + 1] - start),
                         shape=(hi - lo, matrix.shape[1]))


def _b_inverse(values: np.ndarray, d: int) -> np.ndarray:
    """B^-1 tau of a stacked component vector, by its ``_symbol``: the
    inverse of the pointwise trace reversal B that the gauge rows delta B
    apply."""
    return (_symbol(d, bianchi_b_inverse)[0]
            @ values.reshape(len(_sym_pairs(d)), -1)).ravel()


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
                        _continuum_potential(d, seed))
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

    return Perturbation(fn, d)


def _face_max(values: np.ndarray, n: int) -> float:
    """Largest face-extrapolated magnitude of a stacked component vector
    on the n^d grid, over every component and both faces: the collar is
    the fastest axis of ``slab_nodes``, so one product with ``_collar``'s
    face rows reads both faces of every collar line."""
    return float(np.abs(values.reshape(-1, n) @ _collar(n).E.T).max())


# ---------------------------------------------------------------------------
# solves and probes


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    relative_residual: float
    block_residuals: dict
    solution_norm: float
    # the three below: see ``solve_least_squares``; None from a solver
    # without blocks (and sigma_min_estimate when none was factored)
    sigma_min_estimate: float | None = None
    rank_deficient_blocks: int | None = None
    classes_solved: int | None = None
    schema: str = "solve-report/2"


def kernel_probe(matrix: sp.spmatrix, seed: int = 0) -> float:
    """Smallest-singular-value estimate ||A x|| by shifted inverse power
    iteration on the normal matrix N = A^T A, shifted by 1e-12 ||N||_1.
    The shifted N is symmetric positive definite: a reverse Cuthill-McKee
    ordering of its columns gives it a narrow band, which LAPACK factors
    as a banded Cholesky; a band larger than ``_memory_limit()`` raises
    ``ValueError`` before it is allocated.  The iteration stops once the
    eigen-residual ||A^T A x - ||A x||^2 x|| reaches roundoff, 1e-14
    ||N||_1, or after 60 steps.  ||A x|| rather than sqrt(x^T N x) keeps
    an exact kernel at roundoff instead of at the square root of it."""
    from scipy.linalg import cho_solve_banded, cholesky_banded
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    A = matrix.tocsr()
    A = A[:, reverse_cuthill_mckee((A.T @ A).tocsr(), symmetric_mode=True)]
    N = (A.T @ A).tocoo()
    scale = float(np.bincount(N.col, np.abs(N.data)).max())
    upper = N.row <= N.col
    rows, cols, vals = N.row[upper], N.col[upper], N.data[upper]
    del N, upper  # freed before the band is allocated: a lower peak RSS
    bw = int((cols - rows).max())
    need, avail = (bw + 1) * A.shape[1] * 8, _memory_limit()
    if need > avail:
        raise ValueError(f"the kernel probe's band of {bw + 1} x "
                         f"{A.shape[1]} needs {need / 2 ** 30:.1f} GiB, more "
                         f"than the {avail / 2 ** 30:.1f} GiB this process "
                         f"may use")
    band = np.zeros((bw + 1, A.shape[1]), order="F")  # factored in place
    band[bw + rows - cols, cols] = vals
    band[bw] += 1e-12 * scale
    factor = (cholesky_banded(band, overwrite_ab=True, check_finite=False),
              False)
    x = np.random.default_rng(seed).standard_normal(A.shape[1])
    x /= np.linalg.norm(x)
    for _ in range(60):
        x = cho_solve_banded(factor, x, check_finite=False)
        x /= np.linalg.norm(x)
        Ax = A @ x
        sigma2 = Ax @ Ax
        if np.linalg.norm(A.T @ Ax - sigma2 * x) <= 1e-14 * scale:
            break
    return float(np.sqrt(sigma2))


# ---------------------------------------------------------------------------
# lateral-Fourier blocks

# Largest |Im x| / max |x| accepted from the inverse DFT of the solve; the
# phased solutions of the modes k and -k are conjugate up to roundoff.
_IMAG_TOL = 1e-10


class _Polynomial(NamedTuple):
    """The lateral-Fourier blocks as a polynomial in u_a = i sin(2 pi k_a /
    n): sum_e u^e coef[e] is the block of mode k, made real by scaling row
    r by i^(-row_parity[r]) and column c by i^(col_parity[c]).  row_axes
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


def _phase_flip(poly: _Polynomial) -> np.ndarray:
    """(terms, rows, cols) mask of the entries whose phase i^(|e| + p_c -
    p_r) is -1, where the exponent is 2 mod 4 (see ``_block_polynomial``)."""
    deg = np.array([len(e) for e in poly.terms])[:, None, None]
    return (deg + poly.col_parity - poly.row_parity[:, None]) % 4 == 2


def _block_polynomial(n: int, d: int, collar: _Collar, nodes: np.ndarray,
                      faces, unknowns) -> _Polynomial:
    """The operator's lateral-Fourier block on ``collar`` as a polynomial
    in the symbols, read off coefficient tables.

    ``nodes`` is the ``_symbol`` table (terms of ``_terms(d)``, rows,
    cols) of the per-node rows, and ``faces`` a list of (face, table)
    pairs of per-face-node rows, in row order, with face a row of the
    collar's E; the columns are the components ``unknowns`` (index
    tuples) of the unknown field.  The first d - 1 axes are lateral: in
    the block of lateral mode k each lateral derivative is u_a / h times
    the identity, with u_a = i t_a and t_a = sin(2 pi k_a / n), and the
    last axis's derivative is the collar's first difference D.  So a term
    C_alpha d^alpha with lateral axes e and k collar axes is u^e C_alpha
    (x) D^k / h^|e|, and the block is exactly

        A(u) = sum_e u^e coef_e,  coef_e = sum_alpha C_alpha (x) D^k / h^|e|

    over the alpha whose lateral axes are e, of degree <= 2 in u.  A face
    row has E D^k in place of D^k, with E the collar's extrapolation row
    of that face, and carries the collar's weight.

    The coefficients are real, and u = i t.  The operators commute with
    the reflection of each lateral axis a, which flips u_a and the sign
    of each tensor component with an odd number p_a of indices a.  So a
    term u^e couples row r to column c only when e_a + p_a(c) - p_a(r)
    is even for every a, with e_a the number of a's in e; then, with p
    the number of lateral indices mod 2, i^(|e| + p_c - p_r) is +-1, and
    scaling row r by i^(-p_r) and column c by i^(p_c) makes every block
    real.  The column parities come from ``unknowns``; each row takes, per
    axis, the parity its coefficients demand, and a coefficient that
    demands the other one raises ``ValueError``.
    """
    h, m, line = 1.0 / n, d - 1, len(collar.D)
    terms = _terms(m)
    powers = np.stack([np.eye(line), collar.D, collar.D @ collar.D])

    def rows(table, powers):
        # the table's C_alpha / h^|e| by lateral term e and collar count
        # k, times powers[k]: (terms, rows, cols) with each row and column
        # component along ``powers``' rows and columns
        grouped = np.zeros((len(terms), len(powers)) + table.shape[1:])
        for alpha, c_alpha in zip(_terms(d), table):
            e = tuple(a for a in alpha if a < m)
            grouped[terms.index(e), len(alpha) - len(e)] = (
                c_alpha / h ** len(e))
        out = np.tensordot(grouped, powers, axes=(1, 0))
        J, R, C, height, width = out.shape
        return out.transpose(0, 1, 3, 2, 4).reshape(J, R * height, C * width)

    coef = np.concatenate([rows(nodes, powers)] + [
        collar.weight * rows(table, collar.E[[face]] @ powers)
        for face, table in faces], axis=1)

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
    return _Polynomial(tuple(terms), coef, row_axes.sum(axis=0) % 2,
                       col_axes.sum(axis=0) % 2, row_axes, col_axes, line,
                       nodes.shape[1] * line)


def _memory_limit() -> int:
    """The bytes this process may use: the physical memory, or the soft
    RLIMIT_AS where that is lower."""
    import os
    import resource

    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return total if soft == resource.RLIM_INFINITY else min(total, soft)


def _expand(poly: _Polynomial, n: int) -> sp.csr_matrix:
    """The full-grid matrix whose lateral-Fourier blocks ``poly`` holds.

    Lateral translation invariance makes the matrix block-circulant in
    the lateral axes, and on the full grid each lateral P_a is (S_a -
    S_a^-1) / (2h), with S_a the shift by one node along axis a.  So

        A = sum_e prod_{a in e} (S_a - S_a^-1) / 2  (x)  coef_e

    with coef_e the polynomial's coefficient of term e: a block M_delta
    for each lateral offset delta (mod n, so that the offsets +-2 of n=4
    coincide), whose weights are multiples of 1/4 and exact.  The CSR
    arrays are written directly in the layout of ``DiscreteSystem``:
    node rows (family, lateral node, collar node), then face rows (face
    row, lateral node), and columns (component, lateral node, collar
    node); within a row the entries run by component, offset and collar
    node, so the column indices are not sorted.  An entry is stored where
    its M_delta entry is not zero.  A CSR larger than ``_memory_limit()``
    raises ``ValueError`` before it is allocated.
    """
    import scipy.sparse as sp

    _, R, C = poly.coef.shape
    m, line = len(poly.row_axes), poly.line
    lateral = n ** m
    offset_blocks = {}
    for e, c in zip(poly.terms, poly.coef):
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
    need, avail = nnz * (8 + np.dtype(index).itemsize), _memory_limit()
    if need > avail:
        raise ValueError(f"the n={n} slab matrix needs {need / 2 ** 30:.1f} "
                         f"GiB, more than the {avail / 2 ** 30:.1f} GiB "
                         f"this process may use")
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
    """``_block_polynomial`` of the slab system of ``assemble``: DEin and
    delta B per node, from their ``_symbol``, and the ``_boundary_symbols``
    per face node.  Built once per (n, d) and shared by every caller, so
    its arrays are read-only."""
    face0, face1, normal = _boundary_symbols(d)
    poly = _block_polynomial(
        n, d, _collar(n), np.concatenate([_symbol(d, dein_closed_jets),
                                          _symbol(d, _gauge)], axis=1),
        [(0, face0), (1, face1), (0, normal), (1, normal)], _sym_pairs(d))
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
    sum_e w_e coef[e] with the phases of ``_phase_flip``, and the symbol
    weights w_e = prod_{a in e} t_a of every class computed at once."""
    J, R, C = poly.coef.shape
    m = len(poly.row_axes)
    K = _class_count(n)
    t = np.sin(2 * np.pi * np.arange(K) / n)
    symbols = t[np.array(np.unravel_index(classes, (K,) * m)).T]
    W = np.stack([np.prod(symbols[:, list(e)], axis=1)
                  for e in poly.terms], axis=1)
    flat = np.where(_phase_flip(poly), -poly.coef, poly.coef).reshape(J, -1)
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


def _h0_polynomial(n: int, d: int, closed_torus: bool = False) -> _Polynomial:
    """``_block_polynomial`` of the H0 operator on the vector field X: the
    Killing operator delta* per node, from its ``_symbol``, then the
    restriction of X to each face of the collar (the torus's has none)."""
    collar = (_periodic_collar if closed_torus else _collar)(n)
    restrict = np.zeros((len(_terms(d)), d, d))
    restrict[0] = np.eye(d)
    return _block_polynomial(n, d, collar, _symbol(d, killing),
                             [(f, restrict) for f in range(len(collar.E))],
                             [(a,) for a in range(d)])


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
    closed torus, the last axis a periodic collar)."""
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
    block; the blocks' min-norm solutions (SVD, cut-off eps max(rows,
    cols) sigma_max), with the column phases and the inverse DFT, give
    the whole system's.  A mode with |b-hat_k| <= eps max(rows, cols) |b|
    is silent and keeps x-hat_k = 0, and only the classes with a
    non-silent mode are factored, one at a time.  The block of a mode is
    D_r B D_c, with B the block of its class and D_r, D_c the +-1
    diagonals of the reflection of the axes it negates
    (``_symbol_classes``, ``_reflect``), so one SVD B = U S V^T per class
    solves each of its modes as more right-hand sides: x = D_c V S^+ U^T
    D_r b.  b is real, so x is real up to roundoff; anything more raises
    ``RuntimeError``.  The residual is recomputed from ``system.matrix``.
    ``classes_solved`` counts the class blocks factored,
    ``sigma_min_estimate`` is their exact smallest singular value (None
    for b = 0) and ``rank_deficient_blocks`` counts the modes of those
    classes that the cut-off truncated.  A direct solve: ``converged`` is
    always True and ``iterations`` 0.
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
    e_i lies on lateral mode 0, so |H0 X| / |X| is |A_0 (e_i x 1)| /
    sqrt(line) for the mode-0 block A_0 = coef[0] of ``_h0_polynomial``
    on its collar line; the boundary rows remove the translations, and
    on the closed torus D 1 = 0 keeps them in the kernel.
    """
    d = _slab_dim(chart)
    h0 = _h0_polynomial(n, d, closed_torus)
    out = {"dim_h0": spectral_gap(_spectrum(h0, n), 1e-6)[1]}
    A0, line = h0.coef[0], h0.line
    out["translation_image_norms"] = (
        np.linalg.norm(A0.reshape(-1, d, line).sum(axis=2), axis=0)
        / np.sqrt(line)).tolist()
    if closed_torus:
        out["dim_h1"] = None
        return out
    gap1, out["dim_h1"] = spectral_gap(h1_spectrum(n, d), 1e-6)
    out["h1_gap_beyond_kernel"] = gap1
    return out
