"""Exact multilinear algebra of (k, m)-covectors over R^d, batched over points.

A (k, m)-covector is an element of Lambda^k (R^d)* tensor Lambda^m (R^d)*,
stored as a dense coefficient matrix over pairs of strictly increasing
multi-indices in lexicographic order.  ``coeffs`` has shape
(..., C(d,k), C(d,m)): the leading axes are batch axes, one covector per
point, and every operation broadcasts over them, so an unbatched metric or
frame vector combines with a batch of curvature covectors.

Every operation is linear in the coefficients (bilinear for ``wedge`` and
``interior``), so each one is a cached integer table applied by matmuls
over the batch axes.  All antisymmetry bookkeeping happens once, in the
table builders.  Integer tables keep one code path for both numeric
backends: float64 arrays for field-level work, and object arrays of
``fractions.Fraction`` for exact identity checks (an integer table times a
Fraction array stays exact).  The backend is read off the coefficients'
dtype, never passed: the metric and the basis vectors are integer arrays,
exact in both backends, and only ``random_bianchi`` takes ``rational``,
which picks its sampler.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

__all__ = [
    "KmCovector",
    "FrameVector",
    "wedge",
    "transpose",
    "interior",
    "hodge",
    "star_star_v",
    "trace",
    "bianchi_sum",
    "op_e",
    "op_c",
    "op_c_inverse",
    "duality_residuals",
    "schouten_weyl_split",
    "metric_covector",
    "basis_covector",
    "kernel_projector",
    "project_bianchi",
    "random_covector",
    "random_bianchi",
    "bianchi_dim",
]


# ---------------------------------------------------------------------------
# index tables


@lru_cache(maxsize=None)
def _subsets(d: int, k: int) -> tuple[tuple[int, ...], ...]:
    if k < 0 or k > d:
        return ()
    return tuple(combinations(range(d), k))


@lru_cache(maxsize=None)
def _subset_index(d: int, k: int) -> dict:
    return {s: i for i, s in enumerate(_subsets(d, k))}


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]):
    """Sign and target of concatenating two disjoint increasing tuples."""
    merged = a + b
    if len(set(merged)) != len(merged):
        return 0, None
    # parity of the permutation sorting (a, b): count inversions across the cut
    inv = sum(1 for x in a for y in b if y < x)
    return (-1) ** inv, tuple(sorted(merged))


@lru_cache(maxsize=None)
def _wedge_table(d: int, k1: int, k2: int) -> np.ndarray:
    """W[out, i1, i2]: theta^I1 wedge theta^I2 = sum_out W theta^out."""
    s1, s2 = _subsets(d, k1), _subsets(d, k2)
    out_index = _subset_index(d, k1 + k2)
    W = np.zeros((_nck(d, k1 + k2), len(s1), len(s2)), dtype=np.int64)
    for i1, a in enumerate(s1):
        for i2, b in enumerate(s2):
            sign, merged = _merge_sign(a, b)
            if sign:
                W[out_index[merged], i1, i2] = sign
    return W


@lru_cache(maxsize=None)
def _wedge_splits(d: int, k1: int, k2: int):
    """The nonzero entries of ``_wedge_table`` grouped by output: arrays
    (i1, i2, sign), each of shape (C(d, k1+k2), C(k1+k2, k1)), listing
    every split theta^K = sign theta^I1 wedge theta^I2."""
    W = _wedge_table(d, k1, k2)
    out, i1, i2 = np.nonzero(W)  # C order: grouped by output
    shape = (W.shape[0], comb(k1 + k2, k1))
    return (i1.reshape(shape), i2.reshape(shape),
            W[out, i1, i2].reshape(shape))


@lru_cache(maxsize=None)
def _wedge_gather(d: int, ka: int, ma: int, kb: int, mb: int):
    """The terms of ``wedge`` for a (ka, ma) and a (kb, mb) covector as
    flat gathers (ia, ib), each of shape (K, splits of K, M, splits of M)
    with K, M the output index sets: ib indexes b's coefficients, flattened
    to C(d, kb) C(d, mb), and ia those of a followed by those of -a, so
    that the gather carries the sign s t of the split."""
    i1, i2, s = (x[:, :, None, None] for x in _wedge_splits(d, ka, kb))
    j1, j2, t = _wedge_splits(d, ma, mb)
    ia = i1 * _nck(d, ma) + j1 + (s * t < 0) * (_nck(d, ka) * _nck(d, ma))
    return ia, i2 * _nck(d, mb) + j2


@lru_cache(maxsize=None)
def _interior_table(d: int, k: int) -> np.ndarray:
    """T[axis, out, in]: i_{e_axis} theta^I = sum_out T theta^out."""
    out_index = _subset_index(d, k - 1)
    T = np.zeros((d, _nck(d, k - 1), _nck(d, k)), dtype=np.int64)
    for i, s in enumerate(_subsets(d, k)):
        for pos, axis in enumerate(s):
            T[axis, out_index[s[:pos] + s[pos + 1:]], i] = (-1) ** pos
    return T


@lru_cache(maxsize=None)
def _hodge_matrix(d: int, k: int) -> np.ndarray:
    """H[out, in]: star theta^I = sign(I, I^c) theta^{I^c}."""
    out_index = _subset_index(d, d - k)
    H = np.zeros((_nck(d, d - k), _nck(d, k)), dtype=np.int64)
    for i, s in enumerate(_subsets(d, k)):
        comp = tuple(x for x in range(d) if x not in s)
        H[out_index[comp], i] = _merge_sign(s, comp)[0]
    return H


@lru_cache(maxsize=None)
def _trace_matrix(d: int, k: int, m: int) -> np.ndarray:
    """tr = sum_i i_{E_i} i^V_{E_i} on flattened coefficients."""
    Tk, Tm = _interior_table(d, k), _interior_table(d, m)
    M = np.einsum("aIi,aJj->IJij", Tk, Tm)
    return M.reshape(Tk.shape[1] * Tm.shape[1], Tk.shape[2] * Tm.shape[2])


@lru_cache(maxsize=None)
def _bianchi_matrix(d: int, k: int, m: int) -> np.ndarray:
    """b psi = sum_i theta^i wedge i^V_{E_i} psi on flattened coefficients."""
    W, Tm = _wedge_table(d, 1, k), _interior_table(d, m)
    M = np.einsum("Iai,aJj->IJij", W, Tm)
    return M.reshape(W.shape[0] * Tm.shape[1], W.shape[2] * Tm.shape[2])


@lru_cache(maxsize=None)
def _restrict_index(d: int, k: int, drop_axis: int) -> np.ndarray:
    """Index in the d-dimensional basis of each (d-1)-dimensional basis
    element, its axes relabelled to skip ``drop_axis``."""
    keep = [i for i in range(d) if i != drop_axis]
    index = _subset_index(d, k)
    return np.array([index[tuple(keep[x] for x in s)]
                     for s in _subsets(d - 1, k)], dtype=np.intp)


# ---------------------------------------------------------------------------
# covector type


def _nck(d: int, k: int) -> int:
    return comb(d, k) if 0 <= k <= d else 0


@dataclass(frozen=True)
class KmCovector:
    """Coefficients of a (k, m)-covector on the canonical increasing basis."""

    dim: int
    k: int
    m: int
    coeffs: np.ndarray  # shape (..., C(d,k), C(d,m)), float64 or Fraction

    # array * covector defers to __rmul__, which scales point by point
    __array_ufunc__ = None

    def __post_init__(self):
        shape = (_nck(self.dim, self.k), _nck(self.dim, self.m))
        if self.coeffs.shape[-2:] != shape:
            raise ValueError(f"coeff shape {self.coeffs.shape} != (..., "
                             f"{shape[0]}, {shape[1]})")

    @property
    def rational(self) -> bool:
        return self.coeffs.dtype == object

    @classmethod
    def zero(cls, d: int, k: int, m: int) -> "KmCovector":
        return cls(d, k, m, np.zeros((_nck(d, k), _nck(d, m))))

    def __add__(self, other: "KmCovector") -> "KmCovector":
        self._check_like(other)
        return KmCovector(self.dim, self.k, self.m, self.coeffs + other.coeffs)

    def __sub__(self, other: "KmCovector") -> "KmCovector":
        self._check_like(other)
        return KmCovector(self.dim, self.k, self.m, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "KmCovector":
        """Scale by a number, or point by point by an array of batch shape."""
        s = np.asarray(scalar)[..., None, None]
        return KmCovector(self.dim, self.k, self.m, self.coeffs * s)

    __rmul__ = __mul__

    def __neg__(self) -> "KmCovector":
        return KmCovector(self.dim, self.k, self.m, -self.coeffs)

    def _check_like(self, other: "KmCovector"):
        if (self.dim, self.k, self.m) != (other.dim, other.k, other.m):
            raise ValueError("bidegree/dimension mismatch")

    def norm_inf(self):
        """Max-abs coefficient: a float, or one per point when batched."""
        n = np.asarray(np.abs(self.coeffs).max(axis=(-2, -1), initial=0),
                       dtype=float)
        return float(n) if n.ndim == 0 else n

    def scalar(self):
        """Value of a (0,0)-covector, one per point when batched."""
        if self.k or self.m:
            raise ValueError("not a scalar covector")
        return self.coeffs[..., 0, 0]

    def sym_matrix(self) -> np.ndarray:
        """A (1,1)-covector as a d x d matrix per point."""
        if (self.k, self.m) != (1, 1):
            raise ValueError("not a (1,1)-covector")
        return self.coeffs.copy()


@dataclass(frozen=True)
class FrameVector:
    """A vector expressed in the ambient orthonormal frame."""

    dim: int
    components: np.ndarray  # shape (..., d)

    @classmethod
    def basis(cls, d: int, axis: int) -> "FrameVector":
        return cls(d, np.eye(d, dtype=np.int64)[axis])


def _zero_like(a: KmCovector, k: int, m: int) -> KmCovector:
    """The zero (k, m)-covector with the batch shape of ``a``."""
    shape = a.coeffs.shape[:-2] + (_nck(a.dim, k), _nck(a.dim, m))
    return KmCovector(a.dim, k, m, np.zeros(shape, a.coeffs.dtype))


def _apply(M: np.ndarray, a: KmCovector, k: int, m: int) -> KmCovector:
    """The (k, m)-covector M vec(a), M acting on flattened coefficients."""
    batch = a.coeffs.shape[:-2]
    flat = a.coeffs.reshape(batch + (-1,)) @ M.T
    return KmCovector(a.dim, k, m,
                      flat.reshape(batch + (_nck(a.dim, k), _nck(a.dim, m))))


# ---------------------------------------------------------------------------
# constructors


def basis_covector(d: int, I: tuple[int, ...], J: tuple[int, ...]
                   ) -> KmCovector:
    """(theta^I) tensor (theta^J) for increasing index tuples I, J."""
    I, J = tuple(I), tuple(J)
    out = KmCovector.zero(d, len(I), len(J))
    i = _subset_index(d, len(I))[I]
    j = _subset_index(d, len(J))[J]
    out.coeffs[i, j] = 1.0
    return out


def metric_covector(d: int) -> KmCovector:
    """g = sum_j (theta^j)^2 as a (1,1)-covector, with integer
    coefficients."""
    return KmCovector(d, 1, 1, np.eye(d, dtype=np.int64))


def sym_matrix_covector(mat: np.ndarray) -> KmCovector:
    """(1,1)-covectors from d x d matrices, batched like ``mat``: a copy
    in the matrices' own backend."""
    coeffs = np.array(mat)
    return KmCovector(coeffs.shape[-1], 1, 1, coeffs)


# ---------------------------------------------------------------------------
# operations


def wedge(a: KmCovector, b: KmCovector) -> KmCovector:
    """Graded bilinear product acting on both index groups:

        out[K, M] = sum s t a[I1, J1] b[I2, J2]

    over the splits theta^K = s theta^I1 wedge theta^I2 and theta^M =
    t theta^J1 wedge theta^J2 (``_wedge_splits``).  Only these terms are
    formed, never the whole outer product of a and b, and the splits of K
    are summed first, then those of M."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    ia, ib = _wedge_gather(a.dim, a.k, a.m, b.k, b.m)
    # coefficients first, batch axes last (reversed): both gathers take
    # whole rows, and each sum adds whole batch rows
    nb = max(a.coeffs.ndim, b.coeffs.ndim) - 2
    A = a.coeffs.reshape((1,) * (nb + 2 - a.coeffs.ndim)
                         + a.coeffs.shape[:-2] + (-1,)).T
    B = b.coeffs.reshape((1,) * (nb + 2 - b.coeffs.ndim)
                         + b.coeffs.shape[:-2] + (-1,)).T
    terms = np.concatenate([A, -A]).take(ia, axis=0) * B.take(ib, axis=0)
    sums = np.add.reduce(np.add.reduce(terms, axis=1), axis=2)  # (K, M, ...)
    return KmCovector(a.dim, a.k + b.k, a.m + b.m, sums.T.swapaxes(-1, -2))


def transpose(a: KmCovector) -> KmCovector:
    """Swap the two index groups: (k, m) -> (m, k)."""
    return KmCovector(a.dim, a.m, a.k, np.swapaxes(a.coeffs, -1, -2).copy())


def interior(X: FrameVector, a: KmCovector, slot: str = "first") -> KmCovector:
    """Interior product with X in the chosen index group."""
    if X.dim != a.dim:
        raise ValueError("dimension mismatch")
    if slot == "second":
        return transpose(interior(X, transpose(a), "first"))
    if slot != "first":
        raise ValueError("slot must be 'first' or 'second'")
    if a.k == 0:
        return _zero_like(a, 0, a.m)
    M = np.tensordot(X.components, _interior_table(a.dim, a.k), axes=(-1, 0))
    return KmCovector(a.dim, a.k - 1, a.m, M @ a.coeffs)


def hodge(a: KmCovector, slot: str = "first") -> KmCovector:
    """Hodge dual in one index group (orthonormal canonical basis)."""
    if slot == "second":
        return transpose(hodge(transpose(a), "first"))
    if slot != "first":
        raise ValueError("slot must be 'first' or 'second'")
    return KmCovector(a.dim, a.dim - a.k, a.m,
                      _hodge_matrix(a.dim, a.k) @ a.coeffs)


def star_star_v(a: KmCovector) -> KmCovector:
    """The composition of the Hodge duals in both slots."""
    return hodge(hodge(a, "first"), "second")


def trace(a: KmCovector) -> KmCovector:
    """Metric trace lowering both degrees by one."""
    if a.k < 1 or a.m < 1:
        return _zero_like(a, max(a.k - 1, 0), max(a.m - 1, 0))
    return _apply(_trace_matrix(a.dim, a.k, a.m), a, a.k - 1, a.m - 1)


def bianchi_sum(a: KmCovector) -> KmCovector:
    """b psi = sum_i theta^i wedge i^V_{E_i} psi, degree (k+1, m-1)."""
    if a.m < 1:
        return _zero_like(a, a.k + 1, 0)
    return _apply(_bianchi_matrix(a.dim, a.k, a.m), a, a.k + 1, a.m - 1)


def op_e(psi: KmCovector) -> KmCovector:
    """Curvature-to-Einstein contraction -tr psi + (tr tr psi / 2) g."""
    if (psi.k, psi.m) != (2, 2):
        raise ValueError("op_e expects a (2,2)-covector")
    t = trace(psi)
    tt = trace(t).scalar()
    return -t + (tt / 2) * metric_covector(psi.dim)


def op_c(sigma: KmCovector) -> KmCovector:
    """Trace-reversal-type contraction -sigma + (tr sigma) g."""
    if (sigma.k, sigma.m) != (1, 1):
        raise ValueError("op_c expects a (1,1)-covector")
    t = trace(sigma).scalar()
    return -sigma + t * metric_covector(sigma.dim)


def op_c_inverse(tau: KmCovector) -> KmCovector:
    """Inverse of op_c for d >= 2."""
    if (tau.k, tau.m) != (1, 1):
        raise ValueError("op_c_inverse expects a (1,1)-covector")
    d = tau.dim
    if d < 2:
        raise ValueError("op_c is singular for d < 2")
    t = trace(tau).scalar()
    return -tau + (t / (d - 1)) * metric_covector(d)


# ---------------------------------------------------------------------------
# Bianchi kernel machinery


@lru_cache(maxsize=None)
def _kernel_basis(d: int, k: int, m: int) -> np.ndarray:
    """Orthonormal basis (columns) of ker b on flattened coefficients."""
    B = _bianchi_matrix(d, k, m)
    if B.shape[0] == 0:
        return np.eye(B.shape[1])
    _, s, vh = np.linalg.svd(B)
    tol = max(B.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].T.copy()


def bianchi_dim(d: int, k: int, m: int) -> int:
    """Dimension of the fiber of Bianchi (k, m)-covectors."""
    return _kernel_basis(d, k, m).shape[1]


def kernel_projector(d: int, k: int, m: int) -> np.ndarray:
    N = _kernel_basis(d, k, m)
    return N @ N.T


def project_bianchi(a: KmCovector) -> KmCovector:
    """Least-squares projection onto ker b (float backend)."""
    if a.rational:
        raise ValueError("projection is a float-mode operation")
    return _apply(kernel_projector(a.dim, a.k, a.m), a, a.k, a.m)


def _require_bianchi(a: KmCovector, tol: float, what: str):
    """Raise unless b a vanishes at every point, to ``tol`` times the
    point's own scale max(|a_p|, 1), and exactly on the rational backend."""
    defect = bianchi_sum(a).norm_inf()
    bound = 0.0 if a.rational else tol * np.maximum(a.norm_inf(), 1.0)
    if np.any(defect > bound):
        raise ValueError(f"{what} is not a Bianchi covector "
                         f"(defect {np.max(defect):.3e})")


def random_covector(rng: np.random.Generator, d: int, k: int, m: int) -> KmCovector:
    shape = (comb(d, k), comb(d, m))
    return KmCovector(d, k, m, rng.standard_normal(shape))


def random_bianchi(rng: np.random.Generator, d: int, k: int, m: int,
                   rational: bool = False) -> KmCovector:
    """Random element of ker b.

    Float mode projects a Gaussian sample; rational mode combines Kulkarni
    squares (omega^1 wedge ... wedge omega^k)^2, which lie in the kernel
    exactly and span it fiber-wise.
    """
    if not rational:
        return project_bianchi(random_covector(rng, d, k, m))
    if k != m:
        raise ValueError("rational sampling implemented for k == m only")
    if k == 1:
        mat = np.empty((d, d), dtype=object)
        for i in range(d):
            for j in range(i, d):
                mat[i, j] = mat[j, i] = Fraction(int(rng.integers(-9, 10)), 4)
        return sym_matrix_covector(mat)
    out = KmCovector(d, k, m, np.zeros((comb(d, k), comb(d, m)), dtype=object))
    for _ in range(bianchi_dim(d, k, m)):
        factor = KmCovector(d, 0, 0, np.ones((1, 1), dtype=np.int64))
        for _ in range(k):
            omega = np.array([[Fraction(int(rng.integers(-5, 6)), 2)]
                              for _ in range(d)], dtype=object)
            factor = wedge(factor, KmCovector(d, 1, 0, omega))
        out = out + wedge(factor, transpose(factor))
    return out


# ---------------------------------------------------------------------------
# duality identities and the Schouten/Weyl split


def _metric_power(d: int, n: int) -> KmCovector:
    """g^n, wedged n times, with integer coefficients (g^0 = 1)."""
    out = KmCovector(d, 0, 0, np.ones((1, 1), dtype=np.int64))
    for _ in range(n):
        out = wedge(out, metric_covector(d))
    return out


def duality_residuals(psi: KmCovector,
                      sigma: KmCovector) -> tuple[float, float]:
    """Max-abs defects of the two contraction/duality identities.

    For Bianchi inputs psi (2,2) and sigma (1,1) in dimension d the double
    Hodge of g^{d-3} psi equals (d-3)! op_e(psi), and the double Hodge of
    g^{d-2} sigma equals (d-2)! op_c(sigma).  Raises ``ValueError`` unless
    both inputs are Bianchi to 1e-9 (see ``_require_bianchi``).
    """
    d = psi.dim
    if sigma.dim != d:
        raise ValueError("dimension mismatch")
    if d < 3:
        raise ValueError("first identity needs d >= 3")
    _require_bianchi(psi, 1e-9, "psi")
    _require_bianchi(sigma, 1e-9, "sigma")
    lhs1 = star_star_v(wedge(_metric_power(d, d - 3), psi))
    rhs1 = factorial(d - 3) * op_e(psi)
    lhs2 = star_star_v(wedge(_metric_power(d, d - 2), sigma))
    rhs2 = factorial(d - 2) * op_c(sigma)
    return (lhs1 - rhs1).norm_inf(), (lhs2 - rhs2).norm_inf()


def schouten_weyl_split(rm: KmCovector):
    """Split a Bianchi (2,2)-covector as rm = -g wedge P + Wey, tr Wey = 0.

    Returns (schouten, weyl) where schouten is the (1,1) component P.  For
    d <= 3 the Weyl part is identically zero.  Raises ``ValueError``
    unless rm is Bianchi to 1e-6 (see ``_require_bianchi``), the
    roundoff of a curvature built from metric jets.
    """
    if (rm.k, rm.m) != (2, 2):
        raise ValueError("expected a (2,2)-covector")
    d = rm.dim
    _require_bianchi(rm, 1e-6, "rm")
    ein = op_e(rm)
    if rm.rational:
        p = op_c_inverse(ein) * Fraction(-1, d - 2)
    else:
        p = op_c_inverse(ein) * (-1.0 / (d - 2))
    if d <= 3:
        return p, _zero_like(rm, 2, 2)
    return p, rm + wedge(metric_covector(d), p)


def restrict_covector(a: KmCovector, drop_axis: int) -> KmCovector:
    """Reinterpret a covector with no ``drop_axis`` entries in dimension d-1.

    Entries whose index sets contain ``drop_axis`` are discarded; the rest
    are relabelled to the (d-1)-dimensional canonical basis.  Used to read
    tangential boundary quantities in the boundary algebra.
    """
    rows = _restrict_index(a.dim, a.k, drop_axis)
    cols = _restrict_index(a.dim, a.m, drop_axis)
    return KmCovector(a.dim - 1, a.k, a.m, a.coeffs[..., rows[:, None], cols])
