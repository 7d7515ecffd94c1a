"""Truncated multivariate Taylor arithmetic (jets) with batched coefficients.

A Jet stores normalized Taylor coefficients c_alpha = d^alpha f / alpha! on
all multi-indices |alpha| <= order, in a trailing axis of a numpy array, so
whole grids of points can be pushed through the ring operations at once.
Derivative extraction is exact up to the truncation order.

The product of two jets is one kernel.  Every pair (alpha, beta) with
|alpha| + |beta| <= order is listed once, grouped by the output index of
alpha + beta (``_mul_flat``): the product is the gather
``a[:, IA] * b[:, IB]`` of shape (rows, pairs) times the 0/1 matrix S of
shape (pairs, K) that sums each output's pairs.  The rows are taken in
blocks of about ``_BLOCK`` gathered values, so the (rows x pairs)
temporaries stay in cache at batch 32768 as well as at batch 1; one
gather over the whole batch would spill and be memory-bound there.  An
order-0 jet is its value, so that product is a plain multiply.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod

import numpy as np

__all__ = ["Jet", "jet_matrix_inverse"]


@lru_cache(maxsize=None)
def _exponents(dim: int, order: int):
    """Multi-indices of total degree <= order, graded by degree."""

    def gen(deg, axes):
        if axes == 1:
            yield (deg,)
            return
        for first in range(deg, -1, -1):
            for rest in gen(deg - first, axes - 1):
                yield (first,) + rest

    out = []
    for deg in range(order + 1):
        out.extend(gen(deg, dim))
    return tuple(out)


@lru_cache(maxsize=None)
def _exp_index(dim: int, order: int) -> dict:
    return {e: i for i, e in enumerate(_exponents(dim, order))}


@lru_cache(maxsize=None)
def _mul_table(dim: int, order: int):
    """Per output index: (input index array A, input index array B)."""
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


#: Gathered float64 values per block of the jet product (128 KB).
_BLOCK = 1 << 14


@lru_cache(maxsize=None)
def _mul_flat(dim: int, order: int):
    """(IA, IB, S): every product pair in output order, and the 0/1 matrix
    S of shape (pairs, K) that sums each output coefficient's pairs."""
    table = _mul_table(dim, order)
    IA = np.concatenate([ia for ia, _ in table])
    IB = np.concatenate([ib for _, ib in table])
    owner = np.repeat(np.arange(len(table)), [len(ia) for ia, _ in table])
    S = np.zeros((len(IA), len(table)))
    S[np.arange(len(IA)), owner] = 1.0
    return IA, IB, S


@lru_cache(maxsize=None)
def _partial_table(dim: int, order: int, axis: int):
    """Index/factor arrays mapping coeffs of f to coeffs of d_axis f."""
    exps_out = _exponents(dim, order - 1)
    idx_in = _exp_index(dim, order)
    src = np.empty(len(exps_out), dtype=np.intp)
    fac = np.empty(len(exps_out))
    for i, e in enumerate(exps_out):
        up = list(e)
        up[axis] += 1
        src[i] = idx_in[tuple(up)]
        fac[i] = up[axis]
    return src, fac


class Jet:
    """Truncated Taylor expansion; coefficients broadcast over leading axes."""

    __slots__ = ("dim", "order", "c")

    def __init__(self, dim: int, order: int, coeffs: np.ndarray):
        self.dim = dim
        self.order = order
        self.c = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, dim: int, order: int, value) -> "Jet":
        value = np.asarray(value, dtype=float)
        K = len(_exponents(dim, order))
        c = np.zeros(value.shape + (K,))
        c[..., 0] = value
        return cls(dim, order, c)

    @classmethod
    def variable(cls, dim: int, order: int, axis: int, x0) -> "Jet":
        out = cls.const(dim, order, x0)
        if order >= 1:
            e = [0] * dim
            e[axis] = 1
            out.c[..., _exp_index(dim, order)[tuple(e)]] = 1.0
        return out

    @classmethod
    def variables(cls, x, order: int) -> list["Jet"]:
        """One variable jet per coordinate of x (last axis = dim)."""
        x = np.asarray(x, dtype=float)
        dim = x.shape[-1]
        return [cls.variable(dim, order, i, x[..., i]) for i in range(dim)]

    # -- basic views -------------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        return self.c[..., 0]

    def coeff(self, alpha) -> np.ndarray:
        """Normalized Taylor coefficient c_alpha."""
        return self.c[..., _exp_index(self.dim, self.order)[tuple(alpha)]]

    def deriv(self, alpha) -> np.ndarray:
        """Partial derivative d^alpha f at the base point."""
        alpha = tuple(alpha)
        return self.coeff(alpha) * prod(factorial(a) for a in alpha)

    def partial(self, axis: int) -> "Jet":
        """The jet of d_axis f, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src, fac = _partial_table(self.dim, self.order, axis)
        return Jet(self.dim, self.order - 1, self.c[..., src] * fac)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot raise the truncation order")
        K = len(_exponents(self.dim, order))
        return Jet(self.dim, order, self.c[..., :K])

    # -- ring operations ---------------------------------------------------

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            if other.order != self.order:
                o = min(self.order, other.order)
                return other.truncate(o)
            return other
        return Jet.const(self.dim, self.order, other)

    def _pair(self, other):
        b = self._lift(other)
        a = self if b.order == self.order else self.truncate(b.order)
        return a, b

    def __add__(self, other):
        a, b = self._pair(other)
        return Jet(a.dim, a.order, a.c + b.c)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return Jet(a.dim, a.order, a.c - b.c)

    def __rsub__(self, other):
        a, b = self._pair(other)
        return Jet(a.dim, a.order, b.c - a.c)

    def __neg__(self):
        return Jet(self.dim, self.order, -self.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.dim, self.order, self.c * np.asarray(other)[..., None]
                       if np.ndim(other) else self.c * other)
        a, b = self._pair(other)
        if a.order == 0:
            return Jet(a.dim, 0, a.c * b.c)
        IA, IB, S = _mul_flat(a.dim, a.order)
        K = S.shape[1]
        shape = np.broadcast_shapes(a.c.shape[:-1], b.c.shape[:-1])
        ac = np.broadcast_to(a.c, shape + (K,)).reshape(-1, K)
        bc = np.broadcast_to(b.c, shape + (K,)).reshape(-1, K)
        out = np.empty(ac.shape)
        step = max(1, _BLOCK // len(IA))
        for lo in range(0, len(out), step):
            blk = slice(lo, lo + step)
            np.matmul(ac[blk][:, IA] * bc[blk][:, IB], S, out=out[blk])
        return Jet(a.dim, a.order, out.reshape(shape + (K,)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Jet.const(self.dim, self.order, np.ones(self.c.shape[:-1]))
        for _ in range(n):
            out = out * self
        return out

    # -- composition with smooth primitives --------------------------------

    def _series(self, coef_fn) -> "Jet":
        """Compose with a univariate primitive given its normalized Taylor
        coefficients around the jet's value: coef_fn(value, k) = f^(k)(v)/k!."""
        v = self.value
        delta = Jet(self.dim, self.order, self.c.copy())
        delta.c[..., 0] = 0.0
        out = Jet.const(self.dim, self.order, coef_fn(v, self.order))
        for k in range(self.order - 1, -1, -1):
            out = out * delta + Jet.const(self.dim, self.order, coef_fn(v, k))
        return out

    def reciprocal(self) -> "Jet":
        return self._series(lambda v, k: (-1.0) ** k / v ** (k + 1))

    def sqrt(self) -> "Jet":
        def coef(v, k):
            b = 1.0  # binomial(1/2, k)
            for i in range(k):
                b *= (0.5 - i) / (i + 1)
            return b * np.power(v, 0.5 - k)

        return self._series(coef)

    def exp(self) -> "Jet":
        return self._series(lambda v, k: np.exp(v) / factorial(k))

    def log(self) -> "Jet":
        def coef(v, k):
            if k == 0:
                return np.log(v)
            return (-1.0) ** (k + 1) / (k * np.power(v, k))

        return self._series(coef)

    def sin(self) -> "Jet":
        cycle = [np.sin, np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v)]
        return self._series(lambda v, k: cycle[k % 4](v) / factorial(k))

    def cos(self) -> "Jet":
        cycle = [np.cos, lambda v: -np.sin(v), lambda v: -np.cos(v), np.sin]
        return self._series(lambda v, k: cycle[k % 4](v) / factorial(k))


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

