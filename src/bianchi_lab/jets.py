"""Truncated multivariate Taylor arithmetic (jets) with batched coefficients.

A Jet stores normalized Taylor coefficients c_alpha = d^alpha f / alpha! on
all multi-indices |alpha| <= order, in a trailing axis of a numpy array, so
whole grids of points can be pushed through the ring operations at once.
Derivative extraction is exact up to the truncation order.

A tensor field is one Jet whose coefficient array is laid out as batch
axes, then tensor axes, then the K coefficients: ``T.value[..., i, j]`` is
T_ij at every batch point, and ``T[..., i, j]`` is that component's jet.
The ring operations are elementwise over all leading axes with numpy
broadcasting, so ``*`` multiplies operands of the same tensor shape, or a
jet by a float (array).  A product that sums an index, or that pairs a
scalar jet with a tensor, goes through ``contract(spec, a, b)``: an einsum
over the tensor axes (``"ki,kij->j"``) with the batch axes implicit, so it
needs no knowledge of ranks beyond its spec.

Every jet product is one kernel (``_product``).  Each pair (alpha, beta)
with |alpha| + |beta| <= order is listed once, grouped by the output index
of alpha + beta (``_mul_flat``): the product is the gather
``a[:, IA] * b[:, IB]`` of shape (rows, pairs) times the 0/1 matrix S of
shape (pairs, K) that sums each output's pairs.  ``contract`` runs the
same kernel with tensor axes: per pair, the free and summed axes of each
operand form an (FA, SS) and an (SS, FB) matrix and a matmul sums the
index.  The batch rows are taken in blocks of about ``_BLOCK`` gathered
values, so the temporaries stay in cache at batch 32768 as well as at
batch 1, and no full-batch gather is ever live.  At order 0 there is one
pair and no S: an order-0 ``*`` is a plain multiply, and an order-0
``contract`` is one whole-batch matmul.

``jet_matrix_inverse`` runs the Taylor division recurrence degree by
degree on the same pair table (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., section 13): one ``np.linalg.inv`` of the values,
then batched matmuls, with no jet reciprocal.

A product of univariate factors f(x) = prod_a u_a(x_a) needs no jet
product at all: its coefficients are c_alpha = prod_a u_a[alpha_a], with
u_a the normalized Taylor coefficients of u_a at x_a (same reference).
``separable`` forms that product from per-axis coefficient arrays of
shape (..., order + 1), one gather per axis.  The univariate
coefficients have closed forms: ``cos_coeffs``/``sin_coeffs`` for
cos(w t + theta) and sin(w t + theta), ``poly_coeffs`` for a polynomial
(a Taylor shift), and ``series_mul`` for the truncated product of two
univariate series, such as sin^k(pi t) or t^k times a factor.  The test
fields and the preset metrics are built this way.  ``Jet.exp`` and
``Jet.reciprocal`` compose a jet with a smooth primitive where no
separable form applies: the conformal metric factor and jet division.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb, factorial, prod

import numpy as np

__all__ = ["Jet", "contract", "stack", "jet_matrix_inverse", "separable",
           "cos_coeffs", "sin_coeffs", "poly_coeffs", "series_mul"]


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
    """Per output index: its pairs' index arrays (A, B), by A, then B."""
    exps = np.array(_exponents(dim, order), dtype=np.intp)
    deg = exps.sum(axis=1)
    ia, ib = np.nonzero(deg[:, None] + deg <= order)
    # base-(order + 1) codes are distinct and add under the product
    code = exps @ (order + 1) ** np.arange(dim)
    by_code = np.argsort(code)
    out = by_code[np.searchsorted(code[by_code], code[ia] + code[ib])]
    keep = np.argsort(out, kind="stable")
    cuts = np.cumsum(np.bincount(out, minlength=len(exps)))[:-1]
    return list(zip(np.split(ia[keep], cuts), np.split(ib[keep], cuts)))


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


@lru_cache(maxsize=None)
def _grad_table(dim: int, order: int):
    """The partial tables of every axis, stacked: (dim, K') index/factor."""
    tables = [_partial_table(dim, order, axis) for axis in range(dim)]
    return (np.stack([src for src, _ in tables]),
            np.stack([fac for _, fac in tables]))


def _block_rows(dim: int, order: int, width: int) -> int:
    """Batch rows per block of a product whose rows gather ``width``
    tensor entries of every product pair each."""
    return max(1, _BLOCK // (len(_mul_flat(dim, order)[0]) * width))


@lru_cache(maxsize=None)
def _outer_index(dim: int, order: int, FA: int, FB: int):
    """Flat gather indices of the pair terms of an outer product: for rows
    flattened as (FA, K) and (FB, K), the terms in (FA, FB, pairs) order."""
    IA, IB, S = _mul_flat(dim, order)
    K, shape = S.shape[1], (FA, FB, len(IA))
    ia = np.broadcast_to(np.arange(FA)[:, None, None] * K + IA, shape)
    ib = np.broadcast_to(np.arange(FB)[:, None] * K + IB, shape)
    return ia.ravel(), ib.ravel()


def _product(ac, bc, ka, kb, sizes, dim: int, order: int) -> np.ndarray:
    """The blocked gather-matmul: out[r, i, j] = sum_s a[r, i, s] b[r, s, j]
    with jet products, as an array of shape (rows, FA * FB, K).

    ``ac.transpose(ka)`` orders a's rows as (rows, FA..., SS..., K) and
    ``bc.transpose(kb)`` b's as (rows, SS..., FB..., K), with the tensor
    sizes ``sizes = (FA, SS, FB)``.  Each block gathers its pair terms,
    sums s by a matmul over (FA, SS) x (SS, FB) per pair (an outer
    product, SS = 1, is one flat gather and multiply), and sums each
    output coefficient's pairs by the matmul with S.  At order 0 there is
    one pair and S = [1], so the whole batch is one matmul.
    """
    FA, SS, FB = sizes
    rows = ac.shape[0]
    if order == 0:
        A = ac.transpose(ka).reshape(rows, FA, SS)
        B = bc.transpose(kb).reshape(rows, SS, FB)
        return np.matmul(A, B).reshape(rows, FA * FB, 1)
    IA, IB, S = _mul_flat(dim, order)
    P, K = S.shape
    out = np.empty((rows, FA * FB, K))
    step = _block_rows(dim, order, max(FA * FB, FA * SS, SS * FB))
    if SS == 1:
        ia, ib = _outer_index(dim, order, FA, FB)
    else:  # coefficients right after the rows: a pair gathers one index
        ka = [ka[0], ka[-1], *ka[1:-1]]
        kb = [kb[0], kb[-1], *kb[1:-1]]
    for lo in range(0, rows, step):
        n = min(rows, lo + step) - lo
        a = ac[lo:lo + n].transpose(ka)
        b = bc[lo:lo + n].transpose(kb)
        if SS == 1:
            terms = a.reshape(n, -1)[:, ia] * b.reshape(n, -1)[:, ib]
        else:
            A = a[:, IA].reshape(n, P, FA, SS)
            B = b[:, IB].reshape(n, P, SS, FB)
            terms = np.matmul(A, B)
            terms = terms.reshape(n, P, FA * FB).transpose(0, 2, 1)
        np.matmul(terms.reshape(-1, P), S, out=out[lo:lo + n].reshape(-1, K))
    return out


class Jet:
    """Truncated Taylor expansion; coefficients broadcast over leading axes."""

    __slots__ = ("dim", "order", "c")
    # numpy defers to the reflected operators: ndarray + Jet is a Jet
    __array_ufunc__ = None

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

    def __getitem__(self, key) -> "Jet":
        """Index the value axes (batch, then tensor): ``T[..., i, j]``."""
        key = key if isinstance(key, tuple) else (key,)
        return Jet(self.dim, self.order, self.c[key + (slice(None),)])

    def grad(self) -> "Jet":
        """The jet of the gradient, one order lower, with the derivative
        index appended as the last tensor axis: grad(T)[..., a] = d_a T."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        src, fac = _grad_table(self.dim, self.order)
        out = self.c[..., src]
        out *= fac
        return Jet(self.dim, self.order - 1, out)

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
        K = a.c.shape[-1]
        shape = np.broadcast_shapes(a.c.shape[:-1], b.c.shape[:-1])
        ac = np.broadcast_to(a.c, shape + (K,)).reshape(-1, K)
        bc = np.broadcast_to(b.c, shape + (K,)).reshape(-1, K)
        out = _product(ac, bc, (0, 1), (0, 1), (1, 1, 1), a.dim, a.order)
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
        coefficients around the jet's value: coef_fn(value, k) = f^(k)(v)/k!.

        Horner in delta = f - value; its first step c_p * delta is a scale,
        so an order-p composition takes p - 1 jet products.
        """
        v = self.value
        if self.order == 0:
            return Jet.const(self.dim, 0, coef_fn(v, 0))
        delta = Jet(self.dim, self.order, self.c.copy())
        delta.c[..., 0] = 0.0
        out = delta * coef_fn(v, self.order)
        out.c[..., 0] = coef_fn(v, self.order - 1)
        for k in range(self.order - 2, -1, -1):
            out = out * delta + Jet.const(self.dim, self.order, coef_fn(v, k))
        return out

    def reciprocal(self) -> "Jet":
        return self._series(lambda v, k: (-1.0) ** k / v ** (k + 1))

    def exp(self) -> "Jet":
        return self._series(lambda v, k: np.exp(v) / factorial(k))


def _rows(c: np.ndarray, rank: int, batch: tuple, K: int) -> np.ndarray:
    """Coefficients truncated to K and broadcast to ``batch``, with the
    batch axes flattened into one row axis."""
    tensor = c.shape[c.ndim - 1 - rank:-1]
    return np.broadcast_to(c[..., :K], batch + tensor + (K,)).reshape(
        (-1,) + tensor + (K,))


def contract(spec: str, a: Jet, b: Jet | None = None) -> Jet:
    """Einsum over the tensor axes of one or two jets, batch axes implicit.

    ``spec`` names the tensor axes only, e.g. ``"ki,kij->j"``; each
    operand's leading axes beyond its spec's rank are batch axes and
    broadcast against each other.  With two operands the coefficients
    multiply as jets: both are truncated to the lower order, and an index
    of both operands is summed by one blocked gather-matmul (see the
    module docstring).  With one operand it is a transpose or trace.
    """
    ins, out_idx = spec.replace(" ", "").split("->")
    if b is None:
        free = next(ch for ch in "zyxwvutsrqponm" if ch not in spec)
        return Jet(a.dim, a.order,
                   np.einsum(f"...{ins}{free}->...{out_idx}{free}", a.c))
    sa, sb = ins.split(",")
    summed = [ch for ch in sa if ch in sb]
    fa = [ch for ch in sa if ch not in summed]
    fb = [ch for ch in sb if ch not in summed]
    if sorted(fa + fb) != sorted(out_idx) or set(summed) & set(out_idx):
        raise ValueError(f"contract sums exactly the indices of both "
                         f"operands: {spec!r}")
    if a.dim != b.dim:
        raise ValueError("jet dimension mismatch")
    order = min(a.order, b.order)
    K = len(_exponents(a.dim, order))
    batch = np.broadcast_shapes(a.c.shape[:a.c.ndim - 1 - len(sa)],
                                b.c.shape[:b.c.ndim - 1 - len(sb)])
    ac = _rows(a.c, len(sa), batch, K)
    bc = _rows(b.c, len(sb), batch, K)
    size = dict(zip(sa + sb, ac.shape[1:-1] + bc.shape[1:-1]))
    ka = [0] + [1 + sa.index(ch) for ch in fa + summed] + [len(sa) + 1]
    kb = [0] + [1 + sb.index(ch) for ch in summed + fb] + [len(sb) + 1]
    out = _product(ac, bc, ka, kb,
                   [prod(size[ch] for ch in g) for g in (fa, summed, fb)],
                   a.dim, order)
    out = out.reshape((-1,) + tuple(size[ch] for ch in fa + fb) + (K,))
    perm = [1 + (fa + fb).index(ch) for ch in out_idx]
    return Jet(a.dim, order, out.transpose([0] + perm + [len(perm) + 1])
               .reshape(batch + tuple(size[ch] for ch in out_idx) + (K,)))


def stack(jets: list, axis: int = -1) -> Jet:
    """Stack jets of one order along a new value axis (negative: counted
    from the last tensor axis)."""
    cs = np.broadcast_arrays(*[j.c for j in jets])
    return Jet(jets[0].dim, jets[0].order,
               np.stack(cs, axis=axis - 1 if axis < 0 else axis))


# ---------------------------------------------------------------------------
# separable jets: products of univariate factors


@lru_cache(maxsize=None)
def _exponent_array(dim: int, order: int) -> np.ndarray:
    """``_exponents`` as an integer array of shape (K, dim)."""
    return np.array(_exponents(dim, order), dtype=np.intp).reshape(-1, dim)


def separable(dim: int, order: int, factors: dict) -> Jet:
    """The jet of prod_a u_a(x_a) from ``factors = {axis: u_a}``.

    Each u_a holds the normalized Taylor coefficients of its factor at the
    point on a trailing axis of length order + 1; the leading axes (batch,
    then tensor) broadcast against each other.  An axis absent from
    ``factors`` is the factor 1, and at least one axis is given.  The
    coefficients are c_alpha = prod_a u_a[..., alpha_a]: one gather per
    axis, and no jet product.
    """
    E = _exponent_array(dim, order)
    c = reduce(np.multiply, (np.asarray(u)[..., E[:, a]]
                             for a, u in factors.items()))  # a fresh array
    absent = [a for a in range(dim) if a not in factors]
    c[..., np.any(E[:, absent] > 0, axis=1)] = 0.0
    return Jet(dim, order, c)


def _cos_cycle(w, theta, order: int, quarter: int) -> np.ndarray:
    """w^m cos(theta + (m - quarter) pi / 2) / m! for m = 0..order, read
    off the exact cycle (cos, -sin, -cos, sin) of theta."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    m = np.arange(order + 1)
    cycle = np.stack([c, -s, -c, s], axis=-1)[..., (m - quarter) % 4]
    fact = np.array([factorial(k) for k in m], dtype=float)
    return cycle * (np.asarray(w, dtype=float)[..., None] ** m / fact)


def cos_coeffs(w, theta, order: int) -> np.ndarray:
    """Normalized Taylor coefficients of s -> cos(theta + w s) at s = 0:
    w^m cos(theta + m pi / 2) / m!, m = 0..order, on a trailing axis.
    For cos(w t + phase) at t0, pass theta = w t0 + phase."""
    return _cos_cycle(w, theta, order, 0)


def sin_coeffs(w, theta, order: int) -> np.ndarray:
    """The same for sin(theta + w s) = cos(theta - pi/2 + w s): the cosine
    cycle shifted back by a quarter period."""
    return _cos_cycle(w, theta, order, 1)


def poly_coeffs(t0, coeffs, order: int) -> np.ndarray:
    """Normalized Taylor coefficients of s -> sum_k p_k (t0 + s)^k at
    s = 0, m = 0..order (a Taylor shift):

        c_m = sum_{k >= m} binom(k, m) p_k t0^(k - m).

    ``coeffs`` holds p_0, p_1, ... on its last axis; its leading axes
    broadcast against the shape of t0.
    """
    p = np.asarray(coeffs, dtype=float)
    k = np.arange(p.shape[-1])[:, None]
    m = np.arange(order + 1)
    binom = np.array([[comb(i, j) for j in m] for i in k[:, 0]], dtype=float)
    shift = binom * np.asarray(t0, dtype=float)[..., None, None] ** np.maximum(
        k - m, 0)
    return np.matmul(p[..., None, :], shift)[..., 0, :]


def series_mul(u, v) -> np.ndarray:
    """Truncated product of two univariate coefficient arrays of equal
    length: w_m = sum_{i <= m} u_i v_(m - i), leading axes broadcast."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    p = u.shape[-1]
    out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    for i in range(p):
        out[..., i:] += u[..., i, None] * v[..., :p - i]
    return out


@lru_cache(maxsize=None)
def _inverse_table(dim: int, order: int):
    """Per degree n >= 1: (IA, IB, S), the pairs (alpha, gamma - alpha)
    with alpha != 0 of the degree-n outputs gamma in output order, and the
    0/1 matrix S of shape (outputs, pairs) that sums each output's pairs,
    as ``_mul_flat``'s S does for the product."""
    table = _mul_table(dim, order)
    exps = _exponents(dim, order)
    out = []
    for n in range(1, order + 1):
        pairs = [(ia[ia != 0], ib[ia != 0])
                 for g, (ia, ib) in enumerate(table) if sum(exps[g]) == n]
        owner = np.repeat(np.arange(len(pairs)), [len(ia) for ia, _ in pairs])
        out.append((np.concatenate([ia for ia, _ in pairs]),
                    np.concatenate([ib for _, ib in pairs]),
                    (owner == np.arange(len(pairs))[:, None]).astype(float)))
    return out


def jet_matrix_inverse(G: Jet) -> Jet:
    """Invert a matrix jet (tensor axes (d, d)) by the Taylor division
    recurrence.

    X = G^{-1} solves sum_{alpha + beta = gamma} G_alpha X_beta = 0 for
    gamma != 0, so with X_0 = G_0^{-1} (``np.linalg.inv`` of the values)

        X_gamma = -X_0 sum_{0 < alpha <= gamma} G_alpha X_{gamma - alpha},

    one degree at a time: every X_beta on the right has a lower degree.
    Degree n costs one batched (d, d) matmul per pair of ``_mul_table``
    with alpha != 0, a product with S that sums each output's pairs, and
    one matmul by X_0 per output.  The batch rows are taken in blocks of
    about ``_BLOCK`` values per pair temporary, as in the jet product.
    Guard: Gaussian elimination without pivoting runs on the values, and
    ``np.linalg.LinAlgError`` is raised when a pivot is <= 1e-12 max|G| in
    absolute value at some batch point (metric components are positive
    definite, so their leading minors stay away from zero).
    """
    g0 = G.value
    d = g0.shape[-1]
    tiny = 1e-12 * np.max(np.abs(g0), axis=(-2, -1))
    W = np.array(g0, dtype=float)
    for col in range(d):
        pivot = W[..., col, col]
        if np.any(np.abs(pivot) <= tiny):
            raise np.linalg.LinAlgError(
                f"vanishing pivot in column {col} of a jet matrix inverse")
        W[..., col + 1:, :] -= (W[..., col + 1:, col] / pivot[..., None])[
            ..., None] * W[..., col, None, :]
    K = G.c.shape[-1]
    gc = G.c.reshape(-1, d, d, K)
    x0 = np.linalg.inv(g0).reshape(-1, d, d)
    table = _inverse_table(G.dim, G.order)
    out = np.empty(gc.shape)
    step = max(1, _BLOCK // (d * d * max([len(IA) for IA, _, _ in table],
                                         default=1)))
    for lo in range(0, len(gc), step):
        Gk = np.moveaxis(gc[lo:lo + step], -1, 0)  # (K, rows, d, d)
        X = np.empty(Gk.shape)
        X[0] = xb = x0[lo:lo + step]
        k = 1
        for IA, IB, S in table:
            terms = np.matmul(Gk[IA], X[IB]).reshape(len(IA), -1)
            X[k:k + S.shape[0]] = -np.matmul(
                xb, (S @ terms).reshape((-1,) + xb.shape))
            k += S.shape[0]
        out[lo:lo + step] = np.moveaxis(X, 0, -1)
    return Jet(G.dim, G.order, out.reshape(G.c.shape))
