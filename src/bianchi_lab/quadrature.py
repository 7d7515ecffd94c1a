"""Composite quadrature over chart boxes and Green-formula defects.

Cell-centered midpoint rule, O(h^2), exact to roundoff for sub-Nyquist
trigonometric polynomials on periodic axes (the lateral axes and, for
period-1 integrands, the collar axis too).  Boundary integrals run over
the two collar faces with the induced volume density; on charts with
non-periodic lateral axes the Green identities additionally require the
fields to vanish on the box side walls, which the callers arrange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import (
    MetricChart,
    _by_chunks,
    _pair,
    bianchi_b,
    dewitt_inner,
    divergence,
    geometry_from_jets,
    killing,
    sym_from_upper,
)
from .jets import (
    Jet,
    contract,
    cos_coeffs,
    poly_coeffs,
    separable,
    series_mul,
    sin_coeffs,
)
from .linearize import Perturbation, dein_closed_jets

__all__ = [
    "GridSpec",
    "interior_nodes",
    "face_nodes",
    "integrate_scalar_samples",
    "green_killing_defect",
    "green_einstein_sym_defect",
    "dewitt_green_ric_defect",
    "green_symmetry_defects",
    "convergence_study",
    "periodic_sym_field",
    "periodic_vector_field",
    "box_bump_sym_field",
]


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered grid on a coordinate box with two collar faces.

    Resolution is n cells per axis; the collar faces sit at the ends of
    the last axis.
    """

    dim: int
    n: int
    box: tuple  # per-axis (lo, hi)

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("resolution must be at least 4")
        if len(self.box) != self.dim:
            raise ValueError("per-axis data must match the dimension")

    @property
    def widths(self) -> np.ndarray:
        return np.array([hi - lo for lo, hi in self.box])

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.widths / self.n))

    @property
    def face_cell_area(self) -> float:
        return float(np.prod(self.widths[:-1] / self.n))

    @classmethod
    def for_chart(cls, chart: MetricChart, n: int) -> "GridSpec":
        return cls(chart.dim, n, tuple(chart.domain))


def _mesh(axes) -> np.ndarray:
    """The nodes of the tensor grid of ``axes``, the last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _cell_axes(grid: GridSpec) -> list:
    return [lo + (np.arange(grid.n) + 0.5) * (hi - lo) / grid.n
            for lo, hi in grid.box]


def interior_nodes(grid: GridSpec) -> np.ndarray:
    return _mesh(_cell_axes(grid))


def face_nodes(grid: GridSpec, face: int) -> np.ndarray:
    return _mesh(_cell_axes(grid)[:-1] + [[grid.box[-1][face]]])


def integrate_scalar_samples(grid: GridSpec, samples: np.ndarray,
                             region: str) -> float:
    """Midpoint rule; the samples must already include the volume density."""
    if region == "interior":
        expected = grid.n ** grid.dim
        cell = grid.cell_volume
    elif region == "boundary":
        expected = grid.n ** (grid.dim - 1)
        cell = grid.face_cell_area
    else:
        raise ValueError("region must be interior or boundary")
    if samples.size != expected:
        raise ValueError("sample count does not match the grid region")
    return float(np.sum(samples) * cell)


# ---------------------------------------------------------------------------
# test fields


def _trig_terms(x, order, coef, ks, ph, normal_vanish):
    """Jets of coef_i prod_a cos(2 pi ks_ia x_a + ph_ia), times
    sin(pi x_d)^normal_vanish, one entry per row of ks: a separable jet."""
    d = ks.shape[1]
    x = np.asarray(x, dtype=float)[..., None, :]  # entries broadcast
    w = 2 * np.pi * ks
    factors = {a: cos_coeffs(w[:, a], w[:, a] * x[..., a] + ph[:, a], order)
               for a in range(d)}
    factors[0] = factors[0] * coef[:, None]
    s = sin_coeffs(np.pi, np.pi * x[..., -1], order)
    for _ in range(normal_vanish):
        factors[d - 1] = series_mul(factors[d - 1], s)
    return separable(d, order, factors)


def periodic_sym_field(dim: int, seed: int, normal_vanish: int = 0):
    """Symmetric field whose components are period-1 trig polynomials,
    each axis at frequency 0 or 1.

    ``normal_vanish=2`` multiplies by sin^2(pi x_d), which vanishes to
    second order at both unit-box collar faces while staying trigonometric.
    """
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((dim, dim))
    coef = 0.5 * (coef + coef.T)
    ks = rng.integers(0, 2, size=(dim, dim, dim))
    ks = np.minimum(ks, np.transpose(ks, (1, 0, 2)))
    ph = rng.uniform(0, 2 * np.pi, size=(dim, dim, dim))
    ph = 0.5 * (ph + np.transpose(ph, (1, 0, 2)))

    upper = np.triu_indices(dim)
    coef, ks, ph = coef[upper], ks[upper], ph[upper]

    def fn(x, order):
        return sym_from_upper(_trig_terms(x, order, coef, ks, ph,
                                          normal_vanish), dim)

    return Perturbation(fn, dim)


def periodic_vector_field(dim: int, seed: int, normal_vanish: int = 0):
    """Vector field in the form of ``periodic_sym_field``."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(dim)
    ks = rng.integers(0, 2, size=(dim, dim))
    ph = rng.uniform(0, 2 * np.pi, size=(dim, dim))

    def fn(x, order):
        return _trig_terms(x, order, coef, ks, ph, normal_vanish)

    return fn


def box_bump_sym_field(chart: MetricChart, seed: int):
    """Polynomial field vanishing to second order on the whole box boundary.

    Each component carries the factor prod_a (t_a (1 - t_a))^2 in box
    coordinates, so side-wall and collar-face contributions to the Green
    identities vanish; the components stay jet-exact polynomials.
    """
    dim = chart.dim
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal((dim, dim))
    coef = 0.5 * (coef + coef.T)
    lin = rng.standard_normal((dim, dim, dim)) * 0.5
    lin = 0.5 * (lin + np.transpose(lin, (1, 0, 2)))
    upper = np.triu_indices(dim)
    coef, lin = coef[upper], lin[upper]

    def fn(x, order):
        xs = Jet.variables(x, order)
        ts = [(xs[a] - lo) * (1.0 / (hi - lo))
              for a, (lo, hi) in enumerate(chart.domain)]
        # 16 t^2 (1 - t)^2 per axis, in x: the t-coefficients over width^m
        bump = separable(dim, order, {
            a: poly_coeffs(t.value, (0, 0, 16, -32, 16), order)
            / (hi - lo) ** np.arange(order + 1)
            for a, (t, (lo, hi)) in enumerate(zip(ts, chart.domain))})
        poly = Jet.const(dim, order, coef)
        for a in range(dim):
            poly = poly + ts[a][..., None] * lin[:, a]
        return sym_from_upper(contract(",i->i", bump, poly), dim)

    return Perturbation(fn, dim)


# ---------------------------------------------------------------------------
# Green-formula defects


def _volume_density(gvals: np.ndarray) -> np.ndarray:
    return np.sqrt(np.linalg.det(gvals))


def _face_geometry(chart: MetricChart, grid: GridSpec, face: int):
    """Face nodes with metric values and their inverses, inward unit
    normal, boundary density."""
    x = face_nodes(grid, face)
    gvals = chart.metric_jets(x, 0).value
    ginv = np.linalg.inv(gvals)
    sign = 1.0 if face == 0 else -1.0
    nvec = sign * ginv[..., :, -1] / np.sqrt(ginv[..., -1, -1])[..., None]
    dens = np.sqrt(np.linalg.det(gvals[..., : -1, : -1]))
    return x, gvals, ginv, nvec, dens


def green_killing_defect(grid: GridSpec, chart: MetricChart, x_field,
                         sigma) -> float:
    """Defect of the Killing-operator adjunction under the DeWitt pairing.

    The identity reads <killing X, sigma>_De = <X, div B sigma>
    - sum_faces (B sigma)(X, n_in) dA with inward unit normals.

    The interior integrands read only the values of killing X and of
    div B sigma, and both are first-order operators: their values need
    the 1-jets of g, X and sigma (the Christoffel symbols as values).  So
    the metric and the fields are evaluated at jet order 1.  Truncated
    jet arithmetic computes each coefficient from coefficients of equal
    or lower degree only, so these values are the ones an order-2
    evaluation gives, up to roundoff.
    """
    def integrands(x):
        geom = geometry_from_jets(chart.metric_jets(x, 1), curvature=False)
        X, sig = x_field(x, 1), sigma(x, 1)
        gvals = geom.g.value
        dens = _volume_density(gvals)
        lhs = dewitt_inner(killing(geom, X).value, sig.value,
                           geom.ginv.value)
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
    return abs(lhs - bulk + flux)


def _check_kernel_pair(chart, grid, fields):
    """Reject inputs whose boundary 1-jets survive (regime of the
    unspecified first-order boundary operator in the Einstein formula)."""
    for face in (0, 1):
        xf = face_nodes(grid, face)
        for f in fields:
            sig = f(xf, 1)
            vals = sig.value
            scale = max(1.0, np.abs(vals).max())
            if np.abs(vals).max() > 1e-8 * scale or \
               np.abs(sig.partial(chart.dim - 1).value).max() > 1e-6 * scale:
                raise ValueError(
                    "Green symmetry probe needs order-2 boundary vanishing")


def _dein_and_value(geom, field, x):
    """dEin field and the field itself at x, as values; the field's jets
    are freed on return."""
    sig = field(x, 2)
    return dein_closed_jets(geom, sig).value, sig.value


def _trace(a, ginv):
    return np.einsum("...ij,...ij->...", ginv, a)


def _ein_pairing_correction(ein, ginv, sv, ev):
    """The tensorial symmetry correction (<Ein,s> tr e - <Ein,e> tr s)/2."""
    return 0.5 * (_pair(ein, sv, ginv) * _trace(ev, ginv)
                  - _pair(ein, ev, ginv) * _trace(sv, ginv))


def _symmetry_defects(grid, chart, sigma, eta, ein_corrected, pairs) -> list:
    """|int one - int two [- int correction]| over the interior nodes, one
    defect per function of ``pairs``, each giving (one, two) =
    pairs(g, g^-1, sigma, dEin sigma, eta, dEin eta) in values.

    Each chunk of nodes builds one Geometry, which serves dEin sigma,
    dEin eta and the (g, Ein) values of the correction, and every pairs
    function reads the same dEin values.  Raises ``ValueError`` unless
    sigma and eta vanish to second order on both collar faces.
    """
    _check_kernel_pair(chart, grid, (sigma, eta))

    def samples(xc):
        geom = geometry_from_jets(chart.metric_jets(xc, 2))
        gv, ginv = geom.g.value, geom.ginv.value
        dens = _volume_density(gv)
        (de_s, sv), (de_e, ev) = (_dein_and_value(geom, f, xc)
                                  for f in (sigma, eta))
        out = [v * dens for pair in pairs
               for v in pair(gv, ginv, sv, de_s, ev, de_e)]
        if ein_corrected:
            out.append(_ein_pairing_correction(geom.ein.value, ginv, sv, ev)
                       * dens)
        return out

    ints = [integrate_scalar_samples(grid, v, "interior")
            for v in _by_chunks(samples, interior_nodes(grid))]
    n = 2 * len(pairs)
    corr = sum(ints[n:])
    return [abs(one - two - corr) for one, two in zip(ints[0:n:2],
                                                      ints[1:n:2])]


def _einstein_pairs(gv, ginv, sv, de_s, ev, de_e):
    return _pair(de_s, ev, ginv), _pair(sv, de_e, ginv)


def _dewitt_pairs(gv, ginv, sv, de_s, ev, de_e):
    d = gv.shape[-1]

    def ric_route(de):  # B^{-1} dEin
        return de - (_trace(de, ginv) / (d - 2))[..., None, None] * gv

    return (dewitt_inner(ric_route(de_s), ev, ginv),
            dewitt_inner(sv, ric_route(de_e), ginv))


def green_einstein_sym_defect(grid: GridSpec, chart: MetricChart, sigma, eta,
                              ein_corrected: bool = False) -> float:
    """|<dEin sigma, eta> - <sigma, dEin eta>| for kernel-constrained pairs:
    sigma and eta must vanish to second order on both collar faces, else
    ``ValueError``.

    The plain symmetry holds exactly only on Ricci-flat interiors; with
    ``ein_corrected`` the derived tensorial correction
    (<Ein,sigma> tr eta - <Ein,eta> tr sigma)/2 is subtracted, closing the
    identity on every background.
    """
    return _symmetry_defects(grid, chart, sigma, eta, ein_corrected,
                             (_einstein_pairs,))[0]


def dewitt_green_ric_defect(grid: GridSpec, chart: MetricChart, sigma, eta,
                            ein_corrected: bool = False) -> float:
    """Same symmetry defect for the trace-reversed operator in the DeWitt
    pairing; algebraically identical to the Einstein-route defect."""
    return _symmetry_defects(grid, chart, sigma, eta, ein_corrected,
                             (_dewitt_pairs,))[0]


def green_symmetry_defects(grid: GridSpec, chart: MetricChart, sigma, eta,
                           ein_corrected: bool = False) -> tuple:
    """(``green_einstein_sym_defect``, ``dewitt_green_ric_defect``) from
    one pass over the nodes: dEin sigma and dEin eta are built once."""
    return tuple(_symmetry_defects(grid, chart, sigma, eta, ein_corrected,
                                   (_einstein_pairs, _dewitt_pairs)))


# ---------------------------------------------------------------------------
# convergence studies


def convergence_study(defect_fn, ns) -> dict:
    """Least-squares log-log slope of defect(n) against h = 1/n.

    Defects at roundoff level short-circuit to an "exact" verdict.
    """
    ns = list(ns)
    if len(ns) < 3:
        raise ValueError("need at least three resolutions")
    table = [(n, float(defect_fn(n))) for n in ns]
    defects = np.array([t[1] for t in table])
    if np.all(defects <= 1e-12):
        return {"status": "exact", "slope": None, "table": table}
    hs = 1.0 / np.array(ns, dtype=float)
    mask = defects > 0
    slope = float(np.polyfit(np.log(hs[mask]), np.log(defects[mask]), 1)[0])
    return {"status": "ok", "slope": slope, "table": table}
