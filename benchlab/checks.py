"""Output checks of the benchmark, independent of bianchi_lab's code paths.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  The oracles are deliberately plain numpy: finite
differences of metric values, closed forms, a dense SVD and the residual
recomputed from the assembled matrix.  None of them calls the library
function whose output it checks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# pointwise geometry


def fd_ricci(metric_values, x, h=1e-3):
    """Ricci tensor R_ij = R^k_ikj by central differences of metric values.

    ``metric_values`` maps points (N, d) to metric values (N, d, d); every
    stencil point of the N base points goes through one call.
    """
    x = np.asarray(x, dtype=float)
    npts, d = x.shape
    eye = np.eye(d) * h
    offsets = [np.zeros(d)]
    offsets += [s * eye[a] for a in range(d) for s in (1, -1)]
    pairs = list(combinations(range(d), 2))
    offsets += [sa * eye[a] + sb * eye[b] for a, b in pairs
                for sa in (1, -1) for sb in (1, -1)]
    stencil = x[:, None, :] + np.array(offsets)[None, :, :]
    g_all = metric_values(stencil.reshape(-1, d)).reshape(
        npts, len(offsets), d, d)
    g = g_all[:, 0]
    dg = np.empty((npts, d, d, d))          # dg[:, a, i, j] = d_a g_ij
    ddg = np.empty((npts, d, d, d, d))      # ddg[:, a, b, i, j]
    for a in range(d):
        gp, gm = g_all[:, 1 + 2 * a], g_all[:, 2 + 2 * a]
        dg[:, a] = (gp - gm) / (2 * h)
        ddg[:, a, a] = (gp - 2 * g + gm) / h ** 2
    base = 1 + 2 * d
    for p, (a, b) in enumerate(pairs):
        gpp, gpm, gmp, gmm = (g_all[:, base + 4 * p + q] for q in range(4))
        mixed = (gpp - gpm - gmp + gmm) / (4 * h ** 2)
        ddg[:, a, b] = ddg[:, b, a] = mixed
    ginv = np.linalg.inv(g)
    # lower Christoffels G_lij = (d_i g_lj + d_j g_li - d_l g_ij) / 2
    low = 0.5 * (np.einsum("nilj->nlij", dg) + np.einsum("njli->nlij", dg)
                 - dg)
    gamma = np.einsum("nkl,nlij->nkij", ginv, low)
    dlow = 0.5 * (np.einsum("nmilj->nmlij", ddg)
                  + np.einsum("nmjli->nmlij", ddg) - ddg)
    dginv = -np.einsum("nka,nmab,nbl->nmkl", ginv, dg, ginv)
    dgamma = (np.einsum("nmkl,nlij->nmkij", dginv, low)
              + np.einsum("nkl,nmlij->nmkij", ginv, dlow))
    ric = (np.einsum("nkkij->nij", dgamma) - np.einsum("njkik->nij", dgamma)
           + np.einsum("nkkl,nlij->nij", gamma, gamma)
           - np.einsum("nkjl,nlik->nij", gamma, gamma))
    return ric


def check_ricci(ric, ric_fd, tol=1e-5):
    err = float(np.abs(np.asarray(ric) - ric_fd).max())
    scale = max(1.0, float(np.abs(ric_fd).max()))
    if not err <= tol * scale:
        return [f"Ricci differs from finite differences by {err:.3e}"]
    return []


def check_sphere_frame(mean_curv, second_ff, induced_metric, radius, dim,
                       tol=1e-9):
    """Face of the flat ball of radius R, with A = Hess r for the distance
    r to the face: A = -g_bnd / R and H = tr A = -(d - 1) / R."""
    problems = []
    h_err = float(np.abs(np.asarray(mean_curv) + (dim - 1) / radius).max())
    if not h_err <= tol:
        problems.append(f"mean curvature off (d-1)/R by {h_err:.3e}")
    a_err = float(np.abs(np.asarray(second_ff)
                         + np.asarray(induced_metric) / radius).max())
    if not a_err <= tol:
        problems.append(f"second fundamental form off g/R by {a_err:.3e}")
    return problems


def eikonal_residual(grad_r, gvals):
    """|grad r|^2_g - 1 at points from d_i r (N, d) and g_ij (N, d, d)."""
    ginv = np.linalg.inv(gvals)
    return np.einsum("nij,ni,nj->n", ginv, grad_r, grad_r) - 1.0


def taylor_gradient(coeffs, delta):
    """Gradient of r(x + delta) = sum_alpha c_alpha delta^alpha.

    ``coeffs`` maps each multi-index alpha to its coefficients (N,);
    ``delta`` is (N, d).
    """
    grad = np.zeros(delta.shape)
    for alpha, c in coeffs.items():
        for a in range(delta.shape[-1]):
            if alpha[a] == 0:
                continue
            beta = np.array(alpha)
            beta[a] -= 1
            grad[:, a] += alpha[a] * c * np.prod(delta ** beta, axis=-1)
    return grad


# Rays of length RAY_REACH sampled at RAY_SAMPLES points, and the degree of
# the polynomial fitted along them.
RAY_REACH, RAY_SAMPLES, RAY_DEGREE = 0.1, 12, 8


def eikonal_ray_coefficients(coeffs, x, metric_values, directions):
    """Taylor coefficients of the eikonal residual along rays, by a fit.

    The Taylor polynomial of r is differentiated at x + t RAY_REACH u, for
    t = 1/RAY_SAMPLES, ..., 1 and each direction u, and the metric is
    evaluated there.  A least-squares polynomial of degree RAY_DEGREE in t
    is fitted to R(t) = |grad r|^2_g - 1 along each ray.  Returns the
    fitted coefficients, shape (directions, RAY_DEGREE + 1, N):
    coefficient k is the h^k coefficient of the residual times
    RAY_REACH^k.
    """
    t = np.arange(1, RAY_SAMPLES + 1) / RAY_SAMPLES
    vander = t[:, None] ** np.arange(RAY_DEGREE + 1)
    out = []
    for u in directions:
        res = []
        for tj in t:
            delta = np.broadcast_to(
                tj * RAY_REACH * np.asarray(u, dtype=float), x.shape)
            res.append(eikonal_residual(taylor_gradient(coeffs, delta),
                                        metric_values(x + delta)))
        out.append(np.linalg.lstsq(vander, np.array(res), rcond=None)[0])
    return np.stack(out)


def check_eikonal(ray_coeffs, order, tol=1e-9):
    """A distance jet of order p leaves a residual of O(h^p): its fitted
    coefficients below order p vanish to the fit's accuracy (at most
    3.2e-10 over 150 seeds of the pointwise-geometry charts; an error of
    1e-6 in one order-p coefficient of r gives 1.4e-9 or more)."""
    worst = float(np.abs(ray_coeffs[:, :order]).max())
    if not worst <= tol:
        return [f"eikonal residual has a coefficient {worst:.3e} below order "
                f"{order}: distance_jet did not converge"]
    return []


# ---------------------------------------------------------------------------
# quadrature


def trig_polynomial(rng, dim, n, terms=4):
    """Random f = c0 + sum a cos(2 pi k.x + phi) on [0, 1]^dim, with
    0 < max|k| < n.

    The midpoint rule with n cells per axis integrates each cosine to zero
    exactly, so the rule gives c0.  Every term varies in x, so f is drawn
    over the coordinates it is integrated in: on a face, the lateral ones.
    """
    c0 = float(rng.uniform(0.5, 2.0))
    ks = rng.integers(-(n - 1), n, size=(terms, dim))
    ks[np.all(ks == 0, axis=1), 0] = 1
    amps = rng.standard_normal(terms)
    phases = rng.uniform(0, 2 * np.pi, terms)

    def f(x):
        arg = 2 * np.pi * (x @ ks.T) + phases
        return c0 + np.cos(arg) @ amps

    return f, c0


def check_integral(value, exact, tol=1e-12):
    err = abs(value - exact)
    if not err <= tol * max(1.0, abs(exact)):
        return [f"integral {value!r} differs from {exact!r} by {err:.3e}"]
    return []


# ---------------------------------------------------------------------------
# slab solves


def relative_residual(matrix, x, b):
    return float(np.linalg.norm(matrix @ x - b) / np.linalg.norm(b))


def check_solve(kind, rel, reported):
    """Solvable if and only if the source is admissible, read off the
    least-squares residual: zero to solver tolerance for the
    discrete-admissible source, bounded away from zero for the two
    inadmissible ones.  The continuum source is judged by its slope."""
    problems = []
    if kind == "discrete-admissible" and not rel <= 1e-8:
        problems.append(f"admissible source left residual {rel:.3e} > 1e-8")
    if kind.startswith("inadmissible") and not rel >= 0.05:
        problems.append(f"inadmissible source solved to {rel:.3e} < 0.05")
    if not abs(rel - reported) <= 1e-6 * max(rel, 1e-12):
        problems.append(f"reported residual {reported:.6e} but the matrix "
                        f"gives {rel:.6e}")
    return problems


def loglog_slope(ns, values):
    return float(np.polyfit(np.log(1.0 / np.asarray(ns, dtype=float)),
                            np.log(values), 1)[0])


def check_slope(ns, values, floor=1.8):
    slope = loglog_slope(ns, values)
    if not slope >= floor:
        return [f"log-log slope {slope:.3f} below {floor}"]
    return []


# ---------------------------------------------------------------------------
# slab spectra


def check_sigma_min(fourier_spectrum, dense_svals, rel_tol=1e-9):
    """The Fourier spectrum's minimum is positive and equals the dense SVD."""
    fourier_spectrum = np.asarray(fourier_spectrum)
    smax = float(np.max(dense_svals))
    fmin, dmin = float(fourier_spectrum.min()), float(np.min(dense_svals))
    problems = []
    if not fmin > 1e-8 * smax:
        problems.append(f"Fourier sigma_min {fmin:.3e} is not positive")
    if not abs(fmin - dmin) <= rel_tol * smax:
        problems.append(f"Fourier sigma_min {fmin!r} but dense SVD {dmin!r}")
    if not len(fourier_spectrum) == len(dense_svals):
        problems.append(f"{len(fourier_spectrum)} Fourier singular values "
                        f"but {len(dense_svals)} dense ones")
    return problems


def check_positive_spectrum(spectrum):
    spectrum = np.asarray(spectrum)
    if not spectrum.min() > 1e-8 * spectrum.max():
        return [f"sigma_min {spectrum.min():.3e} is not positive"]
    return []


def check_kernel_probe(probe, spectrum, rel_tol=1e-8):
    smin, smax = float(np.min(spectrum)), float(np.max(spectrum))
    if not abs(probe - smin) <= rel_tol * smax:
        return [f"kernel probe {probe!r} but Fourier sigma_min {smin!r}"]
    return []


def check_gap(gap, nkernel, spectrum):
    problems = []
    if nkernel != 0:
        problems.append(f"kernel of dimension {nkernel} on the slab")
    if not abs(gap - float(np.min(spectrum))) <= 1e-12 * float(
            np.max(spectrum)):
        problems.append(f"gap {gap!r} is not sigma_min {np.min(spectrum)!r}")
    return problems


def check_slab_cohomology(probe):
    if (probe["dim_h0"], probe["dim_h1"]) != (0, 0):
        return [f"(h0, h1) = ({probe['dim_h0']}, {probe['dim_h1']}) on the "
                f"slab, expected (0, 0)"]
    return []


def check_torus(probe, dim, tol=1e-10):
    problems = []
    if not probe["dim_h0"] >= dim:
        problems.append(f"torus dim h0 = {probe['dim_h0']} < {dim}")
    worst = max(probe["translation_image_norms"])
    if not worst <= tol:
        problems.append(f"translation image {worst:.3e} > {tol}")
    return problems
