"""The batched real lateral-Fourier block builder and the least-squares
solve on its blocks, against the per-block oracles, LSMR and the dense
SVD."""

import dataclasses
import tracemalloc
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from bianchi_lab import bvp
from bianchi_lab.charts import make_chart

from oracles import (
    assemble_loop,
    block_spectrum,
    dstar_from_P,
    grid_stencils,
    h0_blocks_loop,
    h1_blocks_loop,
    interior_from_P_loop,
    lateral_blocks_loop,
    lsmr_solve,
    lstsq_solve_loop,
)

CHART = make_chart("flat_slab_periodic", 3)

# (polynomial, oracle blocks, public spectrum) per stack; every stack has
# d - 1 symbol axes, the closed torus's last axis being a periodic collar
STACKS = {
    "full": (bvp._slab_polynomial, lateral_blocks_loop,
             lambda n, d: bvp.lateral_block_svals(n, d)["spectrum"]),
    "h1": (bvp._h1_polynomial, h1_blocks_loop, bvp.h1_spectrum),
    "h0": (bvp._h0_polynomial, h0_blocks_loop, bvp.h0_spectrum),
    "h0-torus": (lambda n, d: bvp._h0_polynomial(n, d, closed_torus=True),
                 lambda n, d: h0_blocks_loop(n, d, closed_torus=True),
                 lambda n, d: bvp.h0_spectrum(n, d, closed_torus=True)),
}


def built_blocks(poly, n):
    classes = np.arange(bvp._class_count(n) ** len(poly.row_axes))
    return np.stack(list(bvp._fourier_blocks(poly, n, classes)))


def phased(oracle, poly):
    """The oracle's complex blocks with row r scaled by i^(-p_r) and
    column c by i^(p_c): real, up to roundoff."""
    rows = (1j) ** -poly.row_parity
    cols = (1j) ** poly.col_parity
    return np.stack([rows[:, None] * A * cols for _, A in oracle])


def served(poly, n, blocks):
    """Every mode's block as D_r B D_c: B the block of its class, D_r and
    D_c the signs (-1)^parity of the reflection of each negated axis."""
    rep, negated = bvp._symbol_classes(n, len(poly.row_axes))
    rows = np.stack([np.prod(1 - 2 * poly.row_axes[neg], axis=0)
                     for neg in negated])
    cols = np.stack([np.prod(1 - 2 * poly.col_axes[neg], axis=0)
                     for neg in negated])
    return rows[:, :, None] * blocks[rep] * cols[:, None, :]


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("d,n", [(3, 4), (3, 5), (3, 8), (4, 4)])
def test_blocks_and_spectra_match_per_block_oracle(stack, d, n):
    # the torus oracle is the Fourier transform in all d axes, whose
    # 1-row blocks are not the periodic collar's: only its spectrum, which
    # is the same operator's, is compared
    poly_fn, oracle_fn, spectrum_fn = STACKS[stack]
    torus = stack == "h0-torus"
    oracle = list(oracle_fn(n, d))
    assert [k for k, _ in oracle] == list(
        product(range(n), repeat=d if torus else d - 1))
    poly = poly_fn(n, d)
    assert np.array_equal(poly.row_axes.sum(axis=0) % 2, poly.row_parity)
    assert np.array_equal(poly.col_axes.sum(axis=0) % 2, poly.col_parity)
    blocks = built_blocks(poly, n)
    assert blocks.dtype == np.float64
    assert len(blocks) == bvp._class_count(n) ** (d - 1)
    if not torus:
        ref = phased(oracle, poly)
        got = served(poly, n, blocks)
        assert got.shape == ref.shape
        scale = np.abs(ref).max()
        assert np.abs(ref.imag).max() <= 1e-12 * scale
        assert np.abs(got - ref).max() <= 1e-12 * scale

    want = block_spectrum(oracle)["spectrum"]
    got = spectrum_fn(n, d)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * want[-1]


def same_sparse_matrix(A, B):
    """A and B store the same entries, each value to 1e-15 of the
    largest: the batched builders' products round differently from the
    sparse ones in the last bit."""
    A, B = A.sorted_indices(), B.sorted_indices()
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.abs(A.data - B.data).max() <= 1e-15 * np.abs(B.data).max()


# n=4, where the lateral offsets +-2 alias, and odd n among them
EXPANDED = [(3, 4), (3, 5), (3, 8), (3, 15), (4, 4), (4, 5), (5, 4)]


@pytest.mark.parametrize("d,n", EXPANDED)
def test_assembled_matrix_matches_per_term_assembly(d, n):
    # the lateral expansion of the block polynomial against the sparse
    # per-term assembly on the full grid
    chart = make_chart("flat_slab_periodic", d)
    same_sparse_matrix(bvp.assemble(n, chart).matrix, assemble_loop(n, d))


@pytest.mark.parametrize("d,n", EXPANDED + [(4, 8)])
def test_expanded_divergence_matches_the_oracle(d, n):
    # each source's divergence is read off the gauge rows delta B of the
    # expanded slab matrix, applied to B^-1 T, for every kind the grid
    # admits: div_rel against the oracle's per-term divergence to 1e-14 of
    # max |T|, and the vector within the rounding bound of the two
    # products, 4 eps (|delta B| |B^-1 T| + |delta| |T|) entry by entry
    # (1.1e-14 of max |T| at d=3, n=15, about 1 eps of that sum)
    chart = make_chart("flat_slab_periodic", d)
    system = bvp.assemble(n, chart)
    gauge = system._rows(("gauge",))
    _, GAUGE, B, DIV, _ = interior_from_P_loop(grid_stencils(n, d)[0], d,
                                               n ** d)
    eps = np.finfo(float).eps
    kinds = [kind for kind, least in bvp.SOURCE_MIN_GRID.items()
             if n >= least]
    assert kinds
    for kind in kinds:
        src = bvp.make_source(n, chart, kind, seed=3)
        scale = np.abs(src.values).max()
        mu = bvp._b_inverse(src.values, d)
        assert np.abs(B @ mu - src.values).max() <= 1e-15 * scale, kind
        want = DIV @ src.values
        got = (system.matrix @ mu)[gauge]
        bound = 4 * eps * (abs(GAUGE) @ np.abs(mu)
                           + abs(DIV) @ np.abs(src.values))
        assert np.all(np.abs(got - want) <= bound), kind
        assert abs(src.div_rel * scale - np.abs(want).max()) \
            <= 1e-14 * scale, kind


@pytest.mark.parametrize("closed_torus", [False, True])
@pytest.mark.parametrize("d,n", EXPANDED)
def test_h0_expansion_matches_the_oracle(d, n, closed_torus):
    # delta* then, on the slab, the restriction of X to each face with
    # weight h^(-1/2)
    P, E_faces = grid_stencils(n, d, closed_torus)
    H0 = sp.vstack([dstar_from_P(P, d)]
                   + [(1.0 / n) ** -0.5 * sp.block_diag([E] * d,
                                                        format="csr")
                      for E in E_faces], format="csr")
    same_sparse_matrix(bvp._expand(bvp._h0_polynomial(n, d, closed_torus),
                                   n), H0)


def test_coefficient_that_breaks_the_parity_grading_raises():
    # X_0 has one lateral index and X_2 (the collar component) none: a
    # zeroth-order row coupling them can be made real by no diagonal phase
    n, d = 5, 3
    dstar = bvp._symbol(d, bvp.killing)
    mixed = np.zeros((len(dstar), 1, d))
    mixed[0, 0, [0, 2]] = 1.0
    restrict = np.zeros((len(dstar), d, d))
    restrict[0] = np.eye(d)
    faces = [(0, restrict), (1, restrict)]
    unknowns = [(a,) for a in range(d)]
    with pytest.raises(ValueError, match="parity"):
        bvp._block_polynomial(n, d, bvp._collar(n),
                              np.concatenate([dstar, mixed], axis=1),
                              faces, unknowns)
    # the same tables without the coupling row are graded
    poly = bvp._block_polynomial(n, d, bvp._collar(n), dstar, faces,
                                 unknowns)
    assert np.array_equal(poly.coef, bvp._h0_polynomial(n, d).coef)


def test_each_operator_is_read_off_the_jet_route_once(monkeypatch):
    # after the per-pass reset, the polynomial builds of a slab-solve pass
    # (n = 15, 6, 8, 10) and of a probe's H0 rows read each operator's
    # coefficients off the jet route once: one extractor miss, and one
    # jet-route call, per (d, operator)
    calls = []

    def recorded(name, operator):
        def run(geom, field):
            calls.append(name)
            return operator(geom, field)
        return run

    for name in ("dein_closed_jets", "_gauge", "killing"):
        monkeypatch.setattr(bvp, name, recorded(name, getattr(bvp, name)))
    bvp._symbol.cache_clear()
    bvp._slab_polynomial.cache_clear()
    for n in (15, 6, 8, 10):
        bvp._slab_polynomial(n, 3)
    bvp._h0_polynomial(8, 3)
    bvp._slab_polynomial.cache_clear()
    info = bvp._symbol.cache_info()
    assert (info.misses, info.hits) == (3, 6)
    assert sorted(calls) == ["_gauge", "dein_closed_jets", "killing"]


# ---------------------------------------------------------------------------
# the symbol classes


@pytest.mark.parametrize("n", range(4, 18))
def test_symbol_class_count_per_axis(n):
    rep, negated = bvp._symbol_classes(n, 1)
    t = np.sin(2 * np.pi * np.arange(n) / n)
    want = n // 4 + 1 if n % 2 == 0 else (n + 1) // 2
    assert len(np.unique(np.round(np.abs(t), 12))) == want
    assert bvp._class_count(n) == want
    assert sorted(set(rep.tolist())) == list(range(want))
    assert negated.shape == (n, 1)


@pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (8, 2), (9, 3), (12, 3),
                                 (15, 2), (16, 2)])
def test_every_mode_has_the_symbol_magnitudes_of_its_class(n, m):
    rep, negated = bvp._symbol_classes(n, m)
    K = bvp._class_count(n)
    modes = np.array(list(product(range(n), repeat=m)))
    t = np.sin(2 * np.pi * modes / n)
    t_rep = np.sin(2 * np.pi * np.array(np.unravel_index(rep, (K,) * m)).T
                   / n)
    assert np.all(t_rep >= 0)
    assert np.abs(np.abs(t) - t_rep).max() <= 4 * np.finfo(float).eps
    # the negated axes are those with t < 0; t = 0 needs no reflection
    signed = np.abs(t) > 1e-12
    assert np.array_equal(negated[signed], t[signed] < 0)


# ---------------------------------------------------------------------------
# the least-squares solve on the real blocks


@pytest.mark.parametrize("kind", ["continuum-admissible",
                                  "inadmissible-divergence",
                                  "inadmissible-boundary"])
@pytest.mark.parametrize("n", [8, 12])
def test_fourier_solve_matches_lsmr(kind, n):
    # the system has full column rank, so x is unique
    system = bvp.assemble(n, CHART)
    src = bvp.make_source(n, CHART, kind, seed=4)
    x, rep = bvp.solve_least_squares(system, src)
    x_ref, ref = lsmr_solve(system, src)
    assert ref.converged
    assert rep.converged and rep.iterations == 0
    assert abs(rep.relative_residual - ref.relative_residual) \
        <= 1e-6 * ref.relative_residual
    assert np.linalg.norm(x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)
    for key, val in ref.block_residuals.items():
        assert rep.block_residuals[key] == pytest.approx(val, rel=1e-6,
                                                         abs=1e-12)


KINDS = ("discrete-admissible", "continuum-admissible",
         "inadmissible-divergence", "inadmissible-boundary")


@pytest.mark.parametrize("d,n,kind", [(3, 16, KINDS[0])]
                         + [(d, 8, kind) for d in (3, 4)
                            for kind in KINDS[1:]])
def test_fourier_solve_reports_the_exact_sigma_min(d, n, kind):
    # sigma_min_estimate covers only the classes solved; every source
    # touches the class that holds the smallest singular value of the
    # whole system
    chart = make_chart("flat_slab_periodic", d)
    system = bvp.assemble(n, chart)
    src = bvp.make_source(n, chart, kind, seed=1)
    _, rep = bvp.solve_least_squares(system, src)
    sigma_min = bvp.lateral_block_svals(n, d)["spectrum"][0]
    assert abs(rep.sigma_min_estimate - sigma_min) <= 1e-12


def test_fourier_solve_of_discrete_admissible_source_is_exact():
    system = bvp.assemble(16, CHART)
    src = bvp.make_source(16, CHART, "discrete-admissible", seed=1)
    x, rep = bvp.solve_least_squares(system, src)
    assert rep.relative_residual <= 1e-12
    # the potential solves the system exactly, and x is unique
    assert np.linalg.norm(x - src.potential) \
        <= 1e-10 * np.linalg.norm(src.potential)


def _lifted_mode(src, n, d, size):
    """A copy of ``src`` plus a field on the lateral modes (+-2, 0, ...)
    of norm ``size`` |values|: modes that no source kind touches."""
    x = bvp.slab_nodes(n, d)
    p = np.zeros_like(src.values)
    p[: n ** d] = np.cos(4 * np.pi * x[:, 0]) * np.sin(np.pi * x[:, -1])
    return dataclasses.replace(src, values=src.values + size * p
                               * np.linalg.norm(src.values)
                               / np.linalg.norm(p))


@pytest.mark.parametrize("d,n", [(3, n) for n in range(6, 17)] + [(4, 8)])
def test_touched_class_solve_matches_per_mode_lstsq(d, n):
    # The solve factors only the classes that b-hat touches and leaves
    # x-hat = 0 elsewhere; the oracle solves every mode.  x agrees to the
    # roundoff of a least-squares solve, a few eps times the condition
    # number sigma_max / sigma_min (2.0e3 at d=3, n=8: there a dense
    # lstsq of the assembled matrix differs from both by 0.9-1.2e-12).
    # The residual is stationary in x and agrees to 1e-12 relative; the
    # residual of one row family is not, and may move by up to
    # sigma_max |x - x_ref| / |t| besides.  The discrete-admissible
    # residual is roundoff on both sides.
    chart = make_chart("flat_slab_periodic", d)
    system = bvp.assemble(n, chart)
    # the kinds that apply on this grid
    sources = [bvp.make_source(n, chart, kind, seed=2) for kind in KINDS
               if n >= bvp.SOURCE_MIN_GRID[kind]]
    # a random right-hand side touches every class; a silent mode of the
    # continuum source lifted to 1e-10 |b|, far below the data and far
    # above the cut-off, must be solved
    at_base = [src.kind for src in sources].index("continuum-admissible")
    base = sources[at_base]
    sources.append(dataclasses.replace(
        base, values=np.random.default_rng(n).standard_normal(
            base.values.size)))
    sources.append(_lifted_mode(base, n, d, 1e-10))
    refs = lstsq_solve_loop(system, sources)
    spec = bvp.lateral_block_svals(n, d)["spectrum"]
    x_tol = 20 * np.finfo(float).eps * spec[-1] / spec[0]
    solves = [bvp.solve_least_squares(system, src) for src in sources]
    for src, (x_ref, ref), (x, rep) in zip(sources, refs, solves):
        dx = np.linalg.norm(x - x_ref)
        assert dx <= x_tol * np.linalg.norm(x_ref), src.kind
        if src.kind == "discrete-admissible":
            assert max(rep.relative_residual, ref.relative_residual) <= 1e-12
            continue
        assert rep.relative_residual == pytest.approx(
            ref.relative_residual, rel=1e-12, abs=1e-300), src.kind
        moved = spec[-1] * dx / max(np.linalg.norm(src.values), 1e-300)
        for key, val in ref.block_residuals.items():
            assert abs(rep.block_residuals[key] - val) \
                <= 1e-12 * val + moved, (src.kind, key)
    assert solves[-2][1].classes_solved == bvp._class_count(n) ** (d - 1)
    # the lifted modes open one more class where |sin(4 pi / n)| is not
    # one of the classes of |k| <= 1 (n >= 7), and their part of x is the
    # oracle's
    (x_base, rep_base), (x_lift, rep_lift) = solves[at_base], solves[-1]
    assert rep_lift.classes_solved == rep_base.classes_solved + (n >= 7)
    part = refs[-1][0] - refs[at_base][0]
    assert np.linalg.norm(x_lift - x_base - part) \
        <= 1e-2 * np.linalg.norm(part)


@pytest.mark.parametrize("kind", KINDS)
def test_each_source_factors_only_the_classes_it_touches(kind):
    # Every source lies on the lateral modes with |k_a| <= 1, which fill
    # the 2^(d-1) classes of j_a in {0, 1}; the divergence source varies
    # along x_0 alone and fills 2.  A solve that factors every class (25
    # at d=3, n=16; 27 at d=4, n=8) fails here.
    for d, n in ((3, 16), (4, 8)):
        if n < bvp.SOURCE_MIN_GRID[kind]:
            continue
        chart = make_chart("flat_slab_periodic", d)
        _, rep = bvp.solve_least_squares(
            bvp.assemble(n, chart), bvp.make_source(n, chart, kind, seed=2))
        if d == 3:
            want = 2 if kind == "inadmissible-divergence" else 4
            assert rep.classes_solved == want, (d, n)
        else:
            assert rep.classes_solved <= 2 ** (d - 1), (d, n)


@pytest.mark.parametrize("n", [5, 6])
def test_fourier_solve_matches_lsmr_on_three_lateral_axes(n):
    # d=4, with a random right-hand side: every class and every
    # reflection of the three lateral axes carries data
    chart = make_chart("flat_slab_periodic", 4)
    system = bvp.assemble(n, chart)
    src = bvp.make_source(n, chart, "continuum-admissible", seed=5)
    src.values = np.random.default_rng(n).standard_normal(src.values.size)
    x, rep = bvp.solve_least_squares(system, src)
    x_ref, ref = lsmr_solve(system, src)
    assert ref.converged
    assert rep.rank_deficient_blocks == 0
    assert abs(rep.relative_residual - ref.relative_residual) \
        <= 1e-6 * ref.relative_residual
    assert np.linalg.norm(x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("kind", KINDS)
def test_no_block_of_the_slab_system_is_rank_deficient(kind):
    n = 15
    system = bvp.assemble(n, CHART)
    _, rep = bvp.solve_least_squares(
        system, bvp.make_source(n, CHART, kind, seed=2))
    assert rep.rank_deficient_blocks == 0


def _truncated_solve(monkeypatch, random_rhs):
    """The n=5 solve with one unknown of the collar line dropped from every
    block: each block loses rank, and the min-norm solve leaves that
    unknown zero."""
    n = 5
    poly_fn = bvp._slab_polynomial

    def without_first_column(*args):
        poly = poly_fn(*args)
        coef = poly.coef.copy()
        coef[:, :, 0] = 0.0
        return poly._replace(coef=coef)

    monkeypatch.setattr(bvp, "_slab_polynomial", without_first_column)
    src = bvp.make_source(n, CHART, "inadmissible-boundary", seed=2)
    if random_rhs:
        src.values = np.random.default_rng(5).standard_normal(
            src.values.size)
    x, rep = bvp.solve_least_squares(bvp.assemble(n, CHART), src)
    # column 0 of every block is collar node 0 of component 0
    assert np.abs(x.reshape(-1, n)[: n ** 2, 0]).max() \
        <= 1e-12 * np.abs(x).max()
    return rep


def test_rank_deficient_blocks_counts_every_truncated_mode(monkeypatch):
    # the source lies on the 9 modes with |k_a| <= 1, which fill 4 of the
    # 9 classes at n=5; every mode of a solved class is counted
    rep = _truncated_solve(monkeypatch, random_rhs=False)
    assert rep.classes_solved == 4
    assert rep.rank_deficient_blocks == 9


def test_rank_deficient_blocks_counts_every_mode_of_a_random_rhs(
        monkeypatch):
    # a random right-hand side touches all 9 classes, so all 5^2 modes
    rep = _truncated_solve(monkeypatch, random_rhs=True)
    assert rep.classes_solved == 9
    assert rep.rank_deficient_blocks == 25


def test_discrete_admissible_divergence_is_the_divergence_operator():
    # the discrete-admissible source's diagnostic reads the gauge rows
    # delta B of the slab matrix applied to B^-1 T, bit for bit, as the
    # other kinds do, and that product is the oracle's divergence within
    # the rounding bound of the two products
    # (test_expanded_divergence_matches_the_oracle checks every kind)
    n, d = 15, 3
    src = bvp.make_source(n, CHART, "discrete-admissible", seed=3)
    system = bvp.assemble(n, CHART)
    mu = bvp._b_inverse(src.values, d)
    div = (system.matrix @ mu)[system._rows(("gauge",))]
    scale = np.abs(src.values).max()
    assert src.div_rel == float(np.abs(div).max() / scale)
    _, GAUGE, _, DIV, _ = interior_from_P_loop(grid_stencils(n, d)[0], d,
                                               n ** d)
    bound = 4 * np.finfo(float).eps * (abs(GAUGE) @ np.abs(mu)
                                       + abs(DIV) @ np.abs(src.values))
    assert np.all(np.abs(div - DIV @ src.values) <= bound)


def _skip_row_reflection_of(mode, rows):
    # _reflect with the row signs D_r of one mode left out: that mode is
    # served the right-hand side of its class's block, not its own; its
    # conjugate partner keeps the true one
    reflect = bvp._reflect

    def mutant(v, axis_parity, negated):
        assert negated[mode].any()
        before = v[mode].copy()
        reflect(v, axis_parity, negated)
        if v.shape[1] == rows:
            # the mutation has teeth: D_r moves this right-hand side
            assert np.abs(v[mode] - before).max() \
                >= 0.1 * np.abs(before).max()
            v[mode] = before

    return mutant


def test_fourier_solve_rejects_a_complex_solution(monkeypatch):
    # each mutation breaks the conjugate symmetry between the phased
    # solutions of the modes k and -k, so x comes back with an imaginary
    # part of its size: one mode without its row reflection, the
    # right-hand side without its row phase, the solution without its
    # column phase
    n = 8
    system = bvp.assemble(n, CHART)
    # lateral modes with |k_a| <= 1, on rows of both parities
    src = bvp.make_source(n, CHART, "continuum-admissible", seed=1)
    poly_fn = bvp._slab_polynomial
    R = poly_fn(n, 3).coef.shape[1]

    def dephased(field):
        def build(*args):
            poly = poly_fn(*args)
            return poly._replace(**{field: 0 * getattr(poly, field)})
        return build

    # mode (n - 1, 0): k_0 = -1 negates axis 0
    for name, mutant in (
            ("_reflect", _skip_row_reflection_of((n - 1) * n, R)),
            ("_slab_polynomial", dephased("row_parity")),
            ("_slab_polynomial", dephased("col_parity"))):
        with monkeypatch.context() as patch:
            patch.setattr(bvp, name, mutant)
            with pytest.raises(RuntimeError, match="imaginary"):
                bvp.solve_least_squares(system, src)
    # unmutated, the same solve is real
    bvp.solve_least_squares(system, src)


def test_solve_keeps_one_class_block_live(monkeypatch):
    # At its peak the solve holds one class block of R x C doubles with
    # its SVD factors U (R x C), s (C) and Vh (C x C); beside it the
    # polynomial (J x R x C doubles), b and x (real) and b-hat and x-hat
    # (complex).  The bound allows each of the latter twice, for
    # temporaries.  That slack exceeds the blocks of all classes, so
    # the traced memory is also read at each class's SVD: it may exceed
    # that at the first class's SVD by the previous class's factors and
    # half a block (its right-hand sides and coefficients), so a solve
    # that keeps each block, or each class's factors, once its class is
    # solved fails.
    n = 16
    system = bvp.assemble(n, CHART)
    src = bvp.make_source(n, CHART, "continuum-admissible", seed=1)
    J, R, C = bvp._slab_polynomial(n, 3).coef.shape
    rows, cols = system.matrix.shape
    factors = 8 * (R * C + C + C * C)
    block = 8 * R * C + factors
    rest = 8 * J * R * C + 8 * rows + 8 * cols + 16 * rows + 16 * cols
    traced = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        traced.append(tracemalloc.get_traced_memory()[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    tracemalloc.start()
    try:
        _, rep = bvp.solve_least_squares(system, src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.relative_residual < 0.1
    assert peak <= block + 2 * rest, (peak, block + 2 * rest)
    assert len(traced) == rep.classes_solved >= 3
    growth = max(traced) - traced[0]
    assert growth <= factors + 4 * R * C, (growth, factors + 4 * R * C)


def test_each_class_block_takes_one_svd(monkeypatch):
    # the solve factors each class it touches with one SVD of its 2-D
    # block, and every spectrum takes one SVD per class
    n = 12
    system = bvp.assemble(n, CHART)
    src = bvp.make_source(n, CHART, "continuum-admissible", seed=2)
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    _, rep = bvp.solve_least_squares(system, src)
    _, R, C = bvp._slab_polynomial(n, 3).coef.shape
    assert rep.classes_solved == 4
    assert shapes == [(R, C)] * 4

    for poly_fn, _, spectrum_fn in STACKS.values():
        _, R, C = poly_fn(8, 3).coef.shape
        shapes.clear()
        spectrum_fn(8, 3)
        assert shapes == [(R, C)] * bvp._class_count(8) ** 2
