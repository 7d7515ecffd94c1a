"""The batched real lateral-Fourier block builder and the least-squares
solve on its blocks, against the per-block sparse oracle, LSMR and the
dense SVD."""

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
    h0_blocks_loop,
    h1_blocks_loop,
    lateral_blocks_loop,
    lsmr_solve,
)

CHART = make_chart("flat_slab_periodic", 3)

# (polynomial, oracle blocks, public spectrum, symbol axes) per stack
STACKS = {
    "full": (bvp._slab_polynomial, lateral_blocks_loop,
             lambda n, d: bvp.lateral_block_svals(n, d)["spectrum"],
             lambda d: d - 1),
    "h1": (bvp._h1_polynomial, h1_blocks_loop, bvp.h1_spectrum,
           lambda d: d - 1),
    "h0": (bvp._h0_polynomial, h0_blocks_loop, bvp.h0_spectrum,
           lambda d: d - 1),
    "h0-torus": (lambda n, d: bvp._h0_polynomial(n, d, closed_torus=True),
                 lambda n, d: h0_blocks_loop(n, d, closed_torus=True),
                 lambda n, d: bvp.h0_spectrum(n, d, closed_torus=True),
                 lambda d: d),
}


def built_blocks(poly, n):
    chunks = list(bvp._fourier_blocks(poly, n))
    return [start for start, _ in chunks], \
        np.concatenate([blocks for _, blocks in chunks])


def phased(oracle, poly):
    """The oracle's complex blocks with row r scaled by i^(-p_r) and
    column c by i^(p_c): real, up to roundoff."""
    rows = (1j) ** -poly.row_parity
    cols = (1j) ** poly.col_parity
    return np.stack([rows[:, None] * A * cols for _, A in oracle])


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("d,n", [(3, 4), (3, 5), (3, 8), (4, 4)])
def test_blocks_and_spectra_match_per_block_oracle(stack, d, n):
    poly_fn, oracle_fn, spectrum_fn, axes = STACKS[stack]
    oracle = list(oracle_fn(n, d))
    assert [k for k, _ in oracle] == list(product(range(n), repeat=axes(d)))
    poly = poly_fn(n, d)
    ref = phased(oracle, poly)
    _, blocks = built_blocks(poly, n)
    assert blocks.dtype == np.float64
    assert blocks.shape == ref.shape
    scale = np.abs(ref).max()
    assert np.abs(ref.imag).max() <= 1e-12 * scale
    assert np.abs(blocks - ref).max() <= 1e-12 * scale

    want = block_spectrum(oracle)["spectrum"]
    got = spectrum_fn(n, d)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * want[-1]


@pytest.mark.parametrize("d,n", [(3, 4), (3, 5), (3, 8), (4, 4)])
def test_block_minima_match_per_block_oracle(d, n):
    want = block_spectrum(lateral_blocks_loop(n, d))
    got = bvp.lateral_block_svals(n, d)
    assert list(got["block_min"]) == list(want["block_min"])
    scale = want["spectrum"][-1]
    assert max(abs(got["block_min"][k] - v)
               for k, v in want["block_min"].items()) <= 1e-12 * scale


def test_small_chunk_budget_gives_the_same_blocks(monkeypatch):
    # 25 modes in chunks of 3: eight full chunks and a partial last one
    n, d = 5, 3
    poly = bvp._slab_polynomial(n, d)
    _, R, C = poly.coef.shape
    monkeypatch.setattr(bvp, "_CHUNK_BYTES", 3 * 8 * R * C + 7)
    starts, blocks = built_blocks(poly, n)
    assert starts == list(range(0, 25, 3))
    ref = phased(lateral_blocks_loop(n, d), poly)
    assert np.abs(blocks - ref).max() <= 1e-12 * np.abs(ref).max()
    spec = bvp.lateral_block_svals(n, d)["spectrum"]
    want = block_spectrum(lateral_blocks_loop(n, d))["spectrum"]
    assert np.abs(spec - want).max() <= 1e-12 * want[-1]

    # the solve is blind to where the chunks split
    system = bvp.assemble(n, CHART)
    src = bvp.make_source(n, CHART, "inadmissible-boundary", seed=3)
    x_small, rep_small = bvp.solve_least_squares(system, src)
    monkeypatch.undo()
    x, rep = bvp.solve_least_squares(system, src)
    assert np.abs(x_small - x).max() <= 1e-12 * np.abs(x).max()
    assert rep_small.sigma_min_estimate == pytest.approx(
        rep.sigma_min_estimate, rel=1e-12)


@pytest.mark.parametrize("n", [8, 15])
def test_assembled_matrix_is_bit_identical_to_per_term_assembly(n):
    A = bvp.assemble(n, CHART).matrix
    B = assemble_loop(n, 3)
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


def test_coefficient_that_breaks_the_parity_grading_raises():
    # X_0 has one lateral index and X_2 (the collar component) none: a
    # zeroth-order row coupling them can be made real by no diagonal phase
    n, d = 5, 3
    bw = (1.0 / n) ** -0.5

    def stack(P, E_faces, N, NF):
        dstar, faces = bvp._h0_from_P(P, E_faces, d, N, bw)
        eye = sp.identity(N, format="csr")
        mixed = sp.hstack([eye, 0 * eye, eye], format="csr")
        return sp.vstack([dstar, mixed], format="csr"), faces

    unknowns = [(a,) for a in range(d)]
    with pytest.raises(ValueError, match="parity"):
        bvp._block_polynomial(n, d, stack, unknowns)
    # the same stack without the coupling row is graded
    poly = bvp._block_polynomial(
        n, d, lambda P, E, N, NF: bvp._h0_from_P(P, E, d, N, bw), unknowns)
    assert np.array_equal(poly.coef, bvp._h0_polynomial(n, d).coef)


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


def test_fourier_solve_reports_the_exact_sigma_min():
    system = bvp.assemble(8, CHART)
    src = bvp.make_source(8, CHART, "inadmissible-divergence", seed=1)
    _, rep = bvp.solve_least_squares(system, src)
    sigma_min = bvp.lateral_block_svals(8, 3)["spectrum"][0]
    assert abs(rep.sigma_min_estimate - sigma_min) <= 1e-12


def test_fourier_solve_of_discrete_admissible_source_is_exact():
    system = bvp.assemble(16, CHART)
    src = bvp.make_source(16, CHART, "discrete-admissible", seed=1)
    x, rep = bvp.solve_least_squares(system, src)
    assert rep.relative_residual <= 1e-12
    # the potential solves the system exactly, and x is unique
    assert np.linalg.norm(x - src.potential) \
        <= 1e-10 * np.linalg.norm(src.potential)


def _conjugate_one_block(build):
    # the block of mode (0, 1) with conjugated symbols t -> -t, which
    # flips the sign of every odd-degree term, that is, of the entries
    # whose row and column parities differ; its partner (0, n - 1) keeps
    # the true symbols
    def blocks_of(poly, n):
        sign_r = 1 - 2 * poly.row_parity
        sign_c = 1 - 2 * poly.col_parity
        for start, blocks in build(poly, n):
            if start <= 1 < start + len(blocks):
                blocks[1 - start] *= sign_r[:, None] * sign_c
            yield start, blocks

    return blocks_of


def test_fourier_solve_rejects_a_complex_solution(monkeypatch):
    # each mutation breaks the conjugate symmetry between the phased
    # solutions of the modes k and -k, so x comes back with an imaginary
    # part of its size: one block with conjugated symbols, the right-hand
    # side without its row phase, the solution without its column phase
    system = bvp.assemble(8, CHART)
    # lateral modes with |k_a| <= 1, on rows of both parities
    src = bvp.make_source(8, CHART, "continuum-admissible", seed=1)
    poly_fn = bvp._slab_polynomial

    def dephased(field):
        def build(*args):
            poly = poly_fn(*args)
            return poly._replace(**{field: 0 * getattr(poly, field)})
        return build

    for name, mutant in (
            ("_fourier_blocks", _conjugate_one_block(bvp._fourier_blocks)),
            ("_slab_polynomial", dephased("row_parity")),
            ("_slab_polynomial", dephased("col_parity"))):
        with monkeypatch.context() as patch:
            patch.setattr(bvp, name, mutant)
            with pytest.raises(RuntimeError, match="imaginary"):
                bvp.solve_least_squares(system, src)
    # unmutated, the same solve is real
    bvp.solve_least_squares(system, src)


def test_solve_keeps_one_chunk_live():
    # At its peak the solve holds one chunk: b blocks of R x C doubles
    # (b R C 8 <= _CHUNK_BYTES) with their SVD factors U (b x R x C), s
    # (b x C) and Vh (b x C x C); beside it the polynomial (J x R x C
    # doubles), b and x (real) and b-hat and x-hat (complex).  The bound
    # allows each of the latter twice, for temporaries.  That slack is
    # less than the blocks of a second chunk, so a solve that keeps the
    # previous chunk while it builds the next one fails, and so does one
    # with complex blocks, whose chunk takes twice the bytes.
    n = 16
    system = bvp.assemble(n, CHART)
    src = bvp.make_source(n, CHART, "continuum-admissible", seed=1)
    J, R, C = bvp._slab_polynomial(n, 3).coef.shape
    rows, cols = system.matrix.shape
    b = bvp._CHUNK_BYTES // (8 * R * C)
    chunk = 8 * b * (2 * R * C + C + C * C)
    rest = 8 * J * R * C + 8 * rows + 8 * cols + 16 * rows + 16 * cols
    assert 8 * b * R * C > rest
    tracemalloc.start()
    try:
        _, rep = bvp.solve_least_squares(system, src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.relative_residual < 0.1
    assert peak <= chunk + 2 * rest, (peak, chunk + 2 * rest)
