"""The batched lateral-Fourier block builder and the Fourier least-squares
solve, against the per-block sparse oracle, LSMR and the dense SVD."""

from itertools import product

import numpy as np
import pytest

from bianchi_lab import bvp
from bianchi_lab.charts import make_chart

from oracles import (
    assemble_loop,
    block_spectrum,
    h0_blocks_loop,
    h1_blocks_loop,
    lateral_blocks_loop,
)

CHART = make_chart("flat_slab_periodic", 3)

# (polynomial, oracle blocks, public spectrum, symbol axes) per stack
STACKS = {
    "full": (lambda n, d: bvp._slab_polynomial(n, d, (1.0, 1.0,
                                                      (1.0 / n) ** -0.5)),
             lateral_blocks_loop,
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
    chunks = list(bvp._fourier_blocks(*poly, n))
    return [start for start, _ in chunks], \
        np.concatenate([blocks for _, blocks in chunks])


@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("d,n", [(3, 4), (3, 5), (3, 8), (4, 4)])
def test_blocks_and_spectra_match_per_block_oracle(stack, d, n):
    poly_fn, oracle_fn, spectrum_fn, axes = STACKS[stack]
    oracle = list(oracle_fn(n, d))
    assert [k for k, _ in oracle] == list(product(range(n), repeat=axes(d)))
    ref = np.stack([A for _, A in oracle])
    _, blocks = built_blocks(poly_fn(n, d), n)
    assert blocks.shape == ref.shape
    assert np.abs(blocks - ref).max() <= 1e-12 * np.abs(ref).max()

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
    poly = bvp._slab_polynomial(n, d, (1.0, 1.0, (1.0 / n) ** -0.5))
    _, R, C = poly[1].shape
    monkeypatch.setattr(bvp, "_CHUNK_BYTES", 3 * 16 * R * C + 7)
    starts, blocks = built_blocks(poly, n)
    assert starts == list(range(0, 25, 3))
    ref = np.stack([A for _, A in lateral_blocks_loop(n, d)])
    assert np.abs(blocks - ref).max() <= 1e-12 * np.abs(ref).max()
    spec = bvp.lateral_block_svals(n, d)["spectrum"]
    want = block_spectrum(lateral_blocks_loop(n, d))["spectrum"]
    assert np.abs(spec - want).max() <= 1e-12 * want[-1]

    # the Fourier solve is blind to where the chunks split
    system = bvp.assemble(n, CHART)
    src = bvp.make_source(n, CHART, "inadmissible-boundary", seed=3)
    x_small, rep_small = bvp.solve_fourier(system, src)
    monkeypatch.undo()
    x, rep = bvp.solve_fourier(system, src)
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


# ---------------------------------------------------------------------------
# the Fourier least-squares solve


@pytest.mark.parametrize("kind", ["continuum-admissible",
                                  "inadmissible-divergence",
                                  "inadmissible-boundary"])
@pytest.mark.parametrize("n", [8, 12])
def test_fourier_solve_matches_lsmr(kind, n):
    # the system has full column rank, so x is unique
    system = bvp.assemble(n, CHART)
    src = bvp.make_source(n, CHART, kind, seed=4)
    x, rep = bvp.solve_fourier(system, src)
    x_ref, ref = bvp.solve_least_squares(system, src)
    assert ref.converged
    assert abs(rep.relative_residual - ref.relative_residual) \
        <= 1e-6 * ref.relative_residual
    assert np.linalg.norm(x - x_ref) <= 1e-6 * np.linalg.norm(x_ref)
    for key, val in ref.block_residuals.items():
        assert rep.block_residuals[key] == pytest.approx(val, rel=1e-6,
                                                         abs=1e-12)


def test_fourier_solve_reports_the_exact_sigma_min():
    system = bvp.assemble(8, CHART)
    src = bvp.make_source(8, CHART, "inadmissible-divergence", seed=1)
    _, rep = bvp.solve_fourier(system, src)
    sigma_min = bvp.lateral_block_svals(8, 3)["spectrum"][0]
    assert abs(rep.sigma_min_estimate - sigma_min) <= 1e-12


def test_fourier_solve_of_discrete_admissible_source_is_exact():
    system = bvp.assemble(16, CHART)
    src = bvp.make_source(16, CHART, "discrete-admissible", seed=1)
    x, rep = bvp.solve_fourier(system, src)
    assert rep.relative_residual <= 1e-12
    # the potential solves the system exactly, and x is unique
    assert np.linalg.norm(x - src.potential) \
        <= 1e-10 * np.linalg.norm(src.potential)


def test_fourier_solve_rejects_a_complex_solution(monkeypatch):
    # blocks off by a phase break the conjugate symmetry between the
    # modes k and -k, so x comes back with an imaginary part of its size
    build = bvp._fourier_blocks

    def rotated(*args):
        for start, blocks in build(*args):
            yield start, 1j * blocks

    monkeypatch.setattr(bvp, "_fourier_blocks", rotated)
    system = bvp.assemble(8, CHART)
    src = bvp.make_source(8, CHART, "inadmissible-divergence", seed=1)
    with pytest.raises(RuntimeError, match="imaginary"):
        bvp.solve_fourier(system, src)
