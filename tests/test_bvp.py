import numpy as np
import pytest
import scipy.sparse as sp

from bianchi_lab.boundary import CollarChart
from bianchi_lab.bvp import (
    BOUNDARY_FAMILIES,
    SOURCE_MIN_GRID,
    _face_max,
    _sym_pairs,
    assemble,
    cohomology_probe,
    deflated_gap,
    kernel_probe,
    lateral_block_svals,
    make_source,
    slab_nodes,
    solve_least_squares,
    vec_components,
)
from bianchi_lab.charts import geometry_from_jets, make_chart, tensor_values
from bianchi_lab.linearize import (
    dboundary_data_fd,
    dein_closed_jets,
    trig_poly_sym_field,
)

from bianchi_lab import bvp
from bianchi_lab.verify import (
    run_suite,
    slab_solve_cases,
    slab_unchecked_reason,
)

from oracles import (
    assemble_loop,
    boundary_from_P_loop,
    collar_stencils,
    composed_symbols,
    continuum_source_full_grid,
    discrete_kernel_basis,
    dstar_from_P,
    grid_stencils,
    interior_from_P_loop,
    loglog_slope,
    lsmr_solve,
    periodic_stencil,
    width_modulus_fields,
)

CHART = make_chart("flat_slab_periodic", 3)


def sample_field(n, field):
    x = slab_nodes(n, 3)
    return x, tensor_values(field(x, 0))


def rows_of(system, *families):
    """The rows of the named families of the assembled matrix."""
    return system.matrix[system._rows(families)]


# ---------------------------------------------------------------------------
# assembly


def test_system_dimensions_match_row_bookkeeping():
    n = 8
    system = assemble(n, CHART)
    N = n ** 3
    assert rows_of(system, "einstein").shape == (6 * N, 6 * N)
    assert rows_of(system, "gauge").shape == (3 * N, 6 * N)
    # per face node: 3 pullback, 3 dA and 3 d(nabla_n A) rows on each
    # face, then 3 sigma(n, .) rows on each face
    assert rows_of(system, *BOUNDARY_FAMILIES).shape == (12 * 2 * n ** 2,
                                                         6 * N)
    assert system.matrix.shape == (6 * N + 3 * N + 24 * n ** 2, 6 * N)
    # the families tile the stack in order
    every = system._rows(("einstein", "gauge") + BOUNDARY_FAMILIES)
    assert np.array_equal(every, np.arange(system.matrix.shape[0]))


def test_assemble_rejects_other_presets():
    with pytest.raises(ValueError):
        assemble(8, make_chart("conformal_bump", 3))
    with pytest.raises(ValueError):
        assemble(8, make_chart("polar_ball", 3))


@pytest.mark.parametrize("call", [
    lambda chart: assemble(8, chart),
    lambda chart: make_source(8, chart, "continuum-admissible"),
    lambda chart: cohomology_probe(8, chart),
    lambda chart: cohomology_probe(8, chart, closed_torus=True),
], ids=["assemble", "make_source", "cohomology_probe", "torus_probe"])
def test_every_slab_entry_point_rejects_other_presets(call):
    # one check with one message, on the torus path of the probe too
    with pytest.raises(ValueError, match="not on 'polar_ball'"):
        call(make_chart("polar_ball", 3))


def test_assemble_shares_one_read_only_grid():
    # the full grid is built once per (n, d); its arrays are shared by
    # every caller, so none of them can be written
    matrix = assemble(8, CHART).matrix
    assert assemble(8, CHART).matrix is matrix
    assert bvp._grid(8, 3) is matrix
    assert isinstance(matrix, sp.csr_matrix)
    for array in (matrix.data, matrix.indices, matrix.indptr):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_clearing_the_grid_cache_changes_no_result():
    n = 15
    matrix = assemble(n, CHART).matrix
    sources = {kind: make_source(n, CHART, kind, seed=4)
               for kind in SOURCE_MIN_GRID}
    bvp._grid.cache_clear()
    fresh = assemble(n, CHART).matrix
    assert fresh is not matrix
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(fresh, attr), getattr(matrix, attr))
    for kind, src in sources.items():
        bvp._grid.cache_clear()
        again = make_source(n, CHART, kind, seed=4)
        assert np.array_equal(again.values, src.values), kind
        assert (again.div_rel, again.boundary_rel) == (src.div_rel,
                                                       src.boundary_rel)
        assert (again.potential is None) == (src.potential is None)
        if src.potential is not None:
            assert np.array_equal(again.potential, src.potential)


def test_sources_read_the_grid_built_once(monkeypatch):
    # the grid's build reads the block polynomial on collar lines of n
    # nodes, never on the n^d nodes; once it is built, assemble and every
    # source kind build no polynomial, expansion or interior operator
    # again, and read no interior coefficient off the jet route
    n = 15
    built = []
    block_polynomial = bvp._block_polynomial

    def recorded(*args):
        built.append(block_polynomial(*args))
        return built[-1]

    with monkeypatch.context() as patch:
        patch.setattr(bvp, "_block_polynomial", recorded)
        bvp._grid.cache_clear()
        bvp._slab_polynomial.cache_clear()
        bvp._grid(n, 3)
    assert [poly.line for poly in built] == [n]
    assert built[0].coef.shape[2] == len(_sym_pairs(3)) * n

    def rebuilt(*args, **kwargs):
        raise AssertionError("the full grid was built again")

    for name in ("_block_polynomial", "_expand", "dein_closed_jets",
                 "_gauge"):
        monkeypatch.setattr(bvp, name, rebuilt)
    assemble(n, CHART)
    for kind in SOURCE_MIN_GRID:
        make_source(n, CHART, kind, seed=1)


@pytest.mark.parametrize("d,n", [(3, 6), (4, 4)])
def test_block_residuals_match_the_per_term_oracle(d, n):
    # the interior, gauge and unweighted boundary parts of A x - b against
    # the per-term copies of the three operators, on a random x and source
    system = assemble(n, make_chart("flat_slab_periodic", d))
    P, E_faces = grid_stencils(n, d)
    EIN, GAUGE = interior_from_P_loop(P, d, n ** d)[:2]
    BND = boundary_from_P_loop(P, E_faces, d, n ** d, n ** (d - 1))
    rng = np.random.default_rng(n)
    x = rng.standard_normal(system.matrix.shape[1])
    t = rng.standard_normal(EIN.shape[0])
    scale = np.linalg.norm(t)
    want = {"einstein": np.linalg.norm(EIN @ x - t) / scale,
            "gauge": np.linalg.norm(GAUGE @ x) / scale,
            "boundary": np.linalg.norm(BND @ x) / scale}
    got = system._residual_blocks(
        system.matrix @ x - system.rhs_from_einstein_block(t), t)
    assert list(got) == list(want)
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-12), key


@pytest.mark.parametrize("closed_torus", [False, True])
@pytest.mark.parametrize("d,n", [(3, 6), (4, 5)])
def test_translation_images_match_the_oracle_h0(d, n, closed_torus):
    # |H0 X| / |X| for each translation X = e_i, with H0 the oracle copy
    # of delta* then the restriction of X to each face with weight
    # h^(-1/2), no face rows on the closed torus; the probe reads the
    # mode-0 block
    P, E_faces = grid_stencils(n, d, closed_torus)
    H0 = sp.vstack([dstar_from_P(P, d)]
                   + [(1.0 / n) ** -0.5 * sp.block_diag([E] * d,
                                                        format="csr")
                      for E in E_faces], format="csr")
    N = n ** d
    want = []
    for i in range(d):
        X = np.zeros(d * N)
        X[i * N:(i + 1) * N] = 1.0
        want.append(float(np.linalg.norm(H0 @ X) / np.linalg.norm(X)))
    got = cohomology_probe(n, make_chart("flat_slab_periodic", d),
                           closed_torus=closed_torus)
    if closed_torus:
        assert got["translation_image_norms"] == want == [0.0] * d
    else:
        assert got["translation_image_norms"] == pytest.approx(want,
                                                               rel=1e-12)


def test_constant_field_annihilated_by_interior_rows():
    n = 8
    system = assemble(n, CHART)
    const = np.zeros((n ** 3, 3, 3))
    const[:] = np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.2], [0.0, 0.2, 2.0]])
    v = vec_components(const, _sym_pairs(3))
    assert np.abs(rows_of(system, "einstein") @ v).max() <= 1e-12
    assert np.abs(rows_of(system, "gauge") @ v).max() <= 1e-12


def test_flat_operator_identities_hold_exactly():
    # the divergence of the interior operator and the interior operator
    # on Killing deformations vanish at the matrix level: on every class
    # block, unphased, against the oracle's delta and delta* of that
    # mode's P family, and on the full grid, where the expanded einstein
    # rows meet the oracle's divergence and the expanded delta*
    for d, n in ((3, 8), (4, 6), (5, 4)):
        nc, m, K = len(_sym_pairs(d)), d - 1, bvp._class_count(n)
        poly = bvp._slab_polynomial(n, d)
        classes = np.arange(K ** m)
        rows = (1j) ** poly.row_parity[:nc * n]
        cols = (1j) ** -poly.col_parity
        EIN = [rows[:, None] * block[:nc * n] * cols
               for block in bvp._fourier_blocks(poly, n, classes)]
        scale = max(max(np.abs(ein).max() for ein in EIN), 1.0)
        D = sp.csr_matrix(bvp._collar(n).D)
        for cls, ein in zip(classes, EIN):
            t = np.sin(2 * np.pi * np.array(np.unravel_index(cls, (K,) * m))
                       / n)
            Pk = [sp.identity(n, format="csr") * (1j * ta * n)
                  for ta in t] + [D]
            DIV = interior_from_P_loop(Pk, d, n)[3]
            assert np.abs(DIV @ ein).max() <= 1e-9 * scale
            assert np.abs(ein @ dstar_from_P(Pk, d)).max() <= 1e-9 * scale

        EIN = rows_of(assemble(n, make_chart("flat_slab_periodic", d)),
                      "einstein")
        DSTAR = bvp._expand(bvp._h0_polynomial(n, d), n)[:nc * n ** d]
        DIV = interior_from_P_loop(grid_stencils(n, d)[0], d, n ** d)[3]
        comp1 = DIV @ EIN
        comp2 = EIN @ DSTAR
        scale = max(np.abs(EIN.data).max(), 1.0)
        assert (np.abs(comp1.data).max() if comp1.nnz else 0.0) \
            <= 1e-9 * scale
        assert (np.abs(comp2.data).max() if comp2.nnz else 0.0) \
            <= 1e-9 * scale


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_symbols_are_the_composed_flat_forms(d):
    # the coefficients read off the jet route are the oracle's composed
    # forms B(-Laplacian / 2 - delta* delta B), delta B and delta*, bit
    # for bit, and B^-1 is tau - tr(tau) I / (d - 2)
    ein, gauge, dstar = composed_symbols(d)
    assert np.array_equal(bvp._symbol(d, bvp.dein_closed_jets), ein)
    assert np.array_equal(bvp._symbol(d, bvp._gauge), gauge)
    assert np.array_equal(bvp._symbol(d, bvp.killing), dstar)
    assert np.any(ein) and np.any(gauge) and np.any(dstar)
    diag = np.array([i == j for i, j in _sym_pairs(d)], dtype=float)
    b_inverse = bvp._symbol(d, bvp.bianchi_b_inverse)
    assert np.array_equal(b_inverse[0], np.eye(len(diag))
                          - np.outer(diag, diag) / (d - 2))
    assert not np.any(b_inverse[1:])


@pytest.mark.parametrize("d,n", [(3, 8), (4, 6)])
def test_slab_reads_its_interior_rows_off_the_jet_route(d, n, monkeypatch):
    # with the DEin that bvp calls doubled, the slab polynomial's einstein
    # rows double and every other row keeps its bits
    bvp._slab_polynomial.cache_clear()
    before = bvp._slab_polynomial(n, d)
    dein = bvp.dein_closed_jets
    monkeypatch.setattr(bvp, "dein_closed_jets",
                        lambda geom, field: 2.0 * dein(geom, field))
    bvp._slab_polynomial.cache_clear()
    after = bvp._slab_polynomial(n, d)
    bvp._slab_polynomial.cache_clear()
    ein = bvp._stack_rows(d, n, 1, ("einstein",))
    rest = bvp._stack_rows(d, n, 1, ("gauge",) + BOUNDARY_FAMILIES)
    assert np.any(before.coef[:, ein])
    assert np.array_equal(after.coef[:, ein], 2.0 * before.coef[:, ein])
    assert np.array_equal(after.coef[:, rest], before.coef[:, rest])
    for field in ("row_parity", "col_parity", "row_axes", "col_axes"):
        assert np.array_equal(getattr(after, field), getattr(before, field))


@pytest.mark.parametrize("d,n", [(3, 8), (4, 6)])
def test_slab_reads_its_boundary_rows_off_the_boundary_tables(d, n,
                                                              monkeypatch):
    # with every table of _boundary_symbols doubled, the slab polynomial's
    # boundary rows double and the einstein and gauge rows keep their bits
    bvp._slab_polynomial.cache_clear()
    before = bvp._slab_polynomial(n, d)
    tables = bvp._boundary_symbols
    monkeypatch.setattr(bvp, "_boundary_symbols",
                        lambda d: tuple(2.0 * t for t in tables(d)))
    bvp._slab_polynomial.cache_clear()
    after = bvp._slab_polynomial(n, d)
    bvp._slab_polynomial.cache_clear()
    bnd = bvp._stack_rows(d, n, 1, BOUNDARY_FAMILIES)
    rest = bvp._stack_rows(d, n, 1, ("einstein", "gauge"))
    assert np.any(before.coef[:, bnd])
    assert np.array_equal(after.coef[:, bnd], 2.0 * before.coef[:, bnd])
    assert np.array_equal(after.coef[:, rest], before.coef[:, rest])
    for field in ("row_parity", "col_parity", "row_axes", "col_axes"):
        assert np.array_equal(getattr(after, field), getattr(before, field))


@pytest.mark.parametrize("n", [4, 5, 8])
def test_one_dimensional_stencils_match_their_closed_forms(n):
    # the oracles' stencils, in sorted CSR with no stored zero: the
    # periodic central difference (f_(j+1) - f_(j-1)) / 2h (lateral), the
    # same with the third-order one-sided end rows (the collar's D) and
    # the quadratic face extrapolation (15, -10, 3) / 8; the collar's D
    # and E are the oracle's, its weight h^(-1/2), and its arrays are
    # read-only
    h = 1.0 / n
    collar = bvp._collar(n)
    D, E = collar_stencils(n)
    for periodic, got in ((True, periodic_stencil(n)), (False, D)):
        want = np.zeros((n, n))
        for j in range(n):
            if periodic or 0 < j < n - 1:
                want[j, (j + 1) % n] = 0.5 / h
                want[j, (j - 1) % n] = -0.5 / h
        if not periodic:
            want[0, :4] = np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0 / h
            want[-1, -4:] = np.array([-2.0, 9.0, -18.0, 11.0]) / 6.0 / h
        assert got.format == "csr" and got.has_sorted_indices
        assert got.nnz == np.count_nonzero(want)
        assert np.array_equal(got.toarray(), want)
    want = np.zeros((2, n))
    for face, cols in ((0, [0, 1, 2]), (1, [n - 1, n - 2, n - 3])):
        want[face, cols] = [15.0 / 8.0, -10.0 / 8.0, 3.0 / 8.0]
    assert E.format == "csr" and E.has_sorted_indices
    assert np.array_equal(E.toarray(), want)
    assert np.array_equal(collar.D, D.toarray())
    assert np.array_equal(collar.E, E.toarray())
    assert collar.weight == pytest.approx(h ** -0.5, rel=1e-15)
    assert not (collar.D.flags.writeable or collar.E.flags.writeable)


@pytest.mark.parametrize("n", [4, 5, 8, 15])
def test_periodic_collar_is_the_periodic_stencil(n):
    # the closed torus's last axis: D the oracle's periodic central
    # difference, bit for bit, so D 1 = 0 exactly; no face rows; weight 1;
    # read-only
    collar = bvp._periodic_collar(n)
    assert np.array_equal(collar.D, periodic_stencil(n).toarray())
    assert np.array_equal(collar.D @ np.ones(n), np.zeros(n))
    assert collar.E.shape == (0, n)
    assert collar.weight == 1.0
    assert not (collar.D.flags.writeable or collar.E.flags.writeable)
    assert bvp._periodic_collar(n) is collar


def test_the_oracle_assembly_does_not_read_the_collar(monkeypatch):
    # with the collar's D doubled in bvp, the assembled matrix moves and
    # the per-term oracle, built from the closed forms, does not follow
    n, collar = 8, bvp._collar
    oracle = assemble_loop(n, 3)

    def gap():
        A = assemble(n, CHART).matrix
        return abs(A - oracle).max() / abs(oracle).max()

    assert gap() <= 1e-15
    monkeypatch.setattr(bvp, "_collar",
                        lambda m: collar(m)._replace(D=2 * collar(m).D))
    try:
        bvp._slab_polynomial.cache_clear()
        bvp._grid.cache_clear()
        assert gap() >= 0.1
    finally:
        monkeypatch.undo()
        bvp._slab_polynomial.cache_clear()
        bvp._grid.cache_clear()


def test_stencil_consistency_second_order():
    field = trig_poly_sym_field(3, 31)
    geom_errs = []
    ns = (8, 16, 32)
    for n in ns:
        system = assemble(n, CHART)
        x = slab_nodes(n, 3)
        vals = tensor_values(field(x, 0))
        v = vec_components(vals, _sym_pairs(3))
        disc = rows_of(system, "einstein") @ v
        geom = geometry_from_jets(CHART.metric_jets(x, 2))
        cont = tensor_values(dein_closed_jets(geom, field(x, 2)))
        cont_v = vec_components(cont, _sym_pairs(3))
        # compare away from the one-sided boundary layers
        mask = (x[:, 2] > 2.5 / n) & (x[:, 2] < 1 - 2.5 / n)
        mask6 = np.tile(mask, 6)
        geom_errs.append(np.abs((disc - cont_v))[mask6].max())
    slope = loglog_slope([1 / n for n in ns], geom_errs)
    assert slope >= 1.9


def _closed_form_boundary_rows(field, lat, face):
    """Jet-exact flat-slab values of the three boundary operators."""
    from bianchi_lab.boundary import CollarChart as CC

    collar = CC(CHART, face=face)
    x_face = collar.ambient_point(lat)
    sig = field(x_face, 3)
    sgn = 1.0 if face == 0 else -1.0
    d = 3

    def partial(i, j, axes):
        jet = sig[..., i, j]
        for a in axes:
            jet = jet.partial(a)
        return jet.value

    ptt = np.stack([partial(a, b, ()) for a, b in ((0, 0), (0, 1), (1, 1))],
                   axis=-1)
    da = np.stack([
        sgn * 0.5 * (partial(a, b, (2,)) - partial(b, 2, (a,))
                     - partial(a, 2, (b,)))
        for a, b in ((0, 0), (0, 1), (1, 1))], axis=-1)
    dna = np.stack([
        0.5 * (partial(a, b, (2, 2)) - partial(b, 2, (a, 2))
               - partial(a, 2, (b, 2)) + partial(2, 2, (a, b)))
        for a, b in ((0, 0), (0, 1), (1, 1))], axis=-1)
    return ptt, da, dna


def test_closed_form_boundary_operators_match_fd_oracle():
    field = trig_poly_sym_field(3, 32)
    lat = np.array([[0.22, 0.61], [0.47, 0.13], [0.83, 0.52]])
    for face in (0, 1):
        collar = CollarChart(CHART, face=face)
        dA, dH, dM = dboundary_data_fd(collar, lat, field, eps=1e-4)
        ptt, da, dna = _closed_form_boundary_rows(field, lat, face)
        tang = [(0, 0), (0, 1), (1, 1)]
        scale = max(1.0, np.abs(dM).max())
        for c, (a, b) in enumerate(tang):
            assert np.abs(da[:, c] - dA[:, a, b]).max() <= 1e-5
            assert np.abs(dna[:, c] - dM[:, a, b]).max() <= 1e-4 * scale


def face_rows(system, family, v):
    """One boundary family of the assembled matrix applied to v,
    unweighted, as (face, face node, tangential component)."""
    n = system.n
    rows = (rows_of(system, family) @ v) / bvp._collar(n).weight
    return rows.reshape(2, -1, n ** 2).transpose(0, 2, 1)


def test_assembled_boundary_rows_converge_to_closed_form():
    field = trig_poly_sym_field(3, 32)
    errs = {"ptt": [], "da": [], "dna": []}
    ns = (16, 32)
    for n in ns:
        system = assemble(n, CHART)
        x = slab_nodes(n, 3)
        v = vec_components(tensor_values(field(x, 0)), _sym_pairs(3))
        lat = slab_nodes(n, 2)
        ptt_c, da_c, dna_c = _closed_form_boundary_rows(field, lat, 0)
        ptt, da, dna = (face_rows(system, fam, v)[0]
                        for fam in ("pullback", "dA", "dnA"))
        errs["ptt"].append(np.abs(ptt - ptt_c).max())
        errs["da"].append(np.abs(da - da_c).max())
        errs["dna"].append(np.abs(dna - dna_c).max())
    assert max(errs["ptt"]) <= 1e-12  # linear profiles extrapolate exactly
    for key in ("da", "dna"):
        e16, e32 = errs[key]
        assert e32 <= e16 / 3.2, (key, e16, e32)  # second-order stencils

    # upper face dA block against the reflected closed form
    n = 16
    system = assemble(n, CHART)
    x = slab_nodes(n, 3)
    v = vec_components(tensor_values(field(x, 0)), _sym_pairs(3))
    lat = slab_nodes(n, 2)
    _, da_c, _ = _closed_form_boundary_rows(field, lat, 1)
    da_top = face_rows(system, "dA", v)[1]
    assert np.abs(da_top - da_c).max() <= 0.1


# ---------------------------------------------------------------------------
# sources


def test_source_diagnostics_by_kind():
    n = 16
    src = make_source(n, CHART, "discrete-admissible", seed=1)
    assert src.div_rel <= 1e-10
    assert src.boundary_rel <= 1e-12
    coarse = make_source(8, CHART, "continuum-admissible", seed=2)
    fine = make_source(16, CHART, "continuum-admissible", seed=2)
    # admissibility holds in the continuum; the discrete diagnostics are
    # consistency errors and must shrink under refinement
    assert fine.div_rel <= 0.6 * coarse.div_rel
    assert fine.boundary_rel <= 0.6 * coarse.boundary_rel
    src = make_source(n, CHART, "inadmissible-divergence", seed=3)
    assert src.div_rel >= 0.1
    assert src.boundary_rel <= 1e-12
    src = make_source(n, CHART, "inadmissible-boundary", seed=3)
    assert src.div_rel <= 1e-10
    assert src.boundary_rel >= 0.5
    with pytest.raises(ValueError):
        make_source(n, CHART, "bogus")


@pytest.mark.parametrize("d,n", [(3, n) for n in range(4, 25)]
                         + [(4, 8), (4, 12)])
def test_continuum_source_matches_the_full_grid_evaluation(d, n):
    # make_source evaluates dEin on 4 lateral nodes per axis and
    # interpolates; the oracle evaluates it at every node
    chart = make_chart("flat_slab_periodic", d)
    src = make_source(n, chart, "continuum-admissible", seed=2)
    values, div_rel, boundary_rel = continuum_source_full_grid(n, d, 2)
    scale = np.abs(values).max()
    assert np.abs(src.values - values).max() <= 1e-14 * scale
    assert src.div_rel == pytest.approx(div_rel, rel=1e-14)
    assert src.boundary_rel == pytest.approx(boundary_rel, rel=1e-14)
    if d == 3:
        # at seed 2 the source fills the classes of j_a in {0, 1} and
        # no other
        report = solve_least_squares(assemble(n, chart), src)[1]
        assert report.classes_solved == 4


@pytest.mark.parametrize("kind", sorted(SOURCE_MIN_GRID))
def test_each_source_kind_raises_below_its_minimum_grid(kind):
    # below the minimum the source's layers are empty, and a solve would
    # read the zero source as solved
    n = SOURCE_MIN_GRID[kind]
    with pytest.raises(ValueError, match=f"needs a grid >= {n}"):
        make_source(n - 1, CHART, kind, seed=3)
    src = make_source(n, CHART, kind, seed=3)
    assert np.abs(src.values).max() > 0.1
    # the verify rules read the same table: no case below the minimum,
    # and a grid under it is dropped
    assert slab_unchecked_reason(kind, [n - 1]) == f"needs a grid >= {n}"
    if kind != "continuum-admissible":  # judged only by its slope
        assert slab_unchecked_reason(kind, [n - 1, n]) is None
    _, tables, _ = slab_solve_cases(CHART, [(kind, [n - 1, n], 3)],
                                    study=False)
    assert [m for m, _ in tables[kind]] == [n]


def test_boundary_rel_reads_both_faces():
    # this source reads about 1.0 on the lower face and 0.33 on the upper;
    # reflecting the collar axis swaps the faces and keeps boundary_rel
    n = 8
    src = make_source(n, CHART, "inadmissible-boundary", seed=2)
    reflected = src.values.reshape(-1, n)[:, ::-1].ravel()

    def one_face(values, face):
        E = sp.csr_matrix(bvp._collar(n).E[[face]])
        return float(np.abs(E @ values.reshape(-1, n).T).max())

    lower, upper = (one_face(src.values, face) for face in (0, 1))
    assert lower > 2 * upper
    assert one_face(reflected, 1) == pytest.approx(lower, rel=1e-14)
    assert _face_max(src.values, n) == pytest.approx(lower, rel=1e-15)
    scale = np.abs(src.values).max()
    assert src.boundary_rel * scale == pytest.approx(lower, rel=1e-14)
    assert _face_max(reflected, n) / scale == pytest.approx(
        src.boundary_rel, rel=1e-14)


def test_sources_read_each_collar_layer():
    # every node reads its own layer's profile value on every grid: the
    # discrete-admissible potential fills exactly the layers 5 .. n-6
    # (its double-curl potential's 7 .. n-8, spread by the double curl),
    # and the divergence source is its profile sin^2(pi (j - 2) / (n - 5))
    # on the layers j = 3 .. n-4 times its lateral factor
    for n in range(15, 41):
        potential = make_source(n, CHART, "discrete-admissible").potential
        filled = np.abs(potential.reshape(-1, n)).max(axis=0) > 0
        assert np.flatnonzero(filled).tolist() == list(range(5, n - 5))
    for n in range(7, 41):
        values = make_source(n, CHART, "inadmissible-divergence").values
        j = np.arange(n)
        layers = np.where((j >= 3) & (j <= n - 4),
                          np.sin(np.pi * (j - 2) / (n - 5)) ** 2, 0.0)
        want = np.tile(layers, n * n) * (
            1.0 + 0.4 * np.cos(2 * np.pi * slab_nodes(n, 3)[:, 0]))
        for got, (a, b) in zip(values.reshape(6, -1), _sym_pairs(3)):
            np.testing.assert_allclose(got, want if a == b else 0.0,
                                       rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# solves


def test_discrete_admissible_solves_to_solver_tolerance():
    src = make_source(16, CHART, "discrete-admissible", seed=1)
    system = assemble(16, CHART)
    x, rep = lsmr_solve(system, src)
    assert rep.converged
    assert rep.relative_residual <= 1e-8
    # the potential itself is an exact solution
    b = system.rhs_from_einstein_block(src.values)
    mu_res = np.linalg.norm(system.matrix @ src.potential - b) \
        / np.linalg.norm(b)
    assert mu_res <= 1e-12
    # the direct solve reaches it to roundoff; x is unique (full rank)
    x_f, rep_f = solve_least_squares(system, src)
    assert rep_f.relative_residual <= 1e-12
    assert np.linalg.norm(x_f - x) <= 1e-6 * np.linalg.norm(x_f)


def test_every_collar_reader_shares_one_d(monkeypatch):
    # the discrete-admissible source solves to roundoff only because its
    # double curl and the slab blocks apply the same collar D: with D
    # doubled for every reader it still does, with D doubled for the
    # blocks alone it does not
    n, collar = 16, bvp._collar
    private = make_source(n, CHART, "discrete-admissible", seed=1)
    monkeypatch.setattr(bvp, "_collar",
                        lambda m: collar(m)._replace(D=2 * collar(m).D))
    try:
        bvp._slab_polynomial.cache_clear()
        bvp._grid.cache_clear()
        system = assemble(n, CHART)
        shared = make_source(n, CHART, "discrete-admissible", seed=1)
        assert solve_least_squares(system, shared)[1].relative_residual \
            <= 1e-12
        assert solve_least_squares(system, private)[1].relative_residual \
            >= 1e-3
    finally:
        monkeypatch.undo()
        bvp._slab_polynomial.cache_clear()
        bvp._grid.cache_clear()


def test_solve_report_reads_both_residuals_from_one_residual():
    # the report's residuals are those of r = A x - b, to the bit
    system = assemble(8, CHART)
    src = make_source(8, CHART, "continuum-admissible", seed=2)
    x, rep = solve_least_squares(system, src)
    b = system.rhs_from_einstein_block(src.values)
    assert rep.relative_residual == float(
        np.linalg.norm(system.matrix @ x - b) / np.linalg.norm(b))
    assert rep.block_residuals == system._residual_blocks(
        system.matrix @ x - b, src.values)


def test_zero_source_gives_zero_residual():
    system = assemble(8, CHART)
    src = make_source(8, CHART, "inadmissible-divergence", seed=5)
    zero = type(src)(kind=src.kind, values=np.zeros_like(src.values),
                     div_rel=0.0, boundary_rel=0.0)
    x, rep = solve_least_squares(system, zero)
    # every mode is silent: nothing is factored, and x is exactly 0
    assert not x.any()
    assert rep.relative_residual == 0.0
    assert rep.classes_solved == 0
    assert rep.rank_deficient_blocks == 0
    assert rep.sigma_min_estimate is None


def test_continuum_admissible_residual_decays_second_order():
    rels = []
    ns = (8, 12, 16)
    for n in ns:
        src = make_source(n, CHART, "continuum-admissible", seed=2)
        _, rep = solve_least_squares(assemble(n, CHART), src)
        rels.append(rep.relative_residual)
    slope = loglog_slope([1 / n for n in ns], rels)
    assert slope >= 1.8


def test_inadmissible_sources_keep_residual_bounded_below():
    for kind in ("inadmissible-divergence", "inadmissible-boundary"):
        for n in (8, 16):
            src = make_source(n, CHART, kind, seed=3)
            _, rep = solve_least_squares(assemble(n, CHART), src)
            assert rep.relative_residual >= 0.05, (kind, n)


def test_dense_range_distance_oracle_matches_lsmr_residual():
    n = 8
    system = assemble(n, CHART)
    # A has full column rank: its exact spectrum has one value per column,
    # and the smallest is far above roundoff.  So the Q of its reduced QR
    # spans range(A).
    spec = lateral_block_svals(n, 3)["spectrum"]
    assert spec.size == system.matrix.shape[1]
    assert spec[0] >= 1e-4 * spec[-1]
    Q = np.linalg.qr(system.matrix.toarray())[0]
    for kind in ("inadmissible-divergence", "inadmissible-boundary"):
        src = make_source(n, CHART, kind, seed=3)
        b = system.rhs_from_einstein_block(src.values)
        dist = np.linalg.norm(b - Q @ (Q.T @ b)) / np.linalg.norm(b)
        _, rep = lsmr_solve(system, src)
        _, rep_f = solve_least_squares(system, src)
        assert dist >= 0.05, kind
        assert abs(rep.relative_residual - dist) <= 1e-6
        assert abs(rep_f.relative_residual - dist) <= 1e-6


# ---------------------------------------------------------------------------
# kernel and cohomology probes


@pytest.fixture(scope="module")
def dense8():
    """The assembled n=8 system and its singular values, descending, from
    one dense SVD."""
    system = assemble(8, CHART)
    return system, np.linalg.svd(system.matrix.toarray(), compute_uv=False)


def test_kernel_probe_matches_dense_svd(dense8):
    # the full system has no kernel; the probe must find the smallest
    # singular value itself (the exact-kernel case is
    # test_rank_deficient_toy_system)
    system, dense = dense8
    est = kernel_probe(system.matrix)
    assert dense[-1] > 1e-8 * dense[0]
    assert abs(est - dense[-1]) <= 1e-8 * dense[0]


def test_kernel_probe_refuses_a_band_beyond_the_memory_limit(monkeypatch):
    # the band's size is known before it is allocated: at 1 MiB the n=8
    # probe raises, naming the band, and at the real limit it gives the
    # Fourier sigma_min
    A = assemble(8, CHART).matrix
    sigma_min = lateral_block_svals(8, 3)["spectrum"][0]
    assert abs(kernel_probe(A) - sigma_min) <= 1e-12
    monkeypatch.setattr(bvp, "_memory_limit", lambda: 2 ** 20)
    with pytest.raises(ValueError, match=r"band of \d+ x 3072 needs"):
        kernel_probe(A)


def test_kernel_probe_over_seeds():
    # an inverse iteration that stops early would miss sigma_min at some
    # starting vector; the Fourier blocks give sigma_min at n=8, a dense
    # SVD at n=4 and 6
    spec = lateral_block_svals(8, 3)["spectrum"]
    A = assemble(8, CHART).matrix
    for seed in range(20):
        assert abs(kernel_probe(A, seed) - spec[0]) <= 1e-12 * spec[-1]
    for n in (4, 6):
        A = assemble(n, CHART).matrix
        dense = np.linalg.svd(A.toarray(), compute_uv=False)
        assert abs(kernel_probe(A) - dense[-1]) <= 1e-12 * dense[0]


def test_fourier_spectrum_matches_dense_svd(dense8):
    dense = np.sort(dense8[1])
    fourier = lateral_block_svals(8, 3)["spectrum"]
    assert np.abs(dense - fourier).max() <= 1e-8


def test_width_modulus_fields_span_exact_kernel():
    # the fields span the exact kernel of the interior, gauge, pullback,
    # dA and d(nabla_n A) rows; the sigma(n, .) rows that close the
    # system map each away from zero: a unit field on one component
    # meets one sigma(n, .) row per face node of both faces, of weight
    # h^(-1/2), so its image is sqrt(2) of its norm
    for n in (8, 16):
        system = assemble(n, CHART)
        geometric = [rows_of(system, "einstein"), rows_of(system, "gauge"),
                     rows_of(system, "pullback", "dA", "dnA")]
        W = width_modulus_fields(n, 3)
        for c in range(W.shape[1]):
            norm = np.linalg.norm(W[:, c])
            img = max(np.linalg.norm(op @ W[:, c]) for op in geometric)
            assert img / norm <= 1e-12
            assert np.linalg.norm(system.matrix @ W[:, c]) / norm \
                == pytest.approx(np.sqrt(2.0), rel=1e-12)
        K = discrete_kernel_basis(n, 3)
        assert K.shape[1] == 12  # 3 patterns x 4 lateral dead modes
        assert max(np.linalg.norm(op @ K[:, c])
                   for op in geometric for c in range(12)) <= 1e-12
        assert min(np.linalg.norm(system.matrix @ K[:, c])
                   for c in range(12)) >= 1.0


def test_deflated_gap_is_refinement_stable():
    # sigma_min sits in the lateral zero-symbol block (the collar problem
    # for laterally constant fields) and rises under refinement toward
    # about 1.04 (0.951, 0.983, 1.009, 1.025 at n = 8, 16, 32, 64); the
    # floor keeps about the margin (18%) the former floor had below its
    # n=8 value
    gap8, nk8 = deflated_gap(8, 3)
    gap16, nk16 = deflated_gap(16, 3)
    assert nk8 == nk16 == 0
    assert gap8 > 0.8 and gap16 > 0.8
    assert gap16 >= gap8 / 2.0  # no collapse beyond 2x under refinement


def test_killing_candidates_stay_away_from_kernel():
    n = 8
    system = assemble(n, CHART)
    x = slab_nodes(n, 3)
    # X vanishing on both faces
    cut = np.sin(np.pi * x[:, 2]) ** 2
    DSTAR = dstar_from_P(grid_stencils(n, 3)[0], 3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        X = np.concatenate([cut * np.cos(2 * np.pi * x[:, 0] + rng.uniform())
                            * rng.standard_normal() for _ in range(3)])
        sig = DSTAR @ X
        ratio = np.linalg.norm(system.matrix @ sig) / np.linalg.norm(sig)
        assert ratio >= 0.5


def test_rank_deficient_toy_system():
    # interior rows only: every Killing deformation is exact kernel, which
    # the probe reads as ||A x|| at roundoff
    for n in (6, 8, 10):
        EIN = rows_of(assemble(n, CHART), "einstein")
        for seed in range(10):
            assert kernel_probe(EIN, seed) <= 1e-10


def test_cohomology_probe_slab_and_torus():
    # the kernel of the geometric rows and its images under the full
    # system are test_width_modulus_fields_span_exact_kernel's
    out8 = cohomology_probe(8, CHART)
    assert set(out8) == {"dim_h0", "dim_h1", "h1_gap_beyond_kernel",
                         "translation_image_norms"}
    assert out8["dim_h0"] == 0
    assert out8["dim_h1"] == 0
    # each translation meets the weighted restriction rows of both faces
    assert out8["translation_image_norms"] == pytest.approx(
        [np.sqrt(2.0)] * 3, rel=1e-12)

    out12 = cohomology_probe(12, CHART)
    assert (out12["dim_h0"], out12["dim_h1"]) == (0, 0)
    assert out12["h1_gap_beyond_kernel"] >= out8["h1_gap_beyond_kernel"] / 2

    torus = cohomology_probe(8, CHART, closed_torus=True)
    assert torus["dim_h0"] >= 3
    assert max(torus["translation_image_norms"]) <= 1e-12
    assert torus["dim_h1"] is None


@pytest.mark.parametrize("d,grids", [(3, (8, 12)), (4, (8,))])
def test_cohomology_probe_reads_only_the_class_blocks(d, grids, monkeypatch):
    # the probe builds no full-grid matrix: with the lateral expansion and
    # the assembly raising, it still runs, on the slab and the torus
    def full_grid(*args, **kwargs):
        raise AssertionError("the probe evaluated the full grid")

    bvp._grid.cache_clear()  # a cached grid would bypass the patches
    monkeypatch.setattr(bvp, "assemble", full_grid)
    monkeypatch.setattr(bvp, "_expand", full_grid)
    chart = make_chart("flat_slab_periodic", d)
    for n in grids:
        out = cohomology_probe(n, chart)
        assert (out["dim_h0"], out["dim_h1"]) == (0, 0)
    if d == 3:
        torus = cohomology_probe(8, chart, closed_torus=True)
        assert torus["dim_h0"] >= d
        assert torus["translation_image_norms"] == [0.0] * d


# cohomology_probe(8, ...) as the H0 rows built through the interior
# operators gave it, by (d, closed_torus)
H0_PROBES = {
    (3, False): {"dim_h0": 0, "dim_h1": 0,
                 "h1_gap_beyond_kernel": 0.9492939373881244,
                 "translation_image_norms": [1.414213562373095] * 3},
    (3, True): {"dim_h0": 24, "dim_h1": None,
                "translation_image_norms": [0.0] * 3},
    (4, False): {"dim_h0": 0, "dim_h1": 0,
                 "h1_gap_beyond_kernel": 0.9668013437481668,
                 "translation_image_norms": [1.414213562373095] * 4},
    (4, True): {"dim_h0": 64, "dim_h1": None,
                "translation_image_norms": [0.0] * 4},
}


@pytest.mark.parametrize("d,closed_torus", sorted(H0_PROBES))
def test_h0_rows_build_no_interior_operator(d, closed_torus, monkeypatch):
    # the H0 stack is delta* and the face restrictions: with the jet-route
    # DEin and delta B that bvp calls raising, and no coefficient cached,
    # the probe still runs and gives the same counts and norms; the H1
    # rows are the slab stack's, built before the patch
    def interior(*args, **kwargs):
        raise AssertionError("the H0 rows built the interior operators")

    bvp._grid.cache_clear()
    bvp._slab_polynomial.cache_clear()
    if not closed_torus:
        bvp._slab_polynomial(8, d)
    bvp._symbol.cache_clear()
    monkeypatch.setattr(bvp, "dein_closed_jets", interior)
    monkeypatch.setattr(bvp, "_gauge", interior)
    out = cohomology_probe(8, make_chart("flat_slab_periodic", d),
                           closed_torus)
    ref = H0_PROBES[d, closed_torus]
    assert set(out) == set(ref)
    for key, value in ref.items():
        if isinstance(value, float):
            assert out[key] == pytest.approx(value, rel=1e-12)
        elif isinstance(value, list):
            assert out[key] == pytest.approx(value, rel=1e-12, abs=1e-15)
        else:
            assert out[key] == value


def test_vec_roundtrip():
    n = 6
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((n ** 3, 3, 3))
    vals = 0.5 * (vals + np.swapaxes(vals, 1, 2))
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    v = vec_components(vals, pairs)
    back = np.empty_like(vals)
    for c, (i, j) in enumerate(pairs):
        back[:, i, j] = back[:, j, i] = v[c * n ** 3:(c + 1) * n ** 3]
    assert np.abs(back - vals).max() <= 1e-15


# ---------------------------------------------------------------------------
# verify cases


def test_bvp_cases_follow_the_documented_pass_rule():
    # a case passes iff value <= tolerance, or iff value >= tolerance when
    # it is a lower bound (at_least); a lower bound reports the measured
    # residual, sigma_min or slope itself
    cases = run_suite("bvp", {"seed": 1})
    solve_only, tables, _ = slab_solve_cases(CHART, [
        ("inadmissible-divergence", (8,), 3),
        ("inadmissible-boundary", (8,), 3)], study=False)
    for c in cases + solve_only:
        if c["at_least"]:
            assert c["pass"] == (c["value"] >= c["tolerance"]), c
        else:
            assert c["pass"] == (c["value"] <= c["tolerance"]), c
        assert c["pass"], c
    lower = {c["name"] for c in cases if c["at_least"]}
    assert lower == {"solvable-continuum-slope", "obstruction-divergence",
                     "obstruction-boundary", "kernel-sigma-min-positive",
                     "cohomology-torus-kernel"}
    by_name = {c["name"]: c for c in cases}
    sigma_min = lateral_block_svals(8, 3)["spectrum"][0]
    assert by_name["kernel-sigma-min-positive"]["value"] == pytest.approx(
        sigma_min, rel=1e-12)
    for c in solve_only:
        kind = "inadmissible-" + c["name"].split("-")[1]
        assert c["at_least"]
        assert c["value"] == min(r for _, r in tables[kind])
