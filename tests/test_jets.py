from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bianchi_lab import jets
from bianchi_lab.charts import make_chart, sample_points
from bianchi_lab.jets import Jet, contract, jet_matrix_inverse, stack
from oracles import jet_cos, jet_mul_loop, jet_sin


def deriv(f, alpha):
    """The partial derivative d^alpha f at the base point: the Taylor
    coefficient c_alpha times alpha!."""
    return f.coeff(alpha) * prod(factorial(a) for a in alpha)


def test_variable_and_value():
    x, y = Jet.variables(np.array([1.5, -0.5]), order=3)
    f = x * x * y + 2.0 * x
    assert np.isclose(f.value, 1.5 * 1.5 * (-0.5) + 3.0)
    assert np.isclose(deriv(f, (1, 0)), 2 * 1.5 * (-0.5) + 2.0)
    assert np.isclose(deriv(f, (2, 0)), 2 * (-0.5))
    assert np.isclose(deriv(f, (1, 1)), 2 * 1.5)
    assert np.isclose(deriv(f, (0, 2)), 0.0)


def test_polynomial_derivatives_exact_to_truncation():
    x, y, z = Jet.variables(np.array([0.3, 0.7, -1.2]), order=4)
    f = (x ** 2) * (y ** 2) + z ** 4

    def fd(alpha):
        # analytic partials of x^2 y^2 + z^4 at the base point
        a, b, c = 0.3, 0.7, -1.2
        table = {
            (2, 2, 0): 4.0,
            (1, 2, 0): 4.0 * a,
            (2, 1, 0): 4.0 * b,
            (0, 0, 4): 24.0,
            (0, 0, 3): 24.0 * c,
        }
        return table[alpha]

    for alpha in [(2, 2, 0), (1, 2, 0), (2, 1, 0), (0, 0, 4), (0, 0, 3)]:
        assert np.isclose(deriv(f, alpha), fd(alpha), atol=1e-12)


def test_partial_matches_coefficients():
    x, y = Jet.variables(np.array([0.2, 0.4]), order=4)
    f = (x * y).exp()
    fx = f.partial(0)
    assert np.isclose(fx.value, deriv(f, (1, 0)))
    assert np.isclose(deriv(fx, (0, 1)), deriv(f, (1, 1)))
    assert np.isclose(deriv(fx, (2, 1)), deriv(f, (3, 1)))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(-1.0, 1.0))
def test_smooth_primitives_against_closed_forms(v, w):
    x, y = Jet.variables(np.array([v, w]), order=4)
    one = Jet.const(2, 4, 1.0)
    assert np.allclose((x.exp() * (-x).exp()).c, one.c, atol=1e-10)

    trig = jet_sin(x) ** 2 + jet_cos(x) ** 2
    assert np.allclose(trig.c, one.c, atol=1e-12)


def test_division_roundtrip():
    x, y = Jet.variables(np.array([1.1, 0.4]), order=4)
    f = 1.0 + x * y + y ** 3
    assert np.allclose(((f / x) * x).c, f.c, atol=1e-11)


def test_batched_broadcasting():
    pts = np.random.default_rng(0).uniform(0.5, 1.5, size=(7, 3))
    xs = Jet.variables(pts, order=2)
    f = xs[0] * xs[1] + xs[2]
    assert f.c.shape == (7, len(f.c[0]))
    assert np.allclose(f.value, pts[:, 0] * pts[:, 1] + pts[:, 2])
    assert np.allclose(deriv(f, (1, 1, 0)), np.ones(7))


def test_matrix_inverse():
    rng = np.random.default_rng(1)
    x, y = Jet.variables(np.array([0.3, 0.8]), order=3)
    G = stack([stack([2.0 + x * x, 0.3 * x * y]),
               stack([0.3 * x * y, 1.5 + y * y])], axis=-2)
    inv = jet_matrix_inverse(G)
    for i in range(2):
        for j in range(2):
            acc = Jet.const(2, 3, 0.0)
            for k in range(2):
                acc = acc + G[..., i, k] * inv[..., k, j]
            expect = 1.0 if i == j else 0.0
            assert np.allclose(acc.c[..., 0], expect, atol=1e-12)
            assert np.allclose(acc.c[..., 1:], 0.0, atol=1e-12)


def test_truncation_order_guard():
    x, _ = Jet.variables(np.array([0.0, 0.0]), order=1)
    with pytest.raises(ValueError):
        x.partial(0).partial(0)


def test_matrix_inverse_rejects_vanishing_pivot():
    zero, one = Jet.const(2, 2, 0.0), Jet.const(2, 2, 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        jet_matrix_inverse(stack([stack([zero, one]), stack([one, zero])],
                                 axis=-2))


@pytest.mark.parametrize("shape", [(), (7,), (4, 3)])
@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("d", (3, 4, 5))
@pytest.mark.parametrize("preset", ("curved_generic", "conformal_bump",
                                    "polar_ball"))
def test_matrix_inverse_matches_gauss_jordan_oracle(preset, d, order, shape):
    chart = make_chart(preset, d)
    rng = np.random.default_rng(100 * d + 10 * order + len(shape))
    x = sample_points(chart, int(np.prod(shape)), rng).reshape(shape + (d,))
    G = chart.metric_jets(x, order)
    got = jet_matrix_inverse(G)
    want = oracles.tensor_jet(np.array(oracles.jet_matrix_inverse(
        [[G[..., i, j] for j in range(d)] for i in range(d)]), dtype=object))
    assert (got.order, got.c.shape) == (want.order, want.c.shape)
    assert np.all(np.abs(got.c - want.c) <= 1e-12 * np.abs(want.c).max())


# ---------------------------------------------------------------------------
# the single-kernel product against the per-output loop


def _random_jet(rng, dim, order, shape):
    K = len(jets._exponents(dim, order))
    return Jet(dim, order, rng.standard_normal(tuple(shape) + (K,)))


def _assert_matches_loop(a, b):
    got, want = a * b, jet_mul_loop(a, b)
    assert (got.dim, got.order) == (want.dim, want.order)
    assert got.c.shape == want.c.shape
    if want.order == 0:
        assert np.array_equal(got.c, want.c)
        return
    # relative to the sum of |terms| of each coefficient
    scale = jet_mul_loop(Jet(a.dim, a.order, np.abs(a.c)),
                         Jet(b.dim, b.order, np.abs(b.c))).c
    assert np.all(np.abs(got.c - want.c) <= 1e-14 * scale)


@pytest.mark.parametrize("dim,order", [(d, p) for d in range(1, 6)
                                       for p in range(5)] + [(3, 5), (3, 6)])
@pytest.mark.parametrize("shape", [(), (7,), (4, 3)])
def test_product_matches_loop(dim, order, shape):
    rng = np.random.default_rng(100 * dim + order)
    a = _random_jet(rng, dim, order, shape)
    b = _random_jet(rng, dim, order, shape)
    _assert_matches_loop(a, b)


@pytest.mark.parametrize("order", [0, 2, 4])
def test_product_broadcasts_batch_shapes(order):
    rng = np.random.default_rng(order)
    const = _random_jet(rng, 3, order, ())
    field = _random_jet(rng, 3, order, (6,))
    _assert_matches_loop(const, field)
    _assert_matches_loop(field, const)
    col = _random_jet(rng, 3, order, (5, 1))
    row = _random_jet(rng, 3, order, (1, 4))
    assert (col * row).c.shape[:-1] == (5, 4)
    _assert_matches_loop(col, row)


@pytest.mark.parametrize("high,low", [(4, 2), (3, 1), (2, 0)])
def test_product_of_mixed_orders(high, low):
    rng = np.random.default_rng(high)
    a = _random_jet(rng, 3, high, (5,))
    b = _random_jet(rng, 3, low, (5,))
    assert (a * b).order == low and (b * a).order == low
    _assert_matches_loop(a, b)
    _assert_matches_loop(b, a)


@pytest.mark.parametrize("dim,order", [(3, 2), (5, 4)])
def test_product_across_block_boundaries(dim, order):
    rows = max(1, jets._BLOCK // len(jets._mul_flat(dim, order)[0]))
    rng = np.random.default_rng(rows)
    for n in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 7):
        a = _random_jet(rng, dim, order, (n,))
        b = _random_jet(rng, dim, order, (n,))
        _assert_matches_loop(a, b)


# ---------------------------------------------------------------------------
# contract against einsum over the per-output loop products


def _contract_oracle(spec, a, b):
    """np.einsum over the table of every entry pair's loop product, and
    the same over |a|, |b| (the sum of |terms| of each coefficient)."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")

    def outer(x, y):
        xa = x.c[(...,) + (slice(None),) * len(sa) + (None,) * len(sb)
                 + (slice(None),)]
        yb = y.c[(...,) + (None,) * len(sa) + (slice(None),) * len(sb)
                 + (slice(None),)]
        return jet_mul_loop(Jet(x.dim, x.order, xa), Jet(y.dim, y.order, yb)).c

    eq = f"...{sa}{sb}z->...{out}z"
    scale = np.einsum(eq, outer(Jet(a.dim, a.order, np.abs(a.c)),
                                Jet(b.dim, b.order, np.abs(b.c))))
    return np.einsum(eq, outer(a, b)), scale


def _assert_contract_matches(spec, a, b):
    got = contract(spec, a, b)
    want, scale = _contract_oracle(spec, a, b)
    assert got.order == min(a.order, b.order)
    assert got.c.shape == want.shape
    assert np.all(np.abs(got.c - want) <= 1e-14 * scale)


SPECS = [(",->", (), ()), ("i,i->", (3,), (3,)), (",ij->ij", (), (3, 3)),
         ("i,j->ij", (3,), (3,)), ("ij,jk->ik", (3, 3), (3, 3)),
         ("kl,lij->kij", (3, 3), (3, 3, 3)),
         ("ikjl,kl->ij", (3, 3, 3, 3), (3, 3)),
         ("lm,mkij->ijkl", (3, 3), (3, 3, 3, 3)),
         ("ab,abij->ij", (3, 3), (3, 3, 3, 3))]


@pytest.mark.parametrize("spec,ta,tb", SPECS)
@pytest.mark.parametrize("orders", [(2, 2), (4, 2), (2, 4), (3, 0), (0, 3)])
@pytest.mark.parametrize("shape", [(), (7,), (4, 3)])
def test_contract_matches_einsum_of_loop_products(spec, ta, tb, orders, shape):
    rng = np.random.default_rng(len(spec) + 10 * orders[0] + orders[1])
    a = _random_jet(rng, 3, orders[0], shape + ta)
    b = _random_jet(rng, 3, orders[1], shape + tb)
    _assert_contract_matches(spec, a, b)


@pytest.mark.parametrize("order", [0, 2, 4])
def test_contract_broadcasts_batch_shapes(order):
    rng = np.random.default_rng(order)
    one = _random_jet(rng, 3, order, (1, 3, 3))
    many = _random_jet(rng, 3, order, (6, 3, 3, 3))
    _assert_contract_matches("kl,lij->kij", one, many)
    const = _random_jet(rng, 3, order, (3, 3))
    _assert_contract_matches("kl,lij->kij", const, many)
    assert contract("kl,lij->kij", one, many).c.shape[:-1] == (6, 3, 3, 3)


@pytest.mark.parametrize("spec,ta,tb", SPECS)
@pytest.mark.parametrize("sa,sb", [((5, 1), (1, 4)), ((), (6,)), ((6,), ()),
                                   ((2, 1, 3), (4, 1))])
def test_order0_contract_broadcasts_batch_shapes(spec, ta, tb, sa, sb):
    # order 0 skips the pair table: one whole-batch matmul
    rng = np.random.default_rng(len(spec) + len(sa) + 3 * len(sb))
    a = _random_jet(rng, 3, 0, sa + ta)
    b = _random_jet(rng, 3, 0, sb + tb)
    _assert_contract_matches(spec, a, b)
    assert contract(spec, a, b).c.shape[:-1] == (
        np.broadcast_shapes(sa, sb) + (3,) * (len(spec.split("->")[1])))


@pytest.mark.parametrize("order", [2, 4])
def test_contract_across_block_boundaries(order):
    rows = jets._block_rows(3, order, 27)  # "kl,lij->kij": 27 per pair
    rng = np.random.default_rng(rows)
    for n in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 7):
        a = _random_jet(rng, 3, order, (n, 3, 3))
        b = _random_jet(rng, 3, order, (n, 3, 3, 3))
        _assert_contract_matches("kl,lij->kij", a, b)


def test_contract_transposes_and_traces_one_operand():
    rng = np.random.default_rng(5)
    t = _random_jet(rng, 3, 2, (4, 3, 3, 3))
    assert np.array_equal(contract("ijk->kij", t).c,
                          np.moveaxis(t.c, -2, -4))
    assert np.allclose(contract("iik->k", t).c,
                       np.einsum("...iikz->...kz", t.c), atol=0, rtol=0)


def test_contract_rejects_a_kept_shared_index():
    a = Jet.const(3, 1, np.ones((3, 3)))
    with pytest.raises(ValueError):
        contract("ij,ij->ij", a, a)


def _scipy_modules_after(code: str) -> list:
    """The scipy modules loaded after ``code`` runs in a fresh interpreter
    that imports the package from this checkout's sources."""
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys; print(json.dumps("
         "sorted(m for m in sys.modules if m.startswith('scipy'))))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_verify_imports_no_scipy_sparse():
    assert _scipy_modules_after("import bianchi_lab.verify") == []


def test_package_imports_no_scipy():
    loaded = _scipy_modules_after(
        "import pkgutil, bianchi_lab\n"
        "for info in pkgutil.iter_modules(bianchi_lab.__path__):\n"
        "    __import__('bianchi_lab.' + info.name)")
    assert loaded == []


def test_slab_solve_loads_no_scipy_linalg():
    loaded = _scipy_modules_after(
        "from bianchi_lab.charts import make_chart\n"
        "from bianchi_lab.verify import slab_solve_cases\n"
        "slab_solve_cases(make_chart('flat_slab_periodic', 3),\n"
        "                 [('continuum-admissible', [6, 8, 10], 2)])")
    assert "scipy.sparse" in loaded
    assert "scipy.linalg" not in loaded
    assert "scipy.sparse.linalg" not in loaded


def test_kernel_probe_loads_scipy_linalg_and_csgraph():
    loaded = _scipy_modules_after(
        "from bianchi_lab.bvp import assemble, kernel_probe\n"
        "from bianchi_lab.charts import make_chart\n"
        "chart = make_chart('flat_slab_periodic', 3)\n"
        "assert kernel_probe(assemble(4, chart).matrix) >= 0.0")
    assert "scipy.linalg" in loaded
    assert "scipy.sparse.csgraph" in loaded


@pytest.mark.parametrize("d", range(1, 7))
def test_mul_table_matches_the_pair_loop(d):
    for order in range(7):
        got = jets._mul_table(d, order)
        want = oracles.mul_table_loop(d, order)
        assert len(got) == len(want)
        for (ia, ib), (wa, wb) in zip(got, want):
            assert ia.dtype == np.intp and ib.dtype == np.intp
            assert np.array_equal(ia, wa) and np.array_equal(ib, wb)
