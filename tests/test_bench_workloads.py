"""The benchmark's workloads (``benchlab/workloads.py`` and its output
checks ``benchlab/checks.py``, loaded by path) against the package: every
library name they call exists, and the probe outputs they judge pass
their checks.  A deletion or rename in ``src/`` that would make a
benchmark run fail fails here.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import bianchi_lab
from bianchi_lab import bvp, charts

BENCHLAB = Path(__file__).resolve().parents[1] / "benchlab"
LIBRARY = ("bvp", "charts", "boundary", "quadrature", "verify")


def _load(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  BENCHLAB / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its checks as the top-level module ``checks``
    saved = sys.modules.get("checks")
    sys.modules["checks"] = _load("checks")
    try:
        yield _load("workloads")
    finally:
        if saved is None:
            del sys.modules["checks"]
        else:
            sys.modules["checks"] = saved


def _library_names(source):
    """Every dotted name rooted at a library module, such as
    ``bvp.cohomology_probe`` or ``quadrature.GridSpec.for_chart``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in LIBRARY:
            names.add((node.id, *chain))
    return names


def test_every_library_name_the_workloads_call_exists(workloads):
    names = _library_names((BENCHLAB / "workloads.py").read_text())
    assert ("bvp", "cohomology_probe") in names
    missing = []
    for root, *attrs in sorted(names):
        obj = getattr(workloads, root)
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(".".join([root, *attrs]))
                break
            obj = getattr(obj, attr)
    assert not missing


def test_cohomology_probes_pass_the_benchmark_checks(workloads):
    checks = workloads.checks
    chart = charts.make_chart("flat_slab_periodic", workloads.DIM)
    assert checks.check_slab_cohomology(bvp.cohomology_probe(8, chart)) == []
    torus = bvp.cohomology_probe(8, chart, closed_torus=True)
    assert checks.check_torus(torus, workloads.DIM) == []


def test_slab_spectra_pass_runs_clean(workloads):
    tally = workloads.Tally()
    workloads.slab_spectra(1, tally)
    assert tally.failures == []
    assert tally.problems == []
    assert tally.attempted >= 8


def test_two_slab_solve_passes_run_clean(workloads):
    # the benchmark clears every lazy table between passes, so the second
    # pass rebuilds each grid as the first did
    run = _load("run")
    modules = [importlib.import_module(f"bianchi_lab.{info.name}")
               for info in pkgutil.iter_modules(bianchi_lab.__path__)]
    tally = workloads.Tally()
    for _ in range(2):
        run.clear_lazy_tables(modules)
        assert bvp._grid.cache_info().currsize == 0
        workloads.slab_solve(1, tally)
    assert tally.failures == []
    assert tally.problems == []
    assert tally.attempted == 2 * sum(len(grids) for _, grids
                                      in workloads.SOLVES)
