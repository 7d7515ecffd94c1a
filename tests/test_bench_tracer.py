"""The benchmark's span tracer (``benchlab/spans.py``, loaded by path)
against the package: every traced name exists and can be wrapped, and
the block-count hooks bind the signatures of the functions they count.
A rename in ``src/`` that would break a traced benchmark run fails here.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import bianchi_lab

SPANS = Path(__file__).resolve().parents[1] / "benchlab" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def package_modules():
    return [importlib.import_module(f"bianchi_lab.{info.name}")
            for info in pkgutil.iter_modules(bianchi_lab.__path__)]


def test_tracer_installs_on_every_target_and_uninstalls(spans,
                                                        package_modules):
    targets = spans.targets(bianchi_lab)
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, *_ in targets]
    tracer = spans.Tracer()
    try:
        tracer.install(package_modules, targets,
                       [bianchi_lab.verify.SUITES])
        assert all(vars(owner)[attr] is not fn
                   for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_block_hooks_bind_n_d_and_closed_torus(spans, package_modules):
    hooks = {attr: hook for owner, attr, name, group, hook
             in spans.targets(bianchi_lab) if group == "bvp.blocks"}
    assert sorted(hooks) == ["h0_spectrum", "h1_spectrum",
                             "lateral_block_svals"]
    tracer = spans.Tracer()
    for hook in hooks.values():
        hook(tracer, (5, 3), {}, None)
    assert tracer.counters["bvp.blocks.count"] == 3 * 5 ** 2
    # the torus H0 operator has Fourier blocks in all d axes
    hooks["h0_spectrum"](tracer, (5,), {"d": 3, "closed_torus": True}, None)
    assert tracer.counters["bvp.blocks.count"] == 3 * 5 ** 2 + 5 ** 3
