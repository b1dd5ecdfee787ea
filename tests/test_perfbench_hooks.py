"""The benchmark's tracer finds every specden name it wraps.

``perfbench/tracing.py`` replaces each ``TARGETS`` attribute looked up in
its owner's ``__dict__`` and prices every operator product by its class; a
renamed or deleted name, or an operator class it cannot price, would fail
only traced benchmark runs, so tier-1 checks both here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from specden import DiagonalOperator, SdeConfig, operators, run, sde

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_in_its_owner_dict(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing


def test_traced_deflation_reports_the_depth_it_ran(tracing):
    # The span reads q from the call's arguments; block_krylov_deflation
    # takes q as a required argument, so every call names it.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run(DiagonalOperator(np.linspace(-1.0, 1.0, 100)), SdeConfig("def_kpm", budget=200))
    finally:
        tracer.uninstall()
    infos = [
        span[tracing.INFO]
        for span in tracer.reset()
        if span[tracing.NAME] == "block_krylov.deflation"
    ]
    assert len(infos) == 1
    assert infos[0][1] == sde.DEFAULT_KRYLOV_DEPTH


def test_traced_kpm_reports_its_moment_count(tracing):
    # The moment stage draws its probes in chebyshev.estimate_moments, the
    # one name the tracer wraps for it; its span's info is K, the products
    # per probe, from which kpm reads N = 2K moments.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        estimate = run(DiagonalOperator(np.linspace(-1.0, 1.0, 100)), SdeConfig("kpm", budget=200))
    finally:
        tracer.uninstall()
    infos = [
        span[tracing.INFO]
        for span in tracer.reset()
        if span[tracing.NAME] == "chebyshev.estimate_moments"
    ]
    assert [2 * K for K in infos] == [estimate.diagnostics["per_trial"][0]["N"]]
    assert infos[0] > 0


def test_product_cost_prices_every_operator_class(tracing):
    base = operators.DiagonalOperator(np.arange(1.0, 5.0))
    instances = {
        operators.DenseOperator: operators.DenseOperator(np.eye(4)),
        operators.DiagonalOperator: base,
        operators.SparseOperator: operators.SparseOperator(sp.identity(4)),
        operators.ScaledOperator: operators.ScaledOperator(base, 0.5),
        operators.DeflatedOperator: operators.deflate(base, np.eye(4)[:, :1]),
    }
    classes = {
        cls
        for cls in vars(operators).values()
        if isinstance(cls, type)
        and issubclass(cls, operators.SymmetricOperator)
        and cls is not operators.SymmetricOperator
    }
    assert classes == set(instances)
    for op in instances.values():
        nbytes, flops = tracing.product_cost(op)
        assert nbytes > 0 and flops > 0
