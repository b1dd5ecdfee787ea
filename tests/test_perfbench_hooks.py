"""The benchmark's tracer finds every specden name it wraps.

``perfbench/tracing.py`` replaces each ``TARGETS`` attribute looked up in
its owner's ``__dict__``; a renamed or deleted name would fail only the
benchmark's own suite, so tier-1 checks the lookup here.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from specden import DiagonalOperator, SdeConfig, run, sde

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
    # The span reads q from the call's arguments, falling back to
    # block_krylov's default depth (14 at n = 100) when the call omits it.
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
