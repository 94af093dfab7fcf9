"""Every boundary that the benchmark's tracer wraps exists in ``metlie``.

``perfbench/tracing.py`` records a boundary it cannot find (renamed or
removed by a refactor) as absent and reports it as zero, with only a note on
stderr, so a renamed ``Matrix.rref`` would silently zero ``linalg.*`` in a
``--trace 1`` run.  This test installs the tracer on the imported package,
requires that nothing is absent and uninstalls it again.  It only reads the
benchmark's file.
"""

import importlib.util
from pathlib import Path

from metlie.linalg import Matrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_exists():
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert hasattr(Matrix.rref, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(Matrix.rref, "__wrapped__")
