"""The names the benchmark harness looks up in the package.

``perfbench/tracing.py`` wraps module attributes by name, and
``perfbench/run.py`` reads the kernel bindings for its environment record.
Deleting or renaming one of them breaks ``perfbench --trace 1``; this test
notices it within the ordinary suite.  The tracer module is loaded from its
file and only read.
"""
import importlib.util
import os

from soccersum.neural import kernels

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def test_traced_bindings_resolve():
    bindings = [(path, attr) for path, attr, _ in tracing.WRAPS] + [tracing.POOL_BINDING]
    missing = ["%s.%s" % (path, attr) for path, attr in bindings
               if not callable(getattr(tracing._resolve(path), attr, None))]
    assert not missing, missing


def test_environment_record_kernel_bindings():
    assert callable(kernels.lstm_forward)
    assert kernels.lstm_forward_numpy is kernels.lstm_forward
