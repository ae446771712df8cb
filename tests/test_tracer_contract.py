"""The benchmark's tracer still finds every function it times.

`bench/tracer.py` names its layers as "module:attribute" targets in the
package (`kernel.expm` is `sagnac_qfi.oracle:expm`).  Renaming or dropping
one of them breaks the traced benchmark run, so this test installs the
tracer against the package and removes it again.  The tracer is imported by
path and used as it is.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound(tracer, target: str):
    owner, attr = tracer._resolve(target)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_layer_target_resolves_wraps_and_restores(tracer):
    targets = [target for group in tracer.LAYERS.values() for target in group]
    originals = {target: _bound(tracer, target) for target in targets}
    t = tracer.Tracer()
    t.install()
    try:
        for target in targets:
            assert _bound(tracer, target) is not originals[target], target
    finally:
        t.uninstall()
    for target in targets:
        assert _bound(tracer, target) is originals[target], target
