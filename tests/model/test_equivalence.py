"""The compiled model must be invisible to results.

``REPRO_MODEL=reference`` and ``REPRO_MODEL=compiled`` must produce
bit-identical summaries for the same seed — the C structures replicate
every counter, exception and float expression of the pure-python model.
The contract is enforced composing with every other execution gate:
both fast-lane modes and both kernel backends.
"""

import pytest

from repro._fastpath import FASTPATH_ENV
from repro.api import build_simulation, scaling_config
from repro.model.backend import MODEL_ENV, compiled_model_viable
from repro.sim.backend import KERNEL_ENV, compiled_viable

pytestmark = pytest.mark.skipif(
    not compiled_model_viable(),
    reason="compiled model extension not built "
           "(python tools/build_kernel.py)")

KERNELS = [
    pytest.param("reference", id="kernel-reference"),
    pytest.param("compiled", id="kernel-compiled",
                 marks=pytest.mark.skipif(
                     not compiled_viable(),
                     reason="compiled kernel extension not built")),
]


def _run(monkeypatch, model: str, *, fastpath: bool = True,
         kernel: str = "reference"):
    monkeypatch.setenv(MODEL_ENV, model)
    monkeypatch.setenv(FASTPATH_ENV, "1" if fastpath else "0")
    monkeypatch.setenv(KERNEL_ENV, kernel)
    cfg = scaling_config("DynamicSubtree", 4, 0.1, seed=42)
    sim = build_simulation(cfg)
    assert sim.model_backend == model
    sim.run_to(cfg.run_until_s)
    return sim.summary()


@pytest.mark.parametrize("fastpath", [False, True],
                         ids=["fastpath-off", "fastpath-on"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_model_backends_bit_identical(monkeypatch, fastpath, kernel):
    """The acceptance criterion: for a fixed seed the compiled model's
    summary repr equals the reference's, in every fast-lane × kernel
    combination."""
    ref = _run(monkeypatch, "reference", fastpath=fastpath, kernel=kernel)
    com = _run(monkeypatch, "compiled", fastpath=fastpath, kernel=kernel)
    assert repr(ref) == repr(com)
    assert ref == com
    # provenance travels on the summary, outside the equality contract
    assert ref.kernel["model_backend"] == "reference"
    assert com.kernel["model_backend"] == "compiled"

