"""The benchmark's span tracer finds every layer boundary it wraps, and the
solver dispatch calls those boundaries through their modules, so the traced
per-layer counts see every call."""

import sys
from pathlib import Path

import numpy as np
import pytest

from utmcont.continuous import evaluate_extended, taylor_coefficients

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

_KINDS = ("heat-dirichlet", "heat-neumann", "advected-heat", "kdv-one-bc",
          "kdv-two-bc", "heat-finite-interval")


@pytest.fixture
def tracer():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_tracer_counts_every_layer(tracer, fresh_spec):
    xs = np.array([-0.3, 0.4])
    for kind in _KINDS:
        values = evaluate_extended(fresh_spec(kind), xs, 0.5, 1e-8)
        assert np.all(np.isfinite(values))
    taylor_coefficients(fresh_spec("heat-dirichlet"), "f0", 0.5, 5,
                        parity="all")
    taylor_coefficients(fresh_spec("advected-heat"), "f0", 0.5, 5,
                        parity="all")
    counts = tracer.counts
    for layer in ("continuous.i0", "continuous.boundary",
                  "continuous.coeff.heat", "continuous.coeff.advected",
                  "continuous.coeff.kdv1", "continuous.coeff.kdv2"):
        assert counts.get(f"{layer}.calls", 0) > 0, layer
    assert counts.get("continuous.series.terms", 0) > 0
