"""The wrap sites of the benchmark tracer exist with the parameters it binds.

``bench/spans.py`` (``run_bench.py --trace 1``) replaces module attributes
of the package with span wrappers whose hooks read call arguments by name.
A deleted or renamed attribute, or a renamed parameter, would break tracing
without failing any other test.  The tracer module is only read here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

# parameters that the hook of each span name binds (``Tracer._wrapper``)
HOOK_PARAMETERS = {
    "spectral.solve_exact_batch": {"xi"},
    "profiles": {"xi"},
    "spectral.oracle": {"xi", "t", "step"},
    "quadrature.zone_norm_sq": {"f"},
    "decay.ordered_map": {"fn", "threads"},
    "reporting.emit": {"path"},
}

SITES = [(name, module, attr) for name, sites in spans.LAYERS.items()
         for module, attr in sites]


@pytest.mark.parametrize("name,module,attr", SITES,
                         ids=[f"{module}.{attr}" for _, module, attr in SITES])
def test_wrap_site_has_the_bound_parameters(name, module, attr):
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), f"{module}.{attr} is gone"
    missing = HOOK_PARAMETERS.get(name, set()) - set(inspect.signature(fn).parameters)
    assert not missing, f"{module}.{attr} lacks {sorted(missing)}"


def test_integrand_chunk_has_a_default():
    # the tracer splits a refinement level into integrand calls of this size
    chunk = spans._integrand_chunk()
    assert isinstance(chunk, int) and chunk > 0
