"""The wrap sites of the benchmark tracer exist with the parameters it binds.

``bench/spans.py`` (``run_bench.py --trace 1``) replaces module attributes
of the package with span wrappers whose hooks read call arguments by name.
A deleted or renamed attribute, or a renamed parameter, would break tracing
without failing any other test.  The traced-run tests install the tracer in
process, count the zone norms of a default run and restore the wrapped
attributes afterwards.
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


def _traced_zone_norm_calls(tmp_path, monkeypatch, subcommand, config="{}", threads=1):
    """``quadrature.zone_norm_sq.calls`` of one in-process CLI run under the
    tracer; the wrapped attributes are restored when the test ends."""
    for _, module, attr in SITES:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    tracer = spans.Tracer()
    tracer.install()
    path = tmp_path / "config.json"
    path.write_text(config)
    from nsprofile.cli import main

    assert main([subcommand, "--config", str(path), "--out", str(tmp_path),
                 "--threads", str(threads)]) == 0
    return tracer.metrics(0.0)["quadrature.zone_norm_sq.calls"]


def test_traced_rate_run_counts_its_zone_norms(tmp_path, monkeypatch):
    # the tracer installed in process sees every zone norm of a default rate
    # run: one per time of its 11-point grid
    assert _traced_zone_norm_calls(tmp_path, monkeypatch, "rate") == 11


@pytest.mark.parametrize("config,threads", [("{}", 1), ('{"params": {"n": 3}}', 2)],
                         ids=["n2", "n3-t2"])
def test_traced_lemma31_run_counts_its_zone_norms(tmp_path, monkeypatch, config, threads):
    # only the sine kernel is a quadrature: one zone norm per time of the
    # 12-point grid, the heat, cosine and witness items being closed forms
    assert _traced_zone_norm_calls(tmp_path, monkeypatch, "lemma31", config, threads) == 12
