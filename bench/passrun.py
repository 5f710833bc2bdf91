"""One benchmark pass: run nsprofile CLI subcommands in this fresh process.

    python3 bench/passrun.py SPEC.json

SPEC names the subcommands, the config file, the output directory, the
thread count, whether to trace, and the report path.  The report holds each
subcommand's exit code, the ``time.monotonic()`` instant the first subcommand
started computing (set-up ends there), and with tracing the per-layer
metrics.  ``nsprofile`` must be importable (run_bench.py sets PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _stamp_first_compute(cli, report: dict) -> None:
    """Record when the first subcommand runner is entered."""
    def stamped(fn):
        def runner(*args, **kwargs):
            if report["first_compute"] is None:
                report["first_compute"] = time.monotonic()
            return fn(*args, **kwargs)
        return runner

    for name, fn in list(cli._RUNNERS.items()):
        cli._RUNNERS[name] = stamped(fn)


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    report = {"first_compute": None, "exit_codes": {}}
    tracer = None
    if spec["trace"]:
        import spans
        start = time.perf_counter()
        import nsprofile.cli as cli
        import_s = time.perf_counter() - start
        tracer = spans.Tracer()
        tracer.install()
    else:
        import nsprofile.cli as cli
    _stamp_first_compute(cli, report)

    for sub in spec["subcommands"]:
        argv = [sub, "--config", spec["config"], "--out", spec["out"],
                "--threads", str(spec["threads"])]
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli." + sub):
                    code = cli.main(argv)
        except Exception:  # an uncaught error fails this run, not the pass
            traceback.print_exc()
            code = None
        report["exit_codes"][sub] = code

    if tracer is not None:
        report["layers"] = tracer.metrics(import_s)
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
