"""nsprofile benchmark: time to a verdict of the CLI pipeline at pinned accuracy.

    python3 bench/run_bench.py --workload verdicts-n2 --seed 0 --seconds 55 --trace 0
    python3 bench/run_bench.py --workload all --seed 0 --seconds 55 --trace 0

Load is a closed loop from this process: one pass at a time, each pass a
fresh ``python3 bench/passrun.py`` process that runs the workload's
subcommands through ``nsprofile.cli.main``.  Passes start while the
``--seconds`` window has room for another one (at least one pass runs).
Every subcommand run goes through the correctness gate (``gate.py``).

``--trace 0`` reports the end-to-end metrics, the median over passes:
wall_s (launch to exit), setup_s (launch until the first subcommand starts
computing), cpu_s (user + sys), peak_rss_mb and pass_ratio (gated runs that
passed / runs attempted).  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of ``spans.py``, the median over
traced passes, plus trace.overhead_s (traced minus untraced median wall).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
``{"detail": ...}`` object with every sample and the machine, which
``summarize.py`` reads.  The workload seed reaches the program only through
the generated config (``oracle.seed``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from gate import check_run
from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORK = ROOT / ".bench_work"

REL_TOL = 1e-6  # the quadrature accuracy every verdict is timed at (the default)
RUN_LIMIT_S = 160.0  # a pass still running this long after a run starts is killed
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

VERDICTS = ("profile-error", "density-profile-error", "rate", "sandwich", "lemma31",
            "highfreq", "bounds")
SUBCOMMANDS = ("oracle-check",) + VERDICTS


@dataclass(frozen=True)
class Workload:
    dim: int
    threads: int
    subcommands: tuple[str, ...]


WORKLOADS = {
    "verdicts-n2": Workload(dim=2, threads=1, subcommands=SUBCOMMANDS),
    "verdicts-n3-t2": Workload(dim=3, threads=2, subcommands=VERDICTS),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "pass_ratio": "ratio"}
PER_LAYER = {**LAYER_METRICS, **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
             "trace.overhead_s": "s"}


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "thread_pins": THREAD_PINS}


def make_config(workload: Workload, seed: int) -> dict:
    return {"params": {"n": workload.dim}, "quadrature": {"rel_tol": REL_TOL},
            "oracle": {"seed": seed % 2**32}, "emit_svg": True}


def pass_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env.pop("NSPROFILE_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # installed users load cached bytecode
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_pass(workload: Workload, config: Path, out: Path, trace: bool,
             kill_at: float) -> dict:
    """Run one pass process; returns its timings, usage and report."""
    out.mkdir(parents=True)
    spec = {"subcommands": list(workload.subcommands), "config": str(config),
            "out": str(out), "threads": workload.threads, "trace": trace,
            "report": str(out / "report.json")}
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH / "passrun.py"), str(spec_path)],
                                stdout=so, stderr=se, env=pass_env(), cwd=out)
        timer = threading.Timer(max(1.0, kill_at - launch), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        end = time.monotonic()
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError):
        report = {"first_compute": None, "exit_codes": {}}
    first = report["first_compute"]
    return {"wall_s": end - launch,
            "setup_s": None if first is None else first - launch,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            "exit_codes": report["exit_codes"], "layers": report.get("layers")}


def gate_pass(name: str, workload: Workload, result: dict, out: Path) -> dict:
    """Problems of each subcommand run of a pass; an empty list means correct."""
    return {sub: check_run(sub, result["exit_codes"].get(sub), out, REFERENCE / name,
                           REL_TOL)
            for sub in workload.subcommands}


def summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Closed-loop passes for ``seconds``; returns the passes and run counts."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(make_config(workload, seed)))
        # fill the bytecode and file caches untimed; users do not pay them per run
        subprocess.run([sys.executable, "-c", "import nsprofile.cli"], env=pass_env(),
                       check=True, timeout=RUN_LIMIT_S)
        start = time.monotonic()
        kill_at = start + RUN_LIMIT_S
        passes, attempted, failed = [], 0, 0
        while True:
            traced = trace and len(passes) % 2 == 1
            out = work / f"pass-{len(passes)}"
            result = run_pass(workload, config, out, traced, kill_at)
            result["traced"] = traced
            problems = [p for found in gate_pass(name, workload, result, out).values()
                        for p in found[:1]]
            attempted += len(workload.subcommands)
            failed += len(problems)
            if problems:
                sys.stderr.write("\n".join(problems) + "\n")
                sys.stderr.write((out / "stderr.txt").read_text()[-2000:])
            shutil.rmtree(out)
            passes.append(result)
            typical = statistics.median(p["wall_s"] for p in passes)
            need_more = trace and len(passes) < 2
            if not need_more and time.monotonic() + 0.5 * typical > start + seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return {"passes": passes, "attempted": attempted, "failed": failed}


def end_to_end_samples(run: dict) -> dict[str, list[float]]:
    untraced = [p for p in run["passes"] if not p["traced"]]
    samples = {key: [p[key] for p in untraced if p[key] is not None]
               for key in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
    samples["pass_ratio"] = [(run["attempted"] - run["failed"]) / run["attempted"]]
    return samples


def per_layer_samples(run: dict) -> dict[str, list[float]]:
    traced = [p for p in run["passes"] if p["traced"] and p["layers"]]
    samples = {key: [p["layers"].get(key, 0.0) for p in traced] for key in PER_LAYER
               if key != "trace.overhead_s"}
    plain = [p["wall_s"] for p in run["passes"] if not p["traced"]]
    if traced and plain:
        samples["trace.overhead_s"] = [
            statistics.median(p["wall_s"] for p in traced) - statistics.median(plain)]
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "nsprofile" / "cli.py", *(REFERENCE / w for w in WORKLOADS))
               if not p.exists()]
    if missing:
        sys.stderr.write(f"benchmark needs the nsprofile sources; missing {missing}\n")
        return 2

    machine = machine_info()
    print(f"machine: {json.dumps(machine)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        samples = (per_layer_samples(run) if args.trace
                   else end_to_end_samples(run))
        stats = {key: summary(values) for key, values in samples.items() if values}
        print(f"workload {name}: seed {args.seed}, {len(run['passes'])} passes, "
              f"{run['attempted']} subcommand runs, {run['failed']} failed")
        print(f"  {'metric':44s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}  n")
        for key, s in stats.items():
            print(f"  {key:44s} {units[key]:6s} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g}  {s['n']}")
        prefix = f"{name}." if args.workload == "all" else ""
        for key in units:
            if key not in stats:
                raise SystemExit(f"no samples of {key} on {name}")
            result["metrics"][prefix + key] = {"value": stats[key]["median"],
                                               "unit": units[key]}
        result["attempted"] += run["attempted"]
        result["failed"] += run["failed"]
        print(json.dumps({"detail": {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine, "passes": len(run["passes"]),
            "attempted": run["attempted"], "failed": run["failed"], "samples": samples}}))
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
