"""Benchmark of the fusionframes command line and library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {fixtures,enum,large-n,all} --seed N --seconds S --trace {0,1}

A run is a closed loop with one client: the workload's fixed op list (one
pass) runs op after op, back to back, in this fresh process, and passes
repeat until ``--seconds`` have gone by; only complete passes count. Ops are
in-process ``fusionframes.cli.main(argv)`` calls with stdout captured (see
workloads.py). Every op's output is checked by check.py; a failed op is one
whose exit status differs from the expected one or whose output is wrong.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same ops
with spans around every public fusionframes function (spans.py), in passes
that alternate with untraced ones, and prints the per-layer metrics. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs each
workload in its own process and ends with one JSON object per workload.
Run records and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

import workloads  # noqa: E402
from check import Checker  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402


def _import_program():
    """Import fusionframes from this checkout's src/, never from an installed copy."""
    if not (SRC / "fusionframes" / "cli.py").is_file():
        raise SystemExit(f"error: no fusionframes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fusionframes
    import fusionframes.cli
    import fusionframes.discrete
    import fusionframes.erasures

    if not Path(fusionframes.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: fusionframes imported from {fusionframes.__file__}, not {SRC}")
    return fusionframes


def _blas_threads() -> int | None:
    import numpy

    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


class SetupProbes:
    """Set-up time: in a fresh process, import fusionframes and its cli and parse every document.

    Probes are spread over the measured run, between ops, so that their
    median samples the machine at many moments rather than one.
    """

    def __init__(self, docs: list[str], seconds: float):
        self.docs = docs
        self.interval = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.last = time.perf_counter()

    def probe(self) -> None:
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *self.docs],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        self.times.append(float(done.stdout.strip().splitlines()[-1]))
        self.last = time.perf_counter()

    def maybe_probe(self) -> None:
        if len(self.times) < SETUP_PROBES and time.perf_counter() - self.last >= self.interval:
            self.probe()

    def seconds(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


class Runner:
    def __init__(self, package, checker, tracer=None):
        self.cli = package.cli
        self.discrete = package.discrete
        self.erasures = package.erasures
        self.checker = checker
        self.tracer = tracer
        self.op_id = 0

    def execute(self, op):
        """Run one op; returns (seconds, exit status, stdout, stderr, discrete report)."""
        out, err = io.StringIO(), io.StringIO()
        report = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if op.argv is not None:
                    code = self.cli.main(list(op.argv))
                else:
                    code, report = 0, self._discrete_worst_case(op)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
        return elapsed, code, out.getvalue(), err.getvalue(), report

    def _discrete_worst_case(self, op) -> dict:
        """The library route to discrete enumeration: parse, bridge, compact, canonical dual."""
        doc = self.cli.parse_document(op.doc)
        bridged = self.discrete.bridge_fusion_to_discrete(doc.frame, doc.basis, "canonical_weighted", doc.tol)
        compacted, _ = self.discrete.compact_nonzero(bridged, doc.tol)
        dual = self.discrete.discrete_canonical_dual(compacted, doc.tol)
        report = self.erasures.discrete_worst_case(compacted, dual, op.params["r"], op.params["norm"], doc.tol)
        return {
            "count": compacted.count,
            "worst_value": report.worst_value,
            "argmax_subsets": [list(s) for s in report.argmax_subsets],
        }

    def run_pass(self, ops, between_ops=None) -> tuple[float, list[float], int]:
        """One pass of the op list: (total latency, op latencies, failed ops)."""
        latencies, failed = [], 0
        for op in ops:
            if self.tracer is not None:
                self.tracer.op_id = self.op_id
            self.op_id += 1
            elapsed, code, out, err, report = self.execute(op)
            latencies.append(elapsed)
            failed += not self.checker.check(op, code, out, err, report)
            if between_ops is not None:
                between_ops()
        return sum(latencies), latencies, failed


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, workload, seconds: float) -> tuple[dict, int, int, dict, dict]:
    walls, latencies, failed = [], [], 0
    setup = SetupProbes(workload.docs, seconds)
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        wall, lat, bad = runner.run_pass(workload.ops, setup.maybe_probe)
        walls.append(wall)
        latencies += lat
        failed += bad
    metrics = {
        "setup_s": _metric(setup.seconds(), "s"),
        "wall_s": _metric(statistics.median(walls), "s"),
        "op_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": _metric(_percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"passes": len(walls), "ops": len(latencies), "ops_per_pass": len(workload.ops)}
    samples = {"pass_walls": walls, "latencies": latencies, "setup_s": setup.times}
    return metrics, len(latencies), failed, info, samples


def measure_traced(runner: Runner, workload, seconds: float, spans_path: Path) -> tuple[dict, int, int, dict, dict]:
    tracer = runner.tracer
    plain, traced, attempted, failed = [], [], 0, 0
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        use_trace = len(plain) > len(traced)
        if use_trace:
            tracer.install()
        try:
            wall, lat, bad = runner.run_pass(workload.ops)
        finally:
            tracer.uninstall()
        (traced if use_trace else plain).append(wall)
        attempted += len(lat)
        failed += bad
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    traced_ops = len(traced) * len(workload.ops)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = layer_metrics(spec, tracer.totals(), len(traced), traced_ops, overhead)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    info = {"passes": len(plain) + len(traced), "traced_passes": len(traced), "ops": attempted,
            "spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, attempted, failed, info, {"plain_walls": plain, "traced_walls": traced}


def run_workload(args) -> int:
    package = _import_program()

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"docs-{args.workload}-") as tmp:
        workload = workloads.build(args.workload, ROOT, Path(tmp), args.seed, args.tiny)
        checker = Checker(use_expected=args.workload == "fixtures")
        runner = Runner(package, checker, Tracer() if args.trace else None)
        # untimed warm-up: first-call costs, the cold start of large SVDs
        for op in workload.warmup:
            runner.execute(op)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            metrics, attempted, failed, info, samples = measure_traced(runner, workload, args.seconds, spans_path)
        else:
            metrics, attempted, failed, info, samples = measure(runner, workload, args.seconds)

    env = environment(args.seed)
    info.update(failed_frac=failed / attempted, workload=args.workload, seconds=args.seconds, trace=args.trace)
    record = {"environment": env, "run": info, "metrics": metrics, "problems": checker.problems[:50],
              "samples": samples}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        print(f"== {name}")
        print(done.stdout, end="")
        if done.returncode != 0 or not done.stdout.strip():
            status = 1
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
