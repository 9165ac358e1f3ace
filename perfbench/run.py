"""Benchmark of the spectrality pipeline: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload towers-frames --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The operations of the workload run one at a time in this process
(a closed loop with one caller), in whole rounds: a run makes one round,
and another whenever one more round of the same length still ends within
``--seconds``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
alternates an untraced and a traced round and prints the per-layer metrics.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

BLAS_THREADS = "1"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


class OpTimeout(BaseException):
    """Raised by the interval timer when an operation outlives its cap.

    A BaseException, so that the program's own ``except Exception`` blocks
    cannot swallow it.
    """


def _pin_threads() -> None:
    # must run before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _probe(dirname: str) -> int:
    """Set-up only, in a fresh process: imports, problem files, triples."""
    import workloads

    workloads.setup(dirname, 0)
    print("ready", flush=True)
    return 0


def setup_seconds(run_dir: str) -> list[float]:
    """Time from process start to ready for the first operation, per probe."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(run_dir, f"probe{i}")
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe", probe_dir],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(t1 - t0)
    return times


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_round(ops, ctx, tracer=None):
    """Run every operation once; returns [(op, seconds, cpu_seconds, output or None)]."""
    rows = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        out = None
        old = signal.signal(signal.SIGALRM, _on_alarm)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, op.cap_s)
            out = op.run(ctx)
        except OpTimeout:
            print(f"{op.name}: over its {op.cap_s} s cap", file=sys.stderr)
        except Exception as exc:  # a failed operation; the round goes on
            print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            signal.signal(signal.SIGALRM, old)
        rows.append((op, dt, dc, out))
    return rows


def judge(rows, ctx) -> tuple[int, int, bool]:
    """(operations, failed operations, all outputs of the others correct).

    Runs right after its round, before the next one overwrites the reports.
    """
    import kit

    failed, correct = 0, True
    for op, _, _, out in rows:
        try:
            ok = out is not None and op.accept(ctx, out)
        except Exception as exc:
            print(f"{op.name}: not accepted: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok = False
        if not ok:
            failed += 1
            print(f"{op.name}: failed", file=sys.stderr)
            continue
        if op.check is None:
            continue
        try:
            op.check(ctx, out)
        except kit.CheckFailed as exc:
            print(f"{op.name}: wrong output: {exc}", file=sys.stderr)
            correct = False
        except Exception as exc:
            print(f"{op.name}: check error: {type(exc).__name__}: {exc}", file=sys.stderr)
            correct = False
    return len(rows), failed, correct


def _kind_seconds(rows, kind: str) -> float:
    return sum(dt for op, dt, _, _ in rows if op.kind == kind)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    _pin_threads()
    if not os.path.isfile(os.path.join(SRC, "spectral_fractal", "__init__.py")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe:
        return _probe(args.probe)

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        ctx = workloads.setup(run_dir, args.seed)
        setup_s = statistics.median(setup_seconds(run_dir))
        ops = workloads.WORKLOADS[args.workload]()

        rounds, traced, verdicts, peak_kb = [], [], [], None
        start = last = time.perf_counter()
        # another round only if one more, as long as the last, ends in time
        while not rounds or 2 * time.perf_counter() - last - start <= args.seconds:
            last = time.perf_counter()
            rounds.append(run_round(ops, ctx))
            if peak_kb is None:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            verdicts.append(judge(rounds[-1], ctx))
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    rows = run_round(ops, ctx, tracer)
                finally:
                    tracer.uninstall()
                traced.append((rows, tracer))
                verdicts.append(judge(rows, ctx))
        attempted = sum(v[0] for v in verdicts)
        failed = sum(v[1] for v in verdicts)
        correct = all(v[2] for v in verdicts)

        if args.trace:
            metrics = trace_metrics(rounds, traced, args)
        else:
            metrics = {
                "solve_s": (statistics.median(_kind_seconds(r, "solve") for r in rounds), "s"),
                "verify_s": (statistics.median(_kind_seconds(r, "verify") for r in rounds), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def trace_metrics(rounds, traced, args) -> dict:
    """Per-layer metrics: medians over traced rounds, op times from untraced ones."""
    import tracing
    import workloads

    per_round = [tracing.layer_metrics(tr.layer_totals()) for _, tr in traced]
    metrics = {
        k: (statistics.median(m[k] for m in per_round), tracing.unit_of(k)) for k in per_round[0]
    }
    names = [op.name for ops in workloads.WORKLOADS.values() for op in ops()]
    for name in names:
        times = [dt for rows in rounds for op, dt, _, _ in rows if op.name == name]
        metrics[f"op.{name}.s"] = (statistics.median(times) if times else 0.0, "s")
    metrics["run.cpu_s"] = (statistics.median(sum(r[2] for r in rows) for rows in rounds), "s")
    plain = statistics.median(_kind_seconds(r, "solve") for r in rounds)
    with_trace = statistics.median(_kind_seconds(rows, "solve") for rows, _ in traced)
    metrics["trace.solve_s"] = (with_trace, "s")
    metrics["trace.overhead_ratio"] = (with_trace / plain - 1.0, "ratio")
    traced[-1][1].write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
