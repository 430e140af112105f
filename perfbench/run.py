"""The nmqem benchmark.

    python3 perfbench/run.py --workload {forward,kernel,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; nmqem is imported from its ``src``.  One run:

1. writes the workload's seeded inputs (cli only) under perfbench/out/tmp;
2. with --trace 0, measures setup_s: a fresh interpreter imports nmqem (and
   nmqem.cli for cli) and finishes the workload's first op, several times,
   one child at a time; the median is reported;
3. runs whole rounds of ops (workloads.py) as a closed loop with one caller
   until --seconds have passed, timing each call from outside;
4. checks every op against an independent oracle (oracle.py), outside the
   timed calls;
5. prints every metric with its unit, names each failed op, and ends with one
   JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same loop
untraced, then traced (tracing.py), and reports the per-layer metrics and
trace.overhead.  `--workload all` runs each workload in its own process and
prints one table.  Reports and span files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Modules of this directory.  None imports nmqem except ops, which is
# imported only once import_nmqem() has put the checkout's src on the path.
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import NOMINAL_S, probe  # noqa: E402

# Set-up children per run, after one uncounted child that only imports (and
# so writes the bytecode caches).
SETUP_RUNS = 7
# The tail latency needs ten samples beyond it.
MIN_OPS = 11
# Seconds of loop time between two speed probes (probe.py).
PROBE_EVERY_S = 0.2
# A run's wall time is capped at this many times --seconds.
WALL_CAP = 2
# Bounds the oracle's work once the program gets fast: the loop also stops at
# the first round boundary past this many ops.
MAX_OPS = {"forward": 2000, "kernel": 600, "cli": 2000}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
}
# Reported next to the end-to-end metrics, but not gated: both can be 0.
REPORTED = {"fail_ratio": "ratio", "max_abs_err": "abs"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_nmqem():
    if not (SRC / "nmqem" / "__init__.py").is_file():
        fail(f"no nmqem sources under {SRC}; run from the root of an nmqem checkout")
    sys.path.insert(0, str(SRC))
    import nmqem
    import nmqem.cli  # noqa: F401  (so the traced run can wrap cli.main)

    if Path(nmqem.__file__).resolve().parent != (SRC / "nmqem").resolve():
        fail(f"imported nmqem from {nmqem.__file__}, not from {SRC}")
    return nmqem


def metadata() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sources = sorted((SRC / "nmqem").glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {
        "cpu": cpu or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "src_loc": loc,
    }


def _commit() -> str:
    # Read .git directly: the benchmark reads only inside its checkout, and
    # an exported checkout may have no .git at all.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# ------------------------------------------------------------------ set-up


def measure_setup(workload: str, seed: int) -> list:
    """setup_s samples from fresh interpreters, started one at a time, as
    (raw, scaled) pairs.  Each child scales by its own probe, run right after
    its timed part: a probe here, just after waiting on the child, runs on a
    cold core and reads slow."""
    op = json.dumps(workloads.setup_op(workload, seed))
    samples = []
    for i in range(SETUP_RUNS + 1):
        argv = [sys.executable, str(HERE / "setup_child.py"), workload, op if i else "import-only", str(SRC)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up child failed:\n{proc.stderr}")
        if i:
            elapsed, speed = map(float, proc.stdout.split())
            samples.append((elapsed, elapsed * NOMINAL_S / speed))
    return samples


# ------------------------------------------------------------- timed loop


class Escaped:
    """An exception that escaped a forward or kernel call."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def timed_loop(workload: str, rounds, seconds: float, tracer=None) -> list:
    """Run whole rounds until the ops have taken `seconds`.

    Returns (op, result, raw seconds, scaled seconds) per op.  The loop
    probes the machine's speed at least every PROBE_EVERY_S, between ops and
    outside their timed calls; an op is scaled by the mean of the probes on
    either side of it.  The stop test counts scaled op time, so a busy
    machine lengthens the run instead of cutting rounds from it, up to
    WALL_CAP times `seconds` of wall time."""
    import ops

    runner = ops.RUNNERS[workload]
    clock = time.perf_counter
    timed = []  # (op, result, raw seconds, index of the probe before it)
    probes = [probe(workload)]
    last_probe = start = clock()
    scaled = 0.0  # loop time so far at the probe's nominal speed
    for round_ops in rounds:
        for op in round_ops:
            if tracer is not None:
                tracer.op = len(timed)
            t0 = clock()
            try:
                res = runner(op)
            except Exception as exc:  # a failed op; the loop goes on
                res = Escaped(exc)
            elapsed = clock() - t0
            timed.append((op, res, elapsed, len(probes) - 1))
            scaled += elapsed * NOMINAL_S / probes[-1]
            if workload == "cli":
                ops.collect_cli_file(op, res)
            if clock() - last_probe >= PROBE_EVERY_S:
                probes.append(probe(workload))
                last_probe = clock()
        enough = scaled >= seconds or clock() - start >= WALL_CAP * seconds
        if len(timed) >= MAX_OPS[workload] or (enough and len(timed) >= MIN_OPS):
            break
    probes.append(probe(workload))
    return [(op, res, e, e * 2 * NOMINAL_S / (probes[i] + probes[i + 1])) for op, res, e, i in timed]


def check(workload: str, done: list):
    """Oracle verdicts; returns (failures, max_abs_err, unexpected)."""
    failures = {}
    max_err = 0.0
    unexpected = 0
    for op, res, *_ in done:
        if isinstance(res, Escaped):
            verdict = oracle.Verdict()
            verdict.require(f"exception escaped: {res.text}", False)
        else:
            try:
                verdict = oracle.CHECKS[workload](op, res)
            except Exception as exc:  # a result the oracle cannot read fails the op
                verdict = oracle.Verdict()
                verdict.require(f"unreadable result: {type(exc).__name__}: {exc}", False)
        max_err = max(max_err, verdict.max_err)
        if not verdict.ok:
            name = oracle.describe(workload, op)
            entry = failures.setdefault(name, {"count": 0, "reason": verdict.reasons[0], "known": verdict.known})
            entry["count"] += 1
            unexpected += verdict.known is None
    return failures, max_err, unexpected


def latency_metrics(done: list, scaled: bool = True) -> dict:
    lat = sorted(d[3] if scaled else d[2] for d in done)
    n = len(lat)
    k = n - 11  # the sample with exactly ten beyond it
    return {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[k],
        "op_tail_pct": 100.0 * (k + 1) / n,
        "samples": n,
    }


# -------------------------------------------------------------------- run


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_nmqem()
    tmp = ROOT / workloads.CLI_TMP
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if workload == "cli":
            workloads.write_cli_inputs(ROOT, seed)
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
        report["metadata"] = metadata()
        if not trace:
            report["setup_samples_s"] = measure_setup(workload, seed)

        import ops

        ops.RUNNERS[workload](workloads.setup_op(workload, seed))  # warm-up, untimed
        rounds = workloads.ROUNDS[workload](seed)
        done = timed_loop(workload, rounds, seconds)
        lat = latency_metrics(done)
        all_done = done
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = timed_loop(workload, rounds, seconds, tracer)
            finally:
                tracer.uninstall()
            traced_lat = latency_metrics(traced)
            metrics = tracer.metrics(len(traced), sum(d[2] for d in traced))
            metrics["trace.overhead"] = traced_lat["ops_per_s"] / lat["ops_per_s"]
            units = tracing.metric_units()
            spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
            tracer.write(spans_path)
            report["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)}
            all_done = done + traced
        else:
            metrics = {k: lat[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
            metrics["setup_s"] = statistics.median(scaled for _, scaled in report["setup_samples_s"])
            units = END_TO_END
            raw = latency_metrics(done, scaled=False)
            report["unscaled"] = {k: raw[k] for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
            report["unscaled"]["setup_s"] = statistics.median(r for r, _ in report["setup_samples_s"])
        failures, max_err, unexpected = check(workload, all_done)
        failed = sum(f["count"] for f in failures.values())
        report.update(
            attempted=len(all_done),
            failed=failed,
            fail_ratio=failed / len(all_done),
            max_abs_err=max_err,
            op_tail_pct=lat["op_tail_pct"],
            samples=lat["samples"],
            correct=unexpected == 0,
            failures=failures,
            metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        )
        report["latencies_ms"] = [[_label(workload, d[0]), 1e3 * d[2], 1e3 * d[3]] for d in done]
        if workload == "forward":
            report["ops_warned"] = sum(1 for _, res, *_ in all_done if isinstance(res, dict) and res["warned"])
        return report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _label(workload: str, op: dict) -> str:
    if workload == "forward":
        return op["gate"]
    if workload == "kernel":
        return f"{op['mode']} u={op['u']:.3f}"
    return op["kind"]


def print_report(report: dict) -> None:
    print(f"# nmqem perfbench: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print(f"# metadata: {json.dumps(report['metadata'], sort_keys=True)}")
    for name, m in report["metrics"].items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':<48} {report['fail_ratio']:>14.6g} ratio  "
          f"({report['failed']} of {report['attempted']} ops)")
    print(f"{'max_abs_err':<48} {report['max_abs_err']:>14.6g} abs")
    print(f"# op_tail_ms is the p{report['op_tail_pct']:.1f} latency: 10 of {report['samples']} samples beyond it")
    if "unscaled" in report:
        print("# times are scaled to a probe time of %g s (probe.py); unscaled wall time: %s"
              % (NOMINAL_S, ", ".join(f"{k}={v:.6g}" for k, v in report["unscaled"].items())))
    if "ops_warned" in report:
        print(f"# ops that raised recovery_numeric's ill-conditioning warning: {report['ops_warned']}")
    for name, f in sorted(report["failures"].items()):
        tag = f"known defect ({f['known']})" if f["known"] else "FAILED"
        print(f"# {tag} x{f['count']}: {name}: {f['reason']}")


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Each workload in its own process; then one table of every metric."""
    rows = []
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, text=True, capture_output=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode)
        rows.append((workload, json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())))
    print("# summary")
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':<48} " + " ".join(f"{w:>12}" for w, _ in rows) + "  unit")
    for name in names:
        unit = rows[0][1]["metrics"][name]["unit"]
        print(f"{name:<48} " + " ".join(f"{r['metrics'][name]['value']:>12.6g}" for _, r in rows) + f"  {unit}")
    for name, unit in REPORTED.items():
        print(f"{name:<48} " + " ".join(f"{r[name]:>12.6g}" for _, r in rows) + f"  {unit}")


def main() -> None:
    parser = argparse.ArgumentParser(description="nmqem benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
        return
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
