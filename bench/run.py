"""Closed-loop benchmark of the zhdd command line, one workload per process.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 45 --trace 0

Workloads: roundtrip, emit, reduce and dense (``workloads.py``);
``BENCHMARK.json`` lists the ones a change is judged on.

The run builds its input files from ``--seed`` with ``zhdd.generate`` and
``Builder`` (see ``workloads.py``), then calls ``zhdd.cli.main(argv)``
in-process, one job at a time, each job starting when the previous one
and its check are done (one client, no think time).  It runs whole rounds
of the workload until ``--seconds`` have passed.  Jobs are timed around
the ``main`` call only; every output is then checked by a referee outside
the timed region.  No extra threads are started: the BLAS pool is pinned
to one thread before numpy loads.

End-to-end metrics: ``jobs_per_s`` (completed jobs over the summed job
time), ``job_p50_ms`` and ``job_tail_ms`` over completed jobs (the tail
percentile is fixed per workload, see ``workloads.WORKLOADS``),
``ok_share`` (completed over attempted), ``output_mb`` (bytes written per
completed job), ``peak_rss_mb`` (of this process) and ``setup_s`` (process
start to ``zhdd`` imported, plus the median of three corpus builds with
warm-up).

A job *fails* on an uncaught exception (its class is recorded), an
unexpected exit code, or an output the referee rejects.  ``correct`` in
the result is false only for the last two: a wrong answer, as opposed to
a crash.  A job cut by the per-job cap counts as a ``JobTimeout`` crash.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
jobs twice, untraced for half of ``--seconds`` and then traced with the
wrappers of ``tracer.py``, and prints the per-layer metrics plus the
tracing overhead (traced over untraced time of the same job sequence).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every job's
record -- command, input height and nodes, output nodes, generators and
bytes, time, outcome -- goes to ``.bench_out/`` with the host details.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
# A job still running after this long is cut, so a run ends in bounded time
# even when a change makes some input explode.
JOB_CAP_S = 45.0
# Traced replay stops starting jobs after this much wall time.
TRACE_REPLAY_CAP_S = 90.0

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ok_share": "share",
    "output_mb": "MB",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def process_age() -> float:
    """Seconds since this process started (10 ms resolution on Linux)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T_START


def digest(path) -> str:
    if path is None:
        return ""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class JobTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise JobTimeout(f"job ran past {JOB_CAP_S:.0f} s")


class Runner:
    """Runs items, times and checks their jobs, and keeps the records."""

    def __init__(self, cli, tracer=None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.records: list[dict] = []
        # (command, input digests, output digest) -> sizes of a checked output;
        # the same output for the same input is not parsed again
        self.verified: dict[tuple, dict] = {}

    def run_item(self, item) -> None:
        upstream_failed = False
        for job in item.jobs:
            rec = {"item": item.label, "cmd": job.cmd, "argv": [os.path.basename(a)
                   for a in job.argv], "in_height": job.in_height,
                   "in_nodes": job.in_nodes, "expect": job.expect}
            self.records.append(rec)
            if upstream_failed:
                rec.update(status="fail", why="upstream job failed", seconds=0.0,
                           out_bytes=0, wrong=False)
                continue
            self._run_job(job, rec)
            upstream_failed = rec["status"] != "ok"
        for job in item.jobs:
            if job.out and os.path.exists(job.out):
                os.remove(job.out)

    def _run_job(self, job, rec: dict) -> None:
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        if tracer is not None:
            tracer.job = len(self.records) - 1
            tracer.active = True
        exc = None
        code = None
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(job.argv)
        except SystemExit as e:  # argparse rejecting the command line
            code = e.code
        except Exception as e:  # a crash is this job's result, not the run's
            exc = e
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.active = False
        stdout = out.getvalue()
        out_bytes = len(stdout.encode())
        if job.out and os.path.exists(job.out):
            out_bytes += os.path.getsize(job.out)
        rec.update(seconds=seconds, out_bytes=out_bytes, exit=code, wrong=False)
        if exc is not None:
            rec.update(status="fail", why=f"exception {type(exc).__name__}: {str(exc)[:200]}")
            return
        if code != job.expect:
            rec.update(status="fail", wrong=True,
                       why=f"exit {code}, expected {job.expect}: {err.getvalue()[:200]}")
            return
        inputs = [a for a in job.argv[1:] if a != job.out and os.path.isfile(a)]
        key = (job.argv[0], *map(digest, inputs), digest(job.out), stdout)
        try:
            sizes = self.verified.get(key)
            if sizes is None:
                sizes = self.verified[key] = job.check(stdout, job.out)
        except Exception as e:  # referee verdict, or output it cannot parse
            rec.update(status="fail", wrong=True,
                       why=f"rejected: {type(e).__name__}: {str(e)[:200]}")
            return
        rec.update(sizes, status="ok")


def run_for(runner: Runner, rounds, seconds: float) -> list[int]:
    """Run whole rounds, cycling, until ``seconds`` of wall time have passed.
    Returns the order in which rounds ran."""
    order = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        k = len(order) % len(rounds)
        for item in rounds[k]:
            runner.run_item(item)
        order.append(k)
    return order


def percentile(times: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(times)
    return s[max(math.ceil(len(s) * pct / 100) - 1, 0)]


def end_to_end(records: list[dict], setup_s: float, tail_pct: float) -> tuple[dict, str]:
    ok = [r for r in records if r["status"] == "ok"]
    busy = sum(r["seconds"] for r in records)
    times_ms = [r["seconds"] * 1e3 for r in ok] or [float("nan")]
    tail_ms = percentile(times_ms, tail_pct)
    beyond = sum(t > tail_ms for t in times_ms)
    values = {
        "jobs_per_s": len(ok) / busy if busy else 0.0,
        "job_p50_ms": statistics.median(times_ms),
        "job_tail_ms": tail_ms,
        "ok_share": len(ok) / len(records),
        "output_mb": sum(r["out_bytes"] for r in ok) / max(len(ok), 1) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return values, f"p{tail_pct:g} of {len(ok)} completed jobs, {beyond} beyond it"


def scaling(records: list[dict]) -> list[dict]:
    """Completed jobs grouped by command and input stratum: time and sizes
    side by side (and per-layer time, for traced jobs)."""
    groups: dict[tuple, list[dict]] = {}
    for r in records:
        if r["status"] == "ok":
            stratum = r["item"].split("_", 1)[-1]
            groups.setdefault((r["cmd"], r["in_height"], stratum), []).append(r)
    rows = []
    for (cmd, height, stratum), rs in sorted(groups.items()):
        row = {"cmd": cmd, "stratum": stratum, "in_height": height, "jobs": len(rs),
               "in_nodes": statistics.median(r["in_nodes"] for r in rs),
               "ms": statistics.median(r["seconds"] * 1e3 for r in rs),
               "out_bytes": statistics.median(r["out_bytes"] for r in rs)}
        for key in ("out_nodes", "out_generators", "out_steps"):
            vals = [r[key] for r in rs if key in r]
            if vals:
                row[key] = statistics.median(vals)
        traced = [r["layer_ms"] for r in rs if "layer_ms" in r]
        if traced:
            names = {name for t in traced for name in t}
            row["layer_ms"] = {name: sum(t.get(name, 0.0) for t in traced) / len(traced)
                               for name in sorted(names)}
        rows.append(row)
    return rows


def host() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "zhdd" / "__init__.py").is_file():
        print(f"no zhdd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import zhdd
    import zhdd.cli

    import workloads

    if Path(zhdd.__file__).resolve().parent != ROOT / "src" / "zhdd":
        print(f"imported zhdd from {zhdd.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imported_at = process_age()

    build, n_rounds, tail_pct = workloads.WORKLOADS[args.workload]
    wl_index = list(workloads.WORKLOADS).index(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    signal.signal(signal.SIGALRM, _on_alarm)

    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            rng = np.random.default_rng([wl_index, args.seed])
            rounds = build(rng, str(work), n_rounds)
            warm = Runner(zhdd.cli)
            for item in workloads.warmup(args.workload, rng, str(work)):
                warm.run_item(item)
            setups.append(time.perf_counter() - t0)
        setup_s = imported_at + statistics.median(setups)
        if any(r["status"] != "ok" for r in warm.records):
            print(f"warm-up failed: {warm.records}", file=sys.stderr)
            return 1

        if args.trace == 0:
            runner = Runner(zhdd.cli)
            run_for(runner, rounds, args.seconds)
            records = runner.records
            values, tail_note = end_to_end(records, setup_s, tail_pct)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            extra = {"tail": tail_note}
            spans = None
        else:
            from tracer import Tracer

            plain = Runner(zhdd.cli)
            order = run_for(plain, rounds, args.seconds / 2)
            tracer = Tracer()
            traced = Runner(zhdd.cli, tracer)
            tracer.install()
            try:
                t0 = time.perf_counter()
                for k in order:
                    if time.perf_counter() - t0 > TRACE_REPLAY_CAP_S:
                        break
                    for item in rounds[k]:
                        traced.run_item(item)
            finally:
                tracer.uninstall()
            n = len(traced.records)
            base = sum(r["seconds"] for r in plain.records[:n])
            overhead = sum(r["seconds"] for r in traced.records) / base - 1 if base else 0.0
            metrics = tracer.metrics(n)
            metrics["trace.overhead_share"] = (overhead, "share")
            records = plain.records + traced.records
            for job, layer_ms in tracer.per_job_ms().items():
                traced.records[job]["layer_ms"] = layer_ms
            extra = {"span_totals": tracer.per_span_totals()}
            spans = tracer.spans
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if r["status"] != "ok"]
    extra["scaling"] = scaling(records)
    result = {
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "why": workloads.WHY[args.workload],
                   "seed": args.seed, "seconds": args.seconds, "host": host(),
                   "threads": thread_count(), "setup_runs_s": setups, **extra,
                   "result": result, "jobs": records}, fh, indent=1)
    if spans is not None:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "job", "parent", "start_s", "end_s"],
                       "spans": spans}, fh)

    h = host()
    print(f"workload {args.workload} (seed {args.seed}): {workloads.WHY[args.workload]}")
    print(f"host: {h['nproc']} cpus, Python {h['python']}, numpy {h['numpy']}, "
          f"{thread_count()} thread(s)")
    for k, (v, u) in metrics.items():
        note = f"  ({extra['tail']})" if k == "job_tail_ms" else ""
        print(f"  {k:40s} {v:14.6g} {u}{note}")
    for row in extra["scaling"]:
        sizes = ", ".join(f"{k[4:]} {row[k]:g}" for k in ("out_nodes", "out_generators",
                                                           "out_steps") if k in row)
        print(f"  scaling {row['cmd']:12s} {row['stratum']:10s} nodes {row['in_nodes']:<6g}"
              f" {row['jobs']:4d} jobs {row['ms']:10.1f} ms {row['out_bytes'] / 1e6:8.3f} MB"
              f"{', ' + sizes if sizes else ''}")
    causes: dict[str, int] = {}
    for r in failed:
        key = f"{r['cmd']} {r['item'].split('_', 1)[-1]}: {r['why'].split(':')[0]}"
        causes[key] = causes.get(key, 0) + 1
    for cause, count in sorted(causes.items()):
        print(f"  failed x{count}: {cause}")
    print(f"  records: {stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
