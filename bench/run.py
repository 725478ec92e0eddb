"""Benchmark of the ``puiseux`` command line, run in-process.

    python3 bench/run.py --workload fg-sessions --seed 1 --seconds 20 --trace 0

One client in one single-threaded process sends each query of a seeded
list to ``puiseux.cli.main(argv)`` with ``--output json``, the spec on
stdin and stdout captured, and waits for the answer before sending the
next (a closed loop).  Only the ``main`` call is timed; every answer is
then checked against the benchmark's own computation (``checks``).

``--trace 0`` runs whole rounds of queries until the timed calls add up to
``--seconds`` and prints the end-to-end metrics.  ``--trace 1`` runs a
fixed list, the first ``TRACE_ROUNDS`` rounds, with layer spans
(``spans``), and the same rounds untraced in a child process, round for
round in alternation; it prints the per-layer metrics, and the difference
of the two timed totals is the tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; spans and a
result summary go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 9  # set-ups per run: this process and SETUP_SAMPLES - 1 children
WARM_UP_SEED = "warm-up"
TRACE_ROUNDS = {"fg-sessions": 6, "infinite-oneshot": 10, "density-closure": 8}


def import_program():
    """Import ``puiseux`` from this checkout's ``src``, and nothing else."""
    if not (SRC / "puiseux" / "cli.py").is_file():
        raise SystemExit(f"error: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("puiseux.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "puiseux").resolve():
        raise SystemExit(f"error: imported puiseux from {cli.__file__}, not from {SRC}")
    return cli


def call(cli, query):
    """Run one query; returns (exit code or None, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(query.spec)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main([query.argv[0], "-", *query.argv[1:], "--output", "json"])
            except SystemExit as e:  # main returns its code; only argparse exits
                err.write(f"SystemExit({e.code!r})")
                code = None
            except Exception as e:  # a crash is a failed query, not a failed run
                err.write(f"{type(e).__name__}: {e}")
                code = None
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), elapsed


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.latencies: list[float] = []

    def run(self, cli, query):
        code, out, err, elapsed = call(cli, query)
        self.attempted += 1
        self.latencies.append(elapsed)
        if code not in (0, 2):
            reason = f"exit {code}: {err.strip()[-200:]}"
        elif code == 2 and not out.strip() and not err.startswith("undecided (budget)"):
            reason = f"exit 2 with neither an answer nor a budget report: {err.strip()[-200:]}"
        else:
            try:
                payload = json.loads(out) if out.strip() else None
                reason = query.check(code, payload)
            except Exception as e:  # a malformed answer fails its check
                reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append({"kind": query.kind, "argv": query.argv, "spec": query.spec, "reason": reason})


def warm_up_queries(workload):
    """One query of each kind, drawn under a seed of its own that no run
    uses, so that every set-up does the same work."""
    kinds = {}
    for q in workloads.Batch(workload, WARM_UP_SEED).round(0):
        kinds.setdefault(q.kind, q)
    return list(kinds.values())


def setup(workload):
    """Import and warm-up; returns (seconds, cli).

    Only the import of the program and the warm-up calls are timed: the
    warm-up queries grow the process-level prime table and fill the
    dense-atom entry cache.  Drawing the inputs and their reference answers
    is the benchmark's own work, done outside the timed part."""
    warm = warm_up_queries(workload)
    start = time.perf_counter()
    cli = import_program()
    for q in warm:
        call(cli, q)
    return time.perf_counter() - start, cli


def child(args, *extra):
    """Run this script again in a fresh interpreter; returns its last line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: child run failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(args, own):
    samples = [own] + [child(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    return statistics.median(samples)


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(args):
    base_rss = rss_mb()  # interpreter and benchmark modules, before the program
    own, cli = setup(args.workload)
    setup_s = setup_seconds(args, own)
    batch = workloads.Batch(args.workload, args.seed)
    tally = Tally()
    r = 0
    while True:
        queries = batch.round(r)
        gc.collect()
        for q in queries:
            tally.run(cli, q)
        r += 1
        if sum(tally.latencies) >= args.seconds:
            break
    timed = sum(tally.latencies)
    metrics = {
        "throughput_qps": (tally.attempted / timed, "queries/s"),
        "latency_p50_ms": (quantile(tally.latencies, 50) * 1e3, "ms"),
        "latency_p95_ms": (quantile(tally.latencies, 95) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {"rounds": r, "timed_s": timed, "rss_before_program_mb": base_rss}
    return tally, metrics, extra, None


def untraced_pass(args):
    """Serve the untraced half of a traced run: for each round number read
    from stdin, run that round and answer with its timed total."""
    _, cli = setup(args.workload)
    batch = workloads.Batch(args.workload, args.seed)
    for line in sys.stdin:
        queries = batch.round(int(line))
        gc.collect()
        print(json.dumps({"timed_s": sum(call(cli, q)[3] for q in queries)}), flush=True)


def measure_traced(args):
    """The first TRACE_ROUNDS rounds with spans, and the same rounds without
    them in a fresh process, round for round in alternation, so that both
    passes see the same machine."""
    from spans import Tracer

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--untraced-pass"]
    mirror = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        _, cli = setup(args.workload)
        batch = workloads.Batch(args.workload, args.seed)
        tracer = Tracer()
        tally = Tally()
        untraced_s = 0.0
        for r in range(TRACE_ROUNDS[args.workload]):
            queries = batch.round(r)
            for turn in ((0, 1) if r % 2 == 0 else (1, 0)):
                if turn == 0:
                    mirror.stdin.write(f"{r}\n")
                    mirror.stdin.flush()
                    line = mirror.stdout.readline()
                    if not line:
                        raise SystemExit("error: the untraced pass ended early")
                    untraced_s += json.loads(line)["timed_s"]
                    continue
                gc.collect()
                tracer.install()
                try:
                    for q in queries:
                        tracer.query = tally.attempted
                        tally.run(cli, q)
                finally:
                    tracer.uninstall()
    finally:
        mirror.stdin.close()
        try:
            mirror.wait(timeout=60)
        except subprocess.TimeoutExpired:
            mirror.kill()
            mirror.wait()
    traced_s = sum(tally.latencies)
    metrics = {name: (value, "ms" if name.endswith("self_ms") else "count") for name, value in tracer.per_layer().items()}
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    extra = {"queries": tally.attempted, "traced_s": traced_s, "untraced_s": untraced_s}
    return tally, metrics, extra, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload)[0]}))
        return 0
    if args.untraced_pass:
        untraced_pass(args)
        return 0

    tally, metrics, extra, tracer = (measure_traced if args.trace else measure)(args)
    result = {
        "correct": tally.failed == 0,  # no query is expected to fail
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, **extra, "failures": tally.failures}, fh, indent=1)
    for f in tally.failures[:5]:
        print(f"FAILED {f['kind']} {' '.join(f['argv'])}: {f['reason']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
