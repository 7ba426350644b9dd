"""The symmline benchmark: one seeded workload, every metric by name.

    python3 perfbench/run.py --workload norm-grid --seed 1 --seconds 26 --trace 0

Run from the root of a source tree (it imports src/symmline).  The load
is one client in a closed loop: a single process and thread runs the
workload's ops one after another, each starting when the previous one
ends.  Every output is checked against an independent route (oracle.py)
computed here, outside the measured processes.

--trace 0 prints the end-to-end metrics, from untraced processes
(README.md says why timings take each op at the third quartile of its
runs):
  setup_s            fresh interpreter until symmline is imported and the
                     inputs are built; median over the measured processes
  cold_pass_s        op time of the first pass in a fresh process (cold
                     caches), each op at its third quartile over the
                     processes
  throughput_ops_s   verified ops per second of op time over the warm
                     passes, each op at its third quartile
  latency_p50_ms     median over the ops of each op's third-quartile
                     warm latency
  latency_tail_ms    all warm op latencies at the highest percentile with
                     at least ten samples beyond it
  verified_ops_frac  1 - failed_ops_frac, over every process; the
                     benchmark contract forbids a metric that reads 0
  peak_rss_mb        peak resident memory of a process that ran warm
                     passes, median over them
--trace 1 prints the per-layer metrics (LAYER_METRICS) from one process
that wraps the library's public functions (tracer.py).

The last line of output is one JSON object {correct, attempted, failed,
metrics}; the full record, with metadata, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

DEADLINE = 170.0  # seconds a whole run may take before workers are killed

# (name, unit, where the value comes from) for --trace 1.  Counts are for
# the traced cold pass and repeat exactly for a seed; *_ms values are per
# warm traced pass (median); self time excludes time in child spans.
LAYER_METRICS = (
    ("parsing.calls", "count/pass", ("calls_prefix", "parsing.")),
    ("parsing.self_ms", "ms/pass", ("self", "parsing")),
    ("cli.build_parser_ms", "ms/pass", ("incl", "cli.build_parser")),
    ("cli.self_ms", "ms/pass", ("self", "cli")),
    ("rings.value_ops", "count/pass", ("counter", "rings.value_ops")),
    ("rings.ring_eq_calls", "count/pass", ("counter", "rings.ring_eq_calls")),
    ("poly.divmod_calls", "count/pass", ("calls", "poly.poly_divmod")),
    ("poly.self_ms", "ms/pass", ("self", "poly")),
    ("matrices.char_poly_calls", "count/pass", ("calls", "matrices.char_poly")),
    ("matrices.char_poly_ms", "ms/pass", ("incl", "matrices.char_poly")),
    ("matrices.mult_matrix_ms", "ms/pass", ("incl", "matrices.mult_matrix")),
    ("matrices.berkowitz_work", "count/pass", ("counter", "matrices.berkowitz_work")),
    ("symbasis.sym_ops_reps_ms", "ms/pass", ("incl", "_symbasis.sym_ops_reps")),
    ("symbasis.decompose_rep_ms", "ms/pass", ("incl", "_symbasis.decompose_rep")),
    ("symbasis.diagonal_rep_ms", "ms/pass", ("incl", "_symbasis.diagonal_rep")),
    ("symbasis.elem_cache_misses", "count/pass", ("cold", "elem_cache_misses")),
    ("symbasis.elem_cache_entries", "count", ("cold", "elem_cache_entries")),
    ("symmetric.self_ms", "ms/pass", ("self", "symmetric")),
    ("symmetric.sympoly1_ms", "ms/pass", ("incl", "symmetric.SymPoly1")),
    ("multipoly.self_ms", "ms/pass", ("self", "multipoly")),
    ("norms.norm_calls", "count/pass", ("calls", "norms.norm")),
    ("norms.self_ms", "ms/pass", ("self", "norms")),
    ("quotients.census_candidates", "count/pass",
     ("counter", "quotients.census_candidates")),
    ("quotients.census_admissible", "count/pass",
     ("counter", "quotients.census_admissible")),
    ("quotients.is_free_quotient_ms", "ms/pass",
     ("incl", "quotients.is_free_quotient")),
    ("oracles.self_ms", "ms/pass", ("self", "oracles")),
    ("homs.self_ms", "ms/pass", ("self", "homs")),
)

# per-layer metrics that must not read zero on a workload they should move
MUST_MOVE = {
    "norm-grid": (
        "rings.value_ops", "rings.ring_eq_calls", "matrices.char_poly_calls",
        "matrices.char_poly_ms", "matrices.mult_matrix_ms",
        "matrices.berkowitz_work",
    ),
    "symmetric-route": (
        "symbasis.sym_ops_reps_ms", "symbasis.decompose_rep_ms",
        "symbasis.diagonal_rep_ms", "symbasis.elem_cache_misses",
        "symbasis.elem_cache_entries", "symmetric.self_ms",
        "symmetric.sympoly1_ms",
    ),
    "census": (
        "rings.value_ops", "rings.ring_eq_calls", "poly.divmod_calls",
        "poly.self_ms", "matrices.char_poly_calls", "matrices.char_poly_ms",
        "matrices.mult_matrix_ms", "matrices.berkowitz_work",
        "quotients.census_candidates", "quotients.census_admissible",
        "quotients.is_free_quotient_ms",
    ),
    "cli-mix": (
        "parsing.calls", "parsing.self_ms", "cli.build_parser_ms",
        "cli.self_ms", "multipoly.self_ms", "oracles.self_ms", "homs.self_ms",
    ),
}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("SYMMLINE_THREADS", None)  # count_points runs with workers=1
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, mode, seconds=0.0, spans=None):
    """Start a worker; return (seconds until READY, its report)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(seconds)]
    if args.tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", str(spans)]
    started = time.perf_counter()
    # unbuffered, so that reading the READY line reads nothing past it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, bufsize=0)
    try:
        if not select.select([proc.stdout], [], [], args.deadline - started)[0]:
            raise BenchError(f"{mode} worker timed out")
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        out, _ = proc.communicate(timeout=args.deadline - time.perf_counter())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != b"READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed with status {proc.returncode}")
    return setup, json.loads(out.decode().strip().splitlines()[-1])


class Tally:
    """Failures against attempts, with each op's oracle verdict."""

    def __init__(self, ops, expected):
        self.labels = [op.label for op in ops]
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def wrong_ops(self, outputs):
        return {i for i, (o, e) in enumerate(zip(outputs, self.expected)) if o != e}

    def add(self, passes, wrong):
        """Count passes; an op the oracle rejected fails in every pass."""
        for p in passes:
            self.attempted += len(p["lat"])
            self.failed += len(wrong | set(p["bad"]))


def op_samples(passes, wrong=frozenset()):
    """Each verified op's latencies in ms over the passes, fastest first."""
    per_op = {}
    for p in passes:
        bad = wrong | set(p["bad"])
        for i, ms in enumerate(p["lat"]):
            if i not in bad:
                per_op.setdefault(i, []).append(ms)
    return [sorted(v) for v in per_op.values()]


def q3(samples):
    """The third quartile of one op's latencies (README.md says why)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def pass_ms(samples):
    """Op time of one pass: each op at its third quartile."""
    return sum(q3(s) for s in samples)


def rate(passes, wrong=frozenset()):
    """Verified ops per second of op time, each op at its third quartile."""
    samples = op_samples(passes, wrong)
    return len(samples) / (pass_ms(samples) / 1000.0) if samples else 0.0


def tail(samples):
    """(value, percentile): the sample with exactly ten beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(args, tally, record):
    """Fresh processes one after another for --seconds, each running a
    cold pass and then one warm pass, so that cold and warm samples are
    interleaved over the whole run.  Every timing takes each op at its
    third quartile; see README.md."""
    setups, colds, warm, rss, digests, failed_ops = [], [], [], [], set(), set()
    stop = time.perf_counter() + args.seconds
    while not setups or time.perf_counter() < stop:
        setup, rep = spawn(args, "run")
        setups.append(setup)
        wrong = tally.wrong_ops(rep["outputs"])
        passes = [rep["cold"]] + rep["warm"]
        tally.add(passes, wrong)
        cold, *hot = [dict(p, bad=sorted(wrong | set(p["bad"]))) for p in passes]
        colds.append(cold)
        warm += hot
        rss.append(rep["rss_mb"])
        digests.add(digest(rep["outputs"]))
        failed_ops |= wrong
    samples = op_samples(warm)
    if not samples:
        raise BenchError("no verified warm operation")
    tail_ms, tail_pct = tail([ms for s in samples for ms in s])
    cold_samples = op_samples(colds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_pass_s": (pass_ms(cold_samples) / 1000.0, "s"),
        "throughput_ops_s": (rate(warm), "1/s"),
        "latency_p50_ms": (statistics.median(q3(s) for s in samples), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "verified_ops_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    record.update(
        setup_samples=setups,
        processes=len(setups),
        cold_pass_ms=[sum(c["lat"]) for c in colds],
        warm_passes=len(warm),
        warm_op_ms=samples,
        cold_op_ms=cold_samples,
        latency_samples=sum(len(s) for s in samples),
        latency_tail_percentile=tail_pct,
        failed_ops=[tally.labels[i] for i in sorted(failed_ops)],
        digests=sorted(digests),
    )
    correct = tally.failed == 0 and len(digests) == 1
    return metrics, correct


def per_layer(args, tally, record):
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    _, rep = spawn(args, "trace", args.seconds, spans)
    wrong = tally.wrong_ops(rep["outputs"])
    tally.add([rep["cold"]] + rep["untraced"] + rep["traced"], wrong)
    cold = rep["cold"]
    layers = rep["layers"]

    def value(kind, key):
        if kind == "counter":
            return cold["counters"].get(key, 0)
        if kind == "calls":
            return cold["calls"].get(key, 0)
        if kind == "calls_prefix":
            return sum(v for k, v in cold["calls"].items() if k.startswith(key))
        if kind == "cold":
            return cold[key]
        field = "self_ms" if kind == "self" else "incl_ms"
        return statistics.median(p[field].get(key, 0.0) for p in layers)

    metrics = {name: (value(*src), unit) for name, unit, src in LAYER_METRICS}
    untraced = rate(rep["untraced"], wrong)
    traced = rate(rep["traced"], wrong)
    metrics["trace.untraced_ops_s"] = (untraced, "1/s")
    metrics["trace.traced_ops_s"] = (traced, "1/s")
    metrics["trace.overhead_ratio"] = (untraced / traced if traced else 0.0, "ratio")
    zero = [m for m in MUST_MOVE[args.workload] if not metrics[m][0]]
    traced_digest = digest(rep["outputs"])
    record.update(
        spans_file=str(spans.relative_to(ROOT)),
        spans=cold["spans"],
        traced_passes=len(rep["traced"]),
        untraced_passes=len(rep["untraced"]),
        digests=sorted({traced_digest, rep["untraced_digest"]}),
        zero_layer_metrics=zero,
        failed_ops=[tally.labels[i] for i in sorted(wrong)],
    )
    for m in zero:
        print(f"error: per-layer metric {m} reads zero on {args.workload}")
    correct = (tally.failed == 0 and not zero
               and traced_digest == rep["untraced_digest"])
    return metrics, correct


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("norm-grid", "symmetric-route", "census", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.deadline = time.perf_counter() + DEADLINE

    if not (ROOT / "src" / "symmline" / "__init__.py").is_file():
        print(f"error: no src/symmline under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import oracle
    import workloads

    ops = workloads.build(args.workload, args.seed, args.tiny)
    started = time.perf_counter()
    expected = oracle.expected(ops, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "ops_per_pass": len(ops),
        "oracle_s": time.perf_counter() - started,
        "expected_digest": digest(expected),
    }
    try:
        measure = per_layer if args.trace else end_to_end
        tally = Tally(ops, expected)
        metrics, correct = measure(args, tally, record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(attempted=tally.attempted, failed=tally.failed,
                  failed_ops_frac=tally.failed / tally.attempted,
                  correct=correct,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    report(record)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


def report(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"ops/pass {record['ops_per_pass']}  python {record['python']}  "
          f"nproc {record['nproc']}  commit {record['commit']}")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if "latency_samples" in record:
        print(f"  latency_tail_ms is p{record['latency_tail_percentile']:.2f} of "
              f"{record['latency_samples']} samples over {record['warm_passes']} "
              f"warm passes")
    print(f"  failed_ops_frac {record['failed_ops_frac']:.6g} "
          f"({record['failed']} of {record['attempted']})"
          + (f"; failed ops: {record['failed_ops']}" if record["failed_ops"] else ""))
    print(f"  output digest {', '.join(record['digests'])}"
          f" (oracle {record['expected_digest']})")


if __name__ == "__main__":
    sys.exit(main())
