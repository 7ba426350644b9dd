"""One measured process: import symmline, build a workload, run passes.

run.py starts this script once per sample; it is not meant to be run by
hand.  It prints READY as soon as symmline is imported and the inputs
are built (the parent times that as set-up), then one JSON report line.

Modes:
  run    a cold pass (cold _symbasis._ELEM_CACHE), then warm passes
         until --seconds have passed; at least one.
  trace  a traced cold pass (counts, raw spans), untraced warm passes
         for half of --seconds, traced warm passes for the other half.

Each op is timed alone; rendering and comparing its result happen
outside the timed region.  A warm result must equal the same op's cold
result; run.py checks the cold results against the oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digest(outputs) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


class Runner:
    def __init__(self, ops, run_op, render, tracer=None):
        self.ops = ops
        self.run_op = run_op
        self.render = render
        self.tracer = tracer
        self.reference = None  # cold-pass results

    def one_pass(self, keep_outputs=False):
        """(latencies in ms, indices of failed ops, rendered outputs)."""
        lat, bad, results = [], [], []
        tracer = self.tracer
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = i
                tracer.active = True
            start = time.perf_counter_ns()
            try:
                result = self.run_op(op)
            except Exception as exc:
                result = exc
            end = time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            lat.append((end - start) / 1e6)
            if isinstance(result, Exception):
                bad.append(i)
            elif self.reference is not None and result != self.reference[i]:
                bad.append(i)
            results.append(result)
        if self.reference is None:
            self.reference = results
        outputs = None
        if keep_outputs:
            outputs = [
                f"<error: {r!r}>" if isinstance(r, Exception) else self.render(r)
                for r in results
            ]
        return lat, bad, outputs

    def passes_for(self, seconds, each=None):
        """Warm passes until `seconds` of wall time have gone; at least one."""
        out = []
        deadline = time.perf_counter() + seconds
        while True:
            lat, bad, _ = self.one_pass()
            out.append({"lat": lat, "bad": bad})
            if each is not None:
                each()
            if time.perf_counter() >= deadline:
                return out


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("run", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", help="file for the traced cold pass's spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import symmline
    import workloads

    ops = workloads.build(args.workload, args.seed, args.tiny)
    print("READY", flush=True)

    if args.mode == "trace":
        report = trace(symmline, workloads, ops, args)
    else:
        runner = Runner(ops, workloads.run_op, workloads.render)
        lat, bad, outputs = runner.one_pass(keep_outputs=True)
        report = {"cold": {"lat": lat, "bad": bad}, "outputs": outputs,
                  "warm": runner.passes_for(args.seconds)}
    report["rss_mb"] = rss_mb()
    print(json.dumps(report), flush=True)


def trace(symmline, workloads, ops, args):
    from symmline import _symbasis

    from tracer import Tracer

    tracer = Tracer()
    runner = Runner(ops, workloads.run_op, workloads.render, tracer)
    tracer.install(symmline)
    tracer.recording = True
    cache_before = len(_symbasis._ELEM_CACHE)
    lat, bad, outputs = runner.one_pass(keep_outputs=True)
    cold = {
        "lat": lat,
        "bad": bad,
        "calls": dict(tracer.calls),
        "counters": dict(tracer.counters),
        "elem_cache_misses": len(_symbasis._ELEM_CACHE) - cache_before,
        "elem_cache_entries": len(_symbasis._ELEM_CACHE),
        "spans": len(tracer.spans),
    }
    if args.spans:
        with open(args.spans, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    tracer.recording = False
    tracer.reset()
    tracer.uninstall()

    runner.tracer = None
    lat, bad, untraced_outputs = runner.one_pass(keep_outputs=True)
    untraced = [{"lat": lat, "bad": bad}] + runner.passes_for(args.seconds / 2)

    layers = []

    def collect():
        layers.append({
            "self_ms": {k: v / 1e6 for k, v in tracer.self_ns.items()},
            "incl_ms": {k: v / 1e6 for k, v in tracer.incl_ns.items()},
        })
        tracer.reset()

    tracer.install(symmline)
    runner.tracer = tracer
    try:
        traced = runner.passes_for(args.seconds / 2, each=collect)
    finally:
        tracer.uninstall()
    return {
        "cold": cold,
        "outputs": outputs,
        "untraced_digest": digest(untraced_outputs),
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
    }


if __name__ == "__main__":
    main()
