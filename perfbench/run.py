"""rootfold benchmark: one workload, one seed, checked outputs, metrics.

    python3 perfbench/run.py --workload {fold,h1,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported
from ``src/``.  Workloads (see README.md in this directory):

  fold  selftest.check_fold on eight folding cases, in-process
  h1    H1, twisting and isomorphism search on thirteen cases, in-process
  cli   one fresh ``python -m rootfold.cli`` process per request

Operations run in whole passes over the workload's fixed mix, one at a
time (a closed loop with one client); the seed draws the order within
each pass and the cli documents.  Passes run until ``--seconds`` have
passed; the first always runs, and a pass expected to end after
OVERRUN times ``--seconds`` is not started.

``--trace 0`` reports the end-to-end metrics: each is computed per pass
and reported as the median over the passes, with times scaled to the
reference host (speed.py).  ``--trace 1`` runs each pass once untraced
and once with wrappers around the layers and reports the per-layer
metrics, averaged per traced pass.  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import inputs
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PROBES = 7
IMPORT_PROBES = 7
# a pass expected to end later than this many times --seconds is not
# started, which bounds how long a run takes on a slow host
OVERRUN = 1.75


def _percentile(sorted_values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _spawn_until_ready(argv):
    """(start, end): from starting a fresh interpreter to its "ready" line."""
    import workloads
    start = perf_counter()
    proc = subprocess.Popen(argv, env=workloads.child_env(), cwd=ROOT,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        end = perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"probe {argv[1:]} failed with exit code {code}")
    return start, end


def measure_setup(workload, seed, workdir):
    """Median over fresh interpreters of import plus input building,
    scaled to the reference host."""
    spans = []
    with speed.SpeedSampler() as sampler:
        for i in range(SETUP_PROBES):
            probe_dir = workdir / f"setup-{i}"
            probe_dir.mkdir()
            spans.append(_spawn_until_ready(
                [sys.executable, str(HERE / "setup_probe.py"), workload,
                 str(seed), str(probe_dir)]))
            shutil.rmtree(probe_dir)
    return statistics.median((end - start) * sampler.scale(start, end)
                             for start, end in spans)


def measure_import():
    """Fresh-interpreter time of ``import rootfold.cli`` minus bare
    interpreter start, as the difference of medians."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        start, end = _spawn_until_ready([sys.executable, "-c", "print('ready')"])
        bare.append(end - start)
        start, end = _spawn_until_ready(
            [sys.executable, "-c", "import rootfold.cli; print('ready')"])
        full.append(end - start)
    return statistics.median(full) - statistics.median(bare)


class Tally:
    """Timings and outcomes of the operations of a run."""

    def __init__(self):
        self.spans = []          # (start, end) of each operation
        self.pass_starts = []    # index in spans of each pass's first op
        self.failures = []       # (kind, reason) of unexpected failures
        self.defects = []        # (kind, reason) of known-defect failures

    def record(self, op, start, end, reason):
        self.spans.append((start, end))
        if reason is not None:
            (self.defects if op.kind in inputs.KNOWN_DEFECTS
             else self.failures).append((op.kind, reason))

    @property
    def attempted(self):
        return len(self.spans)

    @property
    def passes(self):
        return len(self.pass_starts)

    def latencies(self, sampler=None):
        """Seconds per operation: as measured, or scaled to the reference
        host when a sampler is given."""
        if sampler is None:
            return [end - start for start, end in self.spans]
        return scaled(self.spans, sampler)


def scaled(spans, sampler):
    """Seconds per (start, end) span of in-process work, less the
    sampler's own time and scaled to the reference host."""
    return [(end - start - sampler.stolen(start, end)) * sampler.scale(start, end)
            for start, end in spans]


def run_pass(ops, tally, call=None, tracer=None, sampler=None):
    """Run one pass, timing each call and checking it afterwards; returns
    the (start, end) of each operation."""
    tally.pass_starts.append(tally.attempted)
    for op in ops:
        if sampler is not None:
            sampler.sample()
        fn = call(op) if call else op.call
        op_id = tally.attempted
        start = perf_counter()
        try:
            if tracer is not None:
                result = tracer.operation(op_id, fn)
            else:
                result = fn()
            error = None
        except Exception as e:  # an operation that raises has failed
            result, error = None, f"raised {type(e).__name__}: {e}"
        end = perf_counter()
        tally.record(op, start, end, error or op.check(result))
    return tally.spans[tally.pass_starts[-1]:]


def another_pass(done, elapsed, seconds):
    """Whether to start another pass after ``done`` passes took
    ``elapsed`` seconds: the first always runs, then passes run until
    ``seconds`` have passed unless one is expected to overrun."""
    if not done:
        return True
    return elapsed < seconds and elapsed * (done + 1) / done <= OVERRUN * seconds


def untraced_run(workload, seconds):
    """Passes of the workload, with latencies scaled to the reference
    host: by the in-process sampler, or by reference children for the
    cli workload, whose work runs in child processes."""
    tally = Tally()
    start = perf_counter()
    if workload.in_process:
        sampler = speed.SpeedSampler()
    else:
        sampler = speed.ChildSampler(workload.env, workload.workdir)
    with sampler:
        while another_pass(tally.passes, perf_counter() - start, seconds):
            run_pass(workload.build(workload.next_order()), tally,
                     sampler=sampler)
    return tally.latencies(sampler), tally


def pass_medians(latencies, pass_starts):
    """The medians over the passes of each pass's ops_per_s, op_p50_ms
    and op_p90_ms."""
    bounds = list(pass_starts) + [len(latencies)]
    per_pass = []
    for lo, hi in zip(bounds, bounds[1:]):
        lat = sorted(latencies[lo:hi])
        per_pass.append((len(lat) / sum(lat), _percentile(lat, 0.5) * 1e3,
                         _percentile(lat, 0.9) * 1e3))
    return [statistics.median(column) for column in zip(*per_pass)]


def _traced_pass(ops, tally, call, tracer):
    tracer.install()
    try:
        return run_pass(ops, tally, call, tracer)
    finally:
        tracer.uninstall()


def traced_run(workload, seconds, spans_path):
    call = None
    if workload.name == "cli":
        def call(op):
            return op.call_in_process
    tally = Tally()
    tracer = tracing.Tracer()
    plain, traced = [], []       # per pair of passes, (start, end) of each op
    traced_passes = 0
    start = perf_counter()
    with speed.SpeedSampler() as sampler:
        while another_pass(traced_passes, perf_counter() - start, seconds):
            order = workload.next_order()
            plain_ops, traced_ops = workload.build(order), workload.build(order)
            # alternate which half of the pair runs first, so that one-time
            # warm-up costs do not all land on the untraced side
            if traced_passes % 2:
                traced.append(_traced_pass(traced_ops, tally, call, tracer))
                plain.append(run_pass(plain_ops, tally, call))
            else:
                plain.append(run_pass(plain_ops, tally, call))
                traced.append(_traced_pass(traced_ops, tally, call, tracer))
            traced_passes += 1
    total_self, op_total = tracer.self_time_balance()
    if abs(total_self - op_total) > 1e-6 * op_total + 1e-6:
        tally.failures.append(
            ("trace", f"self times sum to {total_self}, operations to {op_total}"))
    tracer.dump(spans_path)
    metrics = tracer.per_layer(traced_passes)
    # the first pair also pays for warming the process up (allocator
    # arenas, first calls); it is left out unless it is the only one
    skip = 1 if traced_passes > 1 else 0

    def total(pairs):
        return sum(sum(scaled(spans, sampler)) for spans in pairs[skip:])

    metrics["trace.overhead_ratio"] = (total(traced) / total(plain), "ratio")
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fold", "h1", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rootfold" / "__init__.py").is_file():
        print(f"error: no rootfold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE))
    try:
        if not args.trace:
            setup_s = measure_setup(args.workload, args.seed, workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            spans = STATE / f"spans-{args.workload}-{args.seed}.json"
            tally, metrics = traced_run(workload, args.seconds, spans)
            metrics["cli.import_s"] = (measure_import(), "s")
        else:
            latencies, tally = untraced_run(workload, args.seconds)
            ops_per_s, p50, p90 = pass_medians(latencies, tally.pass_starts)
            if args.workload == "cli":
                rss_kb = workload.peak_rss_kb
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            ok = tally.attempted - len(tally.failures) - len(tally.defects)
            metrics = {
                "ops_per_s": (ops_per_s, "1/s"),
                "op_p50_ms": (p50, "ms"),
                "op_p90_ms": (p90, "ms"),
                "ok_ratio": (ok / tally.attempted, "ratio"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (rss_kb / 1024, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = pass_medians(tally.latencies(), tally.pass_starts)
    print(f"# as measured: {raw[0]:.4f} ops/s, p50 {raw[1]:.3f} ms, "
          f"p90 {raw[2]:.3f} ms")
    print(f"# {args.workload} seed {args.seed}: {tally.passes} passes, "
          f"{tally.attempted} operations, {len(tally.failures)} failed, "
          f"{len(tally.defects)} known-defect failures")
    for kind, reason in sorted(set(tally.failures + tally.defects))[:20]:
        print(f"#   {kind}: {reason}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
