"""Run one benchmark workload and print its metrics.

    python3 benchmarks/perf.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: sweep, curves, lt and locality (see ``workloads.py`` for what
each runs and why).  The package is imported from ``src/`` next to this
directory and nowhere else; without it the script exits with code 2.

A run is up to ``PROCESSES`` fresh worker processes, one after the other,
that share ``--seconds`` between them.  Each worker makes the workload's
inputs from ``--seed``, then repeats passes over them until another pass
would overrun its share (at least one pass always runs); the run's medians
pool the passes of all its workers, so no one process's memory layout or
string-hash seed sets them.  Each pass builds fresh machines and checks
every answer against its reference.  Set-up is timed repeatedly for
``SETUP_FIRST_S`` before a worker's first pass and briefly after each pass.

Every time reported is host-speed-normalised: a pass's (or a set-up
block's) measured time, scaled by ``hostspeed.REFERENCE_S`` over the median
time of the probe slices run in between its calls (see ``hostspeed.py``).
The raw medians are printed beside them as ``raw.*``, with the median probe
slice as ``probe.slice_s``.

With ``--trace 0`` the metrics are the end-to-end ones: the median set-up
time, medians over the passes, and the peak resident memory of a worker
through set-up and its first pass (the median over the workers).  With
``--trace 1`` each round runs an untraced pass and then a traced one; the
metrics are the per-layer ones from the traced passes, in raw seconds, and
``trace.overhead_s`` is the median raw traced wall time minus the median
raw untraced one.  The spans of the last traced pass are written to
``benchmarks/out/``.

Every metric is printed as ``metric NAME VALUE UNIT``; the metrics named in
``BENCHMARK.json`` also go into the JSON object on the last line, with
``correct``, ``attempted`` and ``failed``.  ``failed`` counts wrong, missing
and raised answers; ``correct`` is false when an answer was wrong, a call
raised or an exact count did not repeat.  A missing verdict (a budget
timeout where the reference expects an answer) counts as failed but is not
a wrong answer.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up repeats for SETUP_FIRST_S seconds before the first pass and for
# SETUP_AFTER_PASS_S after each pass; setup_s is the median of all of them.
SETUP_FIRST_S = 0.5
SETUP_AFTER_PASS_S = 0.25
PROCESSES = 3
# A worker still running this long after the run started is killed, and the
# run fails.
RUN_DEADLINE_S = 170

# Per-layer counts that must repeat exactly between passes over one input set.
EXACT_COUNTS = (
    "core.runs", "core.cell_steps", "core.timeouts", "core.rule_misses",
    "core.states_interned", "core.global_step.calls", "rulefile.rule.calls",
    "rulefile.patterns", "zoo.rule.calls", "localtests.profiles",
    "localtests.schedule_len", "localtests.table_states", "localtests.table_rules",
    "words.debruijn.calls", "words.contracted_chars", "words.critical.calls",
    "semigroups.elements", "semigroups.lt_yes",
)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def commit() -> str:
    """HEAD of the checkout's git directory, read from its files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def timed_setup(workload, seed, seconds, probe, samples):
    """Set the workload up repeatedly for ``seconds`` (at least once).

    A probe slice runs before each set-up; each set-up time goes into
    ``samples`` as [raw, scaled] with the block's scale.
    """
    gc.collect()
    mark = len(probe.slices)
    raw = []
    end = time.perf_counter() + seconds
    while True:
        probe.slice()
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        t1 = time.perf_counter()
        raw.append(t1 - t0)
        if t1 >= end:
            break
    scale = probe.scale(mark)
    samples.extend([t, t * scale] for t in raw)
    return inputs


def pass_record(tally, wall, scale=None, layer_metrics=None) -> dict:
    record = dataclasses.asdict(tally)
    record["wall"] = wall
    if scale is not None:
        record["scale"] = scale
    if layer_metrics is not None:
        record["layers"] = layer_metrics
    return record


def worker(args, workload, started) -> dict:
    """One process's share of a run: set-up, then passes until the share is used."""
    import hostspeed
    import tracing
    import workloads

    probe = hostspeed.SpeedProbe(workload.probe)
    plain_env = tracing.Plain(probe)
    setups = []
    inputs = timed_setup(workload, args.seed, SETUP_FIRST_S, probe, setups)
    plain, traced, tracer, peak_rss_mb, first_round_s = [], [], None, None, None
    passes_started = time.perf_counter()
    while True:
        mark = len(probe.slices)
        probe.slice()
        tally, wall = workloads.timed_pass(workload, inputs, plain_env)
        plain.append(pass_record(tally, wall, probe.scale(mark)))
        if peak_rss_mb is None:
            # Machines from earlier passes stay cached in the engine, so the
            # process keeps growing; one pass is what one acaw process holds.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        timed_setup(workload, args.seed, SETUP_AFTER_PASS_S, probe, setups)
        if args.trace:
            tracer = tracing.Tracer()
            tally, wall = workloads.timed_pass(workload, inputs, tracer)
            traced.append(pass_record(tally, wall, layer_metrics=tracer.metrics()))
        now = time.perf_counter()
        if first_round_s is None:
            first_round_s = now - started
        if now - started + (now - passes_started) / len(plain) > args.seconds:
            break
    if tracer is not None:
        tracer.write(OUT / f"{workload.name}-seed{args.seed}-spans.csv.gz")
    return {
        "first_round_s": first_round_s,
        "elapsed_s": time.perf_counter() - started,
        "setups": setups,
        "plain": plain,
        "traced": traced,
        "peak_rss_mb": peak_rss_mb,
        "slices": probe.slices,
        "input_sizes": workload.sizes(inputs),
    }


def rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def run_workers(args, started) -> list[dict]:
    """Up to PROCESSES workers in a row, sharing ``args.seconds``; each one's result."""
    # least: what one more worker needs, start-up plus set-up plus one round,
    # taken as the most that any worker so far needed for that.
    results, least = [], 0.0
    for i in range(PROCESSES):
        t0 = time.perf_counter()
        remaining = args.seconds - (t0 - started)
        if results and remaining < least:
            break  # another worker would overrun: one pass of lt can fill the run
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(remaining / (PROCESSES - i)),
            "--trace", str(args.trace), "--worker",
        ]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=started + RUN_DEADLINE_S - t0)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"worker {i} exited with code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        results.append(result)
        startup = time.perf_counter() - t0 - result["elapsed_s"]
        least = max(least, startup + result["first_round_s"])
    return results


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the acaw package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    package = Path(sys.modules["acaw"].__file__).resolve()
    if (ROOT / "src") not in package.parents:
        print(f"error: acaw was imported from {package}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.worker:
        print(json.dumps(worker(args, workload, started)))
        return 0
    try:
        results = run_workers(args, started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups = [setup for r in results for setup in r["setups"]]
    plain = [p for r in results for p in r["plain"]]
    traced = [p for r in results for p in r["traced"]]
    slices = [s for r in results for s in r["slices"]]
    records = plain + traced
    wrong = sum(p["wrong"] for p in records)
    raised = sum(p["raised"] for p in records)
    attempted = sum(p["attempted"] for p in records)
    failed = sum(p["wrong"] + p["missing"] + p["raised"] for p in records)
    errors = [e for p in records for e in p["errors"]]

    median = statistics.median
    metrics = {
        "setup_s": median(scaled for _, scaled in setups),
        "wall_s": median(p["wall"] * p["scale"] for p in plain),
        "words_per_s": median(rate(p["words"], p["words_s"] * p["scale"]) for p in plain),
        "cell_steps_per_s": median(
            rate(p["cell_steps"], p["cell_s"] * p["scale"]) for p in plain
        ),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in results),
        "failed_ratio": failed / attempted if attempted else 0.0,
    }
    compile_samples = sorted(s * p["scale"] for p in plain for s in p["compile_s"])
    if compile_samples:
        metrics["compile_s"] = median(compile_samples)
        metrics["compile_max_s"] = compile_samples[-1]
        metrics["compile_samples"] = len(compile_samples)
    metrics.update({
        "raw.setup_s": median(raw for raw, _ in setups),
        "raw.wall_s": median(p["wall"] for p in plain),
        "raw.words_per_s": median(rate(p["words"], p["words_s"]) for p in plain),
        "probe.slice_s": median(slices),
        "probe.slices": len(slices),
    })

    counts_repeat = True
    if traced:
        layer_runs = [p["layers"] for p in traced]
        for name in layer_runs[0]:
            values = [m[name] for m in layer_runs]
            if name in EXACT_COUNTS:
                if len(set(values)) != 1:
                    counts_repeat = False
                    errors.append(f"count {name} differs between traced passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = median(values)
        metrics["trace.overhead_s"] = (
            median(p["wall"] for p in traced) - metrics["raw.wall_s"]
        )

    provenance = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": len(results),
        "passes": len(plain),
        "traced_passes": len(traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "input_sizes": results[0]["input_sizes"],
    }
    for key, value in provenance.items():
        print(f"provenance {key}: {json.dumps(value)}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {unit_of(name)}")
    for message in errors[:20]:
        print(f"error: {message}", file=sys.stderr)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "metrics": metrics,
                    "setup_times_s": [raw for raw, _ in setups],
                    "setup_scaled_s": [scaled for _, scaled in setups],
                    "pass_walls_s": [p["wall"] for p in plain],
                    "pass_scales": [p["scale"] for p in plain],
                    "passes_per_process": [len(r["plain"]) for r in results],
                    "traced_pass_walls_s": [p["wall"] for p in traced],
                    "attempted": attempted, "failed": failed, "errors": errors},
                   indent=1) + "\n"
    )

    reported = declared["per_layer"] if args.trace else declared["end_to_end"]
    result = {
        "correct": wrong == 0 and raised == 0 and counts_repeat and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
