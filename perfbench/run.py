#!/usr/bin/env python3
"""Benchmark of the sadicsets library: one workload, one seed, one run.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  A run

1. times set-up: ``SETUP_SAMPLES`` fresh interpreters each import the
   library and build the workload's inputs; the median is ``setup_s``;
2. builds the inputs from ``--seed`` and runs passes over them until
   ``--seconds`` have gone by (at least one pass; with ``--trace 1`` one
   untraced pass, then at least two traced ones);
3. checks the outputs (see `workloads`) and that counters repeat;
4. prints one ``{"info": ...}`` line with the environment, the headroom
   under the acceptance gates and the digest, and as its last line the
   result: ``{"correct", "attempted", "failed", "metrics"}``.  The same
   record goes to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones (see ``BENCHMARK.json``).  The exit code is 0 only when
every output was correct; a missing library exits 2 with no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# Acceptance rows with a wall-clock gate, and the gate in seconds.  The
# closed-form gate is per solve and the box-count gate per set, so the
# whole row's time gives a lower bound on the headroom.
GATES_S = {
    "closed-form-dimensions": 0.1,
    "box-count-oracle": 10.0,
    "measure-recursion": 30.0,
    "cylinder-identities": 60.0,
}
ROWS = (
    "closed-form-dimensions",
    "moran-edge-cases",
    "cylinder-identities",
    "ordering-and-gaps",
    "measure-recursion",
    "extrema-cross-check",
    "box-count-oracle",
    "normality-dichotomy",
    "codec-bijection",
)
# Per-layer counters that must repeat exactly between passes and runs
# of one seed.
WORK_COUNTS = (
    "sadic.calls",
    "sadic.digits",
    "cylinders.hulls",
    "cylinders.den_bits_max",
    "cylinders.locate.calls",
    "combos.prefixes",
    "measure.stages",
    "measure.hulls",
    "dimension.solves",
    "dimension.box.hulls",
    "dimension.box.boxes",
    "normality.digits",
    "cli.dispatches",
    "cli.out_bytes",
)


def import_library():
    """Import sadicsets from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sadicsets
    except ImportError as e:
        print(f"cannot import sadicsets from {src}: {e}", file=sys.stderr)
        raise SystemExit(2) from e
    if not Path(sadicsets.__file__).resolve().is_relative_to(src):
        print(f"sadicsets was imported from {sadicsets.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    import sadicsets.cli  # noqa: F401 - the cli module is not re-exported

    return sadicsets


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=wl.SIZES, default="full", help="tiny: smoke-test inputs")
    ap.add_argument("--expect-digest", default=None, help="override the committed queries digest")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_times(args) -> list[float]:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--size", args.size,
    ]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def tree_sha256(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(api) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_rev": git_rev(),
        "src_sha256": tree_sha256(ROOT / "src" / "sadicsets"),
        "bench_sha256": tree_sha256(HERE),
        "sadicsets": api.__version__,
    }


def git_rev() -> str | None:
    """HEAD of the checkout's own ``.git``, read without running git."""
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
    return None


def expected_digest(args) -> str | None:
    if args.expect_digest is not None:
        return args.expect_digest
    if args.workload != "queries" or args.size != "full":
        return None
    table = json.loads((HERE / "expected_digests.json").read_text())
    return table["queries"].get(str(args.seed))


def end_to_end(setup, passes, rss_mb) -> dict:
    # Per-pass values are averaged over the run: host speed drifts over
    # tens of seconds, and the mean over the whole timed phase varies
    # less from run to run than a median of a few passes.
    ops = sum(len(p.latencies_s) for p in passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.fmean(p.wall_s for p in passes), "s"),
        "cpu_s": (statistics.fmean(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "query_p50_ms": (1e3 * statistics.fmean(wl.percentile(p.latencies_s, 0.5) for p in passes), "ms"),
        "query_p99_ms": (1e3 * statistics.fmean(wl.percentile(p.latencies_s, 0.99) for p in passes), "ms"),
        "queries_per_s": (ops / sum(p.wall_s for p in passes), "1/s"),
    }


PER_LAYER_UNITS = {
    "sadic.calls": "count", "sadic.self_s": "s", "sadic.digits": "count", "sadic.errors": "count",
    "cylinders.hulls": "count", "cylinders.self_s": "s", "cylinders.den_bits_max": "bits",
    "cylinders.locate.calls": "count", "cylinders.locate.self_s": "s", "cylinders.errors": "count",
    "combos.prefixes": "count", "combos.self_s": "s", "combos.errors": "count",
    "measure.stages": "count", "measure.hulls": "count", "measure.self_s": "s",
    "dimension.solves": "count", "dimension.solve.self_s": "s", "dimension.box.hulls": "count",
    "dimension.box.boxes": "count", "dimension.box.self_s": "s",
    "normality.digits": "count", "normality.self_s": "s",
    "cli.dispatches": "count", "cli.self_s": "s", "cli.out_bytes": "bytes", "cli.errors": "count",
    **{f"acceptance.{row}.wall_s": "s" for row in ROWS},
    "runtime.gc_s": "s", "runtime.gc_collections": "count",
    "trace.overhead_s": "s", "trace.spans": "count",
}


def per_layer(traced_values, overhead_s) -> dict:
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = overhead_s
        else:
            value = statistics.median(v[name] for v in traced_values)
        out[name] = (value, unit)
    return out


def count_mismatches(key: str, traced_values) -> list[str]:
    """Work counters that differ between traced passes, or from the
    record an earlier run of the same seed and code left behind."""
    counts = [{name: v[name] for name in WORK_COUNTS} for v in traced_values]
    problems = [
        f"work counts differ between traced passes 1 and {i + 1}: {sorted(k for k in c if c[k] != counts[0][k])}"
        for i, c in enumerate(counts[1:], start=1)
        if c != counts[0]
    ]
    path = OUT / f"counts-{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts[0]:
            problems.append(f"work counts differ from an earlier run: {sorted(k for k in before if before[k] != counts[0].get(k))}")
    else:
        path.write_text(json.dumps(counts[0], sort_keys=True))
    return problems


def fits(t_start: float, last, seconds: float) -> bool:
    """Whether one more pass as long as ``last`` ends within ``seconds``."""
    return perf_counter() - t_start + last.wall_s <= seconds


def run(args, api) -> tuple[dict, dict, list[str], int]:
    setup = setup_times(args)
    ops = wl.make_ops(args.workload, args.seed, args.size, api)
    failures: list[str] = []
    passes, traced, traced_values = [], [], []
    tracer = Tracer() if args.trace else None
    t_start = perf_counter()
    first = wl.run_pass(ops, api, check=True)
    passes.append(first)
    failures += first.failures

    def repeat(into: list, tracer=None) -> None:
        # Later passes must repeat the first pass's outputs; they are
        # dropped once compared so that memory does not grow per pass.
        p = wl.run_pass(ops, api, tracer)
        n = len(passes) + len(traced) + 1
        failures.extend(
            f"pass {n}: output of op {i} differs from pass 1"
            for i, (a, b) in enumerate(zip(p.outputs, first.outputs)) if a != b
        )
        p.outputs = None
        into.append(p)

    if tracer is not None:
        tracer.install(api)
        try:
            while len(traced) < 2 or fits(t_start, traced[-1], args.seconds):
                repeat(traced, tracer)
                traced_values.append(tracer.take_values())
        finally:
            tracer.uninstall()
    else:
        while fits(t_start, passes[-1], args.seconds):
            repeat(passes)
    checks = len(passes) - 1 + len(traced)  # repeats of the first pass
    digest = {"value": first.digest, "expected": expected_digest(args)}
    if digest["expected"] is not None:
        checks += 1
        if digest["expected"] != first.digest:
            failures.append(f"digest {first.digest} != expected {digest['expected']}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes + traced],
        "traced_passes": len(traced),
        "ops_per_pass": len(ops),
        "latency_samples_per_pass": len(first.latencies_s),
        "setup_samples_s": setup,
        "digest": digest,
        "env": environment(api),
    }
    info["gates"] = gate_headroom(passes) if args.workload == "reproduce" else None
    if tracer is not None:
        env = info["env"]
        key = f"{args.workload}-{args.size}-{args.seed}-{env['src_sha256'][:12]}-{env['bench_sha256'][:12]}"
        checks += len(traced_values)
        failures += count_mismatches(key, traced_values)
        overhead = statistics.median(p.wall_s for p in traced) - first.wall_s
        metrics = per_layer(traced_values, overhead)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.size}-{args.seed}.jsonl")
        info["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
    else:
        metrics = end_to_end(setup, passes, rss_mb)
    attempted = sum(len(p.latencies_s) for p in passes + traced) + checks
    info["failures"] = failures[:20]
    return info, metrics, failures, attempted


def gate_headroom(passes) -> dict:
    """Seconds left under each acceptance row's wall-clock gate."""
    out = {}
    for row, gate in GATES_S.items():
        times = [t for p in passes for label, t in zip(p.labels, p.latencies_s) if label == row]
        if times:
            wall = statistics.median(times)
            out[row] = {"gate_s": gate, "wall_s": wall, "headroom_s": gate - wall}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    api = import_library()
    if args.setup_probe:
        wl.make_ops(args.workload, args.seed, args.size, api)
        return 0
    OUT.mkdir(exist_ok=True)
    info, metrics, failures, attempted = run(args, api)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT / f"result-{args.workload}-{args.size}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
