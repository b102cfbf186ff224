"""spansem benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload scan-em --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run sets up several times (``setup_s`` is the median), runs
one untimed warm-up unit, then repeats the workload's unit until
``--seconds`` have passed.  Times are rescaled to a reference speed: a
fixed pure-Python loop is timed around the set-ups and between units, and
a measured time is multiplied by ``REFERENCE_MS`` over the loop's time
next to it (README.md says why).  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` untraced and traced units alternate
and the last line holds the per-layer metrics, which are per unit (median
over traced units) plus the tracing overhead.  A failed output check is
named on stderr and the run exits with 1.  Spans and a detail report go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SETUPS = 2
SETUP_SECONDS = 1.0  # cheap set-ups repeat until this much time is spent
MAX_SETUPS = 100
REFERENCE_ITERATIONS = 300_000
REFERENCE_REPEATS = 6  # loop timings taken between two units
REFERENCE_MS = 30.0  # the reference loop's time at the speed times are rescaled to

# (name, unit) of the values per workload; the order of BENCHMARK.json.
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("rate_per_s", "1/s"),
              ("latency_ms_p50", "ms")]
PER_LAYER = [
    ("cky.constrained_parse.ms", "ms"), ("cky.constrained_parse.calls", "count"),
    ("cky.constrained_parse.misses", "count"), ("cky.constrained_parse.combinations", "count"),
    ("cky.parse_kbest.ms", "ms"), ("cky.parse_kbest.calls", "count"),
    ("cky.parse_kbest.combinations", "count"),
    ("cky.combinations", "count"),
    ("cky.best_valid_tree.ms", "ms"), ("cky.best_valid_tree.calls", "count"),
    ("cky.best_valid_tree.tries", "count"), ("cky.best_valid_tree.valid_ratio", "share"),
    ("typesys.compose_candidates.calls", "count"), ("typesys.compose_candidates.ms", "ms"),
    ("typesys.program_of_tree.calls", "count"), ("typesys.program_of_tree.failures", "count"),
    ("typesys.program_of_tree.ms", "ms"),
    ("scorer.score_spans.ms", "ms"), ("scorer.score_spans.calls", "count"),
    ("scorer.loss_and_grads.ms", "ms"), ("scorer.loss_and_grads.calls", "count"),
    ("scorer.sgd_step.ms", "ms"),
    ("trainer.train.self_ms", "ms"), ("trainer.hard_em_step.self_ms", "ms"),
    ("trainer.evaluate.self_ms", "ms"),
    ("trainer.predict.ms", "ms"), ("trainer.predict.calls", "count"),
    ("data.exec.ms", "ms"), ("data.exec.calls", "count"), ("data.exec.errors", "count"),
    ("data.corpus.ms", "ms"), ("core.labels_for_tree.ms", "ms"),
    ("cli.load_checkpoint.ms", "ms"), ("cli.load_domain.ms", "ms"),
    ("cli.read_examples.ms", "ms"), ("cli.pool_start.ms", "ms"),
    ("trace.overhead_share", "share"), ("trace.spans", "count"),
]
SELF_TIMED = ("trainer.train", "trainer.hard_em_step", "trainer.evaluate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


class Yardstick:
    """Timings of a fixed pure-Python loop: the machine's speed."""

    def __init__(self):
        self.samples = []  # ms, every timing taken

    def take(self):
        """Times the loop ``REFERENCE_REPEATS`` times and returns the timings."""
        taken = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            total = 0
            for i in range(REFERENCE_ITERATIONS):
                total += i * i % 7
            taken.append(1000.0 * (time.perf_counter() - start))
        self.samples += taken
        return taken


def factor(timings):
    """A time measured next to these loop timings, multiplied by this, is
    the time at the reference speed."""
    return REFERENCE_MS / statistics.mean(timings)


def rescaled(unit, scale):
    """``unit`` with its times multiplied by ``scale``."""
    return replace(unit, seconds=unit.seconds * scale,
                   latencies={k: [v * scale for v in vs] for k, vs in unit.latencies.items()},
                   times={k: v * scale for k, v in unit.times.items()})


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest child
    (the eval pool workers), in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def provenance():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def layer_values(tracer, phase):
    """Per-layer metrics of one traced unit."""
    totals = tracer.totals[phase]
    values = {name: totals.get(name, 0.0) for name, _ in PER_LAYER}
    for name in SELF_TIMED:
        values[name + ".self_ms"] = tracer.self_ms(phase, name)
    tries = totals.get("cky.best_valid_tree.tries", 0.0)
    values["cky.best_valid_tree.valid_ratio"] = (
        totals.get("cky.best_valid_tree.valid", 0.0) / tries if tries else 0.0)
    values["trace.spans"] = float(sum(1 for s in tracer.spans if s[2] == phase))
    return values


def set_up(workload, seed, work_dir, tracer, patches, spansem, tracing, trace, yardstick):
    """Runs the set-up several times and returns (last state, set-up times).
    A traced run sets up once, with the layers wrapped."""
    times, state = [], None
    yardstick.take()
    while len(times) < (1 if trace else MIN_SETUPS) or (
            not trace and sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS):
        state = None  # the previous set-up is freed before the next one runs
        if trace:
            tracing.install(tracer, patches, spansem)
        start = time.perf_counter()
        try:
            state = workload.setup(seed, work_dir, tracer)
        finally:
            patches.restore()
        times.append(time.perf_counter() - start)
    yardstick.take()
    return state, times


def repeat_units(workload, state, seconds, tracer, patches, spansem, tracing, trace,
                 yardstick):
    """A warm-up unit, then units until ``seconds`` have passed; a traced
    run alternates untraced and traced units.  Returns (warm-up, untraced,
    traced); each unit is paired with the reference factor of the loop
    timings taken right before and right after it."""
    warmup = workload.unit(state)
    plain, traced = [], []
    before = yardstick.take()
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline or (trace and not traced):
        if trace and len(plain) > len(traced):
            tracer.phase = f"unit{len(traced)}"
            tracing.install(tracer, patches, spansem)
            domain = state.domain
            state.domain = replace(domain, execute=tracer.wrap("data.exec", domain.execute))
            try:
                unit, into = workload.unit(state), traced
            finally:
                patches.restore()
                state.domain = domain
        else:
            unit, into = workload.unit(state), plain
        after = yardstick.take()
        into.append((unit, factor(before + after)))
        before = after
    return warmup, plain, traced


def traced_metrics(tracer, plain, traced, failures):
    """Per-layer metrics: the median over traced units, the corpus time of
    the set-up, and the tracing overhead.  Appends failed count checks."""
    phases = [f"unit{i}" for i in range(len(traced))]
    per_unit = [layer_values(tracer, p) for p in phases]
    metrics = {name: statistics.median(v[name] for v in per_unit) for name, _ in PER_LAYER}
    metrics["data.corpus.ms"] = tracer.totals["setup"].get("data.corpus.ms", 0.0)
    metrics["trace.overhead_share"] = (statistics.median(u.seconds for u in traced)
                                       / statistics.median(u.seconds for u in plain) - 1.0)
    counts = [{k: v for k, v in tracer.totals[p].items() if not k.endswith(".ms")}
              for p in phases]
    if any(c != counts[0] for c in counts):
        failures.append(("trace_counts_repeat", "chart and call counts differ between units"))
    return metrics, counts[0]


def measure(workload, seed, seconds, trace, work_dir):
    import spansem
    import tracing
    from workloads import outcomes

    tracer, patches, probes = tracing.Tracer(), tracing.Patches(), tracing.Patches()
    setup_stick, unit_stick = Yardstick(), Yardstick()
    state, setup_wall = set_up(workload, seed, work_dir, tracer, patches, spansem,
                               tracing, trace, setup_stick)
    workload.probe(state, probes)
    try:
        warmup, plain, traced = repeat_units(workload, state, seconds, tracer, patches,
                                             spansem, tracing, trace, unit_stick)
    finally:
        probes.restore()
    setup_times = [t * factor(setup_stick.samples) for t in setup_wall]
    wall_plain = [u for u, _ in plain]
    plain = [rescaled(u, f) for u, f in plain]
    traced = [rescaled(u, f) for u, f in traced]
    units = plain + traced

    failures = []
    for name, detail in workload.checks(state, [warmup] + units):
        if name not in dict(failures):  # a check that fails on every unit is named once
            failures.append((name, detail))
    if any(u.outputs != warmup.outputs for u in units):
        failures.append(("units_identical", "a repeat of the unit gave other outputs"))
    rate, latency, named = workload.summary(state, plain)
    wall_rate, wall_latency, _ = workload.summary(state, wall_plain)
    report = {"workload": workload.name, "seed": seed, "trace": trace,
              "units": len(plain), "unit_seconds": [u.seconds for u in plain],
              "unit_wall_seconds": [u.seconds for u in wall_plain],
              "setup_seconds": setup_times, "setup_wall_seconds": setup_wall,
              "reference_ms": {"setup": setup_stick.samples, "units": unit_stick.samples},
              "wall": {"setup_s": statistics.median(setup_wall), "rate_per_s": wall_rate,
                       "latency_ms_p50": wall_latency},
              "latencies": {k: [v for u in plain for v in u.latencies[k]]
                            for k in plain[0].latencies},
              "named": {k: {"values": v, "unit": u} for k, (v, u) in named.items()}}
    if trace:
        metrics, report["unit_counts"] = traced_metrics(tracer, plain, traced, failures)
        report["seed_table"] = seed_table(tracer.totals["unit0"])
        tracer.write(work_dir.parent / f"{workload.name}-seed{seed}-spans.jsonl")
    else:
        metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb(),
                   "rate_per_s": rate, "latency_ms_p50": latency}
    report["metrics"] = metrics
    report["checks_failed"] = failures
    attempted = sum(u.items for u in units)
    failed = sum(outcomes(u, state.domain)["exec_errors"] for u in units)
    return metrics, attempted, failed, failures, report


def seed_table(totals):
    """The ROADMAP's seed-baseline rows that this unit exercises, in ms."""

    def per(ms_key, calls_key):
        calls = totals.get(calls_key, 0)
        return totals.get(ms_key, 0.0) / calls if calls else None

    rows = {
        "hard_em_step_per_example": per("trainer.hard_em_step.ms", "cky.constrained_parse.calls"),
        "constrained_parse_per_call": per("cky.constrained_parse.ms",
                                          "cky.constrained_parse.calls"),
        "loss_and_grads_per_call": per("scorer.loss_and_grads.ms", "scorer.loss_and_grads.calls"),
        "score_spans_per_call": per("scorer.score_spans.ms", "scorer.score_spans.calls"),
        "parse_kbest_per_call": per("cky.parse_kbest.ms", "cky.parse_kbest.calls"),
        "predict_per_call": per("trainer.predict.ms", "trainer.predict.calls"),
    }
    for key in sorted(totals):
        if key.startswith("cky.parse_kbest.n") and key.endswith(".ms"):
            size = key.split(".")[2]
            rows[f"parse_kbest_{size}"] = per(key, f"cky.parse_kbest.{size}.calls")
    return {k: v for k, v in rows.items() if v is not None}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "spansem").is_dir():
        print(f"benchmark: no spansem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    for key in [k for k in os.environ if k.startswith("SPANSEM_")]:
        del os.environ[key]  # flag overrides would change what is measured
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, attempted, failed, failures, report = measure(
            workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report["provenance"] = provenance()
    with open(out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    units_of = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"{workload.name}  seed {args.seed}  {report['units']} untraced units "
          f"in {args.seconds:g} s  ({workload.why})")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    if not args.trace:
        for name, unit in END_TO_END:
            print(f"  {name:<28} {metrics[name]:12.4f} {unit}")
        for name, value in report["wall"].items():
            print(f"  {'wall ' + name:<28} {value:12.4f} {units_of[name]}  (not rescaled)")
    for name, entry in report["named"].items():
        q1, q2, q3 = quartiles(entry["values"])
        spread = f"  [q1 {q1:.4g}, q3 {q3:.4g}, n={len(entry['values'])}]" \
            if len(entry["values"]) > 1 else ""
        print(f"  {name:<28} {q2:12.4f} {entry['unit']}{spread}")
    for name, value in report.get("seed_table", {}).items():
        print(f"  seed-table {name:<28} {value:10.3f} ms")
    for name, detail in failures:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]}
                    for name in units_of}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
