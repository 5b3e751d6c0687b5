#!/usr/bin/env python3
"""fedrobust benchmark: closed-loop workloads, one op at a time, one process.

Usage (from the repository root)::

    python3 bench/run.py --workload audit_exhaustive --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
first half of ``--seconds`` untraced and the second half with every library
layer wrapped in spans (see spans.py), and prints the per-layer metrics plus
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a human-readable report.  A full record (provenance,
checks, and with tracing the spans) is written under ``bench/out/``.

The program is imported from ``src/`` of the checkout this file sits in; the
benchmark exits non-zero, without a result line, when it is not there.
"""

import os

# Single-threaded BLAS for this process only, set before numpy is imported.
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_CAPS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "fedrobust"
SETUP_REPEATS = 7


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_fresh():
    """Import the package from scratch (numpy stays loaded), so each set-up
    repetition pays for the import and starts with empty caches."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")  # the package root does not import the CLI
    return package


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class ReferenceProbe:
    """A fixed kernel, never changed, timed between cycles to track the
    machine's speed.

    On a shared host the same op runs up to twice as fast in some stretches
    as in others, and those stretches last seconds.  The probe's time over
    the adjacent cycle, divided by its nominal time, is how slow the machine
    was just then.  Timings are reported at reference speed: rates are
    multiplied, and latencies divided, by that slowdown.  The raw values are
    kept in the record.

    Contention slows interpreted code more than bulk array work, so each
    workload names the kernel that resembles its own work:
    ``interpreter`` mixes small numpy operations with interpreted Python,
    ``bulk`` sorts and gathers arrays of a few thousand rows, and ``mixed``
    runs both.
    """

    # probe time at the fast speed of a shared 2-core x86-64 machine
    NOMINAL_S = {"interpreter": 0.0235, "bulk": 0.0125, "mixed": 0.036}

    def __init__(self, np, kind):
        rng = np.random.default_rng(0)
        self.np = np
        self.nominal_s = self.NOMINAL_S[kind]
        self.kernel = getattr(self, "_" + kind)
        self.points = rng.standard_normal((10, 5))
        self.keys = rng.random((2000, 24))
        self.cloud = rng.standard_normal((24, 5))

    def _interpreter(self):
        x = self.points
        acc = 0.0
        for i in range(2400):
            centred = x - x.mean(axis=0)
            acc += float((centred * centred).sum())
            acc += sum(j * j % 7 for j in range(i % 8, 40))
        return acc

    def _bulk(self):
        acc = 0.0
        for _ in range(4):
            chosen = self.cloud[self.np.argsort(self.keys, axis=1)[:, :18]]
            centred = chosen - chosen.mean(axis=1)[:, None, :]
            acc += float((centred * centred).sum())
        return acc

    def _mixed(self):
        return self._interpreter() + self._bulk()

    def __call__(self):
        start = perf_counter()
        self.kernel()
        return (perf_counter() - start) / self.nominal_s


def measure(workload, seconds, first_cycle, probe, tracer=None):
    """Run whole cycles of ops until ``seconds`` have passed.  Only the op
    calls are timed; checks run between them, the reference probe between
    cycles."""
    run = {"latencies": [], "raw_latencies": [], "cycle_rates": [], "raw_cycle_rates": [],
           "slowdowns": [], "failures": []}
    deadline = perf_counter() + seconds
    cycle = first_cycle
    before = probe()
    while True:
        work = 0
        busy = 0.0
        latencies = []
        for op in workload.cycle(cycle):
            error = None
            start = perf_counter()
            try:
                result = tracer.op(len(run["raw_latencies"]) + len(latencies), op.fn) if tracer else op.fn()
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
            latencies.append(elapsed)
            busy += elapsed
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # noqa: BLE001 - unreadable output fails the op
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is None:
                work += op.work
            else:
                run["failures"].append(error)
        after = probe()
        slowdown = (before + after) / 2.0
        before = after
        run["slowdowns"].append(slowdown)
        run["raw_latencies"] += latencies
        run["latencies"] += [t / slowdown for t in latencies]
        run["raw_cycle_rates"].append(work / busy)
        run["cycle_rates"].append(work / busy * slowdown)
        cycle += 1
        if perf_counter() >= deadline:
            run["next_cycle"] = cycle
            return run


# --------------------------------------------------------------------------
# provenance

def git_sha(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return None


def provenance(np, seed):
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "git_sha": git_sha(ROOT),
        "workload_seed": seed,
        "thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
        "source_lines": {
            p.stem: sum(1 for line in p.read_text().splitlines() if line.strip())
            for p in sorted((SRC / PACKAGE).glob("*.py"))
        },
    }


# --------------------------------------------------------------------------
# metrics

def end_to_end(workload, run, setup_times):
    lat = sorted(run["latencies"])
    p50, _ = percentile(lat, 50.0)
    tail, beyond = percentile(lat, workload.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_per_s": (statistics.median(run["cycle_rates"]), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"{workload.rate_name} = {metrics['work_per_s'][0]:.6g} {workload.work_unit}/s "
        f"(reported as work_per_s; median of {len(run['cycle_rates'])} cycles)",
        f"op_p50_ms over {len(lat)} ops; op_tail_ms is p{workload.tail_pct:g} "
        f"with {beyond} samples beyond it",
        f"setup_s is the median of {SETUP_REPEATS} set-ups: {', '.join(f'{t:.4f}' for t in setup_times)}",
        f"timings are at reference speed; as measured: {workload.rate_name} = "
        f"{statistics.median(run['raw_cycle_rates']):.6g}, op_p50_ms = "
        f"{percentile(sorted(run['raw_latencies']), 50.0)[0] * 1e3:.6g}, "
        f"median probe slowdown {statistics.median(run['slowdowns']):.4f}",
    ]
    return metrics, notes


def per_layer(tracer, workload, cache_delta, build_setup_s, overhead_pct):
    t = tracer
    c = t.counters
    wz_calls = t.calls("aggregators.weiszfeld")
    agg_calls = t.calls("aggregators.aggregate")
    kappa_busy = t.busy("audit.empirical_kappa")
    rounds = c.get("engine.rounds", 0)
    hits, misses = cache_delta
    bounds_busy = sum(
        v[1] for (parent, name), v in t.edges.items()
        if name.startswith("bounds.") and not (parent or "").startswith("bounds.")
    )
    m = {
        "aggregators.weiszfeld.calls": (wz_calls, "count"),
        "aggregators.weiszfeld.busy_s": (t.busy("aggregators.weiszfeld"), "s"),
        "aggregators.weiszfeld.iterations": (c.get("weiszfeld.iterations", 0), "count"),
        "aggregators.weiszfeld.iterations_per_call": (
            c.get("weiszfeld.iterations", 0) / wz_calls if wz_calls else 0.0, "count"),
        "aggregators.weiszfeld.maxed_out": (c.get("weiszfeld.maxed_out", 0), "count"),
        "aggregators.aggregate.calls": (agg_calls, "count"),
        "aggregators.aggregate.self_s": (t.self_time("aggregators.aggregate"), "s"),
        "aggregators.nnm.busy_s": (t.busy("aggregators.nnm"), "s"),
        "aggregators.krum.busy_s": (t.busy("aggregators.krum"), "s"),
        "aggregators.cwtm.busy_s": (t.busy("aggregators.cwtm"), "s"),
        "aggregators.stack_points.calls_per_aggregate": (
            t.edge_sum("aggregators.stack_points", "aggregators.", 0) / agg_calls if agg_calls else 0.0, "ratio"),
        "audit.empirical_kappa.calls": (t.calls("audit.empirical_kappa"), "count"),
        "audit.empirical_kappa.self_s": (t.self_time("audit.empirical_kappa"), "s"),
        "audit.aggregate.busy_s": (t.edge_sum("aggregators.aggregate", "audit.", 1), "s"),
        "audit.subsets_checked": (c.get("audit.subsets_checked", 0), "count"),
        "audit.subsets_per_s": (c.get("audit.subsets_checked", 0) / kappa_busy if kappa_busy else 0.0, "1/s"),
        "audit.subset_cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "engine.run.self_s": (t.self_time("engine.run"), "s"),
        "engine.run_round.calls": (t.calls("engine.run_round"), "count"),
        "engine.run_round.self_s": (t.self_time("engine.run_round"), "s"),
        "engine.rounds": (rounds, "count"),
        "engine.us_per_round": (t.busy("engine.run") / rounds * 1e6 if rounds else 0.0, "us"),
        "engine.diverged_runs": (c.get("engine.diverged_runs", 0), "count"),
        "problems.honest_objective.calls": (t.calls("problems.honest_objective"), "count"),
        "problems.honest_objective.busy_s": (t.busy("problems.honest_objective"), "s"),
        "problems.local_update.busy_s": (t.busy("problems.local_update"), "s"),
        "problems.build_s": (build_setup_s + t.busy("problems.build"), "s"),
        "attacks.byzantine_upload.calls": (t.calls("attacks.byzantine_upload"), "count"),
        "attacks.byzantine_upload.busy_s": (t.busy("attacks.byzantine_upload"), "s"),
        "bounds.busy_s": (bounds_busy, "s"),
        "cli.run_sweep.self_s": (t.self_time("cli.run_sweep"), "s"),
        "cli.run_audit.self_s": (t.self_time("cli.run_audit"), "s"),
        "cli.report.busy_s": (t.busy("cli.report"), "s"),
        "cli.rows_written": (workload.io["rows"], "count"),
        "cli.bytes_written": (workload.io["bytes"], "bytes"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.absent_names": (len(t.absent), "count"),
        "trace.spans": (sum(v[0] for v in t.stats.values()), "count"),
    }
    ranking = t.top_self()
    top = ranking[0] if ranking else None
    if workload.predicted_top is not None:
        agrees = top in workload.predicted_top
        predicted = " or ".join(workload.predicted_top)
    else:
        banned = [n for n in t.stats if n.startswith(("aggregators.weiszfeld", "audit."))]
        layers = {n.split(".")[0] for n in ranking[:3]}
        agrees = not banned and layers <= {"aggregators", "problems", "engine", "attacks"}
        predicted = "spread over aggregators, problems and engine; no weiszfeld or audit spans"
    notes = [
        f"largest self_s: {top} (predicted: {predicted}) -> {'agrees' if agrees else 'DISAGREES'}",
        "self_s ranking: " + ", ".join(f"{n}={t.self_time(n):.4f}s" for n in ranking[:6]),
        f"absent names: {', '.join(t.absent) if t.absent else 'none'}",
        f"tracing overhead: {overhead_pct:+.2f}% on {workload.rate_name}",
    ]
    return m, notes, {"top_self": top, "predicted": predicted, "agrees": agrees}


def cache_counts(fr):
    info = getattr(getattr(fr.audit, "_all_subsets", None), "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


# --------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        fail(f"no {PACKAGE} package under {SRC.name}/ of this checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    from spans import Tracer
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if args.seed < 0:
        fail("--seed must be >= 0")
    cls = WORKLOADS[args.workload]
    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    checks = Checks()
    probe = ReferenceProbe(np, cls.probe)
    try:
        setup_times = []
        raw_setup_times = []
        build_setup_s = 0.0
        setup_errors = []
        for r in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            before = probe()
            start = perf_counter()
            fr = import_fresh()
            workdir.mkdir(parents=True)
            workload = cls(fr, args.seed, workdir, checks)
            traced_setup = tracer is not None and r == SETUP_REPEATS - 1
            if traced_setup:
                tracer.install()
            try:
                workload.generate()
                if traced_setup:
                    build_setup_s = tracer.busy("problems.build")
                setup_errors += workload.warm_up()
            finally:
                if traced_setup:
                    tracer.uninstall()
                    tracer.reset()
            raw_setup_times.append(perf_counter() - start)
            setup_times.append(raw_setup_times[-1] / ((before + probe()) / 2.0))
        workload.io.update(rows=0, bytes=0)

        if tracer is None:
            run = measure(workload, args.seconds, 1, probe)
        else:
            plain = measure(workload, args.seconds / 2, 1, probe)
            workload.io.update(rows=0, bytes=0)
            hits0, misses0 = cache_counts(fr)
            tracer.install()
            try:
                run = measure(workload, args.seconds / 2, plain["next_cycle"], probe, tracer)
            finally:
                tracer.uninstall()
            hits1, misses1 = cache_counts(fr)
            run["failures"] = plain["failures"] + run["failures"]
            run["latencies_untraced"] = plain["latencies"]
            untraced_rate = statistics.median(plain["cycle_rates"])
            traced_rate = statistics.median(run["cycle_rates"])
            overhead_pct = (untraced_rate / traced_rate - 1.0) * 100.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = setup_errors + run["failures"]
    attempted = len(run["latencies"]) + len(run.get("latencies_untraced", []))
    failed = len(run["failures"])
    correct = not failures
    if tracer is None:
        metrics, notes = end_to_end(workload, run, setup_times)
        prediction = None
    else:
        metrics, notes, prediction = per_layer(
            tracer, workload, (hits1 - hits0, misses1 - misses0), build_setup_s, overhead_pct
        )
    notes.append(f"error_rate = {failed}/{attempted} = {failed / attempted:.6g} failed ops")
    notes.append("checks run: " + ", ".join(f"{k}={v}" for k, v in sorted(checks.ran.items())))
    for message in failures[:20]:
        notes.append(f"FAILED {message}")

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(np, args.seed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "setup_failures": setup_errors,
        "failures": failures[:100],
        "checks": checks.ran,
        "setup_s_raw": raw_setup_times,
        "cycle_rates": run["cycle_rates"],
        "cycle_rates_raw": run["raw_cycle_rates"],
        "slowdowns": run["slowdowns"],
        "latencies_ms_raw": [round(x * 1e3, 6) for x in run["raw_latencies"]],
        "notes": notes,
        "prediction": prediction,
        "trace_data": tracer.dump() if tracer else None,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
