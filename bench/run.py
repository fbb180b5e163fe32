"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload hidden --seed 1 --seconds 60 --trace 0

The program is imported from the checkout's ``src/`` and nowhere else. With
``--trace 0`` the run measures the end-to-end metrics with tracing off; with
``--trace 1`` it reports the per-layer metrics from traced passes at one
worker. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result (host
record, per-pass samples, image SHA-256, failure messages) is saved as JSON
under ``--out``; a traced run also writes its spans to ``.bench_out/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up can take a few milliseconds, and the host's speed for such
# interpreter-bound code changes within seconds. So a part's set-up is
# sampled between every two steps of the pass (at least once and for
# SETUP_GAP_S seconds), and its median draws on the whole run. A part's
# forward synthesis is sampled after each pass, at least once and for
# FORWARD_S seconds. Each metric sums the parts' medians.
SETUP_GAP_S = 0.02
FORWARD_S = 0.3
POOL_REPS = 3


def _import_program() -> None:
    """Put the checkout's src/ first on the path, or exit without a result."""
    if not (SRC / "rtbpa" / "__init__.py").is_file():
        sys.exit(f"error: no rtbpa package under {SRC}; run the benchmark "
                 f"from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_record() -> dict:
    """CPU, interpreter, numpy and BLAS facts the timings depend on."""
    import ctypes
    import platform

    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    # numpy's bundled OpenBLAS reports the thread count it will use.
    blas_threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            blas_threads = fn()
            break
    env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "BLIS_NUM_THREADS", "RTBPA_WORKERS")
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "thread_env": {k: os.environ.get(k) for k in env},
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def repeat(fn, seconds, reps=0) -> list:
    """Durations of fn() over at least `reps` calls and `seconds` seconds."""
    out = []
    while len(out) < reps or sum(out) < seconds:
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return out


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def passes_for(seconds, one_pass) -> list:
    """Passes until the next one would overrun `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(one_pass())
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            return passes


def timed_run(parts, seed, seconds, workdir, tracer):
    """End-to-end metrics, tracing off."""
    from pipeline import run_pass, setup, warm_up
    from workloads import add_noise

    scenarios = [warm_up(part, seed, tracer) for part in parts]
    setup_s = {part.name: [] for part in parts}
    forward_s = {part.name: [] for part in parts}

    def sample_setup(part):
        setup_s[part.name].extend(
            repeat(lambda: setup(part, seed, tracer), SETUP_GAP_S, reps=1))

    def one_pass():
        p = run_pass(parts, seed, workdir, tracer, nproc(), sample_setup)
        if p.complete:
            for part, scenario in zip(parts, scenarios):
                forward_s[part.name].extend(repeat(
                    lambda: add_noise(part.synthesize(scenario, seed), seed),
                    FORWARD_S, reps=1))
        return p

    passes = passes_for(seconds, one_pass)
    done = [p for p in passes if p.complete]
    if not done:
        return passes, {}, {}
    med = statistics.median
    metrics = {
        "total_s": _metric(med([p.total_s for p in done]), "s"),
        "setup_s": _metric(sum(med(v) for v in setup_s.values()), "s"),
        "forward_s": _metric(sum(med(v) for v in forward_s.values()), "s"),
        "recon_vox_per_s": _metric(
            med([p.voxels / p.recon_s for p in done]), "1/s"),
        "recon_par_vox_per_s": _metric(
            med([p.voxels / p.recon_par_s for p in done]), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }
    return passes, metrics, {"setup_samples": setup_s,
                             "forward_samples": forward_s}


def pool_overhead_s(workers: int) -> float:
    """naive_bpa at `workers` minus at 1 worker, on a 1-antenna, 1-frequency
    measurement set over the logo_o2 grid: what the pool itself costs."""
    import numpy as np
    from rtbpa.fields import FrequencySweep, MeasurementSet
    from rtbpa.imaging import naive_bpa
    from workloads import PARTS

    logo = PARTS["logo_o2"]
    grid = logo.grid(logo.scenario())
    data = MeasurementSet(
        tx_positions=np.zeros((1, 3)), rx_positions=[[0.0, 1.0, 0.7]],
        copol=[1.0, 0.0, 0.0], sweep=FrequencySweep(18e9, 18e9, 1e8),
        samples=np.ones((1, 1, 1)), mode="radiation")

    def timed(w):
        return statistics.median(repeat(
            lambda: naive_bpa(data, grid, workers=w), 0.0, POOL_REPS))

    return timed(workers) - timed(1)


def traced_run(name, parts, seed, seconds, workdir, tracer, trace_file):
    """Per-layer metrics from traced passes at one worker.

    One untraced pass (with the parallel repeat) comes first: it gives the
    untraced total_s for the tracing overhead and the parallel speedup.
    """
    from pipeline import run_pass, warm_up
    from tracing import layer_times

    for part in parts:
        warm_up(part, seed, tracer)
    pool_s = pool_overhead_s(nproc())
    base = run_pass(parts, seed, workdir, tracer, nproc())
    traced = []
    per_part = {}

    def one_traced_pass():
        run_id = f"{name}:{seed}:{len(traced)}"
        with tracer.recording_run(run_id):
            p = run_pass(parts, seed, workdir, tracer, None)
        traced.append((layer_times(tracer.run_spans(run_id)),
                       dict(tracer.counts)))
        if len(traced) == 1:
            per_part.update({
                part.name: layer_times(tracer.run_spans(f"{run_id}/"
                                                        f"{part.name}"))
                for part in parts})
        return p

    with tracer.installed():
        passes = passes_for(seconds - base.total_s - base.recon_par_s,
                            one_traced_pass)
    tracer.write(trace_file)
    extra = {"counts": traced[0][1],
             "counts_repeat": all(c == traced[0][1] for _, c in traced),
             "unwrapped": tracer.unwrapped,
             "layer_times_by_part": per_part}
    if not (base.complete and all(p.complete for p in passes)):
        return [base] + passes, {}, extra
    keys = set().union(*(tm for tm, _ in traced))
    times = defaultdict(float, {
        k: statistics.median([tm.get(k, 0.0) for tm, _ in traced])
        for k in keys})
    counts = defaultdict(int, traced[0][1])
    traced_total = statistics.median([p.total_s for p in passes])
    return [base] + passes, per_layer(times, counts, base, traced_total,
                                      pool_s), extra


def per_layer(t, counts, base, traced_total, pool_s) -> dict:
    """Per-layer metrics. Times are summed over the spans of a traced pass
    (median over passes); '/self' subtracts the time child spans cover."""
    def frac(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    m = {
        "scenes.build_s": (t["scenes.build"], "s"),
        "scenes.self_s": (t["scenes/self"], "s"),
        "propagation.table_init_s": (t["propagation.table_init"], "s"),
        "propagation.sequences": (counts["propagation.sequences"], "count"),
        "propagation.eval_s": (t["propagation.eval"], "s"),
        "propagation.eval_calls": (counts["propagation.eval_calls"], "count"),
        "propagation.legs_evaluated": (counts["propagation.legs_evaluated"],
                                       "count"),
        "propagation.legs_valid_frac": (
            frac("propagation.legs_valid", "propagation.legs_evaluated"),
            "frac"),
        "propagation.sbr_trace_s": (t["propagation.sbr_trace"], "s"),
        "propagation.sbr_calls": (counts["propagation.sbr_calls"], "count"),
        "propagation.sbr_paths": (counts["propagation.sbr_paths"], "count"),
        "propagation.self_s": (t["propagation/self"], "s"),
        "fields.leg_weights_s": (t["fields.leg_weights"], "s"),
        "fields.legs_weighed": (counts["fields.legs_weighed"], "count"),
        "fields.legs_nonzero_frac": (
            frac("fields.legs_nonzero", "fields.legs_weighed"), "frac"),
        "fields.synth_s": (t["fields.synth/self"], "s"),
        "fields.self_s": (t["fields/self"], "s"),
        "imaging.self_s": (t["imaging.rt_bpa/self"], "s"),
        "imaging.sum_entries": (counts["imaging.sum_entries"], "count"),
        "imaging.sum_entries_nonzero": (
            counts["imaging.sum_entries_nonzero"], "count"),
        "imaging.chunks": (counts["imaging.chunks"], "count"),
        "imaging.pool_overhead_s": (pool_s, "s"),
        "imaging.par_speedup": (base.recon_s / base.recon_par_s, "x"),
        "imaging.metrics_s": (t["imaging.metrics"], "s"),
        "io.write_s": (t["io.write"], "s"),
        "io.read_s": (t["io.read"], "s"),
        "io.bytes_written": (base.bytes_written, "B"),
        "io.self_s": (t["io/self"], "s"),
        "trace.overhead_s": (traced_total - base.total_s, "s"),
    }
    return {k: _metric(v, u) for k, (v, u) in m.items()}


def main(argv=None) -> int:
    _import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results",
                        help="directory for the full result file")
    args = parser.parse_args(argv)

    parts = WORKLOADS[args.workload]
    host = host_record()
    print(f"host: {json.dumps(host)}")
    started = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(started))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    workdir = OUT / "tmp" / tag
    workdir.mkdir(parents=True)
    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            passes, metrics, extra = traced_run(
                args.workload, parts, args.seed, args.seconds, workdir,
                Tracer(),
                trace_dir / f"{tag}.jsonl")
        else:
            passes, metrics, extra = timed_run(
                parts, args.seed, args.seconds, workdir, Tracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Same seed, same inputs: every pass must give the first pass's image.
    done = [p for p in passes if p.complete]
    for p in done[1:]:
        if p.image_sha256 != done[0].image_sha256:
            for op in p.ops:
                if op.startswith("recon:"):
                    p.ops[op].append("image differs from the first pass")
    failures = [f"{op}: {msg}" for p in passes for op, fails in p.ops.items()
                for msg in fails]
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    shas = sorted({p.image_sha256 for p in done})
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    if not metrics:
        print("error: a pass did not complete", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["ok_frac"] = _metric(1.0 - failed / attempted, "frac")
    for name, m in metrics.items():
        print(f"{args.workload:13s} {name:30s} {m['value']:.6g} {m['unit']}")
    print(f"image sha256: {' '.join(shas)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "started_unix": started,
        "host": host, "image_sha256": shas, "failures": failures,
        "passes": [{k: v for k, v in vars(p).items() if k != "ops"}
                   for p in passes],
        "result": result, **extra,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
