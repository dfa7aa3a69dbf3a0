"""isotropykit benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``
of that checkout and nowhere else.  Workloads are defined in
``workloads.py``.  A run

1. times set-up (``import`` of the package plus input generation) in
   SETUP_PROBES fresh child processes and reports the median as ``setup_s``;
2. runs untraced passes for ``--seconds`` (the first one warms up) and reports
   ``ops_per_s`` from the median wall time of each timing sample (a block of
   ops, or the slice of a suite that records one claim), so that short
   stalls of a shared machine do not move it; ``ok_frac`` (the share of ops that pass every check, tolerance
   checks included, so that it is never 0), ``setup_s`` and ``peak_rss_mb``
   complete the end-to-end metrics;
3. with ``--trace 1``, alternates untraced and traced passes for
   ``--seconds`` and reports per-layer calls and self times per pass instead,
   plus the tracing overhead; the traced passes must give the same outputs as
   the untraced ones and the same call counts on every pass;
4. checks every output, writes the full result (environment, pass times,
   failure breakdowns, all spans) under ``.perfbench_out/``, and prints one
   JSON object as the last line of standard output.  Its ``failed`` counts
   the ops that failed outright (see ``workloads.Outcome.hard_failed``); a
   frames-mixed system that completes but misses a scale-relative tolerance
   lowers ``ok_frac`` instead.

BLAS and OpenMP threads are pinned to 1 before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
MIN_PASSES = 3
WORKLOAD_NAMES = ("verify-rank", "verify-claims", "bulk-ti-stress", "frames-mixed")


def _import_package():
    """Import isotropykit from this checkout's ``src`` or exit nonzero."""
    if not (SRC / "isotropykit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'isotropykit'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import isotropykit
    if Path(isotropykit.__file__).resolve().parent != (SRC / "isotropykit").resolve():
        sys.exit(f"error: isotropykit imported from {isotropykit.__file__}")
    import workloads
    return workloads


def _environment():
    import numpy as np
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def setup_probe(name, seed):
    """Child process: time package import plus input generation."""
    start = time.perf_counter()
    workloads = _import_package()
    workload = workloads.WORKLOADS[name]()
    OUT_DIR.mkdir(exist_ok=True)
    workload.setup(seed, OUT_DIR)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def _setup_seconds(name, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


@dataclass
class Passes:
    """Pass times, timing samples and span ranges of one mode (traced or not),
    and the outputs of its first and its last pass."""

    times: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    first: object = None
    last: object = None


def _timed_passes(workload, budget, tracer=None):
    """Passes until ``budget`` seconds are spent (at least MIN_PASSES per mode).

    With a tracer, untraced and traced passes alternate, so that both see the
    same machine load and their ratio is the tracing overhead.  The first
    pass of each mode warms up: its timing samples are dropped, and its
    outputs are the reference the last pass is compared with.
    """
    modes = {False: Passes(), True: Passes()}
    deadline = time.perf_counter() + budget
    n = 0
    while n < MIN_PASSES * (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and n % 2 == 1
        run = modes[traced]
        gc.collect()
        if traced:
            tracer.install()
        first_span = len(tracer.start) if traced else 0
        try:
            start = time.perf_counter()
            run.last, pass_samples = workload.run_pass(tracer if traced else None)
            run.times.append(time.perf_counter() - start)
        finally:
            if traced:
                tracer.uninstall()
        run.spans.append((first_span, len(tracer.start) if traced else 0))
        if run.first is None:
            run.first = run.last
        else:
            run.samples += pass_samples
        n += 1
    return modes[False], modes[True]


def _ops_per_s(samples):
    """Ops of one pass over the sum of per-key median sample times."""
    by_key = {}
    for key, seconds, ops in samples:
        by_key.setdefault(key, (ops, []))[1].append(seconds)
    ops = sum(n for n, _ in by_key.values())
    return ops / sum(statistics.median(t) for _, t in by_key.values())


# functions whose calls / self time / time per call are per-layer metrics
PER_LAYER_FUNCTIONS = (
    "analysis.jacobian_rank",
    "classical_bases.boehler.evaluate", "classical_bases.smith_vectors.evaluate",
    "classical_bases.smith_sym_tensors.evaluate",
    "classical_bases.boehler_scalars", "classical_bases.smith_vectors",
    "classical_bases.smith_sym_tensors",
    "lin3.eig_sym", "lin3.svd3", "lin3.tensor_system", "lin3.conjugate",
    "lin3.haar_rotation",
    "spectral_frame.build_frame", "spectral_frame.build_svd_frame",
    "spectral_frame.extract_invariants", "spectral_frame.rebuild_system",
    "potentials.hyperelastic_stress", "potentials.grad_vector",
    "potentials.grad_sym_tensor", "potentials.grad_nonsym_tensor",
    "representation.project_tensor", "representation.project_vector",
    "representation.reconstruct_tensor", "representation.check_p_property",
    "cli.run_isotropy", "cli.run_reconstruction", "cli.run_rank", "cli.run_gradients",
    "cli.run_p_property", "cli.run_coalescence", "cli.run_hyperelastic",
)
UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}


def _layer_metrics(tracer, spans, untraced_rate, traced_rate, worst):
    """Per-layer metrics of the traced passes (medians over passes), the full
    per-span table, and whether call counts repeat on every pass."""
    from tracer import CHART_EVALS, ENERGY_EVALS, GRADIENTS, LAYERS

    per_pass = [tracer.summarize(a, b) for a, b in spans]
    calls_repeat = all(p[n][0] == per_pass[0][n][0] for p in per_pass for n in tracer.names)
    table = {}
    for name in tracer.names:
        calls = per_pass[0][name][0]
        total = statistics.median(p[name][1] for p in per_pass)
        table[name] = {"calls": calls,
                       "self_s": statistics.median(p[name][2] for p in per_pass),
                       "us_per_call": 1e6 * total / calls if calls else 0.0}

    metrics = {}
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = (
            sum(row["self_s"] for k, row in table.items() if k.split(".")[0] == layer), "s")
    for name in PER_LAYER_FUNCTIONS:
        fields = ("self_s",) if name.startswith("cli.") else ("calls", "self_s", "us_per_call")
        for field in fields:
            metrics[f"{name}.{field}"] = (table[name][field], UNITS[field])
    metrics["cli.json_write_s"] = (table["cli.json_write"]["self_s"], "s")

    def ratio(count, base):
        return (count / base if base else 0.0, "ratio")

    n_pass = len(per_pass)
    rank_calls = table["analysis.jacobian_rank"]["calls"]
    # jacobian_rank evaluates the list once at the base point and once per
    # chart point; the chart evaluations are counted at ambient_chart
    metrics["analysis.values_evals_per_rank"] = ratio(
        tracer.counters.get(CHART_EVALS, 0) / n_pass + rank_calls, rank_calls)
    metrics["potentials.energy_evals_per_grad"] = ratio(
        tracer.counters.get(ENERGY_EVALS, 0) / n_pass,
        sum(table[f"potentials.{g}"]["calls"] for g in GRADIENTS))
    # eigendecompositions made inside one stress evaluation
    metrics["lin3.eig_sym_per_point"] = ratio(
        tracer.count_under("lin3.eig_sym", "potentials.hyperelastic_stress", *spans[0]),
        table["potentials.hyperelastic_stress"]["calls"])
    metrics["trace.overhead"] = (untraced_rate / traced_rate - 1.0, "ratio")
    metrics["checks.worst_margin"] = (worst, "ratio")
    return metrics, table, calls_repeat


def run_workload(name, seed, seconds, trace):
    workloads = _import_package()
    from tracer import Tracer

    setup_s, setup_samples = _setup_seconds(name, seed)
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed, OUT_DIR)
    tracer = Tracer() if trace else None
    plain, traced = _timed_passes(workload, seconds, tracer)
    rate = _ops_per_s(plain.samples)
    outcome = workload.check(plain.first, plain.last)
    # every pass must give the same outputs as the first one
    deterministic = workload.check(plain.first, plain.first).digest == outcome.digest
    correct = deterministic and outcome.hard_failed == 0
    passes = len(plain.times) + len(traced.times)
    result = {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": _environment(), "ops_per_pass": workload.ops_per_pass,
        "setup_samples_s": setup_samples, "pass_times_s": plain.times,
        "timing_samples": plain.samples, "failed_per_pass": outcome.failed,
        "hard_failed_per_pass": outcome.hard_failed, "worst_margin": outcome.worst_margin,
        "detail": outcome.detail, "output_digest": outcome.digest,
        "deterministic": deterministic,
    }
    if not trace:
        metrics = {
            "ops_per_s": (rate, "1/s"),
            "setup_s": (setup_s, "s"),
            "ok_frac": (1.0 - outcome.failed / workload.ops_per_pass, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        t_outcome = workload.check(plain.first, traced.last)
        metrics, table, calls_repeat = _layer_metrics(
            tracer, traced.spans, rate, _ops_per_s(traced.samples), outcome.worst_margin)
        same_outputs = t_outcome.digest == outcome.digest and t_outcome.failed == outcome.failed
        correct = correct and same_outputs and calls_repeat
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
        tracer.write(spans_path)
        result.update({"traced_pass_times_s": traced.times, "layers": table,
                       "tracer_self_check": {"same_outputs": same_outputs,
                                             "calls_repeat": calls_repeat},
                       "spans_file": spans_path.name, "span_count": len(tracer.start)})
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["correct"] = correct
    out_path = OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")
    _print_summary(result, out_path)
    print(json.dumps({"correct": bool(correct),
                      "attempted": workload.ops_per_pass * passes,
                      "failed": outcome.hard_failed * passes,
                      "metrics": result["metrics"]}))


def _print_summary(result, out_path):
    env, times, ops = result["environment"], result["pass_times_s"], result["ops_per_pass"]
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"workload {result['workload']}: {result['why']}")
    print(f"environment: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} blas_threads={env['blas_threads']}")
    print(f"passes={len(times)} ops/pass={ops} pass_s q1={q1:.4f} median={med:.4f} "
          f"q3={q3:.4f}")
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in result["setup_samples_s"]))
    print(f"failed_frac={result['failed_per_pass'] / ops:.6f} ({result['failed_per_pass']}/"
          f"{ops} per pass, {result['hard_failed_per_pass']} raised or non-finite) "
          f"worst_margin={result['worst_margin']:.6g} deterministic={result['deterministic']}")
    for key, value in result["detail"].items():
        print(f"{key}: {json.dumps(value)}")
    if result["trace"]:
        check = result["tracer_self_check"]
        print(f"traced passes={len(result['traced_pass_times_s'])} "
              f"overhead={result['metrics']['trace.overhead']['value']:.3f} "
              f"self-check outputs={check['same_outputs']} calls_repeat={check['calls_repeat']}")
        print(f"{'span':48s} {'calls/pass':>10s} {'self_s/pass':>12s} {'us/call':>10s}")
        for span_name, row in sorted(result["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            if row["calls"]:
                print(f"{span_name:48s} {row['calls']:10d} {row['self_s']:12.6f} "
                      f"{row['us_per_call']:10.1f}")
    else:
        for key, metric in result["metrics"].items():
            print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"full result: {out_path.relative_to(ROOT)}")


def run_all(seed, seconds, trace):
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, value in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
