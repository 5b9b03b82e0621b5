"""Benchmark of the chebymargin CLI: three workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload train-toy --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops of the same workload for ``--seconds`` and prints
the per-layer metrics with the tracing overhead.  Human-readable
lines come first; the last line of stdout is the JSON result.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from tracing import CHEBY_FUNCS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"
# Fresh processes timing set-up, half before and half after the measurement,
# so that the reported median spans the run rather than one moment of it.
SETUP_PROBES = 8
MIN_OPS = 3  # untraced, and in a traced run also traced, ops per run at least
WORKER_TIMEOUT_S = 120
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The gated end-to-end metrics.  The median op time (wall_s) and its tail
# are printed too, but the gate uses the throughput over the whole run: on a
# shared host whose speed switches between states for tens of seconds, the
# median of a two-state mixture jumps between the states, while the
# throughput moves smoothly with the share of time spent in each.
END_TO_END = {"setup_s": "s", "items_per_s": "items/s", "peak_rss_mb": "MiB"}

# name -> (unit, better); the traced run reports each as a per-op median.
PER_LAYER = {
    **{f"cheby_core.{f}.{k}": (u, "lower") for f in CHEBY_FUNCS
       for k, u in (("calls", "count"), ("self_s", "s"))},
    "cheby_core.points": ("count", "lower"),
    "cheby_core.ns_per_point": ("ns", "lower"),
    "losses.loss_forward.calls": ("count", "lower"),
    "losses.loss_forward.self_s": ("s", "lower"),
    "losses.loss_forward.peak_alloc_mb": ("MiB", "lower"),
    "losses.CosineBatch.self_s": ("s", "lower"),
    "losses.cells": ("count", "lower"),
    "losses.ns_per_cell": ("ns", "lower"),
    "toytrain.train.s": ("s", "lower"),
    "toytrain.train.self_s": ("s", "lower"),
    "toytrain.train.peak_alloc_mb": ("MiB", "lower"),
    "toytrain.make_sphere_clusters.s": ("s", "lower"),
    "toytrain.steps": ("count", "higher"),
    "verif_metrics.parse_trials.s": ("s", "lower"),
    "verif_metrics.parse_trials.peak_alloc_mb": ("MiB", "lower"),
    "verif_metrics.compute_eer.s": ("s", "lower"),
    "verif_metrics.compute_min_dcf.s": ("s", "lower"),
    "verif_metrics.trials": ("count", "higher"),
    "verif_metrics.bytes_read": ("count", "lower"),
    "landscape.export_surfaces.self_s": ("s", "lower"),
    "landscape.export_curves.self_s": ("s", "lower"),
    "landscape.rows_written": ("count", "higher"),
    "landscape.bytes_written": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "bench.generate_s": ("s", "lower"),
}


def _child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env.update({name: str(nproc) for name in BLAS_ENV})
    env.pop("CHEBYMARGIN_SEED", None)  # the seed reaches the program only through argv
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list[str], env: dict) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT), *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc


def _probe_setup(count: int, env: dict) -> list[float]:
    return [json.loads(_worker(["--setup-only"], env).stdout)["setup_s"] for _ in range(count)]


def _measure(spec: dict, env: dict, work_dir: Path) -> dict:
    spec_path, result_path = work_dir / "spec.json", work_dir / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _worker(["--spec", str(spec_path), "--result", str(result_path)], env)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _walls(result: dict, traced: bool) -> list[float]:
    return [op["wall_s"] for op in result["ops"] if op["traced"] == traced and not op["memory"]]


def tail_percentile(values: list[float]):
    """The highest percentile with at least 10 samples above it, as
    ``(percentile, value)``, or None when that percentile is below 50."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def layer_metrics(result: dict, generate_s: float) -> dict:
    """Per-layer metrics: medians over the traced timing ops, peaks from the
    allocation-traced op."""
    timing = [op["layers"] for op in result["ops"] if op["traced"] and not op["memory"]]
    memory = next(op["layers"] for op in result["ops"] if op["memory"])

    def span(summary, name, key):
        return summary["spans"].get(name, {}).get(key, 0)

    def med(fn):
        return statistics.median(fn(s) for s in timing)

    def per(numer, denom):
        return lambda s: 1e9 * numer(s) / denom(s) if denom(s) else 0.0

    def count(key):
        return lambda s: s["counts"].get(key, 0)

    cheby_self = lambda s: sum(span(s, f"cheby_core.{f}", "self_s") for f in CHEBY_FUNCS)  # noqa: E731
    values = {}
    for f in CHEBY_FUNCS:
        for key in ("calls", "self_s"):
            values[f"cheby_core.{f}.{key}"] = med(lambda s: span(s, f"cheby_core.{f}", key))
    values["cheby_core.points"] = med(count("cheby_core.points"))
    values["cheby_core.ns_per_point"] = med(per(cheby_self, count("cheby_core.points")))
    lf_self = lambda s: span(s, "losses.loss_forward", "self_s")  # noqa: E731
    values["losses.loss_forward.calls"] = med(lambda s: span(s, "losses.loss_forward", "calls"))
    values["losses.loss_forward.self_s"] = med(lf_self)
    values["losses.CosineBatch.self_s"] = med(lambda s: span(s, "losses.CosineBatch", "self_s"))
    values["losses.cells"] = med(count("losses.cells"))
    values["losses.ns_per_cell"] = med(per(lf_self, count("losses.cells")))
    values["toytrain.train.s"] = med(lambda s: span(s, "toytrain.train", "s"))
    values["toytrain.train.self_s"] = med(lambda s: span(s, "toytrain.train", "self_s"))
    values["toytrain.make_sphere_clusters.s"] = med(
        lambda s: span(s, "toytrain.make_sphere_clusters", "s"))
    values["toytrain.steps"] = med(count("toytrain.steps"))
    for name in ("parse_trials", "compute_eer", "compute_min_dcf"):
        values[f"verif_metrics.{name}.s"] = med(lambda s: span(s, f"verif_metrics.{name}", "s"))
    values["verif_metrics.trials"] = med(count("verif_metrics.trials"))
    values["verif_metrics.bytes_read"] = med(count("verif_metrics.bytes_read"))
    for name in ("export_surfaces", "export_curves"):
        values[f"landscape.{name}.self_s"] = med(lambda s: span(s, f"landscape.{name}", "self_s"))
    values["landscape.rows_written"] = med(count("landscape.rows_written"))
    values["landscape.bytes_written"] = med(count("landscape.bytes_written"))
    values["cli.main.self_s"] = med(lambda s: span(s, "cli.main", "self_s"))
    for name in ("losses.loss_forward", "toytrain.train", "verif_metrics.parse_trials"):
        values[f"{name}.peak_alloc_mb"] = span(memory, name, "peak_bytes") / 2**20
    values["trace.overhead_s"] = (statistics.median(_walls(result, True))
                                  - statistics.median(_walls(result, False)))
    values["bench.generate_s"] = generate_s
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}


def _provenance(spec: dict, result: dict, nproc: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chebymargin").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": result["python"],
        "numpy": result["blas"]["numpy"],
        "blas": result["blas"]["name"],
        "blas_version": result["blas"]["version"],
        "blas_threads": result["blas"]["threads"],
        "blas_env": {name: str(nproc) for name in BLAS_ENV},
        "nproc": nproc,
        "workload": spec["workload"],
        "seed": spec["seed"],
        "argv": [["chebymargin", *argv] for argv in spec["ops"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chebymargin" / "__init__.py").is_file():
        print(f"bench: no chebymargin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker,
    # and the per-run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)
    work_dir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    (WORK_ROOT / "results").mkdir(parents=True, exist_ok=True)
    work_dir.mkdir()
    try:
        spec = workloads.prepare(args.workload, args.seed,
                                 os.path.relpath(work_dir, ROOT), tiny=args.tiny)
        spec.update(trace=bool(args.trace), seconds=args.seconds, min_ops=MIN_OPS,
                    spans_path=str(WORK_ROOT / "results" /
                                   f"{args.workload}-seed{args.seed}-spans.jsonl"))
        setup = _probe_setup(SETUP_PROBES // 2, env)
        result = _measure(spec, env, work_dir)
        setup += _probe_setup(SETUP_PROBES - SETUP_PROBES // 2, env) + [result["setup_s"]]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [op for op in result["ops"] if op["errors"]]
    walls = _walls(result, traced=False)
    setup_s = statistics.median(setup)
    # Throughput over the whole measurement: every item done over all op time.
    items_per_s = spec["items_per_op"] * len(walls) / sum(walls)
    if args.trace:
        metrics = layer_metrics(result, spec["generate_s"])
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in
                   (("setup_s", setup_s), ("items_per_s", items_per_s),
                    ("peak_rss_mb", result["peak_rss_mb"]))}

    print(f"workload {args.workload}  seed {args.seed}  {len(walls)} untraced ops timed, "
          f"{len(result['ops'])} attempted, {len(failed)} failed")
    for op in failed[:5]:
        print(f"  failed op: {'; '.join(op['errors'])}")
    print(f"  setup_s      {setup_s:.6f} s    (median of {len(setup)} fresh processes)")
    print(f"  wall_s       {statistics.median(walls):.6f} s    (median of {len(walls)} ops)")
    tail = tail_percentile(walls)
    if tail:
        print(f"  wall_s p{tail[0]:.0f}   {tail[1]:.6f} s")
    if len(spec["ops"]) > 1:
        untraced = [op for op in result["ops"] if not op["traced"]]
        print("  per invocation: " + ", ".join(
            f"{' '.join(argv[:3])} {statistics.median(op['walls'][i] for op in untraced):.6f} s"
            for i, argv in enumerate(spec["ops"])))
    print(f"  items_per_s  {items_per_s:.2f} {spec['item_unit']}/s"
          f"  ({spec['items_per_op']} {spec['item_unit']} per op)")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MiB")
    print(f"  failed_ratio {len(failed) / len(result['ops']):.4f}")
    if spec["generate_s"]:
        print(f"  input generation {spec['generate_s']:.3f} s (not in any other metric)")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")

    record = {"provenance": _provenance(spec, result, nproc), "metrics": metrics,
              "wall_s_ops": walls, "setup_s_samples": setup,
              "failures": [op["errors"] for op in failed]}
    print("provenance " + json.dumps(record["provenance"]))
    out = WORK_ROOT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not failed, "attempted": len(result["ops"]),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
