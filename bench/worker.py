"""One benchmark process: set up chebymargin, then run ops of one workload.

Usage (started by ``run.py``, from the root of a checkout):

    python3 bench/worker.py ROOT --setup-only
    python3 bench/worker.py ROOT --spec SPEC.json --result RESULT.json

The process is single-threaded apart from BLAS, whose thread count the
parent caps through the environment.  ``setup_s`` covers ``import
chebymargin`` plus the program's first-call set-up: building the CLI parser
and the first fill of the series-coefficient cache.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import sys
import time
import tracemalloc


def _set_up(root: str):
    """Import chebymargin from ``ROOT/src`` and do its first-call set-up."""
    src = os.path.join(root, "src")
    start = time.perf_counter()
    sys.path.insert(0, src)
    import chebymargin
    from chebymargin import cli, losses

    cli.build_parser()
    losses.transform_target_logit(losses.LossSpec(losses.LossKind.CHEBY_AAM), 0.5)
    setup_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(chebymargin.__file__)) != os.path.join(src, "chebymargin"):
        raise ImportError(f"chebymargin imported from {chebymargin.__file__}, not {src}")
    return setup_s


def _blas() -> dict:
    """BLAS library from numpy's build config, and its live thread count.

    The thread count is read from the loaded OpenBLAS itself; it is None
    when the library is not OpenBLAS.
    """
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads,
            "numpy": np.__version__}


def _run_op(main, spec: dict) -> tuple[float, list[float], list[str], list[str]]:
    """Run every invocation of one op; return wall, per-call walls, stdouts, errors."""
    walls, stdouts, errors = [], [], []
    for argv in spec["ops"]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = main(argv)
                finally:
                    walls.append(time.perf_counter() - start)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code = None
            errors.append(f"{argv[0]} raised {exc!r}")
        if code not in (0, None):
            errors.append(f"{argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
        stdouts.append(out.getvalue())
    return sum(walls), walls, stdouts, errors


def run(root: str, spec: dict) -> dict:
    setup_s = _set_up(root)
    from chebymargin import cheby_core, cli, landscape, losses, toytrain, verif_metrics

    import tracing
    import workloads

    tracer = tracing.Tracer()
    patches = tracing.layer_patches(tracer, {
        "cheby_core": cheby_core, "losses": losses, "toytrain": toytrain,
        "verif_metrics": verif_metrics, "landscape": landscape, "cli": cli,
    })
    traced_main = tracer.wrap("cli.main", cli.main)
    ops: list[dict] = []
    reference = None

    def one_op(traced: bool, memory: bool = False) -> None:
        nonlocal reference
        gc.collect()
        tracing.set_traced(patches, traced)
        tracer.op_id, tracer.memory = len(ops), memory
        if memory:
            tracemalloc.start()
        wall, walls, stdouts, errors = _run_op(traced_main if traced else cli.main, spec)
        if memory:
            tracemalloc.stop()
        tracing.set_traced(patches, False)
        if not errors:
            try:
                errors = workloads.check_op(spec, stdouts, first=not ops)
                fingerprint = workloads.digest(spec, stdouts)
            except (ValueError, IndexError, OSError) as exc:  # malformed or missing output
                errors, fingerprint = [f"output check raised {exc!r}"], None
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                errors.append("outputs differ from the first op's bytes")
        op = {"wall_s": wall, "walls": walls, "errors": errors, "traced": traced,
              "memory": memory}
        if traced:
            op["layers"] = tracer.op_summary(len(ops))
        ops.append(op)

    def timed(traced: bool) -> int:
        return sum(op["traced"] == traced and not op["memory"] for op in ops)

    if spec["trace"]:
        # Allocation tracing slows Python-heavy code severalfold, so peak
        # allocations come from one op of their own, excluded from timings.
        one_op(traced=True, memory=True)
    # A traced run alternates untraced and traced ops, so both see the same
    # host conditions and their difference is the tracing overhead.
    deadline = time.perf_counter() + spec["seconds"]
    while (timed(False) < spec["min_ops"] or (spec["trace"] and timed(True) < spec["min_ops"])
           or time.perf_counter() < deadline):
        one_op(traced=spec["trace"] and timed(True) < timed(False))

    if spec["trace"]:
        tracer.dump(spec["spans_path"])
    return {
        "setup_s": setup_s,
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": _blas(),
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spec")
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": _set_up(args.root)}))
        return 0
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(args.root, spec)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
