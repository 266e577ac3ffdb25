"""Run one benchmark workload against the callab sources in ./src.

Run from the repository root:

    python3 perfbench/run.py --workload motif-demo --seed 1 --seconds 10 --trace 0

Prints the environment as a JSON line, then (traced runs) the cross-check
of counts against ROADMAP's baseline, then as the last line the result
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` repeats the run with tracing on and
reports the per-layer metrics, writing the spans to
``perfbench/out/spans-<workload>-seed<seed>.tsv``.

Exit codes: 0 all output checks passed, 1 an output check failed, 2 bad
usage or no callab sources under ./src.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# One BLAS thread unless the caller chose otherwise. Must happen before numpy
# is imported. On a shared 2-core box a second BLAS thread spins against the
# neighbours' load and turns it into run-to-run noise larger than the gains
# this benchmark has to resolve; on a quiet box it changes step times little.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
IMPORT_REPS = 5
IMPORT_CODE = "import time; t = time.perf_counter(); import callab; print(time.perf_counter() - t)"


def import_seconds(src: str) -> float:
    """Median time to import callab, numpy with it, in a fresh interpreter.

    One import per process is all a process gets, so the repetitions run in
    child interpreters, one at a time, each waited for.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
        times.append(float(proc.stdout))
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "callab", "__init__.py")):
        print(f"perfbench: no callab sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    import_s = import_seconds(src)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from benchlib.envinfo import environment
    from benchlib.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    print(json.dumps({"env": environment(root)}))
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          out_dir, import_s)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv"))
    crosscheck = result.pop("crosscheck", None)
    if crosscheck is not None:
        print(json.dumps({"crosscheck_vs_roadmap": crosscheck or "all counts match"}))
    for note in result.pop("notes"):
        print(f"perfbench: check failed: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
