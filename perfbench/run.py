"""Benchmark of the ial gesture detector.

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect-cnn --seed 1 --seconds 25 --trace 0

Workloads: detect-cnn, detect-fc, pipeline-cnn (see perfbench/README.md).
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The exit code
is nonzero when any output check fails or the program cannot be imported.
Each result is also appended, with the environment it ran in, to
``.perfbench-work/results.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import os

# One BLAS thread, set before numpy loads: the benchmark drives the program
# as one caller with --threads 1, and a second BLAS thread on a small shared
# machine mostly adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("detect-cnn", "detect-fc", "pipeline-cnn")


def environment(seed: int) -> dict:
    """What a result depends on besides the code; results are comparable only when it matches."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path):
    import workloads as wl

    if name == "pipeline-cnn":
        bench = wl.PipelineBench(seed)
    else:
        bench = wl.DetectBench(work, "image" if name == "detect-cnn" else "vector", seed)
    return bench.run_traced() if trace else bench.run(seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "ial").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'ial'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ial.cli  # noqa: F401

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception as exc:  # a crash in the program is a failed check, reported as such
        import traceback

        traceback.print_exc()
        print(f"workload crashed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        res.metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        ok = (res.attempted - res.failed) / res.attempted if res.attempted else 0.0
        res.metrics["ok_share"] = (ok, "ratio")
    spans = res.info.pop("spans", None)
    if spans is not None:
        (WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(spans), encoding="utf-8")
    for problem in res.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if res.info.get("absent"):
        print("absent " + json.dumps(res.info["absent"]))
    correct = res.failed == 0 and res.attempted > 0
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()}
    record = {"workload": args.workload, "trace": args.trace, "env": env, "info": res.info,
              "correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}
    with open(WORK_ROOT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print("info " + json.dumps(res.info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
