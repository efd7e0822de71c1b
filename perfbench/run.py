"""nclab benchmark: seeded workloads timing `connes`, `verify-identity`
and the exporters, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an nclab checkout.  For `--seconds` seconds one
child process takes samples one after the other (load comes from one
process): it imports nclab from `src/` and builds the seeded config,
then forks one process per sample, which calls `nclab.cli.main` in
process; every seventh sample is a fresh interpreter instead, which
also measures set-up.  Samples alternate between the allowed CPUs
(see child.py).  Every sample's outputs are checked against analytic
values and compared by hash with the first sample's.  The last line
of stdout is one JSON object with the end-to-end metrics (`--trace 0`)
or the per-layer metrics (`--trace 1`, where every other sample is
traced).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COMPUTED, METRICS, applicable
from workloads import WORKLOADS

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 150.0  # the whole run stays well inside three minutes
CALM_FRESH = 5  # fresh samples whose set-up times give setup_s


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": THREAD_PIN,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def collect(args, root: Path, work: Path, config: Path) -> list[dict]:
    """Samples from one fork server (see child.py), in a process group
    of its own that is killed as a whole if it overruns DEADLINE_S."""
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    seconds = args.seconds - (time.perf_counter() - START)
    cmd = [sys.executable, str(HERE / "child.py"), "serve", args.workload, str(config), str(work),
           repr(seconds), str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=DEADLINE_S - (time.perf_counter() - START))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return [{"failures": ["samples timed out"], "traced": False}]
    finally:
        if proc.poll() is None:  # interrupted: stop the server and its samples
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    samples_path = work / "samples.json"
    if proc.returncode != 0 or not samples_path.exists():
        return [{"failures": [f"sample server exited with {proc.returncode}: {stderr.strip()[-2000:]}"],
                 "traced": False}]
    if stderr.strip():
        print(stderr.strip()[-4000:], file=sys.stderr)
    return json.loads(samples_path.read_text())


def check_determinism(samples: list[dict]) -> None:
    """Every sample's output hashes must equal the first's; the first is
    a fresh interpreter, so a hash-seed dependence shows against the
    forks, which share the server's seed."""
    ref = samples[0].get("hashes")
    for sample in samples[1:]:
        hashes = sample.get("hashes")
        if ref is not None and hashes is not None and hashes != ref:
            differ = sorted(f for f in set(ref) | set(hashes) if ref.get(f) != hashes.get(f))
            sample["failures"].append(f"outputs differ from the first sample: {differ}")


def end_to_end(samples: list[dict]) -> dict:
    """`wall_s` is the fastest sample: the calls are deterministic and
    single-threaded, so every slower sample measures other tenants of
    the machine, which slow calls by up to 1.8x in phases of up to tens
    of seconds and move a median by 20 % or more.  Set-up and memory
    come from fresh samples only: a fork skips the interpreter's start
    and its peak memory starts from the server's current size.  Memory
    is the median over all of them.  Set-up is the median over the
    CALM_FRESH whose calls ran fastest: a call runs right after its
    set-up, so a fast one marks a calm moment, and set-up (mostly
    reading and mapping files) slows by up to 1.5x in slow phases, where
    the fastest call slows by under 10 %."""
    metrics = {}
    fresh = [c for c in samples if c.get("fresh") and "wall_s" in c]
    calm = sorted(fresh, key=lambda c: c["wall_s"])[:CALM_FRESH]
    for name, unit, stat, pool in (("wall_s", "s", min, samples), ("setup_s", "s", statistics.median, calm),
                                   ("peak_rss_mb", "MB", statistics.median, fresh)):
        values = [c[name] for c in pool if name in c]
        if values:
            metrics[name] = {"value": stat(values), "unit": unit}
    return metrics


def summary(samples: list[dict]) -> dict:
    walls = [c["wall_s"] for c in samples if "wall_s" in c]
    if not walls:
        return {"n": len(samples)}
    return {"n": len(samples), "fresh": sum(1 for c in samples if c.get("fresh")), "wall_s_min": min(walls), "wall_s_median": statistics.median(walls),
            "wall_s_max": max(walls)}


def per_layer(samples: list[dict], kind: str) -> tuple[dict, list[str]]:
    """Mean over traced samples of each layer's self time and counters
    (means, so the self times add up to trace.wall_s); metrics of layers
    the workload does not call are 0 and listed as not applicable.  The
    tracing overhead compares fastest samples, like `wall_s`."""
    traced = [c["layers"] for c in samples if c["traced"] and "layers" in c]
    untraced = [c["wall_s"] for c in samples if not c["traced"] and "wall_s" in c]
    layers = applicable(kind)
    metrics, not_applicable = {}, []
    for name, (unit, layer) in METRICS.items():
        if layer not in layers:
            value = 0
            not_applicable.append(name)
        elif not traced:
            continue
        elif name == "trace.overhead_s":
            if not untraced:
                continue
            value = min(t["trace.wall_s"] for t in traced) - min(untraced)
        elif all(name in t for t in traced):
            value = statistics.fmean(t[name] for t in traced)
        else:
            continue  # a layer that was expected and not seen stays missing
        metrics[name] = {"value": value, "unit": unit}
    return metrics, not_applicable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nclab" / "cli.py").is_file():
        print(f"error: no nclab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.cfg"
    config.write_text(w.config(args.seed))
    compileall.compile_dir(str(root / "src" / "nclab"), quiet=1)  # keeps compiling out of setup_s

    samples = collect(args, root, work, config)
    shutil.rmtree(work / "out", ignore_errors=True)
    check_determinism(samples)
    failed = sum(1 for c in samples if c["failures"])
    if args.trace:
        metrics, not_applicable = per_layer(samples, w.kind)
    else:
        metrics, not_applicable = end_to_end(samples), []

    report = {
        "workload": w.name,
        "seed": args.seed,
        "environment": environment(),
        "samples": summary(samples),
        "accuracy": samples[0].get("accuracy"),
        "not_applicable": not_applicable,
        "computed_counters": list(COMPUTED) if args.trace else [],
        "failures": [f for c in samples for f in c["failures"]],
        "all_samples": samples,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1))
    for key in ("environment", "samples", "accuracy", "not_applicable", "computed_counters"):
        print(f"{key}: {json.dumps(report[key])}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
