"""Samples of a workload: a fork server and fresh interpreters.

    python3 perfbench/child.py serve WORKLOAD CONFIG WORK_DIR SECONDS TRACE
    python3 perfbench/child.py sample WORKLOAD CONFIG OUT_DIR RESULT_JSON TRACED

`serve` does what a fresh `nclab` process does before its command
runs (import nclab, load and build the config), then forks one process
per sample until the next sample would not end within SECONDS, and at
least until each timed series has MIN_SAMPLES values.  A fork starts
in that state in a few milliseconds, where a new interpreter takes
about 0.2 s, so more of a run is spent in timed calls.  Samples run
one at a time and go to the allowed CPUs in turn, two at a time, so a
traced sample shares a CPU with the untraced one before it; a
neighbour on the host can slow one CPU while the other runs at full
speed, and the fastest sample then comes from the faster CPU.  Every
FRESH_EVERY-th sample, the first included, is instead a new
interpreter running `sample`: it measures set-up and hashes its outputs
under its own hash seed, which the forks share with the server.  With
TRACE = 1 every other sample is traced.  The results go to
WORK_DIR/samples.json.

A sample runs the workload's CLI commands in process with
`nclab.cli.main`, records wall time and peak resident memory, then
checks and hashes the outputs.  A traced sample first wraps the layer
functions with the strict span tracer.
"""

import time

_START = time.perf_counter()  # set-up time counts from the first statement

MIN_SAMPLES = 3  # per timed series (untraced and, with TRACE = 1, traced)
FRESH_EVERY = 7  # odd, so fresh samples land on every CPU (see serve_main)


def set_up(config_path):
    """What a fresh `nclab` process does before its command runs."""
    from nclab import cli  # noqa: F401
    from nclab.config import build_symbol, load_config

    build_symbol(load_config(config_path))


def sample_main(argv):
    name, config_path, out_dir, result_path, traced = argv
    set_up(config_path)
    setup_s = time.perf_counter() - _START
    run_sample(name, config_path, out_dir, result_path, traced == "1", {"setup_s": setup_s, "fresh": True})


def run_sample(name, config_path, out_dir, result_path, traced, result):
    import json
    import resource
    import traceback

    from nclab import cli
    from spans import ROOT_LAYER, Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.wrap()

    failures = []
    wall_s = 0.0
    for command in w.commands:
        args = [command, "--config", config_path, "--out", out_dir, "--quiet"]
        t0 = time.perf_counter()
        try:
            code = tracer.span(ROOT_LAYER, cli.main, args) if tracer else cli.main(args)
        except Exception:  # a crash is a failed sample, not a benchmark crash
            failures.append(f"{command} raised:\n{traceback.format_exc()}")
            code = None
        wall_s += time.perf_counter() - t0
        if code != 0:
            failures.append(f"{command} exited with {code}")
    result["wall_s"] = wall_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not failures:
        try:
            result.update(check_outputs(w, out_dir, failures))
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"outputs unreadable: {exc!r}")
    if tracer is not None:
        tracer.check_expected(w.kind)
        failures += [f"missing layer: {m}" for m in tracer.missing]
        layers = tracer.layer_totals()
        self_sum = sum(v for k, v in layers.items() if k.endswith("_s") and k != "trace.wall_s")
        if abs(self_sum - layers["trace.wall_s"]) > 1e-6:
            failures.append(f"self times sum to {self_sum}, traced wall is {layers['trace.wall_s']}")
        result["layers"] = layers
        result["spans"] = tracer.dump()
    result["failures"] = failures
    result["traced"] = traced
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def serve_main(argv):
    import gc
    import json
    import os
    import shutil
    import subprocess
    import sys
    import traceback

    name, config_path, work, seconds, trace = argv
    start = time.perf_counter()
    seconds, trace = float(seconds), trace == "1"
    set_up(config_path)
    out = os.path.join(work, "out")
    result_path = os.path.join(work, "sample.json")
    gc.freeze()  # a fork's collector then leaves inherited objects alone, so they stay shared

    def one_sample(traced, fresh):
        shutil.rmtree(out, ignore_errors=True)
        os.mkdir(out)
        if os.path.exists(result_path):
            os.unlink(result_path)
        if fresh:
            cmd = [sys.executable, __file__, "sample", name, config_path, out, result_path, str(int(traced))]
            code = subprocess.run(cmd).returncode
        else:
            sys.stdout.flush()
            sys.stderr.flush()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    run_sample(name, config_path, out, result_path, traced, {"fresh": False})
                    code = 0
                except BaseException:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0 or not os.path.exists(result_path):
            kind = "fresh" if fresh else "forked"
            return {"failures": [f"{kind} sample exited with {code}; see stderr"], "traced": traced}
        with open(result_path) as fh:
            return json.load(fh)

    cpus = sorted(os.sched_getaffinity(0))
    samples = []
    longest = 0.0  # slowest sample so far, wall time including its start
    while True:
        i = len(samples)
        cpu = cpus[i // 2 % len(cpus)]
        os.sched_setaffinity(0, {cpu})  # forks and fresh samples inherit it
        t0 = time.perf_counter()
        samples.append(one_sample(traced=trace and i % 2 == 1, fresh=i % FRESH_EVERY == 0))
        samples[-1]["cpu"] = cpu
        longest = max(longest, time.perf_counter() - t0)
        if "wall_s" not in samples[-1]:
            break  # crashed; reported as a failure
        per_series = len(samples) // 2 if trace else len(samples)
        if time.perf_counter() - start + longest > seconds and per_series >= MIN_SAMPLES:
            break
    shutil.rmtree(out, ignore_errors=True)
    with open(os.path.join(work, "samples.json"), "w") as fh:
        json.dump(samples, fh)


def _scan(path):
    """sha256 and newline count of a file, in one pass."""
    import hashlib

    digest, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
    return digest.hexdigest(), lines


def check_outputs(w, out_dir, failures):
    """Correctness gates of one sample; appends to `failures` and
    returns the output hashes and accuracy figures."""
    import json
    import os

    from workloads import IDENTITY_DEV_MAX, RESIDUE_TOL

    hashes, lines = {}, {}
    for fname in sorted(os.listdir(out_dir)):
        hashes[fname], lines[fname] = _scan(os.path.join(out_dir, fname))

    def header(fname):
        with open(os.path.join(out_dir, fname)) as fh:
            return fh.readline().rstrip("\n")

    S = w.size
    if w.kind == "identity":
        with open(os.path.join(out_dir, "identity.json")) as fh:
            ident = json.load(fh)
        accuracy = {"identity_dev": ident["full_deviation"], "interior_dev": ident["interior_deviation"]}
        if not ident["full_deviation"] <= IDENTITY_DEV_MAX:
            failures.append(f"identity_dev {ident['full_deviation']} > {IDENTITY_DEV_MAX}")
        if header("matrix.csv") != "row,col,re,im" or lines["matrix.csv"] != S * S + 1:
            failures.append(f"matrix.csv: bad header or {lines['matrix.csv'] - 1} rows, want {S * S}")
        from nclab.quantize import read_matrix_binary

        A = read_matrix_binary(os.path.join(out_dir, "matrix.bin"))
        if (A.box.n, A.box.M, A.entries.shape) != (w.n, w.M, (S, S)):
            failures.append(f"matrix.bin reads back as n={A.box.n} M={A.box.M} {A.entries.shape}")
        else:
            import numpy as np

            rows = np.loadtxt(os.path.join(out_dir, "matrix.csv"), delimiter=",", skiprows=1, ndmin=2)
            index = np.arange(S)
            if not (np.array_equal(rows[:, 0], np.repeat(index, S))
                    and np.array_equal(rows[:, 1], np.tile(index, S))
                    and np.array_equal(rows[:, 2] + 1j * rows[:, 3], A.entries.ravel())):
                failures.append("matrix.csv and matrix.bin hold different matrices")
    else:
        with open(os.path.join(out_dir, "connes.json")) as fh:
            rep = json.load(fh)
        accuracy = {
            "residue": rep["residue_lattice"],
            "rel_dev": rep["relative_deviation"],
            "stability_span": rep["stability_span"],
        }
        if not abs(rep["residue_lattice"] - w.residue) <= RESIDUE_TOL:
            failures.append(f"residue {rep['residue_lattice']!r} != {w.residue!r}")
        if not rep["relative_deviation"] <= w.rel_dev_max:
            failures.append(f"rel_dev {rep['relative_deviation']} > {w.rel_dev_max}")
        if w.span_max is not None and not rep["stability_span"] <= w.span_max:
            failures.append(f"stability_span {rep['stability_span']} > {w.span_max}")
        if header("spectrum.csv") != "N,s_N,S_N,D_N" or lines["spectrum.csv"] != S + 1:
            failures.append(f"spectrum.csv: bad header or {lines['spectrum.csv'] - 1} rows, want {S}")
    return {"hashes": hashes, "accuracy": accuracy}


if __name__ == "__main__":
    import sys

    {"serve": serve_main, "sample": sample_main}[sys.argv[1]](sys.argv[2:])
