#!/usr/bin/env python3
"""Benchmark of the iontomo CLI: cold runs of three workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--seed N]
    python3 perfbench/run.py --hashes [--seed N]

A run makes its inputs from --seed, then, for at least --seconds, runs whole
rounds one after another (a closed loop with one client). A round spawns a
fresh `iontomo` CLI process, as a user does, waits for it, and checks its
output against computations made in workloads.py. With --trace 1 a round also
runs the same CLI invocation in a traced child (child.py) whose output must
be byte-identical, and reports per-layer metrics from its spans.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it records the workload, the
seed, the sample counts and the machine.

--smoke runs every workload path and every check once at a tiny cutoff and
exits 0 only if nothing but the known fault failed. --hashes prints the
sha256 of each workload's CLI output for a seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# A closed loop with one client: the CLI child and this process's numpy use
# at most two BLAS threads, and never more than the cores available.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = str(min(NPROC, 2))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread limits, which numpy reads on import)

sys.path.insert(0, str(HERE))
from workloads import FULL, KNOWN_FAULT, SMOKE, WORKLOADS, Case  # noqa: E402

SETUP_SAMPLES = 12
CLI_ENTRY = "import sys; from iontomo.cli import main; sys.exit(main())"
LAYERS = ("cli", "states", "pulses", "hilbert", "protocol", "tomography")
# Span names whose summed self time is reported as "<name>_s".
TIMED_SPANS = ("pulses.compile", "protocol.entangler", "protocol.shifter", "protocol.prepare",
               "protocol.compose", "hilbert.apply", "protocol.readout", "protocol.sample",
               "states.build", "cli.config", "cli.serialize", "tomography.project",
               "tomography.metrics")
BYTES_PER_MB = 1024.0 * 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], stdout_path: Path) -> tuple[int, float, int]:
    """Run argv to completion with stdout to a file: (exit code, wall seconds, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


@contextlib.contextmanager
def prepared(case: Case, tag: str):
    """A scratch directory holding the case's config.json, removed afterwards."""
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        (work / "config.json").write_text(json.dumps(case.config, sort_keys=True))
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_seconds(work: Path) -> float:
    """Spawn to end of set-up: iontomo imported, dims, settings and input state built."""
    out = work / "setup.out"
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    code, _, _ = spawn([sys.executable, str(HERE / "child.py"), "setup", str(work / "config.json")],
                       out)
    if code != 0:
        raise RuntimeError(f"set-up child exited with {code}")
    return (int(out.read_text().split()[-1]) - start) / 1e9


def cli_args(case: Case, work: Path) -> list[str]:
    return [case.subcommand, "--config", str(work / "config.json"), *case.args]


def cli_argv(case: Case, work: Path) -> list[str]:
    """What the `iontomo` console script runs, in a fresh interpreter."""
    return [sys.executable, "-c", CLI_ENTRY, *cli_args(case, work)]


def parse(output: bytes) -> dict | None:
    try:
        payload = json.loads(output)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) and "error" not in payload else None


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float, total_dim: int) -> dict:
    """Per-layer metrics of one traced run; times are self times in seconds."""
    spans = trace["spans"]
    duration = [end - start for _, start, end, _ in spans]
    in_children = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            in_children[parent] += duration[i]
    self_ns = defaultdict(int)
    for i, (name, _, _, _) in enumerate(spans):
        self_ns[name] += duration[i] - in_children[i]
    metrics = {f"{name}_s": self_ns[name] / 1e9 for name in TIMED_SPANS}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in self_ns.items()
                                         if k.split(".")[0] == layer) / 1e9
    caches = trace["caches"]
    metrics["pulses.compiled"] = caches.get("pulses.compile_pulse", {}).get("misses", 0)
    metrics["protocol.cells"] = sum(1 for name, *_ in spans if name == "protocol.cell")
    proto = [c for key, c in caches.items() if key.split(".")[0] == "protocol"]
    calls = sum(c["hits"] + c["misses"] for c in proto)
    metrics["protocol.cache_hit_ratio"] = sum(c["hits"] for c in proto) / calls if calls else 0.0
    operator_mb = 16.0 * total_dim * total_dim / BYTES_PER_MB
    for layer in ("hilbert", "pulses", "protocol"):
        held = sum(c["currsize"] for key, c in caches.items() if key.split(".")[0] == layer)
        metrics[f"{layer}.cache_mb"] = held * operator_mb
    covered = sum(duration[i] for i, span in enumerate(spans) if span[3] < 0)
    metrics["trace.coverage"] = covered / 1e9 / traced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return metrics


UNITS = {"_s": "s", "_mb": "MB", "_ratio": "ratio", "coverage": "ratio", "overhead": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def machine() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    case = WORKLOADS[name](seed, SMOKE if smoke else FULL)
    with prepared(case, f"{name}-{seed}") as work:
        return _measure(case, seed, seconds, trace, smoke, work)


def _measure(case: Case, seed: int, seconds: float, trace: bool, smoke: bool, work: Path) -> dict:
    argv = cli_argv(case, work)
    traced_argv = [sys.executable, str(HERE / "child.py"), "traced", str(work / "spans.json"),
                   *cli_args(case, work)]
    total_dim = 3 * case.config["dims"]["dx"] * case.config["dims"]["dz"]

    start = time.perf_counter()
    setups = [] if trace else [setup_seconds(work) for _ in range(1 if smoke else SETUP_SAMPLES)]
    attempted, failures, reference = 0, defaultdict(int), None
    rates, rss_mb, walls, layers = [], [], [], defaultdict(list)
    while not walls or time.perf_counter() - start < seconds:
        children = {"cli": argv, "traced": traced_argv} if trace else {"cli": argv}
        # Traced rounds alternate which child runs first, so that neither side
        # of trace.overhead always runs second.
        order = sorted(children, reverse=len(walls) % 2 == 1)
        done = {key: spawn(children[key], work / f"{key}.out") for key in order}
        code, wall, rss_kib = done["cli"]
        output = (work / "cli.out").read_bytes()
        walls.append(wall)
        rates.append(case.cells / wall)
        rss_mb.append(rss_kib / 1024.0)
        ops = {"cli-exit-0": code == 0}
        if trace:
            tcode, twall, _ = done["traced"]
            same = tcode == 0 and (work / "traced.out").read_bytes() == output
            ops["traced-output-identical"] = same
            if same:
                spans = json.loads((work / "spans.json").read_text())
                for key, value in layer_metrics(spans, twall, wall, total_dim).items():
                    layers[key].append(value)
        else:
            reference = output if reference is None else reference
            ops["output-deterministic"] = output == reference
        ops.update(case.run_checks(parse(output) if code == 0 else None))
        attempted += len(ops)
        for op, ok in ops.items():
            if not ok:
                failures[op] += 1

    if trace:
        metrics = {key: {"value": statistics.median(vals), "unit": unit_of(key)}
                   for key, vals in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cells_per_s": {"value": statistics.median(rates), "unit": "cells/s"},
            "peak_rss_mb": {"value": statistics.median(rss_mb), "unit": "MB"},
        }
    info = {"workload": case.workload, "seed": seed, "trace": int(trace), "rounds": len(walls),
            "cells_per_round": case.cells, "setup_samples": len(setups),
            "cli_wall_s": walls, "failed_ops": dict(failures), "machine": machine()}
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": set(failures) <= {KNOWN_FAULT} and (not trace or bool(layers)),
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": metrics,
    }


def smoke(seed: int) -> int:
    """Every workload, traced and untraced, once at a tiny cutoff."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed, 0.0, trace, smoke=True)
            print(json.dumps(result, sort_keys=True))
            ok = ok and result["correct"]
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def hashes(seed: int) -> int:
    """sha256 of each workload's CLI output; every workload's output is deterministic."""
    failed = False
    for name, make in WORKLOADS.items():
        case = make(seed, FULL)
        with prepared(case, f"hash-{name}") as work:
            code, _, _ = spawn(cli_argv(case, work), work / "cli.out")
            digest = hashlib.sha256((work / "cli.out").read_bytes()).hexdigest()
        failed = failed or code != 0
        print(f"{digest}  {name}  seed={seed}  exit={code}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--hashes", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "iontomo" / "cli.py").is_file():
        print(f"iontomo sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.smoke:
        return smoke(args.seed)
    if args.hashes:
        return hashes(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
