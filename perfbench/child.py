"""Code that run.py executes inside a fresh interpreter.

    python3 perfbench/child.py setup CONFIG
        Imports iontomo, builds the workload's dims, settings and input state
        with the CLI's public builders, and prints the CLOCK_MONOTONIC time in
        nanoseconds at which that finished.

    python3 perfbench/child.py traced SPANS_OUT CLI_ARG...
        Runs the iontomo CLI on CLI_ARG... exactly as the `iontomo` entry
        point does, with a span recorded around every call of the layer
        functions listed in TRACED. Spans stay in memory; when the CLI
        returns they are written to SPANS_OUT as JSON, together with the
        counters of every operator cache, and the child exits with the CLI's
        exit code.

Both modes need `src` on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, span name). A span name is "<layer>.<what>"; the layer
# is the iontomo module that defines the function. The attribute is patched in
# the module whose code makes the call, so every call site the CLI uses
# passes through a span and nothing else changes.
_STATE_BUILDERS = ("fock", "coherent", "squeezed", "cat", "thermal", "from_amplitudes", "dephase")
_SHIFTERS = ("v_plus_ideal", "v_minus_ideal", "v_plus_compiled", "v_minus_compiled")
TRACED = (
    ("cli", "load_config", "cli.config"),
    ("cli", "build_dims", "cli.config"),
    ("cli", "build_settings", "cli.config"),
    ("cli", "build_state", "cli.config"),
    ("cli", "stable_json", "cli.serialize"),
    *(("cli", name, "states.build") for name in _STATE_BUILDERS),
    ("tomography", "dephase", "states.build"),
    ("tomography", "reconstruct", "tomography.reconstruct"),
    ("tomography", "decoherence_monitor", "tomography.monitor"),
    ("tomography", "project_physical", "tomography.project"),
    ("tomography", "trace_distance", "tomography.metrics"),
    ("tomography", "hs_distance", "tomography.metrics"),
    ("tomography", "measure_element", "protocol.cell"),
    ("protocol", "measure_element", "protocol.cell"),
    ("protocol", "prepare_initial", "protocol.prepare"),
    ("protocol", "u_mn", "protocol.compose"),
    ("protocol", "u00", "protocol.entangler"),
    *(("protocol", name, "protocol.shifter") for name in _SHIFTERS),
    ("protocol", "compile_pulse", "pulses.compile"),
    ("protocol", "apply", "hilbert.apply"),
    ("protocol", "coherence_expectation", "protocol.readout"),
    ("protocol", "coherence_sampled", "protocol.sample"),
)

MODULES = ("hilbert", "pulses", "protocol", "states", "tomography", "cli")


class Recorder:
    """In-memory spans: [name, start_ns, end_ns, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            # A call made directly inside a span of the same name (recursion
            # in stable_json) belongs to the outer span.
            if parent >= 0 and self.spans[parent][0] == name:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter_ns()

        return traced


def _modules() -> dict:
    return {name: importlib.import_module(f"iontomo.{name}") for name in MODULES}


def _caches(modules: dict) -> dict:
    """Every lru_cache a module defines, keyed "module.function"."""
    found = {}
    for mod_name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{mod_name}.{attr}"] = obj
    return found


def run_setup(config_path: str) -> int:
    from iontomo import cli

    cfg = cli.load_config(config_path)
    dims = cli.build_dims(cfg)
    cli.build_settings(cfg, dims, False)
    cli.build_state(cfg, dims)
    print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    return 0


def run_traced(spans_out: str, cli_args: list[str]) -> int:
    modules = _modules()
    caches = _caches(modules)
    recorder = Recorder()
    for mod_name, attr, name in TRACED:
        fn = getattr(modules[mod_name], attr, None)
        if fn is not None:
            setattr(modules[mod_name], attr, recorder.wrap(fn, name))
    code = modules["cli"].main(cli_args)
    sys.stdout.flush()
    infos = {key: fn.cache_info() for key, fn in caches.items()}
    record = {
        "spans": recorder.spans,
        "caches": {key: {"hits": i.hits, "misses": i.misses, "currsize": i.currsize}
                   for key, i in infos.items()},
    }
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return run_setup(argv[1])
    if len(argv) >= 2 and argv[0] == "traced":
        return run_traced(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
