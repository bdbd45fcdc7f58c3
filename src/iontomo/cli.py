"""Command-line interface.

Subcommands: reconstruct, coherence, monitor, validate. Runs are driven by a
JSON config (archivable, reproducible); output is JSON or CSV with sorted
keys, each float in its shortest form that reads back to the same value (as
Python's repr writes it) and complex values as {re, im} pairs, so identical
configs produce byte-identical files. Every failure path emits a structured
error record and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import gc
import json
import sys

import numpy as np

from . import protocol, tomography
from .hilbert import ELECTRONIC_DIM, MINUS, PLUS
from .states import (
    DEFAULT_TAIL_TOL,
    TruncationLeakageError,
    VibrationalState,
    cat,
    coherent,
    dephase,
    fock,
    from_amplitudes,
    squeezed,
    thermal,
)


# A CLI process ends once main returns, and finalization would then collect and free numpy's
# object graph piece by piece; with the heap frozen it is left to the operating system, and exit
# went from about 25 ms to about 6 ms (medians of 20 cold spawns on 2 vCPUs, Python 3.11, numpy
# 2.4). The trade-off: objects still in reference cycles at exit are not finalized by the
# collector, which Python does not promise anyway. stdout is still flushed, and --out files are
# closed by their with blocks before main returns. `import iontomo` does not import this module;
# a process that does, such as a test run, keeps its collector until it exits.
atexit.register(gc.freeze)


class UsageError(ValueError):
    """Bad command line."""


class ConfigError(ValueError):
    """A config of the wrong form; a well-formed value that the library rejects stays its ValueError."""


# ---------------------------------------------------------------------------
# stable serialization

def _record(obj):
    """A dataclass instance as its fields; the encoder calls this for any object it cannot write."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, each float in its shortest round-trip form, a dataclass as its fields."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, default=_record)
    except ValueError:  # the encoder's NaN or infinity error
        raise ValueError("cannot serialize non-finite float") from None


def complex_record(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def to_csv(header: list[str], rows: list[list]) -> str:
    """CSV with a string cell written as it is and every other cell as stable_json writes it."""
    lines = [",".join(header)]
    lines.extend(",".join(v if isinstance(v, str) else stable_json(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config handling

# One config describes the run and serves every subcommand, so each accepts all top-level
# fields; where the output goes and in which format is for the flags to say.
_TOP_FIELDS = ("dims", "state", "nmax", "v_mode", "shots", "seed")


def _reject_unknown(obj: dict, allowed, prefix: str = "") -> None:
    """Raise a config error naming the first field of obj that is not in allowed."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config field '{prefix}{unknown[0]}'")


def _unique_fields(pairs: list) -> dict:
    """A JSON object from its key-value pairs; a key given twice is a config error, at any level."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate config field '{key}'")
        obj[key] = value
    return obj


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: "
                          f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests its JSON too deeply to read") from None
    except ConfigError:  # a duplicate field, named by _unique_fields
        raise
    except (OSError, ValueError) as exc:  # no such file, bytes that are not UTF-8, an integer too long
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(cfg, _TOP_FIELDS)
    return cfg


def _field(obj: dict, path: str, convert=None, default=None, required: bool = False):
    """obj's value at the last key of the dotted path, through convert(value, path) if given.

    An absent key gives default (not converted), or a config error naming the path if required.
    """
    name = path.rpartition(".")[2]
    if name not in obj:
        if required:
            raise ConfigError(f"missing config field '{path}'")
        return default
    return obj[name] if convert is None else convert(obj[name], path)


_INT64 = np.iinfo(np.int64)


def _as_int(value, where: str) -> int:
    """A JSON integer in the int64 range; floats, bools and strings are rejected."""
    if isinstance(value, int) and not isinstance(value, bool) and _INT64.min <= value <= _INT64.max:
        return value
    raise ConfigError(f"field '{where}' must be an integer, got {value!r}")


def _as_float(value, where: str) -> float:
    """A finite JSON number; NaN, infinities, bools and strings are rejected."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if is_number and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"field '{where}' must be a finite number, got {value!r}")


def _as_complex(value, where: str) -> complex:
    if not isinstance(value, dict):
        return complex(_as_float(value, where))
    if set(value) != {"re", "im"}:
        raise ConfigError(f"field '{where}' must be a finite number or an {{re, im}} pair, got {value!r}")
    return complex(_as_float(value["re"], f"{where}.re"), _as_float(value["im"], f"{where}.im"))


def _as_complex_list(value, where: str) -> list[complex]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    return [_as_complex(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _as_str(value, where: str) -> str:
    """A JSON string; numbers, null, lists and objects are rejected."""
    if isinstance(value, str):
        return value
    raise ConfigError(f"field '{where}' must be a string, got {value!r}")


def _argv_number(convert, what: str):
    """An argparse type: the token read as JSON and checked by convert, as the config reads a number."""
    def read(token: str):
        try:
            return convert(json.loads(token), token)
        except ValueError:  # not JSON, or JSON that convert rejects
            raise argparse.ArgumentTypeError(f"{token!r} is not {what}") from None
        except RecursionError:  # the token itself may be too long to echo
            raise argparse.ArgumentTypeError(f"a token nests its JSON too deeply to be {what}") from None
    return read


def build_dims(cfg: dict) -> int:
    """The one Fock cutoff d of the run, from the config's per-mode cutoffs dims: {dx, dz}.

    Only the JSON is checked here; ProtocolSettings, built from d next, checks d >= 2.
    """
    dims = _field(cfg, "dims", required=True)
    if not isinstance(dims, dict) or "dx" not in dims or "dz" not in dims:
        raise ConfigError("config field 'dims' must be an object with dx and dz")
    _reject_unknown(dims, ("dx", "dz"), "dims.")
    dx, dz = (_as_int(dims[key], f"dims.{key}") for key in ("dx", "dz"))
    if dx != dz:
        raise ConfigError("protocol requires equal mode cutoffs (the rotation maps x-support onto z)")
    return dx


def _state_kinds() -> dict:
    """Each state kind's constructor, called by parameter name with dim=d, and the fields it reads.

    Fields come in reading order, as (name, reader) or (name, reader, default); a field is allowed
    exactly when read, as are kind and dephase. fock and raw live on the cutoff (no tail_tol), and
    protocol._measure checks a raw list's size. Made per call, so that a wrapper put on a
    constructor's name here (as perfbench/child.py's states.build spans are) sees the call.
    """
    tail_tol = ("tail_tol", _as_float, DEFAULT_TAIL_TOL)
    return {
        "fock": (fock, (("n", _as_int),)),
        "coherent": (coherent, (tail_tol, ("alpha", _as_complex))),
        "squeezed": (squeezed, (tail_tol, ("r", _as_float), ("phi", _as_float, 0.0))),
        "cat": (cat, (tail_tol, ("alpha", _as_complex), ("parity", _as_str))),
        "thermal": (thermal, (tail_tol, ("nbar", _as_float))),
        "raw": (lambda amplitudes, dim: from_amplitudes(amplitudes), (("amplitudes", _as_complex_list),)),
    }


def build_state(cfg: dict, d: int) -> VibrationalState:
    spec = _field(cfg, "state", required=True)
    if not isinstance(spec, dict):
        raise ConfigError("config field 'state' must be an object")
    kind, kinds = _field(spec, "state.kind", required=True), _state_kinds()
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown state kind {kind!r}")
    constructor, fields = kinds[kind]
    _reject_unknown(spec, ("kind", "dephase", *(name for name, *_ in fields)), "state.")
    state = constructor(dim=d, **{name: _field(spec, f"state.{name}", reader, *default, required=not default)
                                  for name, reader, *default in fields})
    lam = _field(spec, "state.dephase", _as_float)
    return state if lam is None else dephase(state, lam)


def build_settings(cfg: dict, d: int, compat: bool) -> protocol.ProtocolSettings:
    shots = _field(cfg, "shots")
    return protocol.ProtocolSettings(
        d=d,
        v_mode=_field(cfg, "v_mode", _as_str, "ideal"),
        shots=None if shots is None else _as_int(shots, "shots"),
        seed=_field(cfg, "seed", _as_int, 0),
        compat_rminus_final=compat,
    )


def _settings_echo(settings: protocol.ProtocolSettings, **extra) -> dict:
    """The run record: every settings field (d as the config's dims), plus what else the subcommand read."""
    echo = dataclasses.asdict(settings)
    d = echo.pop("d")
    echo.update(dims={"dx": d, "dz": d}, **extra)
    return echo


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output {path}: {exc}") from exc


def _emit(args, payload: dict, header: list[str], rows: list[list]) -> int:
    """Write payload as stable JSON or rows as CSV to args.out or stdout."""
    if args.format == "csv":
        _write_output(to_csv(header, rows), args.out)
    else:
        _write_output(stable_json(payload) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_reconstruct(cfg: dict, settings: protocol.ProtocolSettings, args) -> int:
    phi = build_state(cfg, settings.d)
    nmax = _field(cfg, "nmax", _as_int, required=True)
    report = tomography.reconstruct(phi, nmax, settings,
                                    use_hermitian_symmetry=args.use_hermitian_symmetry)
    size = nmax + 1
    cells = [[{"re": report.estimates[m, n].real,
               "im": report.estimates[m, n].imag,
               "stderr": report.stderrs[m, n]}
              for n in range(size)] for m in range(size)]
    payload = {
        "report": {
            "nmax": nmax,
            "estimates": cells,
            "truth": [[complex_record(v) for v in row] for row in report.truth],
            "projected": [[complex_record(v) for v in row] for row in report.projected],
            "metrics": report.metrics,
        },
        "settings": _settings_echo(settings, state=cfg["state"], nmax=nmax,
                                   use_hermitian_symmetry=args.use_hermitian_symmetry),
    }
    rows = [[m, n, report.estimates[m, n].real, report.estimates[m, n].imag, report.stderrs[m, n]]
            for m in range(size) for n in range(size)]
    return _emit(args, payload, ["m", "n", "re", "im", "stderr"], rows)


def cmd_coherence(cfg: dict, settings: protocol.ProtocolSettings, args) -> int:
    phi = build_state(cfg, settings.d)
    est = protocol.measure_element(phi, args.m, args.n, settings)
    payload = {
        "m": args.m,
        "n": args.n,
        "value": complex_record(est.value),
        "stderr": est.stderr,
        "shots": settings.shots or 0,
        "settings": _settings_echo(settings, state=cfg["state"]),
    }
    rows = [[args.m, args.n, est.value.real, est.value.imag, est.stderr, settings.shots or 0]]
    return _emit(args, payload, ["m", "n", "re", "im", "stderr", "shots"], rows)


def cmd_monitor(cfg: dict, settings: protocol.ProtocolSettings, args) -> int:
    phi = build_state(cfg, settings.d)
    points = tomography.decoherence_monitor(phi, args.lambdas, settings)
    payload = {
        "series": [{"lambda": p.lam, "rho20_abs": p.rho20_abs, "bound": p.bound}
                   for p in points],
        "settings": _settings_echo(settings, state=cfg["state"]),
    }
    rows = [[p.lam, p.rho20_abs, p.bound] for p in points]
    return _emit(args, payload, ["lambda", "rho20_abs", "bound"], rows)


def _schedules(settings: protocol.ProtocolSettings) -> dict:
    """The pulses validate checks and records: U_00, and V+_k, V-_k for k <= 4 within the compiled reach."""
    targets = range(min(4, protocol.shifter_reach(settings.d, "compiled")) + 1)
    return {"u00": protocol.u00_schedule(settings.compat_rminus_final),
            **{name: {k: protocol.ladder_schedule(k, branch) for k in targets}
               for name, branch in (("v_plus", PLUS), ("v_minus", MINUS))}}


def _validate_checks(settings: protocol.ProtocolSettings, schedules: dict) -> list[dict]:
    """The invariant suite behind the validate subcommand, run on the measurement path's actions.

    No check forms an N x N array: each acts on at most a few d-column slices.
    """
    d = settings.d
    checks = []

    def record(name, deviation, tol):
        checks.append({"name": name, "passed": bool(deviation <= tol),
                       "deviation": float(deviation), "tolerance": float(tol)})

    record("mode-swap-identity", protocol.mode_swap_deviation(d), 1e-10)

    # U_mn |phi,0,-> = (|phi,m,-> + |n,phi,+>)/sqrt(2) on one phi that fills every Fock level with
    # distinct phases: U_00 in the run's settings, then every cell m, n <= min(2, d-2) with either shifter.
    phi = np.exp(1j * np.arange(d)) / np.sqrt(d)
    record("entangler-identity", protocol.entangled_target_deviation(settings, [(0, 0)], phi), 1e-9)
    targets = range(min(2, protocol.shifter_reach(d, "compiled")) + 1)
    cells = [(m, n) for m in targets for n in targets]
    for v_mode, tol in (("ideal", 1e-9), ("compiled", 1e-7)):
        st = protocol.ProtocolSettings(d, v_mode=v_mode,
                                       compat_rminus_final=settings.compat_rminus_final)
        record(f"element-identity-{v_mode}", protocol.entangled_target_deviation(st, cells, phi), tol)

    # Compiled vs ideal shifters on the branch slices |->|j>_x|0>_z and |+>|0>_x|j>_z,
    # each the other shifter's spectator.
    j = np.arange(d)
    slices = np.zeros((ELECTRONIC_DIM, d, d, 2 * d), dtype=complex)
    slices[MINUS, j, 0, j] = 1.0
    slices[PLUS, 0, j, d + j] = 1.0
    record("compiled-vs-ideal", protocol.shifter_deviation(list(schedules["v_plus"]), slices), 1e-8)

    # Unitarity of every scheduled pulse, on d seeded random orthonormal states.
    specs = [*schedules["u00"], *(spec for ladders in (schedules["v_plus"], schedules["v_minus"])
                                  for ladder in ladders.values() for spec in ladder)]
    rng = np.random.default_rng(0)
    shape = (ELECTRONIC_DIM * d * d, d)
    probe = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    probe = probe.reshape(ELECTRONIC_DIM, d, d, d)
    record("pulse-unitarity", protocol.pulse_unitarity_defect(specs, probe), 1e-10)

    return checks


def cmd_validate(cfg: dict, settings: protocol.ProtocolSettings, args) -> int:
    schedules = _schedules(settings)
    checks = _validate_checks(settings, schedules)
    payload = {"checks": checks, "passed": all(c["passed"] for c in checks), "schedules": schedules,
               "settings": _settings_echo(settings)}
    rows = [[c["name"], c["passed"], c["deviation"], c["tolerance"]] for c in checks]
    _emit(args, payload, ["name", "passed", "deviation", "tolerance"], rows)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="iontomo", allow_abbrev=False,
                     description="Vibrational density-matrix tomography, element by element.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("reconstruct", cmd_reconstruct), ("coherence", cmd_coherence),
                     ("monitor", cmd_monitor), ("validate", cmd_validate)):
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--compat-rminus-final", action="store_true",
                       help="use the comparison entangler whose final pulse addresses the {-, xi} pair")
        p.set_defaults(func=fn)
    sub.choices["reconstruct"].add_argument("--use-hermitian-symmetry", action="store_true",
                                            help="fill the lower triangle from conjugates instead of measuring")
    integer = _argv_number(_as_int, "a JSON integer in the int64 range")
    real = _argv_number(_as_float, "a finite JSON number")
    sub.choices["coherence"].add_argument("--m", type=integer, required=True)
    sub.choices["coherence"].add_argument("--n", type=integer, required=True)
    sub.choices["monitor"].add_argument("--lambdas", type=lambda text: [real(tok) for tok in text.split(",")],
                                        required=True, help="comma-separated dephasing strengths")
    return parser


_ERROR_TYPES = (
    (UsageError, "usage-error", 2),
    (ConfigError, "config-error", 1),
    (TruncationLeakageError, "truncation-leakage", 1),
    (ValueError, "invalid-arguments", 1),
    (MemoryError, "invalid-arguments", 1),  # numpy's array too large to allocate, named with its size
)


def _join_lambdas(argv: list[str]) -> list[str]:
    """argv with each '--lambdas X' whose X does not start with '--' joined into '--lambdas=X'.

    argparse reads a separate value that starts with '-' and is not a plain
    negative number, such as '-0.5,1' or '-0.5,,1', as an option; joined, every
    such list reaches the --lambdas reader as '--lambdas=X' would, which names
    a bad token. A '--' option after '--lambdas' is never taken for its value.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] == "--lambdas" and not token.startswith("--"):
            joined[-1] = f"--lambdas={token}"
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_lambdas(sys.argv[1:] if argv is None else list(argv)))
        cfg = load_config(args.config)
        settings = build_settings(cfg, build_dims(cfg), args.compat_rminus_final)
        return args.func(cfg, settings, args)
    except Exception as exc:  # every failure becomes a structured record
        for klass, label, code in _ERROR_TYPES:
            if isinstance(exc, klass):
                kind, exit_code = label, code
                break
        else:
            kind, exit_code = "internal-error", 1
        record = {"error": {"type": kind, "message": str(exc)}}
        print(stable_json(record))
        return exit_code


if __name__ == "__main__":
    sys.exit(main())
