"""Command-line interface.

Subcommands: reconstruct, coherence, monitor, validate. Runs are driven by a
JSON config (archivable, reproducible); output is JSON or CSV with sorted
keys, floats printed to 17 significant digits and complex values as {re, im}
pairs, so identical configs produce byte-identical files. Every failure path
emits a structured error record and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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


class UsageError(ValueError):
    """Bad command line."""


class ConfigError(ValueError):
    """Bad or missing config field."""


# ---------------------------------------------------------------------------
# stable serialization

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("cannot serialize non-finite float")
    return format(float(x), ".17g")


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, a dataclass instance as its fields."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {stable_json(v)}" for k, v in sorted(obj.items()))
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(stable_json(v) for v in obj) + "]"
    if dataclasses.is_dataclass(obj):
        return stable_json(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialize {type(obj)}")


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
_STATE_COMMON = ("kind", "dephase")
# tail_tol belongs to the families a cutoff truncates; fock and raw live on the cutoff.
_STATE_FIELDS = {"fock": ("n",), "raw": ("amplitudes",),
                 "coherent": ("alpha", "tail_tol"), "squeezed": ("r", "phi", "tail_tol"),
                 "cat": ("alpha", "parity", "tail_tol"), "thermal": ("nbar", "tail_tol")}


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
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: "
                          f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
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
    return complex(_as_float(value["re"], where), _as_float(value["im"], where))


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


def build_state(cfg: dict, d: int) -> VibrationalState:
    spec = _field(cfg, "state", required=True)
    if not isinstance(spec, dict):
        raise ConfigError("config field 'state' must be an object")
    kind = _field(spec, "state.kind", required=True)
    if not isinstance(kind, str) or kind not in _STATE_FIELDS:
        raise ConfigError(f"unknown state kind {kind!r}")
    _reject_unknown(spec, _STATE_COMMON + _STATE_FIELDS[kind], "state.")
    tail_tol = _field(spec, "state.tail_tol", _as_float, DEFAULT_TAIL_TOL)
    if kind == "fock":
        state = fock(_field(spec, "state.n", _as_int, required=True), d)
    elif kind == "coherent":
        state = coherent(_field(spec, "state.alpha", _as_complex, required=True), d, tail_tol)
    elif kind == "squeezed":
        state = squeezed(_field(spec, "state.r", _as_float, required=True),
                         _field(spec, "state.phi", _as_float, 0.0), d, tail_tol)
    elif kind == "cat":
        state = cat(_field(spec, "state.alpha", _as_complex, required=True),
                    _field(spec, "state.parity", required=True), d, tail_tol)
    elif kind == "thermal":
        state = thermal(_field(spec, "state.nbar", _as_float, required=True), d, tail_tol)
    else:
        values = _field(spec, "state.amplitudes", required=True)
        if not isinstance(values, list):
            raise ConfigError("state.amplitudes must be a list")
        amps = [_as_complex(v, "state.amplitudes") for v in values]
        state = from_amplitudes(amps, d)
    lam = _field(spec, "state.dephase")
    if lam is not None:
        state = dephase(state, _as_float(lam, "state.dephase"))
    return state


def build_settings(cfg: dict, d: int, compat: bool) -> protocol.ProtocolSettings:
    shots = _field(cfg, "shots")
    try:
        return protocol.ProtocolSettings(
            d=d,
            v_mode=_field(cfg, "v_mode", default="ideal"),
            shots=None if shots is None else _as_int(shots, "shots"),
            seed=_field(cfg, "seed", _as_int, 0),
            compat_rminus_final=compat,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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


def _parse_lambdas(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad --lambdas value: {exc}") from exc


def cmd_monitor(cfg: dict, settings: protocol.ProtocolSettings, args) -> int:
    lambdas = _parse_lambdas(args.lambdas)
    phi = build_state(cfg, settings.d)
    points = tomography.decoherence_monitor(phi, lambdas, settings)
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
            "v_plus": {k: protocol.v_plus_schedule(k) for k in targets},
            "v_minus": {k: protocol.v_minus_schedule(k) for k in targets}}


def _validate_checks(settings: protocol.ProtocolSettings, schedules: dict) -> list[dict]:
    """The invariant suite behind the validate subcommand, run on the measurement path's actions.

    No check forms an N x N array: each acts on at most a few d-column slices.
    """
    d = settings.d
    checks = []

    def record(name, deviation, tol):
        checks.append({"name": name, "passed": bool(deviation <= tol),
                       "deviation": float(deviation), "tolerance": float(tol)})

    record("mode-swap-identity", protocol.mode_swap_deviation(d, range(d)), 1e-10)

    # Entangler: U_00 |phi,0,-> = (|phi,0,-> + |0,phi,+>)/sqrt(2).
    try:
        family = [fock(0, d), fock(min(2, d - 1), d), coherent(0.5, d, tail_tol=1e-6)]
    except TruncationLeakageError:
        family = [fock(0, d)]
    amplitudes = np.stack([phi.amplitudes for phi in family], axis=1)
    record("entangler-identity", protocol.entangled_target_deviation(settings, 0, 0, amplitudes), 1e-9)

    # Element identity, ideal and compiled branch shifters.
    kmax = min(2, protocol.shifter_reach(d, "compiled"))
    for v_mode, tol in (("ideal", 1e-9), ("compiled", 1e-7)):
        st = protocol.ProtocolSettings(d, v_mode=v_mode,
                                       compat_rminus_final=settings.compat_rminus_final)
        record(f"element-identity-{v_mode}",
               tomography.reconstruct(family[-1], kmax, st).metrics["max_abs_error"], tol)

    # Compiled vs ideal shifters on the branch slices |->|j>_x|0>_z and |+>|0>_x|j>_z,
    # each the other shifter's spectator.
    j = np.arange(d)
    slices = np.zeros((ELECTRONIC_DIM, d, d, 2 * d), dtype=complex)
    slices[MINUS, j, 0, j] = 1.0
    slices[PLUS, 0, j, d + j] = 1.0
    record("compiled-vs-ideal",
           max(protocol.shifter_deviation(k, slices) for k in schedules["v_plus"]), 1e-8)

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
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']} (deviation {c['deviation']:.3e}, tolerance {c['tolerance']:.1e})")
    all_passed = all(c["passed"] for c in checks)
    if args.out is not None:
        payload = {"checks": checks, "passed": all_passed, "schedules": schedules,
                   "settings": _settings_echo(settings)}
        rows = [[c["name"], c["passed"], c["deviation"], c["tolerance"]] for c in checks]
        _emit(args, payload, ["name", "passed", "deviation", "tolerance"], rows)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="iontomo",
                     description="Vibrational density-matrix tomography, element by element.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("reconstruct", cmd_reconstruct), ("coherence", cmd_coherence),
                     ("monitor", cmd_monitor), ("validate", cmd_validate)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--compat-rminus-final", action="store_true",
                       help="use the comparison entangler whose final pulse addresses the {-, xi} pair")
        p.set_defaults(func=fn)
    sub.choices["reconstruct"].add_argument("--use-hermitian-symmetry", action="store_true",
                                            help="fill the lower triangle from conjugates instead of measuring")
    sub.choices["coherence"].add_argument("--m", type=int, required=True)
    sub.choices["coherence"].add_argument("--n", type=int, required=True)
    sub.choices["monitor"].add_argument("--lambdas", required=True,
                                        help="comma-separated dephasing strengths")
    return parser


_ERROR_TYPES = (
    (UsageError, "usage-error", 2),
    (ConfigError, "config-error", 1),
    (TruncationLeakageError, "truncation-leakage", 1),
    (ValueError, "invalid-arguments", 1),
)


def _join_lambdas(argv: list[str]) -> list[str]:
    """argv with each '--lambdas X' whose X is a list of numbers joined into '--lambdas=X'.

    argparse reads a separate value that starts with '-' and is not a plain
    negative number, such as '-0.5,1', as an option; joined, it reaches the
    same dephasing-strength check as '--lambdas=-0.5,1'.
    """
    def is_lambda_list(token):
        try:
            return bool(_parse_lambdas(token))
        except UsageError:
            return False

    joined = []
    for token in argv:
        if joined and joined[-1] == "--lambdas" and is_lambda_list(token):
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
