"""A fault catalogue: plausible one-line bugs, each expected to fail a property test.

The golden byte comparison (test_golden.py) catches any fault that moves an
output, but it cannot say which property broke, and every regeneration of the
golden outputs re-blesses whatever they then hold. So each fault here must
also fail a test that states what should hold.

Each entry edits one line of a copy of src/iontomo: the old line, which must
occur exactly once in its file, becomes the new line. The entry names the test
expected to fail (a path::Class::function id, whose parametrized cases all
count). An equivalent entry changes no behaviour and is expected to fail
nothing. Run it with the standard library and pytest:

    python tests/faults.py              # every fault, about 20 s each
    python tests/faults.py NAME ...     # only the named faults

For each fault it copies src to a temporary directory, applies the edit, runs
the tests without test_golden.py and test_perfbench.py on that copy, and
prints one row: caught or uncaught, whether the expected test failed, and the
failing test ids. The exit code is 1 when a fault that is not equivalent goes
uncaught or misses its expected test. tests/test_faults.py checks, in tier-1,
that every edit still applies and every expected test exists.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SKIPPED = ("tests/test_golden.py", "tests/test_perfbench.py")


@dataclass(frozen=True)
class Fault:
    name: str
    file: str
    old: str
    new: str
    expected: str
    equivalent: bool = False


CATALOGUE = [
    Fault("closing-carrier-phase", "protocol.py",
          "return PulseSpec(\"carrier\", levels, mode, HALF_PI, 3.0 * HALF_PI)",
          "return PulseSpec(\"carrier\", levels, mode, HALF_PI, HALF_PI)",
          "tests/test_protocol.py::TestCompiledShifters::test_branch_action_both_shifters"),
    Fault("unclipped-probabilities", "protocol.py",
          "clipped = np.clip(p, 0.0, 1.0)",
          "clipped = p",
          "tests/test_protocol.py::TestSampling::test_rounding_is_clipped_as_before"),
    Fault("stderr-halved-variance", "protocol.py",
          "stderr = math.sqrt((var_x + var_y) / shots)",
          "stderr = math.sqrt((var_x + var_y) / (2 * shots))",
          "tests/test_protocol.py::TestSampling::test_stderr_calibrated"),
    Fault("no-bessel-correction", "protocol.py",
          "var *= shots / (shots - 1)",
          "var *= 1.0",
          "tests/test_protocol.py::TestSampling::test_stderr_calibrated"),
    Fault("trace-distance-largest-eigenvalue", "tomography.py",
          "return 0.5 * float(np.linalg.norm(_difference(a, b), \"nuc\"))",
          "return 0.5 * float(np.linalg.norm(_difference(a, b), 2))",
          "tests/test_tomography.py::TestDistances::test_diagonal_is_half_l1_distance"),
    Fault("monitor-bound-unclipped", "tomography.py",
          "bound = float(np.sqrt(max(cells[0, 0].real, 0.0) * max(cells[2, 2].real, 0.0)))",
          "bound = float(np.sqrt(abs(cells[0, 0].real) * abs(cells[2, 2].real)))",
          "tests/test_tomography.py::TestDecoherenceMonitor::test_bound_clips_negative_sampled_population"),
    Fault("stream-key-n-m", "protocol.py",
          "rng = np.random.default_rng([int(seed), int(m), int(n), tag])",
          "rng = np.random.default_rng([int(seed), int(n), int(m), tag])",
          "tests/test_protocol.py::TestSampling::test_stream_key_is_seed_m_n_tag"),
    # Both comparisons pick the same shift t: where desc equals the shift, that
    # eigenvalue is clipped to zero either way.
    Fault("simplex-test-inclusive", "tomography.py",
          "t = shifts[np.nonzero(desc > shifts)[0][-1]]",
          "t = shifts[np.nonzero(desc >= shifts)[0][-1]]",
          "", equivalent=True),
    Fault("beam-split-sign", "pulses.py",
          "state[XI] = (bright - dark) / math.sqrt(2.0)",
          "state[XI] = (dark - bright) / math.sqrt(2.0)",
          "tests/test_pulses.py::TestVibrationalRotation::test_swaps_bright_branch"),
    Fault("shift-ideal-m-n-swapped", "protocol.py",
          "for m, row in _ladder(w, MINUS, list(ns), settings.v_mode):",
          "for m, row in _ladder(w, PLUS, list(ns), settings.v_mode):",
          "tests/test_protocol.py::TestSliceEngine::test_slice_images_are_dense_columns"),
    # An identity check that compares a thing with itself passes on any defect.
    Fault("shifter-check-compares-compiled-with-itself", "protocol.py",
          "_ladder(w, branch, targets, \"ideal\")):",
          "_ladder(w, branch, targets, \"compiled\")):",
          "tests/test_cli.py::TestValidateCommand::test_compiled_vs_ideal_catches_a_ladder_defect"),
    # validate's last target (2 or 4) is even, so a check that keeps only the last pair it
    # reads misses a defect of the odd targets' closing carriers.
    Fault("shifter-check-reads-only-the-last-target", "protocol.py",
          "dev = max(dev, _max_column_norm(compiled - ideal))",
          "dev = _max_column_norm(compiled - ideal)",
          "tests/test_cli.py::TestValidateCommand::test_element_identity_catches_a_closing_carrier_defect"),
    # The sweep (protocol._ladder, walked by _cell_images): every cell must stay, bit for bit,
    # its own run.
    Fault("row-node-is-the-v-minus-node", "protocol.py",
          "out = copy",
          "out = w",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    Fault("closing-carrier-on-the-row-node", "protocol.py",
          "act_pulse(_closing_carrier(branch), out)",
          "act_pulse(_closing_carrier(branch), w)",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    Fault("v-minus-node-restarts-each-row", "protocol.py",
          "done = k",
          "done = 0",
          "tests/test_tomography.py::TestReconstruct::test_cells_equal_per_cell_runs"),
    Fault("ladder-copy-never-refreshed", "protocol.py",
          "np.copyto(copy, w)",
          "pass",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    # The engine's entry (protocol._measure): every state is read on the cell's own streams,
    # against its own Gram matrix.
    Fault("monitor-reads-a-cell-on-its-transpose-stream", "protocol.py",
          "yield m, n, [_sample_reduced(_slice_reduced(w, gram), m, n, settings.shots, settings.seed)",
          "yield m, n, [_sample_reduced(_slice_reduced(w, gram), n, m, settings.shots, settings.seed)",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    Fault("entry-reads-every-state-on-the-first-gram", "protocol.py",
          "grams = [np.ones((1, 1)) if phi.is_pure else phi.matrix for phi in states]",
          "grams = [np.ones((1, 1)) if phi.is_pure else states[0].matrix for phi in states]",
          "tests/test_tomography.py::TestOneCellEntry::test_monitor_measures_three_cells_per_lambda"),
    Fault("sampler-draws-unrounded-probabilities", "protocol.py",
          "c_plus, c_minus, _ = rng.multinomial(shots, np.array([plus, both - plus, 1.0 - both]))",
          "c_plus, c_minus, _ = rng.multinomial(shots, reduced_probabilities(red, observable))",
          "tests/test_protocol.py::test_sampled_estimate_ignores_rounding_noise"),
    Fault("xi-outcome-dropped", "protocol.py",
          "red[XI, XI].real,",
          "0.0,",
          "tests/test_protocol.py::TestSampling::test_xi_outcome_is_the_xi_population"),
    Fault("dephase-linear-exponent", "states.py",
          "kernel = np.exp(-min(lam, _EXP_UNDERFLOW) * (n[:, None] - n[None, :]) ** 2)",
          "kernel = np.exp(-min(lam, _EXP_UNDERFLOW) * abs(n[:, None] - n[None, :]))",
          "tests/test_states.py::TestDephase::test_scaling_of_specific_element"),
    Fault("required-dim-off-by-one", "states.py",
          "raise TruncationLeakageError(kind, dim, tail, tail_tol, int(ok[0]))",
          "raise TruncationLeakageError(kind, dim, tail, tail_tol, int(ok[0]) + 1)",
          "tests/test_states.py::TestFarTail::test_required_dim_is_the_smallest_sufficient_cutoff"),
    Fault("projection-keeps-input-trace", "tomography.py",
          "shifts = (np.cumsum(desc) - 1.0) / np.arange(1, len(w) + 1)",
          "shifts = (np.cumsum(desc) - np.trace(herm).real) / np.arange(1, len(w) + 1)",
          "tests/test_tomography.py::TestProjectPhysical::test_output_always_valid"),
    Fault("argv-number-float-fallback", "cli.py",
          "raise argparse.ArgumentTypeError(f\"{token!r} is not {what}\") from None",
          "return convert(float(token), token)",
          "tests/test_cli.py::test_argv_number_reads_as_the_config_reads_it"),
    Fault("config-v-mode-read-unconverted", "cli.py",
          "v_mode=_field(cfg, \"v_mode\", _as_str, \"ideal\"),",
          "v_mode=_field(cfg, \"v_mode\", default=\"ideal\"),",
          "tests/test_cli.py::test_non_string_name_is_config_error"),
    Fault("writer-keys-unsorted", "cli.py",
          "return json.dumps(obj, sort_keys=True, allow_nan=False, default=_record)",
          "return json.dumps(obj, sort_keys=False, allow_nan=False, default=_record)",
          "tests/test_cli.py::test_records_sort_keys_and_write_shortest_floats"),
    Fault("writer-allows-non-finite-floats", "cli.py",
          "return json.dumps(obj, sort_keys=True, allow_nan=False, default=_record)",
          "return json.dumps(obj, sort_keys=True, allow_nan=True, default=_record)",
          "tests/test_cli.py::TestStableJson::test_rejects_non_finite_float"),
    # validate's entangled-target checks: a probe short of some Fock level, or a compiled check
    # that runs the ideal shifters, misses a defect there.
    Fault("validate-probe-is-vacuum", "cli.py",
          "phi = np.exp(1j * np.arange(d)) / np.sqrt(d)",
          "phi = np.eye(d)[:, 0]",
          "tests/test_cli.py::TestValidateCommand::test_pulse_unitarity_catches_beam_splitter_defect"),
    Fault("validate-element-checks-run-ideal-shifters", "cli.py",
          "st = protocol.ProtocolSettings(d, v_mode=v_mode,",
          "st = protocol.ProtocolSettings(d, v_mode=\"ideal\",",
          "tests/test_cli.py::TestValidateCommand::test_element_identity_catches_a_closing_carrier_defect"),
    Fault("validate-emits-only-to-out", "cli.py",
          "_emit(args, payload, [\"name\", \"passed\", \"deviation\", \"tolerance\"], rows)",
          "if args.out is not None: "
          "_emit(args, payload, [\"name\", \"passed\", \"deviation\", \"tolerance\"], rows)",
          "tests/test_cli.py::test_output_follows_out_and_format"),
    Fault("state-cutoff-zero-accepted", "states.py",
          "if dim < 1:",
          "if dim < 0:",
          "tests/test_states.py::test_constructors_reject_a_cutoff_below_one"),
    Fault("state-matrix-not-checked-square", "states.py",
          "if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:",
          "if False:",
          "tests/test_states.py::TestTypeInvariants::test_density_matrix_must_be_square"),
    Fault("state-matrix-empty-not-rejected", "states.py",
          "if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:",
          "if m.ndim != 2 or m.shape[0] != m.shape[1]:",
          "tests/test_states.py::TestTypeInvariants::test_density_matrix_must_be_square"),
    Fault("run-skips-state-size-check", "protocol.py",
          "if phi.dim != settings.d:",
          "if False:",
          "tests/test_cli.py::TestConfigAndErrors::test_raw_state_of_another_size_is_the_runs_error"),
    # The state table (cli._state_kinds): a field is allowed exactly when it is read, through its
    # reader, with the constructor's default when absent.
    Fault("state-parity-read-as-float", "cli.py",
          "\"cat\": (cat, (tail_tol, (\"alpha\", _as_complex), (\"parity\", _as_str))),",
          "\"cat\": (cat, (tail_tol, (\"alpha\", _as_complex), (\"parity\", _as_float))),",
          "tests/test_cli.py::test_every_allowed_state_field_is_read"),
    Fault("state-coherent-reads-no-tail-tol", "cli.py",
          "\"coherent\": (coherent, (tail_tol, (\"alpha\", _as_complex))),",
          "\"coherent\": (coherent, ((\"alpha\", _as_complex),)),",
          "tests/test_cli.py::test_every_allowed_state_field_is_read"),
    Fault("state-tail-tol-default-changed", "cli.py",
          "tail_tol = (\"tail_tol\", _as_float, DEFAULT_TAIL_TOL)",
          "tail_tol = (\"tail_tol\", _as_float, 1e-10)",
          "tests/test_cli.py::test_absent_tail_tol_is_the_constructors_default"),
    Fault("state-phi-default-changed", "cli.py",
          "\"squeezed\": (squeezed, (tail_tol, (\"r\", _as_float), (\"phi\", _as_float, 0.0))),",
          "\"squeezed\": (squeezed, (tail_tol, (\"r\", _as_float), (\"phi\", _as_float, 0.5))),",
          "tests/test_cli.py::test_absent_phi_is_zero"),
    Fault("state-dephase-not-allowed", "cli.py",
          "_reject_unknown(spec, (\"kind\", \"dephase\", *(name for name, *_ in fields)), \"state.\")",
          "_reject_unknown(spec, (\"kind\", *(name for name, *_ in fields)), \"state.\")",
          "tests/test_cli.py::test_every_allowed_state_field_is_read"),
    # numpy's allocation error is a MemoryError, not a ValueError.
    Fault("unallocatable-cutoff-is-internal-error", "cli.py",
          "(MemoryError, \"invalid-arguments\", 1),  # numpy's array too large to allocate, named with its size",
          "",
          "tests/test_cli.py::test_unallocatable_cutoff_is_invalid_arguments"),
    Fault("metrics-accept-non-finite-matrices", "tomography.py",
          "if m.size == 0 or not np.all(np.isfinite(m)):",
          "if False:",
          "tests/test_tomography.py::TestDistances::test_trace_distance_rejects_empty_or_non_finite"),
    Fault("monitor-iterates-a-lone-number", "tomography.py",
          "if isinstance(lambdas, (str, bytes)) or not np.iterable(lambdas):",
          "if isinstance(lambdas, (str, bytes)):",
          "tests/test_tomography.py::TestDecoherenceMonitor::test_rejects_non_number_lambdas"),
]


def applied(fault: Fault, text: str) -> str:
    """text with the fault's edit made; a ValueError unless its old line occurs exactly once."""
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.strip() == fault.old]
    if len(hits) != 1:
        raise ValueError(f"{fault.name}: old line found {len(hits)} times in {fault.file}")
    i = hits[0]
    lines[i] = lines[i][:len(lines[i]) - len(lines[i].lstrip())] + fault.new
    return "\n".join(lines)


def names_a_test(test_id: str) -> bool:
    """Whether a path::[Class::]function id names a test function in the repository, read statically."""
    path, *names = test_id.split("::")
    file = ROOT / path
    if not file.is_file() or not names:
        return False
    body = ast.parse(file.read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return isinstance(node, ast.FunctionDef)


def failing_tests(src: Path, workdir: Path) -> list[str]:
    """The ids of the tests that fail on the package under src, golden and benchmark tests skipped."""
    ignore = [f"--ignore={ROOT / path}" for path in SKIPPED]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *ignore, str(ROOT / "tests")],
                          cwd=workdir, env=env, capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", proc.stdout, flags=re.MULTILINE)
    # pytest names a test by its path from the working directory; name it from the root
    return [Path(os.path.relpath(workdir / path, ROOT)).as_posix() + rest
            for path, rest in (re.match(r"([^:]*)(.*)", f).groups() for f in failed)]


def run(fault: Fault) -> tuple[bool, bool, list[str]]:
    """(caught, expected test failed, failing ids) of one fault, run on a faulted copy of src."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(SRC, tmp / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = tmp / "src" / "iontomo" / fault.file
        target.write_text(applied(fault, target.read_text(encoding="utf-8")), encoding="utf-8")
        failed = failing_tests(tmp / "src", tmp)
    hit = any(f == fault.expected or f.startswith(fault.expected + "[") for f in failed)
    return bool(failed), hit, failed


def main(argv: list[str]) -> int:
    faults = [f for f in CATALOGUE if not argv or f.name in argv]
    unknown = set(argv) - {f.name for f in CATALOGUE}
    if unknown:
        print(f"unknown fault(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    print("| fault | file | result | expected test failed | failures | failing tests |")
    print("|---|---|---|---|---|---|")
    bad = 0
    for fault in faults:
        caught, hit, failed = run(fault)
        if fault.equivalent:
            result, expected = ("caught" if caught else "uncaught (equivalent)"), "n/a"
            bad += caught
        else:
            result, expected = ("caught" if caught else "UNCAUGHT"), ("yes" if hit else "NO")
            bad += not (caught and hit)
        shown = ", ".join(f.removeprefix("tests/") for f in failed[:4])
        more = f" and {len(failed) - 4} more" if len(failed) > 4 else ""
        print(f"| {fault.name} | {fault.file} | {result} | {expected} | {len(failed)} | {shown}{more} |",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
