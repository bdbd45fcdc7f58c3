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
          "closing = [PulseSpec(\"carrier\", levels, mode, HALF_PI, 3.0 * HALF_PI)] if k % 2 == 1 else []",
          "closing = [PulseSpec(\"carrier\", levels, mode, HALF_PI, HALF_PI)] if k % 2 == 1 else []",
          "tests/test_protocol.py::TestCompiledShifters::test_branch_action_both_shifters"),
    # Every ladder step is jc at 3*pi/2; an even step, which leaves the branch's level, runs on
    # the reversed pair (protocol.ladder_schedule).
    Fault("ladder-even-steps-keep-the-pair-order", "protocol.py",
          "steps = [PulseSpec(\"jc\", levels[::-1] if j % 2 == 0 else levels, mode,",
          "steps = [PulseSpec(\"jc\", levels, mode,",
          "tests/test_protocol.py::TestCompiledShifters::test_branch_action_both_shifters"),
    # The walker closes an odd target with ladder_schedule(1)'s closing carrier, its second
    # pulse; its first is the jc step 0.
    Fault("closing-carrier-is-a-step", "protocol.py",
          "closing = ladder_schedule(1, branch)[1]",
          "closing = ladder_schedule(1, branch)[0]",
          "tests/test_protocol.py::TestCompiledShifters::test_branch_action_both_shifters"),
    Fault("unclipped-probabilities", "protocol.py",
          "clipped = [min(max(q, 0.0), 1.0) for q in p]",
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
          "bound=float(np.sqrt(max(r00.value.real, 0.0) * max(r22.value.real, 0.0))))",
          "bound=float(np.sqrt(abs(r00.value.real) * abs(r22.value.real))))",
          "tests/test_tomography.py::TestDecoherenceMonitor::test_bound_clips_negative_sampled_population"),
    # A monitor point reads each of its three cells by position: the i-th estimate of each.
    Fault("monitor-rho20-read-from-the-22-cell", "tomography.py",
          "return [MonitorPoint(lam, rho20_abs=abs(r20.value),",
          "return [MonitorPoint(lam, rho20_abs=abs(r22.value),",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    Fault("monitor-bound-reads-the-20-cell", "tomography.py",
          "bound=float(np.sqrt(max(r00.value.real, 0.0) * max(r22.value.real, 0.0))))",
          "bound=float(np.sqrt(max(r00.value.real, 0.0) * max(r20.value.real, 0.0))))",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    Fault("stream-key-n-m", "protocol.py",
          "rng = random.Random(f\"{seed} {m} {n} {tag}\")",
          "rng = random.Random(f\"{seed} {n} {m} {tag}\")",
          "tests/test_protocol.py::TestSampling::test_stream_key_is_seed_m_n_tag"),
    # Both comparisons pick the same shift t: where desc equals the shift, that
    # eigenvalue is clipped to zero either way.
    Fault("simplex-test-inclusive", "tomography.py",
          "t = shifts[np.nonzero(desc > shifts)[0][-1]]",
          "t = shifts[np.nonzero(desc >= shifts)[0][-1]]",
          "", equivalent=True),
    # The mode swap (pulses._mode_swap) is a signed transpose: the sign follows the output
    # row, and the two levels trade places where the total phonon number is odd.
    Fault("beam-split-sign", "pulses.py",
          "state[PLUS], state[XI] = sign * np.where(odd, xi, plus), sign * np.where(odd, plus, xi)",
          "state[PLUS], state[XI] = sign * np.where(odd, xi, plus), -sign * np.where(odd, plus, xi)",
          "tests/test_pulses.py::TestVibrationalRotation::test_swaps_bright_branch"),
    # The laser-phase factor is read exactly at the quarter turns (pulses._QUARTER_TURNS).
    Fault("quarter-turns-conjugated", "pulses.py",
          "_QUARTER_TURNS = {0.0: 1 + 0j, math.pi / 2: 1j, math.pi: -1 + 0j, 1.5 * math.pi: -1j}",
          "_QUARTER_TURNS = {0.0: 1 + 0j, math.pi / 2: -1j, math.pi: -1 + 0j, 1.5 * math.pi: 1j}",
          "tests/test_pulses.py::TestCompilePulse::test_quarter_turn_phases_are_exact"),
    # act_pulse's one rotation: a jc pulse couples its mode's Fock axis, a carrier none.
    Fault("jc-without-its-sideband-axis", "pulses.py",
          "axis = \"xz\".index(spec.mode) if spec.kind == \"jc\" else None",
          "axis = None",
          "tests/test_pulses.py::TestPulseActions::test_matches_compiled_matrix"),
    Fault("carrier-takes-the-sideband-axis", "pulses.py",
          "axis = \"xz\".index(spec.mode) if spec.kind == \"jc\" else None",
          "axis = None if spec.mode is None else \"xz\".index(spec.mode)",
          "tests/test_pulses.py::TestCompilePulse::test_carrier_pi_pulse_transfers_population"),
    Fault("swap-sign-on-the-column", "pulses.py",
          "sign = (-1.0) ** n[:, None, None]",
          "sign = (-1.0) ** n[None, :, None]",
          "tests/test_acceptance.py::test_criterion_1_mode_swap_convention"),
    Fault("swap-without-sign", "pulses.py",
          "sign = (-1.0) ** n[:, None, None]",
          "sign = 1.0",
          "tests/test_pulses.py::TestVibrationalRotation::test_matches_oracle_on_the_box"),
    Fault("swap-parity-flipped", "pulses.py",
          "odd = ((n[:, None] + n) % 2 == 1)[:, :, None]",
          "odd = ((n[:, None] + n) % 2 == 0)[:, :, None]",
          "tests/test_pulses.py::TestVibrationalRotation::test_branches_turn_opposite_ways"),
    Fault("shift-ideal-m-n-swapped", "protocol.py",
          "for m, row in _ladder(w, MINUS, list(ns), settings.v_mode):",
          "for m, row in _ladder(w, PLUS, list(ns), settings.v_mode):",
          "tests/test_protocol.py::TestSliceEngine::test_slice_images_are_dense_columns"),
    # An identity check that compares a thing with itself passes on any defect.
    Fault("shifter-check-compares-compiled-with-itself", "protocol.py",
          "_ladder(w, branch, targets, \"ideal\")):",
          "_ladder(w, branch, targets, \"compiled\")):",
          "tests/test_cli.py::TestValidateCommand::test_compiled_vs_ideal_catches_a_ladder_defect"),
    Fault("parity-check-compares-the-probe-with-itself", "protocol.py",
          "return float(np.max(np.abs(twice - states)))",
          "return float(np.max(np.abs(states - states)))",
          "tests/test_cli.py::TestValidateCommand::test_mode_swap_parity_catches_an_unsigned_swap"),
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
          "act_pulse(closing, out)",
          "act_pulse(closing, w)",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    # The walk's steps run up to its last target, and its closing carrier after them: a climb
    # to k that takes step k too runs a step twice, or the closing carrier as a step.
    Fault("walker-climbs-one-step-too-far", "protocol.py",
          "for spec in steps[done:k]:",
          "for spec in steps[done:k + 1]:",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    # Under compat the |-> branch holds |0>_x|phi>_z too, and the ideal roll wraps it around
    # the cutoff: a shift that zero-fills the wrapped levels loses that term.
    Fault("ideal-shift-zero-fills", "protocol.py",
          "w[branch] = np.roll(w[branch], k - done, axis=0 if branch == PLUS else 1)",
          "w[branch] = np.roll(w[branch], k - done, axis=0 if branch == PLUS else 1); "
          "np.moveaxis(w[branch], 0 if branch == PLUS else 1, 0)[:k - done] = 0",
          "tests/test_protocol.py::TestEntangler::"
          "test_compat_reads_half_of_each_element_and_a_wrap_around_column"),
    Fault("v-minus-node-restarts-each-row", "protocol.py",
          "done = k",
          "done = 0",
          "tests/test_tomography.py::TestReconstruct::test_cells_equal_per_cell_runs"),
    # Walking each row's V+ ladder from |0> for every target keeps every cell its own run, bit
    # for bit, and only the count of pulse actions sees the work it repeats.
    Fault("compiled-ladder-rewalks-each-target", "protocol.py",
          "for n, cell in _ladder(row, PLUS, ns[m], settings.v_mode):",
          "for n, cell in ((t, c) for t in ns[m] for _, c in _ladder(row.copy(), PLUS, [t], settings.v_mode)):",
          "tests/test_tomography.py::TestPulseActionCount::test_counts"),
    Fault("ladder-copy-never-refreshed", "protocol.py",
          "np.copyto(copy, w)",
          "pass",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    # The engine's entry (protocol._measure): every state is read on the cell's own streams,
    # against its own Gram matrix.
    Fault("monitor-reads-a-cell-on-its-transpose-stream", "protocol.py",
          "estimates.append(_sample_cell(value, populations, m, n, settings.shots, settings.seed))",
          "estimates.append(_sample_cell(value, populations, n, m, settings.shots, settings.seed))",
          "tests/test_tomography.py::test_cells_are_bitwise_per_cell_runs"),
    Fault("populations-read-without-the-gram", "protocol.py",
          "populations = np.array([np.vdot(w[a], plus_gram if a == PLUS else w[a] @ gram).real",
          "populations = np.array([np.vdot(w[a], w[a]).real",
          "tests/test_protocol.py::test_random_cell_matches_oracle"),
    Fault("entry-reads-every-state-on-the-first-gram", "protocol.py",
          "grams = [np.ones((1, 1)) if phi.is_pure else phi.matrix for phi in states]",
          "grams = [np.ones((1, 1)) if phi.is_pure else states[0].matrix for phi in states]",
          "tests/test_tomography.py::TestOneCellEntry::test_monitor_measures_three_cells_per_lambda"),
    # The sampler (protocol._sample_cell): c(+1) of B(shots, p(+1)), then c(-1) of the rest
    # with p(-1) / (1 - p(+1)), both on the 2^-32 grid and drawn exactly by protocol._binomial.
    Fault("sampler-draws-unrounded-probabilities", "protocol.py",
          "c_plus = _binomial(rng, shots, plus)",
          "c_plus = _binomial(rng, shots, p_plus)",
          "tests/test_protocol.py::TestSampling::test_draw_reads_the_probabilities_on_a_grid_that_sums_to_one"),
    Fault("sampler-stream-tags-swapped", "protocol.py",
          "rng = random.Random(f\"{seed} {m} {n} {tag}\")",
          "rng = random.Random(f\"{seed} {m} {n} {1 - tag}\")",
          "tests/test_protocol.py::TestSampling::test_stream_key_is_seed_m_n_tag"),
    Fault("second-binomial-on-all-shots", "protocol.py",
          "c_minus = _binomial(rng, shots - c_plus, (both - plus) / (1.0 - plus)) if plus < 1.0 else 0",
          "c_minus = _binomial(rng, shots, (both - plus) / (1.0 - plus)) if plus < 1.0 else 0",
          "tests/test_protocol.py::TestSampling::test_counts_are_trinomial"),
    Fault("second-binomial-unconditioned", "protocol.py",
          "c_minus = _binomial(rng, shots - c_plus, (both - plus) / (1.0 - plus)) if plus < 1.0 else 0",
          "c_minus = _binomial(rng, shots - c_plus, both - plus) if plus < 1.0 else 0",
          "tests/test_protocol.py::TestSampling::test_counts_are_trinomial"),
    Fault("binomial-split-below-x-unscaled", "protocol.py",
          "n, p = a - 1, p / x",
          "n, p = a - 1, p",
          "tests/test_protocol.py::TestBinomial::test_short_runs_match_the_pmf_as_the_oracle_does"),
    Fault("binomial-split-above-x-keeps-one-too-many", "protocol.py",
          "count, n, p = count + a, n - a, (p - x) / (1.0 - x)",
          "count, n, p = count + a, n - a + 1, (p - x) / (1.0 - x)",
          "tests/test_protocol.py::TestBinomial::test_draws_stay_within_zero_to_n"),
    # The transverse outcome probabilities in closed form (protocol.transverse_probabilities):
    # p(+-1) = (P_- + P_+ +- <sigma>) / 2, <sigma_x> - i <sigma_y> the element, p(0) = P_xi.
    Fault("xi-outcome-dropped", "protocol.py",
          "p = [(pair + mean) / 2.0, (pair - mean) / 2.0, float(populations[XI])]",
          "p = [(pair + mean) / 2.0, (pair - mean) / 2.0, 0.0]",
          "tests/test_protocol.py::TestSampling::test_xi_outcome_is_the_xi_population"),
    Fault("xi-population-folded-into-the-pair", "protocol.py",
          "pair = float(populations[MINUS] + populations[PLUS])",
          "pair = float(populations[MINUS] + populations[PLUS] + populations[XI])",
          "tests/test_protocol.py::TestSampling::test_transverse_probabilities_are_the_eigenvector_forms"),
    Fault("renormalized-by-the-pair", "protocol.py",
          "total = clipped[0] + clipped[1] + clipped[2]",
          "total = pair",
          "tests/test_protocol.py::TestSampling::test_xi_outcome_is_the_xi_population"),
    Fault("y-mean-sign-flipped", "protocol.py",
          "mean = value.real if observable == \"x\" else -value.imag",
          "mean = value.real if observable == \"x\" else value.imag",
          "tests/test_protocol.py::TestSampling::test_transverse_probabilities_are_the_eigenvector_forms"),
    Fault("dephase-linear-exponent", "states.py",
          "kernel = np.exp(-min(lam, _EXP_UNDERFLOW) * (n[:, None] - n[None, :]) ** 2)",
          "kernel = np.exp(-min(lam, _EXP_UNDERFLOW) * abs(n[:, None] - n[None, :]))",
          "tests/test_states.py::TestDephase::test_scaling_of_specific_element"),
    # A worker process hands a leakage error back through pickle: every field must survive.
    Fault("leakage-error-pickles-without-lower-bound", "states.py",
          "self.lower_bound)",
          ")",
          "tests/test_states.py::TestFarTail::test_pickles_and_copies"),
    # The odd cat's squared norm is about 4 |alpha|^2: only below the normal floats has it lost
    # its digits.
    Fault("odd-cat-threshold-1e-30", "states.py",
          "if norm_sq < sys.float_info.min:",
          "if norm_sq < 1e-30:",
          "tests/test_states.py::TestCat::test_odd_cat_at_tiny_alpha_is_one_phonon"),
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
    Fault("csv-ignores-out", "cli.py",
          "if args.out is None:",
          "if args.out is None or args.format == \"csv\":",
          "tests/test_cli.py::test_every_documented_field_is_accepted"),
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
    Fault("state-amplitudes-flattened", "states.py",
          "v = np.array(values, dtype=complex)",
          "v = np.array(values, dtype=complex).reshape(-1)",
          "tests/test_states.py::TestTypeInvariants::test_amplitudes_must_be_a_nonempty_vector"),
    # Without its own raise, a state that is a string is read as an object without a kind.
    Fault("config-state-not-checked-an-object", "cli.py",
          "raise ConfigError(\"config field 'state' must be an object\")",
          "pass",
          "tests/test_cli.py::test_misshapen_config_is_config_error"),
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
    Fault("distances-accept-non-matrices", "tomography.py",
          "if m.ndim != 2:",
          "if False:",
          "tests/test_tomography.py::TestDistances::test_hs_distance_rejects_empty_or_non_finite"),
    Fault("metrics-accept-non-finite-matrices", "tomography.py",
          "if m.size == 0 or not np.all(np.isfinite(m)):",
          "if False:",
          "tests/test_tomography.py::TestDistances::test_trace_distance_rejects_empty_or_non_finite"),
    # validate's unitarity probe reads the standard library's generator, so no CLI call imports numpy.random.
    Fault("validate-probe-from-numpy-random", "cli.py",
          "uniforms = np.frombuffer(random.Random(0).randbytes(16 * size), dtype=\"<u8\") / 2.0 ** 64 - 0.5",
          "uniforms = np.random.default_rng(0).random(2 * size) - 0.5",
          "tests/test_cli.py::test_no_call_imports_numpy_random"),
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
