"""Tests for the measurement protocol: preparation, entangler, branch shifters, readout."""

import math
import tracemalloc

import numpy as np
import pytest

from iontomo.errors import TruncationLeakageError
from iontomo.hilbert import (
    MINUS,
    PLUS,
    XI,
    HilbertDims,
    PureState,
    apply,
    basis_state,
    reduced_density_x,
)
from iontomo import hilbert, protocol, pulses
from iontomo.protocol import (
    CoherenceEstimate,
    _electronic_reduced,
    _slice_images,
    _slice_reduced,
    ProtocolSettings,
    coherence_expectation,
    coherence_sampled,
    measure_element,
    measure_prepared,
    prepare_initial,
    prepare_initial_pure,
    prepare_vibrational,
    reduced_probabilities,
    transverse_probabilities,
    u00,
    u00_schedule,
    u_mn,
    v_minus_compiled,
    v_minus_ideal,
    v_minus_schedule,
    v_plus_compiled,
    v_plus_ideal,
    v_plus_schedule,
)
from iontomo.states import VibrationalState, cat, coherent, dephase, fock, thermal
from iontomo.tomography import reconstruct
from util import expm_taylor

DIMS = HilbertDims(8, 8)
SETTINGS = ProtocolSettings(DIMS)
PREPARERS = (prepare_initial, prepare_initial_pure, prepare_vibrational)

RHO00_COH08 = 0.5272924240430485   # exp(-0.64)
RHO10_COH08 = 0.42183393923443885  # exp(-0.64) * 0.8
RHO20_COH08 = 0.23862531117384456  # exp(-0.64) * 0.64 / sqrt(2)


def entangled_target(phi, dims, m=0, n=0):
    """(|phi>_x|m>_z|-> + |n>_x|phi>_z|+>)/sqrt(2) as a raw vector."""
    target = np.zeros(dims.total_dim, dtype=complex)
    for k in range(dims.dx):
        target[dims.index(MINUS, k, m)] += phi.amplitudes[k] / math.sqrt(2)
        target[dims.index(PLUS, n, k)] += phi.amplitudes[k] / math.sqrt(2)
    return target


class TestPrepareInitial:
    def test_vacuum_input(self):
        rho = prepare_initial(fock(0, 8), DIMS)
        expected = basis_state(DIMS, MINUS, 0, 0).density_matrix()
        assert np.max(np.abs(rho.matrix - expected)) < 1e-15

    def test_trace_one(self):
        rho = prepare_initial(thermal(0.5, 8, tail_tol=1e-3), DIMS)
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_recovers_input(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        rho = prepare_initial(phi, DIMS)
        assert np.max(np.abs(reduced_density_x(rho, DIMS) - phi.density_matrix())) < 1e-13

    def test_pure_input_gives_pure_output(self):
        rho = prepare_initial(coherent(0.5, 8, tail_tol=1e-6), DIMS)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("prepare", PREPARERS, ids=lambda f: f.__name__)
    def test_dim_mismatch(self, prepare):
        with pytest.raises(ValueError):
            prepare(fock(0, 6), DIMS)

    @pytest.mark.parametrize("prepare", PREPARERS, ids=lambda f: f.__name__)
    def test_rejects_leaky_state(self, prepare):
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        leaky = VibrationalState(8, amplitudes=vec, tail_mass=1e-3, tail_tol=1e-12)
        with pytest.raises(TruncationLeakageError):
            prepare(leaky, DIMS)

    def test_vibrational_input_is_locked_density_matrix(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        rho = prepare_vibrational(phi, DIMS)
        assert np.array_equal(rho, phi.density_matrix())
        assert not rho.flags.writeable


def _test_rotation_matrix(level, theta, dims):
    """Hand-built electronic rotation, independent of the package constructors."""
    r3 = np.eye(3, dtype=complex)
    r3[level, level] = math.cos(theta)
    r3[XI, XI] = math.cos(theta)
    r3[XI, level] = math.sin(theta)
    r3[level, XI] = -math.sin(theta)
    return np.kron(r3, np.eye(dims.vib_dim))


def _test_vrot_matrix(theta, dims):
    """Hand-built vibrational rotation via the series exponential."""
    a = np.diag(np.sqrt(np.arange(1, dims.dx)), 1).astype(complex)
    l2 = 1j * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    sig = np.zeros((3, 3), dtype=complex)
    sig[PLUS, XI] = sig[XI, PLUS] = 1.0
    return expm_taylor(1j * theta * np.kron(sig, l2))


class TestEntangler:
    def test_vacuum_input(self):
        # phi = |0> makes both branches identical: |0,0> (x) (|-> + |+>)/sqrt(2)
        dims = HilbertDims(4, 4)
        out = apply(u00(dims), prepare_initial_pure(fock(0, 4), dims))
        expected = (basis_state(dims, MINUS, 0, 0).amplitudes
                    + basis_state(dims, PLUS, 0, 0).amplitudes) / math.sqrt(2)
        assert np.linalg.norm(out.amplitudes - expected) < 1e-12

    def test_single_phonon_input(self):
        dims = HilbertDims(4, 4)
        out = apply(u00(dims), prepare_initial_pure(fock(1, 4), dims))
        assert np.linalg.norm(out.amplitudes - entangled_target(fock(1, 4), dims)) < 1e-12

    def test_matches_independent_pulse_product(self):
        # brute-force product of the four hand-built pulse matrices
        dims = HilbertDims(4, 4)
        oracle = (_test_rotation_matrix(PLUS, -math.pi / 4, dims)
                  @ _test_vrot_matrix(math.pi / 2, dims)
                  @ _test_rotation_matrix(PLUS, -math.pi / 4, dims)
                  @ _test_rotation_matrix(MINUS, math.pi / 4, dims))
        assert np.max(np.abs(u00(dims).matrix - oracle)) < 1e-11

    def test_intermediate_bright_state(self):
        # after the first two pulses the electronic factor is (|-> + |alpha>)/sqrt(2)
        dims = HilbertDims(4, 4)
        from iontomo.pulses import compile_pulse
        sched = u00_schedule()
        u2 = compile_pulse(sched[1], dims) @ compile_pulse(sched[0], dims)
        out = apply(u2, prepare_initial_pure(fock(1, 4), dims)).amplitudes
        alpha_part = np.zeros(dims.total_dim, dtype=complex)
        alpha_part[dims.index(MINUS, 1, 0)] = 1 / math.sqrt(2)
        alpha_part[dims.index(PLUS, 1, 0)] = 0.5
        alpha_part[dims.index(XI, 1, 0)] = 0.5
        assert np.linalg.norm(out - alpha_part) < 1e-12

    def test_compat_variant_leaves_xi_population(self):
        dims = HilbertDims(4, 4)
        out = apply(u00(dims, compat_rminus_final=True),
                    prepare_initial_pure(fock(1, 4), dims))
        xi_slice = out.amplitudes[2 * dims.vib_dim:]
        assert np.sum(np.abs(xi_slice) ** 2) > 0.05

    def test_requires_equal_cutoffs(self):
        with pytest.raises(ValueError):
            u00(HilbertDims(4, 5))


class TestIdealShifters:
    def test_zero_shift_identity_slice(self):
        v = v_plus_ideal(0, DIMS)
        src = basis_state(DIMS, PLUS, 0, 3)
        assert np.allclose(apply(v, src).amplitudes, src.amplitudes)

    def test_plus_shifts_x_vacuum(self):
        v = v_plus_ideal(2, DIMS)
        src = basis_state(DIMS, PLUS, 0, 1)  # chi = fock(1)
        out = apply(v, src)
        assert np.linalg.norm(out.amplitudes - basis_state(DIMS, PLUS, 2, 1).amplitudes) < 1e-14

    def test_minus_commutes_with_plus_projector(self):
        from iontomo.hilbert import electronic_op
        v = v_minus_ideal(3, DIMS).matrix
        proj = electronic_op(PLUS, PLUS, DIMS).matrix
        assert np.max(np.abs(v @ proj - proj @ v)) <= 1e-14

    def test_minus_identity_on_plus_sector(self):
        v = v_minus_ideal(2, DIMS)
        src = basis_state(DIMS, PLUS, 3, 1)
        assert np.allclose(apply(v, src).amplitudes, src.amplitudes)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            v_plus_ideal(8, DIMS)

    @pytest.mark.parametrize("completion", ["cycle", "swap"])
    def test_matches_loop_reference(self, completion):
        # element-by-element construction of the sector-restricted Fock shift
        dims = HilbertDims(5, 5)

        def shift(j, k):
            if completion == "cycle":
                return (j + k) % 5
            return k if j == 0 else (0 if j == k else j)

        for k in range(5):
            for shifter, sector, axis in ((v_plus_ideal, PLUS, "x"), (v_minus_ideal, MINUS, "z")):
                ref = np.zeros((dims.total_dim, dims.total_dim), dtype=complex)
                for e in range(3):
                    for nx in range(5):
                        for nz in range(5):
                            tx = shift(nx, k) if e == sector and axis == "x" else nx
                            tz = shift(nz, k) if e == sector and axis == "z" else nz
                            ref[dims.index(e, tx, tz), dims.index(e, nx, nz)] = 1.0
                assert np.array_equal(shifter(k, dims, completion).matrix, ref)


class TestCompiledShifters:
    def test_zero_schedule_empty(self):
        assert v_plus_schedule(0) == []
        assert np.allclose(v_plus_compiled(0, DIMS).matrix, np.eye(DIMS.total_dim))

    def test_schedule_lengths(self):
        # n sideband pulses, plus a closing carrier when n is odd
        for n in range(6):
            sched = v_plus_schedule(n)
            assert len(sched) == n + (n % 2)

    def test_single_step_matches_ideal_on_branch(self):
        chi = coherent(0.5, 8, tail_tol=1e-6)
        vc = v_plus_compiled(1, DIMS).matrix
        vi = v_plus_ideal(1, DIMS).matrix
        src = np.zeros(DIMS.total_dim, dtype=complex)
        for k in range(8):
            src[DIMS.index(PLUS, 0, k)] = chi.amplitudes[k]
        assert np.linalg.norm(vc @ src - vi @ src) < 1e-12

    def test_minus_sector_invariance(self):
        from iontomo.hilbert import electronic_op
        v = v_plus_compiled(2, DIMS).matrix
        proj = electronic_op(MINUS, MINUS, DIMS).matrix
        assert np.max(np.abs(v @ proj - proj @ v)) <= 1e-10

    @pytest.mark.parametrize("k", range(5))
    def test_branch_action_both_shifters(self, k):
        # V+_k : |0, chi, +> -> |k, chi, +>; V-_k : |chi, 0, -> -> |chi, k, ->
        chi_vec = coherent(0.5, 8, tail_tol=1e-6).amplitudes
        vp = v_plus_compiled(k, DIMS).matrix
        src = np.zeros(DIMS.total_dim, dtype=complex)
        tgt = np.zeros(DIMS.total_dim, dtype=complex)
        for j in range(8):
            src[DIMS.index(PLUS, 0, j)] = chi_vec[j]
            tgt[DIMS.index(PLUS, k, j)] = chi_vec[j]
        assert np.linalg.norm(vp @ src - tgt) < 1e-10
        vm = v_minus_compiled(k, DIMS).matrix
        src = np.zeros(DIMS.total_dim, dtype=complex)
        tgt = np.zeros(DIMS.total_dim, dtype=complex)
        for j in range(8):
            src[DIMS.index(MINUS, j, 0)] = chi_vec[j]
            tgt[DIMS.index(MINUS, j, k)] = chi_vec[j]
        assert np.linalg.norm(vm @ src - tgt) < 1e-10

    def test_near_cutoff_rejected(self):
        with pytest.raises(ValueError):
            v_plus_compiled(7, DIMS)
        with pytest.raises(ValueError):
            v_minus_compiled(7, DIMS)

    def test_minus_schedule_addresses_z_and_minus(self):
        for spec in v_minus_schedule(3):
            assert spec.mode == "z"
            assert spec.levels[0] == "-"


class TestComposedUnitary:
    def test_zero_indices_equal_entangler(self):
        assert np.array_equal(u_mn(0, 0, SETTINGS).matrix, u00(DIMS).matrix)

    def test_example_final_state(self):
        # (m, n) = (1, 2) on phi = |1>: (|1,1,-> + |2,1,+>)/sqrt(2)
        dims = HilbertDims(5, 5)
        st = ProtocolSettings(dims)
        psi = prepare_initial_pure(fock(1, 5), dims)
        out = apply(u_mn(1, 2, st), psi)
        target = np.zeros(dims.total_dim, dtype=complex)
        target[dims.index(MINUS, 1, 1)] = 1 / math.sqrt(2)
        target[dims.index(PLUS, 2, 1)] = 1 / math.sqrt(2)
        assert np.linalg.norm(out.amplitudes - target) < 1e-12

    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    def test_unitarity(self, v_mode):
        st = ProtocolSettings(DIMS, v_mode=v_mode)
        u = u_mn(2, 3, st)
        assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(DIMS.total_dim))) <= 1e-10

    @pytest.mark.parametrize("phi_name,phi", [
        ("fock0", fock(0, 8)),
        ("fock2", fock(2, 8)),
        ("coherent", coherent(0.8, 8, tail_tol=1e-5)),
        ("cat", cat(1.2, "even", 8, tail_tol=1e-3)),
    ])
    @pytest.mark.parametrize("v_mode,tol", [("ideal", 1e-9), ("compiled", 1e-7)])
    def test_produces_entangled_target(self, phi_name, phi, v_mode, tol):
        st = ProtocolSettings(DIMS, v_mode=v_mode)
        psi = prepare_initial_pure(phi, DIMS)
        for m in range(3):
            for n in range(3):
                out = apply(u_mn(m, n, st), psi)
                resid = np.linalg.norm(out.amplitudes - entangled_target(phi, DIMS, m, n))
                assert resid <= tol, f"(m={m}, n={n}): residual {resid:.2e}"


class TestCoherenceExpectation:
    def test_vacuum_diagonal(self):
        rho = apply(u_mn(0, 0, SETTINGS), prepare_initial(fock(0, 8), DIMS))
        assert coherence_expectation(rho) == pytest.approx(1.0, abs=1e-12)

    def test_fock_offdiagonal_vanishes(self):
        rho = apply(u_mn(0, 1, SETTINGS), prepare_initial(fock(1, 8), DIMS))
        assert abs(coherence_expectation(rho)) < 1e-12

    def test_coherent_20_element(self):
        phi = coherent(0.8, 12, tail_tol=1e-9)
        dims = HilbertDims(12, 12)
        st = ProtocolSettings(dims)
        rho = apply(u_mn(2, 0, st), prepare_initial(phi, dims))
        assert coherence_expectation(rho).real == pytest.approx(RHO20_COH08, abs=1e-6)


class TestMeasureElement:
    def test_coherent_10(self):
        phi = coherent(0.8, 12, tail_tol=1e-9)
        dims = HilbertDims(12, 12)
        est = measure_element(phi, 1, 0, ProtocolSettings(dims))
        assert est.value.real == pytest.approx(RHO10_COH08, abs=1e-6)
        assert est.stderr == 0.0
        assert est.shots_used == 0

    def test_thermal_offdiagonal_zero(self):
        est = measure_element(thermal(0.5, 8, tail_tol=1e-3), 0, 1, SETTINGS)
        assert abs(est.value) < 1e-12

    def test_dephased_coherent(self):
        phi = dephase(coherent(0.8, 12, tail_tol=1e-9), 0.3)
        dims = HilbertDims(12, 12)
        est = measure_element(phi, 2, 0, ProtocolSettings(dims))
        assert est.value.real == pytest.approx(RHO20_COH08 * math.exp(-1.2), abs=1e-6)

    def test_complex_alpha_pins_sign_convention(self):
        # the (m, n) element of a complex-alpha coherent state is complex, so
        # this discriminates value = <sx> - i <sy> from its conjugate
        alpha = 0.5 + 0.3j
        phi = coherent(alpha, 8, tail_tol=1e-5)
        truth = phi.density_matrix()
        for m, n in ((1, 0), (0, 1), (2, 1)):
            est = measure_element(phi, m, n, SETTINGS)
            assert abs(est.value - truth[m, n]) < 1e-10

    @pytest.mark.parametrize("phi", [
        fock(3, 8),
        coherent(0.8, 8, tail_tol=1e-5),
        cat(1.2, "even", 8, tail_tol=1e-3),
    ], ids=["fock", "coherent", "cat"])
    def test_end_to_end_identity_pure(self, phi):
        truth = phi.density_matrix()
        for m in range(5):
            for n in range(5):
                est = measure_element(phi, m, n, SETTINGS)
                assert abs(est.value - truth[m, n]) <= 1e-9

    @pytest.mark.parametrize("phi", [
        thermal(0.5, 8, tail_tol=1e-3),
        dephase(coherent(0.8, 8, tail_tol=1e-5), 0.3),
    ], ids=["thermal", "dephased"])
    def test_end_to_end_identity_mixed(self, phi):
        truth = phi.density_matrix()
        for m in range(4):
            for n in range(4):
                est = measure_element(phi, m, n, SETTINGS)
                assert abs(est.value - truth[m, n]) <= 1e-9

    def test_hermiticity_from_independent_runs(self):
        phi = dephase(coherent(0.7 + 0.2j, 8, tail_tol=1e-4), 0.1)
        for m in range(3):
            for n in range(3):
                a = measure_element(phi, m, n, SETTINGS)
                b = measure_element(phi, n, m, SETTINGS)
                assert abs(a.value - np.conj(b.value)) <= 1e-9

    def test_completion_choice_is_unobservable(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        rho0 = prepare_initial(phi, DIMS)
        for m, n in ((1, 2), (3, 0), (2, 2)):
            vals = []
            for completion in ("cycle", "swap"):
                u = v_plus_ideal(n, DIMS, completion) @ (
                    v_minus_ideal(m, DIMS, completion) @ u00(DIMS))
                vals.append(coherence_expectation(apply(u, rho0)))
            assert abs(vals[0] - vals[1]) < 1e-12


class TestBranchIsolation:
    def test_plus_shifter_ignores_minus_branch_content(self):
        # two superpositions differing only in the minus branch's z content
        def make_state(zq):
            v = np.zeros(DIMS.total_dim, dtype=complex)
            v[DIMS.index(MINUS, 1, zq)] = 1 / math.sqrt(2)
            v[DIMS.index(PLUS, 0, 2)] = 1 / math.sqrt(2)
            return PureState(v, DIMS)

        v = v_plus_compiled(2, DIMS)
        outs = [apply(v, make_state(zq)).amplitudes for zq in (0, 1)]
        plus_and_xi = slice(DIMS.vib_dim, 3 * DIMS.vib_dim)
        assert np.linalg.norm(outs[0][plus_and_xi] - outs[1][plus_and_xi]) < 1e-12
        # and the minus branch itself is untouched
        for zq, out in zip((0, 1), outs):
            assert out[DIMS.index(MINUS, 1, zq)] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_minus_shifter_ignores_plus_branch_content(self):
        def make_state(xq):
            v = np.zeros(DIMS.total_dim, dtype=complex)
            v[DIMS.index(MINUS, 1, 0)] = 1 / math.sqrt(2)
            v[DIMS.index(PLUS, xq, 2)] = 1 / math.sqrt(2)
            return PureState(v, DIMS)

        v = v_minus_compiled(2, DIMS)
        outs = [apply(v, make_state(xq)).amplitudes for xq in (0, 3)]
        minus_slice = slice(0, DIMS.vib_dim)
        diff = outs[0][minus_slice] - outs[1][minus_slice]
        assert np.linalg.norm(diff) < 1e-12


class TestSampling:
    def _rho_00_vacuum(self):
        return apply(u_mn(0, 0, SETTINGS), prepare_initial(fock(0, 8), DIMS))

    def test_x_channel_deterministic_on_vacuum(self):
        # the transformed state is a +1 eigenstate of the x pseudospin
        probs = transverse_probabilities(self._rho_00_vacuum(), "x")
        assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-12)
        est = coherence_sampled(self._rho_00_vacuum(), 0, 0, shots=500, seed=3)
        assert est.value.real == 1.0

    def test_deterministic_given_seed(self):
        rho = apply(u_mn(1, 0, SETTINGS), prepare_initial(coherent(0.8, 8, tail_tol=1e-5), DIMS))
        a = coherence_sampled(rho, 1, 0, shots=4096, seed=17)
        b = coherence_sampled(rho, 1, 0, shots=4096, seed=17)
        assert a.value == b.value and a.stderr == b.stderr

    def test_different_cells_use_independent_streams(self):
        rho = apply(u_mn(1, 0, SETTINGS), prepare_initial(coherent(0.8, 8, tail_tol=1e-5), DIMS))
        a = coherence_sampled(rho, 1, 0, shots=4096, seed=17)
        b = coherence_sampled(rho, 0, 1, shots=4096, seed=17)
        assert a.value != b.value

    def test_converges_to_exact(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        rho = apply(u_mn(1, 0, SETTINGS), prepare_initial(phi, DIMS))
        exact = coherence_expectation(rho)
        est = coherence_sampled(rho, 1, 0, shots=100_000, seed=42)
        assert abs(est.value - exact) <= 5 * est.stderr

    def test_seed_ensemble_consistency(self):
        # mean over 64 seeds within 3 standard errors of that mean
        phi = coherent(0.5 + 0.3j, 8, tail_tol=1e-4)
        rho = apply(u_mn(2, 0, SETTINGS), prepare_initial(phi, DIMS))
        exact = coherence_expectation(rho)
        vals = np.array([coherence_sampled(rho, 2, 0, shots=2000, seed=s).value
                         for s in range(64)])
        for part in (np.real, np.imag):
            samples = part(vals)
            sem = samples.std(ddof=1) / math.sqrt(len(samples))
            assert abs(samples.mean() - part(exact)) <= 3 * sem

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            coherence_sampled(self._rho_00_vacuum(), 0, 0, shots=0, seed=1)

    @staticmethod
    def _reduced_with_p_plus(p_plus):
        # p(+1) of the x observable is 1/2 + Re red[-, +]
        red = np.zeros((3, 3), dtype=complex)
        red[MINUS, MINUS] = red[PLUS, PLUS] = 0.5
        red[MINUS, PLUS] = red[PLUS, MINUS] = p_plus - 0.5
        return red

    def test_clipping_beyond_tolerance_raises(self):
        with pytest.raises(ValueError, match="clipped"):
            reduced_probabilities(self._reduced_with_p_plus(-1e-6), "x")

    def test_rounding_is_clipped_as_before(self):
        red = self._reduced_with_p_plus(-1e-15)
        assert np.array_equal(reduced_probabilities(red, "x"), [0.0, 1.0, 0.0])

    def test_transverse_probabilities_reads_reduced_state(self):
        rho = apply(u_mn(1, 0, SETTINGS), prepare_initial(coherent(0.8, 8, tail_tol=1e-5), DIMS))
        for observable in ("x", "y"):
            assert np.array_equal(transverse_probabilities(rho, observable),
                                  reduced_probabilities(_electronic_reduced(rho), observable))
        with pytest.raises(ValueError):
            reduced_probabilities(_electronic_reduced(rho), "z")

    def test_measure_element_sampled_mode(self):
        st = ProtocolSettings(DIMS, shots=5000, seed=9)
        est = measure_element(coherent(0.8, 8, tail_tol=1e-5), 1, 0, st)
        assert est.shots_used == 5000
        assert est.stderr > 0


class TestSettingsValidation:
    def test_unequal_cutoffs_rejected(self):
        with pytest.raises(ValueError):
            ProtocolSettings(HilbertDims(8, 6))

    def test_bad_v_mode(self):
        with pytest.raises(ValueError):
            ProtocolSettings(DIMS, v_mode="magic")

    def test_zero_shots(self):
        with pytest.raises(ValueError):
            ProtocolSettings(DIMS, shots=0)

    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            CoherenceEstimate(1.0 + 0j, -0.1, 100, 0, 0)
        with pytest.raises(ValueError):
            CoherenceEstimate(1.0 + 0j, 0.2, 0, 0, 0)


class TestHotPathInvariants:
    """Products and apply() skip re-verification; check what they skip here, with plain numpy."""

    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    def test_composed_unitaries_and_output_states(self, v_mode):
        settings = ProtocolSettings(DIMS, v_mode=v_mode)
        rho0 = prepare_initial(dephase(coherent(0.6 + 0.5j, 8, tail_tol=1e-5), 0.3), DIMS)
        eye = np.eye(DIMS.total_dim)
        for m in range(5):
            for n in range(5):
                u = u_mn(m, n, settings)
                assert u.unitary
                assert np.max(np.abs(u.matrix.conj().T @ u.matrix - eye)) <= 1e-10
                rho = apply(u, rho0).matrix
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
                assert abs(np.trace(rho) - 1.0) <= 1e-10
                assert np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] >= -1e-10

    def test_measure_prepared_matches_measure_element(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        st = ProtocolSettings(DIMS, shots=1000, seed=4)
        a = measure_prepared(prepare_vibrational(phi, DIMS), 2, 1, st)
        b = measure_element(phi, 2, 1, st)
        assert (a.value, a.stderr, a.shots_used) == (b.value, b.stderr, b.shots_used)


MIXED_INPUTS = {
    "thermal": lambda d: thermal(0.4, d, tail_tol=1e-1),
    "dephased": lambda d: dephase(coherent(0.6 + 0.4j, d, tail_tol=1e-2), 0.2),
}


class TestSliceEngine:
    """measure_prepared against the dense reference apply(u_mn, prepare_initial)."""

    @pytest.mark.parametrize("d", [5, 8])
    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    @pytest.mark.parametrize("compat", [False, True], ids=["final-plus", "compat"])
    @pytest.mark.parametrize("input_name", sorted(MIXED_INPUTS))
    def test_every_cell_matches_dense(self, d, v_mode, compat, input_name):
        dims = HilbertDims(d, d)
        phi = MIXED_INPUTS[input_name](d)
        settings = ProtocolSettings(dims, v_mode=v_mode, compat_rminus_final=compat)
        rho0 = prepare_initial(phi, dims)
        rho_vibr = prepare_vibrational(phi, dims)
        for m in range(d - 1):
            for n in range(d - 1):
                dense = apply(u_mn(m, n, settings), rho0)
                value = measure_prepared(rho_vibr, m, n, settings).value
                assert abs(value - coherence_expectation(dense)) <= 1e-12
                w = _slice_images(m, n, settings).reshape(3, dims.vib_dim, d)
                red = _slice_reduced(w, rho_vibr)
                assert np.max(np.abs(red - _electronic_reduced(dense))) <= 1e-12

    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    def test_slice_images_are_dense_columns(self, v_mode):
        settings = ProtocolSettings(DIMS, v_mode=v_mode)
        columns = [DIMS.index(MINUS, k, 0) for k in range(DIMS.dx)]
        for m, n in ((0, 0), (3, 1), (6, 5)):
            w = _slice_images(m, n, settings).reshape(DIMS.total_dim, DIMS.dx)
            assert np.max(np.abs(w - u_mn(m, n, settings).matrix[:, columns])) <= 1e-12

    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    def test_d60_coherent_cell(self, v_mode):
        alpha, m, n = 1.5 + 0.5j, 7, 3
        settings = ProtocolSettings(HilbertDims(60, 60), v_mode=v_mode)
        phi = coherent(alpha, 60)
        tracemalloc.start()
        try:
            value = measure_element(phi, m, n, settings).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        closed = (math.exp(-abs(alpha) ** 2) * alpha ** m * np.conj(alpha) ** n
                  / math.sqrt(math.factorial(m) * math.factorial(n)))
        assert abs(value - closed) <= 1e-9
        assert peak < 100 * 2 ** 20

    def test_builds_no_dense_operator(self):
        dense_caches = (pulses.compile_pulse, protocol.u00, protocol.v_plus_ideal,
                        protocol.v_minus_ideal, protocol.v_plus_compiled,
                        protocol.v_minus_compiled, hilbert.pauli)
        for cache in dense_caches:
            cache.cache_clear()
        phi = dephase(coherent(0.5, 8, tail_tol=1e-4), 0.1)
        for v_mode in ("ideal", "compiled"):
            reconstruct(phi, 4, ProtocolSettings(DIMS, v_mode=v_mode))
        measure_element(phi, 2, 1, ProtocolSettings(DIMS, shots=100, seed=1))
        assert [cache.cache_info().currsize for cache in dense_caches] == [0] * len(dense_caches)
        assert pulses._ly_blocks.cache_info().maxsize is not None

    @pytest.mark.parametrize("v_mode,m,n", [("ideal", 8, 0), ("ideal", 0, -1),
                                            ("compiled", 7, 0), ("compiled", 0, 7)])
    def test_target_out_of_reach(self, v_mode, m, n):
        with pytest.raises(ValueError):
            measure_element(fock(0, 8), m, n, ProtocolSettings(DIMS, v_mode=v_mode))

    def test_rejects_wrong_input_shape(self):
        with pytest.raises(ValueError):
            measure_prepared(prepare_initial(fock(0, 8), DIMS), 0, 0, SETTINGS)
