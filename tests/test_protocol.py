"""Tests for the measurement protocol: entangler, branch shifters, readout, sampling and the slice engine.

The protocol runs on the slice engine (pulses.act_pulse on (3, d, d, r)
tensors); tests/oracle.py builds the same unitaries as dense N x N matrices,
and the engine is compared with it cell by cell.
"""

import dataclasses
import math
import random
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hypothesis_settings
from hypothesis import strategies as st

import oracle
from iontomo import cli, hilbert, protocol, pulses, states, tomography
from iontomo.hilbert import MINUS, PLUS, XI
from iontomo.protocol import (
    CoherenceEstimate,
    ProtocolSettings,
    _binomial,
    _cell_images,
    _ladder,
    _sample_cell,
    entangled_target_deviation,
    ladder_schedule,
    measure_element,
    shifter_deviation,
    shifter_reach,
    transverse_probabilities,
    u00_schedule,
)
from iontomo.pulses import act_pulse, sideband_coupling
from iontomo.states import VibrationalState, cat, coherent, dephase, fock, thermal
from iontomo.tomography import reconstruct
from util import RHO20_COH08, expm_taylor, tensor

D = 8
DIMS = (D, D)
N = oracle.size(DIMS)
SETTINGS = ProtocolSettings(D)

RHO10_COH08 = 0.42183393923443885  # exp(-0.64) * 0.8


def entangled_target(phi, dims, m=0, n=0):
    """(|phi>_x|m>_z|-> + |n>_x|phi>_z|+>)/sqrt(2) as a raw vector."""
    target = np.zeros(oracle.size(dims), dtype=complex)
    for k in range(dims[0]):
        target[oracle.index(dims, MINUS, k, m)] += phi.amplitudes[k] / math.sqrt(2)
        target[oracle.index(dims, PLUS, n, k)] += phi.amplitudes[k] / math.sqrt(2)
    return target


def run_pure(phi, m, n, settings):
    """U_mn |phi>_x|0>_z|-> from the engine's slice images, as a flat vector."""
    return next(_cell_images([(m, n)], settings, phi.amplitudes[:, None]))[2].reshape(-1)


def engine_readout(phi, m, n, settings):
    """(value, populations) of cell (m, n) as the engine's entry hands them to the sampler.

    The cell runs in sampled mode, one shot, with the sampler replaced by a recorder.
    """
    seen = []

    def record(value, populations, *_):
        seen.append((value, populations))
        return CoherenceEstimate(value, 0.0)

    with mock.patch.object(protocol, "_sample_cell", record):
        measure_element(phi, m, n, dataclasses.replace(settings, shots=1))
    [(value, populations)] = seen
    return value, populations


def eigenvector_probabilities(red, observable):
    """[p(+1), p(-1), p(0)] of a transverse pseudospin as the forms s^dag red s on a 3 x 3 state.

    s is the observable's +1 or -1 eigenvector on the {-, +} pair, or |xi> for the 0 outcome.
    """
    s = {"x": ([1.0, 1.0, 0.0], [1.0, -1.0, 0.0]), "y": ([1.0, -1.0j, 0.0], [1.0, 1.0j, 0.0])}
    vectors = [np.array(v) / math.sqrt(2) for v in s[observable]] + [np.array([0.0, 0.0, 1.0])]
    return np.array([(v.conj() @ red @ v).real for v in vectors])


def _test_rotation_matrix(level, theta, dims):
    """Hand-built electronic rotation, independent of the package and the oracle."""
    r3 = np.eye(3, dtype=complex)
    r3[level, level] = math.cos(theta)
    r3[XI, XI] = math.cos(theta)
    r3[XI, level] = math.sin(theta)
    r3[level, XI] = -math.sin(theta)
    return np.kron(r3, np.eye(dims[0] * dims[1]))


def _test_vrot_matrix(theta, dims):
    """Hand-built vibrational rotation via the series exponential, on the d x d box.

    It is built at cutoff 2d - 1, where every block of total phonon number the box
    touches is whole, and restricted to the box.
    """
    big = 2 * dims[0] - 1
    a = np.diag(np.sqrt(np.arange(1, big)), 1).astype(complex)
    l2 = 1j * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T))
    sig = np.zeros((3, 3), dtype=complex)
    sig[PLUS, XI] = sig[XI, PLUS] = 1.0
    box = np.arange(3 * big * big).reshape(3, big, big)[:, :dims[0], :dims[0]].reshape(-1)
    return expm_taylor(1j * theta * np.kron(sig, l2))[np.ix_(box, box)]


class TestEntangler:
    def test_vacuum_input(self):
        # phi = |0> makes both branches identical: |0,0> (x) (|-> + |+>)/sqrt(2)
        dims = (4, 4)
        out = run_pure(fock(0, 4), 0, 0, ProtocolSettings(4))
        expected = (oracle.basis(dims, MINUS, 0, 0) + oracle.basis(dims, PLUS, 0, 0)) / math.sqrt(2)
        assert np.linalg.norm(out - expected) < 1e-12

    def test_single_phonon_input(self):
        dims = (4, 4)
        out = run_pure(fock(1, 4), 0, 0, ProtocolSettings(4))
        assert np.linalg.norm(out - entangled_target(fock(1, 4), dims)) < 1e-12

    def test_matches_independent_pulse_product(self):
        # brute-force product of the four hand-built pulse matrices, against the
        # oracle's entangler and the engine's slice images (its |->|k>_x|0>_z columns)
        dims = (4, 4)
        reference = (_test_rotation_matrix(PLUS, -math.pi / 4, dims)
                     @ _test_vrot_matrix(math.pi / 2, dims)
                     @ _test_rotation_matrix(PLUS, -math.pi / 4, dims)
                     @ _test_rotation_matrix(MINUS, math.pi / 4, dims))
        assert np.max(np.abs(oracle.u00(dims) - reference)) < 1e-11
        columns = [oracle.index(dims, MINUS, k, 0) for k in range(dims[0])]
        images = next(_cell_images([(0, 0)], ProtocolSettings(4), np.eye(dims[0])))[2]
        images = images.reshape(oracle.size(dims), dims[0])
        assert np.max(np.abs(images - reference[:, columns])) < 1e-11

    def test_intermediate_bright_state(self):
        # after the first two pulses the electronic factor is (|-> + |alpha>)/sqrt(2)
        dims = (4, 4)
        state = tensor(oracle.prepare_initial_pure(fock(1, 4), dims), dims)
        for spec in u00_schedule()[:2]:
            act_pulse(spec, state)
        alpha_part = np.zeros(oracle.size(dims), dtype=complex)
        alpha_part[oracle.index(dims, MINUS, 1, 0)] = 1 / math.sqrt(2)
        alpha_part[oracle.index(dims, PLUS, 1, 0)] = 0.5
        alpha_part[oracle.index(dims, XI, 1, 0)] = 0.5
        assert np.linalg.norm(state.reshape(-1) - alpha_part) < 1e-12

    def test_compat_variant_leaves_xi_population(self):
        dims = (4, 4)
        out = run_pure(fock(1, 4), 0, 0, ProtocolSettings(4, compat_rminus_final=True))
        xi_slice = out[2 * dims[0] * dims[1]:]
        assert np.sum(np.abs(xi_slice) ** 2) > 0.05

    @pytest.mark.parametrize("phi", [coherent(0.8 + 0.3j, 10, tail_tol=1e-6),
                                     dephase(coherent(0.7 + 0.4j, 10, tail_tol=1e-6), 0.2),
                                     thermal(0.8, 10, tail_tol=1e-3)], ids=["pure", "dephased", "thermal"])
    def test_compat_reads_half_of_each_element_and_a_wrap_around_column(self, phi):
        # the repeated {-, xi} pulse leaves |phi,0>/2 - |0,phi>/(2 sqrt 2) on |-> and |0,phi>/2 on |+>;
        # the ideal V-_m rolls the second term's z mode around the cutoff, and it meets |n,phi> at
        # n = 0 only: estimate[m, n] = rho_mn / 2 - delta_n0 sum_k rho_{(k+m) mod d, k} / (2 sqrt 2)
        d = 10
        rho = phi.density_matrix()
        k = np.arange(d)
        closed = rho / 2
        closed[:, 0] -= [rho[(k + m) % d, k].sum() / (2 * math.sqrt(2)) for m in range(d)]
        report = reconstruct(phi, d - 1, ProtocolSettings(d, compat_rminus_final=True))
        assert np.max(np.abs(report.estimates - closed)) <= 1e-14


class TestIdealShifters:
    """The engine's ideal shifters: Fock-index rolls inside one electronic sector."""

    def test_zero_shift_identity_slice(self):
        src = tensor(oracle.basis(DIMS, PLUS, 0, 3), DIMS)
        for branch in (MINUS, PLUS):
            assert np.array_equal(next(_ladder(src.copy(), branch, [0], "ideal"))[1], src)

    def test_plus_shifts_x_vacuum(self):
        src = tensor(oracle.basis(DIMS, PLUS, 0, 1), DIMS)  # chi = fock(1)
        out = next(_ladder(src, PLUS, [2], "ideal"))[1]
        assert np.linalg.norm(out.reshape(-1) - oracle.basis(DIMS, PLUS, 2, 1)) < 1e-14

    def test_minus_commutes_with_plus_projector(self):
        # V-_3 neither moves |+> content nor lets |-> content reach the |+> sector
        rng = np.random.default_rng(5)
        state = rng.normal(size=(3, 8, 8, 4)) + 1j * rng.normal(size=(3, 8, 8, 4))
        out = next(_ladder(state.copy(), MINUS, [3], "ideal"))[1]
        assert np.array_equal(out[PLUS], state[PLUS])
        only_minus = state.copy()
        only_minus[PLUS] = only_minus[XI] = 0.0
        assert np.max(np.abs(next(_ladder(only_minus, MINUS, [3], "ideal"))[1][PLUS])) == 0.0

    def test_minus_identity_on_plus_sector(self):
        src = tensor(oracle.basis(DIMS, PLUS, 3, 1), DIMS)
        assert np.array_equal(next(_ladder(src.copy(), MINUS, [2], "ideal"))[1], src)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            next(_cell_images([(0, 8)], SETTINGS, np.eye(D)))

    @pytest.mark.parametrize("completion", ["cycle", "swap"])
    def test_matches_loop_reference(self, completion):
        # element-by-element construction of the sector-restricted Fock shift,
        # against the oracle's permutations and (for 'cycle') the engine's rolls
        dims = (5, 5)

        def shift(j, k):
            if completion == "cycle":
                return (j + k) % 5
            return k if j == 0 else (0 if j == k else j)

        for k in range(5):
            for sector, axis in ((PLUS, "x"), (MINUS, "z")):
                ref = np.zeros((oracle.size(dims), oracle.size(dims)), dtype=complex)
                for e in range(3):
                    for nx in range(5):
                        for nz in range(5):
                            tx = shift(nx, k) if e == sector and axis == "x" else nx
                            tz = shift(nz, k) if e == sector and axis == "z" else nz
                            ref[oracle.index(dims, e, tx, tz), oracle.index(dims, e, nx, nz)] = 1.0
                assert np.array_equal(oracle.shift(dims, sector, axis, k, completion), ref)
                if completion == "cycle":
                    eye = np.eye(oracle.size(dims), dtype=complex).reshape(3, 5, 5, -1)
                    rolled = next(_ladder(eye, sector, [k], "ideal"))[1].reshape(oracle.size(dims), -1)
                    assert np.array_equal(rolled, ref)


class TestCompiledShifters:
    """The engine's compiled shifters: sideband ladders acting through act_pulse."""

    def test_zero_schedule_empty(self):
        assert ladder_schedule(0, PLUS) == []
        rng = np.random.default_rng(1)
        state = rng.normal(size=(3, 8, 8, 2)) + 1j * rng.normal(size=(3, 8, 8, 2))
        for branch in (MINUS, PLUS):
            assert np.array_equal(next(_ladder(state.copy(), branch, [0], "compiled"))[1], state)

    def test_schedule_lengths(self):
        # n sideband pulses, plus a closing carrier when n is odd
        for n in range(6):
            sched = ladder_schedule(n, PLUS)
            assert len(sched) == n + (n % 2)

    def test_coefficients_are_exactly_one_and_real_inputs_stay_real(self):
        # the laser phases enter as exact quarter turns, so every step takes |j> to |j+1> with
        # coefficient exactly 1, and a compiled block's images of real columns are real
        for branch in (PLUS, MINUS):
            for k in range(1, 4):
                w = np.zeros((3, D, D, 1), dtype=complex)
                w[branch, 0, 0] = 1.0
                lifted = next(_ladder(w, branch, [k], "compiled"))[1]
                assert lifted[(branch, k, 0) if branch == PLUS else (branch, 0, k)] == 1.0
        cells = [(m, n) for m in range(D - 1) for n in range(D - 1)]
        run = ProtocolSettings(D, v_mode="compiled")
        assert all(not np.any(w.imag) for _, _, w in _cell_images(cells, run, np.eye(D)))

    def test_single_step_matches_ideal_on_branch(self):
        chi = coherent(0.5, 8, tail_tol=1e-6)
        src = np.zeros(N, dtype=complex)
        for k in range(8):
            src[oracle.index(DIMS, PLUS, 0, k)] = chi.amplitudes[k]
        compiled = next(_ladder(tensor(src, DIMS), PLUS, [1], "compiled"))[1]
        ideal = next(_ladder(tensor(src, DIMS), PLUS, [1], "ideal"))[1]
        assert np.linalg.norm(compiled - ideal) < 1e-12

    def test_minus_sector_invariance(self):
        # V+_2 leaves every |-> state in place and sends nothing into the |-> sector
        eye = np.eye(N, dtype=complex).reshape(3, 8, 8, -1)
        v = next(_ladder(eye, PLUS, [2], "compiled"))[1].reshape(N, -1)
        proj = oracle.electronic(MINUS, MINUS, DIMS)
        assert np.max(np.abs(v @ proj - proj @ v)) <= 1e-10

    @pytest.mark.parametrize("k", range(5))
    def test_branch_action_both_shifters(self, k):
        # V+_k : |0, chi, +> -> |k, chi, +>; V-_k : |chi, 0, -> -> |chi, k, ->
        chi_vec = coherent(0.5, 8, tail_tol=1e-6).amplitudes
        src = np.zeros(N, dtype=complex)
        tgt = np.zeros(N, dtype=complex)
        for j in range(8):
            src[oracle.index(DIMS, PLUS, 0, j)] = chi_vec[j]
            tgt[oracle.index(DIMS, PLUS, k, j)] = chi_vec[j]
        assert np.linalg.norm(next(_ladder(tensor(src, DIMS), PLUS, [k], "compiled"))[1].reshape(-1)
                              - tgt) < 1e-10
        src = np.zeros(N, dtype=complex)
        tgt = np.zeros(N, dtype=complex)
        for j in range(8):
            src[oracle.index(DIMS, MINUS, j, 0)] = chi_vec[j]
            tgt[oracle.index(DIMS, MINUS, j, k)] = chi_vec[j]
        assert np.linalg.norm(next(_ladder(tensor(src, DIMS), MINUS, [k], "compiled"))[1].reshape(-1)
                              - tgt) < 1e-10

    def test_ladder_areas_are_pi_pulses_at_the_sideband_coupling(self):
        # step j drives the doublet |j>, |j+1> at sideband_coupling(j) = sqrt(j+1)
        assert np.array_equal(sideband_coupling(np.arange(6)), np.sqrt(np.arange(1, 7)))
        for j, spec in enumerate(ladder_schedule(5, PLUS)[:5]):
            assert spec.angle * sideband_coupling(j) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_near_cutoff_rejected(self):
        compiled = ProtocolSettings(D, v_mode="compiled")
        with pytest.raises(ValueError):
            next(_cell_images([(0, 7)], compiled, np.eye(D)))
        with pytest.raises(ValueError):
            next(_cell_images([(7, 0)], compiled, np.eye(D)))

    @pytest.mark.parametrize("defect", [False, True], ids=["exact", "closing-carrier-at-pi/2"])
    @pytest.mark.parametrize("d", [4, 12])
    def test_one_walk_per_branch_is_the_worst_single_target(self, d, defect, monkeypatch):
        # shifter_deviation over validate's targets walks each branch once; it must read every
        # target exactly as a walk to that target alone does, on validate's branch slices and on
        # a seeded random tensor, with the exact pulses and with a defect that spoils odd targets
        if defect:
            exact = protocol._closing_carrier
            monkeypatch.setattr(protocol, "_closing_carrier",
                                lambda branch: dataclasses.replace(exact(branch), phase=protocol.HALF_PI))
        targets = list(range(min(4, shifter_reach(d, "compiled")) + 1))
        j = np.arange(d)
        slices = np.zeros((3, d, d, 2 * d), dtype=complex)
        slices[MINUS, j, 0, j] = 1.0
        slices[PLUS, 0, j, d + j] = 1.0
        rng = np.random.default_rng(d)
        random = rng.normal(size=(3, d, d, 3)) + 1j * rng.normal(size=(3, d, d, 3))
        for states in (slices, random):
            dev = shifter_deviation(targets, states)
            assert dev == max(shifter_deviation([k], states) for k in targets)
            assert (dev > 1e-3) if defect else (dev <= 1e-10)

    def test_minus_schedule_addresses_z_and_minus(self):
        # one kind and one laser phase: jc on (xi, -) for the even steps, which leave |->, and on
        # (-, xi) for the odd ones, then the closing carrier on (-, xi)
        kinds = [(spec.kind, spec.levels, spec.mode, spec.phase) for spec in ladder_schedule(3, MINUS)]
        assert kinds == [("jc", ("xi", "-"), "z", 1.5 * math.pi), ("jc", ("-", "xi"), "z", 1.5 * math.pi),
                         ("jc", ("xi", "-"), "z", 1.5 * math.pi), ("carrier", ("-", "xi"), "z", 1.5 * math.pi)]


class TestComposedUnitary:
    def test_zero_indices_equal_entangler(self):
        # with m = n = 0 neither shifter acts: the slice images are the entangler's alone
        k = np.arange(D)
        w = np.zeros((3, 8, 8, 8), dtype=complex)
        w[MINUS, k, 0, k] = 1.0
        for spec in u00_schedule():
            act_pulse(spec, w)
        for v_mode in ("ideal", "compiled"):
            settings = ProtocolSettings(D, v_mode=v_mode)
            assert np.array_equal(next(_cell_images([(0, 0)], settings, np.eye(D)))[2], w)

    def test_example_final_state(self):
        # (m, n) = (1, 2) on phi = |1>: (|1,1,-> + |2,1,+>)/sqrt(2)
        dims = (5, 5)
        out = run_pure(fock(1, 5), 1, 2, ProtocolSettings(5))
        target = np.zeros(oracle.size(dims), dtype=complex)
        target[oracle.index(dims, MINUS, 1, 1)] = 1 / math.sqrt(2)
        target[oracle.index(dims, PLUS, 2, 1)] = 1 / math.sqrt(2)
        assert np.linalg.norm(out - target) < 1e-12

    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    def test_unitarity(self, v_mode):
        u = oracle.u_mn(2, 3, ProtocolSettings(D, v_mode=v_mode))
        assert np.max(np.abs(u.conj().T @ u - np.eye(N))) <= 1e-10

    @pytest.mark.parametrize("phi_name,phi", [
        ("fock0", fock(0, 8)),
        ("fock2", fock(2, 8)),
        ("coherent", coherent(0.8, 8, tail_tol=1e-5)),
        ("cat", cat(1.2, "even", 8, tail_tol=1e-3)),
    ])
    @pytest.mark.parametrize("v_mode,tol", [("ideal", 1e-9), ("compiled", 1e-7)])
    def test_produces_entangled_target(self, phi_name, phi, v_mode, tol):
        st = ProtocolSettings(D, v_mode=v_mode)
        for m in range(3):
            for n in range(3):
                resid = entangled_target_deviation(st, [(m, n)], phi.amplitudes)
                assert resid <= tol, f"(m={m}, n={n}): residual {resid:.2e}"
                assert np.linalg.norm(run_pure(phi, m, n, st)
                                      - entangled_target(phi, DIMS, m, n)) == pytest.approx(resid)


class TestMeasureElement:
    def test_coherent_10(self):
        phi = coherent(0.8, 12, tail_tol=1e-9)
        est = measure_element(phi, 1, 0, ProtocolSettings(12))
        assert est.value.real == pytest.approx(RHO10_COH08, abs=1e-6)
        assert est.stderr == 0.0

    def test_thermal_offdiagonal_zero(self):
        est = measure_element(thermal(0.5, 8, tail_tol=1e-3), 0, 1, SETTINGS)
        assert abs(est.value) < 1e-12

    def test_dephased_coherent(self):
        phi = dephase(coherent(0.8, 12, tail_tol=1e-9), 0.3)
        est = measure_element(phi, 2, 0, ProtocolSettings(12))
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
        # the engine completes the ideal shifts by a cycle; the oracle's 'swap'
        # completion reads the same element
        phi = coherent(0.8, 8, tail_tol=1e-5)
        rho0 = oracle.prepare_initial(phi, DIMS)
        for m, n in ((1, 2), (3, 0), (2, 2)):
            swap = oracle.evolve(oracle.u_mn(m, n, SETTINGS, "swap"), rho0)
            value = measure_element(phi, m, n, SETTINGS).value
            assert abs(oracle.coherence(swap, DIMS) - value) < 1e-12


class TestBranchIsolation:
    def test_plus_shifter_ignores_minus_branch_content(self):
        # two superpositions differing only in the minus branch's z content
        def make_state(zq):
            v = np.zeros(N, dtype=complex)
            v[oracle.index(DIMS, MINUS, 1, zq)] = 1 / math.sqrt(2)
            v[oracle.index(DIMS, PLUS, 0, 2)] = 1 / math.sqrt(2)
            return tensor(v, DIMS)

        outs = [next(_ladder(make_state(zq), PLUS, [2], "compiled"))[1].reshape(-1) for zq in (0, 1)]
        plus_and_xi = slice(D * D, 3 * D * D)
        assert np.linalg.norm(outs[0][plus_and_xi] - outs[1][plus_and_xi]) < 1e-12
        # and the minus branch itself is untouched
        for zq, out in zip((0, 1), outs):
            assert out[oracle.index(DIMS, MINUS, 1, zq)] == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_minus_shifter_ignores_plus_branch_content(self):
        def make_state(xq):
            v = np.zeros(N, dtype=complex)
            v[oracle.index(DIMS, MINUS, 1, 0)] = 1 / math.sqrt(2)
            v[oracle.index(DIMS, PLUS, xq, 2)] = 1 / math.sqrt(2)
            return tensor(v, DIMS)

        outs = [next(_ladder(make_state(xq), MINUS, [2], "compiled"))[1].reshape(-1) for xq in (0, 3)]
        minus_slice = slice(0, D * D)
        assert np.linalg.norm(outs[0][minus_slice] - outs[1][minus_slice]) < 1e-12


def slow_binomial(rng: random.Random, n: int, p: float) -> int:
    """The slow oracle of protocol._binomial: the count of n uniforms below p."""
    return sum(rng.random() < p for _ in range(n))


def binomial_pmf(n: int, p: float) -> dict[int, float]:
    """{k: P(B(n, p) = k)} in order, over every k with P above 1e-16.

    math.comb gives the mode's probability, and the ratio P(k+1) / P(k) = (n - k) p / ((k + 1) (1 - p))
    walks outward from it.
    """
    mode = min(int((n + 1) * p), n)
    top = math.exp(math.log(math.comb(n, mode)) + mode * math.log(p) + (n - mode) * math.log1p(-p))
    pmf = {mode: top}
    k, q = mode, top
    while k < n and q > 1e-16:
        q *= (n - k) * p / ((k + 1) * (1 - p))
        k += 1
        pmf[k] = q
    k, q = mode, top
    while k > 0 and q > 1e-16:
        q *= k * (1 - p) / ((n - k + 1) * p)
        k -= 1
        pmf[k] = q
    assert abs(math.fsum(pmf.values()) - 1.0) <= 1e-9
    return dict(sorted(pmf.items()))


def chi_square(observed: Counter, pmf: dict) -> tuple[float, int]:
    """Pearson's statistic and degrees of freedom of the outcome counts against pmf.

    Outcomes pool in pmf's order until each bin expects at least 5; a short last bin joins the
    one before. An outcome pmf does not list fails the assertion.
    """
    assert set(observed) <= set(pmf), sorted(set(observed) - set(pmf))
    total = sum(observed.values())
    bins, obs, exp = [], 0, 0.0
    for outcome, prob in pmf.items():
        obs, exp = obs + observed[outcome], exp + total * prob
        if exp >= 5.0:
            bins.append((obs, exp))
            obs, exp = 0, 0.0
    last_obs, last_exp = bins.pop()
    bins.append((last_obs + obs, last_exp + exp))
    assert len(bins) >= 2
    return sum((o - e) ** 2 / e for o, e in bins), len(bins) - 1


def chi_square_limit(df: int) -> float:
    """The chi-square quantile of df degrees of freedom with a tail of about 1e-6 (Wilson-Hilferty)."""
    return df * (1.0 - 2.0 / (9 * df) + 4.75 * math.sqrt(2.0 / (9 * df))) ** 3


class TestSampling:
    def test_x_channel_deterministic_on_vacuum(self):
        # the transformed state is a +1 eigenstate of the x pseudospin
        probs = transverse_probabilities(*engine_readout(fock(0, 8), 0, 0, SETTINGS), "x")
        assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-12)
        est = measure_element(fock(0, 8), 0, 0, ProtocolSettings(D, shots=500, seed=3))
        assert est.value.real == 1.0

    def test_deterministic_given_seed(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        st = ProtocolSettings(D, shots=4096, seed=17)
        a = measure_element(phi, 1, 0, st)
        b = measure_element(phi, 1, 0, st)
        assert a.value == b.value and a.stderr == b.stderr

    def test_different_cells_use_independent_streams(self):
        readout = engine_readout(coherent(0.8, 8, tail_tol=1e-5), 1, 0, SETTINGS)
        a = _sample_cell(*readout, 1, 0, shots=4096, seed=17)
        b = _sample_cell(*readout, 0, 1, shots=4096, seed=17)
        assert a.value != b.value

    @pytest.mark.parametrize("m,n", [(1, 0), (0, 1), (2, 1)])
    def test_stream_key_is_seed_m_n_tag(self, m, n):
        # the documented key: one standard-library generator per (seed, m, n, observable tag), tag 0
        # for x, 1 for y, seeded with the string "seed m n tag"; it draws c(+1) and then c(-1) of
        # the rest, on the 2^-32 grid
        readout = engine_readout(coherent(0.8, 8, tail_tol=1e-5), m, n, SETTINGS)
        shots, seed = 64, 23
        means = []
        for tag, observable in enumerate(("x", "y")):
            p_plus, p_minus, _ = transverse_probabilities(*readout, observable)
            plus = round(p_plus * 2.0 ** 32) / 2.0 ** 32
            both = round((p_plus + p_minus) * 2.0 ** 32) / 2.0 ** 32
            rng = random.Random(f"{seed} {m} {n} {tag}")
            c_plus = _binomial(rng, shots, plus)
            c_minus = _binomial(rng, shots - c_plus, (both - plus) / (1.0 - plus))
            means.append((c_plus - c_minus) / shots)
        assert _sample_cell(*readout, m, n, shots, seed).value == complex(means[0], -means[1])

    def test_counts_are_trinomial(self, monkeypatch):
        # x reads [p(+1), p(-1), p(0)] = [0.3, 0.45, 0.25] and y only the 0 outcome, so each
        # estimate's mean and stderr give back its x counts c(+1), c(-1) of 4 shots; over 3000
        # seeds they follow the trinomial law, never leaving c(+1) + c(-1) <= 4
        probs = {"x": np.array([0.3, 0.45, 0.25]), "y": np.array([0.0, 0.0, 1.0])}
        monkeypatch.setattr(protocol, "transverse_probabilities", lambda value, pops, observable: probs[observable])
        shots = 4
        observed = Counter()
        for seed in range(3000):
            est = _sample_cell(0j, np.zeros(3), 1, 0, shots, seed)
            mean = est.value.real
            second_moment = est.stderr ** 2 * (shots - 1) + mean ** 2
            observed[round(shots * (second_moment + mean) / 2), round(shots * (second_moment - mean) / 2)] += 1
        pmf = {(a, b): math.comb(shots, a) * math.comb(shots - a, b) * 0.3 ** a * 0.45 ** b * 0.25 ** (shots - a - b)
               for a in range(shots + 1) for b in range(shots + 1 - a)}
        stat, df = chi_square(observed, pmf)
        assert stat <= chi_square_limit(df), (stat, df)

    @pytest.mark.parametrize("shots", [4, 1000])
    @pytest.mark.parametrize("m,n", [(1, 0), (2, 1), (1, 1)])
    def test_stderr_calibrated(self, m, n, shots):
        # stderr^2 is the unbiased sample variance of the x and y outcomes over shots, so its
        # mean over seeds times shots is the per-shot variance p+ + p- - (p+ - p-)^2 summed
        # over both observables
        phi = coherent(0.7 + 0.3j, 5, tail_tol=1e-3)
        readout = engine_readout(phi, m, n, ProtocolSettings(5))
        per_shot = sum(p[0] + p[1] - (p[0] - p[1]) ** 2
                       for p in (transverse_probabilities(*readout, o) for o in ("x", "y")))
        mean_sq = np.mean([_sample_cell(*readout, m, n, shots, seed).stderr ** 2 * shots
                           for seed in range(400)])
        assert 0.9 <= mean_sq / per_shot <= 1.1

    @pytest.mark.parametrize("phi", [coherent(0.6 + 0.3j, 5, tail_tol=1e-2), thermal(0.4, 5, tail_tol=1e-1)],
                             ids=["coherent", "thermal"])
    def test_errors_match_their_stderrs(self, phi):
        # each estimate's squared error over its own stderr^2 averages 1 over seeds 0-199 and
        # every cell m, n <= 2: a biased estimate or a wrong stderr moves the mean (measured
        # 1.02 coherent and 1.00 thermal, with a standard error of 0.024 each)
        cells = [(m, n) for m in range(3) for n in range(3)]
        exact = {cell: measure_element(phi, *cell, ProtocolSettings(5)).value for cell in cells}
        ratios = []
        for seed in range(200):
            settings = ProtocolSettings(5, shots=1000, seed=seed)
            for cell in cells:
                est = measure_element(phi, *cell, settings)
                ratios.append(abs(est.value - exact[cell]) ** 2 / est.stderr ** 2)
        assert 0.85 <= np.mean(ratios) <= 1.15

    def test_converges_to_exact(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        exact = measure_element(phi, 1, 0, SETTINGS).value
        est = measure_element(phi, 1, 0, ProtocolSettings(D, shots=100_000, seed=42))
        assert abs(est.value - exact) <= 5 * est.stderr

    def test_seed_ensemble_consistency(self):
        # mean over 64 seeds within 3 standard errors of that mean
        phi = coherent(0.5 + 0.3j, 8, tail_tol=1e-4)
        exact = measure_element(phi, 2, 0, SETTINGS).value
        readout = engine_readout(phi, 2, 0, SETTINGS)
        vals = np.array([_sample_cell(*readout, 2, 0, shots=2000, seed=s).value for s in range(64)])
        for part in (np.real, np.imag):
            samples = part(vals)
            sem = samples.std(ddof=1) / math.sqrt(len(samples))
            assert abs(samples.mean() - part(exact)) <= 3 * sem

    def test_shots_validation(self):
        # the shot count reaches the sampler only through ProtocolSettings, which owns its check
        for shots in (0, -5):
            with pytest.raises(ValueError):
                ProtocolSettings(D, shots=shots)
        est = measure_element(fock(0, 8), 0, 0, ProtocolSettings(D, shots=1, seed=1))
        assert est.stderr == 0.0

    @staticmethod
    def _readout_with_p_plus(p_plus):
        # p(+1) of the x observable is (P_- + P_+ + Re value) / 2 = 1/2 + Re value / 2
        return complex(2.0 * p_plus - 1.0), np.array([0.5, 0.5, 0.0])

    def test_clipping_beyond_tolerance_raises(self):
        with pytest.raises(ValueError, match="clipped"):
            transverse_probabilities(*self._readout_with_p_plus(-1e-6), "x")

    def test_rounding_is_clipped_as_before(self):
        readout = self._readout_with_p_plus(-1e-15)
        assert np.array_equal(transverse_probabilities(*readout, "x"), [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("probs,grid", [
        ([0.5 + 2.0 ** -33, 0.5 - 2.0 ** -33, 0.0], [0.5, 0.5, 0.0]),
        ([0.5 - 2.0 ** -33, 0.5 + 2.0 ** -33, 0.0], [0.5, 0.5, 0.0]),
        ([0.5 + 3 * 2.0 ** -33, 0.5 - 3 * 2.0 ** -33 + 2.0 ** -54, 0.0],
         [0.5 + 2.0 ** -31, 0.5 - 2.0 ** -31, 0.0]),
    ], ids=["tie-above", "tie-below", "both-above-a-midpoint"])
    def test_draw_reads_the_probabilities_on_a_grid_that_sums_to_one(self, probs, grid, monkeypatch):
        # p(+1) and p(+1) + p(-1) go on the 2^-32 grid, so the drawn triple sums to 1 exactly even
        # where each probability rounded alone would sum above 1; at 2^40 shots a probability moved
        # by 2^-33 moves the exact draw, so only the grid makes the two estimates equal
        if grid[0] != 0.5:
            alone = np.round(np.array(probs) * 2.0 ** 32) / 2.0 ** 32
            assert math.fsum(alone) == 1.0 + 2.0 ** -32
        for shots in (1000, 2 ** 40):
            monkeypatch.setattr(protocol, "transverse_probabilities", lambda *_: np.array(probs))
            est = _sample_cell(0j, np.zeros(3), 1, 0, shots=shots, seed=5)
            monkeypatch.setattr(protocol, "transverse_probabilities", lambda *_: np.array(grid))
            assert est == _sample_cell(0j, np.zeros(3), 1, 0, shots=shots, seed=5), shots

    def test_xi_outcome_is_the_xi_population(self):
        # the 0 outcome of either observable reads |xi>, where the compat entangler leaves population
        populations = np.array([0.25, 0.25, 0.5])
        for observable in ("x", "y"):
            assert np.max(np.abs(transverse_probabilities(0j, populations, observable)
                                 - [0.25, 0.25, 0.5])) <= 1e-15

    @pytest.mark.parametrize("compat", [False, True], ids=["final-plus", "compat"])
    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_transverse_probabilities_are_the_eigenvector_forms(self, mixed, compat):
        # the closed form from the engine's element and populations equals the projections
        # s^dag red s of the oracle's reduced state on the transverse eigenvectors; compat
        # leaves a large xi population
        phi = coherent(0.6 + 0.4j, 6, tail_tol=1e-2)
        phi = dephase(phi, 0.3) if mixed else phi
        settings = ProtocolSettings(6, compat_rminus_final=compat)
        dims = oracle.protocol_dims(settings)
        for m, n in ((0, 0), (1, 0), (0, 2), (2, 1)):
            dense = oracle.evolve(oracle.u_mn(m, n, settings), oracle.prepare_initial(phi, dims))
            red = oracle.electronic_reduced(dense, dims)
            readout = engine_readout(phi, m, n, settings)
            for observable in ("x", "y"):
                assert np.max(np.abs(transverse_probabilities(*readout, observable)
                                     - eigenvector_probabilities(red, observable))) <= 1e-12
        with pytest.raises(ValueError, match=r"^observable must be 'x' or 'y', got 'z'$"):
            transverse_probabilities(*readout, "z")

    def test_measure_element_sampled_mode(self):
        st = ProtocolSettings(D, shots=5000, seed=9)
        est = measure_element(coherent(0.8, 8, tail_tol=1e-5), 1, 0, st)
        assert est.stderr > 0


class TestBinomial:
    """protocol._binomial, the exact order-statistic split, against the exact pmf and the slow oracle."""

    @pytest.mark.parametrize("p", [0.03, 0.5, 0.97])
    @pytest.mark.parametrize("n", [1, 16, 17, 24, 40])
    def test_short_runs_match_the_pmf_as_the_oracle_does(self, n, p):
        # n <= 16 takes no split, 17..33 one and 40 two; 4000 draws at fixed seeds from the split
        # and from the oracle each pass a chi-square test against the exact pmf
        pmf = binomial_pmf(n, p)
        for draw in (_binomial, slow_binomial):
            rng = random.Random(f"binomial {n} {p} {draw.__name__}")
            stat, df = chi_square(Counter(draw(rng, n, p) for _ in range(4000)), pmf)
            assert stat <= chi_square_limit(df), (draw.__name__, stat, df)

    @pytest.mark.parametrize("p", [1e-4, 0.5, 1 - 1e-4])
    def test_large_runs_match_the_pmf(self, p):
        n = 100_000
        rng = random.Random(f"binomial {n} {p}")
        stat, df = chi_square(Counter(_binomial(rng, n, p) for _ in range(2000)), binomial_pmf(n, p))
        assert stat <= chi_square_limit(df), (stat, df)

    @pytest.mark.parametrize("n", [0, 1, 5, 16])
    def test_no_split_is_the_oracle_bit_for_bit(self, n):
        # below 17 the draw is the oracle's own n Bernoulli draws on the same stream
        for seed in range(50):
            assert _binomial(random.Random(seed), n, 0.37) == slow_binomial(random.Random(seed), n, 0.37)

    def test_draws_stay_within_zero_to_n(self):
        # p within 1e-12 of an end makes nearly every split go one way, so a count that overruns
        # its range shows; p at or past an end gives 0 or n without touching the stream
        rng = random.Random("range")
        for n in range(0, 200, 7):
            for p in (1e-12, 0.5, 1.0 - 1e-12):
                assert all(0 <= _binomial(rng, n, p) <= n for _ in range(20))
            state = rng.getstate()
            assert [_binomial(rng, n, p) for p in (-0.5, 0.0, 1.0, 1.5)] == [0, 0, n, n]
            assert rng.getstate() == state

    def test_mean_and_variance_at_a_billion(self):
        # 2000 draws of B(1e9, 0.3): the mean within 5 standard errors of n p, the variance within
        # 5 standard errors of n p (1 - p)
        n, p, draws = 10 ** 9, 0.3, 2000
        rng = random.Random("billion")
        counts = np.array([_binomial(rng, n, p) for _ in range(draws)], dtype=float)
        var = n * p * (1 - p)
        assert abs(counts.mean() - n * p) <= 5 * math.sqrt(var / draws)
        assert abs(counts.var(ddof=1) / var - 1) <= 5 * math.sqrt(2 / (draws - 1))


class TestSettingsValidation:
    @pytest.mark.parametrize("d", [1, 0])
    def test_tiny_cutoff_rejected(self, d):
        with pytest.raises(ValueError, match=f"^Fock cutoff must be >= 2, got d={d}$"):
            ProtocolSettings(d)

    @pytest.mark.parametrize("field,value", [
        ("d", 8.0), ("d", True), ("shots", 2.5), ("shots", True), ("seed", 1.5), ("seed", False),
        ("compat_rminus_final", 1), ("compat_rminus_final", None),
    ])
    def test_field_type_rejected(self, field, value):
        kind = "a bool" if field == "compat_rminus_final" else "an integer"
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {value!r}$"):
            ProtocolSettings(**{"d": D, field: value})

    def test_numpy_integers_accepted(self):
        # numpy integers pass as settings fields and as cell targets
        phi = coherent(0.8, 8, tail_tol=1e-5)
        for v_mode in ("ideal", "compiled"):
            st = ProtocolSettings(np.int64(D), v_mode=v_mode, shots=np.int32(50), seed=np.uint8(3))
            est = measure_element(phi, np.int64(1), np.int32(0), st)
            assert est == measure_element(phi, 1, 0, ProtocolSettings(D, v_mode=v_mode, shots=50, seed=3))

    def test_bad_v_mode(self):
        with pytest.raises(ValueError):
            ProtocolSettings(D, v_mode="magic")

    def test_zero_shots(self):
        with pytest.raises(ValueError):
            ProtocolSettings(D, shots=0)

    def test_estimate_invariants(self):
        # the engine builds every estimate: exact ones carry no error, sampled ones a
        # nonnegative one, and neither restates the cell or the shots the caller gave
        phi = coherent(0.8, 8, tail_tol=1e-5)
        exact = measure_element(phi, 1, 0, SETTINGS)
        assert exact.stderr == 0.0
        for m, n in ((0, 0), (1, 0), (2, 2)):
            est = measure_element(phi, m, n, ProtocolSettings(D, shots=50, seed=3))
            assert est.stderr >= 0.0
            assert [f.name for f in dataclasses.fields(est)] == ["value", "stderr"]


class TestHotPathInvariants:
    """The engine's outputs are not re-verified as they are computed; check them here."""

    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    def test_composed_unitaries_and_output_states(self, v_mode):
        # every slice image set is an isometry, and the transformed state
        # W rho_vibr W^dag is a density matrix to the protocol's tolerances
        settings = ProtocolSettings(D, v_mode=v_mode)
        rho_vibr = dephase(coherent(0.6 + 0.5j, 8, tail_tol=1e-5), 0.3).density_matrix()
        for m in range(5):
            for n in range(5):
                w = next(_cell_images([(m, n)], settings, np.eye(D)))[2].reshape(N, -1)
                assert np.max(np.abs(w.conj().T @ w - np.eye(D))) <= 1e-10
                rho = w @ rho_vibr @ w.conj().T
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
                assert abs(np.trace(rho) - 1.0) <= 1e-10
                assert np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] >= -1e-10


MIXED_INPUTS = {
    "thermal": lambda d: thermal(0.4, d, tail_tol=1e-1),
    "dephased": lambda d: dephase(coherent(0.6 + 0.4j, d, tail_tol=1e-2), 0.2),
}


class TestSliceEngine:
    """measure_element against the oracle's dense U_mn rho_0 U_mn^dag."""

    @pytest.mark.parametrize("d", [5, 8])
    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    @pytest.mark.parametrize("compat", [False, True], ids=["final-plus", "compat"])
    @pytest.mark.parametrize("input_name", sorted(MIXED_INPUTS))
    def test_every_cell_matches_dense(self, d, v_mode, compat, input_name):
        dims = (d, d)
        phi = MIXED_INPUTS[input_name](d)
        settings = ProtocolSettings(d, v_mode=v_mode, compat_rminus_final=compat)
        # the oracle's factors, each built once for the sweep
        built = {}
        entangled = oracle.evolve(oracle.schedule(u00_schedule(compat), dims, built),
                                  oracle.prepare_initial(phi, dims))
        v_minus = [oracle.v_minus(k, settings, built=built) for k in range(d - 1)]
        v_plus = [oracle.v_plus(k, settings, built=built) for k in range(d - 1)]
        for m in range(d - 1):
            for n in range(d - 1):
                dense = oracle.evolve(v_plus[n] @ v_minus[m], entangled)
                value = measure_element(phi, m, n, settings).value
                assert abs(value - oracle.coherence(dense, dims)) <= 1e-12
                red = oracle.electronic_reduced(dense, dims)
                sampled_value, populations = engine_readout(phi, m, n, settings)
                assert sampled_value == value
                assert abs(value - 2.0 * red[PLUS, MINUS]) <= 1e-12
                assert np.max(np.abs(populations - np.diag(red).real)) <= 1e-12

    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    def test_slice_images_are_dense_columns(self, v_mode):
        settings = ProtocolSettings(D, v_mode=v_mode)
        columns = [oracle.index(DIMS, MINUS, k, 0) for k in range(D)]
        for m, n in ((0, 0), (3, 1), (6, 5)):
            w = next(_cell_images([(m, n)], settings, np.eye(D)))[2].reshape(N, D)
            assert np.max(np.abs(w - oracle.u_mn(m, n, settings)[:, columns])) <= 1e-12

    @pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
    def test_d60_coherent_cell(self, v_mode):
        alpha, m, n = 1.5 + 0.5j, 7, 3
        settings = ProtocolSettings(60, v_mode=v_mode)
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

    def test_d60_pure_block_stays_below_one_slice_tensor(self):
        # a pure input runs each schedule on its one amplitude column, so a compiled
        # block at d = 60 peaks below one (N, dx) complex tensor of basis images (10.4 MB)
        d = 60
        phi = coherent(1.5 + 0.5j, d)
        tracemalloc.start()
        try:
            report = reconstruct(phi, 8, ProtocolSettings(d, v_mode="compiled"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.metrics["max_abs_error"] <= 1e-9
        assert peak < 16 * (3 * d * d) * d

    @pytest.mark.parametrize("v_mode,d", [("ideal", 12), ("compiled", 12), ("ideal", 30), ("compiled", 30)],
                             ids=["ideal", "compiled", "ideal-d30", "compiled-d30"])
    def test_full_mixed_block_stays_below_six_slice_tensors(self, v_mode, d):
        # a mixed input runs each schedule on its d basis columns, one (3, d, d, d) complex
        # slice tensor; a full block peaks below six of them: the sweep keeps the V- node,
        # a row's node, a cell's copy and a pulse's or the readout's temporaries live
        phi = thermal(0.5, d, tail_tol=1e-3)
        tracemalloc.start()
        try:
            report = reconstruct(phi, shifter_reach(d, v_mode), ProtocolSettings(d, v_mode=v_mode))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.metrics["max_abs_error"] <= 1e-9
        assert peak < 6 * 16 * 3 * d ** 3

    def test_builds_no_dense_operator(self):
        # the package holds no cache, and a reconstruct in both modes plus a sampled cell at
        # d = 24 (N = 1728) peaks far below the 48 MB of one N x N operator
        caches = [f"{mod.__name__}.{name}" for mod in (hilbert, pulses, protocol, states,
                                                       tomography, cli)
                  for name, obj in vars(mod).items()
                  if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__]
        assert caches == []
        d = 24
        phi = dephase(coherent(0.5, d), 0.1)
        tracemalloc.start()
        try:
            for v_mode in ("ideal", "compiled"):
                reconstruct(phi, 3, ProtocolSettings(d, v_mode=v_mode))
            measure_element(phi, 2, 1, ProtocolSettings(d, shots=100, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (3 * d * d) ** 2 / 10

    @pytest.mark.parametrize("v_mode,m,n,message", [
        pytest.param("ideal", 8, 0, "target m = 8 out of the ideal shifter reach 0..7 at d=8",
                     id="ideal-8-0"),
        pytest.param("ideal", 0, -1, "target n = -1 out of the ideal shifter reach 0..7 at d=8",
                     id="ideal-0--1"),
        pytest.param("compiled", 7, 0, "target m = 7 out of the compiled shifter reach 0..6 at d=8",
                     id="compiled-7-0"),
        pytest.param("compiled", 0, 7, "target n = 7 out of the compiled shifter reach 0..6 at d=8",
                     id="compiled-0-7"),
        pytest.param("ideal", 1.0, 0, "target m must be an integer, got 1.0", id="ideal-float-m"),
        pytest.param("compiled", 0, 1.0, "target n must be an integer, got 1.0", id="compiled-float-n"),
        pytest.param("ideal", True, 0, "target m must be an integer, got True", id="ideal-bool-m"),
    ])
    def test_target_out_of_reach(self, v_mode, m, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            measure_element(fock(0, 8), m, n, ProtocolSettings(D, v_mode=v_mode))

    def test_rejects_wrong_input_shape(self):
        # the dimension is checked first, before the targets' reach
        for m, n in ((0, 0), (9, 0)):
            with pytest.raises(ValueError, match=r"^vibrational state dim 6 != d 8$"):
                measure_element(fock(0, 6), m, n, SETTINGS)


@st.composite
def _random_cells(draw):
    """A cell (m, n) within reach on d in 3..6, either shifter mode and either entangler,
    with a random pure input or a random mixed input of rank 1..d."""
    d = draw(st.integers(3, 6))
    v_mode = draw(st.sampled_from(["ideal", "compiled"]))
    reach = shifter_reach(d, v_mode)
    m, n = draw(st.integers(0, reach)), draw(st.integers(0, reach))
    settings = ProtocolSettings(d, v_mode=v_mode, compat_rminus_final=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rank = draw(st.one_of(st.none(), st.integers(1, d)))
    if rank is None:
        vec = rng.normal(size=d) + 1j * rng.normal(size=d)
        phi = VibrationalState(amplitudes=vec / np.linalg.norm(vec))
    else:
        factor = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = factor @ factor.conj().T
        phi = VibrationalState(matrix=(rho + rho.conj().T) / (2 * np.trace(rho).real))
    return phi, m, n, settings


@hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
@given(cell=_random_cells())
def test_random_cell_matches_oracle(cell):
    # the exact value and the sampler's value and level populations of any cell, on pure
    # and mixed inputs, equal 2 red[+, -] and the diagonal of the oracle's reduced state of
    # the dense U_mn rho_0 U_mn^dag; sampled mode reads the exact value bit for bit
    phi, m, n, settings = cell
    dims = oracle.protocol_dims(settings)
    dense = oracle.evolve(oracle.u_mn(m, n, settings), oracle.prepare_initial(phi, dims))
    value = measure_element(phi, m, n, settings).value
    assert abs(value - oracle.coherence(dense, dims)) <= 1e-12
    red = oracle.electronic_reduced(dense, dims)
    sampled_value, populations = engine_readout(phi, m, n, settings)
    assert sampled_value == value
    assert abs(value - 2.0 * red[PLUS, MINUS]) <= 1e-12
    assert np.max(np.abs(populations - np.diag(red).real)) <= 1e-12


_NOISE_INPUTS = (fock(2, 6), coherent(0.9, 6, tail_tol=1e-3), thermal(0.5, 6, tail_tol=1e-2))


@hypothesis_settings(max_examples=100, deadline=None, derandomize=True)
@given(which=st.integers(0, len(_NOISE_INPUTS) - 1), v_mode=st.sampled_from(["ideal", "compiled"]),
       m=st.integers(0, 2), n=st.integers(0, 2), seed=st.integers(0, 2 ** 16),
       noise_seed=st.integers(0, 2 ** 32 - 1), eps=st.floats(0.0, 1e-14))
def test_sampled_estimate_ignores_rounding_noise(which, v_mode, m, n, seed, noise_seed, eps):
    # noise of up to eps = 1e-14 times the largest of a cell's |value| and populations moves no
    # outcome probability off its 2^-32 grid point, so the estimate is ==; a Fock input puts
    # most cells at p(+-1) = 1/2, where an unrounded draw mirrors on a one-ulp change
    value, populations = engine_readout(_NOISE_INPUTS[which], m, n, ProtocolSettings(6, v_mode=v_mode))
    rng = np.random.default_rng(noise_seed)
    scale = eps * max(abs(value), np.max(populations))
    noisy_value = value + scale * complex(*rng.uniform(-1, 1, size=2))
    noisy_populations = populations + scale * rng.uniform(-1, 1, size=3)
    assert (_sample_cell(noisy_value, noisy_populations, m, n, 1000, seed)
            == _sample_cell(value, populations, m, n, 1000, seed))


@pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
@pytest.mark.parametrize("compat", [False, True], ids=["final-plus", "compat"])
def test_pure_input_matches_its_density_matrix(v_mode, compat):
    # the one-column route of a pure input and the dx-column route of the same state
    # given as a density matrix read the same element in every cell
    phi = coherent(0.6 + 0.4j, 8, tail_tol=1e-3)
    as_matrix = VibrationalState(matrix=phi.density_matrix())
    settings = ProtocolSettings(D, v_mode=v_mode, compat_rminus_final=compat)
    reach = shifter_reach(8, v_mode)
    for m in range(reach + 1):
        for n in range(reach + 1):
            pure = measure_element(phi, m, n, settings).value
            assert abs(pure - measure_element(as_matrix, m, n, settings).value) <= 1e-14
