"""Tests of the dense oracle (tests/oracle.py) that run none of the engine.

The engine's tests compare it with the oracle, so the oracle's flat index,
ladder operators, Pauli matrices, exponential, expectation, reduced state,
pulse generators, mode-rotation generator, initial state and readout are
pinned here against independent constructions. The tests that set the
oracle's entangler, shifters and composed unitary beside the engine's stay
with the protocol tests. The oracle takes any (dx, dz) pair; DIMS has
unequal cutoffs, so that a swapped index shows.
"""

import math

import numpy as np
import pytest

import oracle
from iontomo.hilbert import MINUS, PLUS, XI
from iontomo.protocol import ProtocolSettings
from iontomo.pulses import PulseSpec
from iontomo.states import coherent, fock, thermal
from util import RHO20_COH08, expm_taylor, random_density, random_hermitian

DIMS = (3, 4)
N = oracle.size(DIMS)
# the equal cutoffs of the generator, preparation and readout classes below
DIMS4 = (4, 4)
DIMS8 = (8, 8)
SETTINGS8 = ProtocolSettings(8)
PREPARERS = (oracle.prepare_initial, oracle.prepare_initial_pure)


class TestIndex:
    def test_index_is_bijective(self):
        # the oracle's flat index is the row-major order of the engine's (3, dx, dz) tensors
        dims = (3, 4)
        layout = np.arange(oracle.size(dims)).reshape(3, *dims)
        seen = set()
        for e in range(3):
            for nx in range(dims[0]):
                for nz in range(dims[1]):
                    idx = oracle.index(dims, e, nx, nz)
                    assert idx == layout[e, nx, nz]
                    seen.add(idx)
        assert len(seen) == oracle.size(dims)

    def test_canonical_formula(self):
        dims = (5, 7)
        assert oracle.index(dims, 2, 3, 4) == 2 * 35 + 3 * 7 + 4


class TestAnnihilator:
    def test_ladder_action(self):
        # a|2>_x = sqrt(2)|1>_x
        a = oracle.annihilator("x", DIMS)
        out = a @ oracle.basis(DIMS, MINUS, 2, 0)
        expected = np.sqrt(2) * oracle.basis(DIMS, MINUS, 1, 0)
        assert np.allclose(out, expected, atol=1e-14)

    def test_vacuum_annihilation(self):
        a = oracle.annihilator("x", DIMS)
        assert np.max(np.abs(a @ oracle.basis(DIMS, PLUS, 0, 3))) == 0.0

    def test_commutator_on_truncation(self):
        # <n|[a, a-dag]|n> = 1 for n < dz-1; the single violation sits at the boundary.
        dims = (2, 4)
        a = oracle.annihilator("z", dims)
        comm = a @ a.conj().T - a.conj().T @ a
        # independent reference: the same commutator from a hand-built 4x4 ladder
        lad = np.zeros((4, 4), dtype=complex)
        for n in range(1, 4):
            lad[n - 1, n] = np.sqrt(n)
        reference = lad @ lad.conj().T - lad.conj().T @ lad
        for n in range(3):
            assert abs(reference[n, n] - 1) < 1e-14
        assert abs(reference[3, 3] + 3) < 1e-14
        for e in range(3):
            for nx in range(2):
                for nz in range(4):
                    i = oracle.index(dims, e, nx, nz)
                    assert abs(comm[i, i] - reference[nz, nz]) < 1e-14

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            oracle.annihilator("y", DIMS)


class TestElectronicOp:
    def test_projector_trace(self):
        p = oracle.electronic(MINUS, MINUS, DIMS)
        assert abs(np.trace(p) - DIMS[0] * DIMS[1]) < 1e-12

    def test_transition_action(self):
        out = oracle.electronic(PLUS, XI, DIMS) @ oracle.basis(DIMS, XI, 0, 0)
        assert np.allclose(out, oracle.basis(DIMS, PLUS, 0, 0), atol=1e-14)

    def test_composition_rule(self):
        lhs = oracle.electronic(PLUS, XI, DIMS) @ oracle.electronic(XI, PLUS, DIMS)
        assert np.allclose(lhs, oracle.electronic(PLUS, PLUS, DIMS), atol=1e-14)


class TestPauli:
    def test_x_flips_levels(self):
        out = oracle.pauli(MINUS, PLUS, "x", DIMS) @ oracle.basis(DIMS, MINUS, 1, 2)
        assert np.allclose(out, oracle.basis(DIMS, PLUS, 1, 2), atol=1e-14)

    def test_two_level_algebra(self):
        # y^2 + x^2 = 2 * (projector onto the {-, +} electronic pair)
        sx = oracle.pauli(MINUS, PLUS, "x", DIMS)
        sy = oracle.pauli(MINUS, PLUS, "y", DIMS)
        proj = oracle.electronic(MINUS, MINUS, DIMS) + oracle.electronic(PLUS, PLUS, DIMS)
        assert np.allclose(sy @ sy + sx @ sx, 2 * proj, atol=1e-13)

    def test_spectrum(self):
        dims = (2, 2)
        w = np.linalg.eigvalsh(oracle.pauli(MINUS, PLUS, "x", dims))
        vals, counts = np.unique(np.round(w, 12), return_counts=True)
        assert list(vals) == [-1.0, 0.0, 1.0]
        # the zero eigenspace is the xi sector: one per vibrational basis state
        assert list(counts) == [4, 4, 4]

    def test_rejects_equal_levels(self):
        with pytest.raises(ValueError):
            oracle.pauli(PLUS, PLUS, "x", DIMS)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian_tag(self, axis):
        op = oracle.pauli(MINUS, XI, axis, DIMS)
        assert np.max(np.abs(op - op.conj().T)) <= 1e-12


class TestUnitaryFromGenerator:
    def test_zero_generator(self):
        assert np.allclose(oracle.unitary(np.zeros((5, 5)), 0.37), np.eye(5), atol=1e-14)

    def test_quarter_rotation(self):
        # exp(i pi/4 sigma_y) |-> = (|-> + |xi>)/sqrt(2), from the 2x2 analytic form
        u = oracle.unitary(oracle.pauli(MINUS, XI, "y", DIMS), np.pi / 4)
        out = u @ oracle.basis(DIMS, MINUS, 0, 0)
        expected = (oracle.basis(DIMS, MINUS, 0, 0) + oracle.basis(DIMS, XI, 0, 0)) / np.sqrt(2)
        assert np.linalg.norm(out - expected) < 1e-12

    def test_inverse(self):
        g = oracle.pauli(MINUS, XI, "y", DIMS)
        u = oracle.unitary(g, 0.81)
        v = oracle.unitary(g, -0.81)
        assert np.max(np.abs(u @ v - np.eye(len(u)))) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_series_exponential(self, seed):
        rng = np.random.default_rng(seed)
        g = random_hermitian(9, rng)
        theta = rng.uniform(-2, 2)
        assert np.max(np.abs(oracle.unitary(g, theta) - expm_taylor(1j * theta * g))) < 1e-11

    @pytest.mark.parametrize("seed", range(6))
    def test_unitarity_property(self, seed):
        rng = np.random.default_rng(100 + seed)
        u = oracle.unitary(random_hermitian(12, rng), rng.uniform(-4, 4))
        assert np.max(np.abs(u.conj().T @ u - np.eye(12))) <= 1e-10

    def test_rejects_nonhermitian(self):
        g = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            oracle.unitary(g, 1.0)


class TestExpectation:
    def test_projector_on_ground(self):
        psi = oracle.basis(DIMS, MINUS, 0, 0)
        rho = np.outer(psi, psi.conj())
        assert oracle.expectation(rho, oracle.electronic(MINUS, MINUS, DIMS)) == pytest.approx(1.0)

    def test_traceless_on_maximally_mixed(self):
        rho = np.eye(N) / N
        assert abs(oracle.expectation(rho, oracle.pauli(MINUS, PLUS, "x", DIMS))) < 1e-14

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(7)
        rho = random_density(N, rng)
        val = oracle.expectation(rho, oracle.pauli(MINUS, XI, "y", DIMS))
        assert abs(val.imag) <= 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            oracle.expectation(np.eye(4) / 4, oracle.pauli(MINUS, PLUS, "x", DIMS))

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_trace_of_product(self, hermitian):
        rng = np.random.default_rng(11)
        n = N
        rho = random_density(n, rng)
        if hermitian:
            op = random_hermitian(n, rng)
        else:
            op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert abs(oracle.expectation(rho, op) - np.trace(rho @ op)) <= 1e-12


def test_reduced_density_recovers_mode_x():
    amp = np.array([0.6, 0.0, 0.8], dtype=complex)
    rho_x = np.outer(amp, amp.conj())
    z0 = np.zeros((4, 4), dtype=complex)
    z0[0, 0] = 1.0
    elec = np.zeros((3, 3), dtype=complex)
    elec[MINUS, MINUS] = 1.0
    full = np.kron(np.kron(elec, rho_x), z0)
    assert np.allclose(oracle.reduced_x(full, DIMS), rho_x, atol=1e-14)


def h_carrier(levels, phase, dims):
    return oracle.hamiltonian(PulseSpec("carrier", levels, "x", 0.0, phase), dims)


def h_jc(mode, levels, phase, dims):
    return oracle.hamiltonian(PulseSpec("jc", levels, mode, 0.0, phase), dims)


def h_ajc(mode, levels, phase, dims):
    return oracle.hamiltonian(PulseSpec("ajc", levels, mode, 0.0, phase), dims)


class TestHamiltonians:
    """The oracle's dense generators, pinned against their defining matrix elements."""

    def test_carrier_zero_phase_is_sigma_x(self):
        h = h_carrier(("+", "xi"), 0.0, DIMS4)
        assert np.array_equal(h, oracle.pauli(PLUS, XI, "x", DIMS4))

    def test_carrier_quarter_phase_is_sigma_y(self):
        h = h_carrier(("+", "xi"), math.pi / 2, DIMS4)
        assert np.max(np.abs(h - oracle.pauli(PLUS, XI, "y", DIMS4))) < 1e-15

    @pytest.mark.parametrize("seed", range(3))
    def test_hermitian_for_random_phase(self, seed):
        rng = np.random.default_rng(seed)
        phase = rng.uniform(0, 2 * math.pi)
        for h in (h_carrier(("+", "xi"), phase, DIMS4),
                  h_jc("x", ("+", "xi"), phase, DIMS4),
                  h_ajc("z", ("-", "xi"), phase, DIMS4)):
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_jc_ladder_coupling(self):
        # on |k-1>_x|xi> the coupling reaches only |k>_x|+> with element sqrt(k)
        h = h_jc("x", ("+", "xi"), 0.0, DIMS4)
        for k in (1, 2, 3):
            out = h @ oracle.basis(DIMS4, XI, k - 1, 2)
            expected = math.sqrt(k) * oracle.basis(DIMS4, PLUS, k, 2)
            assert np.allclose(out, expected, atol=1e-14)

    def test_jc_conserves_excitation_counter(self):
        h = h_jc("x", ("+", "xi"), 0.0, DIMS4)
        n_x = np.kron(np.eye(3), np.kron(np.diag(np.arange(4.0)), np.eye(4)))
        counter = n_x + oracle.electronic(XI, XI, DIMS4)
        assert np.max(np.abs(h @ counter - counter @ h)) <= 1e-12

    def test_jc_vanishes_on_minus_sector(self):
        h = h_jc("x", ("+", "xi"), 0.3, DIMS4)
        for nx in range(4):
            assert np.max(np.abs(h @ oracle.basis(DIMS4, MINUS, nx, 1))) == 0.0

    def test_ajc_ladder_coupling(self):
        # on |k>_x|+> the coupling reaches |k+1>_x|xi> with element sqrt(k+1)
        h = h_ajc("x", ("+", "xi"), 0.0, DIMS4)
        for k in (0, 1, 2):
            out = h @ oracle.basis(DIMS4, PLUS, k, 0)
            expected = math.sqrt(k + 1) * oracle.basis(DIMS4, XI, k + 1, 0)
            assert np.allclose(out, expected, atol=1e-14)

    def test_ajc_row_structure_at_vacuum(self):
        # the <0,+| row couples only through the lowering term: reached from |1, xi> alone
        h = h_ajc("x", ("+", "xi"), 0.0, DIMS4)
        row = h[oracle.index(DIMS4, PLUS, 0, 0), :]
        nonzero = np.nonzero(np.abs(row) > 1e-15)[0]
        assert list(nonzero) == [oracle.index(DIMS4, XI, 1, 0)]

    def test_ajc_vanishes_on_minus_sector(self):
        h = h_ajc("x", ("+", "xi"), 0.0, DIMS4)
        assert np.max(np.abs(h @ oracle.basis(DIMS4, MINUS, 2, 2))) == 0.0


class TestModeRotation:
    """The oracle's two-mode generator L_y and its exponential."""

    def test_swap_is_phase_free(self):
        # exp(i pi/2 L_y)|n, 0> = |0, n> with coefficient +1, for every n and level
        u = oracle.unitary(oracle.l_y(DIMS4), math.pi / 2)
        for e in range(3):
            for n in range(4):
                out = u @ oracle.basis(DIMS4, e, n, 0)
                assert np.linalg.norm(out - oracle.basis(DIMS4, e, 0, n)) < 1e-12

    def test_matches_series_exponential(self):
        g = oracle.l_y(DIMS4)
        u = oracle.unitary(g, math.pi / 2)
        assert np.max(np.abs(u - expm_taylor(1j * (math.pi / 2) * g))) < 1e-11

    def test_commutes_with_total_phonon_number(self):
        n_x = np.kron(np.eye(3), np.kron(np.diag(np.arange(4.0)), np.eye(4)))
        n_z = np.kron(np.eye(3), np.kron(np.eye(4), np.diag(np.arange(4.0))))
        g = oracle.l_y(DIMS4)
        assert np.max(np.abs(g @ (n_x + n_z) - (n_x + n_z) @ g)) <= 1e-12

    def test_zero_angle_is_identity(self):
        u = oracle.unitary(oracle.l_y(DIMS4), 0.0)
        assert np.allclose(u, np.eye(oracle.size(DIMS4)), atol=1e-14)


class TestPrepareInitial:
    def test_vacuum_input(self):
        rho = oracle.prepare_initial(fock(0, 8), DIMS8)
        expected = np.outer(oracle.basis(DIMS8, MINUS, 0, 0), oracle.basis(DIMS8, MINUS, 0, 0))
        assert np.max(np.abs(rho - expected)) < 1e-15

    def test_trace_one(self):
        rho = oracle.prepare_initial(thermal(0.5, 8, tail_tol=1e-3), DIMS8)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_partial_trace_recovers_input(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        rho = oracle.prepare_initial(phi, DIMS8)
        assert np.max(np.abs(oracle.reduced_x(rho, DIMS8) - phi.density_matrix())) < 1e-13

    def test_pure_input_gives_pure_output(self):
        rho = oracle.prepare_initial(coherent(0.5, 8, tail_tol=1e-6), DIMS8)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("prepare", PREPARERS, ids=lambda f: f.__name__)
    def test_dim_mismatch(self, prepare):
        with pytest.raises(ValueError):
            prepare(fock(0, 6), DIMS8)


class TestCoherenceExpectation:
    """The oracle's readout <sigma_x> - i <sigma_y> on its dense transformed state."""

    def test_vacuum_diagonal(self):
        rho = oracle.evolve(oracle.u_mn(0, 0, SETTINGS8), oracle.prepare_initial(fock(0, 8), DIMS8))
        assert oracle.coherence(rho, DIMS8) == pytest.approx(1.0, abs=1e-12)

    def test_fock_offdiagonal_vanishes(self):
        rho = oracle.evolve(oracle.u_mn(0, 1, SETTINGS8), oracle.prepare_initial(fock(1, 8), DIMS8))
        assert abs(oracle.coherence(rho, DIMS8)) < 1e-12

    def test_coherent_20_element(self):
        phi = coherent(0.8, 12, tail_tol=1e-9)
        dims = (12, 12)
        rho = oracle.evolve(oracle.u_mn(2, 0, ProtocolSettings(12)), oracle.prepare_initial(phi, dims))
        assert oracle.coherence(rho, dims).real == pytest.approx(RHO20_COH08, abs=1e-6)
