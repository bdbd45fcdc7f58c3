"""Tests for the primitive pulses: their specs, their closed-form actions, and the dense oracle's generators."""

import math

import numpy as np
import pytest

import oracle
from iontomo.hilbert import MINUS, PLUS, XI, HilbertDims
from iontomo.protocol import pulse_unitarity_defect
from iontomo.pulses import PulseSpec, act_pulse
from iontomo.states import coherent
from util import expm_taylor

DIMS = HilbertDims(4, 4)


def h_carrier(levels, phase, dims):
    return oracle.hamiltonian(PulseSpec("carrier", levels, "x", 0.0, phase), dims)


def h_jc(mode, levels, phase, dims):
    return oracle.hamiltonian(PulseSpec("jc", levels, mode, 0.0, phase), dims)


def h_ajc(mode, levels, phase, dims):
    return oracle.hamiltonian(PulseSpec("ajc", levels, mode, 0.0, phase), dims)


def act(spec, vector, dims=DIMS):
    """act_pulse on one composite-space vector, returned flat."""
    state = np.array(vector, dtype=complex).reshape(3, dims.dx, dims.dz, 1)
    return act_pulse(spec, state).reshape(-1)


def full_action(spec, dims=DIMS):
    """The N x N matrix of act_pulse, one basis column at a time."""
    eye = np.eye(dims.total_dim, dtype=complex).reshape(3, dims.dx, dims.dz, -1)
    return act_pulse(spec, eye).reshape(dims.total_dim, -1)


class TestPulseSpec:
    def test_roundtrip_record(self):
        spec = PulseSpec("ajc", ("+", "xi"), "x", 0.7, 1.2)
        again = PulseSpec.from_record(spec.to_record())
        assert again == spec

    def test_mode_required_for_sidebands(self):
        with pytest.raises(ValueError):
            PulseSpec("jc", ("+", "xi"), None, 0.5)

    def test_erot_levels_checked(self):
        with pytest.raises(ValueError):
            PulseSpec("erot", ("-", "+"), None, 0.5)

    def test_vrot_ignores_mode(self):
        spec = PulseSpec("vrot", ("+", "xi"), "x", 0.5)
        assert spec.mode is None

    def test_phase_range(self):
        with pytest.raises(ValueError):
            PulseSpec("carrier", ("+", "xi"), "x", 0.5, phase=7.0)

    def test_angle_finite(self):
        with pytest.raises(ValueError):
            PulseSpec("carrier", ("+", "xi"), "x", math.inf)

    @pytest.mark.parametrize("kind", ["carrier", "jc", "ajc"])
    def test_coupled_pair_contains_xi(self, kind):
        with pytest.raises(ValueError):
            PulseSpec(kind, ("-", "+"), "x", 1.0)
        assert PulseSpec(kind, ("xi", "-"), "x", 1.0).levels == ("xi", "-")


class TestHamiltonians:
    """The oracle's dense generators, pinned against their defining matrix elements."""

    def test_carrier_zero_phase_is_sigma_x(self):
        h = h_carrier(("+", "xi"), 0.0, DIMS)
        assert np.array_equal(h, oracle.pauli(PLUS, XI, "x", DIMS))

    def test_carrier_quarter_phase_is_sigma_y(self):
        h = h_carrier(("+", "xi"), math.pi / 2, DIMS)
        assert np.max(np.abs(h - oracle.pauli(PLUS, XI, "y", DIMS))) < 1e-15

    @pytest.mark.parametrize("seed", range(3))
    def test_hermitian_for_random_phase(self, seed):
        rng = np.random.default_rng(seed)
        phase = rng.uniform(0, 2 * math.pi)
        for h in (h_carrier(("+", "xi"), phase, DIMS),
                  h_jc("x", ("+", "xi"), phase, DIMS),
                  h_ajc("z", ("-", "xi"), phase, DIMS)):
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_jc_ladder_coupling(self):
        # on |k-1>_x|xi> the coupling reaches only |k>_x|+> with element sqrt(k)
        h = h_jc("x", ("+", "xi"), 0.0, DIMS)
        for k in (1, 2, 3):
            out = h @ oracle.basis(DIMS, XI, k - 1, 2)
            expected = math.sqrt(k) * oracle.basis(DIMS, PLUS, k, 2)
            assert np.allclose(out, expected, atol=1e-14)

    def test_jc_conserves_excitation_counter(self):
        h = h_jc("x", ("+", "xi"), 0.0, DIMS)
        n_x = np.kron(np.eye(3), np.kron(np.diag(np.arange(4.0)), np.eye(4)))
        counter = n_x + oracle.electronic(XI, XI, DIMS)
        assert np.max(np.abs(h @ counter - counter @ h)) <= 1e-12

    def test_jc_vanishes_on_minus_sector(self):
        h = h_jc("x", ("+", "xi"), 0.3, DIMS)
        for nx in range(4):
            assert np.max(np.abs(h @ oracle.basis(DIMS, MINUS, nx, 1))) == 0.0

    def test_ajc_ladder_coupling(self):
        # on |k>_x|+> the coupling reaches |k+1>_x|xi> with element sqrt(k+1)
        h = h_ajc("x", ("+", "xi"), 0.0, DIMS)
        for k in (0, 1, 2):
            out = h @ oracle.basis(DIMS, PLUS, k, 0)
            expected = math.sqrt(k + 1) * oracle.basis(DIMS, XI, k + 1, 0)
            assert np.allclose(out, expected, atol=1e-14)

    def test_ajc_row_structure_at_vacuum(self):
        # the <0,+| row couples only through the lowering term: reached from |1, xi> alone
        h = h_ajc("x", ("+", "xi"), 0.0, DIMS)
        row = h[oracle.index(DIMS, PLUS, 0, 0), :]
        nonzero = np.nonzero(np.abs(row) > 1e-15)[0]
        assert list(nonzero) == [oracle.index(DIMS, XI, 1, 0)]

    def test_ajc_vanishes_on_minus_sector(self):
        h = h_ajc("x", ("+", "xi"), 0.0, DIMS)
        assert np.max(np.abs(h @ oracle.basis(DIMS, MINUS, 2, 2))) == 0.0


def _erot(level, theta):
    return PulseSpec("erot", (level, "xi"), None, theta)


class TestElectronicRotation:
    def test_splits_ground_level(self):
        out = act(_erot("-", math.pi / 4), oracle.basis(DIMS, MINUS, 0, 0))
        expected = (oracle.basis(DIMS, MINUS, 0, 0)
                    + oracle.basis(DIMS, XI, 0, 0)) / math.sqrt(2)
        assert np.linalg.norm(out - expected) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.9])
    def test_unaddressed_level_untouched(self, theta):
        src = oracle.basis(DIMS, MINUS, 1, 2)
        assert np.linalg.norm(act(_erot("+", theta), src) - src) < 1e-13

    def test_inverse(self):
        u = full_action(_erot("-", math.pi / 4))
        v = full_action(_erot("-", -math.pi / 4))
        assert np.max(np.abs(u @ v - np.eye(DIMS.total_dim))) < 1e-12


class TestModeRotation:
    """The oracle's two-mode generator L_y and its exponential."""

    def test_swap_is_phase_free(self):
        # exp(i pi/2 L_y)|n, 0> = |0, n> with coefficient +1, for every n and level
        u = oracle.unitary(oracle.l_y(DIMS), math.pi / 2)
        for e in range(3):
            for n in range(4):
                out = u @ oracle.basis(DIMS, e, n, 0)
                assert np.linalg.norm(out - oracle.basis(DIMS, e, 0, n)) < 1e-12

    def test_matches_series_exponential(self):
        g = oracle.l_y(DIMS)
        u = oracle.unitary(g, math.pi / 2)
        assert np.max(np.abs(u - expm_taylor(1j * (math.pi / 2) * g))) < 1e-11

    def test_commutes_with_total_phonon_number(self):
        n_x = np.kron(np.eye(3), np.kron(np.diag(np.arange(4.0)), np.eye(4)))
        n_z = np.kron(np.eye(3), np.kron(np.eye(4), np.diag(np.arange(4.0))))
        g = oracle.l_y(DIMS)
        assert np.max(np.abs(g @ (n_x + n_z) - (n_x + n_z) @ g)) <= 1e-12

    def test_zero_angle_is_identity(self):
        u = oracle.unitary(oracle.l_y(DIMS), 0.0)
        assert np.allclose(u, np.eye(DIMS.total_dim), atol=1e-14)


def _vrot(theta):
    return PulseSpec("vrot", ("+", "xi"), None, theta)


class TestVibrationalRotation:
    def test_swaps_bright_branch(self):
        # |phi>_x|0>_z|alpha> -> |0>_x|phi>_z|alpha> with |alpha> = (|+> + |xi>)/sqrt(2)
        dims = HilbertDims(8, 8)
        phi = coherent(0.8, 8, tail_tol=1e-5)
        alpha_e = np.zeros(3, dtype=complex)
        alpha_e[PLUS] = alpha_e[XI] = 1 / math.sqrt(2)
        z0 = np.zeros(8, dtype=complex)
        z0[0] = 1.0
        src = np.kron(alpha_e, np.kron(phi.amplitudes, z0))
        out = act(_vrot(math.pi / 2), src, dims)
        target = np.kron(alpha_e, np.kron(z0, phi.amplitudes))
        assert np.linalg.norm(out - target) < 1e-12

    def test_identity_on_minus_sector(self):
        phi = coherent(0.6, 4, tail_tol=1e-2)
        z = np.zeros(4, dtype=complex)
        z[1] = 1.0
        e_minus = np.zeros(3, dtype=complex)
        e_minus[MINUS] = 1.0
        src = np.kron(e_minus, np.kron(phi.amplitudes, z))
        assert np.linalg.norm(act(_vrot(1.3), src) - src) < 1e-13

    def test_conserves_total_phonon_number(self):
        n_tot = np.kron(np.eye(3), np.kron(np.diag(np.arange(4.0)), np.eye(4))) \
            + np.kron(np.eye(3), np.kron(np.eye(4), np.diag(np.arange(4.0))))
        src = oracle.basis(DIMS, PLUS, 2, 1)
        out = act(_vrot(0.9), src)
        before = np.vdot(src, n_tot @ src)
        after = np.vdot(out, n_tot @ out)
        assert abs(before - after) < 1e-12


class TestCompilePulse:
    def test_carrier_pi_pulse_transfers_population(self):
        spec = PulseSpec("carrier", ("+", "xi"), "x", math.pi / 2, 0.0)
        out = act(spec, oracle.basis(DIMS, PLUS, 1, 1))
        amp = out[oracle.index(DIMS, XI, 1, 1)]
        assert abs(amp) ** 2 == pytest.approx(1.0, abs=1e-12)
        # phase of the transferred amplitude is set by the laser phase
        assert amp == pytest.approx(1j, abs=1e-12)

    def test_erot_dispatch_matches_r_electronic(self):
        # the oracle's erot is the closed-form rotation |l> -> cos|l> + sin|xi>, |xi> -> -sin|l> + cos|xi>
        theta = 0.41
        r3 = np.eye(3)
        r3[MINUS, MINUS] = r3[XI, XI] = math.cos(theta)
        r3[XI, MINUS] = math.sin(theta)
        r3[MINUS, XI] = -math.sin(theta)
        closed = np.kron(r3, np.eye(DIMS.vib_dim))
        assert np.max(np.abs(oracle.pulse(_erot("-", theta), DIMS) - closed)) <= 1e-14

    def test_zero_angle_jc_is_identity(self):
        assert np.allclose(full_action(PulseSpec("jc", ("+", "xi"), "x", 0.0, 0.3)),
                           np.eye(DIMS.total_dim), atol=1e-14)

    @pytest.mark.parametrize("spec", [
        PulseSpec("carrier", ("+", "xi"), "x", math.pi / 2, 4.71238898038469),
        PulseSpec("jc", ("-", "xi"), "z", 1.11072073453959, 4.71238898038469),
        PulseSpec("ajc", ("+", "xi"), "x", math.pi / 2, math.pi / 2),
        PulseSpec("erot", ("+", "xi"), None, -math.pi / 4),
        PulseSpec("vrot", ("+", "xi"), None, math.pi / 2),
    ], ids=["carrier", "jc", "ajc", "erot", "vrot"])
    def test_all_compiled_pulses_unitary(self, spec):
        assert pulse_unitarity_defect(DIMS, [spec], np.eye(DIMS.total_dim)) <= 1e-10

    @pytest.mark.parametrize("spec,excluded", [
        (PulseSpec("carrier", ("+", "xi"), "x", 0.7, 1.0), MINUS),
        (PulseSpec("jc", ("+", "xi"), "x", 0.7, 1.0), MINUS),
        (PulseSpec("ajc", ("-", "xi"), "z", 0.7, 1.0), PLUS),
        (PulseSpec("erot", ("-", "xi"), None, 0.7), PLUS),
        (PulseSpec("vrot", ("+", "xi"), None, 0.7), MINUS),
    ], ids=["carrier", "jc", "ajc", "erot", "vrot"])
    def test_sector_confinement(self, spec, excluded):
        # a pulse whose levels exclude a sector commutes with that sector's projector
        u = full_action(spec)
        proj = oracle.electronic(excluded, excluded, DIMS)
        assert np.max(np.abs(u @ proj - proj @ u)) <= 1e-12


def _action_specs():
    """Every pulse kind on both level pairs (both orders), both modes, random angles and phases."""
    rng = np.random.default_rng(2003)
    specs = [PulseSpec("vrot", ("+", "xi"), None, rng.uniform(-4, 4))]
    for level in ("-", "+"):
        specs.append(PulseSpec("erot", (level, "xi"), None, rng.uniform(-4, 4)))
        for kind in ("carrier", "jc", "ajc"):
            for levels in ((level, "xi"), ("xi", level)):
                for mode in ("x", "z"):
                    specs.append(PulseSpec(kind, levels, mode, rng.uniform(-4, 4),
                                           rng.uniform(0, 2 * math.pi)))
    return specs


class TestPulseActions:
    """act_pulse against the oracle's dense pulse unitary on random tensors of states."""

    @pytest.mark.parametrize("spec", _action_specs(),
                             ids=lambda s: f"{s.kind}-{''.join(s.levels)}-{s.mode}")
    def test_matches_compiled_matrix(self, spec):
        dims = HilbertDims(6, 6)
        rng = np.random.default_rng(7)
        state = rng.normal(size=(3, 6, 6, 5)) + 1j * rng.normal(size=(3, 6, 6, 5))
        expected = oracle.pulse(spec, dims) @ state.reshape(dims.total_dim, 5)
        got = act_pulse(spec, state.copy())
        assert np.max(np.abs(got.reshape(dims.total_dim, 5) - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", ["vrot", "jc"])
    def test_unequal_cutoffs(self, kind):
        dims = HilbertDims(4, 6)
        spec = PulseSpec(kind, ("+", "xi"), "z", 1.3, 0.4)
        rng = np.random.default_rng(5)
        state = rng.normal(size=(3, 4, 6, 3)) + 1j * rng.normal(size=(3, 4, 6, 3))
        expected = oracle.pulse(spec, dims) @ state.reshape(dims.total_dim, 3)
        got = act_pulse(spec, state.copy())
        assert np.max(np.abs(got.reshape(dims.total_dim, 3) - expected)) <= 1e-12

    def test_acts_in_place(self):
        state = np.zeros((3, 4, 4, 1), dtype=complex)
        state[PLUS, 0, 0, 0] = 1.0
        out = act_pulse(PulseSpec("erot", ("+", "xi"), None, math.pi / 2), state)
        assert out is state
        assert abs(state[XI, 0, 0, 0] - 1.0) < 1e-15

    @pytest.mark.parametrize("shape,dtype", [((3, 4, 4), complex), ((2, 4, 4, 1), complex),
                                             ((3, 4, 4, 1), float)])
    def test_rejects_bad_tensor(self, shape, dtype):
        with pytest.raises(ValueError):
            act_pulse(PulseSpec("vrot", ("+", "xi"), None, 0.3), np.zeros(shape, dtype=dtype))
