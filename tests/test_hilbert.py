"""Tests for the composite-space types and for the dense oracle's building blocks.

The oracle (tests/oracle.py) is what the slice engine is checked against, so
its ladder operators, Pauli matrices, exponential and expectation are pinned
here against independent constructions; the pulse actions' own algebra
(identity, inverse, trace and purity) is checked on the engine.
"""

import math

import numpy as np
import pytest

import oracle
from iontomo.hilbert import MINUS, PLUS, XI, HilbertDims
from iontomo.pulses import PulseSpec, act_pulse
from iontomo.states import VibrationalState
from util import expm_taylor, random_density, random_hermitian

DIMS = HilbertDims(3, 4)


def _every_kind(angle):
    """One pulse of each kind at the given area, with a generic laser phase."""
    return [PulseSpec("erot", ("-", "xi"), None, angle),
            PulseSpec("vrot", ("+", "xi"), None, angle),
            PulseSpec("carrier", ("+", "xi"), "x", angle, 0.4),
            PulseSpec("jc", ("xi", "-"), "z", angle, 1.3),
            PulseSpec("ajc", ("+", "xi"), "x", angle, 5.1)]


def _random_columns(rng, r):
    """A random (3, 3, 4, r) tensor of r unnormalized states on DIMS."""
    shape = (3, DIMS.dx, DIMS.dz, r)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestHilbertDims:
    def test_index_is_bijective(self):
        # the oracle's flat index is the row-major order of the engine's (3, dx, dz) tensors
        dims = HilbertDims(3, 4)
        layout = np.arange(dims.total_dim).reshape(3, dims.dx, dims.dz)
        seen = set()
        for e in range(3):
            for nx in range(dims.dx):
                for nz in range(dims.dz):
                    idx = oracle.index(dims, e, nx, nz)
                    assert idx == layout[e, nx, nz]
                    seen.add(idx)
        assert len(seen) == dims.total_dim

    def test_canonical_formula(self):
        dims = HilbertDims(5, 7)
        assert oracle.index(dims, 2, 3, 4) == 2 * 35 + 3 * 7 + 4

    @pytest.mark.parametrize("dx,dz", [(1, 4), (4, 1), (0, 0)])
    def test_rejects_tiny_cutoffs(self, dx, dz):
        with pytest.raises(ValueError):
            HilbertDims(dx, dz)

    def test_level_names_accepted(self):
        dims = HilbertDims(2, 2)
        assert oracle.index(dims, "-", 0, 0) == oracle.index(dims, MINUS, 0, 0)
        assert oracle.index(dims, "xi", 1, 1) == oracle.index(dims, XI, 1, 1)


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
        dims = HilbertDims(2, 4)
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
        assert abs(np.trace(p) - DIMS.dx * DIMS.dz) < 1e-12

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
        dims = HilbertDims(2, 2)
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
        rho = np.eye(DIMS.total_dim) / DIMS.total_dim
        assert abs(oracle.expectation(rho, oracle.pauli(MINUS, PLUS, "x", DIMS))) < 1e-14

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(7)
        rho = random_density(DIMS.total_dim, rng)
        val = oracle.expectation(rho, oracle.pauli(MINUS, XI, "y", DIMS))
        assert abs(val.imag) <= 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            oracle.expectation(np.eye(4) / 4, oracle.pauli(MINUS, PLUS, "x", DIMS))

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_trace_of_product(self, hermitian):
        rng = np.random.default_rng(11)
        n = DIMS.total_dim
        rho = random_density(n, rng)
        if hermitian:
            op = random_hermitian(n, rng)
        else:
            op = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert abs(oracle.expectation(rho, op) - np.trace(rho @ op)) <= 1e-12


class TestApply:
    """The pulse actions act as unitaries on every state: identity at zero area, trace and purity kept."""

    def test_identity(self):
        rng = np.random.default_rng(3)
        state = _random_columns(rng, 4)
        for spec in _every_kind(0.0):
            assert np.allclose(act_pulse(spec, state.copy()), state, rtol=0, atol=1e-14)

    def test_trace_preserved(self):
        # rho = A A^dag with A the columns; U rho U^dag = (UA)(UA)^dag
        rng = np.random.default_rng(11)
        cols = _random_columns(rng, DIMS.total_dim)
        cols /= np.linalg.norm(cols)
        for spec in _every_kind(0.6):
            out = act_pulse(spec, cols.copy()).reshape(DIMS.total_dim, -1)
            assert abs(np.trace(out @ out.conj().T) - 1) <= 1e-10

    def test_purity_preserved(self):
        rng = np.random.default_rng(13)
        cols = _random_columns(rng, 5)
        cols /= np.linalg.norm(cols)
        flat = cols.reshape(DIMS.total_dim, -1)
        before = np.trace(np.linalg.matrix_power(flat @ flat.conj().T, 2)).real
        for spec in _every_kind(1.3):
            out = act_pulse(spec, cols.copy()).reshape(DIMS.total_dim, -1)
            after = np.trace(np.linalg.matrix_power(out @ out.conj().T, 2)).real
            assert abs(before - after) <= 1e-10


class TestOperatorAlgebra:
    def test_dagger_is_inverse_of_unitary(self):
        # exp(i angle H)^dag = exp(-i angle H): the pulse at minus its area undoes it
        rng = np.random.default_rng(17)
        state = _random_columns(rng, 3)
        for spec, back in zip(_every_kind(0.8), _every_kind(-0.8)):
            out = act_pulse(back, act_pulse(spec, state.copy()))
            assert np.max(np.abs(out - state)) <= 1e-12


class TestTypeInvariants:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            VibrationalState(2, amplitudes=np.array([1.0, 1.0]))

    def test_density_operator_checks(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            VibrationalState(2, matrix=np.diag([1.2, -0.2]))
        with pytest.raises(ValueError, match="shape"):
            VibrationalState(3, matrix=np.eye(2) / 2)
        with pytest.raises(ValueError, match="hermitian"):
            VibrationalState(2, matrix=np.array([[0.5, 1e-11], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            VibrationalState(2, matrix=np.diag([0.5, 0.5 + 1e-9]))

    def test_matrices_are_frozen(self):
        rho = VibrationalState(3, matrix=np.eye(3) / 3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
        pure = VibrationalState(2, amplitudes=np.array([0.6, 0.8]))
        with pytest.raises(ValueError):
            pure.amplitudes[0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN passes every "> tol" comparison, so it needs its own check
        with pytest.raises(ValueError, match="non-finite"):
            VibrationalState(2, matrix=np.array([[1.0, bad], [bad, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            VibrationalState(2, matrix=np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            VibrationalState(2, amplitudes=np.array([1.0, bad]))

    def test_reduced_density_recovers_mode_x(self):
        amp = np.array([0.6, 0.0, 0.8], dtype=complex)
        rho_x = np.outer(amp, amp.conj())
        z0 = np.zeros((4, 4), dtype=complex)
        z0[0, 0] = 1.0
        elec = np.zeros((3, 3), dtype=complex)
        elec[MINUS, MINUS] = 1.0
        full = np.kron(np.kron(elec, rho_x), z0)
        assert np.allclose(oracle.reduced_x(full, DIMS), rho_x, atol=1e-14)
