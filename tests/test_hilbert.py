"""Tests for the composite-space types and operator constructors."""

import numpy as np
import pytest

from iontomo.hilbert import (
    MINUS,
    PLUS,
    XI,
    DensityOperator,
    HilbertDims,
    Operator,
    PureState,
    annihilation,
    annihilator,
    apply,
    basis_state,
    electronic_op,
    expectation,
    pauli,
    reduced_density_x,
    unitary_from_generator,
)
from util import expm_taylor, random_density, random_hermitian

DIMS = HilbertDims(3, 4)


class TestHilbertDims:
    def test_index_is_bijective(self):
        dims = HilbertDims(3, 4)
        seen = set()
        for e in range(3):
            for nx in range(dims.dx):
                for nz in range(dims.dz):
                    idx = dims.index(e, nx, nz)
                    assert 0 <= idx < dims.total_dim
                    assert dims.unravel(idx) == (e, nx, nz)
                    seen.add(idx)
        assert len(seen) == dims.total_dim

    def test_canonical_formula(self):
        dims = HilbertDims(5, 7)
        assert dims.index(2, 3, 4) == 2 * 35 + 3 * 7 + 4

    @pytest.mark.parametrize("dx,dz", [(1, 4), (4, 1), (0, 0)])
    def test_rejects_tiny_cutoffs(self, dx, dz):
        with pytest.raises(ValueError):
            HilbertDims(dx, dz)

    def test_level_names_accepted(self):
        dims = HilbertDims(2, 2)
        assert dims.index("-", 0, 0) == dims.index(MINUS, 0, 0)
        assert dims.index("xi", 1, 1) == dims.index(XI, 1, 1)


class TestAnnihilator:
    def test_ladder_action(self):
        # a|2>_x = sqrt(2)|1>_x
        a = annihilator("x", DIMS)
        src = basis_state(DIMS, MINUS, 2, 0)
        out = a.matrix @ src.amplitudes
        expected = np.sqrt(2) * basis_state(DIMS, MINUS, 1, 0).amplitudes
        assert np.allclose(out, expected, atol=1e-14)

    def test_vacuum_annihilation(self):
        a = annihilator("x", DIMS)
        vac = basis_state(DIMS, PLUS, 0, 3)
        assert np.max(np.abs(a.matrix @ vac.amplitudes)) == 0.0

    def test_commutator_on_truncation(self):
        # <n|[a, a-dag]|n> = 1 for n < dz-1; the single violation sits at the boundary.
        dims = HilbertDims(2, 4)
        a = annihilator("z", dims).matrix
        comm = a @ a.conj().T - a.conj().T @ a
        # independent oracle: the same commutator from a hand-built 4x4 ladder
        lad = np.zeros((4, 4), dtype=complex)
        for n in range(1, 4):
            lad[n - 1, n] = np.sqrt(n)
        oracle = lad @ lad.conj().T - lad.conj().T @ lad
        for n in range(3):
            assert abs(oracle[n, n] - 1) < 1e-14
        assert abs(oracle[3, 3] + 3) < 1e-14
        for e in range(3):
            for nx in range(2):
                for nz in range(4):
                    i = dims.index(e, nx, nz)
                    assert abs(comm[i, i] - oracle[nz, nz]) < 1e-14

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            annihilator("y", DIMS)


class TestElectronicOp:
    def test_projector_trace(self):
        p = electronic_op(MINUS, MINUS, DIMS)
        assert abs(np.trace(p.matrix) - DIMS.dx * DIMS.dz) < 1e-12

    def test_transition_action(self):
        op = electronic_op(PLUS, XI, DIMS)
        src = basis_state(DIMS, XI, 0, 0)
        out = op.matrix @ src.amplitudes
        assert np.allclose(out, basis_state(DIMS, PLUS, 0, 0).amplitudes, atol=1e-14)

    def test_composition_rule(self):
        lhs = electronic_op(PLUS, XI, DIMS).matrix @ electronic_op(XI, PLUS, DIMS).matrix
        assert np.allclose(lhs, electronic_op(PLUS, PLUS, DIMS).matrix, atol=1e-14)


class TestPauli:
    def test_x_flips_levels(self):
        sx = pauli(MINUS, PLUS, "x", DIMS)
        src = basis_state(DIMS, MINUS, 1, 2)
        out = sx.matrix @ src.amplitudes
        assert np.allclose(out, basis_state(DIMS, PLUS, 1, 2).amplitudes, atol=1e-14)

    def test_two_level_algebra(self):
        # y^2 + x^2 = 2 * (projector onto the {-, +} electronic pair)
        sx = pauli(MINUS, PLUS, "x", DIMS).matrix
        sy = pauli(MINUS, PLUS, "y", DIMS).matrix
        proj = electronic_op(MINUS, MINUS, DIMS).matrix + electronic_op(PLUS, PLUS, DIMS).matrix
        assert np.allclose(sy @ sy + sx @ sx, 2 * proj, atol=1e-13)

    def test_spectrum(self):
        dims = HilbertDims(2, 2)
        w = np.linalg.eigvalsh(pauli(MINUS, PLUS, "x", dims).matrix)
        vals, counts = np.unique(np.round(w, 12), return_counts=True)
        assert list(vals) == [-1.0, 0.0, 1.0]
        # the zero eigenspace is the xi sector: one per vibrational basis state
        assert list(counts) == [4, 4, 4]

    def test_rejects_equal_levels(self):
        with pytest.raises(ValueError):
            pauli(PLUS, PLUS, "x", DIMS)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian_tag(self, axis):
        op = pauli(MINUS, XI, axis, DIMS)
        assert op.hermitian
        assert np.max(np.abs(op.matrix - op.matrix.conj().T)) <= 1e-12


class TestUnitaryFromGenerator:
    def test_zero_generator(self):
        u = unitary_from_generator(np.zeros((5, 5)), 0.37)
        assert np.allclose(u.matrix, np.eye(5), atol=1e-14)

    def test_quarter_rotation(self):
        # exp(i pi/4 sigma_y) |-> = (|-> + |xi>)/sqrt(2), from the 2x2 analytic form
        u = unitary_from_generator(pauli(MINUS, XI, "y", DIMS), np.pi / 4)
        out = u.matrix @ basis_state(DIMS, MINUS, 0, 0).amplitudes
        expected = (basis_state(DIMS, MINUS, 0, 0).amplitudes
                    + basis_state(DIMS, XI, 0, 0).amplitudes) / np.sqrt(2)
        assert np.linalg.norm(out - expected) < 1e-12

    def test_inverse(self):
        g = pauli(MINUS, XI, "y", DIMS)
        u = unitary_from_generator(g, 0.81)
        v = unitary_from_generator(g, -0.81)
        assert np.max(np.abs(u.matrix @ v.matrix - np.eye(u.dim))) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_series_exponential(self, seed):
        rng = np.random.default_rng(seed)
        g = random_hermitian(9, rng)
        theta = rng.uniform(-2, 2)
        u = unitary_from_generator(g, theta).matrix
        assert np.max(np.abs(u - expm_taylor(1j * theta * g))) < 1e-11

    @pytest.mark.parametrize("seed", range(6))
    def test_unitarity_property(self, seed):
        rng = np.random.default_rng(100 + seed)
        u = unitary_from_generator(random_hermitian(12, rng), rng.uniform(-4, 4))
        assert np.max(np.abs(u.matrix.conj().T @ u.matrix - np.eye(12))) <= 1e-10

    def test_rejects_nonhermitian(self):
        g = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            unitary_from_generator(g, 1.0)


class TestExpectation:
    def test_projector_on_ground(self):
        rho = DensityOperator(basis_state(DIMS, MINUS, 0, 0).density_matrix(), DIMS)
        assert expectation(rho, electronic_op(MINUS, MINUS, DIMS)) == pytest.approx(1.0)

    def test_traceless_on_maximally_mixed(self):
        rho = DensityOperator(np.eye(DIMS.total_dim) / DIMS.total_dim, DIMS)
        val = expectation(rho, pauli(MINUS, PLUS, "x", DIMS))
        assert abs(val) < 1e-14

    def test_real_for_hermitian(self):
        rng = np.random.default_rng(7)
        rho = DensityOperator(random_density(DIMS.total_dim, rng), DIMS)
        val = expectation(rho, pauli(MINUS, XI, "y", DIMS))
        assert val.imag == 0.0

    def test_dim_mismatch(self):
        rho = DensityOperator(np.eye(4) / 4, 4)
        with pytest.raises(ValueError):
            expectation(rho, pauli(MINUS, PLUS, "x", DIMS))

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_trace_of_product(self, hermitian):
        rng = np.random.default_rng(11)
        n = DIMS.total_dim
        rho = DensityOperator(random_density(n, rng), DIMS)
        if hermitian:
            op = Operator(random_hermitian(n, rng), DIMS, hermitian=True)
        else:
            op = Operator(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), DIMS)
        reference = np.trace(rho.matrix @ op.matrix)
        if hermitian:
            reference = reference.real
        assert abs(expectation(rho, op) - reference) <= 1e-12


class TestApply:
    def test_identity(self):
        u = Operator(np.eye(DIMS.total_dim), DIMS, unitary=True)
        psi = basis_state(DIMS, XI, 2, 1)
        assert np.allclose(apply(u, psi).amplitudes, psi.amplitudes)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        rho = DensityOperator(random_density(DIMS.total_dim, rng), DIMS)
        u = unitary_from_generator(pauli(MINUS, PLUS, "y", DIMS), 0.6)
        out = apply(u, rho)
        assert abs(np.trace(out.matrix) - 1) <= 1e-10

    def test_purity_preserved(self):
        rng = np.random.default_rng(13)
        rho = DensityOperator(random_density(12, rng), 12)
        u = unitary_from_generator(random_hermitian(12, rng), 1.3)
        before = rho.purity()
        after = apply(u, rho).purity()
        assert abs(before - after) <= 1e-10

    def test_requires_unitary_tag(self):
        not_unitary = Operator(np.zeros((DIMS.total_dim,) * 2), DIMS)
        with pytest.raises(ValueError):
            apply(not_unitary, basis_state(DIMS, MINUS, 0, 0))

    def test_output_types_frozen(self):
        u = unitary_from_generator(pauli(MINUS, PLUS, "y", DIMS), 0.6)
        rho = apply(u, DensityOperator(np.eye(DIMS.total_dim) / DIMS.total_dim, DIMS))
        psi = apply(u, basis_state(DIMS, PLUS, 1, 2))
        assert isinstance(rho, DensityOperator) and rho.dims == DIMS
        assert isinstance(psi, PureState) and psi.dims == DIMS
        assert not rho.matrix.flags.writeable and not psi.amplitudes.flags.writeable


class TestOperatorAlgebra:
    def test_product_carries_unitary_tag(self):
        u = unitary_from_generator(pauli(MINUS, PLUS, "y", DIMS), 0.6)
        v = unitary_from_generator(pauli(PLUS, XI, "x", DIMS), 1.1)
        w = u @ v
        assert w.unitary and not w.hermitian and w.dims == DIMS
        assert np.array_equal(w.matrix, u.matrix @ v.matrix)
        assert not w.matrix.flags.writeable
        assert not (u @ Operator(np.eye(DIMS.total_dim), DIMS)).unitary

    def test_dagger_is_inverse_of_unitary(self):
        u = unitary_from_generator(pauli(MINUS, XI, "y", DIMS), 0.8)
        ud = u.dagger()
        assert ud.unitary and np.array_equal(ud.matrix, u.matrix.conj().T)
        assert np.max(np.abs((ud @ u).matrix - np.eye(DIMS.total_dim))) <= 1e-12

    def test_dagger_keeps_hermitian_tag(self):
        h = pauli(MINUS, PLUS, "y", DIMS)
        assert h.dagger().hermitian
        assert np.array_equal(h.dagger().matrix, h.matrix)

    def test_product_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Operator(np.eye(3), 3) @ Operator(np.eye(4), 4)


class TestTypeInvariants:
    def test_operator_rejects_false_hermitian_tag(self):
        with pytest.raises(ValueError):
            Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), 2, hermitian=True)

    def test_operator_rejects_false_unitary_tag(self):
        with pytest.raises(ValueError):
            Operator(np.eye(3) * 2.0, 3, unitary=True)

    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]), 2)

    def test_density_operator_checks(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.2, -0.2]), 2)

    def test_matrices_are_frozen(self):
        op = pauli(MINUS, PLUS, "x", DIMS)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_reduced_density_recovers_mode_x(self):
        amp = np.array([0.6, 0.0, 0.8], dtype=complex)
        rho_x = np.outer(amp, amp.conj())
        z0 = np.zeros((4, 4), dtype=complex)
        z0[0, 0] = 1.0
        elec = np.zeros((3, 3), dtype=complex)
        elec[MINUS, MINUS] = 1.0
        full = DensityOperator(np.kron(np.kron(elec, rho_x), z0), DIMS)
        assert np.allclose(reduced_density_x(full, DIMS), rho_x, atol=1e-14)
