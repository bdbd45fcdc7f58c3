"""Tests for the vibrational state constructors and the dephasing channel."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from iontomo.states import (
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
from util import expm_taylor


def coherent_amplitudes_oracle(alpha, dim):
    """Direct series evaluation <n|alpha> = exp(-|a|^2/2) a^n / sqrt(n!), truncated + renormalized."""
    amps = np.array([alpha ** n / math.sqrt(math.factorial(n)) for n in range(dim)],
                    dtype=complex) * math.exp(-abs(alpha) ** 2 / 2)
    return amps / np.linalg.norm(amps)


class TestFock:
    def test_vacuum(self):
        rho = fock(0, 8).density_matrix()
        assert rho[0, 0] == pytest.approx(1.0)
        assert np.max(np.abs(rho - np.diag(np.eye(8)[0]))) < 1e-15

    def test_excited(self):
        rho = fock(3, 8).density_matrix()
        assert rho[3, 3] == pytest.approx(1.0)
        assert np.sum(np.abs(rho)) == pytest.approx(1.0)

    def test_orthonormality(self):
        assert np.vdot(fock(2, 8).amplitudes, fock(3, 8).amplitudes) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fock(8, 8)


class TestCoherent:
    def test_alpha_zero_is_vacuum(self):
        st = coherent(0.0, 6)
        assert np.allclose(st.amplitudes, fock(0, 6).amplitudes)

    def test_vacuum_population(self):
        rho = coherent(0.8, 12, tail_tol=1e-9).density_matrix()
        assert rho[0, 0].real == pytest.approx(0.5272924240430485, abs=1e-6)

    def test_first_coherence(self):
        rho = coherent(0.8, 12, tail_tol=1e-9).density_matrix()
        assert rho[1, 0].real == pytest.approx(0.42183393923443885, abs=1e-6)

    def test_matches_series_oracle(self):
        st = coherent(0.8, 12, tail_tol=1e-9)
        assert np.max(np.abs(st.amplitudes - coherent_amplitudes_oracle(0.8, 12))) < 1e-13

    def test_ratio_recurrence(self):
        st = coherent(0.8, 10, tail_tol=1e-6)
        for n in range(9):
            ratio = st.amplitudes[n + 1] / st.amplitudes[n]
            assert abs(ratio - 0.8 / math.sqrt(n + 1)) < 1e-12

    def test_leakage_guard_names_required_dim(self):
        with pytest.raises(TruncationLeakageError) as err:
            coherent(2.0, 4)
        assert err.value.required_dim > 4
        assert "need dim >=" in str(err.value)
        # the suggested cutoff is actually sufficient
        coherent(2.0, err.value.required_dim)

    def test_complex_alpha(self):
        alpha = 0.5 + 0.3j
        st = coherent(alpha, 10, tail_tol=1e-8)
        assert np.max(np.abs(st.amplitudes - coherent_amplitudes_oracle(alpha, 10))) < 1e-13


class TestSqueezed:
    def test_zero_squeezing_is_vacuum(self):
        st = squeezed(0.0, 0.0, 8)
        assert np.allclose(st.amplitudes, fock(0, 8).amplitudes)

    def test_odd_populations_vanish(self):
        st = squeezed(0.4, 0.7, 16, tail_tol=1e-6)
        assert np.max(np.abs(st.amplitudes[1::2])) == 0.0

    @pytest.mark.parametrize("r,phi", [(0.4, 0.0), (0.3, 1.1)])
    def test_matches_generator_exponential(self, r, phi):
        # oracle: exponentiate the quadratic squeeze generator on a padded
        # space, truncate, renormalize
        dim, pad = 16, 24
        big = dim + pad
        a = np.diag(np.sqrt(np.arange(1, big)), 1).astype(complex)
        z = r * np.exp(1j * phi)
        gen = (np.conj(z) * a @ a - z * a.conj().T @ a.conj().T) / 2.0
        vac = np.zeros(big, dtype=complex)
        vac[0] = 1.0
        out = (expm_taylor(gen) @ vac)[:dim]
        out = out / np.linalg.norm(out)
        st = squeezed(r, phi, dim, tail_tol=1e-6)
        assert np.max(np.abs(st.amplitudes - out)) < 1e-10

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            squeezed(-0.1, 0.0, 8)


class TestCat:
    def test_even_cat_parity_zeros(self):
        rho = cat(1.2, "even", 16, tail_tol=1e-6).density_matrix()
        for m in range(16):
            for n in range(16):
                if m % 2 == 1 or n % 2 == 1:
                    assert abs(rho[m, n]) == 0.0

    def test_even_cat_matches_superposition_oracle(self):
        dim = 16
        plus = coherent_amplitudes_oracle(1.2, dim) * 0 + np.array(
            [1.2 ** n / math.sqrt(math.factorial(n)) for n in range(dim)]) * math.exp(-1.2 ** 2 / 2)
        minus = np.array([(-1.2) ** n / math.sqrt(math.factorial(n)) for n in range(dim)]) \
            * math.exp(-1.2 ** 2 / 2)
        vec = plus + minus
        vec = vec / np.linalg.norm(vec)
        st = cat(1.2, "even", dim, tail_tol=1e-6)
        assert abs(st.density_matrix()[0, 0] - abs(vec[0]) ** 2) < 1e-12

    def test_odd_cat_kills_vacuum(self):
        st = cat(1.2, "odd", 16, tail_tol=1e-5)
        assert st.density_matrix()[0, 0] == 0.0

    def test_odd_cat_at_zero_alpha_degenerate(self):
        with pytest.raises(ValueError, match=r"^odd cat with alpha = 0 is the zero vector$"):
            cat(0.0, "odd", 8)

    @pytest.mark.parametrize("alpha", [1e-15, 1e-16, 1e-100, 3e-77j, 1e-154])
    def test_odd_cat_at_tiny_alpha_is_one_phonon(self, alpha):
        # the squared norm, about 4 |alpha|^2, is still a normal float: the state is |1> with
        # alpha's phase
        st = cat(alpha, "odd", 4)
        assert np.max(np.abs(st.amplitudes - np.eye(4)[1] * alpha / abs(alpha))) <= 1e-15

    @pytest.mark.parametrize("alpha", [7e-155, 1e-160, 5e-324])
    def test_odd_cat_below_the_float_range_is_named(self, alpha):
        # below sys.float_info.min the squared norm has lost its digits
        with pytest.raises(ValueError, match=rf"^odd cat with alpha = {re.escape(str(complex(alpha)))} "
                                             r"has a squared norm .* below the smallest normal float$"):
            cat(alpha, "odd", 4)

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            cat(1.0, "both", 8)


class TestThermal:
    def test_nbar_zero_is_vacuum(self):
        rho = thermal(0.0, 8).density_matrix()
        assert rho[0, 0] == pytest.approx(1.0)

    def test_diagonal(self):
        rho = thermal(0.5, 12, tail_tol=1e-5).density_matrix()
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0

    def test_vacuum_population(self):
        # 1/(1+nbar) = 2/3 before truncation; exact after geometric renormalization
        rho = thermal(0.5, 12, tail_tol=1e-5).density_matrix()
        q = 0.5 / 1.5
        assert rho[0, 0].real == pytest.approx((1 - q) / (1 - q ** 12), abs=1e-14)
        assert rho[0, 0].real == pytest.approx(2 / 3, abs=1e-5)

    def test_leakage(self):
        with pytest.raises(TruncationLeakageError):
            thermal(5.0, 4)


class TestDephase:
    def test_identity_at_zero(self):
        st = coherent(0.8, 10, tail_tol=1e-6)
        out = dephase(st, 0.0)
        assert np.max(np.abs(out.density_matrix() - st.density_matrix())) == 0.0

    def test_strong_dephasing_kills_coherences(self):
        st = coherent(0.8, 10, tail_tol=1e-6)
        out = dephase(st, 1e6).density_matrix()
        off = out - np.diag(np.diag(out))
        assert np.max(np.abs(off)) < 1e-15
        assert np.allclose(np.diag(out), np.diag(st.density_matrix()))

    def test_scaling_of_specific_element(self):
        st = coherent(0.8, 12, tail_tol=1e-9)
        out = dephase(st, 0.3)
        expected = st.density_matrix()[2, 0] * math.exp(-1.2)
        assert abs(out.density_matrix()[2, 0] - expected) < 1e-15

    def test_trace_and_positivity(self):
        for base in (coherent(0.9, 10, tail_tol=1e-5), thermal(0.7, 10, tail_tol=1e-3),
                     cat(1.1, "even", 10, tail_tol=1e-4)):
            out = dephase(base, 0.25)
            rho = out.density_matrix()
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match=r"^dephasing strength lam must be >= 0, got -0\.1$"):
            dephase(fock(0, 4), -0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_nonfinite_lambda_rejected(self, lam):
        message = f"dephasing strength lam must be finite, got {lam!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dephase(fock(0, 4), lam)

    # a bool is no dephasing strength: True would apply lambda = 1
    @pytest.mark.parametrize("lam", [True, np.True_, "0.3", 0.3j], ids=["bool", "numpy-bool", "str", "complex"])
    def test_non_number_lambda_rejected(self, lam):
        message = f"dephasing strength lam must be a real number, got {lam!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dephase(fock(0, 4), lam)

    @pytest.mark.parametrize("lam", [np.float32(0.25), np.int64(1)], ids=["float32", "int64"])
    def test_numpy_lambda_accepted(self, lam):
        base = coherent(0.8, 8, tail_tol=1e-5)
        assert np.array_equal(dephase(base, lam).matrix, dephase(base, float(lam)).matrix)


# Unit-norm inputs that are not a nonempty vector: each entry point rejects them by their shape,
# never flattening one into a state of another size.
NON_VECTORS = pytest.mark.parametrize("values,shape", [
    (np.ones((2, 2)) / 2, "(2, 2)"),
    ([[0.6], [0.8]], "(2, 1)"),
    (np.array(1j), "()"),
    ([], "(0,)"),
], ids=["matrix", "column", "scalar", "empty"])


class TestRawAndInvariants:
    @NON_VECTORS
    def test_from_amplitudes_rejects_a_non_vector(self, values, shape):
        message = f"pure state amplitudes must be a nonempty vector, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_amplitudes(values)

    def test_from_amplitudes_renormalizes(self):
        v = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2) * (1 + 4e-7)
        st = from_amplitudes(v)
        assert np.linalg.norm(st.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_from_amplitudes_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            from_amplitudes([1.0, 1.0])

    def test_from_amplitudes_rejects_zero(self):
        # the zero vector fails the normalization check like any other bad norm
        message = r"^raw amplitude list norm 0\.0 deviates from 1 by more than 1e-6$"
        with pytest.raises(ValueError, match=message):
            from_amplitudes([0.0, 0.0])

    @pytest.mark.parametrize("state", [
        fock(2, 8),
        coherent(0.8, 12, tail_tol=1e-9),
        squeezed(0.4, 0.0, 16, tail_tol=1e-6),
        cat(1.2, "even", 16, tail_tol=1e-6),
        thermal(0.5, 12, tail_tol=1e-5),
        dephase(coherent(0.8, 12, tail_tol=1e-9), 0.3),
    ], ids=["fock", "coherent", "squeezed", "cat", "thermal", "dephased"])
    def test_all_constructors_yield_valid_states(self, state):
        rho = state.density_matrix()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_requires_exactly_one_representation(self):
        with pytest.raises(ValueError, match="^exactly one of amplitudes / matrix must be given$"):
            VibrationalState()
        with pytest.raises(ValueError, match="^exactly one of amplitudes / matrix must be given$"):
            VibrationalState(amplitudes=[1, 0], matrix=np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("build,size", [
        (lambda: VibrationalState(amplitudes=[0.6, 0.8j, 0.0]), 3),
        (lambda: VibrationalState(matrix=np.eye(5) / 5), 5),
        (lambda: from_amplitudes([0.0, 1.0]), 2),
        (lambda: thermal(0.5, 12, tail_tol=1e-3), 12),
        (lambda: dephase(coherent(0.8, 12, tail_tol=1e-9), 0.3), 12),
    ], ids=["pure", "mixed", "raw", "thermal", "dephased"])
    def test_dim_is_the_array_size(self, build, size):
        # a state's size is its array's, and a run compares it with d (test_protocol.py)
        state = build()
        assert state.dim == size and type(state.dim) is int
        assert state.density_matrix().shape == (size, size)


# Each of these used to run as if given 1, or end in an unrelated error.
@pytest.mark.parametrize("build,message", [
    (lambda: fock(True, 4), "n must be an integer, got True"),
    (lambda: fock(1.0, 4), "n must be an integer, got 1.0"),
    (lambda: fock(1, 4.0), "dim must be an integer, got 4.0"),
    (lambda: coherent(True, 8, 1e-3), "alpha must be a number, got True"),
    (lambda: coherent("0.5", 8), "alpha must be a number, got '0.5'"),
    (lambda: coherent(0.5, 8, tail_tol=True), "tail_tol must be a real number, got True"),
    (lambda: thermal(True, 12, 1e-3), "nbar must be a real number, got True"),
    (lambda: thermal(0.5, "8"), "dim must be an integer, got '8'"),
    (lambda: cat(0.5, "even", True), "dim must be an integer, got True"),
], ids=["fock-bool-n", "fock-float-n", "fock-float-dim", "coherent-bool-alpha", "coherent-str-alpha",
        "coherent-bool-tail-tol", "thermal-bool-nbar", "thermal-str-dim", "cat-bool-dim"])
def test_constructors_coerce_nothing(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# A cutoff below one used to slice the extended range with a negative index (a state of
# hundreds of levels), divide by zero, or report a tail mass above one.
@pytest.mark.parametrize("dim", [0, -1, -3])
@pytest.mark.parametrize("build", [
    lambda dim: fock(0, dim),
    lambda dim: coherent(0.5, dim),
    lambda dim: squeezed(0.3, 0.0, dim),
    lambda dim: cat(0.5, "even", dim),
    lambda dim: thermal(0.0, dim),
], ids=["fock", "coherent", "squeezed", "cat", "thermal"])
def test_constructors_reject_a_cutoff_below_one(build, dim):
    with pytest.raises(ValueError, match=f"^dim must be >= 1, got {dim}$"):
        build(dim)


class TestTypeInvariants:
    """VibrationalState checks its representation once, when it is built, and freezes it."""

    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            VibrationalState(amplitudes=np.array([1.0, 1.0]))

    @NON_VECTORS
    def test_amplitudes_must_be_a_nonempty_vector(self, values, shape):
        message = f"pure state amplitudes must be a nonempty vector, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VibrationalState(amplitudes=values)

    def test_density_operator_checks(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            VibrationalState(matrix=np.diag([1.2, -0.2]))
        with pytest.raises(ValueError, match="hermitian"):
            VibrationalState(matrix=np.array([[0.5, 1e-11], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            VibrationalState(matrix=np.diag([0.5, 0.5 + 1e-9]))

    @pytest.mark.parametrize("matrix,shape", [
        (np.ones((2, 3)) / 2, "(2, 3)"),
        (np.array([0.5, 0.5]), "(2,)"),
        (np.eye(2).reshape(1, 2, 2) / 2, "(1, 2, 2)"),
        (np.array(1.0), "()"),
        (np.zeros((0, 0)), "(0, 0)"),
    ], ids=["rectangle", "vector", "stack", "scalar", "empty"])
    def test_density_matrix_must_be_square(self, matrix, shape):
        message = f"density matrix must be square and nonempty, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VibrationalState(matrix=matrix)

    def test_matrices_are_frozen(self):
        rho = VibrationalState(matrix=np.eye(3) / 3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
        pure = VibrationalState(amplitudes=np.array([0.6, 0.8]))
        with pytest.raises(ValueError):
            pure.amplitudes[0] = 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN passes every "> tol" comparison, so it needs its own check
        with pytest.raises(ValueError, match="non-finite"):
            VibrationalState(matrix=np.array([[1.0, bad], [bad, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            VibrationalState(matrix=np.array([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="non-finite"):
            VibrationalState(amplitudes=np.array([1.0, bad]))

    @pytest.mark.parametrize("tail_mass", [math.nan, math.inf], ids=["nan-tail", "inf-tail"])
    def test_rejects_leaky_state(self, tail_mass):
        # leakage is decided by the constructor that truncates; the state checks only that
        # the recorded tail mass is a population
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        message = f"tail_mass must be finite, got {tail_mass!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VibrationalState(amplitudes=vec, tail_mass=tail_mass)


class TestFarTail:
    """Mass beyond the constructors' extended Fock range still counts as leakage."""

    @pytest.mark.parametrize("build", [
        lambda: coherent(30, 12),
        lambda: coherent(40, 12),
        lambda: cat(40, "odd", 12),
        lambda: squeezed(50, 0, 12),
        lambda: squeezed(1000, 0, 12),
        lambda: thermal(1e17, 12),
    ], ids=["coherent30", "coherent40", "odd-cat40", "squeezed50", "squeezed1000", "thermal1e17"])
    def test_rejected(self, build):
        with pytest.raises(TruncationLeakageError) as err:
            build()
        assert err.value.tail_mass == pytest.approx(1.0, abs=1e-6)
        assert err.value.required_dim > 12

    def test_reports_true_tail(self):
        # mean occupation 625 lies beyond the extended range, so nearly all mass is missing
        with pytest.raises(TruncationLeakageError) as err:
            coherent(25, 12)
        assert err.value.tail_mass > 0.99

    def test_in_range_tail_unchanged(self):
        # the extended range holds the whole state: the tail is the suffix beyond the cutoff
        st = coherent(1.5, 20, tail_tol=1e-5)
        expected = sum(math.exp(-2.25) * 2.25 ** n / math.factorial(n) for n in range(20, 80))
        assert st.tail_mass == pytest.approx(expected, rel=1e-9)

    def test_odd_cat_near_zero_alpha_is_one_phonon(self):
        # (|a> - |-a>) / norm -> |1> as a -> 0; the norm keeps its digits there
        st = cat(1e-5, "odd", 6)
        assert abs(st.amplitudes[1]) == pytest.approx(1.0, abs=1e-12)
        assert st.tail_mass < 1e-12

    @pytest.mark.parametrize("build", [lambda: coherent(25, 12), lambda: thermal(1e300, 12)],
                             ids=["coherent25", "thermal1e300"])
    def test_lower_bound_wording(self, build):
        # coherent(25) needs about 800 levels for a 1e-12 tail; its extended range ends at
        # 12 + 512, and the thermal cutoff is capped at 2**63
        with pytest.raises(TruncationLeakageError) as err:
            build()
        assert err.value.lower_bound
        assert str(err.value).endswith(
            f"need dim >= {err.value.required_dim} (a lower bound: no cutoff in the range "
            "the constructor examines meets the tolerance)")

    @pytest.mark.parametrize("build", [
        lambda d: coherent(2.0, d), lambda d: squeezed(1.0, 0.3, d), lambda d: cat(1.5, "odd", d),
        lambda d: thermal(0.5, d),
    ], ids=["coherent", "squeezed", "odd-cat", "thermal"])
    def test_required_dim_is_the_smallest_sufficient_cutoff(self, build):
        # the named cutoff meets the tolerance and the one below it does not
        with pytest.raises(TruncationLeakageError) as err:
            build(4)
        need = err.value.required_dim
        assert build(need).tail_mass <= DEFAULT_TAIL_TOL
        with pytest.raises(TruncationLeakageError):
            build(need - 1)

    @pytest.mark.parametrize("build", [lambda: coherent(2.0, 4), lambda: thermal(1e17, 12)],
                             ids=["coherent2", "thermal1e17"])
    def test_in_range_wording(self, build):
        with pytest.raises(TruncationLeakageError) as err:
            build()
        assert not err.value.lower_bound
        assert str(err.value).endswith(f"need dim >= {err.value.required_dim}")

    @pytest.mark.parametrize("build, lower_bound", [(lambda: coherent(2.0, 4), False),
                                                    (lambda: coherent(25, 12), True)],
                             ids=["in-range", "lower-bound"])
    def test_pickles_and_copies(self, build, lower_bound):
        # a worker process hands the error back through pickle: the type, the message and all
        # six fields survive
        with pytest.raises(TruncationLeakageError) as err:
            build()
        assert err.value.lower_bound is lower_bound
        for clone in (pickle.loads(pickle.dumps(err.value)), copy.copy(err.value)):
            assert type(clone) is TruncationLeakageError
            assert str(clone) == str(err.value)
            assert vars(clone) == vars(err.value)

    @pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan])
    def test_tail_tol_must_be_positive(self, tol):
        for build in (lambda: coherent(0.5, 8, tail_tol=tol), lambda: thermal(0.5, 8, tail_tol=tol)):
            with pytest.raises(ValueError, match="tail_tol"):
                build()


class TestNoRuntimeWarnings:
    """Extreme but finite inputs reach the same outcome as before, without a numpy warning."""

    @staticmethod
    def quiet(build):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return build()

    @pytest.mark.parametrize("lam", [0.0, 0.3, 745.0, 800.0, 1e308])
    def test_dephase_kernel_unchanged(self, lam):
        st = coherent(0.5, 6, tail_tol=1e-3)
        n = np.arange(6)
        with np.errstate(over="ignore"):
            kernel = np.exp(-lam * (n[:, None] - n[None, :]) ** 2)
        out = self.quiet(lambda: dephase(st, lam))
        assert np.array_equal(out.matrix, st.density_matrix() * kernel)

    def test_raw_norm_near_float_max(self):
        with pytest.raises(ValueError, match="deviates from 1") as err:
            self.quiet(lambda: from_amplitudes([1e154, 1e154]))
        assert type(err.value) is ValueError

    def test_raw_norm_keeps_bits(self):
        v = np.array([0.6, 0.8 * (1 + 5e-7), 1e-3j, -2e-4])
        assert np.array_equal(from_amplitudes(v).amplitudes, v / np.linalg.norm(v))

    def test_coherent_with_nothing_kept(self):
        # tail_tol = 2 lets the whole mass leak; the kept amplitudes underflow to a zero norm
        with pytest.raises(ValueError, match="no representable amplitude") as err:
            self.quiet(lambda: coherent(30, 4, tail_tol=2.0))
        assert type(err.value) is ValueError

    def test_thermal_with_nothing_kept(self):
        with pytest.raises(ValueError, match="no representable population") as err:
            self.quiet(lambda: thermal(1e300, 4, tail_tol=2.0))
        assert type(err.value) is ValueError
