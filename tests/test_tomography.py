"""Tests for the reconstruction sweep, physical projection, metrics, and monitor."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iontomo import cli, protocol, tomography
from iontomo.hilbert import MINUS, PLUS
from iontomo.protocol import (
    ProtocolSettings,
    _sample_cell,
    ladder_schedule,
    measure_element,
    shifter_reach,
    u00_schedule,
)
from iontomo.pulses import act_pulse
from iontomo.states import coherent, dephase, fock, thermal
from iontomo.tomography import (
    decoherence_monitor,
    hs_distance,
    project_physical,
    reconstruct,
    trace_distance,
)
from util import random_density, random_hermitian

D = 8
SETTINGS = ProtocolSettings(D)

# Matrices the projection and the distances reject, each with a ValueError naming the argument:
# numpy would end in an IndexError, a failed SVD or a NaN distance.
NOT_FINITE_OR_EMPTY = {
    "nan": np.array([[math.nan]]),
    "inf": np.array([[math.inf, 0.0], [0.0, 1.0]]),
    "empty": np.zeros((0, 0)),
}


def not_finite_or_empty(name, matrix):
    message = f"{name} must be a nonempty array of finite numbers, got shape {matrix.shape}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


# Finite and nonempty, but no matrix: a distance function names the argument and its shape.
NOT_A_MATRIX = {
    "scalar": np.array(5.0),
    "vector": np.ones(2),
    "3-d": np.ones((2, 2, 2)),
}
NOT_A_DISTANCE_ARGUMENT = {**NOT_FINITE_OR_EMPTY, **NOT_A_MATRIX}


def not_a_distance_argument(name, bad):
    if bad.ndim == 2:
        return not_finite_or_empty(name, bad)
    message = f"{name} must be a matrix, got shape {bad.shape}"
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestReconstruct:
    def test_vacuum_block(self):
        report = reconstruct(fock(0, 8), 2, SETTINGS)
        assert np.max(np.abs(report.estimates - np.diag([1.0, 0.0, 0.0]))) < 1e-12
        assert np.all(report.stderrs == 0.0)

    def test_coherent_exact_ideal(self):
        report = reconstruct(coherent(0.8, 8, tail_tol=1e-5), 5, SETTINGS)
        assert report.metrics["max_abs_error"] <= 1e-9

    def test_coherent_exact_compiled(self):
        st = ProtocolSettings(D, v_mode="compiled")
        report = reconstruct(coherent(0.8, 8, tail_tol=1e-5), 3, st)
        assert report.metrics["max_abs_error"] <= 1e-7

    def test_dephased_offdiagonals(self):
        phi = dephase(coherent(0.8, 8, tail_tol=1e-5), 0.3)
        base = coherent(0.8, 8, tail_tol=1e-5).density_matrix()
        report = reconstruct(phi, 3, SETTINGS)
        for m in range(4):
            for n in range(4):
                expected = base[m, n] * math.exp(-0.3 * (m - n) ** 2)
                assert abs(report.estimates[m, n] - expected) <= 1e-9

    def test_hermitian_symmetry_shortcut_agrees(self):
        phi = coherent(0.5 + 0.2j, 8, tail_tol=1e-4)
        full = reconstruct(phi, 3, SETTINGS)
        shortcut = reconstruct(phi, 3, SETTINGS, use_hermitian_symmetry=True)
        assert np.max(np.abs(full.estimates - shortcut.estimates)) <= 1e-9

    def test_settings_echo(self, tmp_path, capsys):
        # the run record is the CLI's; the report carries only the reconstruction
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dims": {"dx": 8, "dz": 8}, "state": {"kind": "fock", "n": 0},
                                      "nmax": 1}))
        assert cli.main(["reconstruct", "--config", str(config)]) == 0
        echo = json.loads(capsys.readouterr().out)["settings"]
        assert echo["nmax"] == 1
        assert echo["v_mode"] == "ideal"
        assert echo["dims"] == {"dx": 8, "dz": 8}
        assert echo["state"] == {"kind": "fock", "n": 0}
        # the record is the ProtocolSettings fields, d shown as the config's dims, plus the extras
        fields = {f.name for f in dataclasses.fields(ProtocolSettings)}
        assert set(echo) == (fields - {"d"}) | {"dims", "state", "nmax", "use_hermitian_symmetry"}
        report = reconstruct(fock(0, 8), 1, SETTINGS)
        assert [f.name for f in dataclasses.fields(report)] == [
            "estimates", "stderrs", "truth", "projected", "metrics"]

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match=r"^nmax = 8 out of the ideal shifter reach 0\.\.7 at d=8$"):
            reconstruct(fock(0, 8), 8, SETTINGS)

    def test_compiled_cutoff_margin(self):
        st = ProtocolSettings(D, v_mode="compiled")
        with pytest.raises(ValueError, match=r"^nmax = 7 out of the compiled shifter reach 0\.\.6 at d=8$"):
            reconstruct(fock(0, 8), 7, st)

    @pytest.mark.parametrize("nmax", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_nmax_must_be_integer(self, nmax):
        with pytest.raises(ValueError, match=f"^nmax must be an integer, got {re.escape(repr(nmax))}$"):
            reconstruct(fock(0, 8), nmax, SETTINGS)

    # a string or number flag would pick the path by its truthiness
    @pytest.mark.parametrize("flag", ["no", 1, None, np.True_], ids=["str", "int", "none", "numpy-bool"])
    def test_hermitian_flag_must_be_bool(self, flag):
        message = f"use_hermitian_symmetry must be a bool, got {flag!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reconstruct(fock(0, 8), 2, SETTINGS, use_hermitian_symmetry=flag)

    def test_numpy_integer_nmax_accepted(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        report = reconstruct(phi, np.int64(2), SETTINGS)
        assert np.array_equal(report.estimates, reconstruct(phi, 2, SETTINGS).estimates)

    def test_projected_is_physical(self):
        st = ProtocolSettings(D, shots=200, seed=5)
        report = reconstruct(coherent(0.8, 8, tail_tol=1e-5), 3, st)
        proj = report.projected
        assert abs(np.trace(proj) - 1) <= 1e-10
        assert np.linalg.eigvalsh(proj)[0] >= -1e-10

    def test_projected_pulls_a_truncated_block_to_trace_one(self):
        # exact estimates of a 5x5 block of trace 0.969: each of its 5 eigenvalues moves up by 0.031 / 5
        report = reconstruct(thermal(1.0, 12, tail_tol=1e-3), 4, ProtocolSettings(12))
        trace = np.trace(report.truth).real
        assert np.max(np.abs(report.estimates - report.truth)) <= 1e-15
        assert trace == pytest.approx(0.969, abs=1e-3)
        assert np.max(np.abs(report.projected - report.estimates - (1 - trace) / 5 * np.eye(5))) <= 1e-15

    @pytest.mark.parametrize("settings", [
        ProtocolSettings(D, v_mode="compiled"),
        ProtocolSettings(D, shots=3000, seed=6),
    ], ids=["exact-compiled", "sampled-ideal"])
    def test_cells_equal_per_cell_runs(self, settings):
        # each cell of the sweep is its own full run
        phi = dephase(coherent(0.7 - 0.4j, 8, tail_tol=1e-5), 0.2)
        report = reconstruct(phi, 3, settings)
        for m in range(4):
            for n in range(4):
                est = measure_element(phi, m, n, settings)
                assert report.estimates[m, n] == est.value
                assert report.stderrs[m, n] == est.stderr

    def test_sampled_stderr_shrinks_with_shots(self):
        phi = coherent(0.8, 8, tail_tol=1e-5)
        small = reconstruct(phi, 2, ProtocolSettings(D, shots=400, seed=1))
        big = reconstruct(phi, 2, ProtocolSettings(D, shots=40000, seed=1))
        assert np.median(big.stderrs) < np.median(small.stderrs) / 5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=st.integers(2, 5), n=st.integers(0, 4), nmax=st.integers(0, 4),
       v_mode=st.sampled_from(["ideal", "compiled"]), shots=st.integers(1, 3), seed=st.integers(0, 50))
# a single shot can leave the 1x1 block of |1> at -1 + 1j, with no positive eigenvalue
@example(d=4, n=1, nmax=0, v_mode="ideal", shots=1, seed=2)
@example(d=4, n=1, nmax=0, v_mode="ideal", shots=1, seed=3)
def test_few_shot_reconstruct_always_projects(d, n, nmax, v_mode, shots, seed):
    assume(n < d and nmax <= shifter_reach(d, v_mode))
    run = ProtocolSettings(d, v_mode=v_mode, shots=shots, seed=seed)
    proj = reconstruct(fock(n, d), nmax, run).projected
    assert np.max(np.abs(proj - proj.conj().T)) <= 1e-12
    assert abs(np.trace(proj) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(proj)[0] >= -1e-10


class TestProjectPhysical:
    def test_valid_input_unchanged(self):
        rng = np.random.default_rng(3)
        rho = random_density(6, rng)
        out = project_physical(rho)
        assert np.max(np.abs(out - rho)) <= 1e-12

    def test_clip_and_renormalize(self):
        out = project_physical(np.diag([1.1, -0.1]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        noisy = random_density(5, rng) + 0.2 * (rng.normal(size=(5, 5))
                                                + 1j * rng.normal(size=(5, 5)))
        once = project_physical(noisy)
        twice = project_physical(once)
        assert np.max(np.abs(once - twice)) <= 1e-12

    @pytest.mark.parametrize("seed,negative", [(s, False) for s in range(5)] + [(5, True)],
                             ids=["0", "1", "2", "3", "4", "negative-definite"])
    def test_output_always_valid(self, seed, negative):
        rng = np.random.default_rng(100 + seed)
        if negative:
            # no positive eigenvalue at all: the shift t is negative
            noisy = -random_density(6, rng) - 0.1 * np.eye(6)
        else:
            noisy = random_density(6, rng) + 0.5 * (rng.normal(size=(6, 6))
                                                    + 1j * rng.normal(size=(6, 6)))
        out = project_physical(noisy)
        assert out.shape == (6, 6)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-12
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_simplex_projection_pinned(self):
        # clip-and-renormalize would give (7/12, 5/12, 0), which is farther away
        out = project_physical(np.diag([0.7, 0.5, -0.2]))
        assert np.max(np.abs(out - np.diag([0.6, 0.4, 0.0]))) <= 1e-12
        clipped = np.diag([0.7, 0.5, 0.0]) / 1.2
        target = np.diag([0.7, 0.5, -0.2])
        assert hs_distance(out, target) < hs_distance(clipped, target) - 1e-3

    def test_excess_trace_shifts_every_kept_eigenvalue(self):
        # sum 1.6: the two largest drop by 0.25 each, the smallest would go negative and is cut
        out = project_physical(np.diag([0.9, 0.6, 0.1]))
        assert np.max(np.abs(out - np.diag([0.65, 0.35, 0.0]))) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_qubit_matches_brute_force_grid(self, seed):
        # every 2x2 density matrix is (I + r.sigma)/2 with |r| <= 1: search a grid of the ball
        rng = np.random.default_rng(200 + seed)
        target = np.eye(2) / 2 + 0.8 * random_hermitian(2, rng)
        best = hs_distance(project_physical(target), target)
        axis = np.arange(-1.0, 1.0 + 1e-9, 0.025)
        r = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        r = r[np.sum(r * r, axis=1) <= 1.0]
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        grid = (np.eye(2) + np.einsum("ki,iab->kab", r, paulis)) / 2
        dists = np.sqrt(np.sum(np.abs(grid - target) ** 2, axis=(1, 2)))
        assert best <= dists.min() + 1e-12
        assert dists.min() <= best + 0.025

    @pytest.mark.parametrize("seed,negative", [(s, False) for s in range(4)] + [(4, True)],
                             ids=["0", "1", "2", "3", "negative-definite"])
    def test_no_density_matrix_is_closer(self, seed, negative):
        # the density matrices are convex, so beating every nearby mixture certifies the optimum
        rng = np.random.default_rng(300 + seed)
        dim = 3 + seed % 3
        if negative:
            target = -random_density(dim, rng) - 0.05 * np.eye(dim)
        else:
            target = random_density(dim, rng) + 0.3 * random_hermitian(dim, rng)
        proj = project_physical(target)
        best = hs_distance(proj, target)
        for t in np.geomspace(1e-4, 1.0, 12):
            for _ in range(40):
                other = random_density(dim, rng)
                if rng.uniform() < 0.5:
                    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                    other = np.outer(v, v.conj()) / np.vdot(v, v).real
                assert hs_distance((1 - t) * proj + t * other, target) >= best - 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            project_physical(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", NOT_FINITE_OR_EMPTY.values(), ids=NOT_FINITE_OR_EMPTY.keys())
    def test_rejects_empty_or_non_finite(self, bad):
        with not_finite_or_empty("matrix", bad):
            project_physical(bad)

    def test_zero_matrix_is_maximally_mixed(self):
        # a block with no positive eigenvalue is still measured data: the projection is total
        assert np.max(np.abs(project_physical(np.zeros((4, 4))) - np.eye(4) / 4)) <= 1e-12


class TestDistances:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(4)
        rho = random_density(6, rng)
        assert trace_distance(rho, rho) == 0.0
        assert hs_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_overlap_formula(self):
        # for pure states T = sqrt(1 - |<phi|chi>|^2)
        phi = coherent(0.8, 12, tail_tol=1e-9).amplitudes
        chi = fock(0, 12).amplitudes
        expected = math.sqrt(1 - abs(np.vdot(phi, chi)) ** 2)
        got = trace_distance(np.outer(phi, phi.conj()), np.outer(chi, chi.conj()))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_diagonal_is_half_l1_distance(self):
        # the difference has eigenvalues .2, .1, -.15, -.15: half their absolute sum is 0.3,
        # while the largest |eigenvalue| is 0.2; a common unitary leaves the distance unchanged
        a = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        b = np.diag([0.2, 0.2, 0.35, 0.25]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(0.3, abs=1e-15)
        q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(4, 4)) + 1j)
        ra, rb = (q @ m @ q.conj().T for m in (a, b))
        assert trace_distance(ra, rb) == pytest.approx(0.3, abs=1e-14)

    def test_anti_hermitian_difference_counts(self):
        # the difference has no hermitian part, but singular values 1 and 1
        a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        assert trace_distance(a, np.zeros((2, 2))) == pytest.approx(1.0, abs=1e-15)

    def test_sampled_block_is_half_the_trace_norm_of_its_error(self):
        # sampled estimates are not hermitian: the metric counts the whole error, not its hermitian part
        st = ProtocolSettings(14, shots=1000, seed=3)
        report = reconstruct(coherent(0.9, 14, tail_tol=1e-6), 5, st)
        diff = report.estimates - report.truth
        half_norm = 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))
        hermitian_part = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2))))
        assert report.metrics["trace_distance"] == pytest.approx(half_norm, rel=1e-12)
        assert half_norm > hermitian_part + 0.05

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            t = trace_distance(random_density(7, rng), random_density(7, rng))
            assert -1e-12 <= t <= 1.0 + 1e-12

    @pytest.mark.parametrize("bad", NOT_A_DISTANCE_ARGUMENT.values(), ids=NOT_A_DISTANCE_ARGUMENT.keys())
    def test_trace_distance_rejects_empty_or_non_finite(self, bad):
        good = np.eye(2)  # checked before the shapes are compared
        with not_a_distance_argument("a", bad):
            trace_distance(bad, good)
        with not_a_distance_argument("b", bad):
            trace_distance(good, bad)

    @pytest.mark.parametrize("bad", NOT_A_DISTANCE_ARGUMENT.values(), ids=NOT_A_DISTANCE_ARGUMENT.keys())
    def test_hs_distance_rejects_empty_or_non_finite(self, bad):
        good = np.eye(2)  # checked before the shapes are compared
        with not_a_distance_argument("a", bad):
            hs_distance(bad, good)
        with not_a_distance_argument("b", bad):
            hs_distance(good, bad)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(3) / 3, np.eye(4) / 4)
        with pytest.raises(ValueError, match=r"^shape mismatch \(3, 3\) vs \(4, 4\)$"):
            hs_distance(np.eye(3) / 3, np.eye(4) / 4)


class TestDecoherenceMonitor:
    def test_pure_state_saturates_bound_at_zero(self):
        points = decoherence_monitor(coherent(0.8, 8, tail_tol=1e-5), [0.0], SETTINGS)
        assert points[0].rho20_abs == pytest.approx(points[0].bound, abs=1e-9)

    def test_dephasing_ratio(self):
        lams = [0.0, 0.3, 0.6]
        points = decoherence_monitor(coherent(0.8, 8, tail_tol=1e-5), lams, SETTINGS)
        for p in points:
            # populations are dephasing-invariant, so the bound tracks e^{-4 lam}
            assert p.rho20_abs == pytest.approx(p.bound * math.exp(-4 * p.lam), abs=1e-9)

    @pytest.mark.parametrize("phi", [
        thermal(0.5, 8, tail_tol=1e-3),
        dephase(coherent(0.8, 8, tail_tol=1e-5), 0.2),
        fock(2, 8),
    ], ids=["thermal", "dephased", "fock2"])
    def test_minor_inequality(self, phi):
        points = decoherence_monitor(phi, [0.0, 0.1, 0.5], SETTINGS)
        for p in points:
            assert p.rho20_abs <= p.bound + 1e-9

    @pytest.mark.parametrize("d,v_mode,reach", [(2, "ideal", 1), (2, "compiled", 0), (3, "compiled", 1)])
    def test_rejects_out_of_reach(self, d, v_mode, reach):
        message = f"monitor target m = 2 out of the {v_mode} shifter reach 0..{reach} at d={d}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decoherence_monitor(fock(0, d), [0.0], ProtocolSettings(d, v_mode=v_mode))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            decoherence_monitor(fock(0, 8), [0.3, 0.1], SETTINGS)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decoherence_monitor(fock(0, 8), [-0.1], SETTINGS)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            decoherence_monitor(fock(0, 8), [], SETTINGS)

    # a string would be read character by character, a bool as lambda = 1, and a lone
    # number is no list at all
    @pytest.mark.parametrize("lambdas,message", [
        ("12", "lambdas must be a sequence of numbers, got '12'"),
        (0.3, "lambdas must be a sequence of numbers, got 0.3"),
        (None, "lambdas must be a sequence of numbers, got None"),
        (np.float64(0.3), f"lambdas must be a sequence of numbers, got {np.float64(0.3)!r}"),
        (np.array(0.3), "lambdas must be a sequence of numbers, got array(0.3)"),
        ([True], "lambdas[0] must be a real number, got True"),
        ([0.0, np.True_], f"lambdas[1] must be a real number, got {np.True_!r}"),
        (["0.3"], "lambdas[0] must be a real number, got '0.3'"),
    ], ids=["str", "float", "none", "numpy-float", "0d-array", "bool", "numpy-bool", "str-element"])
    def test_rejects_non_number_lambdas(self, lambdas, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            decoherence_monitor(fock(0, 8), lambdas, SETTINGS)

    def test_numpy_lambdas_accepted(self):
        phi = coherent(0.8, D, tail_tol=1e-5)
        points = decoherence_monitor(phi, np.array([0.0, 0.3]), SETTINGS)
        assert points == decoherence_monitor(phi, [0.0, 0.3], SETTINGS)
        assert decoherence_monitor(phi, [np.int64(0)], SETTINGS) == points[:1]

    def test_bound_clips_negative_sampled_population(self):
        # at a few shots a sampled population can come out negative; it counts as 0 in the
        # bound sqrt(max(rho_00, 0) max(rho_22, 0)), not by its magnitude
        negative = 0
        for seed in range(20):
            st = ProtocolSettings(4, shots=4, seed=seed)
            r00, r22 = (measure_element(fock(0, 4), k, k, st).value.real for k in (0, 2))
            if min(r00, r22) < 0:
                negative += 1
                assert decoherence_monitor(fock(0, 4), [0.0], st)[0].bound == 0.0
        assert negative

    def test_sampled_points_share_random_numbers(self):
        # every lambda reuses the (seed, m, n) streams, so the unchanged populations repeat exactly
        st = ProtocolSettings(D, shots=2000, seed=11)
        phi = coherent(0.8, 8, tail_tol=1e-5)
        lams = [0.0, 0.4, 1.0]
        for m, n in ((0, 0), (2, 2)):
            values = [measure_element(dephase(phi, lam), m, n, st).value for lam in lams]
            assert values[0] == values[1] == values[2]
        points = decoherence_monitor(phi, lams, st)
        assert points[0].bound == points[1].bound == points[2].bound
        assert len({p.rho20_abs for p in points}) == 3


class TestOneCellEntry:
    """A run, a block or a monitor is one call of the engine's entry (protocol._measure),
    whose cells are one protocol._cell_images sweep, and the entry reads each cell's images
    once per input."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"entries": [], "sweeps": [], "images": [], "reads": []}
        sweep, entry = protocol._cell_images, protocol._measure

        def counted_sweep(cells, settings, columns):
            seen["sweeps"].append((list(cells), columns))
            for m, n, w in sweep(cells, settings, columns):
                seen["images"].append((m, n, w.copy()))
                yield m, n, w

        def counted_entry(states, cells, settings):
            seen["entries"].append((list(states), list(cells)))
            for m, n, estimates in entry(states, cells, settings):
                seen["reads"].append((m, n, estimates))
                yield m, n, estimates

        monkeypatch.setattr(protocol, "_cell_images", counted_sweep)
        monkeypatch.setattr(protocol, "_measure", counted_entry)
        return seen

    @staticmethod
    def read(image, gram) -> complex:
        """The exact readout 2 Tr_v(W_+ G W_-^dag) of a cell's images W against a Gram matrix G."""
        w = image.reshape(3, D * D, -1)
        return complex(2.0 * np.vdot(w[MINUS], w[PLUS] @ gram))

    def test_measure_element_is_one_cell_of_the_entry(self, calls):
        phi = coherent(0.8, D, tail_tol=1e-5)
        est = measure_element(phi, 2, 1, SETTINGS)
        assert calls["entries"] == [([phi], [(2, 1)])]
        [(cells, columns)] = calls["sweeps"]
        assert cells == [(2, 1)] and np.array_equal(columns, phi.amplitudes[:, None])
        [(_, _, image)] = calls["images"]
        assert calls["reads"] == [(2, 1, [est])]
        assert est.value == self.read(image, np.ones((1, 1)))

    @pytest.mark.parametrize("nmax", [0, 3])
    @pytest.mark.parametrize("symmetric", [False, True], ids=["full", "hermitian"])
    def test_reconstruct_measures_each_cell_once(self, calls, nmax, symmetric):
        phi = thermal(0.5, 8, tail_tol=1e-3)
        reconstruct(phi, nmax, SETTINGS, use_hermitian_symmetry=symmetric)
        size = nmax + 1
        expected = [(m, n) for m in range(size) for n in range(size) if not symmetric or n >= m]
        assert len(expected) == (size * (size + 1) // 2 if symmetric else size ** 2)
        # one call of the entry, one sweep over exactly the expected cells, on the input's basis columns
        assert calls["entries"] == [([phi], expected)]
        [(cells, columns)] = calls["sweeps"]
        assert cells == expected
        assert np.array_equal(columns, np.eye(8))
        assert [(m, n) for m, n, _ in calls["images"]] == expected
        # each image read out once, as it came, against the input's density matrix
        assert len(calls["reads"]) == len(expected)
        for (m, n, image), (rm, rn, estimates) in zip(calls["images"], calls["reads"]):
            assert (rm, rn) == (m, n)
            [est] = estimates
            assert est.value == self.read(image, phi.matrix)

    def test_monitor_measures_three_cells_per_lambda(self, calls):
        lams = [0.0, 0.3, 0.6, 1.0]
        phi = coherent(0.8, 8, tail_tol=1e-5)
        decoherence_monitor(phi, lams, SETTINGS)
        # one call of the entry on every point's dephased input
        [(states, _)] = calls["entries"]
        assert [state.matrix.tolist() for state in states] == [dephase(phi, lam).matrix.tolist()
                                                                for lam in lams]
        # one sweep builds the three cells' images once, on the d basis columns
        [(cells, columns)] = calls["sweeps"]
        assert sorted(cells) == [(0, 0), (2, 0), (2, 2)]
        assert np.array_equal(columns, np.eye(8))
        images = {(m, n): image for m, n, image in calls["images"]}
        assert len(images) == len(calls["images"]) == 3
        # every lambda reads the same image of each cell, once, against its own dephased matrix
        assert [(m, n) for m, n, _ in calls["reads"]] == list(images)
        for m, n, estimates in calls["reads"]:
            assert len(estimates) == len(lams)
            for est, lam in zip(estimates, lams):
                assert est.value == self.read(images[m, n], dephase(phi, lam).matrix)


class TestPulseActionCount:
    """The engine's work counted in pulse actions, which no machine or noise can move.

    U_00 is four actions and an ideal shifter none, since it rolls. A compiled
    walk over the targets 0..nmax takes s = nmax + (nmax + 1) // 2 actions, its
    steps and the odd targets' closing carriers: a block walks V- once and V+
    once per row, 4 + (nmax + 2) s in all.
    """

    @pytest.fixture
    def actions(self, monkeypatch):
        seen = []
        act = protocol.act_pulse

        def counted(spec, state):
            seen.append(spec)
            return act(spec, state)

        monkeypatch.setattr(protocol, "act_pulse", counted)
        return seen

    RUNS = {
        "block-5": lambda phi, st: reconstruct(phi, 5, st),
        "block-10": lambda phi, st: reconstruct(phi, 10, st),
        "monitor": lambda phi, st: decoherence_monitor(phi, [0.0, 0.5], st),
        "cell-4-3": lambda phi, st: measure_element(phi, 4, 3, st),
    }

    @pytest.mark.parametrize("v_mode,run,count", [
        ("ideal", "block-5", 4), ("ideal", "block-10", 4), ("ideal", "monitor", 4), ("ideal", "cell-4-3", 4),
        ("compiled", "block-5", 4 + 7 * 8), ("compiled", "block-10", 4 + 12 * 15), ("compiled", "monitor", 8),
        ("compiled", "cell-4-3", 12),
    ])
    def test_counts(self, actions, v_mode, run, count):
        phi = coherent(0.8, 12, tail_tol=1e-5)
        self.RUNS[run](phi, ProtocolSettings(12, v_mode=v_mode))
        assert len(actions) == count
        assert actions[:4] == u00_schedule()


def _own_image(columns, m, n, settings) -> np.ndarray:
    """The images W of cell (m, n) run on its own, built here: U_00 and both shifters on the columns."""
    d = settings.d
    w = np.zeros((3, d, d, columns.shape[1]), dtype=complex)
    w[MINUS, :, 0] = columns
    for spec in u00_schedule(settings.compat_rminus_final):
        act_pulse(spec, w)
    if settings.v_mode == "ideal":
        w[MINUS] = np.roll(w[MINUS], m, axis=1)
        w[PLUS] = np.roll(w[PLUS], n, axis=0)
    else:
        for spec in ladder_schedule(m, MINUS) + ladder_schedule(n, PLUS):
            act_pulse(spec, w)
    return w


def _per_cell(phi, m, n, settings) -> tuple[complex, float]:
    """Cell (m, n) run on its own, built here (_own_image), and read out."""
    d = settings.d
    columns, gram = ((phi.amplitudes[:, None], np.ones((1, 1))) if phi.is_pure
                     else (np.eye(d), phi.matrix))
    w = _own_image(columns, m, n, settings).reshape(3, d * d, -1)
    value = complex(2.0 * np.vdot(w[MINUS], w[PLUS] @ gram))
    if settings.shots is None:
        return value, 0.0
    populations = np.array([np.vdot(block, block @ gram).real for block in w])
    est = _sample_cell(value, populations, m, n, settings.shots, settings.seed)
    return est.value, est.stderr


# Every cell of a block or a monitor is, bit for bit, the run of that cell alone, so a
# sweep that shares work between cells must keep each cell's operations and their order.
@pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "sampled"])
@pytest.mark.parametrize("compat", [False, True], ids=["plain", "compat"])
@pytest.mark.parametrize("v_mode", ["ideal", "compiled"])
@pytest.mark.parametrize("d", [5, 8])
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_cells_are_bitwise_per_cell_runs(mixed, d, v_mode, compat, shots):
    settings = ProtocolSettings(d, v_mode=v_mode, shots=shots, seed=3, compat_rminus_final=compat)
    phi = coherent(0.7 - 0.4j, d, tail_tol=1e-3)
    phi = dephase(phi, 0.2) if mixed else phi
    nmax = shifter_reach(d, v_mode)
    cells = {(m, n): _per_cell(phi, m, n, settings) for m in range(nmax + 1) for n in range(nmax + 1)}
    for symmetric in (False, True):
        report = reconstruct(phi, nmax, settings, use_hermitian_symmetry=symmetric)
        for (m, n), (value, stderr) in cells.items():
            if symmetric and n < m:
                value, stderr = np.conj(cells[n, m][0]), cells[n, m][1]
            assert report.estimates[m, n] == value and report.stderrs[m, n] == stderr, (m, n)
    lams = [0.0, 0.5]
    for lam, point in zip(lams, decoherence_monitor(phi, lams, settings)):
        r20, r00, r22 = (_per_cell(dephase(phi, lam), m, n, settings)[0]
                         for m, n in ((2, 0), (0, 0), (2, 2)))
        assert point.rho20_abs == abs(r20)
        assert point.bound == float(np.sqrt(max(r00.real, 0.0) * max(r22.real, 0.0)))


# Any set of cells, unsorted, repeated, with gaps in m and n and one-cell rows, is one sweep:
# each distinct cell comes once, in ascending (m, n), with its own run's images bit for bit.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(3, 7), v_mode=st.sampled_from(["ideal", "compiled"]),
       compat=st.booleans(), mixed=st.booleans())
def test_any_cell_set_is_its_cells_own_runs(data, d, v_mode, compat, mixed):
    run = ProtocolSettings(d, v_mode=v_mode, compat_rminus_final=compat)
    target = st.integers(0, shifter_reach(d, v_mode))
    cells = data.draw(st.lists(st.tuples(target, target), min_size=1, max_size=12), label="cells")
    if mixed:
        columns = np.eye(d)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        columns = rng.normal(size=(d, 1)) + 1j * rng.normal(size=(d, 1))
        columns /= np.linalg.norm(columns)
    seen = []
    for m, n, w in protocol._cell_images(cells, run, columns):
        seen.append((m, n))
        assert np.array_equal(w, _own_image(columns, m, n, run)), (m, n)
    assert seen == sorted(set(cells))
