"""Tests for the primitive pulses: their specs and their closed-form actions."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from iontomo.cli import stable_json
from iontomo.hilbert import MINUS, PLUS, XI
from iontomo.protocol import pulse_unitarity_defect
from iontomo.pulses import PULSE_KINDS, PulseSpec, act_pulse
from iontomo.states import coherent
from util import act, full_action

DIMS = (4, 4)
NOT_LEVELS = "levels must be a pair of level names ('-', '+', 'xi'), got "
# The pulse actions take any (3, dx, dz, r) tensor; the unitarity checks run at unequal cutoffs.
UNEQUAL = (3, 4)


class TestPulseSpec:
    def test_roundtrip_record(self):
        # the stable_json record of a spec carries every field the constructor needs to rebuild it
        spec = PulseSpec("ajc", ("+", "xi"), "x", 0.7, 1.2)
        record = json.loads(stable_json(spec))
        assert set(record) == {f.name for f in dataclasses.fields(PulseSpec)}
        # JSON has no tuple, and a spec's levels are one: the reader turns the list back
        assert PulseSpec(**{**record, "levels": tuple(record["levels"])}) == spec

    def test_mode_required_for_sidebands(self):
        with pytest.raises(ValueError):
            PulseSpec("jc", ("+", "xi"), None, 0.5)

    def test_erot_levels_checked(self):
        with pytest.raises(ValueError):
            PulseSpec("erot", ("-", "+"), None, 0.5)

    # erot and vrot name no mode and read no laser phase, and vrot has one level pair:
    # a spec that gives them anything else is rejected, never rewritten.
    @pytest.mark.parametrize("kind,levels,mode,phase,message", [
        ("vrot", ("+", "xi"), "x", 0.0, "vrot pulse takes mode None and phase 0, got mode 'x' and phase 0.0"),
        ("vrot", ("-", "xi"), None, 0.0, "vrot addresses the level pair ('+', 'xi')"),
        ("erot", ("-", "xi"), "z", 0.0, "erot pulse takes mode None and phase 0, got mode 'z' and phase 0.0"),
        ("erot", ("+", "xi"), None, 0.4, "erot pulse takes mode None and phase 0, got mode None and phase 0.4"),
        ("vrot", ("+", "xi"), None, 0.4, "vrot pulse takes mode None and phase 0, got mode None and phase 0.4"),
    ], ids=["vrot-mode", "vrot-minus-pair", "erot-mode", "erot-phase", "vrot-phase"])
    def test_rejects_what_the_kind_does_not_take(self, kind, levels, mode, phase, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PulseSpec(kind, levels, mode, 0.5, phase)

    def test_phase_range(self):
        with pytest.raises(ValueError):
            PulseSpec("carrier", ("+", "xi"), "x", 0.5, phase=7.0)

    def test_angle_finite(self):
        with pytest.raises(ValueError):
            PulseSpec("carrier", ("+", "xi"), "x", math.inf)

    @pytest.mark.parametrize("kind,levels,message", [
        ("rsb", ("+", "xi"), "unknown pulse kind 'rsb'"),
        ("carrier", ("+", "zeta"), f"{NOT_LEVELS}('+', 'zeta')"),
        ("carrier", (3, "xi"), f"{NOT_LEVELS}(3, 'xi')"),
        ("carrier", ("xi", 2), f"{NOT_LEVELS}('xi', 2)"),
        ("carrier", ("xi", "xi"), "pulse level pair must be distinct"),
        ("carrier", (1.7, "xi"), f"{NOT_LEVELS}(1.7, 'xi')"),
        ("carrier", (True, "xi"), f"{NOT_LEVELS}(True, 'xi')"),
    ], ids=["unknown-kind", "unknown-level-name", "level-index-3", "equal-pair", "equal-names",
            "level-float", "level-bool"])
    def test_rejects_bad_kind_or_levels(self, kind, levels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PulseSpec(kind, levels, "x", 0.5)

    # A level is a name, never an index, and levels a tuple of two names: every other
    # form gets the one message.
    @pytest.mark.parametrize("levels", [
        None, ("-", "xi", "+"), ("xi",), "-x", 1, np.int64(1), True, 1.5, ["+", "xi"],
        (None, "xi"), (True, "xi"), (np.True_, "xi"), (1.5, "xi"), (np.int64(1), "xi"),
        (np.int32(1), "xi"), (1, 2),
    ], ids=["none", "triple", "single", "string", "int", "np-int64", "bool", "float", "list",
            "pair-none", "pair-bool", "pair-np-bool", "pair-float", "pair-np-int64", "pair-np-int32",
            "pair-ints"])
    def test_levels_must_be_a_pair(self, levels):
        message = f"{NOT_LEVELS}{levels!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PulseSpec("erot", levels, None, 0.5)

    @pytest.mark.parametrize("angle,phase,message", [
        (True, 0.0, "pulse angle must be a real number, got True"),
        (0.5, True, "pulse phase must be a real number, got True"),
    ], ids=["angle", "phase"])
    def test_rejects_bool_angle_or_phase(self, angle, phase, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PulseSpec("carrier", ("+", "xi"), "x", angle, phase)

    @pytest.mark.parametrize("kind", ["carrier", "jc", "ajc"])
    def test_numpy_numbers_act_as_the_equal_floats(self, kind):
        # a float32 area is stored as the Python float it equals, so the spec acts bit for
        # bit as the spec built from that float does
        numpy_spec = PulseSpec(kind, ("+", "xi"), "x", np.float32(0.3), np.float32(1.0))
        spec = PulseSpec(kind, ("+", "xi"), "x", float(np.float32(0.3)), 1.0)
        assert numpy_spec == spec
        assert type(numpy_spec.angle) is float and type(numpy_spec.phase) is float
        rng = np.random.default_rng(5)
        state = rng.normal(size=(3, *DIMS, 2)) + 1j * rng.normal(size=(3, *DIMS, 2))
        assert np.array_equal(act_pulse(numpy_spec, state.copy()), act_pulse(spec, state.copy()))

    @pytest.mark.parametrize("kind", ["carrier", "jc", "ajc"])
    def test_coupled_pair_contains_xi(self, kind):
        with pytest.raises(ValueError):
            PulseSpec(kind, ("-", "+"), "x", 1.0)
        assert PulseSpec(kind, ("xi", "-"), "x", 1.0).levels == ("xi", "-")


def _erot(level, theta):
    return PulseSpec("erot", (level, "xi"), None, theta)


class TestElectronicRotation:
    def test_splits_ground_level(self):
        out = act(_erot("-", math.pi / 4), oracle.basis(DIMS, MINUS, 0, 0), DIMS)
        expected = (oracle.basis(DIMS, MINUS, 0, 0)
                    + oracle.basis(DIMS, XI, 0, 0)) / math.sqrt(2)
        assert np.linalg.norm(out - expected) < 1e-12

    @pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.9])
    def test_unaddressed_level_untouched(self, theta):
        src = oracle.basis(DIMS, MINUS, 1, 2)
        assert np.linalg.norm(act(_erot("+", theta), src, DIMS) - src) < 1e-13

    def test_inverse(self):
        u = full_action(_erot("-", math.pi / 4), DIMS)
        v = full_action(_erot("-", -math.pi / 4), DIMS)
        assert np.max(np.abs(u @ v - np.eye(oracle.size(DIMS)))) < 1e-12


def _vrot(theta):
    return PulseSpec("vrot", ("+", "xi"), None, theta)


class TestVibrationalRotation:
    def test_swaps_bright_branch(self):
        # |phi>_x|0>_z|alpha> -> |0>_x|phi>_z|alpha> with |alpha> = (|+> + |xi>)/sqrt(2)
        dims = (8, 8)
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
        assert np.linalg.norm(act(_vrot(1.3), src, DIMS) - src) < 1e-13

    def test_conserves_total_phonon_number(self):
        n_tot = np.kron(np.eye(3), np.kron(np.diag(np.arange(4.0)), np.eye(4))) \
            + np.kron(np.eye(3), np.kron(np.eye(4), np.diag(np.arange(4.0))))
        src = oracle.basis(DIMS, PLUS, 2, 1)
        out = act(_vrot(0.9), src, DIMS)
        before = np.vdot(src, n_tot @ src)
        after = np.vdot(out, n_tot @ out)
        assert abs(before - after) < 1e-12


class TestCompilePulse:
    def test_carrier_pi_pulse_transfers_population(self):
        spec = PulseSpec("carrier", ("+", "xi"), "x", math.pi / 2, 0.0)
        out = act(spec, oracle.basis(DIMS, PLUS, 1, 1), DIMS)
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
        closed = np.kron(r3, np.eye(DIMS[0] * DIMS[1]))
        assert np.max(np.abs(oracle.pulse(_erot("-", theta), DIMS) - closed)) <= 1e-14

    def test_zero_angle_jc_is_identity(self):
        assert np.allclose(full_action(PulseSpec("jc", ("+", "xi"), "x", 0.0, 0.3), DIMS),
                           np.eye(oracle.size(DIMS)), atol=1e-14)

    @pytest.mark.parametrize("spec", [
        PulseSpec("carrier", ("+", "xi"), "x", math.pi / 2, 4.71238898038469),
        PulseSpec("jc", ("-", "xi"), "z", 1.11072073453959, 4.71238898038469),
        PulseSpec("ajc", ("+", "xi"), "x", math.pi / 2, math.pi / 2),
        PulseSpec("erot", ("+", "xi"), None, -math.pi / 4),
        PulseSpec("vrot", ("+", "xi"), None, math.pi / 2),
    ], ids=["carrier", "jc", "ajc", "erot", "vrot"])
    def test_all_compiled_pulses_unitary(self, spec):
        basis = np.eye(oracle.size(DIMS), dtype=complex).reshape(3, *DIMS, -1)
        assert pulse_unitarity_defect([spec], basis) <= 1e-10

    @pytest.mark.parametrize("spec,excluded", [
        (PulseSpec("carrier", ("+", "xi"), "x", 0.7, 1.0), MINUS),
        (PulseSpec("jc", ("+", "xi"), "x", 0.7, 1.0), MINUS),
        (PulseSpec("ajc", ("-", "xi"), "z", 0.7, 1.0), PLUS),
        (PulseSpec("erot", ("-", "xi"), None, 0.7), PLUS),
        (PulseSpec("vrot", ("+", "xi"), None, 0.7), MINUS),
    ], ids=["carrier", "jc", "ajc", "erot", "vrot"])
    def test_sector_confinement(self, spec, excluded):
        # a pulse whose levels exclude a sector commutes with that sector's projector
        u = full_action(spec, DIMS)
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
        dims = (6, 6)
        rng = np.random.default_rng(7)
        state = rng.normal(size=(3, 6, 6, 5)) + 1j * rng.normal(size=(3, 6, 6, 5))
        expected = oracle.pulse(spec, dims) @ state.reshape(oracle.size(dims), 5)
        got = act_pulse(spec, state.copy())
        assert np.max(np.abs(got.reshape(oracle.size(dims), 5) - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", ["vrot", "jc"])
    def test_unequal_cutoffs(self, kind):
        dims = (4, 6)
        spec = (PulseSpec(kind, ("+", "xi"), None, 1.3) if kind == "vrot"
                else PulseSpec(kind, ("+", "xi"), "z", 1.3, 0.4))
        rng = np.random.default_rng(5)
        state = rng.normal(size=(3, 4, 6, 3)) + 1j * rng.normal(size=(3, 4, 6, 3))
        expected = oracle.pulse(spec, dims) @ state.reshape(oracle.size(dims), 3)
        got = act_pulse(spec, state.copy())
        assert np.max(np.abs(got.reshape(oracle.size(dims), 3) - expected)) <= 1e-12

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


def _every_kind(angle):
    """One pulse of each kind at the given area, with a generic laser phase."""
    return [PulseSpec("erot", ("-", "xi"), None, angle),
            PulseSpec("vrot", ("+", "xi"), None, angle),
            PulseSpec("carrier", ("+", "xi"), "x", angle, 0.4),
            PulseSpec("jc", ("xi", "-"), "z", angle, 1.3),
            PulseSpec("ajc", ("+", "xi"), "x", angle, 5.1)]


def _random_columns(rng, r):
    """A random (3, 3, 4, r) tensor of r unnormalized states on UNEQUAL."""
    shape = (3, *UNEQUAL, r)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


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
        cols = _random_columns(rng, oracle.size(UNEQUAL))
        cols /= np.linalg.norm(cols)
        for spec in _every_kind(0.6):
            out = act_pulse(spec, cols.copy()).reshape(oracle.size(UNEQUAL), -1)
            assert abs(np.trace(out @ out.conj().T) - 1) <= 1e-10

    def test_purity_preserved(self):
        rng = np.random.default_rng(13)
        cols = _random_columns(rng, 5)
        cols /= np.linalg.norm(cols)
        flat = cols.reshape(oracle.size(UNEQUAL), -1)
        before = np.trace(np.linalg.matrix_power(flat @ flat.conj().T, 2)).real
        for spec in _every_kind(1.3):
            out = act_pulse(spec, cols.copy()).reshape(oracle.size(UNEQUAL), -1)
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


@st.composite
def _pulses(draw):
    """Any pulse: every kind, level pair (both orders), mode, angle and laser phase."""
    kind = draw(st.sampled_from(PULSE_KINDS))
    level = draw(st.sampled_from(["-", "+"]))
    angle = draw(st.floats(-4.0, 4.0))
    if kind in ("erot", "vrot"):
        return PulseSpec(kind, (level, "xi") if kind == "erot" else ("+", "xi"), None, angle)
    levels = draw(st.sampled_from([(level, "xi"), ("xi", level)]))
    phase = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
    return PulseSpec(kind, levels, draw(st.sampled_from(["x", "z"])), angle, phase)


@st.composite
def _unequal_cutoffs(draw):
    dx = draw(st.integers(2, 5))
    return dx, draw(st.integers(2, 5).filter(lambda dz: dz != dx))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(specs=st.lists(_pulses(), min_size=1, max_size=8), dims=_unequal_cutoffs(),
       r=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_random_schedule_matches_oracle(specs, dims, r, seed):
    # the pulses applied in place one after another act as the oracle's product of dense unitaries
    rng = np.random.default_rng(seed)
    state = rng.normal(size=(3, *dims, r)) + 1j * rng.normal(size=(3, *dims, r))
    expected = oracle.schedule(specs, dims) @ state.reshape(oracle.size(dims), r)
    got = state.copy()
    for spec in specs:
        act_pulse(spec, got)
    assert np.max(np.abs(got.reshape(oracle.size(dims), r) - expected)) <= 1e-12
