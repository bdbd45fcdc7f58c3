"""The coherence-measurement protocol.

A vibrational state phi of mode x, an empty mode z and the electronic ground
level |-> are prepared; a composed unitary entangles the two modes so that the
transverse pseudospin expectations of the {-, +} pair read out one matrix
element <m| rho_vibr |n> of the unknown vibrational density operator. Each
element is an independent protocol run: no other element is needed.

The composed unitary factors as (branch shifters) * (four-pulse entangler):

    U_mn = V+_n V-_m U_00

U_00 takes |phi>_x |0>_z |-> to (|phi>_x|0>_z|-> + |0>_x|phi>_z|+>)/sqrt(2);
V-_m then lifts the z mode of the |-> branch from |0> to |m>, and V+_n lifts
the x mode of the |+> branch from |0> to |n>, each acting as the identity on
the other branch.

Both modes keep the same Fock cutoff d, since U_00 maps the x-support onto z.
A run (measure_element, the one cell entry) applies the cell's pulse schedule
in closed form (pulses.act_pulse) to a (3, d, d, r) tensor of the input's own
columns (r = 1 for a pure input, d for a mixed one) and reads the element out
of its |-> and |+> blocks, with no operator on the composite space
(dimension N = 3 d^2). The identity checks at the end of this module (mode
swap, entangled target, compiled vs ideal shifters, pulse unitarity) run on
the same actions; the validate subcommand and the acceptance tests share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import ELECTRONIC_DIM, MINUS, PLUS, XI
from .pulses import PulseSpec, act_pulse, sideband_coupling
from .states import VibrationalState, check_int

HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0

_SQRT2 = math.sqrt(2.0)

# The transverse readout of the {-, +} pseudospin: per observable, the tag of its sampler
# stream and its +1 and -1 eigenvectors in the electronic basis (-, +, xi).
_OBSERVABLES = {
    "x": (0, np.array([1.0, 1.0, 0.0]) / _SQRT2, np.array([1.0, -1.0, 0.0]) / _SQRT2),
    "y": (1, np.array([1.0, -1.0j, 0.0]) / _SQRT2, np.array([1.0, 1.0j, 0.0]) / _SQRT2),
}

# The pi/2 vibrational rotation: on the bright branch it swaps the contents of modes x and z.
MODE_SWAP = PulseSpec("vrot", ("+", "xi"), None, HALF_PI)

# Largest probability mass the sampler may clip away as rounding.
CLIP_TOL = 1e-10


@dataclass(frozen=True)
class ProtocolSettings:
    """How a protocol run is evaluated.

    d is the Fock cutoff of each mode: both keep |0>..|d-1>. v_mode 'ideal'
    uses exact branch shifters (completed to permutations); 'compiled' builds
    them from carrier/sideband pi-pulse ladders. shots=None means exact
    expectation values; otherwise each transverse observable is sampled that
    many times. compat_rminus_final reproduces the historical four-pulse
    ordering whose final pulse addresses the {-, xi} pair; it fails the
    entangler identity and exists only for comparison.

    d, seed and a non-None shots must be integers (states.check_int), each
    stored as the Python int its check returns, and compat_rminus_final a
    bool; any other value raises ValueError naming its field, before the range
    checks. This is the one place d >= 2 is checked.
    """

    d: int
    v_mode: str = "ideal"
    shots: int | None = None
    seed: int = 0
    compat_rminus_final: bool = False

    def __post_init__(self):
        for name in ("d", "seed") if self.shots is None else ("d", "shots", "seed"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        if not isinstance(self.compat_rminus_final, bool):
            raise ValueError(f"compat_rminus_final must be a bool, got {self.compat_rminus_final!r}")
        if self.d < 2:
            raise ValueError(f"Fock cutoff must be >= 2, got d={self.d}")
        if self.v_mode not in ("ideal", "compiled"):
            raise ValueError(f"v_mode must be 'ideal' or 'compiled', got {self.v_mode!r}")
        if self.shots is not None and self.shots < 1:
            raise ValueError("shots must be >= 1 (or None for exact mode)")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class CoherenceEstimate:
    """One measured matrix element and its statistical error; the cell and the shots are the caller's.

    stderr is zero in exact mode; in sampled mode it combines the standard
    errors of the two transverse sample means.
    """

    value: complex
    stderr: float


def u00_schedule(compat_rminus_final: bool = False) -> list[PulseSpec]:
    """The four electronic/vibrational rotations of the entangler, in application order.

    The first two pulses split |-> into (|-> + |alpha>)/sqrt(2) with
    |alpha> = (|+> + |xi>)/sqrt(2) the bright state of the {+, xi} sigma_x;
    the vibrational rotation swaps the mode contents on the bright branch
    only; the final pulse restores |+> from |alpha> while leaving |->
    untouched, which forces it onto the {+, xi} pair with angle -pi/4. The
    compat variant instead repeats the opening {-, xi} pulse, leaves bright
    population on |xi>, and is kept only as a regression reference.
    """
    schedule = [
        PulseSpec("erot", ("-", "xi"), None, QUARTER_PI),
        PulseSpec("erot", ("+", "xi"), None, -QUARTER_PI),
        MODE_SWAP,
    ]
    if compat_rminus_final:
        schedule.append(PulseSpec("erot", ("-", "xi"), None, QUARTER_PI))
    else:
        schedule.append(PulseSpec("erot", ("+", "xi"), None, -QUARTER_PI))
    return schedule


def shifter_reach(cutoff: int, v_mode: str) -> int:
    """Largest target k of a branch shifter V+_k or V-_k on a mode with `cutoff` Fock levels.

    An ideal shifter reaches every retained level, k <= d-1; a compiled ladder
    needs k <= d-2 so that it stays clear of the truncation boundary.
    """
    return cutoff - 1 if v_mode == "ideal" else cutoff - 2


def check_reach(k: int, settings: ProtocolSettings, what: str) -> None:
    """Reject a shifter target k, named `what` in the message, outside 0..shifter_reach of the run.

    Every cell target and reconstruct's nmax enter here, so here a k that is
    not an integer (states.check_int) is rejected too.
    """
    check_int(k, what)
    reach = shifter_reach(settings.d, settings.v_mode)
    if not 0 <= k <= reach:
        raise ValueError(f"{what} = {k} out of the {settings.v_mode} shifter reach 0..{reach} "
                         f"at d={settings.d}")


def _ladder_schedule(k: int, levels: tuple[str, str], mode: str) -> list[PulseSpec]:
    """Alternating blue/red sideband pi-pulses climbing |0> -> |k> on one branch.

    Step j drives the doublet |j>, |j+1>, so its area is (pi/2)/sideband_coupling(j). The
    laser phases (pi/2 on the blue steps, 3*pi/2 on the red steps and the odd
    closing carrier) cancel the factor i that each resonant pi-pulse would
    otherwise contribute, leaving every step with coefficient exactly +1.
    """
    schedule = []
    for j in range(k):
        area = HALF_PI / sideband_coupling(j)
        if j % 2 == 0:
            schedule.append(PulseSpec("ajc", levels, mode, area, HALF_PI))
        else:
            schedule.append(PulseSpec("jc", levels, mode, area, 3.0 * HALF_PI))
    if k % 2 == 1:
        schedule.append(PulseSpec("carrier", levels, mode, HALF_PI, 3.0 * HALF_PI))
    return schedule


def v_plus_schedule(n: int) -> list[PulseSpec]:
    """Pulse list realizing V+_n on the {+, xi} pair and mode x."""
    return _ladder_schedule(n, ("+", "xi"), "x")


def v_minus_schedule(m: int) -> list[PulseSpec]:
    """Pulse list realizing V-_m on the {-, xi} pair and mode z."""
    return _ladder_schedule(m, ("-", "xi"), "z")


def reduced_probabilities(red: np.ndarray, observable: str) -> np.ndarray:
    """Outcome probabilities [p(+1), p(-1), p(0)] of one transverse pseudospin.

    red is the 3 x 3 reduced electronic state. The +-1 outcomes project onto
    the transverse eigenvectors of the {-, +} pair; the 0 outcome is the |xi>
    level. Rounding can put a probability a hair outside [0, 1]; it is
    clipped and the three renormalized, but clipping more than 1e-10 of
    probability mass in all means red is no state, and raises ValueError.
    """
    if observable not in _OBSERVABLES:
        raise ValueError(f"observable must be 'x' or 'y', got {observable!r}")
    _, s_plus, s_minus = _OBSERVABLES[observable]
    p = np.array([
        (s_plus.conj() @ red @ s_plus).real,
        (s_minus.conj() @ red @ s_minus).real,
        red[XI, XI].real,
    ])
    clipped = np.clip(p, 0.0, 1.0)
    lost = float(np.sum(np.abs(p - clipped)))
    if lost > CLIP_TOL:
        raise ValueError(f"transverse {observable} probabilities {p.tolist()} need {lost:.3e} "
                         f"of probability mass clipped (tolerance {CLIP_TOL:.0e})")
    return clipped / clipped.sum()


def _sample_reduced(red: np.ndarray, m: int, n: int, shots: int, seed: int) -> CoherenceEstimate:
    """Finite-statistics estimate of cell (m, n) from its 3 x 3 reduced electronic state red.

    Each transverse observable is measured `shots` times in its own eigenbasis
    (outcomes +1, -1, and 0 for the |xi> sector, see reduced_probabilities)
    with a generator seeded from (seed, m, n, observable tag), so estimates
    are reproducible bit-for-bit and independent of evaluation order. The
    stream does not depend on the state: two runs of the same cell on
    different inputs (such as the points of a decoherence monitor) share
    their random numbers, but share outcomes only where the probabilities
    agree to the last bit (numpy's multinomial draws n - B(n, 1-p) for p > 1/2,
    so p = 1/2 moved by one ulp mirrors its draw). stderr = sqrt(var_x + var_y) / sqrt(shots).
    """
    stats = {}
    for observable, (tag, _, _) in _OBSERVABLES.items():
        probs = reduced_probabilities(red, observable)
        rng = np.random.default_rng([int(seed), int(m), int(n), tag])
        c_plus, c_minus, _ = rng.multinomial(shots, probs)
        mean = (c_plus - c_minus) / shots
        second_moment = (c_plus + c_minus) / shots
        var = max(second_moment - mean * mean, 0.0)
        if shots > 1:
            var *= shots / (shots - 1)
        stats[observable] = (mean, var)
    mean_x, var_x = stats["x"]
    mean_y, var_y = stats["y"]
    value = complex(mean_x, -mean_y)
    stderr = math.sqrt((var_x + var_y) / shots)
    return CoherenceEstimate(value, stderr)


def _shift_ideal(w: np.ndarray, m: int, n: int) -> np.ndarray:
    """Ideal V+_n V-_m in place on a (3, dx, dz, r) tensor; return it.

    Moves the Fock index cyclically: z of the |-> sector by m, x of the |+>
    sector by n. On the protocol's states (z vacuum in the |-> branch, x
    vacuum in the |+> branch) this is the exact shift; the cycle is one
    permutation completing it to a unitary, and any completion gives the
    same observables.
    """
    w[MINUS] = np.roll(w[MINUS], m, axis=1)
    w[PLUS] = np.roll(w[PLUS], n, axis=0)
    return w


def _shift_compiled(w: np.ndarray, m: int, n: int) -> np.ndarray:
    """Compiled V+_n V-_m in place on a (3, dx, dz, r) tensor: the V-_m, then the V+_n ladder."""
    for spec in v_minus_schedule(m) + v_plus_schedule(n):
        act_pulse(spec, w)
    return w


def _slice_images(m: int, n: int, settings: ProtocolSettings, columns: np.ndarray) -> np.ndarray:
    """U_mn on mode-x inputs: a (3, d, d, r) tensor whose column j is U_mn |->|c_j>_x|0>_z.

    Runs the cell's entangler, then its shifters, on the complex (d, r) columns c_j.
    """
    d = settings.d
    check_reach(m, settings, "target m")
    check_reach(n, settings, "target n")
    w = np.zeros((ELECTRONIC_DIM, d, d, columns.shape[1]), dtype=complex)
    w[MINUS, :, 0] = columns
    for spec in u00_schedule(settings.compat_rminus_final):
        act_pulse(spec, w)
    return (_shift_ideal if settings.v_mode == "ideal" else _shift_compiled)(w, m, n)


def _slice_reduced(w: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """3 x 3 electronic state Tr_v(W_a G W_b^dag) from the (3, d^2, r) images W of C."""
    return np.einsum("avk,bvk->ab", w @ gram, w.conj())


def measure_element(phi: VibrationalState, m: int, n: int,
                    settings: ProtocolSettings) -> CoherenceEstimate:
    """One protocol run on the input phi: read out <m| rho_vibr |n>.

    phi was checked as a state, its truncation leakage included, when it was
    built; here only its dimension is checked against d. With rho_vibr =
    C G C^dag (a pure phi: its amplitude column and G = [[1]]; a mixed phi:
    the d basis columns and G = rho_vibr) the run needs only the images
    W = U_mn |->C|0>_z (_slice_images), with row blocks W_a = <a|W, and the
    transformed state's block <a|rho|b> is W_a G W_b^dag. Exact mode returns
    <sigma_x> - i <sigma_y> = 2 Tr_v(W_+ G W_-^dag), sampled mode samples from
    Tr_v(W_a G W_b^dag) (_sample_reduced). Each cell runs its full schedule.
    """
    d = settings.d
    if phi.dim != d:
        raise ValueError(f"vibrational state dim {phi.dim} != d {d}")
    columns, gram = ((phi.amplitudes[:, None], np.ones((1, 1))) if phi.is_pure
                     else (np.eye(d), phi.matrix))
    w = _slice_images(m, n, settings, columns).reshape(ELECTRONIC_DIM, d * d, -1)
    if settings.shots is None:
        value = 2.0 * np.vdot(w[MINUS], w[PLUS] @ gram)
        return CoherenceEstimate(complex(value), 0.0)
    return _sample_reduced(_slice_reduced(w, gram), m, n, settings.shots, settings.seed)


# ---------------------------------------------------------------------------
# Identity checks. Each runs the engine's own actions on the states it is given
# and returns the largest deviation from the identity it tests; the validate
# subcommand and the acceptance tests record them against their tolerances.
# States are the complex (3, dx, dz, r) tensors act_pulse takes, r states side
# by side.

def _max_column_norm(w: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(w.reshape(-1, w.shape[-1]), axis=0)))


def mode_swap_deviation(d: int, fock_numbers) -> float:
    """Largest |amplitude - 1| of the mode swap |n>_x|0>_z -> |0>_x|n>_z over the given n.

    The vibrational pulse at pi/2 acts as exp(i (pi/2) L_y) on the bright
    state |alpha> = (|+> + |xi>)/sqrt(2); each |alpha>|n>_x|0>_z must land on
    |alpha>|0>_x|n>_z with amplitude exactly +1.
    """
    ns = np.asarray(fock_numbers)
    cols = np.arange(len(ns))
    w = np.zeros((ELECTRONIC_DIM, d, d, len(ns)), dtype=complex)
    w[PLUS, ns, 0, cols] = w[XI, ns, 0, cols] = 1.0 / _SQRT2
    act_pulse(MODE_SWAP, w)
    amplitude = (w[PLUS, 0, ns, cols] + w[XI, 0, ns, cols]) / _SQRT2
    return float(np.max(np.abs(amplitude - 1.0)))


def entangled_target_deviation(settings: ProtocolSettings, m: int, n: int, amplitudes) -> float:
    """Largest norm of U_mn|phi,0,-> - (|phi,m,-> + |n,phi,+>)/sqrt(2) over the given inputs.

    amplitudes is a (d, r) matrix whose columns are the input states phi.
    """
    phi = np.asarray(amplitudes, dtype=complex).reshape(settings.d, -1)
    got = _slice_images(m, n, settings, phi)
    target = np.zeros_like(got)
    target[MINUS, :, m] = phi / _SQRT2
    target[PLUS, n, :] = phi / _SQRT2
    return _max_column_norm(got - target)


def shifter_deviation(k: int, states: np.ndarray) -> float:
    """Largest norm of compiled minus ideal V+_k and V-_k over a (3, dx, dz, r) tensor of states.

    Each shifter is compared on the part of every state the protocol feeds
    it: the shifted branch's vacuum slice (|+>|0>_x|.>_z for V+_k,
    |->|.>_x|0>_z for V-_k) and the whole spectator sector (|-> for V+_k,
    |+> for V-_k). The rest of each state is masked out.
    """
    dev = 0.0
    for branch, m, n in ((PLUS, 0, k), (MINUS, k, 0)):
        spectator = MINUS if branch == PLUS else PLUS
        w = np.zeros_like(states)
        w[spectator] = states[spectator]
        if branch == PLUS:
            w[PLUS, 0] = states[PLUS, 0]
        else:
            w[MINUS, :, 0] = states[MINUS, :, 0]
        dev = max(dev, _max_column_norm(_shift_compiled(w.copy(), m, n) - _shift_ideal(w, m, n)))
    return dev


def pulse_unitarity_defect(specs, states: np.ndarray) -> float:
    """Largest Gram defect max |(U P)^dag (U P) - P^dag P| of the pulses over the states P.

    P is a (3, dx, dz, r) tensor of r states. For the full basis (r = N) this
    is max |U^dag U - 1|; an orthonormal probe of fewer states checks that U
    keeps the probe orthonormal.
    """
    flat = states.reshape(-1, states.shape[-1])
    gram = flat.conj().T @ flat
    dev = 0.0
    for spec in dict.fromkeys(specs):
        image = act_pulse(spec, states.copy()).reshape(flat.shape)
        dev = max(dev, float(np.max(np.abs(image.conj().T @ image - gram))))
    return dev
