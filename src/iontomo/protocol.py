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
A run applies its cell's pulse schedule in closed form (pulses.act_pulse) to a
(3, d, d, r) tensor of the input's own columns (r = 1 for a pure input, d for
a mixed one) and reads the element out of its |-> and |+> blocks, with no
operator on the composite space (dimension N = 3 d^2). The engine's one
entry, _measure, turns states and cells into estimates; measure_element is
its one-cell case. Its cells are one sweep (_cell_images): U_00 runs once,
and one walker (_ladder) climbs the V- ladder down the rows and each row's
V+ ladder across it, closing each ladder's last target in place, so a row's
last cell and a one-cell run copy nothing. Each cell still runs its own
run's operations in its own run's order. The identity checks at the end of
this module (mode swap and its parity, entangled target, compiled vs ideal
shifters, pulse unitarity) run on the same actions: the entangled target is
one sweep over its cells, and the shifters one walk per branch. The validate
subcommand and the acceptance tests share them.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .hilbert import ELECTRONIC_DIM, MINUS, PLUS, XI
from .pulses import PulseSpec, act_pulse, sideband_coupling
from .states import VibrationalState, check_int

HALF_PI = math.pi / 2.0
QUARTER_PI = math.pi / 4.0

_SQRT2 = math.sqrt(2.0)

# U_00's electronic rotations, carriers at pi/2 with no mode: the {-, xi} pulse that opens it, and the
# {+, xi} pulse that turns |xi> into the bright state |alpha> and, last, |alpha> back into |+>.
SPLIT = PulseSpec("carrier", ("-", "xi"), None, QUARTER_PI, HALF_PI)
BRIGHT = PulseSpec("carrier", ("+", "xi"), None, -QUARTER_PI, HALF_PI)

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
    return [SPLIT, BRIGHT, MODE_SWAP, SPLIT if compat_rminus_final else BRIGHT]


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


# The two branch shifters, by the sector each lifts: V-_m moves mode z (axis 1 of a sector) of
# the |-> branch, V+_n mode x (axis 0) of the |+> branch. Per branch: that axis, and the level
# pair and mode its compiled ladder drives.
_SHIFTERS = {MINUS: (1, ("-", "xi"), "z"), PLUS: (0, ("+", "xi"), "x")}


def _ladder_step(j: int, branch: int) -> PulseSpec:
    """Sideband pi-pulse j of the branch's compiled ladder: it takes |j> to |j+1>.

    Step j drives the doublet |j>, |j+1>, so its area is (pi/2)/sideband_coupling(j). It is
    jc at laser phase 3*pi/2, raising the phonon number on the level it lands on: xi for
    even j, on the reversed pair (xi, level), and the branch's level for odd j.
    """
    _, levels, mode = _SHIFTERS[branch]
    levels = levels[::-1] if j % 2 == 0 else levels
    return PulseSpec("jc", levels, mode, HALF_PI / sideband_coupling(j), 3.0 * HALF_PI)


def _closing_carrier(branch: int) -> PulseSpec:
    """The carrier pi-pulse that ends the branch's ladder to an odd target, at laser phase 3*pi/2."""
    _, levels, mode = _SHIFTERS[branch]
    return PulseSpec("carrier", levels, mode, HALF_PI, 3.0 * HALF_PI)


def ladder_schedule(k: int, branch: int) -> list[PulseSpec]:
    """Pulse list of the branch's shifter |0> -> |k>: V+_k for branch PLUS, V-_k for MINUS.

    jc pi-pulses on the branch's level pair, its order alternating, and mode
    ({+, xi} and x for V+, {-, xi} and z for V-). The k steps (_ladder_step)
    leave an odd k on the other level of the pair, and the closing carrier
    (_closing_carrier) brings it back. Every pulse runs at laser phase 3*pi/2,
    whose factor, exactly -i (pulses reads the quarter turns exactly), cancels
    the factor i of each resonant pi-pulse, so every step's coefficient is
    exactly +1: V+_1 takes |0> to |1> with coefficient 1. Only the pi-pulse's
    cosine, 6.1e-17 for V+_1, is left on the level it came from, and a real
    input stays real.
    """
    closing = [_closing_carrier(branch)] if k % 2 == 1 else []
    return [_ladder_step(j, branch) for j in range(k)] + closing


def transverse_probabilities(value: complex, populations: np.ndarray, observable: str) -> np.ndarray:
    """Outcome probabilities [p(+1), p(-1), p(0)] of one transverse pseudospin of a cell.

    value is the cell's element <sigma_x> - i <sigma_y>, and populations its
    levels' (P_-, P_+, P_xi). The +-1 outcomes read the {-, +} pair,
    p(+-1) = (P_- + P_+ +- <sigma>) / 2 with <sigma_x> = Re value and
    <sigma_y> = -Im value; the 0 outcome is the |xi> level, p(0) = P_xi.
    Rounding can put a probability a hair outside [0, 1]; it is clipped and
    the three renormalized, but clipping more than 1e-10 of probability mass
    in all means the numbers are no state's, and raises ValueError.
    """
    if observable not in ("x", "y"):
        raise ValueError(f"observable must be 'x' or 'y', got {observable!r}")
    mean = value.real if observable == "x" else -value.imag
    pair = populations[MINUS] + populations[PLUS]
    p = np.array([(pair + mean) / 2.0, (pair - mean) / 2.0, populations[XI]])
    clipped = np.clip(p, 0.0, 1.0)
    lost = float(np.sum(np.abs(p - clipped)))
    if lost > CLIP_TOL:
        raise ValueError(f"transverse {observable} probabilities {p.tolist()} need {lost:.3e} "
                         f"of probability mass clipped (tolerance {CLIP_TOL:.0e})")
    return clipped / clipped.sum()


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """An exact draw of B(n, p), the count of n uniforms below p, in O(log n) steps.

    While n > 16 it splits the n uniforms at their order statistic a = 1 + n // 2,
    drawn as x = Beta(a, n + 1 - a): if x >= p, the count lies among the a - 1
    uniforms below x, uniform on [0, x); otherwise it holds those a and the count
    among the n - a above x, uniform on (x, 1]. The last n <= 16 are Bernoulli
    draws. p >= 1 gives n and p <= 0 gives 0 without a draw.
    """
    count = 0
    while n > 16 and 0.0 < p < 1.0:
        a = 1 + n // 2
        x = rng.betavariate(a, n + 1 - a)
        if x >= p:
            n, p = a - 1, p / x
        else:
            count, n, p = count + a, n - a, (p - x) / (1.0 - x)
    if p >= 1.0:
        return count + n
    if p <= 0.0:
        return count
    return count + sum(rng.random() < p for _ in range(n))


def _sample_cell(value: complex, populations: np.ndarray, m: int, n: int, shots: int,
                 seed: int) -> CoherenceEstimate:
    """Finite-statistics estimate of cell (m, n) from its element value and level populations.

    Each transverse observable is measured `shots` times in its own eigenbasis
    (outcomes +1, -1, and 0 for the |xi> level, see transverse_probabilities)
    with the standard library's generator seeded from the string
    f"{seed} {m} {n} {tag}", tag 0 for x and 1 for y, so estimates are
    reproducible bit-for-bit and independent of evaluation order. The counts
    are two exact binomial draws (_binomial) from that stream: c(+1) of
    B(shots, p(+1)), then c(-1) of B(shots - c(+1), p(-1) / (1 - p(+1))).
    The draw reads the probabilities on a grid of 2^-32: p(+1) and
    p(+1) + p(-1) are rounded to it, so the three rounded values are
    nonnegative and sum to 1 exactly, and each moves by at most 2^-32 (below
    the statistical error up to ~1e16 shots). The stream does not depend on
    the state: two runs of the same cell on different inputs (such as the
    points of a decoherence monitor) share their random numbers, and the grid
    makes them share their outcomes wherever the probabilities agree to 2^-32,
    so rounding noise in the readout moves no draw. A probability within
    rounding of a grid midpoint can still move to the next grid point, so
    rounding noise of one ulp flips a draw with a chance of about 1e-6.
    stderr = sqrt(var_x + var_y) / sqrt(shots).
    """
    stats = []
    for tag, observable in enumerate(("x", "y")):
        p_plus, p_minus, _ = transverse_probabilities(value, populations, observable).tolist()
        plus = round(p_plus * 2.0 ** 32) / 2.0 ** 32
        both = round((p_plus + p_minus) * 2.0 ** 32) / 2.0 ** 32
        rng = random.Random(f"{seed} {m} {n} {tag}")
        c_plus = _binomial(rng, shots, plus)
        c_minus = _binomial(rng, shots - c_plus, (both - plus) / (1.0 - plus)) if plus < 1.0 else 0
        mean = (c_plus - c_minus) / shots
        second_moment = (c_plus + c_minus) / shots
        var = max(second_moment - mean * mean, 0.0)
        if shots > 1:
            var *= shots / (shots - 1)
        stats.append((mean, var))
    (mean_x, var_x), (mean_y, var_y) = stats
    stderr = math.sqrt((var_x + var_y) / shots)
    return CoherenceEstimate(complex(mean_x, -mean_y), stderr)


def _ladder(w: np.ndarray, branch: int, targets: list[int],
            v_mode: str) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (k, the branch's shifter to k applied to w) over ascending distinct targets k.

    The ideal shifter rolls its sector's Fock index: the exact shift on the
    protocol's states (z vacuum in the |-> branch, x vacuum in the |+>
    branch), completed to a unitary by the cycle. Without compat any
    completion gives the same observables, since the wrapped levels are
    empty. Under compat_rminus_final the completion matters: the |-> branch
    also holds |0>_x|phi>_z, and the roll wraps it around the cutoff into
    column 0 of the read block. The compiled shifter runs ladder steps
    0..k-1, and an odd target takes its closing carrier. The ladder to k+1 is the ladder to k
    plus one step, so w climbs once, in place. Each target but the last is
    closed in one reused copy of w, the next target's copy too, so use it
    before drawing the next; the last is closed in w itself, so one target
    copies nothing.
    """
    copy = np.empty_like(w) if len(targets) > 1 else None
    done = 0
    for k in targets:
        if v_mode == "compiled":
            for j in range(done, k):
                act_pulse(_ladder_step(j, branch), w)
        elif k != done:
            w[branch] = np.roll(w[branch], k - done, axis=_SHIFTERS[branch][0])
        done = k
        out = w
        if k != targets[-1]:
            np.copyto(copy, w)
            out = copy
        if v_mode == "compiled" and k % 2 == 1:
            act_pulse(_closing_carrier(branch), out)
        yield k, out


def _cell_images(cells: list[tuple[int, int]], settings: ProtocolSettings,
                 columns: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """Stream (m, n, W) over a set of cells, W = U_mn |->C|0>_z a (3, d, d, r) tensor.

    C is the complex (d, r) matrix of input columns. Every U_mn = V+_n V-_m U_00
    opens with U_00, so U_00 runs once; its image climbs the V- ladder down
    the rows (_ladder), and each row's image climbs the V+ ladder across the
    row. Each ladder closes every target but its last in one reused copy and
    the last in place, so a row's last cell and a one-cell sweep copy
    nothing. Each cell runs its own run's operations in their order, so W is
    bit for bit its own run's. The cells come once each, in ascending (m, n).

    Live at once, however many cells: U_00's image, a row's copy, a cell's
    copy and a pulse's or the readout's temporaries, four to five
    (3, d, d, r) tensors. W is the next cell's buffer too: read it out before
    drawing the next cell.
    """
    for m, n in cells:
        check_reach(m, settings, "target m")
        check_reach(n, settings, "target n")
    ns: dict[int, list[int]] = {}
    for m, n in sorted(set(cells)):
        ns.setdefault(m, []).append(n)
    w = np.zeros((ELECTRONIC_DIM, settings.d, settings.d, columns.shape[1]), dtype=complex)
    w[MINUS, :, 0] = columns
    for spec in u00_schedule(settings.compat_rminus_final):
        act_pulse(spec, w)
    for m, row in _ladder(w, MINUS, list(ns), settings.v_mode):
        for n, cell in _ladder(row, PLUS, ns[m], settings.v_mode):
            yield m, n, cell


def _measure(states: list[VibrationalState], cells: list[tuple[int, int]],
             settings: ProtocolSettings) -> Iterator[tuple[int, int, list[CoherenceEstimate]]]:
    """Stream (m, n, [the estimate of cell (m, n) on each state]) over a set of cells, in one sweep.

    The engine's one entry. A run reads a state through columns C and a Gram
    matrix G, rho_vibr = C G C^dag: a pure state's amplitude column with
    G = [[1]], or a mixed one's d basis columns with G = rho_vibr. Only the
    states' size is checked here. The sweep (_cell_images) runs on the first
    state's columns, so several states must all be mixed, as a monitor's
    dephased inputs are. Each image W is read against every G before the next
    cell is drawn, since W is that cell's buffer too. Both modes read the
    paper's scalar product of the two branches' vibrational cofactors, the
    element <sigma_x> - i <sigma_y> = 2 Tr_v(W_+ G W_-^dag). Exact mode returns
    it; sampled mode adds the level populations Tr_v(W_a G W_a^dag), P_+ from the
    element's own W_+ G, and draws shot noise on them (_sample_cell) from the
    cell's own streams.
    """
    for phi in states:
        if phi.dim != settings.d:
            raise ValueError(f"vibrational state dim {phi.dim} != d {settings.d}")
    grams = [np.ones((1, 1)) if phi.is_pure else phi.matrix for phi in states]
    columns = states[0].amplitudes[:, None] if states[0].is_pure else np.eye(settings.d)
    for m, n, w in _cell_images(cells, settings, columns):
        w = w.reshape(ELECTRONIC_DIM, settings.d ** 2, -1)
        estimates = []
        for gram in grams:
            plus_gram = w[PLUS] @ gram
            value = complex(2.0 * np.vdot(w[MINUS], plus_gram))
            if settings.shots is None:
                estimates.append(CoherenceEstimate(value, 0.0))
            else:
                populations = np.array([np.vdot(w[a], plus_gram if a == PLUS else w[a] @ gram).real
                                        for a in range(ELECTRONIC_DIM)])
                estimates.append(_sample_cell(value, populations, m, n, settings.shots, settings.seed))
        yield m, n, estimates


def measure_element(phi: VibrationalState, m: int, n: int,
                    settings: ProtocolSettings) -> CoherenceEstimate:
    """One protocol run on the input phi: read out <m| rho_vibr |n>.

    The one-cell, one-state case of the engine's entry (_measure).
    """
    [(_, _, [estimate])] = _measure([phi], [(m, n)], settings)
    return estimate


# ---------------------------------------------------------------------------
# Identity checks. Each runs the engine's own actions on the states it is given
# and returns the largest deviation from the identity it tests; the validate
# subcommand and the acceptance tests record them against their tolerances.
# States are the complex (3, dx, dz, r) tensors act_pulse takes, r states side
# by side.

def _max_column_norm(w: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(w.reshape(-1, w.shape[-1]), axis=0)))


def mode_swap_deviation(d: int) -> float:
    """Largest |amplitude - 1| of the mode swap |n>_x|0>_z -> |0>_x|n>_z over every n < d.

    The swap acts as exp(i (pi/2) L_y) on the bright state |alpha> = (|+> + |xi>)/sqrt(2),
    so each |alpha>|n>_x|0>_z must land on |alpha>|0>_x|n>_z with amplitude exactly +1.
    """
    ns = np.arange(d)
    w = np.zeros((ELECTRONIC_DIM, d, d, d), dtype=complex)
    w[PLUS, ns, 0, ns] = w[XI, ns, 0, ns] = 1.0 / _SQRT2
    act_pulse(MODE_SWAP, w)
    amplitude = (w[PLUS, 0, ns, ns] + w[XI, 0, ns, ns]) / _SQRT2
    return float(np.max(np.abs(amplitude - 1.0)))


def mode_swap_parity_deviation(states: np.ndarray) -> float:
    """Largest |two mode swaps - the phonon parity| over a (3, d, d, r) tensor of states.

    exp(i pi L_y) is (-1)^(nx+nz) on |nx, nz>, so two swaps are that parity on {+, xi}
    and the identity on |->: the swap is read at every Fock level of the states.
    """
    twice = act_pulse(MODE_SWAP, act_pulse(MODE_SWAP, states.copy()))
    n = np.arange(states.shape[1])
    twice[[PLUS, XI]] *= ((-1.0) ** (n[:, None] + n))[:, :, None]
    return float(np.max(np.abs(twice - states)))


def entangled_target_deviation(settings: ProtocolSettings, cells: list[tuple[int, int]], amplitudes) -> float:
    """Largest norm of U_mn|phi,0,-> - (|phi,m,-> + |n,phi,+>)/sqrt(2) over the cells (m, n) and inputs.

    amplitudes is a (d, r) matrix whose columns are the input states phi; the
    cells run in one sweep (_cell_images). A cell's deviation e on phi bounds
    its readout's error on phi by 2 e + e^2.
    """
    phi = np.asarray(amplitudes, dtype=complex).reshape(settings.d, -1)
    dev = 0.0
    for m, n, w in _cell_images(cells, settings, phi):
        w[MINUS, :, m] -= phi / _SQRT2
        w[PLUS, n, :] -= phi / _SQRT2
        dev = max(dev, _max_column_norm(w))
    return dev


def shifter_deviation(targets: list[int], states: np.ndarray) -> float:
    """Largest norm of compiled minus ideal V+_k and V-_k over the targets k and a tensor of states.

    targets are ascending and distinct; states is a (3, dx, dz, r) tensor.

    Each shifter is compared on the part of every state the protocol feeds
    it: the shifted branch's vacuum slice (|+>|0>_x|.>_z for V+_k,
    |->|.>_x|0>_z for V-_k) and the whole spectator sector (|-> for V+_k,
    |+> for V-_k). The rest of each state is masked out. Per branch, one
    compiled and one ideal walk of the sweep's own walker (_ladder) climb
    over all the targets side by side; each target's pair of images is
    bit for bit that of a walk to it alone.
    """
    dev = 0.0
    for branch, spectator in ((PLUS, MINUS), (MINUS, PLUS)):
        w = np.zeros_like(states)
        w[spectator] = states[spectator]
        if branch == PLUS:
            w[PLUS, 0] = states[PLUS, 0]
        else:
            w[MINUS, :, 0] = states[MINUS, :, 0]
        for (_, compiled), (_, ideal) in zip(_ladder(w.copy(), branch, targets, "compiled"),
                                             _ladder(w, branch, targets, "ideal")):
            dev = max(dev, _max_column_norm(compiled - ideal))
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
