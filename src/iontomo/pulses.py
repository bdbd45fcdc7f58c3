"""Primitive laser pulses and their closed-form actions on states.

Three pulse kinds act on an electronic level pair that contains xi:

    carrier      e^{i phase} |l><j|          + h.c.     (no phonon change)
    jc           e^{i phase} a-dag |l><j|    + h.c.     (phonon +1 on l<-j)
    vrot         exp(i (pi/2) L_y sigma_x^{+xi})           (the mode swap)

jc drives mode x or z in the Lamb-Dicke regime; the anti-JC e^{i phase} a |l><j|
+ h.c. is jc on (j, l) at laser phase 2 pi - phase. The electronic rotations
exp(i theta sigma_y) on {l, xi} are carriers at phase pi/2 with mode None. With
L_y = i (a-dag_x a_z - a-dag_z a_x), the swap maps |n>_x|0>_z on the bright state
(|+> + |xi>)/sqrt(2) to |0>_x|n>_z with coefficient +1 for every n below the
cutoff (protocol.mode_swap_deviation: 2.2e-16 at d = 10, 40 and 100, the
rounding of the check's own 1/sqrt(2)). Pulse areas are dimensionless: the coupling
constant and duration enter only through angle = gamma * t, so no physical
rates are modeled.

A pulse of area theta is the unitary exp(i theta H). act_pulse applies it in
closed form to a (3, dx, dz, r) tensor of r states: a carrier or jc pulse is a
2x2 rotation on level-pair doublets, the mode swap a signed transpose of the
two Fock axes. No operator on the composite space is formed; the tests compare
each action with the dense N x N unitary of tests/oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import ELECTRONIC_DIM, LEVEL_NAMES, PLUS, XI
from .states import check_real

PULSE_KINDS = ("carrier", "jc", "vrot")

TWO_PI = 2.0 * math.pi

# e^{i phase} at the quarter turns, exactly: np.exp(1j * pi/2) is 6.1e-17 + 1j.
_QUARTER_TURNS = {0.0: 1 + 0j, math.pi / 2: 1j, math.pi: -1 + 0j, 1.5 * math.pi: -1j}


@dataclass(frozen=True)
class PulseSpec:
    """One primitive laser pulse: kind, addressed level pair, mode, area, laser phase.

    Every kind addresses a level pair that contains xi. A jc pulse names mode
    'x' or 'z'; a carrier names the mode whose Debye-Waller factor would weigh
    it, or None for an electronic rotation. vrot addresses exactly ('+', 'xi'),
    names no mode and reads no laser phase, so it takes mode None and phase 0;
    it is the mode swap, the quarter turn: its angle is pi/2 and nothing else.
    levels is a tuple of two names from LEVEL_NAMES, and angle and phase are
    finite real numbers (states.check_real), stored as the Python floats they
    equal. Any other value raises ValueError naming the field.
    """

    kind: str
    levels: tuple[str, str]
    mode: str | None
    angle: float
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in PULSE_KINDS:
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        if not (isinstance(self.levels, tuple) and len(self.levels) == 2
                and all(isinstance(x, str) and x in LEVEL_NAMES for x in self.levels)):
            raise ValueError(f"levels must be a pair of level names {LEVEL_NAMES}, got {self.levels!r}")
        l, j = self.levels
        if l == j:
            raise ValueError("pulse level pair must be distinct")
        if "xi" not in (l, j):
            raise ValueError(f"{self.kind} pulse level pair must contain 'xi'")
        if self.kind == "jc" and self.mode not in ("x", "z"):
            raise ValueError(f"jc pulse must name mode 'x' or 'z', got {self.mode!r}")
        if self.kind == "carrier" and self.mode not in ("x", "z", None):
            raise ValueError(f"carrier pulse takes mode 'x', 'z' or None, got {self.mode!r}")
        for name in ("angle", "phase"):
            object.__setattr__(self, name, check_real(getattr(self, name), f"pulse {name}"))
        if not 0.0 <= self.phase < TWO_PI:
            raise ValueError(f"pulse phase {self.phase} not in [0, 2*pi)")
        shape = (self.levels, self.mode, self.angle, self.phase)
        if self.kind == "vrot" and shape != (("+", "xi"), None, math.pi / 2, 0.0):
            raise ValueError(f"vrot is the mode swap: levels ('+', 'xi'), mode None, angle pi/2 and phase 0, "
                             f"got {shape!r}")


def sideband_coupling(k):
    """Strength sqrt(k+1) of a sideband on the Fock doublet |k>, |k+1> (Lamb-Dicke regime); k may be an array."""
    return np.sqrt(k + 1.0)


def _phase_factor(phase: float) -> complex:
    """The laser-phase factor e^{i phase}: exactly 1, i, -1 or -i at multiples of pi/2, np.exp elsewhere."""
    return _QUARTER_TURNS.get(phase, np.exp(1j * phase))


def _rotate_pair(state: np.ndarray, up: int, down: int, axis: int | None,
                 angle: float, coupling: complex) -> None:
    """exp(i angle H) in place for H = coupling |up><down| (x) K + h.c.

    With axis None, K is the identity (a carrier) and every |down, v> pairs
    with |up, v>. With axis 0 (mode x) or 1 (mode z) of a sector, K is the
    truncated a-dag of that mode: |down, k> pairs with |up, k+1> at coupling
    sideband_coupling(k), and the two unpaired edge states |up, 0> and |down, d-1> keep
    their amplitude. On each pair H is coupling * g times a Pauli matrix, so
    the pulse is the 2x2 rotation cos(g angle) + i sin(g angle) H / g.
    """
    hi, lo = state[up], state[down]
    g = 1.0
    if axis is not None:
        hi = np.moveaxis(hi, axis, 0)[1:]
        lo = np.moveaxis(lo, axis, 0)[:-1]
        g = sideband_coupling(np.arange(hi.shape[0])).reshape(-1, *(1,) * (hi.ndim - 1))
    cos = np.cos(g * angle)
    isin = 1j * np.sin(g * angle)
    new_hi = cos * hi + (isin * coupling) * lo
    lo[...] = cos * lo + (isin * np.conj(coupling)) * hi
    hi[...] = new_hi


def _mode_swap(state: np.ndarray) -> None:
    """exp(i (pi/2) L_y sigma_x^{+xi}) in place: a signed transpose of the two Fock axes.

    sigma_x of {+, xi} is +-1 on the bright and dark states (|+> +- |xi>)/sqrt(2),
    which exp(+-i (pi/2) L_y) take from |nx, nz> to (-1)^nz |nz, nx> and
    (-1)^nx |nz, nx>. The two signs agree where nx + nz is even and differ
    where it is odd, so in the {+, xi} basis the swap is a signed permutation:

        out[+][a, b] = (-1)^a (in[+] if a + b even else in[xi])[b, a]
        out[xi][a, b] = (-1)^a (in[xi] if a + b even else in[+])[b, a]

    and |-> is untouched. It maps the d x d box onto itself, so it is exact
    at every cutoff, for dx = dz.
    """
    n = np.arange(state.shape[1])
    sign = (-1.0) ** n[:, None, None]
    odd = ((n[:, None] + n) % 2 == 1)[:, :, None]
    plus, xi = state[PLUS].swapaxes(0, 1), state[XI].swapaxes(0, 1)
    state[PLUS], state[XI] = sign * np.where(odd, xi, plus), sign * np.where(odd, plus, xi)


def act_pulse(spec: PulseSpec, state: np.ndarray) -> np.ndarray:
    """Apply the pulse's unitary in place to a (3, dx, dz, r) complex tensor of r states; return it.

    Axis 0 is the electronic level, axes 1 and 2 the Fock indices of modes x
    and z, axis 3 runs over the states. Every action costs O(dx dz r). The
    mode swap (vrot) maps the Fock box onto itself only at equal cutoffs, so
    on a tensor with dx != dz it raises ValueError naming the shape.
    """
    if state.ndim != 4 or state.shape[0] != ELECTRONIC_DIM or state.dtype != complex:
        raise ValueError(f"pulse action needs a complex (3, dx, dz, r) tensor, got "
                         f"{state.dtype} {state.shape}")
    if spec.kind == "vrot":
        if state.shape[1] != state.shape[2]:
            raise ValueError(f"the mode swap needs equal cutoffs dx = dz, got a {state.shape} tensor")
        _mode_swap(state)
        return state
    l, j = (LEVEL_NAMES.index(x) for x in spec.levels)
    # A carrier couples no mode; jc's e^{i phase} a-dag |l><j| + h.c. raises the phonon number on l.
    axis = "xz".index(spec.mode) if spec.kind == "jc" else None
    _rotate_pair(state, l, j, axis, spec.angle, _phase_factor(spec.phase))
    return state
