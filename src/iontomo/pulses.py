"""Primitive laser pulses and their closed-form actions on states.

Three resonant couplings act on one vibrational mode and one electronic level
pair in the Lamb-Dicke regime:

    carrier      e^{i phase} |l><j|          + h.c.     (no phonon change)
    jc           e^{i phase} a-dag |l><j|    + h.c.     (phonon +1 on l<-j)
    ajc          e^{i phase} a     |l><j|    + h.c.     (phonon -1 on l<-j)

On top of these sit the electronic rotations R^l(theta) = exp(i theta sigma_y)
on the {l, xi} pair and the two-mode vibrational rotation generated by
L_y = i (a-dag_x a_z - a-dag_z a_x) gated by the {+, xi} sigma_x. The sign
and scale of L_y are fixed operationally: exp(i (pi/2) L_y) maps |n>_x|0>_z to
|0>_x|n>_z with coefficient exactly +1 for every n below the cutoff. Pulse
areas are dimensionless: the coupling constant and duration enter only
through angle = gamma * t, so no physical rates are modeled.

A pulse of area theta is the unitary exp(i theta H). act_pulse applies it in
closed form to a (3, dx, dz, r) tensor of r states: the carrier, sideband and
electronic pulses are 2x2 rotations on level-pair doublets, the vibrational
rotation a beam splitter block per total phonon number. No operator on the
composite space is formed; the tests compare each action with the dense
N x N unitary of tests/oracle.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import ELECTRONIC_DIM, LEVEL_NAMES, PLUS, XI
from .states import check_real

PULSE_KINDS = ("carrier", "jc", "ajc", "erot", "vrot")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PulseSpec:
    """One primitive laser pulse: kind, addressed level pair, mode, area, laser phase.

    Carrier and sideband pulses name mode 'x' or 'z' and a level pair that
    contains xi. erot addresses ('-', 'xi') or ('+', 'xi') and vrot exactly
    ('+', 'xi'); neither names a mode or reads the laser phase, so each takes
    mode None and phase 0. levels is a tuple of two names from LEVEL_NAMES,
    and angle and phase are finite real numbers (states.check_real), stored as
    the Python floats they equal. Any other value raises ValueError naming the
    field.
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
        if self.kind in ("carrier", "jc", "ajc"):
            if self.mode not in ("x", "z"):
                raise ValueError(f"{self.kind} pulse must name mode 'x' or 'z'")
            if "xi" not in (l, j):
                raise ValueError(f"{self.kind} pulse level pair must contain 'xi'")
        elif self.mode is not None or self.phase != 0.0:
            raise ValueError(f"{self.kind} pulse takes mode None and phase 0, "
                             f"got mode {self.mode!r} and phase {self.phase!r}")
        if self.kind == "erot" and (l not in ("-", "+") or j != "xi"):
            raise ValueError("erot addresses level '-' or '+' paired with 'xi'")
        if self.kind == "vrot" and (l, j) != ("+", "xi"):
            raise ValueError("vrot addresses the level pair ('+', 'xi')")
        for name in ("angle", "phase"):
            object.__setattr__(self, name, check_real(getattr(self, name), f"pulse {name}"))
        if not 0.0 <= self.phase < TWO_PI:
            raise ValueError(f"pulse phase {self.phase} not in [0, 2*pi)")


def sideband_coupling(k):
    """Strength sqrt(k+1) of a sideband on the Fock doublet |k>, |k+1> (Lamb-Dicke regime); k may be an array."""
    return np.sqrt(k + 1.0)


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


@functools.lru_cache(maxsize=4)
def _ly_blocks(theta: float, dx: int, dz: int) -> tuple:
    """exp(i theta L_y) as (nx, nz, block) per total phonon number K = nx + nz.

    The truncated L_y only couples |nx, nz> to |nx+1, nz-1> at strength
    sqrt((nx+1) nz), so each K is one tridiagonal block of at most
    min(dx, dz) states. i L_y is real antisymmetric, so each exponential is a
    real orthogonal matrix and exp(-i theta L_y) is its transpose. The blocks
    hold O(d^3) numbers in all.
    """
    blocks = []
    for k in range(dx + dz - 1):
        nx = np.arange(max(0, k - dz + 1), min(k, dx - 1) + 1)
        g = np.sqrt((nx[:-1] + 1.0) * (k - nx[:-1]))
        ly = np.diag(1j * g, -1) - np.diag(1j * g, 1)
        w, v = np.linalg.eigh(ly)
        block = ((v * np.exp(1j * theta * w)) @ v.conj().T).real
        blocks.append((nx, k - nx, block))
    return tuple(blocks)


def _beam_split(theta: float, state: np.ndarray) -> None:
    """exp(i theta L_y sigma_x^{+xi}) in place.

    sigma_x of {+, xi} is +-1 on (|+> +- |xi>)/sqrt(2); those branches turn
    by exp(+-i theta L_y), one block per total phonon number.
    """
    bright = (state[PLUS] + state[XI]) / math.sqrt(2.0)
    dark = (state[PLUS] - state[XI]) / math.sqrt(2.0)
    for nx, nz, block in _ly_blocks(theta, state.shape[1], state.shape[2]):
        bright[nx, nz] = block @ bright[nx, nz]
        dark[nx, nz] = block.T @ dark[nx, nz]
    state[PLUS] = (bright + dark) / math.sqrt(2.0)
    state[XI] = (bright - dark) / math.sqrt(2.0)


def act_pulse(spec: PulseSpec, state: np.ndarray) -> np.ndarray:
    """Apply the pulse's unitary in place to a (3, dx, dz, r) complex tensor of r states; return it.

    Axis 0 is the electronic level, axes 1 and 2 the Fock indices of modes x
    and z, axis 3 runs over the states. A doublet rotation (erot, carrier, jc,
    ajc) costs O(dx dz r); the vibrational rotation multiplies one block per
    total phonon number, O(min(dx, dz) dx dz r).
    """
    if state.ndim != 4 or state.shape[0] != ELECTRONIC_DIM or state.dtype != complex:
        raise ValueError(f"pulse action needs a complex (3, dx, dz, r) tensor, got "
                         f"{state.dtype} {state.shape}")
    l, j = (LEVEL_NAMES.index(x) for x in spec.levels)
    axis = 0 if spec.mode == "x" else 1
    if spec.kind == "vrot":
        _beam_split(spec.angle, state)
    elif spec.kind == "erot":
        # exp(i angle sigma_y) is the carrier rotation at laser phase pi/2.
        _rotate_pair(state, l, j, None, spec.angle, 1j)
    elif spec.kind == "carrier":
        _rotate_pair(state, l, j, None, spec.angle, np.exp(1j * spec.phase))
    elif spec.kind == "jc":
        # e^{i phase} a-dag |l><j| + h.c. raises the phonon number on l.
        _rotate_pair(state, l, j, axis, spec.angle, np.exp(1j * spec.phase))
    else:
        # ajc: e^{i phase} a |l><j| + h.c. = e^{-i phase} a-dag |j><l| + h.c.
        _rotate_pair(state, j, l, axis, spec.angle, np.exp(-1j * spec.phase))
    return state
