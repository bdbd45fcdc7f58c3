"""Primitive laser-pulse Hamiltonians and their compiled unitaries.

Three resonant couplings act on one vibrational mode and one electronic level
pair in the Lamb-Dicke regime:

    carrier      e^{i phase} |l><j|          + h.c.     (no phonon change)
    jc           e^{i phase} a-dag |l><j|    + h.c.     (phonon +1 on l<-j)
    ajc          e^{i phase} a     |l><j|    + h.c.     (phonon -1 on l<-j)

On top of these sit the electronic rotations R^l(theta) = exp(i theta sigma_y)
on the {l, xi} pair and the two-mode vibrational rotation generated by
L_y = i (a-dag_x a_z - a-dag_z a_x) gated by the {+, xi} sigma_x. Pulse areas
are dimensionless: the coupling constant and duration enter only through
angle = gamma * t, so no physical rates are modeled.

Each pulse exists twice. compile_pulse builds its dense unitary on the whole
composite space, the reference the tests and `validate` check against.
act_pulse applies the same unitary in closed form to a (3, dx, dz, r) tensor
of r states: the carrier, sideband and electronic pulses are 2x2 rotations on
level-pair doublets, the vibrational rotation a beam splitter block per total
phonon number. It never forms an operator on the composite space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    ELECTRONIC_DIM,
    LEVEL_NAMES,
    PLUS,
    XI,
    HilbertDims,
    Operator,
    annihilation,
    electronic_matrix,
    level_index,
    pauli,
    unitary_from_generator,
)

PULSE_KINDS = ("carrier", "jc", "ajc", "erot", "vrot")

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PulseSpec:
    """One primitive laser pulse: kind, addressed level pair, mode, area, laser phase.

    erot uses the level pair only (no mode); vrot acts on both modes and its
    level pair is intrinsically (+, xi). Sideband and carrier pulses name one
    mode and one level pair containing xi.
    """

    kind: str
    levels: tuple[str, str]
    mode: str | None
    angle: float
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in PULSE_KINDS:
            raise ValueError(f"unknown pulse kind {self.kind!r}")
        l, j = (LEVEL_NAMES[level_index(x)] for x in self.levels)
        if l == j:
            raise ValueError("pulse level pair must be distinct")
        object.__setattr__(self, "levels", (l, j))
        if self.kind in ("carrier", "jc", "ajc"):
            if self.mode not in ("x", "z"):
                raise ValueError(f"{self.kind} pulse must name mode 'x' or 'z'")
            if "xi" not in (l, j):
                raise ValueError(f"{self.kind} pulse level pair must contain 'xi'")
        else:
            object.__setattr__(self, "mode", None)
        if self.kind == "erot" and (l not in ("-", "+") or j != "xi"):
            raise ValueError("erot addresses level '-' or '+' paired with 'xi'")
        if self.kind == "vrot":
            object.__setattr__(self, "levels", ("+", "xi"))
        if not math.isfinite(self.angle):
            raise ValueError("pulse angle must be finite")
        if not 0.0 <= self.phase < TWO_PI:
            raise ValueError(f"pulse phase {self.phase} not in [0, 2*pi)")

    def to_record(self) -> dict:
        """Flat record with the stable field names used in schedule dumps."""
        return {
            "kind": self.kind,
            "levels": list(self.levels),
            "mode": self.mode,
            "angle": float(self.angle),
            "phase": float(self.phase),
        }

    @classmethod
    def from_record(cls, record: dict) -> "PulseSpec":
        return cls(
            kind=record["kind"],
            levels=tuple(record["levels"]),
            mode=record["mode"],
            angle=float(record["angle"]),
            phase=float(record.get("phase", 0.0)),
        )


def _vib_factor(kind: str, mode: str | None, dims: HilbertDims) -> np.ndarray:
    """Vibrational factor of a coupling: identity (carrier), a-dag (jc) or a (ajc) on one mode."""
    if kind == "carrier":
        return np.eye(dims.vib_dim, dtype=complex)
    a = annihilation(dims.dx if mode == "x" else dims.dz)
    op = a.conj().T if kind == "jc" else a
    if mode == "x":
        return np.kron(op, np.eye(dims.dz, dtype=complex))
    if mode == "z":
        return np.kron(np.eye(dims.dx, dtype=complex), op)
    raise ValueError(f"mode must be 'x' or 'z', got {mode!r}")


def _coupling(kind: str, mode: str | None, levels, phase: float, dims: HilbertDims) -> Operator:
    """e^{i phase} |l><j| (x) vib + h.c., with vib the kind's vibrational factor."""
    l, j = (level_index(x) for x in levels)
    if l == j:
        raise ValueError(f"{kind} level pair must be distinct")
    term = np.exp(1j * phase) * np.kron(electronic_matrix(l, j), _vib_factor(kind, mode, dims))
    return Operator(term + term.conj().T, dims, hermitian=True)


def h_carrier(levels, phase: float, dims: HilbertDims) -> Operator:
    """Carrier coupling e^{i phase}|l><j| + h.c., identity on both modes."""
    return _coupling("carrier", None, levels, phase, dims)


def h_jc(mode: str, levels, phase: float, dims: HilbertDims) -> Operator:
    """Red-sideband-type coupling e^{i phase} a-dag_mode |l><j| + h.c."""
    return _coupling("jc", mode, levels, phase, dims)


def h_ajc(mode: str, levels, phase: float, dims: HilbertDims) -> Operator:
    """Blue-sideband-type coupling e^{i phase} a_mode |l><j| + h.c."""
    return _coupling("ajc", mode, levels, phase, dims)


def r_electronic(level, theta: float, dims: HilbertDims) -> Operator:
    """Electronic rotation exp(i theta sigma_y) on the {level, xi} pair.

    Acts as identity on the unaddressed level and on both vibrational modes:
    |l> -> cos(theta)|l> + sin(theta)|xi>, |xi> -> -sin(theta)|l> + cos(theta)|xi>.
    """
    l = level_index(level)
    if l == XI:
        raise ValueError("electronic rotation addresses '-' or '+' against 'xi'")
    return unitary_from_generator(pauli(l, XI, "y", dims), theta)


def _two_mode_ly(dims: HilbertDims) -> np.ndarray:
    """i(a-dag_x a_z - a-dag_z a_x) on the two modes alone, in the (x, z) slot order."""
    ax = annihilation(dims.dx)
    az = annihilation(dims.dz)
    return 1j * (np.kron(ax.conj().T, az) - np.kron(ax, az.conj().T))


@functools.lru_cache(maxsize=None)
def l_y(dims: HilbertDims) -> Operator:
    """Two-mode rotation generator i(a-dag_x a_z - a-dag_z a_x), embedded in the composite space.

    Sign and scale are fixed operationally: exp(i (pi/2) L_y) maps |n>_x|0>_z
    to |0>_x|n>_z with coefficient exactly +1 for every n below cutoff. It is
    block-diagonal in total phonon number, so states supported on
    n_x + n_z < min(dx, dz) never feel the truncation.
    """
    m = np.kron(np.eye(ELECTRONIC_DIM, dtype=complex), _two_mode_ly(dims))
    return Operator(m, dims, hermitian=True)


def r_vibr(theta: float, dims: HilbertDims) -> Operator:
    """Vibrational rotation exp(i theta L_y sigma_x^{+xi}).

    Identity on the |-> electronic sector; on the sigma_x = +-1 eigensectors of
    the {+, xi} pair it acts as exp(+-i theta L_y), i.e. a beam splitter
    between the two trap modes. theta = pi/2 swaps the mode contents on the
    bright branch.
    """
    sig = electronic_matrix(PLUS, XI) + electronic_matrix(XI, PLUS)
    gen = Operator(np.kron(sig, _two_mode_ly(dims)), dims, hermitian=True)
    return unitary_from_generator(gen, theta)


@functools.lru_cache(maxsize=None)
def compile_pulse(spec: PulseSpec, dims: HilbertDims) -> Operator:
    """Unitary exp(i * angle * H_kind) of a primitive pulse, built and verified once per spec."""
    if spec.kind == "erot":
        return r_electronic(spec.levels[0], spec.angle, dims)
    if spec.kind == "vrot":
        return r_vibr(spec.angle, dims)
    h = _coupling(spec.kind, spec.mode, spec.levels, spec.phase, dims)
    return unitary_from_generator(h, spec.angle)


def _rotate_pair(state: np.ndarray, up: int, down: int, axis: int | None,
                 angle: float, coupling: complex) -> None:
    """exp(i angle H) in place for H = coupling |up><down| (x) K + h.c.

    With axis None, K is the identity (a carrier) and every |down, v> pairs
    with |up, v>. With axis 0 (mode x) or 1 (mode z) of a sector, K is the
    truncated a-dag of that mode: |down, k> pairs with |up, k+1> at coupling
    sqrt(k+1), and the two unpaired edge states |up, 0> and |down, d-1> keep
    their amplitude. On each pair H is coupling * g times a Pauli matrix, so
    the pulse is the 2x2 rotation cos(g angle) + i sin(g angle) H / g.
    """
    hi, lo = state[up], state[down]
    g = 1.0
    if axis is not None:
        hi = np.moveaxis(hi, axis, 0)[1:]
        lo = np.moveaxis(lo, axis, 0)[:-1]
        g = np.sqrt(np.arange(1, hi.shape[0] + 1)).reshape(-1, *(1,) * (hi.ndim - 1))
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
    and z, axis 3 runs over the states. Equal to compile_pulse(spec, dims)
    applied to each state, in O(3 dx dz r) work per pulse.
    """
    if state.ndim != 4 or state.shape[0] != ELECTRONIC_DIM or state.dtype != complex:
        raise ValueError(f"pulse action needs a complex (3, dx, dz, r) tensor, got "
                         f"{state.dtype} {state.shape}")
    l, j = (level_index(x) for x in spec.levels)
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
