"""Truncated composite Hilbert space for a three-level ion in a two-mode trap.

The composite space is (electronic) x (mode x) x (mode z) with the electronic
levels ordered (-, +, xi) <-> (0, 1, 2) and the canonical flat index

    idx(e, nx, nz) = e * (dx * dz) + nx * dz + nz

All operators are dense complex matrices in this index convention. The trap
frequencies and electronic level energies enter nothing computed here: every
pulse is modeled in the interaction picture, where free evolution contributes
only a global bookkeeping phase.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Electronic level order is fixed so that serialized output is bit-stable.
MINUS, PLUS, XI = 0, 1, 2
ELECTRONIC_DIM = 3
LEVEL_NAMES = ("-", "+", "xi")

_LEVEL_ALIASES = {
    "-": MINUS, "minus": MINUS,
    "+": PLUS, "plus": PLUS,
    "xi": XI, "ξ": XI,
}

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
NORM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def level_index(level) -> int:
    """Normalize an electronic level given as int (0..2) or name ('-', '+', 'xi')."""
    if isinstance(level, str):
        try:
            return _LEVEL_ALIASES[level]
        except KeyError:
            raise ValueError(f"unknown electronic level {level!r}") from None
    level = int(level)
    if level not in (MINUS, PLUS, XI):
        raise ValueError(f"electronic level index {level} not in 0..2")
    return level


@dataclass(frozen=True)
class HilbertDims:
    """Fock cutoffs of the two vibrational modes; electronic dimension is fixed at 3.

    dx, dz are the number of retained Fock states |0>..|d-1> of modes x and z.
    """

    dx: int
    dz: int

    def __post_init__(self):
        if self.dx < 2 or self.dz < 2:
            raise ValueError(f"Fock cutoffs must be >= 2, got dx={self.dx}, dz={self.dz}")

    @property
    def vib_dim(self) -> int:
        return self.dx * self.dz

    @property
    def total_dim(self) -> int:
        return ELECTRONIC_DIM * self.dx * self.dz

    def index(self, e: int, nx: int, nz: int) -> int:
        """Canonical flat index of |e> |nx>_x |nz>_z."""
        e = level_index(e)
        if not (0 <= nx < self.dx and 0 <= nz < self.dz):
            raise ValueError(f"Fock indices ({nx}, {nz}) out of range for {self}")
        return e * self.dx * self.dz + nx * self.dz + nz

    def unravel(self, idx: int) -> tuple[int, int, int]:
        """Inverse of index(): flat index -> (e, nx, nz)."""
        if not 0 <= idx < self.total_dim:
            raise ValueError(f"flat index {idx} out of range")
        e, rest = divmod(idx, self.dx * self.dz)
        nx, nz = divmod(rest, self.dz)
        return e, nx, nz


def _expected_dim(dims) -> int | None:
    if dims is None:
        return None
    if isinstance(dims, HilbertDims):
        return dims.total_dim
    return int(dims)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


def _square(arr, dims, what: str) -> np.ndarray:
    """Frozen copy of a square matrix whose dimension matches dims (if stated)."""
    m = _freeze(arr)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    expected = _expected_dim(dims)
    if expected is not None and m.shape[0] != expected:
        raise ValueError(f"{what} dimension {m.shape[0]} does not match dims ({expected})")
    return m


def _derived(cls, **fields):
    """An instance of cls holding fields, built without its construction checks.

    Only for results of verified operands under an operation that keeps the
    checked invariant: operator products and adjoints, and apply().
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class Operator:
    """Dense complex matrix on the composite space (or a stated plain dimension).

    The hermitian / unitary tags are advisory but verified when an operator is
    built from caller data: a tagged operator that fails its tolerance is
    rejected outright. Products (@) and adjoints (dagger) carry the tags of
    their verified operands unchecked; the tests assert the unitarity of the
    composed protocol unitaries to the same 1e-10.
    """

    matrix: np.ndarray
    dims: HilbertDims | int | None = None
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        m = _square(self.matrix, self.dims, "operator")
        object.__setattr__(self, "matrix", m)
        if self.hermitian and np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("operator tagged hermitian is not hermitian within 1e-12")
        if self.unitary:
            defect = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
            if defect > UNITARY_TOL:
                raise ValueError(f"operator tagged unitary has defect {defect:.3e} > 1e-10")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "Operator":
        return _derived(Operator, matrix=_freeze(self.matrix.conj().T), dims=self.dims,
                        hermitian=self.hermitian, unitary=self.unitary)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} vs {other.dim}")
        return _derived(Operator, matrix=_freeze(self.matrix @ other.matrix),
                        dims=self.dims or other.dims, hermitian=False,
                        unitary=self.unitary and other.unitary)


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on the composite space (or a plain dimension)."""

    amplitudes: np.ndarray
    dims: HilbertDims | int | None = None

    def __post_init__(self):
        v = _freeze(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", v)
        expected = _expected_dim(self.dims)
        if expected is not None and v.shape[0] != expected:
            raise ValueError(f"state dimension {v.shape[0]} does not match dims ({expected})")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm} deviates from 1 by more than 1e-12")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Trace-one positive operator on the composite space (or a plain dimension).

    Built from caller data, it is checked for hermiticity (1e-12), unit trace
    (1e-10) and positivity (no eigenvalue below -1e-10). Outputs of apply()
    are not re-checked; the tests assert these tolerances on protocol outputs.
    """

    matrix: np.ndarray
    dims: HilbertDims | int | None = None

    def __post_init__(self):
        m = _square(self.matrix, self.dims, "density operator")
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density operator is not hermitian within 1e-12")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator trace {tr} deviates from 1 by more than 1e-10")
        lo = np.linalg.eigvalsh(m)[0]
        if lo < -PSD_TOL:
            raise ValueError(f"density operator has eigenvalue {lo:.3e} < -1e-10")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def basis_state(dims: HilbertDims, level, nx: int, nz: int) -> PureState:
    """Composite basis vector |nx>_x |nz>_z |level>."""
    v = np.zeros(dims.total_dim, dtype=complex)
    v[dims.index(level, nx, nz)] = 1.0
    return PureState(v, dims)


def annihilation(dim: int) -> np.ndarray:
    """Plain truncated annihilation matrix: a|n> = sqrt(n)|n-1>, a|0> = 0."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def composite(elec: np.ndarray, opx: np.ndarray, opz: np.ndarray) -> np.ndarray:
    """Kronecker product in the canonical slot order (electronic, mode x, mode z)."""
    return np.kron(np.kron(elec, opx), opz)


@functools.lru_cache(maxsize=None)
def annihilator(mode: str, dims: HilbertDims) -> Operator:
    """Truncated annihilation operator of mode 'x' or 'z' in the composite space.

    The other mode and the electronic factor carry the identity.
    """
    eye3 = np.eye(ELECTRONIC_DIM, dtype=complex)
    if mode == "x":
        m = composite(eye3, annihilation(dims.dx), np.eye(dims.dz, dtype=complex))
    elif mode == "z":
        m = composite(eye3, np.eye(dims.dx, dtype=complex), annihilation(dims.dz))
    else:
        raise ValueError(f"mode must be 'x' or 'z', got {mode!r}")
    return Operator(m, dims)


def electronic_matrix(l, j) -> np.ndarray:
    """3x3 matrix of |l><j| on the electronic factor alone."""
    m = np.zeros((ELECTRONIC_DIM, ELECTRONIC_DIM), dtype=complex)
    m[level_index(l), level_index(j)] = 1.0
    return m


@functools.lru_cache(maxsize=None)
def electronic_op(l, j, dims: HilbertDims) -> Operator:
    """|l><j| embedded as identity on both vibrational modes."""
    eye_v = np.eye(dims.vib_dim, dtype=complex)
    m = np.kron(electronic_matrix(l, j), eye_v)
    return Operator(m, dims, hermitian=level_index(l) == level_index(j))


@functools.lru_cache(maxsize=None)
def pauli(l, j, axis: str, dims: HilbertDims) -> Operator:
    """Pauli operator of the {l, j} electronic pair, embedded in the composite space.

    x: |l><j| + |j><l|      y: i(|l><j| - |j><l|)      z: |j><j| - |l><l|
    """
    li, ji = level_index(l), level_index(j)
    if li == ji:
        raise ValueError("pauli requires two distinct electronic levels")
    lj = electronic_matrix(li, ji)
    jl = electronic_matrix(ji, li)
    if axis == "x":
        m3 = lj + jl
    elif axis == "y":
        m3 = 1j * (lj - jl)
    elif axis == "z":
        m3 = electronic_matrix(ji, ji) - electronic_matrix(li, li)
    else:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    return Operator(np.kron(m3, np.eye(dims.vib_dim, dtype=complex)), dims, hermitian=True)


def unitary_from_generator(generator, theta: float) -> Operator:
    """exp(i * theta * G) for a hermitian G (Operator or array), via eigendecomposition.

    G is rejected if it deviates from hermiticity by more than 1e-12 (max-abs).
    The result carries the unitary tag, verified here to 1e-10; compile_pulse
    caches each pulse, so this runs once per pulse. At these dimensions the
    eigendecomposition route gives machine-precision unitarity, unlike a
    truncated series.
    """
    g = generator if isinstance(generator, Operator) else Operator(generator)
    if not g.hermitian:  # a tagged generator was checked when it was built
        g = Operator(g.matrix, g.dims, hermitian=True)
    w, v = np.linalg.eigh(g.matrix)
    u = (v * np.exp(1j * theta * w)) @ v.conj().T
    return Operator(u, g.dims, unitary=True)


def expectation(rho: DensityOperator, op: Operator) -> complex:
    """Tr(rho O), as the elementwise sum of rho_ij O_ji (O(N^2), no product formed).

    Real to 1e-12 when O carries the hermitian tag.
    """
    if rho.dim != op.dim:
        raise ValueError(f"dimension mismatch {rho.dim} vs {op.dim}")
    val = complex(np.einsum("ij,ji->", rho.matrix, op.matrix))
    if op.hermitian:
        return complex(val.real)
    return val


def apply(u: Operator, state):
    """U|psi> or U rho U-dagger; requires the unitary tag on U.

    The result is not re-verified: U and its factors were verified when built
    and the state when constructed, so its invariants carry over up to rounding.
    """
    if not u.unitary:
        raise ValueError("apply requires an operator with the unitary tag")
    if not isinstance(state, (PureState, DensityOperator)):
        raise TypeError(f"apply expects PureState or DensityOperator, got {type(state)}")
    if u.dim != state.dim:
        raise ValueError(f"dimension mismatch {u.dim} vs {state.dim}")
    if isinstance(state, PureState):
        return _derived(PureState, amplitudes=_freeze(u.matrix @ state.amplitudes),
                        dims=state.dims)
    return _derived(DensityOperator, matrix=_freeze(u.matrix @ state.matrix @ u.matrix.conj().T),
                    dims=state.dims)


def reduced_density_x(rho: DensityOperator, dims: HilbertDims) -> np.ndarray:
    """Partial trace over mode z and the electronic factor; returns the dx x dx block."""
    r = rho.matrix.reshape(ELECTRONIC_DIM, dims.dx, dims.dz,
                           ELECTRONIC_DIM, dims.dx, dims.dz)
    return np.einsum("eacebc->ab", r)
