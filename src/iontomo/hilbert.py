"""Truncated composite Hilbert space for a three-level ion in a two-mode trap.

The composite space is (electronic) x (mode x) x (mode z) with the electronic
levels ordered (-, +, xi) <-> (0, 1, 2). States on it are held as (3, dx, dz,
...) tensors in that axis order (see pulses.act_pulse); no operator on the
whole space is ever formed. The trap frequencies and electronic level
energies enter nothing computed here: every pulse is modeled in the
interaction picture, where free evolution contributes only a global
bookkeeping phase.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Trace-one positive matrix of a stated dimension (or any, if dims is None).

    Checked on construction: finite entries, hermitian to 1e-12, unit trace to
    1e-10 and no eigenvalue below -1e-10. The matrix is a write-locked copy.
    """

    matrix: np.ndarray
    dims: int | None = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        if self.dims is not None and m.shape[0] != self.dims:
            raise ValueError(f"density operator dimension {m.shape[0]} does not match dims ({self.dims})")
        if not np.all(np.isfinite(m)):
            raise ValueError("density operator has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_TOL:
            raise ValueError("density operator is not hermitian within 1e-12")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator trace {tr} deviates from 1 by more than 1e-10")
        lo = np.linalg.eigvalsh(m)[0]
        if lo < -PSD_TOL:
            raise ValueError(f"density operator has eigenvalue {lo:.3e} < -1e-10")
