"""Truncated composite Hilbert space for a three-level ion in a two-mode trap.

This module names the electronic levels and holds the Fock cutoffs of the two
modes (HilbertDims); the vibrational input state and its checks live in
states.VibrationalState. The composite space is (electronic) x (mode x) x
(mode z) with the electronic levels ordered (-, +, xi) <-> (0, 1, 2). States
on it are held as (3, dx, dz, ...) tensors in that axis order (see
pulses.act_pulse); no operator on the whole space is ever formed. The trap
frequencies and electronic level energies enter nothing computed here: every
pulse is modeled in the interaction picture, where free evolution
contributes only a global bookkeeping phase.
"""

from __future__ import annotations

from dataclasses import dataclass

# Electronic level order is fixed so that serialized output is bit-stable.
MINUS, PLUS, XI = 0, 1, 2
ELECTRONIC_DIM = 3
LEVEL_NAMES = ("-", "+", "xi")


def level_index(level) -> int:
    """Normalize an electronic level given as int (0..2) or name ('-', '+', 'xi')."""
    if isinstance(level, str):
        if level not in LEVEL_NAMES:
            raise ValueError(f"unknown electronic level {level!r}")
        return LEVEL_NAMES.index(level)
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
