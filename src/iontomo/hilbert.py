"""Electronic levels of the three-level ion: their order and names.

The levels are ordered (-, +, xi) <-> (0, 1, 2), the index on axis 0 of the
(3, dx, dz, r) state tensors that pulses.act_pulse takes. The level energies
and the trap frequencies enter no computation: every pulse is modeled in the
interaction picture, where free evolution contributes only a global
bookkeeping phase.
"""

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

