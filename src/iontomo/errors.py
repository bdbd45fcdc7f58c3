"""Exception types shared across the package."""


class TruncationLeakageError(ValueError):
    """A state family puts too much population beyond the Fock cutoff.

    Carries the offending tail mass, the tolerance it violated, and the
    smallest cutoff that would satisfy it (a lower bound on that cutoff when
    the constructor's extended range does not reach it).
    """

    def __init__(self, kind: str, dim: int, tail_mass: float, tail_tol: float,
                 required_dim: int):
        self.kind = kind
        self.dim = dim
        self.tail_mass = tail_mass
        self.tail_tol = tail_tol
        self.required_dim = required_dim
        super().__init__(
            f"{kind} state leaks past the cutoff: tail mass {tail_mass:.3e} "
            f"exceeds tolerance {tail_tol:.3e} at dim={dim}; "
            f"need dim >= {required_dim}"
        )


class DegenerateInputError(ValueError):
    """Input collapses to the zero vector / zero matrix and cannot be normalized."""
