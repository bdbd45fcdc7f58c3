"""Exception types shared across the package."""


class TruncationLeakageError(ValueError):
    """A state family puts too much population beyond the Fock cutoff.

    Carries the offending tail mass, the tolerance it violated, and the
    smallest cutoff that would satisfy it. When no cutoff in the range the
    constructor examines meets the tolerance, that range's end is only a lower
    bound on the cutoff: lower_bound is set and the message says so. A state
    built with a recorded tail mass (kind "input") names no cutoff:
    required_dim is None and the message says that none is known.
    """

    def __init__(self, kind: str, dim: int, tail_mass: float, tail_tol: float,
                 required_dim: int | None = None, lower_bound: bool = False):
        self.kind = kind
        self.dim = dim
        self.tail_mass = tail_mass
        self.tail_tol = tail_tol
        self.required_dim = required_dim
        self.lower_bound = lower_bound
        if required_dim is None:
            need = "the tail mass was recorded, so no cutoff that meets the tolerance is known"
        else:
            bound = (" (a lower bound: no cutoff in the range the constructor examines "
                     "meets the tolerance)" if lower_bound else "")
            need = f"need dim >= {required_dim}{bound}"
        super().__init__(
            f"{kind} state leaks past the cutoff: tail mass {tail_mass:.3e} "
            f"exceeds tolerance {tail_tol:.3e} at dim={dim}; {need}"
        )


class DegenerateInputError(ValueError):
    """Input collapses to the zero vector / zero matrix and cannot be normalized."""
