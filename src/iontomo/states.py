"""Single-mode vibrational states used as the unknown input of the protocol.

Constructors produce either a pure amplitude vector or a density matrix on a
truncated Fock space of the stated dimension. Families with analytic support
beyond any cutoff (coherent, squeezed, cat, thermal) are guarded: construction
fails if the out-of-range mass exceeds tail_tol, and succeeds by renormalizing
the truncated state so every downstream invariant holds exactly.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

STATE_NORM_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-12
_TAIL_EXTEND = 512
# exp(-x) is 0 in double precision for every x above ~745.2.
_EXP_UNDERFLOW = 746.0


def check_int(value, name: str) -> int:
    """value as a Python int if it is a Python or numpy integer and not a bool; else a ValueError naming it."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_number(value, name: str, types: tuple, what: str):
    """value if it is one of types, not a bool, and finite (no NaN, +-inf or int past a float's range)."""
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if not (abs(value) <= sys.float_info.max if isinstance(value, int) else cmath.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_real(value, name: str) -> float:
    """float(value) for a finite Python or numpy real number that is no bool; else a ValueError naming it."""
    return float(_check_number(value, name, (int, float, np.integer, np.floating), "a real number"))


class TruncationLeakageError(ValueError):
    """A state family puts too much population beyond the Fock cutoff.

    Raised by the constructor that truncates the family, the one place
    leakage is decided. Carries the offending tail mass, the tolerance it
    violated, and the smallest cutoff required_dim that would satisfy it.
    When no cutoff in the range the constructor examines meets the tolerance,
    that range's end is only a lower bound on the cutoff: lower_bound is set
    and the message says so.
    """

    def __init__(self, kind: str, dim: int, tail_mass: float, tail_tol: float,
                 required_dim: int, lower_bound: bool = False):
        self.kind = kind
        self.dim = dim
        self.tail_mass = tail_mass
        self.tail_tol = tail_tol
        self.required_dim = required_dim
        self.lower_bound = lower_bound
        bound = (" (a lower bound: no cutoff in the range the constructor examines "
                 "meets the tolerance)" if lower_bound else "")
        super().__init__(
            f"{kind} state leaks past the cutoff: tail mass {tail_mass:.3e} "
            f"exceeds tolerance {tail_tol:.3e} at dim={dim}; need dim >= {required_dim}{bound}"
        )


def _amplitude_vector(values) -> np.ndarray:
    """values as a new complex array if it is a vector with an entry; else a ValueError naming its shape."""
    v = np.array(values, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"pure state amplitudes must be a nonempty vector, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class VibrationalState:
    """Pure or mixed state of one vibrational mode on a truncated Fock space.

    This is the one place a caller's state is checked. Amplitudes must be a
    nonempty vector, which is never flattened, finite and normalized to
    1e-10; a density matrix must be square, nonempty, finite, hermitian to
    1e-12, of trace 1 to 1e-10 and have no eigenvalue below -1e-10. Either
    is kept as a write-locked copy. tail_mass records the analytic population
    the truncation discarded (zero for states defined directly on the
    truncated space); the constructor that truncated the family decided
    whether it leaks too much (TruncationLeakageError), so here it is only a
    population in [0, 1], stored as the float check_real returns.
    dim is the array's size; only a run compares it with d (protocol._measure).
    """

    amplitudes: np.ndarray | None = None
    matrix: np.ndarray | None = None
    tail_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "tail_mass", check_real(self.tail_mass, "tail_mass"))
        if not 0.0 <= self.tail_mass <= 1.0:
            raise ValueError(f"tail_mass must be a population in [0, 1], got {self.tail_mass!r}")
        if (self.amplitudes is None) == (self.matrix is None):
            raise ValueError("exactly one of amplitudes / matrix must be given")
        if self.amplitudes is not None:
            v = _amplitude_vector(self.amplitudes)
            if not np.all(np.isfinite(v)):
                raise ValueError("pure vibrational state has non-finite amplitudes")
            if abs(np.linalg.norm(v) - 1.0) > STATE_NORM_TOL:
                raise ValueError("pure vibrational state is not normalized within 1e-10")
            v.setflags(write=False)
            object.__setattr__(self, "amplitudes", v)
        else:
            m = np.array(self.matrix, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
                raise ValueError(f"density matrix must be square and nonempty, got shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError("density matrix has non-finite entries")
            if np.max(np.abs(m - m.conj().T)) > 1e-12:
                raise ValueError("density matrix is not hermitian within 1e-12")
            tr = np.trace(m)
            if abs(tr - 1.0) > 1e-10:
                raise ValueError(f"density matrix trace {tr} deviates from 1 by more than 1e-10")
            lo = np.linalg.eigvalsh(m)[0]
            if lo < -1e-10:
                raise ValueError(f"density matrix has eigenvalue {lo:.3e} < -1e-10")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None

    @property
    def dim(self) -> int:
        """The Fock cutoff: the length of amplitudes, or the size of the square matrix."""
        return len(self.amplitudes if self.is_pure else self.matrix)

    def density_matrix(self) -> np.ndarray:
        """dim x dim density matrix regardless of the internal representation."""
        if self.is_pure:
            return np.outer(self.amplitudes, self.amplitudes.conj())
        return np.array(self.matrix)


def _check_tail_tol(tail_tol: float) -> float:
    """tail_tol as the positive float check_real returns; else a ValueError naming it."""
    tol = check_real(tail_tol, "tail_tol")
    if tol <= 0.0:
        raise ValueError(f"tail_tol must be a positive number, got {tail_tol}")
    return tol


def _guard_tail(kind: str, populations: np.ndarray, dim: int, tail_tol: float) -> float:
    """Check the analytic out-of-range mass; return it or raise with the required dim.

    populations are those of a normalized family over an extended range of
    Fock numbers. The mass beyond that range, 1 minus their sum (less the
    sum's rounding), counts as tail too; when it alone exceeds tail_tol no
    cutoff within the range suffices, and the range's length is reported as
    the lower bound it is.
    """
    tail_tol = _check_tail_tol(tail_tol)
    rounding = len(populations) * np.finfo(float).eps
    beyond = max(0.0, 1.0 - float(np.sum(populations)) - rounding)
    suffix = np.cumsum(populations[::-1])[::-1] + beyond
    tail = float(suffix[dim]) if dim < len(suffix) else beyond
    if tail > tail_tol:
        ok = np.nonzero(suffix <= tail_tol)[0]
        if len(ok):
            raise TruncationLeakageError(kind, dim, tail, tail_tol, int(ok[0]))
        raise TruncationLeakageError(kind, dim, tail, tail_tol, len(populations), lower_bound=True)
    return tail


def _check_dim(dim) -> int:
    """dim as the Python int check_int returns if it is at least 1; else a ValueError naming it."""
    dim = check_int(dim, "dim")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return dim


def fock(n: int, dim: int) -> VibrationalState:
    """Number state |n>."""
    n, dim = check_int(n, "n"), _check_dim(dim)
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return VibrationalState(amplitudes=v)


def _truncated(kind: str, amps: np.ndarray, dim: int, tail_tol: float) -> VibrationalState:
    """Guard the analytic tail of amps beyond dim, then renormalize what the cutoff keeps."""
    tail = _guard_tail(kind, np.abs(amps) ** 2, dim, tail_tol)
    v = amps[:dim]
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError(f"{kind} state keeps no representable amplitude below the cutoff "
                         f"dim={dim} (tail mass {tail:.3e} within tolerance {tail_tol:.3e})")
    return VibrationalState(amplitudes=v / norm, tail_mass=tail)


def _abs_sq(z: complex) -> float:
    """|z|^2, or inf where it overflows a float."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _check_alpha(alpha) -> complex:
    """alpha as a complex: a finite Python or numpy number, real or complex, not a bool (_check_number)."""
    return complex(_check_number(alpha, "alpha", (int, float, complex, np.number), "a number"))


def _displaced_vacuum(alpha: complex, nbig: int) -> np.ndarray:
    """Coherent amplitudes exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n < nbig, by recurrence."""
    amps = np.zeros(nbig, dtype=complex)
    amps[0] = math.exp(-_abs_sq(alpha) / 2.0)
    for n in range(nbig - 1):
        amps[n + 1] = amps[n] * alpha / math.sqrt(n + 1)
    return amps


def coherent(alpha: complex, dim: int, tail_tol: float = DEFAULT_TAIL_TOL) -> VibrationalState:
    """Coherent state, <n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!), renormalized on the cutoff."""
    alpha = _check_alpha(alpha)
    dim = _check_dim(dim)
    return _truncated("coherent", _displaced_vacuum(alpha, dim + _TAIL_EXTEND), dim, tail_tol)


def squeezed(r: float, phi: float, dim: int, tail_tol: float = DEFAULT_TAIL_TOL) -> VibrationalState:
    """Squeezed vacuum with even-Fock amplitudes from the two-term recurrence.

    c_0 = 1/sqrt(cosh r),  c_{n+2} = -e^{i phi} tanh(r) sqrt((n+1)/(n+2)) c_n.
    """
    r = check_real(r, "r")
    if r < 0:
        raise ValueError("squeezing magnitude r must be >= 0")
    dim = _check_dim(dim)
    nbig = dim + _TAIL_EXTEND
    amps = np.zeros(nbig, dtype=complex)
    try:
        amps[0] = 1.0 / math.sqrt(math.cosh(r))
    except OverflowError:  # cosh(r) beyond a float: every amplitude in range is below one too
        amps[0] = 0.0
    factor = -np.exp(1j * check_real(phi, "phi")) * math.tanh(r)
    for n in range(0, nbig - 2, 2):
        amps[n + 2] = amps[n] * factor * math.sqrt((n + 1) / (n + 2))
    return _truncated("squeezed", amps, dim, tail_tol)


def cat(alpha: complex, parity: str, dim: int, tail_tol: float = DEFAULT_TAIL_TOL) -> VibrationalState:
    """Normalized |alpha> + |-alpha> (even) or |alpha> - |-alpha> (odd)."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    sign = 1.0 if parity == "even" else -1.0
    alpha = _check_alpha(alpha)
    x = -2.0 * _abs_sq(alpha)
    # <alpha|-alpha> = exp(x); the odd norm takes 1 - exp(x) by expm1, which keeps its digits
    # as alpha -> 0.
    norm_sq = 2.0 * (1.0 + math.exp(x)) if parity == "even" else -2.0 * math.expm1(x)
    if norm_sq < 1e-30:
        raise ValueError("odd cat with alpha = 0 is the zero vector")
    dim = _check_dim(dim)
    nbig = dim + _TAIL_EXTEND
    parities = np.where(np.arange(nbig) % 2 == 0, 1.0, -1.0)
    amps = _displaced_vacuum(alpha, nbig) * (1.0 + sign * parities) / math.sqrt(norm_sq)
    return _truncated("cat", amps, dim, tail_tol)


def thermal(nbar: float, dim: int, tail_tol: float = DEFAULT_TAIL_TOL) -> VibrationalState:
    """Thermal (mixed) state, p_n proportional to (nbar/(1+nbar))^n, renormalized on the cutoff."""
    nbar = check_real(nbar, "nbar")
    if nbar < 0:
        raise ValueError("mean occupation nbar must be >= 0")
    tail_tol = _check_tail_tol(tail_tol)
    q = nbar / (1.0 + nbar)
    dim = _check_dim(dim)
    tail = q ** dim  # geometric series remainder
    if tail > tail_tol:
        # q**d <= tail_tol from d = log(tail_tol) / log(q); log(q) = -log1p(1/nbar)
        # keeps its digits where q rounds to 1, and no cutoff past 2**63 is buildable.
        required = math.log(tail_tol) / -math.log1p(1.0 / nbar)
        raise TruncationLeakageError("thermal", dim, tail, tail_tol, math.ceil(min(required, 2.0 ** 63)),
                                     lower_bound=required > 2.0 ** 63)
    p = (1.0 - q) * q ** np.arange(dim)
    if p.sum() == 0.0:
        raise ValueError(f"thermal state keeps no representable population below the cutoff "
                         f"dim={dim} (tail mass {tail:.3e} within tolerance {tail_tol:.3e})")
    p = p / p.sum()
    return VibrationalState(matrix=np.diag(p).astype(complex), tail_mass=tail)


def dephase(state: VibrationalState, lam: float) -> VibrationalState:
    """Fock dephasing channel: rho_mn -> rho_mn * exp(-lam (m-n)^2), populations untouched.

    The kernel is a positive-semidefinite Gaussian Gram matrix, so the output
    is a valid density operator and the map preserves the trace exactly and
    the input's tail_mass. lam is a finite real number (check_real) and >= 0.
    """
    lam = check_real(lam, "dephasing strength lam")
    if lam < 0:
        raise ValueError(f"dephasing strength lam must be >= 0, got {lam}")
    n = np.arange(state.dim)
    # Capping lam where exp underflows changes no entry and keeps lam (m-n)^2 finite.
    kernel = np.exp(-min(lam, _EXP_UNDERFLOW) * (n[:, None] - n[None, :]) ** 2)
    rho = state.density_matrix() * kernel
    return VibrationalState(matrix=rho, tail_mass=state.tail_mass)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v, scaled by its largest part only where the plain sum of squares overflows."""
    big = float(np.max(np.abs(v.view(float)), initial=0.0))
    if big * big * len(v) <= sys.float_info.max:
        return float(np.linalg.norm(v))
    return big * float(np.linalg.norm(v / big))


def from_amplitudes(values) -> VibrationalState:
    """Pure state, of the vector's length, from raw amplitudes normalized within 1e-6 (then renormalized).

    values must be a nonempty vector (a list of numbers, not nested); it is
    never flattened, and any other shape is a ValueError naming it.
    """
    v = _amplitude_vector(values)
    norm = _norm(v)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"raw amplitude list norm {norm} deviates from 1 by more than 1e-6")
    return VibrationalState(amplitudes=v / norm)
