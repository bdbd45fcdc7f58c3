"""Element-by-element reconstruction, physical projection, and quality metrics.

reconstruct() sweeps a square block of matrix elements, one independent
protocol run (protocol.measure_element) per cell; by default no hermiticity
shortcut is taken, so the (n, m) cell really is measured through its own
composed unitary rather than copied from the conjugate of (m, n).
decoherence_monitor() is the three-element use case: it tracks |rho_20|
against sqrt(rho_00 rho_22) without ever filling the full block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import ProtocolSettings, check_reach, measure_element
from .states import VibrationalState, check_real, dephase


@dataclass
class ReconstructionReport:
    """Reconstructed block plus everything needed to judge it.

    estimates[m, n] is the measured <m| rho_vibr |n>; stderrs is zero in exact
    mode. truth is the same block of the known input, and projected is the
    Hilbert-Schmidt-nearest density matrix to the estimates (see
    project_physical); all four are plain (nmax+1)-square arrays, and nmax is
    the caller's. metrics compares estimates with truth.
    """

    estimates: np.ndarray
    stderrs: np.ndarray
    truth: np.ndarray
    projected: np.ndarray
    metrics: dict


def trace_distance(a, b) -> float:
    """(1/2) sum |eigenvalues of A - B| for hermitian A, B (density matrices or blocks)."""
    ma, mb = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    diff = ma - mb
    diff = (diff + diff.conj().T) / 2.0
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two matrices."""
    ma, mb = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return float(np.linalg.norm(ma - mb))


def project_physical(matrix) -> np.ndarray:
    """Hilbert-Schmidt-nearest density matrix to the hermitian part of a square matrix.

    Keeps the eigenvectors of the hermitian part and projects its eigenvalues
    onto the probability simplex, lambda_i -> max(lambda_i - t, 0) with the
    shift t that makes them sum to one (Smolin, Gambetta & Smith, PRL 108,
    070502 (2012)). The result is a hermitian array of unit trace with no
    negative eigenvalue, to rounding, and is not checked again. The map is
    total: t may be negative, so a block with no positive eigenvalue (shot
    noise on a small block) still has a nearest density matrix, and the zero
    matrix goes to I/d.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    herm = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    # Largest k whose top-k eigenvalues all stay positive after the shift.
    desc = w[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, len(w) + 1)
    t = shifts[np.nonzero(desc > shifts)[0][-1]]
    rho = (v * np.clip(w - t, 0.0, None)) @ v.conj().T
    return (rho + rho.conj().T) / 2.0


def reconstruct(phi: VibrationalState, nmax: int, settings: ProtocolSettings,
                use_hermitian_symmetry: bool = False) -> ReconstructionReport:
    """Measure every matrix element of the (nmax+1)-square block of rho_vibr.

    Each cell is one full protocol run. With use_hermitian_symmetry the lower
    triangle is filled from the conjugate upper triangle instead of being
    measured, halving the work at the cost of no longer exercising the
    element-independence property. The flag must be a bool.
    """
    if not isinstance(use_hermitian_symmetry, bool):
        raise ValueError(f"use_hermitian_symmetry must be a bool, got {use_hermitian_symmetry!r}")
    check_reach(nmax, settings, "nmax")
    size = nmax + 1
    estimates = np.zeros((size, size), dtype=complex)
    stderrs = np.zeros((size, size), dtype=float)
    for m in range(size):
        for n in range(size):
            if use_hermitian_symmetry and n < m:
                estimates[m, n] = np.conj(estimates[n, m])
                stderrs[m, n] = stderrs[n, m]
                continue
            est = measure_element(phi, m, n, settings)
            estimates[m, n] = est.value
            stderrs[m, n] = est.stderr
    truth = phi.density_matrix()[:size, :size]
    metrics = {
        "max_abs_error": float(np.max(np.abs(estimates - truth))),
        "trace_distance": trace_distance(estimates, truth),
        "hs_distance": hs_distance(estimates, truth),
    }
    projected = project_physical(estimates)
    return ReconstructionReport(estimates, stderrs, truth, projected, metrics)


@dataclass(frozen=True)
class MonitorPoint:
    """One monitor sample: dephasing strength, |rho_20|, and sqrt(rho_00 rho_22)."""

    lam: float
    rho20_abs: float
    bound: float


def decoherence_monitor(phi: VibrationalState, lambdas,
                        settings: ProtocolSettings) -> list[MonitorPoint]:
    """Track the 2-0 coherence against its positivity bound under growing dephasing.

    For each lambda the input is dephased once, and exactly three elements
    are measured, each by its own protocol run: (2, 0), (0, 0) and (2, 2).
    For any valid density operator |rho_20| <= sqrt(rho_00 rho_22), with
    equality on rank-one states. In sampled mode every lambda reuses the (seed, m, n) streams of
    the sampler (common random numbers), so the populations (0, 0) and
    (2, 2), which dephasing leaves unchanged, repeat their estimates from
    point to point instead of scattering, and the points differ only through
    the state. lambdas is a sequence, not a string, of real numbers
    (states.check_real).
    """
    if isinstance(lambdas, (str, bytes)):
        raise ValueError(f"lambdas must be a sequence of numbers, not the string {lambdas!r}")
    lambdas = [check_real(lam, f"lambdas[{i}]") for i, lam in enumerate(lambdas)]
    if not lambdas:
        raise ValueError("lambda list must not be empty")
    if lambdas != sorted(lambdas):
        raise ValueError("dephasing strengths must be sorted ascending")
    check_reach(2, settings, "monitor target m")
    points = []
    for lam in lambdas:
        dephased = dephase(phi, lam)
        r20, r00, r22 = (measure_element(dephased, m, n, settings)
                         for m, n in ((2, 0), (0, 0), (2, 2)))
        bound = float(np.sqrt(max(r00.value.real, 0.0) * max(r22.value.real, 0.0)))
        points.append(MonitorPoint(lam, abs(r20.value), bound))
    return points
