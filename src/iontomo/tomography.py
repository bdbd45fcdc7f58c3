"""Element-by-element reconstruction, physical projection, and quality metrics.

reconstruct() measures a square block of matrix elements, and
decoherence_monitor() its three cells for every point, each in one call of
the engine's entry (protocol._measure), which turns states and cells into
estimates: one sweep shares U_00 and the shifter ladder prefixes between
cells while every cell stays, bit for bit, its own run. This module sees
only the estimates, never a cell's images. By default no hermiticity
shortcut is taken, so the (n, m) cell really is measured through its own
composed unitary rather than copied from the conjugate of (m, n). The
monitor tracks |rho_20| against sqrt(rho_00 rho_22) without ever filling
the full block, and reads its three cells once for all its points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import protocol
from .protocol import ProtocolSettings, check_reach
from .states import VibrationalState, check_real, dephase


@dataclass
class ReconstructionReport:
    """Reconstructed block plus everything needed to judge it.

    estimates[m, n] is the measured <m| rho_vibr |n>; stderrs is zero in exact
    mode. truth is the same block of the known input, and projected is the
    Hilbert-Schmidt-nearest density matrix to the estimates (see
    project_physical); all four are plain (nmax+1)-square arrays, and nmax is
    the caller's. metrics compares estimates with truth. projected always has
    trace 1, so a truncated block, whose trace is below 1, is pulled up to it
    even when its estimates are exact: on a positive block of trace t each of
    its k eigenvalues is shifted up by (1 - t) / k.
    """

    estimates: np.ndarray
    stderrs: np.ndarray
    truth: np.ndarray
    projected: np.ndarray
    metrics: dict


def _finite(value, name: str) -> np.ndarray:
    """value as a complex array if it has an entry and every entry is finite; else a ValueError naming it."""
    m = np.asarray(value, dtype=complex)
    if m.size == 0 or not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be a nonempty array of finite numbers, got shape {m.shape}")
    return m


def _difference(a, b) -> np.ndarray:
    """a - b, for a and b nonempty, finite and of one shape; else a ValueError names the fault."""
    ma, mb = _finite(a, "a"), _finite(b, "b")
    if ma.shape != mb.shape:
        raise ValueError(f"shape mismatch {ma.shape} vs {mb.shape}")
    return ma - mb


def trace_distance(a, b) -> float:
    """(1/2) ||A - B||_1: half the sum of the singular values of A - B.

    For hermitian A, B (density matrices) that is half the sum of |eigenvalues|
    of A - B. A sampled or compat estimate is not hermitian, and its
    anti-hermitian error counts too. a and b must be nonempty, finite and of
    one shape; else a ValueError names the one that is not.
    """
    return 0.5 * float(np.linalg.norm(_difference(a, b), "nuc"))


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two nonempty, finite matrices of one shape.

    A ValueError names an argument that is empty or has a non-finite entry.
    """
    return float(np.linalg.norm(_difference(a, b)))


def project_physical(matrix) -> np.ndarray:
    """Hilbert-Schmidt-nearest density matrix to the hermitian part of a square matrix.

    Keeps the eigenvectors of the hermitian part and projects its eigenvalues
    onto the probability simplex, lambda_i -> max(lambda_i - t, 0) with the
    shift t that makes them sum to one (Smolin, Gambetta & Smith, PRL 108,
    070502 (2012)). The result is a hermitian array of unit trace with no
    negative eigenvalue, to rounding, and is not checked again. The map is
    total on nonempty, finite square matrices: t may be negative, so a block
    with no positive eigenvalue (shot noise on a small block) still has a
    nearest density matrix, and the zero matrix goes to I/d. Any other matrix
    is a ValueError.
    """
    m = _finite(matrix, "matrix")
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

    Each cell is one full protocol run; the block's runs are one call of the
    engine's entry (protocol._measure), whose sweep yields every cell bit for
    bit as its own run would. With use_hermitian_symmetry only the cells
    n >= m, about half, are measured and the lower triangle is filled from the
    conjugate upper one, at the cost of no longer exercising the
    element-independence property. Each row's V+ ladder still climbs from |0>,
    so an ideal block, whose rolls jump to the row's first target, takes about
    half the time, but a compiled one, whose ladder steps dominate, saves only
    15-30% at d = 30. The flag must be a bool.
    """
    if not isinstance(use_hermitian_symmetry, bool):
        raise ValueError(f"use_hermitian_symmetry must be a bool, got {use_hermitian_symmetry!r}")
    check_reach(nmax, settings, "nmax")
    size = nmax + 1
    cells = [(m, n) for m in range(size) for n in range(m if use_hermitian_symmetry else 0, size)]
    estimates = np.zeros((size, size), dtype=complex)
    stderrs = np.zeros((size, size), dtype=float)
    for m, n, [est] in protocol._measure([phi], cells, settings):
        estimates[m, n] = est.value
        stderrs[m, n] = est.stderr
    if use_hermitian_symmetry:
        lower = np.tril_indices(size, -1)
        estimates[lower] = estimates.T[lower].conj()
        stderrs[lower] = stderrs.T[lower]
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
    A dephased input is mixed, so all points are one call of the engine's
    entry (protocol._measure): the three cells' images are built once, on the
    d basis columns every point shares, and read against every point's matrix.
    For any valid density operator |rho_20| <= sqrt(rho_00 rho_22), with
    equality on rank-one states. In sampled mode every lambda reuses the (seed, m, n) streams of
    the sampler (common random numbers), so the populations (0, 0) and
    (2, 2), which dephasing leaves unchanged, repeat their estimates from
    point to point instead of scattering, and the points differ only through
    the state. lambdas is an iterable, not a string, of real numbers
    (states.check_real); a lone number, even a 0-d array, is a ValueError.
    """
    if isinstance(lambdas, (str, bytes)) or not np.iterable(lambdas):
        raise ValueError(f"lambdas must be a sequence of numbers, got {lambdas!r}")
    lambdas = [check_real(lam, f"lambdas[{i}]") for i, lam in enumerate(lambdas)]
    if not lambdas:
        raise ValueError("lambda list must not be empty")
    if lambdas != sorted(lambdas):
        raise ValueError("dephasing strengths must be sorted ascending")
    check_reach(2, settings, "monitor target m")
    states = [dephase(phi, lam) for lam in lambdas]
    values = [{} for _ in lambdas]
    for m, n, estimates in protocol._measure(states, [(2, 0), (0, 0), (2, 2)], settings):
        for cells, est in zip(values, estimates):
            cells[m, n] = est.value
    points = []
    for lam, cells in zip(lambdas, values):
        bound = float(np.sqrt(max(cells[0, 0].real, 0.0) * max(cells[2, 2].real, 0.0)))
        points.append(MonitorPoint(lam, abs(cells[2, 0]), bound))
    return points
