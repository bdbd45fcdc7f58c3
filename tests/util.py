"""Shared test helpers.

expm_taylor and the random matrices are kept independent of the package's own
linear algebra paths; tensor, act and full_action run the engine's pulse actions
on flat composite-space vectors, for comparison with the dense oracle.
"""

import numpy as np

from iontomo.pulses import act_pulse


def expm_taylor(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a plain Taylor series.

    Deliberately avoids the eigendecomposition route used by the package so
    exponential-based checks are a genuinely independent second opinion.
    """
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    small = m / (2 ** squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ small / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def tensor(vector, dims) -> np.ndarray:
    """A flat vector on the (dx, dz) composite space as the (3, dx, dz, 1) tensor the engine acts on."""
    return np.array(vector, dtype=complex).reshape(3, *dims, 1)


def act(spec, vector, dims) -> np.ndarray:
    """act_pulse on one flat composite-space vector, returned flat."""
    return act_pulse(spec, tensor(vector, dims)).reshape(-1)


def full_action(spec, dims) -> np.ndarray:
    """The N x N matrix of act_pulse, one basis column at a time."""
    n = 3 * dims[0] * dims[1]
    return act_pulse(spec, np.eye(n, dtype=complex).reshape(3, *dims, n)).reshape(n, n)
