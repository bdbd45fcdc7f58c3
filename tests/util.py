"""Shared test helpers.

expm_taylor and the random matrices are kept independent of the package's own
linear algebra paths; anti_jc builds the anti-Jaynes-Cummings generator, which
no pulse kind names, from the oracle's factors; tensor, act and full_action run
the engine's pulse actions on flat composite-space vectors, for comparison with
the dense oracle; subcommand_parsers reads the CLI's options off its own parser.
"""

import argparse

import numpy as np

import oracle
from iontomo.cli import _build_parser
from iontomo.hilbert import LEVEL_NAMES
from iontomo.pulses import act_pulse

# <2| rho |0> of the coherent state alpha = 0.8: exp(-0.64) * 0.64 / sqrt(2)
RHO20_COH08 = 0.23862531117384456


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


def anti_jc(levels, mode, phase, dims) -> np.ndarray:
    """The dense anti-Jaynes-Cummings generator e^{i phase} a |l><j| + h.c.: phonon -1 on l <- j."""
    l, j = (LEVEL_NAMES.index(x) for x in levels)
    term = np.exp(1j * phase) * oracle.electronic(l, j, dims) @ oracle.annihilator(mode, dims)
    return term + term.conj().T


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


def subcommand_parsers() -> dict:
    """Each CLI subcommand's name and its argparse parser, as the CLI builds them."""
    (subparsers,) = [action for action in _build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices
