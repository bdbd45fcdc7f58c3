"""The benchmark's workloads: inputs made from a seed, and independent output checks.

Each workload turns a seed into an iontomo config plus CLI arguments (a
Case), and checks the CLI's output against numpy computations made here from
closed forms. No check reads `truth` or any other field in which the program
describes its own result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The one check expected to fail: project_physical clips negative eigenvalues
# and renormalises, which is not the Hilbert-Schmidt-nearest density matrix.
KNOWN_FAULT = "projected-is-hs-nearest"

EXACT_TOL = 1e-9
SAMPLED_SIGMAS = 5.0
SAMPLED_COVERAGE = 0.95


@dataclass(frozen=True)
class Case:
    """One workload instance: what to run, how many cells it yields, how to check it."""

    workload: str
    subcommand: str
    config: dict
    args: tuple[str, ...]
    cells: int
    check_names: tuple[str, ...]
    check: Callable[[dict], dict[str, bool]]

    def run_checks(self, payload: dict | None) -> dict[str, bool]:
        """Result of every named check; all fail when there is no payload to check."""
        if payload is None:
            return dict.fromkeys(self.check_names, False)
        try:
            results = self.check(payload)
        except (KeyError, IndexError, TypeError, ValueError):
            results = {}
        return {name: bool(results.get(name, False)) for name in self.check_names}


# ---------------------------------------------------------------------------
# closed forms

def coherent_rho(alpha: complex, dim: int) -> np.ndarray:
    """exp(-|a|^2) a^m conj(a)^n / sqrt(m! n!) for m, n < dim, divided by its trace there.

    The library renormalises a truncated state on the cutoff, so the closed
    form is divided by the population it keeps below the cutoff.
    """
    c = np.array([alpha ** k / math.sqrt(math.factorial(k)) for k in range(dim)], dtype=complex)
    rho = math.exp(-abs(alpha) ** 2) * np.outer(c, c.conj())
    return rho / np.trace(rho).real


def thermal_diag(nbar: float, dim: int) -> np.ndarray:
    """Geometric populations (1-q) q^n / (1 - q^dim), q = nbar / (1 + nbar)."""
    q = nbar / (1.0 + nbar)
    return (1.0 - q) * q ** np.arange(dim) / (1.0 - q ** dim)


def nearest_density_matrix(matrix: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt-nearest density matrix of a square matrix.

    Hermitise, then project the eigenvalues onto the probability simplex
    (Smolin, Gambetta & Smith, PRL 108, 070502 (2012), in the form that also
    handles a trace other than one) and keep the eigenvectors.
    """
    herm = (matrix + matrix.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    u = w[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    rho = ks[u - (css - 1.0) / ks > 0][-1]
    theta = (css[rho - 1] - 1.0) / rho
    lam = np.clip(w - theta, 0.0, None)
    return (v * lam) @ v.conj().T


def _complex_grid(rows) -> np.ndarray:
    return np.array([[complex(c["re"], c["im"]) for c in row] for row in rows])


def _alpha_record(alpha: complex) -> dict:
    return {"re": alpha.real, "im": alpha.imag}


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Size:
    """Cutoff-dependent parameters of the three workloads (full run or smoke)."""

    block_d: int
    block_nmax: int
    block_nbar: float
    block_tail_tol: float
    monitor_d: int
    monitor_points: int
    monitor_radius: tuple[float, float]
    cold_d: int
    cold_radius: tuple[float, float]
    cold_nbar: tuple[float, float]
    cold_kmax: int
    tail_tol: float


FULL = Size(block_d=12, block_nmax=5, block_nbar=0.5, block_tail_tol=1e-5,
            monitor_d=12, monitor_points=11, monitor_radius=(0.5, 1.2),
            cold_d=20, cold_radius=(1.0, 1.6), cold_nbar=(0.5, 1.0), cold_kmax=5,
            tail_tol=1e-5)
SMOKE = Size(block_d=4, block_nmax=2, block_nbar=0.2, block_tail_tol=1e-3,
             monitor_d=4, monitor_points=3, monitor_radius=(0.3, 0.5),
             cold_d=5, cold_radius=(0.3, 0.6), cold_nbar=(0.1, 0.3), cold_kmax=2,
             tail_tol=2e-2)

# The block's sampling seed is fixed, not drawn from the benchmark seed: its
# project_physical check is the known failing operation and must see the same
# input on every run.
BLOCK_SHOTS = 100_000
BLOCK_SEED = 2002


def block_compiled_sampled(seed: int, size: Size) -> Case:
    d, nmax, nbar = size.block_d, size.block_nmax, size.block_nbar
    config = {"dims": {"dx": d, "dz": d},
              "state": {"kind": "thermal", "nbar": nbar, "tail_tol": size.block_tail_tol},
              "nmax": nmax, "v_mode": "compiled", "shots": BLOCK_SHOTS, "seed": BLOCK_SEED}
    cells = nmax + 1
    truth = np.diag(thermal_diag(nbar, d)[:cells]).astype(complex)

    def check(payload):
        report = payload["report"]
        est_rows = report["estimates"]
        est = _complex_grid(est_rows)
        stderr = np.array([[c["stderr"] for c in row] for row in est_rows], dtype=float)
        projected = _complex_grid(report["projected"])
        well_formed = (report["nmax"] == nmax and est.shape == (cells, cells)
                       and projected.shape == (cells, cells)
                       and bool(np.all(stderr > 0)) and bool(np.all(np.isfinite(est))))
        within = np.abs(est - truth) <= SAMPLED_SIGMAS * stderr
        eig = np.linalg.eigvalsh((projected + projected.conj().T) / 2.0)
        physical = (float(np.max(np.abs(projected - projected.conj().T))) <= 1e-12
                    and abs(np.trace(projected).real - 1.0) <= EXACT_TOL
                    and float(eig[0]) >= -1e-12)
        nearest = nearest_density_matrix(est)
        return {
            "output-well-formed": well_formed,
            "sampled-within-5-stderr": float(np.mean(within)) >= SAMPLED_COVERAGE,
            "projected-is-density-matrix": physical,
            KNOWN_FAULT: float(np.max(np.abs(projected - nearest))) <= EXACT_TOL,
        }

    return Case("block-compiled-sampled", "reconstruct", config, (), cells * cells,
                ("output-well-formed", "sampled-within-5-stderr",
                 "projected-is-density-matrix", KNOWN_FAULT), check)


def monitor_sweep(seed: int, size: Size) -> Case:
    rng = np.random.default_rng([seed, 2])
    d = size.monitor_d
    radius = rng.uniform(*size.monitor_radius)
    alpha = complex(radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    lambdas = [0.0] + sorted(round(float(x), 3) for x in rng.uniform(0.0, 1.5, size.monitor_points - 1))
    config = {"dims": {"dx": d, "dz": d},
              "state": {"kind": "coherent", "alpha": _alpha_record(alpha), "tail_tol": size.tail_tol},
              "v_mode": "ideal", "shots": None, "seed": 0}
    rho = coherent_rho(alpha, d)
    rho20 = np.abs(rho[2, 0]) * np.exp(-4.0 * np.array(lambdas))
    bound = math.sqrt(rho[0, 0].real * rho[2, 2].real)

    def check(payload):
        series = payload["series"]
        got_lam = np.array([p["lambda"] for p in series], dtype=float)
        got_abs = np.array([p["rho20_abs"] for p in series], dtype=float)
        got_bound = np.array([p["bound"] for p in series], dtype=float)
        well_formed = len(series) == len(lambdas) and bool(np.all(got_lam == np.array(lambdas)))
        ratio = got_abs / got_bound
        return {
            "output-well-formed": well_formed,
            "rho20-within-bound": bool(np.all(got_abs <= got_bound + EXACT_TOL)),
            "pure-ratio-is-exp-4lambda": bool(np.all(np.abs(ratio - np.exp(-4.0 * got_lam)) <= EXACT_TOL)),
            "points-match-closed-form": bool(np.all(np.abs(got_abs - rho20) <= EXACT_TOL)
                                             and np.all(np.abs(got_bound - bound) <= EXACT_TOL)),
        }

    args = ("--lambdas", ",".join(repr(x) for x in lambdas))
    return Case("monitor-sweep", "monitor", config, args, 3 * len(lambdas),
                ("output-well-formed", "rho20-within-bound", "pure-ratio-is-exp-4lambda",
                 "points-match-closed-form"), check)


def cold_cell_d20(seed: int, size: Size) -> Case:
    """Even seeds read a coherent-state coherence, odd seeds a thermal population."""
    rng = np.random.default_rng([seed, 3])
    d = size.cold_d
    if seed % 2 == 0:
        radius = rng.uniform(*size.cold_radius)
        alpha = complex(radius * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        m, n = (int(k) for k in rng.integers(0, size.cold_kmax + 1, 2))
        state = {"kind": "coherent", "alpha": _alpha_record(alpha), "tail_tol": size.tail_tol}
        expected = coherent_rho(alpha, d)[m, n]
    else:
        nbar = float(rng.uniform(*size.cold_nbar))
        m = n = int(rng.integers(0, size.cold_kmax + 1))
        state = {"kind": "thermal", "nbar": nbar, "tail_tol": size.tail_tol}
        expected = thermal_diag(nbar, d)[m]
    config = {"dims": {"dx": d, "dz": d}, "state": state,
              "v_mode": "ideal", "shots": None, "seed": 0}

    def check(payload):
        value = complex(payload["value"]["re"], payload["value"]["im"])
        return {
            "output-well-formed": (payload["m"] == m and payload["n"] == n
                                   and payload["stderr"] == 0 and payload["shots"] == 0),
            "cell-matches-closed-form": abs(value - expected) <= EXACT_TOL,
        }

    return Case("cold-cell-d20", "coherence", config, ("--m", str(m), "--n", str(n)), 1,
                ("output-well-formed", "cell-matches-closed-form"), check)


WORKLOADS = {
    "block-compiled-sampled": block_compiled_sampled,
    "monitor-sweep": monitor_sweep,
    "cold-cell-d20": cold_cell_d20,
}
