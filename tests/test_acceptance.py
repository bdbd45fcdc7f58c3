"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from iontomo.hilbert import XI
from iontomo.protocol import (
    ProtocolSettings,
    _slice_images,
    entangled_target_deviation,
    measure_element,
    mode_swap_deviation,
    pulse_unitarity_defect,
    shifter_deviation,
    v_minus_schedule,
    v_plus_schedule,
)
from iontomo.states import cat, coherent, dephase, fock, thermal
from iontomo.tomography import decoherence_monitor, reconstruct

D12 = 12


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _phi_family(dim: int):
    return [
        ("fock0", fock(0, dim)),
        ("fock2", fock(2, dim)),
        ("coherent08", coherent(0.8, dim, tail_tol=1e-9 if dim >= 12 else 1e-5)),
        ("cat12", cat(1.2, "even", dim, tail_tol=1e-6 if dim >= 12 else 1e-3)),
    ]


def _amplitudes(family):
    """The inputs' amplitude vectors as the columns of a (d, r) matrix."""
    return np.stack([phi.amplitudes for _, phi in family], axis=1)


def test_criterion_1_mode_swap_convention():
    start = time.perf_counter()
    worst = mode_swap_deviation(10, range(9))
    elapsed = time.perf_counter() - start
    _report(1, "mode swap sends |n,0> to |0,n> with amplitude +1",
            worst <= 1e-10 and elapsed < 1.0,
            f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_end_to_end_entangled_state():
    start = time.perf_counter()
    worst = {"ideal": 0.0, "compiled": 0.0}
    amplitudes = _amplitudes(_phi_family(12))
    for v_mode in ("ideal", "compiled"):
        settings = ProtocolSettings(D12, v_mode=v_mode)
        for m in range(3):
            for n in range(3):
                worst[v_mode] = max(worst[v_mode],
                                    entangled_target_deviation(settings, m, n, amplitudes))
    elapsed = time.perf_counter() - start
    ok = worst["ideal"] <= 1e-9 and worst["compiled"] <= 1e-7 and elapsed < 30.0
    _report(2, "composed unitary produces the entangled target state", ok,
            f"ideal {worst['ideal']:.2e}, compiled {worst['compiled']:.2e}, {elapsed:.1f}s")


def test_criterion_3_pure_state_identity():
    alpha = 0.8
    phi = coherent(alpha, 12, tail_tol=1e-9)
    settings = ProtocolSettings(D12)
    worst = 0.0
    values = {}
    for m in range(6):
        for n in range(6):
            est = measure_element(phi, m, n, settings)
            oracle = (math.exp(-alpha ** 2) * alpha ** (m + n)
                      / math.sqrt(math.factorial(m) * math.factorial(n)))
            worst = max(worst, abs(est.value - oracle))
            values[(m, n)] = est.value
    spot_ok = (abs(values[(0, 0)].real - 0.5272924240430485) < 1e-6
               and abs(values[(1, 0)].real - 0.42183393923443885) < 1e-6
               and abs(values[(2, 0)].real - 0.23862531117384456) < 1e-6)
    _report(3, "measured elements match the closed-form coherent-state matrix",
            worst <= 1e-9 and spot_ok, f"max |error| {worst:.2e}")


def test_criterion_4_mixed_state_identity():
    settings = ProtocolSettings(8)
    worst = 0.0
    for phi in (thermal(0.5, 8, tail_tol=1e-3),
                dephase(coherent(0.8, 8, tail_tol=1e-5), 0.3)):
        report = reconstruct(phi, 4, settings)
        worst = max(worst, report.metrics["max_abs_error"])
    _report(4, "mixed-state reconstruction matches ground truth elementwise",
            worst <= 1e-9, f"max |error| {worst:.2e}")


def test_criterion_5_independence_hermiticity():
    settings = ProtocolSettings(8)
    phi = dephase(coherent(0.7 + 0.2j, 8, tail_tol=1e-4), 0.1)
    report = reconstruct(phi, 4, settings, use_hermitian_symmetry=False)
    worst = max(abs(report.estimates[m, n] - np.conj(report.estimates[n, m]))
                for m in range(5) for n in range(5))
    _report(5, "independently measured (m,n) and (n,m) cells are conjugates",
            worst <= 1e-9, f"max |asymmetry| {worst:.2e}")


def test_criterion_6_compiled_vs_ideal_shifters():
    # the full basis: every branch and spectator state, and full unitarity of each pulse
    n = 3 * D12 * D12
    basis = np.eye(n, dtype=complex).reshape(3, D12, D12, n)
    worst_agree = max(shifter_deviation(k, basis) for k in range(5))
    specs = [spec for k in range(5) for spec in v_plus_schedule(k) + v_minus_schedule(k)]
    worst_unitary = pulse_unitarity_defect(specs, basis)
    _report(6, "compiled shifters agree with ideal on the protocol subspace",
            worst_agree <= 1e-8 and worst_unitary <= 1e-10,
            f"agreement {worst_agree:.2e}, unitarity defect {worst_unitary:.2e}")


def test_criterion_7_finite_shot_statistics():
    phi = coherent(0.8, 8, tail_tol=1e-5)
    cells = [(m, n) for m in range(4) for n in range(4)]
    exact = {(m, n): measure_element(phi, m, n, ProtocolSettings(8)).value
             for m, n in cells}

    def run_errors(shots):
        within = 0
        total = 0
        errors = []
        for seed in range(32):
            settings = ProtocolSettings(8, shots=shots, seed=seed)
            for m, n in cells:
                est = measure_element(phi, m, n, settings)
                err = abs(est.value - exact[(m, n)])
                errors.append(err)
                total += 1
                if err <= 5 * est.stderr:
                    within += 1
        return within / total, float(np.median(errors))

    frac, median_1x = run_errors(100_000)
    _, median_4x = run_errors(400_000)
    ratio = median_1x / median_4x
    ok = frac >= 0.95 and 1.6 <= ratio <= 2.5
    _report(7, "sampled estimates sit within 5 sigma and scale as 1/sqrt(shots)",
            ok, f"coverage {frac:.3f}, median ratio {ratio:.2f}")


def test_criterion_8_decoherence_monitor():
    settings = ProtocolSettings(8)
    lams = [0.0, 0.1, 0.3, 0.6, 1.0]
    points = decoherence_monitor(coherent(0.8, 8, tail_tol=1e-5), lams, settings)
    bound_ok = all(p.rho20_abs <= p.bound + 1e-9 for p in points)
    equality_ok = abs(points[0].rho20_abs - points[0].bound) <= 1e-9
    base = points[0].rho20_abs
    ratio_ok = all(abs(p.rho20_abs - base * math.exp(-4 * p.lam)) <= 1e-9 for p in points)
    # the minor inequality also holds on a mixed input
    mixed = decoherence_monitor(thermal(0.5, 8, tail_tol=1e-3), [0.0, 0.2], settings)
    mixed_ok = all(p.rho20_abs <= p.bound + 1e-9 for p in mixed)
    _report(8, "monitor obeys the positivity bound and the dephasing ratio",
            bound_ok and equality_ok and ratio_ok and mixed_ok)


def test_criterion_9_final_pulse_regression():
    settings = ProtocolSettings(D12, compat_rminus_final=True)
    family = _phi_family(12)
    amplitudes = _amplitudes(family)
    out = _slice_images(0, 0, settings, amplitudes)
    min_xi = float(np.min(np.sum(np.abs(out[XI]) ** 2, axis=(0, 1))))
    max_resid = entangled_target_deviation(settings, 0, 0, amplitudes)
    ok = min_xi > 0.05 and max_resid > 1e-7
    _report(9, "historical final-pulse ordering fails with stray xi population",
            ok, f"min xi population {min_xi:.3f}")
