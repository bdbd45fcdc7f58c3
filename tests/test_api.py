"""The public API: exactly the names the iontomo package exports, and one type rule for their numbers."""

import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest

import iontomo
from iontomo import (
    ProtocolSettings,
    PulseSpec,
    VibrationalState,
    cat,
    coherent,
    decoherence_monitor,
    dephase,
    fock,
    from_amplitudes,
    measure_element,
    reconstruct,
    squeezed,
    thermal,
)

PUBLIC = {
    "TruncationLeakageError",
    "MINUS", "PLUS", "XI",
    "CoherenceEstimate", "ProtocolSettings", "measure_element",
    "PulseSpec", "act_pulse",
    "VibrationalState", "cat", "coherent", "dephase", "fock", "from_amplitudes", "squeezed", "thermal",
    "MonitorPoint", "ReconstructionReport", "decoherence_monitor", "hs_distance", "project_physical",
    "reconstruct", "trace_distance",
}


def test_public_names_are_pinned():
    # a change to this set is a change to the public API, and says so here
    exported = {name for name, obj in vars(iontomo).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == PUBLIC


PHI = fock(0, 4)
SETTINGS = ProtocolSettings(4)

# Every number argument of a public callable: (id, the call with that argument set to x,
# the name its error gives it, what it must be, a valid value). CoherenceEstimate,
# MonitorPoint and ReconstructionReport are the engine's results and take no caller's
# numbers; the array arguments of act_pulse and the distances are not numbers, and a
# PulseSpec's levels are names (tests/test_pulses.py).
NUMBER_ARGUMENTS = [
    ("ProtocolSettings-d", lambda x: ProtocolSettings(x), "d", "int", 4),
    ("ProtocolSettings-shots", lambda x: ProtocolSettings(4, shots=x), "shots", "int-or-none", 10),
    ("ProtocolSettings-seed", lambda x: ProtocolSettings(4, seed=x), "seed", "int", 3),
    ("measure_element-m", lambda x: measure_element(PHI, x, 0, SETTINGS), "target m", "int", 1),
    ("measure_element-n", lambda x: measure_element(PHI, 0, x, SETTINGS), "target n", "int", 1),
    ("reconstruct-nmax", lambda x: reconstruct(PHI, x, SETTINGS), "nmax", "int", 1),
    ("decoherence_monitor-lambdas", lambda x: decoherence_monitor(PHI, [x], SETTINGS),
     "lambdas[0]", "real", 0.1),
    ("PulseSpec-angle", lambda x: PulseSpec("carrier", ("+", "xi"), "x", x), "pulse angle", "real", 0.5),
    ("PulseSpec-phase", lambda x: PulseSpec("carrier", ("+", "xi"), "x", 0.5, x),
     "pulse phase", "real", 1.0),
    ("VibrationalState-dim", lambda x: VibrationalState(x, amplitudes=[1, 0]), "dim", "int", 2),
    ("VibrationalState-tail_mass", lambda x: VibrationalState(2, amplitudes=[1, 0], tail_mass=x),
     "tail_mass", "real", 0.0),
    ("fock-n", lambda x: fock(x, 4), "n", "int", 1),
    ("fock-dim", lambda x: fock(1, x), "dim", "int", 4),
    ("coherent-alpha", lambda x: coherent(x, 8, 1e-3), "alpha", "number", 0.5),
    ("coherent-dim", lambda x: coherent(0.5, x, 1e-3), "dim", "int", 8),
    ("coherent-tail_tol", lambda x: coherent(0.5, 8, x), "tail_tol", "real", 1e-3),
    ("squeezed-r", lambda x: squeezed(x, 0.2, 8, 1e-3), "r", "real", 0.1),
    ("squeezed-phi", lambda x: squeezed(0.1, x, 8, 1e-3), "phi", "real", 0.2),
    ("squeezed-dim", lambda x: squeezed(0.1, 0.2, x, 1e-3), "dim", "int", 8),
    ("squeezed-tail_tol", lambda x: squeezed(0.1, 0.2, 8, x), "tail_tol", "real", 1e-3),
    ("cat-alpha", lambda x: cat(x, "even", 8, 1e-3), "alpha", "number", 0.5),
    ("cat-dim", lambda x: cat(0.5, "even", x, 1e-3), "dim", "int", 8),
    ("cat-tail_tol", lambda x: cat(0.5, "even", 8, x), "tail_tol", "real", 1e-3),
    ("thermal-nbar", lambda x: thermal(x, 8, 1e-3), "nbar", "real", 0.1),
    ("thermal-dim", lambda x: thermal(0.1, x, 1e-3), "dim", "int", 8),
    ("thermal-tail_tol", lambda x: thermal(0.1, 8, x), "tail_tol", "real", 1e-3),
    ("dephase-lam", lambda x: dephase(PHI, x), "dephasing strength lam", "real", 0.1),
    ("from_amplitudes-dim", lambda x: from_amplitudes([1, 0], x), "dim", "int-or-none", 2),
]

# Values of the wrong type for each kind of argument. None is valid where the argument is
# optional.
WRONG = {
    "int": (None, True, np.True_, "1", 1.5),
    "int-or-none": (True, np.True_, "1", 1.5),
    "real": (None, True, np.True_, "1", 1j),
    "number": (None, True, np.True_, "1"),
}
NUMPY = {
    "int": (np.int64, np.int32), "int-or-none": (np.int64, np.int32),
    "real": (np.float64, np.float32), "number": (np.float64, np.complex128),
}


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=f"{case}-{value!r}")
    for case, call, name, kind, _ in NUMBER_ARGUMENTS for value in WRONG[kind]
])
def test_wrong_number_type_is_named_value_error(call, name, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(value)


def assert_same_result(got, want):
    """got == want on every field, item and array, with every number a Python number."""
    assert type(got) is type(want)
    if dataclasses.is_dataclass(got):
        for field in dataclasses.fields(got):
            assert_same_result(getattr(got, field.name), getattr(want, field.name))
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_result(a, b)
    elif isinstance(got, dict):
        assert got.keys() == want.keys()
        for key in got:
            assert_same_result(got[key], want[key])
    elif isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert type(got) in (int, float, complex, bool, str, type(None)), type(got)
        assert got == want


# A numpy number gives, bit for bit and with no warning, what the equal Python number gives.
# A uint8 strength is the case where numpy arithmetic wraps (-np.uint8(1) is 255).
@pytest.mark.parametrize("call,value", [
    *(pytest.param(call, numpy_type(good), id=f"{case}-{numpy_type.__name__}")
      for case, call, _, kind, good in NUMBER_ARGUMENTS for numpy_type in NUMPY[kind]),
    pytest.param(lambda x: dephase(PHI, x), np.uint8(1), id="dephase-lam-uint8"),
])
def test_numpy_numbers_are_accepted(call, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = call(value)
    assert not caught, [str(w.message) for w in caught]
    assert_same_result(got, call(value.item()))


# A number that is no finite float, and so must not reach numpy: NaN, +-inf, and a Python
# int past the float range (which float() and math functions turn into an OverflowError).
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "int-past-float": 10 ** 400}


def raises_named_value_error_without_warning(call, value, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be ") as err:
            call(value)
    assert type(err.value) is ValueError
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=f"{case}-{label}")
    for case, call, name, kind, _ in NUMBER_ARGUMENTS if kind in ("real", "number")
    for label, value in {**NON_FINITE, **({"complex-nan": complex("nan")} if kind == "number" else {})}.items()
])
def test_non_finite_number_is_named_value_error(call, name, value):
    raises_named_value_error_without_warning(call, value, name)


# tail_mass is a discarded population, so it lies in [0, 1].
@pytest.mark.parametrize("value", [-1.0, 1.5])
def test_tail_mass_outside_unit_interval_is_named_value_error(value):
    raises_named_value_error_without_warning(
        lambda x: VibrationalState(2, amplitudes=[1, 0], tail_mass=x), value, "tail_mass")
