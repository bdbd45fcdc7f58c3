"""The public API: exactly the names the iontomo package exports."""

import inspect

import iontomo

PUBLIC = {
    "DegenerateInputError", "TruncationLeakageError",
    "MINUS", "PLUS", "XI", "HilbertDims",
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
