"""Vibrational-state tomography for a three-level ion in a two-mode trap.

Prepares a composite electronic/two-mode state, applies a composed pulse
unitary, and reads single density-matrix elements <m| rho_vibr |n> out of
transverse pseudospin expectations, one element per protocol run.
"""

from .hilbert import MINUS, PLUS, XI
from .protocol import CoherenceEstimate, ProtocolSettings, measure_element
from .pulses import PulseSpec, act_pulse
from .states import (
    TruncationLeakageError,
    VibrationalState,
    cat,
    coherent,
    dephase,
    fock,
    from_amplitudes,
    squeezed,
    thermal,
)
from .tomography import (
    MonitorPoint,
    ReconstructionReport,
    decoherence_monitor,
    hs_distance,
    project_physical,
    reconstruct,
    trace_distance,
)

__version__ = "0.1.0"
