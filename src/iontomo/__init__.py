"""Vibrational-state tomography for a three-level ion in a two-mode trap.

Prepares a composite electronic/two-mode state, applies a composed pulse
unitary, and reads single density-matrix elements <m| rho_vibr |n> out of
transverse pseudospin expectations, one element per protocol run.
"""

from .errors import DegenerateInputError, TruncationLeakageError
from .hilbert import (
    MINUS,
    PLUS,
    XI,
    DensityOperator,
    HilbertDims,
    Operator,
    PureState,
    annihilator,
    apply,
    basis_state,
    electronic_op,
    expectation,
    pauli,
    unitary_from_generator,
)
from .protocol import (
    CoherenceEstimate,
    ProtocolSettings,
    coherence_expectation,
    coherence_sampled,
    measure_element,
    measure_prepared,
    prepare_initial,
    prepare_vibrational,
    u00,
    u_mn,
    v_minus_compiled,
    v_minus_ideal,
    v_plus_compiled,
    v_plus_ideal,
)
from .pulses import PulseSpec, act_pulse, compile_pulse, h_ajc, h_carrier, h_jc, l_y, r_electronic, r_vibr
from .states import VibrationalState, cat, coherent, dephase, fock, from_amplitudes, squeezed, thermal
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
