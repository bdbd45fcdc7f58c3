"""Dense reference for the slice engine: the protocol as explicit N x N matrices, N = 3 dx dz.

Plain numpy, for small cutoffs only. dims is the (dx, dz) pair of Fock cutoffs,
which may differ: the engine's pulse actions take any (3, dx, dz, r) tensor. The
flat index of |e>|nx>_x|nz>_z is e dx dz + nx dz + nz, the row-major order of
those tensors. Electronic levels are indices here (hilbert.MINUS, PLUS, XI);
only hamiltonian reads a PulseSpec's level names.
Each pulse is exp(i angle H) from an eigendecomposition of its dense
generator H, cross-checked against the series exponential of tests/util.py.
The mode swap (vrot) is built at cutoff dx + dz - 1 and restricted to the
box, so no truncation enters the blocks of total phonon number it touches.
Nothing here is cached; tests that sweep many cells build the shared factors
once themselves (see schedule).
"""

import numpy as np

from iontomo.hilbert import LEVEL_NAMES, MINUS, PLUS, XI
from iontomo.protocol import ladder_schedule, u00_schedule


def size(dims) -> int:
    """N = 3 dx dz, the dimension of the composite space."""
    dx, dz = dims
    return 3 * dx * dz


def index(dims, e, nx, nz) -> int:
    """Flat index of |e>|nx>_x|nz>_z, e the level's index."""
    dx, dz = dims
    return e * dx * dz + nx * dz + nz


def basis(dims, e, nx, nz) -> np.ndarray:
    v = np.zeros(size(dims), dtype=complex)
    v[index(dims, e, nx, nz)] = 1.0
    return v


def electronic(l, j, dims) -> np.ndarray:
    """|l><j| on the electronic factor, identity on both modes; l and j are level indices."""
    e = np.zeros((3, 3), dtype=complex)
    e[l, j] = 1.0
    return np.kron(e, np.eye(dims[0] * dims[1]))


def annihilator(mode, dims) -> np.ndarray:
    """Truncated a of mode 'x' or 'z', identity on the other mode and the electronic factor."""
    if mode not in ("x", "z"):
        raise ValueError(f"mode must be 'x' or 'z', got {mode!r}")
    dx, dz = dims
    a = np.diag(np.sqrt(np.arange(1.0, dx if mode == "x" else dz)), 1)
    factors = (a, np.eye(dz)) if mode == "x" else (np.eye(dx), a)
    return np.kron(np.eye(3), np.kron(*factors)).astype(complex)


def pauli(l, j, axis, dims) -> np.ndarray:
    """x: |l><j| + |j><l|,  y: i(|l><j| - |j><l|),  z: |j><j| - |l><l| on the {l, j} pair."""
    if l == j:
        raise ValueError("pauli requires two distinct electronic levels")
    lj = electronic(l, j, dims)
    return {"x": lj + lj.conj().T,
            "y": 1j * (lj - lj.conj().T),
            "z": electronic(j, j, dims) - electronic(l, l, dims)}[axis]


def l_y(dims) -> np.ndarray:
    """i(a-dag_x a_z - a-dag_z a_x), identity on the electronic factor."""
    ax, az = annihilator("x", dims), annihilator("z", dims)
    return 1j * (ax.conj().T @ az - az.conj().T @ ax)


def unitary(generator, theta) -> np.ndarray:
    """exp(i theta G) of a hermitian G by eigendecomposition."""
    g = np.asarray(generator, dtype=complex)
    if np.max(np.abs(g - g.conj().T)) > 1e-12:
        raise ValueError("generator is not hermitian within 1e-12")
    w, v = np.linalg.eigh(g)
    return (v * np.exp(1j * theta * w)) @ v.conj().T


def hamiltonian(spec, dims) -> np.ndarray:
    """The generator H of a pulse, whose unitary is exp(i angle H)."""
    l, j = (LEVEL_NAMES.index(x) for x in spec.levels)
    if spec.kind == "vrot":
        return pauli(PLUS, XI, "x", dims) @ l_y(dims)
    vib = annihilator(spec.mode, dims).conj().T if spec.kind == "jc" else np.eye(size(dims))
    term = np.exp(1j * spec.phase) * electronic(l, j, dims) @ vib
    return term + term.conj().T


def pulse(spec, dims) -> np.ndarray:
    """exp(i angle H) on the (dx, dz) box.

    A box state has total phonon number K <= dx + dz - 2, and L_y couples a K block only
    within itself, so at cutoff dx + dz - 1 on both modes every block the box touches is
    whole: the mode swap is built there and restricted to the box.
    """
    if spec.kind != "vrot":
        return unitary(hamiltonian(spec, dims), spec.angle)
    big = (dims[0] + dims[1] - 1,) * 2
    box = [index(big, e, nx, nz) for e in range(3) for nx in range(dims[0]) for nz in range(dims[1])]
    return unitary(hamiltonian(spec, big), spec.angle)[np.ix_(box, box)]


def schedule(specs, dims, built=None) -> np.ndarray:
    """Product of the pulses in application order; a caller's dict `built` shares pulses across calls."""
    built = {} if built is None else built
    u = np.eye(size(dims), dtype=complex)
    for spec in specs:
        if spec not in built:
            built[spec] = pulse(spec, dims)
        u = built[spec] @ u
    return u


def shift(dims, sector, axis, k, completion="cycle") -> np.ndarray:
    """Permutation moving one mode's Fock index of one electronic sector by |0> -> |k>.

    'cycle' completes it as j -> j + k mod d, 'swap' as the transposition 0 <-> k.
    """
    dx, dz = dims
    d = dx if axis == "x" else dz
    perm = np.arange(d)
    if completion == "cycle":
        perm = (perm + k) % d
    else:
        perm[0], perm[k] = k, 0
    source = np.arange(size(dims)).reshape(3, dx, dz)
    target = source.copy()
    target[sector] = source[sector][perm, :] if axis == "x" else source[sector][:, perm]
    u = np.zeros((size(dims), size(dims)), dtype=complex)
    u[target, source] = 1.0
    return u


def u00(dims, compat=False) -> np.ndarray:
    return schedule(u00_schedule(compat), dims)


def protocol_dims(settings) -> tuple[int, int]:
    """The (dx, dz) of a protocol run: both modes at the settings' one cutoff d."""
    return settings.d, settings.d


def v_minus(m, settings, completion="cycle", built=None) -> np.ndarray:
    if settings.v_mode == "compiled":
        return schedule(ladder_schedule(m, MINUS), protocol_dims(settings), built)
    return shift(protocol_dims(settings), MINUS, "z", m, completion)


def v_plus(n, settings, completion="cycle", built=None) -> np.ndarray:
    if settings.v_mode == "compiled":
        return schedule(ladder_schedule(n, PLUS), protocol_dims(settings), built)
    return shift(protocol_dims(settings), PLUS, "x", n, completion)


def u_mn(m, n, settings, completion="cycle") -> np.ndarray:
    """V+_n V-_m U_00."""
    return (v_plus(n, settings, completion) @ v_minus(m, settings, completion)
            @ u00(protocol_dims(settings), settings.compat_rminus_final))


def _check_dim(phi, dims) -> None:
    """The engine's one input check: the state lives on mode x's dx levels."""
    if phi.dim != dims[0]:
        raise ValueError(f"vibrational state dim {phi.dim} != d {dims[0]}")


def prepare_initial(phi, dims) -> np.ndarray:
    """rho_vibr (x) |0><0|_z (x) |-><-|, for an input the engine accepts."""
    _check_dim(phi, dims)
    e_minus = np.zeros((3, 3))
    e_minus[MINUS, MINUS] = 1.0
    z_vac = np.zeros((dims[1], dims[1]))
    z_vac[0, 0] = 1.0
    return np.kron(e_minus, np.kron(phi.density_matrix(), z_vac))


def prepare_initial_pure(phi, dims) -> np.ndarray:
    """|phi>_x |0>_z |-> for a pure input the engine accepts."""
    if not phi.is_pure:
        raise ValueError("prepare_initial_pure requires a pure vibrational state")
    _check_dim(phi, dims)
    z_vac = np.zeros(dims[1])
    z_vac[0] = 1.0
    return np.kron(np.eye(3)[MINUS], np.kron(phi.amplitudes, z_vac)).astype(complex)


def evolve(u, rho) -> np.ndarray:
    return u @ rho @ u.conj().T


def expectation(rho, op) -> complex:
    """Tr(rho O) as the elementwise sum of rho_ij O_ji."""
    return complex(np.einsum("ij,ji->", rho, op))


def electronic_reduced(rho, dims) -> np.ndarray:
    """3 x 3 electronic state, both modes traced out."""
    vib = dims[0] * dims[1]
    return np.einsum("avbv->ab", rho.reshape(3, vib, 3, vib))


def reduced_x(rho, dims) -> np.ndarray:
    """dx x dx state of mode x, mode z and the electronic factor traced out."""
    return np.einsum("eacebc->ab", rho.reshape(3, *dims, 3, *dims))


def coherence(rho, dims) -> complex:
    """<sigma_x> - i <sigma_y> of the {-, +} pair."""
    sx = expectation(rho, pauli(MINUS, PLUS, "x", dims)).real
    sy = expectation(rho, pauli(MINUS, PLUS, "y", dims)).real
    return complex(sx, -sy)
