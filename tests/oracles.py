"""Test oracles: reference computations that only the tests use.

``resonant_manifolds`` diagonalizes the resonant zigzag-stretch exchange
Hamiltonian block by block over its conserved charge n_zz + 2 n_str, the
closed-form reference of the resonance peak positions.  ``cycled_pair`` and
``centroid_peaks`` are the per-term loops that ``protocol._pulse_set`` and
``spectrum.find_peaks`` replace with array expressions.
``closed_form_lines`` is the eigendecomposition of a dissipation-free H in
place of the stepped sector lines of ``dynamics.evolution_lines``.
``max_nonsecular_ratio_oneshot`` forms all (2N)^4 rotation frequencies at
once, the reference of the loop of ``anharmonic.max_nonsecular_ratio``.
``dense_liouvillian`` gathers a Liouvillian block densely from the
generator, the reference of the block ``dynamics.liouvillian`` scatters
from the model's sparse entries.  ``expm_with_eye`` is the matrix
exponential with the dense identity that ``dynamics.expm`` replaces by
adding the Pade identity terms on the diagonal.
``pair_sum_tensor_einsum`` and ``mode_tensors_einsum`` are the coupling
tensors as single ``np.einsum`` calls with numpy's path search, the
reference of the fixed-order contractions of ``anharmonic``.
``radial_hessians`` builds the full N x N radial Hessians from the axial
one, the matrices whose eigenvalues ``crystal.normal_modes`` writes in
closed form.  ``exact_zigzag_ladder`` diagonalizes the cubic and quartic
zigzag Hamiltonian exactly, the reference of the perturbative Omega_SI.
``critical_anisotropy`` (the zigzag threshold), ``mode_operators`` (the
ladder and number operators of one mode), ``fwhm`` (a peak's half-height
width along one axis) and ``tilt`` (how far a peak leans along the
diagonal) are references that no module of the package calls.
``WienerPhaseModel``, ``sample_paths`` and ``monte_carlo_loss`` draw the
laser phase as a Wiener process, the Monte Carlo reference of the exact
attenuation ``phasenoise.attenuation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ionspec2d import anharmonic, crystal, dynamics, fock, phasenoise, protocol, spectrum


@dataclass(frozen=True)
class Manifold:
    """Conserved-charge block of the resonant Hamiltonian.

    ``states`` lists (n_str, n_zz) occupation pairs with n_zz + 2*n_str equal
    to ``charge``; ``eigenvalues`` are the block eigenvalues sorted ascending.
    """

    charge: int
    states: list[tuple[int, int]]
    eigenvalues: np.ndarray


def radial_hessians(
    u: np.ndarray, alpha_x: float, alpha_y: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dimensionless Hessians (V_z, V_x, V_y) at the equilibrium positions u.

    The radial Hessians follow from the axial one through the exact identity
    V_(x/y) = (1/alpha + 1/2) I - V_z / 2, which ties all three matrices to a
    common eigenbasis.
    """
    if alpha_x <= 0 or alpha_y <= 0:
        raise ValueError("anisotropies must be positive")
    v_z = crystal._axial_hessian(np.asarray(u, dtype=float))
    eye = np.eye(len(u))
    v_x = (1.0 / alpha_x + 0.5) * eye - 0.5 * v_z
    v_y = (1.0 / alpha_y + 0.5) * eye - 0.5 * v_z
    return v_z, v_x, v_y


def exact_zigzag_ladder(data, dims: tuple[int, ...] = (12, 4, 4, 4)) -> float:
    """Omega_SI (rad/s) of the x zigzag by exact diagonalization.

    H / omega_z on the register (x zigzag, the other x modes, the z modes
    but COM), with ``dims`` levels per mode, so four entries at N = 3: the
    bare frequencies, exactly the cubic
    terms ``anharmonic._second_order_shifts`` keeps (G_bp X_zz X_b Z_p and
    g_zz,zz,p X_zz^2 Z_p), and the full c X_zz^4 with c = 3 kappa D4_zzzz /
    gamma_zz, with no RWA.  E(n) is the eigenvalue of the eigenstate of
    largest overlap with the bare |n, 0, ...>, and Omega_SI = E(2) - 2 E(1)
    + E(0), the n_zz^2 coefficient that the perturbative orders give as
    Omega_SI / 2.
    """
    trap, modes, tensors = data.trap, data.modes, data.tensors
    n = modes.n_ions
    zz = n - 1
    if len(dims) != 2 * n - 2:
        raise ValueError(f"dims needs {2 * n - 2} entries, one per mode, got {len(dims)}")
    freqs = np.sqrt(np.concatenate(
        [modes.gamma_x[[zz]], modes.gamma_x[1:zz], modes.lambda_z[1:]]
    ))
    x = [fock.embed(fock.destroy(d) + fock.destroy(d).T, k, dims)
         for k, d in enumerate(dims)]
    h = sum(w * fock.embed(np.diag(np.arange(d, dtype=float)), k, dims)
            for k, (w, d) in enumerate(zip(freqs, dims)))
    eps = anharmonic.anharmonic_prefactor(trap)
    d3 = np.where(np.abs(tensors.d3) < 1e-14, 0.0, tensors.d3)

    def g3(a: int, b: int, p: int) -> float:
        return 3.0 * eps * d3[a, b, p] / (
            modes.gamma_x[a] * modes.gamma_x[b] * modes.lambda_z[p]) ** 0.25

    for kp, p in enumerate(range(1, n), start=n - 1):
        h += g3(zz, zz, p) * x[0] @ x[0] @ x[kp]
        for kb, b in enumerate(range(1, zz), start=1):
            h += (g3(zz, b, p) + g3(b, zz, p)) * x[0] @ x[kb] @ x[kp]
    x2 = x[0] @ x[0]
    h += 3.0 * eps**2 * tensors.d4[zz, zz, zz, zz] / modes.gamma_x[zz] * x2 @ x2
    energies, vecs = np.linalg.eigh(h)
    # |k, 0, ...> is basis state k * (levels of the other modes)
    stride = int(np.prod(dims[1:]))
    e0, e1, e2 = (energies[np.argmax(np.abs(vecs[k * stride]))] for k in range(3))
    return float((e2 - 2.0 * e1 + e0) * trap.omega_z)


def critical_anisotropy(n_ions: int) -> float:
    """Anisotropy alpha_x at which the zigzag mode goes soft (gamma_N = 0)."""
    if n_ions < 3:
        raise ValueError("critical anisotropy needs n_ions >= 3")
    u = crystal.solve_equilibrium(n_ions)
    lam = np.linalg.eigvalsh(crystal._axial_hessian(u))
    return 2.0 / (lam[-1] - 1.0)


def mode_operators(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, a_dagger, n) on a single truncated mode."""
    a = fock.destroy(dim)
    return a, a.conj().T, a.conj().T @ a


def resonant_manifolds(omega_t: float, max_quanta: int) -> list[Manifold]:
    """Eigenvalues of the resonant exchange Hamiltonian per conserved charge.

    The charge n_zz + 2 n_str is conserved, so the Hamiltonian is block
    tridiagonal over the manifolds listed here; blocks for charge < 2 are
    trivial (a single state with eigenvalue 0) and are omitted.
    """
    if max_quanta < 2:
        raise ValueError("max_quanta must be >= 2")
    out = []
    for charge in range(2, max_quanta + 1):
        states = [(ns, charge - 2 * ns) for ns in range(charge // 2 + 1)]
        dim = len(states)
        block = np.zeros((dim, dim))
        for i, (ns, nz) in enumerate(states[:-1]):
            # coupling to (ns + 1, nz - 2)
            block[i, i + 1] = block[i + 1, i] = omega_t * np.sqrt(
                nz * (nz - 1) * (ns + 1)
            )
        out.append(
            Manifold(
                charge=charge,
                states=states,
                eigenvalues=np.sort(np.linalg.eigvalsh(block)),
            )
        )
    return out


def pair_sum_tensor_einsum(u: np.ndarray, k: int) -> np.ndarray:
    """``anharmonic._pair_sum_tensor``, C_k = sum_{p<q} w_pq (e_p - e_q)^(x k),
    as one einsum over the ion pairs."""
    u = np.asarray(u, dtype=float)
    p, q = np.triu_indices(len(u), 1)
    d = u[p] - u[q]
    w = np.sign(d) / np.abs(d) ** 4 if k == 3 else 1.0 / np.abs(d) ** 5
    e = np.eye(len(u))[p] - np.eye(len(u))[q]
    idx = "ijkl"[:k]
    return np.einsum(f"a,{','.join('a' + i for i in idx)}->{idx}", w, *[e] * k, optimize=True)


def mode_tensors_einsum(c3: np.ndarray, c4: np.ndarray, m: np.ndarray) -> anharmonic.ModeTensors:
    """``anharmonic.mode_tensors`` as one einsum per tensor."""
    d3 = np.einsum("ijk,in,jm,kp->nmp", c3, m, m, m, optimize=True)
    d4 = np.einsum("ijkl,in,jm,kp,lq->nmpq", c4, m, m, m, m, optimize=True)
    return anharmonic.ModeTensors(d3=d3, d4=d4)


def cycled_pair(seq: protocol.PulseSequence, dim: int) -> np.ndarray:
    """sum w2 w3 K32 kron conj(K32), K32 = K3 K2, one phase pair at a time."""
    w2, w3, _ = protocol._cycle_weights(seq.signature, seq.n_phases)
    kicks = [
        [fock.displacement(seq.alpha * np.exp(1j * p), dim) for p in seq.phase_grid(k)]
        for k in (2, 3)
    ]
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a, k2 in zip(w2, kicks[0]):
        for b, k3 in zip(w3, kicks[1]):
            out += a * b * np.kron(k3 @ k2, (k3 @ k2).conj())
    return out


def centroid_peaks(omega1, omega3, mag, threshold) -> list[tuple[float, float, float]]:
    """(omega1, omega3, magnitude) of every local maximum of ``mag`` above
    threshold * max, centroid-refined on its 3x3 patch (bins outside the
    grid count 0), one bin at a time, largest magnitude first.  Of two tied
    neighbours only the earlier in raster order is a maximum."""
    n1, n3 = mag.shape
    cut = threshold * mag.max()
    out = []
    for i in range(n1):
        for j in range(n3):
            near = [(i + a, j + b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
            inside = [(a, b) for a, b in near if 0 <= a < n1 and 0 <= b < n3]
            if mag[i, j] <= cut or any(
                mag[i, j] < mag[a, b] or (mag[i, j] == mag[a, b] and (a, b) < (i, j)) for a, b in inside
            ):
                continue
            patch = np.zeros((3, 3))
            for a, b in inside:
                patch[a - i + 1, b - j + 1] = mag[a, b]
            total = patch.sum()
            off_i = float((patch * np.arange(-1, 2)[:, None]).sum() / total)
            off_j = float((patch * np.arange(-1, 2)[None, :]).sum() / total)
            out.append((
                float(omega1[i] + off_i * (omega1[1] - omega1[0])),
                float(omega3[j] + off_j * (omega3[1] - omega3[0])),
                float(mag[i, j]),
            ))
    return sorted(out, key=lambda p: p[2], reverse=True)


def _chunks(line: np.ndarray) -> list[slice]:
    """At most 8 slices of whole grid points (the first axis), so that a
    chunk's temporaries stay small against the line."""
    step = -(-len(line) // 8)
    return [slice(k, k + step) for k in range(0, len(line), step)]


def _hermitize(ops: np.ndarray) -> None:
    """Replace each square matrix X over the last two axes of ``ops`` by
    (X + X^+)/2, once ``dynamics._check_skew`` has bounded X - X^+."""
    dynamics._check_skew(ops, np.swapaxes(ops, -1, -2))
    for s in _chunks(ops):
        part = ops[s]
        part += np.conj(np.swapaxes(part, -1, -2))
        part *= 0.5


def closed_form_lines(model, state, observable, n, dt, sectors=None):
    """``dynamics.evolution_lines`` of a dissipation-free model in closed
    form: no stepping, no drift, in the eigenbasis of H (``np.linalg.eigh``),
    both lines rotated back once and the forward line re-hermitized.
    Without ``sectors`` it returns all d^2 vec indices in order; with them,
    the columns of the kept sectors in the order the stepped lines hold
    them, so that it can stand in for ``evolution_lines`` in a scan."""
    d = model.dim
    energies, basis = np.linalg.eigh(model.hamiltonian)
    state = basis.conj().T @ state @ basis
    covector0 = basis.T @ observable.T @ basis.conj()  # (V^+ A V)^T: tr[A rho] = vec(A^T) . vec(rho)
    # P^k multiplies rho_ab by exp(-i (E_a - E_b) k dt); P^+ multiplies
    # A_ab by the conjugate phase, i.e. (A^T)_ab by the same phase.  Rotated
    # back by V X V^+ and, for the transposes, V* X V^T, a chunk at a time
    t = np.arange(n) * dt
    gaps = energies[:, None] - energies[None, :]
    forward = np.empty((n, d, d), dtype=complex)
    back = np.empty((n, d, d), dtype=complex)
    for s in _chunks(forward):
        phases = np.exp(-1j * t[s, None, None] * gaps)
        forward[s] = basis @ (state * phases) @ basis.conj().T
        back[s] = basis.conj() @ (covector0 * phases) @ basis.T
    _hermitize(forward)
    forward = forward.reshape(n, d * d)
    dynamics._check_trace_drift(forward[:, :: d + 1])  # vec indices i (d + 1)
    back = back.reshape(n, d * d)
    if sectors is None:
        every = np.arange(d * d)
        return forward, back, every, every
    blocks = dynamics.liouvillian_blocks(model)
    index = [
        np.concatenate([idx for c, idx in blocks.items() if dynamics._in_class(c, cls)] or [np.zeros(0, np.int64)])
        for cls in sectors
    ]
    return forward[:, index[0]], back[:, index[1]], index[0], index[1]


def max_nonsecular_ratio_oneshot(trap: crystal.TrapConfig, modes: crystal.NormalModes, tensors) -> float:
    """``anharmonic.max_nonsecular_ratio`` with every quartet's 16 rotation
    frequencies formed at once, a (2N)^4 array and its mask."""
    n = modes.n_ions
    wz = trap.omega_z
    gx = modes.gamma_x
    coeff = (
        3.0 * anharmonic.anharmonic_prefactor(trap) ** 2 * wz * tensors.d4
        / reduce(np.multiply, np.ix_(gx, gx, gx, gx)) ** 0.25
    )
    rot = np.concatenate([modes.omega_radial_x(wz), -modes.omega_radial_x(wz)])
    freq = reduce(np.add, np.ix_(rot, rot, rot, rot)).reshape((2, n) * 4)
    np.abs(freq, out=freq)
    freq[freq < 1e-9 * wz] = np.inf  # secular terms drop out of the ratio
    return float(np.divide(np.abs(coeff).reshape((1, n) * 4), freq, out=freq).max())


def dense_liouvillian(model: dynamics.LindbladModel, idx: np.ndarray | None = None) -> np.ndarray:
    """The block of L = K kron I + I kron conj(K) + sum_c r c kron conj(c)
    on the vec indices ``idx`` (every one when None), gathered densely: the
    entry at (d i + j, d k + l) is K_ik [j = l] + [i = k] conj(K_jl) +
    sum_c r c_ik conj(c_jl), in that order, from b x b gathers of K and of
    each jump, without forming L."""
    k, jumps = model.generator
    d = model.dim
    ket, bra = np.divmod(np.arange(d * d) if idx is None else idx, d)
    kets, bras = np.ix_(ket, ket), np.ix_(bra, bra)
    out = k[kets]
    out *= bra[:, None] == bra
    term = k.conj()[bras]
    term *= ket[:, None] == ket
    out += term
    for c, rate in jumps:
        term = c[kets]
        term *= rate
        term *= c.conj()[bras]
        out += term
    return out


def expm_with_eye(a: np.ndarray) -> np.ndarray:
    """``dynamics.expm`` with a dense identity: b0 I and b1 I enter the Pade
    sums as the last terms, each b I added to the whole matrix, so every
    off-diagonal entry gains 0.0 and the diagonal gains b."""
    diagonal = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diagonal):
        return np.diag(np.exp(diagonal))
    norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / dynamics._THETA13))) if norm > 0 else 0
    a = a / 2.0**s
    b = dynamics._PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    x, y = np.empty_like(a), np.empty_like(a)

    def terms(out, scratch, *pairs):
        for c, m in pairs:
            out += np.multiply(c, m, out=scratch)
        return out

    v = a6 @ terms(np.multiply(b[12], a6, out=x), y, (b[10], a4), (b[8], a2))
    terms(v, y, (b[6], a6), (b[4], a4), (b[2], a2), (b[0], eye))
    np.matmul(a6, terms(np.multiply(b[13], a6, out=x), y, (b[11], a4), (b[9], a2)), out=y)
    u = np.matmul(a, terms(y, x, (b[7], a6), (b[5], a4), (b[3], a2), (b[1], eye)), out=x)
    del a, a2, a4, a6, eye
    np.add(v, u, out=y)
    v -= u
    del u, x
    r = np.linalg.solve(v, y)
    for _ in range(s):
        r = r @ r
    return r


def fwhm(spec: spectrum.Spectrum2D, peak: spectrum.Peak, axis: str) -> float:
    """Full width at half maximum through the peak along omega1 or omega3.

    Crossings are linearly interpolated; the width is capped at the axis span
    if the profile never drops below half height.
    """
    i = int(np.argmin(np.abs(spec.omega1 - peak.omega1)))
    j = int(np.argmin(np.abs(spec.omega3 - peak.omega3)))
    if axis == "omega1":
        profile = spec.magnitude[:, j]
        coords = spec.omega1
        k0 = i
    elif axis == "omega3":
        profile = spec.magnitude[i, :]
        coords = spec.omega3
        k0 = j
    else:
        raise ValueError("axis must be 'omega1' or 'omega3'")
    half = profile[k0] / 2.0

    def cross(direction: int) -> float:
        k = k0
        while 0 <= k + direction < len(profile) and profile[k + direction] >= half:
            k += direction
        if not 0 <= k + direction < len(profile):
            return coords[k]
        # linear interpolation between k and k+direction
        y0, y1 = profile[k], profile[k + direction]
        frac = (y0 - half) / (y0 - y1)
        return coords[k] + frac * (coords[k + direction] - coords[k])

    return float(abs(cross(+1) - cross(-1)))


def tilt(spec: spectrum.Spectrum2D, half: int) -> float:
    """Correlation coefficient of the omega1 and omega3 bin offsets under
    the weight |S|^2 in a window of +-``half`` of the spectrum's bins
    around its strongest bin (clipped at the edges): near 1 for a peak
    stretched along the diagonal, the inhomogeneous broadening of a static
    shift distribution, and near 0 for a round one."""
    power = spec.magnitude**2
    i, j = np.unravel_index(np.argmax(power), power.shape)
    w = power[max(i - half, 0) : i + half + 1, max(j - half, 0) : j + half + 1]
    w = w / w.sum()
    rows, cols = np.indices(w.shape)
    dr, dc = rows - np.sum(w * rows), cols - np.sum(w * cols)
    return float(np.sum(w * dr * dc) / np.sqrt(np.sum(w * dr**2) * np.sum(w * dc**2)))


@dataclass(frozen=True)
class WienerPhaseModel:
    diffusion: float = phasenoise.DEFAULT_DIFFUSION
    seed: int = 0

    def __post_init__(self):
        if self.diffusion < 0:
            raise ValueError("diffusion must be >= 0")


def sample_paths(
    model: WienerPhaseModel, times: np.ndarray, n_paths: int
) -> np.ndarray:
    """(n_paths, len(times)) Wiener samples with Var = c t, Cov = c min(s, t)."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    rng = np.random.default_rng(model.seed)
    increments = np.diff(np.concatenate([[0.0], times]))
    steps = rng.standard_normal((n_paths, len(times))) * np.sqrt(
        model.diffusion * increments
    )
    return np.cumsum(steps, axis=1)


def monte_carlo_loss(
    signature: tuple[int, int, int],
    t1: float,
    t3: float,
    diffusion: float = phasenoise.DEFAULT_DIFFUSION,
    n_paths: int = 100_000,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of the pathway attenuation 1 - <cos(sum p dphi)>."""
    model = WienerPhaseModel(diffusion=diffusion, seed=seed)
    p2, p3, p4 = signature
    paths = sample_paths(model, np.array([t1, t1 + t3]), n_paths)
    total = (p2 + p3) * paths[:, 0] + p4 * paths[:, 1]
    return float(1.0 - np.mean(np.cos(total)))
