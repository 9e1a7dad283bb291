"""Test oracles: reference computations that only the tests use.

``resonant_manifolds`` diagonalizes the resonant zigzag-stretch exchange
Hamiltonian block by block over its conserved charge n_zz + 2 n_str, the
closed-form reference of the resonance peak positions.  ``cycled_pair`` and
``centroid_peaks`` are the per-term loops that ``protocol._pulse_set`` and
``spectrum.find_peaks`` replace with array expressions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ionspec2d import fock, protocol


@dataclass(frozen=True)
class Manifold:
    """Conserved-charge block of the resonant Hamiltonian.

    ``states`` lists (n_str, n_zz) occupation pairs with n_zz + 2*n_str equal
    to ``charge``; ``eigenvalues`` are the block eigenvalues sorted ascending.
    """

    charge: int
    states: list[tuple[int, int]]
    eigenvalues: np.ndarray


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


def cycled_pair(seq: protocol.PulseSequence, dim: int) -> np.ndarray:
    """sum w2 w3 K32 kron conj(K32), K32 = K3 K2, one phase pair at a time."""
    w2, w3, _ = protocol._cycle_weights(seq.signature, seq.n_phases)
    kicks = [
        [fock.displacement(seq.amplitudes[k - 1] * np.exp(1j * p), dim) for p in seq.phase_grid(k)]
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
    grid count 0), one bin at a time, largest magnitude first."""
    n1, n3 = mag.shape
    cut = threshold * mag.max()
    out = []
    for i in range(n1):
        for j in range(n3):
            near = [(i + a, j + b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
            inside = [(a, b) for a, b in near if 0 <= a < n1 and 0 <= b < n3]
            if mag[i, j] <= cut or any(mag[i, j] < mag[a, b] for a, b in inside):
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
