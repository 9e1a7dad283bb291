"""The numpy-only runtime against scipy, which only the tests import: the
matrix exponential of the Lindblad block maps and of the whole-Liouvillian
maps of ``protocol.run_once`` (its diagonal case against numpy's exp), the
displacement pulses and the physical constants."""

import numpy as np
import pytest

from ionspec2d import crystal, dynamics, fock, scenarios

scipy_linalg = pytest.importorskip("scipy.linalg")
scipy_constants = pytest.importorskip("scipy.constants")

RTOL = 1e-12


def _relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


class TestExpm:
    @pytest.mark.parametrize("size", [1, 2, 5, 17, 40, 97])
    @pytest.mark.parametrize("norm", [0.0, 1e-8, 1e-3, 0.5, 3.0, 40.0])
    def test_random_non_normal_matches_scipy(self, size, norm):
        rng = np.random.default_rng(size)
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        a = np.triu(a) + 0.1 * a  # a dominant upper triangle: far from normal
        a *= norm / np.max(np.sum(np.abs(a), axis=0))
        np.testing.assert_allclose(
            dynamics.expm(a), scipy_linalg.expm(a), rtol=RTOL, atol=1e-15
        )

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diagonal_is_exp_of_the_diagonal(self, dtype):
        # no Pade step: each entry is numpy's exp, exactly, at any norm
        rng = np.random.default_rng(3)
        d = 40.0 * rng.standard_normal(9).astype(dtype)
        if dtype is complex:
            d += 40.0j * rng.standard_normal(9)
        d[4] = 0.0
        got = dynamics.expm(np.diag(d))
        assert got.dtype == np.diag(np.exp(d)).dtype
        assert np.array_equal(got, np.diag(np.exp(d)))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_matrix_gives_the_identity(self, dtype):
        assert np.array_equal(dynamics.expm(np.zeros((6, 6), dtype=dtype)), np.eye(6))

    def test_tiny_off_diagonal_entry_takes_the_pade_path(self, monkeypatch):
        # one nonzero entry off the diagonal, however small, is not diagonal
        rng = np.random.default_rng(4)
        a = np.diag(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        a[1, 4] = 1e-300
        ref = scipy_linalg.expm(a)
        solve, solves = np.linalg.solve, []
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(args) or solve(*args))
        got = dynamics.expm(a)
        assert len(solves) == 1
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=1e-15)

    def test_jordan_block(self):
        # exp(lam I + N) = exp(lam) sum_k N^k / k! for the nilpotent shift N
        lam, size = -0.7 + 2.0j, 6
        shift = np.eye(size, k=1)
        exact = np.exp(lam) * sum(
            np.linalg.matrix_power(shift, k) / np.prod(np.arange(1.0, k + 1))
            for k in range(size)
        )
        jordan = lam * np.eye(size) + shift
        assert _relative_error(dynamics.expm(jordan), exact) <= RTOL
        assert _relative_error(dynamics.expm(jordan), scipy_linalg.expm(jordan)) <= RTOL

    def test_every_resonance_block_map(self, resonance_data):
        # the reference resonance model at the reference dt of the scenario:
        # each real sector generator's map, the step map of the lines
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        model = scenarios.resonance_model(omega_t, dims=(9, 6), heating_quanta_per_s=(200.0, 100.0))
        dt = 10.6e-6
        for idx in dynamics.liouvillian_blocks(model).values():
            step = dynamics.liouvillian(model, idx) * dt
            ref = scipy_linalg.expm(step)
            assert _relative_error(dynamics.expm(step), ref) <= RTOL


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.25j, 0.3 - 0.4j, 0.8 * np.exp(0.7j)])
@pytest.mark.parametrize("dim", [2, 9, 15])
def test_displacement_matches_scipy_expm(alpha, dim):
    a = fock.destroy(dim)
    ref = scipy_linalg.expm(alpha * a.conj().T - np.conj(alpha) * a)
    assert np.max(np.abs(fock.displacement(alpha, dim) - ref)) <= 1e-13


def test_constants_are_scipy_codata():
    assert crystal.HBAR == scipy_constants.hbar
    assert crystal.ATOMIC_MASS == scipy_constants.atomic_mass
    assert crystal.ELEMENTARY_CHARGE == scipy_constants.e
    assert crystal.EPSILON_0 == scipy_constants.epsilon_0
