import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionspec2d import dynamics, fock
from ionspec2d.fock import (
    FockRegister,
    destroy,
    displacement,
    embed,
    product_state,
    thermal_populations,
    thermal_state,
)
from oracles import mode_operators


class TestModeOperators:
    def test_annihilation_matrix_elements(self):
        a, adag, n = mode_operators(5)
        ket1 = np.zeros(5)
        ket1[1] = 1.0
        out = a @ ket1
        assert out[0] == pytest.approx(1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0)
        assert np.array_equal(adag, a.conj().T)

    def test_number_operator_diagonal(self):
        _, _, n = mode_operators(7)
        assert np.allclose(n, np.diag(np.arange(7)))

    def test_truncated_commutator(self):
        # [a, a+] = 1 except for the -(dim-1) truncation artifact in the corner
        dim = 6
        a, adag, _ = mode_operators(dim)
        comm = a @ adag - adag @ a
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        assert np.allclose(comm, expected, atol=1e-13)

    def test_minimum_dimension(self):
        with pytest.raises(ValueError):
            destroy(1)


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        assert np.allclose(displacement(0.0, 8), np.eye(8), atol=1e-14)

    def test_vacuum_overlap_series_oracle(self):
        # |<0|D(alpha)|0>| = exp(-|alpha|^2/2); check against the series
        # sum_k (-|a|^2)^k / (k! 2^k) summed independently
        import math

        alpha = 0.25
        overlap = abs(displacement(alpha, 12)[0, 0])
        series = sum((-(alpha**2) / 2) ** k / math.factorial(k) for k in range(20))
        assert overlap == pytest.approx(series, abs=1e-12)
        assert overlap == pytest.approx(0.9692, abs=1e-4)

    def test_inverse_product(self):
        d = displacement(0.25, 9)
        dinv = displacement(-0.25, 9)
        assert np.max(np.abs(d @ dinv - np.eye(9))) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        re=st.floats(-0.35, 0.35),
        im=st.floats(-0.35, 0.35),
        dim=st.integers(9, 16),
    )
    def test_unitarity_property(self, re, im, dim):
        alpha = complex(re, im)
        if abs(alpha) > 0.5:
            alpha *= 0.5 / abs(alpha)
        d = displacement(alpha, dim)
        assert np.max(np.abs(d.conj().T @ d - np.eye(dim))) < 1e-8

    def test_large_alpha_warns(self):
        with pytest.warns(UserWarning, match="truncation"):
            displacement(2.0, 4)
        with pytest.warns(UserWarning, match="truncation"):
            displacement(np.array([0.1, 2.0]), 4)

    def test_array_of_amplitudes_is_one_call_per_entry(self):
        # one eigensystem for every entry, bit for bit the scalar calls
        alphas = 0.25 * np.exp(2j * np.pi * np.arange(6).reshape(2, 3) / 6)
        batch = displacement(alphas, 9)
        assert batch.shape == (2, 3, 9, 9)
        for idx in np.ndindex(alphas.shape):
            assert np.array_equal(batch[idx], displacement(alphas[idx], 9))

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.25j, 0.3 - 0.4j, 0.8 * np.exp(0.7j)])
    @pytest.mark.parametrize("dim", [2, 9, 15])
    def test_matches_numpy_expm(self, alpha, dim):
        # the real-eigensystem form against the Pade exponential of the
        # complex generator; needs no scipy
        a = destroy(dim)
        ref = dynamics.expm(alpha * a.T - np.conj(alpha) * a)
        assert np.max(np.abs(displacement(alpha, dim) - ref)) <= 1e-13
        # a phase rotates the pulse: D(alpha e^(i phi)) = e^(i phi n) D(alpha) e^(-i phi n)
        rotate = np.exp(1.1j * np.arange(dim))
        rotated = rotate[:, None] * displacement(alpha, dim) * rotate.conj()
        assert np.max(np.abs(displacement(alpha * np.exp(1.1j), dim) - rotated)) <= 1e-13


class TestThermalState:
    def test_zero_temperature_is_vacuum(self):
        rho, captured = thermal_state(0.0, 6)
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected)
        assert captured == 1.0

    def test_captured_probability_closed_forms(self):
        _, captured_zz = thermal_state(1.0, 9)
        assert captured_zz == pytest.approx(1.0 - 2.0**-9, rel=1e-12)
        assert captured_zz == pytest.approx(0.998, abs=5e-4)
        _, captured_spectator = thermal_state(4.0, 15)
        assert captured_spectator == pytest.approx(1.0 - 0.8**15, rel=1e-12)
        assert captured_spectator == pytest.approx(0.9648, abs=5e-4)

    @pytest.mark.parametrize("nbar,dim", [(1.0, 9), (0.7, 9), (0.2, 6)])
    def test_renormalized_mean_close_to_nbar(self, nbar, dim):
        rho, _ = thermal_state(nbar, dim)
        mean = float(np.real(np.trace(np.diag(np.arange(dim)) @ rho)))
        assert abs(mean - nbar) / nbar < 0.02

    def test_renormalized_mean_heavy_tail_truncation(self):
        # for nbar = 4 at 15 levels the n-weighted tail is substantial: the
        # renormalized mean is exactly (nbar - tail)/captured = 3.4530
        rho, captured = thermal_state(4.0, 15)
        mean = float(np.real(np.trace(np.diag(np.arange(15)) @ rho)))
        r = 4.0 / 5.0
        tail = (1 - r) * r**15 * (15 * (1 - r) + r) / (1 - r) ** 2
        assert mean == pytest.approx((4.0 - tail) / captured, rel=1e-12)
        assert mean == pytest.approx(3.4530, abs=1e-4)

    def test_valid_density_matrix(self):
        rho, _ = thermal_state(2.5, 12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_populations_at_a_million_levels(self):
        # no dim x dim matrix: the kept weight of a huge truncation is cheap
        nbar, dim = 4.0, 10**6
        pops, kept = thermal_populations(nbar, dim)
        assert pops.shape == (dim,)
        assert kept == pytest.approx(1.0 - (nbar / (1.0 + nbar)) ** dim, rel=1e-12)
        assert pops.sum() == pytest.approx(1.0, rel=1e-12)

    def test_state_is_diagonal_of_populations(self):
        pops, kept = thermal_populations(2.5, 12)
        rho, captured = thermal_state(2.5, 12)
        assert np.array_equal(rho, np.diag(pops).astype(complex))
        assert captured == kept

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            thermal_state(-0.1, 5)


class TestEmbed:
    def setup_method(self):
        self.reg = FockRegister(dims=(3, 4, 2), labels=("a", "b", "c"))

    def test_identity_embeds_to_identity(self):
        eye = np.eye(4, dtype=complex)
        assert np.array_equal(embed(eye, 1, self.reg), np.eye(24))

    def test_disjoint_slots_commute(self):
        op_a = embed(destroy(3), 0, self.reg)
        op_b = embed(destroy(4), 1, self.reg)
        assert np.max(np.abs(op_a @ op_b - op_b @ op_a)) < 1e-14

    def test_thermal_product_expectation_oracle(self):
        reg = FockRegister(dims=(9, 15), labels=("zz", "spec"))
        rho_zz, cap_zz = thermal_state(1.0, 9)
        rho_sp, _ = thermal_state(4.0, 15)
        rho = product_state([rho_zz, rho_sp])
        n_zz = embed(np.diag(np.arange(9)).astype(complex), 0, reg)
        got = float(np.real(np.trace(n_zz @ rho)))
        # direct sum over the renormalized truncated distribution
        weights = 0.5 ** np.arange(1, 10)
        expected = float(np.dot(np.arange(9), weights) / cap_zz / cap_zz * cap_zz)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_spectrum_preserved(self):
        op = destroy(3) + destroy(3).conj().T
        big = embed(op, 0, self.reg)
        small_eigs = np.sort(np.linalg.eigvalsh(op))
        big_eigs = np.sort(np.linalg.eigvalsh(big))
        # each eigenvalue of the small operator appears with multiplicity 8
        assert np.allclose(np.unique(np.round(big_eigs, 10)),
                           np.unique(np.round(small_eigs, 10)))
        assert np.linalg.norm(big, 2) == pytest.approx(np.linalg.norm(op, 2), rel=1e-12)

    def test_slot_out_of_range(self):
        with pytest.raises(IndexError):
            embed(np.eye(3, dtype=complex), 3, self.reg)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed(np.eye(5, dtype=complex), 0, self.reg)


class TestRegister:
    def test_total_dimension(self):
        reg = FockRegister(dims=(9, 15, 15), labels=("zz", "y3", "eg"))
        assert reg.dim == 9 * 15 * 15

    def test_validation(self):
        with pytest.raises(ValueError):
            FockRegister(dims=(1, 4), labels=("a", "b"))
        with pytest.raises(ValueError):
            FockRegister(dims=(2, 4), labels=("a",))
        with pytest.raises(ValueError):
            FockRegister(dims=(2, 4), labels=("a", "a"))
