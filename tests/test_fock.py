import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionspec2d import dynamics, fock
from ionspec2d.fock import (
    destroy,
    displacement,
    embed,
    product_state,
    thermal_populations,
    thermal_state,
    thermal_sum,
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
        rho = thermal_state(0.0, 6)
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.allclose(rho, expected)

    def test_captured_probability_closed_forms(self):
        # the populations are the untruncated p_n = q^n / (1 + nbar),
        # q = nbar / (1 + nbar), divided by the captured 1 - q^dim; the
        # manifest's kept_weight pins are in test_cli
        for nbar, dim in ((1.0, 9), (4.0, 15), (0.7, 9)):
            q = nbar / (1.0 + nbar)
            untruncated = q ** np.arange(dim) / (1.0 + nbar)
            np.testing.assert_allclose(
                thermal_populations(nbar, dim) * (1.0 - q**dim), untruncated, rtol=1e-12
            )

    @pytest.mark.parametrize("nbar, dim", [(0.0, 4), (0.7, 9), (4.0, 15), (1e3, 40), (1e17, 15)])
    def test_thermal_sum_matches_the_direct_sum(self, nbar, dim):
        # sum_(n < dim) r q^n exp(-i n phase), r = 1/(1 + nbar), term by
        # term; at nbar = 1e17, q = 1 - r rounds to 1, which moves the terms
        # by n r only
        r = 1.0 / (1.0 + nbar)
        phase = np.linspace(-7.0, 7.0, 201)
        direct = r * (1.0 - r) ** np.arange(dim)
        ref = np.exp(-1j * np.outer(phase, np.arange(dim))) @ direct
        assert np.max(np.abs(thermal_sum(nbar, dim, phase) - ref)) <= 1e-13 * direct.sum()
        assert thermal_sum(nbar, dim).real == pytest.approx(direct.sum(), rel=1e-13)

    @pytest.mark.parametrize("nbar", [1e160, 1e300])
    def test_thermal_sum_reaches_the_uniform_limit(self, nbar):
        # r = 1/(1 + nbar) so small that r times the kept weight D r would
        # underflow: the kept weight is D r, and over it the sum is the
        # q -> 1 limit, the uniform characteristic (1/D) sum_(n < D) e^(-i n phase)
        dim = 15
        phase = np.linspace(-50.0, 50.0, 401)
        uniform = np.exp(-1j * np.outer(phase, np.arange(dim))).mean(axis=1)
        kept = thermal_sum(nbar, dim)
        assert kept.real == pytest.approx(dim / (1.0 + nbar), rel=1e-14)
        assert np.max(np.abs(thermal_sum(nbar, dim, phase) / kept - uniform)) <= 1e-14

    @pytest.mark.parametrize("nbar,dim", [(1.0, 9), (0.7, 9), (0.2, 6)])
    def test_renormalized_mean_close_to_nbar(self, nbar, dim):
        rho = thermal_state(nbar, dim)
        mean = float(np.real(np.trace(np.diag(np.arange(dim)) @ rho)))
        assert abs(mean - nbar) / nbar < 0.02

    def test_renormalized_mean_heavy_tail_truncation(self):
        # for nbar = 4 at 15 levels the n-weighted tail is substantial: the
        # renormalized mean is exactly (nbar - tail)/captured = 3.4530
        rho = thermal_state(4.0, 15)
        mean = float(np.real(np.trace(np.diag(np.arange(15)) @ rho)))
        r = 4.0 / 5.0
        captured = 1.0 - r**15
        tail = (1 - r) * r**15 * (15 * (1 - r) + r) / (1 - r) ** 2
        assert mean == pytest.approx((4.0 - tail) / captured, rel=1e-12)
        assert mean == pytest.approx(3.4530, abs=1e-4)

    def test_valid_density_matrix(self):
        rho = thermal_state(2.5, 12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_populations_at_a_million_levels(self):
        # no dim x dim matrix: the populations of a huge truncation are cheap
        nbar, dim = 4.0, 10**6
        pops = thermal_populations(nbar, dim)
        assert pops.shape == (dim,)
        assert pops[0] == pytest.approx(1.0 / (1.0 + nbar), rel=1e-12)  # nothing is cut off
        assert pops.sum() == pytest.approx(1.0, rel=1e-12)

    def test_state_is_diagonal_of_populations(self):
        pops = thermal_populations(2.5, 12)
        rho = thermal_state(2.5, 12)
        assert np.array_equal(rho, np.diag(pops))

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            thermal_state(-0.1, 5)


class TestEmbed:
    def setup_method(self):
        self.dims = (3, 4, 2)

    def test_identity_embeds_to_identity(self):
        eye = np.eye(4, dtype=complex)
        assert np.array_equal(embed(eye, 1, self.dims), np.eye(24))

    def test_disjoint_slots_commute(self):
        op_a = embed(destroy(3), 0, self.dims)
        op_b = embed(destroy(4), 1, self.dims)
        assert np.max(np.abs(op_a @ op_b - op_b @ op_a)) < 1e-14

    def test_thermal_product_expectation_oracle(self):
        rho_zz, rho_sp = thermal_state(1.0, 9), thermal_state(4.0, 15)
        cap_zz = 1.0 - 2.0**-9
        rho = product_state([rho_zz, rho_sp])
        n_zz = embed(np.diag(np.arange(9)).astype(complex), 0, (9, 15))
        got = float(np.real(np.trace(n_zz @ rho)))
        # direct sum over the renormalized truncated distribution
        weights = 0.5 ** np.arange(1, 10)
        expected = float(np.dot(np.arange(9), weights) / cap_zz / cap_zz * cap_zz)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_spectrum_preserved(self):
        op = destroy(3) + destroy(3).conj().T
        big = embed(op, 0, self.dims)
        small_eigs = np.sort(np.linalg.eigvalsh(op))
        big_eigs = np.sort(np.linalg.eigvalsh(big))
        # each eigenvalue of the small operator appears with multiplicity 8
        assert np.allclose(np.unique(np.round(big_eigs, 10)),
                           np.unique(np.round(small_eigs, 10)))
        assert np.linalg.norm(big, 2) == pytest.approx(np.linalg.norm(op, 2), rel=1e-12)

    def test_slot_out_of_range(self):
        with pytest.raises(IndexError):
            embed(np.eye(3, dtype=complex), 3, self.dims)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embed(np.eye(5, dtype=complex), 0, self.dims)

