import numpy as np
import pytest
from scipy import constants, optimize

from ionspec2d import crystal
from ionspec2d.crystal import (
    ChainUnstableError,
    DegenerateModesError,
    TrapConfig,
    axial_gradient,
    critical_anisotropy,
    hessians,
    length_scale,
    normal_modes,
    solve_equilibrium,
)


class TestEquilibrium:
    def test_single_ion_at_center(self):
        assert solve_equilibrium(1) == pytest.approx([0.0], abs=1e-15)

    def test_two_ions_closed_form(self):
        # force balance a = 1/(2a)^2 gives a^3 = 1/4
        a = 0.25 ** (1.0 / 3.0)
        u = solve_equilibrium(2)
        assert u == pytest.approx([-a, a], abs=1e-12)
        assert a == pytest.approx(0.62996, abs=1e-5)

    def test_two_ions_against_minimizer_oracle(self):
        # independent oracle: brute-force 1-D minimization over the half-spacing
        def energy(a):
            return a * a + 1.0 / (2 * a)

        res = optimize.minimize_scalar(energy, bounds=(0.1, 3.0), method="bounded",
                                       options={"xatol": 1e-12})
        assert solve_equilibrium(2)[1] == pytest.approx(res.x, abs=1e-7)

    def test_three_ions_closed_form(self):
        # outer ion: a = 1/a^2 + 1/(2a)^2 gives a^3 = 5/4
        a = 1.25 ** (1.0 / 3.0)
        u = solve_equilibrium(3)
        assert u == pytest.approx([-a, 0.0, a], abs=1e-12)
        assert a == pytest.approx(1.0772, abs=1e-4)

    def test_three_ions_against_root_oracle(self):
        a = optimize.brentq(lambda x: x - 1.0 / x**2 - 1.0 / (4 * x**2), 0.5, 3.0,
                            xtol=1e-14)
        assert solve_equilibrium(3)[2] == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_gradient_and_antisymmetry(self, n):
        u = solve_equilibrium(n)
        assert np.max(np.abs(axial_gradient(u))) < 1e-12
        assert np.max(np.abs(u + u[::-1])) < 1e-12
        assert np.all(np.diff(u) > 0) or n == 1


class TestLengthScale:
    def test_ca40_at_2mhz(self):
        # direct CODATA evaluation, recomputed here rather than via the library
        m = 39.9625909 * constants.atomic_mass
        wz = 2 * np.pi * 2e6
        expected = (constants.e**2 / (4 * np.pi * constants.epsilon_0 * m * wz**2)) ** (1 / 3)
        lz = length_scale(m, wz)
        assert lz == pytest.approx(expected, rel=1e-14)
        assert lz == pytest.approx(2.80e-6, abs=0.005e-6)

    def test_power_laws(self):
        m, wz = crystal.MASS_CA40, 2 * np.pi * 2e6
        base = length_scale(m, wz)
        assert length_scale(m, 4 * wz) == pytest.approx(base / 4 ** (2 / 3), rel=1e-12)
        assert length_scale(2 * m, wz) == pytest.approx(base / 2 ** (1 / 3), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            length_scale(-1.0, 1.0)


def _chain(n):
    return crystal.EquilibriumChain(u=solve_equilibrium(n))


class TestHessians:
    def test_two_ion_axial_matrix(self):
        # spacing d = 2*(1/4)^(1/3) has d^3 = 2 exactly
        v_z, _, _ = hessians(_chain(2), 0.3, 0.1)
        assert v_z == pytest.approx(np.array([[2.0, -1.0], [-1.0, 2.0]]), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rows_sum_to_com_eigenvalue(self, n):
        v_z, _, _ = hessians(_chain(n), 0.3, 0.1)
        assert v_z.sum(axis=1) == pytest.approx(np.ones(n), abs=1e-12)

    def test_radial_identity_vs_direct_second_derivatives(self):
        # direct transverse curvatures: 1/alpha on the diagonal minus the
        # pairwise Coulomb term -1/d^3 (diag) / +1/d^3 (offdiag)
        n, ax, ay = 4, 0.27, 0.09
        chain = _chain(n)
        u = chain.u
        v_z, v_x, v_y = hessians(chain, ax, ay)
        for alpha, v in ((ax, v_x), (ay, v_y)):
            direct = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    if i == j:
                        direct[i, i] = 1.0 / alpha - sum(
                            1.0 / abs(u[i] - u[p]) ** 3 for p in range(n) if p != i
                        )
                    else:
                        direct[i, j] = 1.0 / abs(u[i] - u[j]) ** 3
            assert v == pytest.approx(direct, abs=1e-12)

    def test_radial_identity_vs_finite_differences(self, table_trap):
        # second-difference of the full dimensionless potential in x
        n = 3
        chain = _chain(n)
        ax = table_trap.alpha_x
        _, v_x, _ = hessians(chain, ax, table_trap.alpha_y)
        h = 1e-4

        def pot(x):
            w = 0.5 / ax * np.dot(x, x) + 0.5 * np.dot(chain.u, chain.u)
            for i in range(n):
                for j in range(i + 1, n):
                    w += 1.0 / np.hypot(chain.u[i] - chain.u[j], x[i] - x[j])
            return w

        for i in range(n):
            for j in range(n):
                e_i, e_j = np.zeros(n), np.zeros(n)
                e_i[i], e_j[j] = h, h
                fd = (
                    pot(e_i + e_j) - pot(e_i - e_j) - pot(e_j - e_i) + pot(-e_i - e_j)
                ) / (4 * h * h)
                assert fd == pytest.approx(v_x[i, j], abs=1e-6)


class TestNormalModes:
    def test_three_ion_axial_eigenvalues(self):
        chain = _chain(3)
        modes = normal_modes(*hessians(chain, 0.3, 0.1))
        assert modes.lambda_z == pytest.approx([1.0, 3.0, 29.0 / 5.0], abs=1e-10)

    def test_table_trap_zigzag_frequency(self, table_trap, table_data):
        f_zz = table_data.omega_zz / (2 * np.pi)
        assert abs(f_zz - 131.95e3) < 0.2e3

    @pytest.mark.parametrize("n", range(2, 11))
    def test_structural_invariants(self, n):
        chain = _chain(n)
        alpha = 0.8 * critical_anisotropy(n) if n >= 3 else 0.3
        v_z, v_x, v_y = hessians(chain, alpha, 0.6 * alpha)
        modes = normal_modes(v_z, v_x, v_y)
        assert np.max(np.abs(modes.M.T @ modes.M - np.eye(n))) < 1e-12
        assert abs(modes.lambda_z[0] - 1.0) < 1e-10
        assert modes.M[:, 0] == pytest.approx(np.ones(n) / np.sqrt(n), abs=1e-10)
        # eigen-decomposition leaves only diagonal residue
        rebuilt = modes.M.T @ v_z @ modes.M
        off = rebuilt - np.diag(np.diag(rebuilt))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(rebuilt))
        # closed-form radial eigenvalues, exact by construction
        c_x = v_x[0, 0] + 0.5 * v_z[0, 0]
        assert modes.gamma_x == pytest.approx(c_x - modes.lambda_z / 2, abs=0)
        assert np.all(np.diff(modes.gamma_x) < 0)

    def test_unstable_chain_raises(self):
        chain = _chain(4)
        alpha_c = critical_anisotropy(4)
        with pytest.raises(ChainUnstableError, match="zigzag"):
            normal_modes(*hessians(chain, alpha_c * 1.05, 0.1))

    def test_degenerate_spectrum_rejected(self):
        eye = np.eye(3)
        with pytest.raises(DegenerateModesError):
            normal_modes(eye, 2 * eye, 3 * eye)


class TestCriticalAnisotropy:
    def test_three_ions_value(self):
        # lambda_3 = 29/5 gives alpha_c = 2/(29/5 - 1) = 5/12
        assert critical_anisotropy(3) == pytest.approx(5.0 / 12.0, abs=1e-10)
        assert critical_anisotropy(3) == pytest.approx(0.41667, abs=1e-5)

    def test_against_bisection_oracle(self):
        chain = _chain(3)

        def gamma_zz(alpha):
            v_z, v_x, _ = hessians(chain, alpha, alpha)
            lam = np.linalg.eigvalsh(v_z)
            return 1.0 / alpha + 0.5 - lam[-1] / 2.0

        root = optimize.brentq(gamma_zz, 0.2, 0.9, xtol=1e-13)
        assert critical_anisotropy(3) == pytest.approx(root, abs=1e-10)

    def test_stable_below_critical(self):
        alpha_c = critical_anisotropy(3)
        chain = _chain(3)
        for alpha in np.linspace(0.05, alpha_c * 0.999, 7):
            modes = normal_modes(*hessians(chain, alpha, alpha * 0.5))
            assert modes.gamma_x[-1] > 0

    def test_resonant_anisotropy_identity(self):
        # at alpha_x = 20/63: gamma_zz = 63/20 + 1/2 - 29/10 = 3/4 and
        # lambda_str = 3, so 2*omega_zz = omega_str exactly
        chain = _chain(3)
        modes = normal_modes(*hessians(chain, 20.0 / 63.0, 0.16))
        assert modes.gamma_x[-1] == pytest.approx(0.75, abs=1e-12)
        assert modes.lambda_z[1] == pytest.approx(3.0, abs=1e-12)
        assert 2 * np.sqrt(modes.gamma_x[-1]) == pytest.approx(
            np.sqrt(modes.lambda_z[1]), abs=1e-12
        )

    def test_needs_three_ions(self):
        with pytest.raises(ValueError):
            critical_anisotropy(2)


class TestTrapConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrapConfig(n_ions=0, mass=1.0, omega_x=1.0, omega_y=1.0, omega_z=1.0)
        with pytest.raises(ValueError):
            TrapConfig(n_ions=2, mass=-1.0, omega_x=1.0, omega_y=1.0, omega_z=1.0)
        with pytest.raises(ValueError):
            TrapConfig(n_ions=2, mass=1.0, omega_x=0.0, omega_y=1.0, omega_z=1.0)

    def test_anisotropies(self, table_trap):
        assert table_trap.alpha_x == pytest.approx((2.0 / 3.1012) ** 2, rel=1e-12)
        assert table_trap.alpha_y == pytest.approx(0.16, rel=1e-12)
