import numpy as np
import pytest
from scipy import constants, optimize

from ionspec2d import crystal
from ionspec2d.cli import ConfigError, build_config
from ionspec2d.crystal import (
    ChainUnstableError,
    DegenerateModesError,
    EquilibriumSolveError,
    TrapConfig,
    axial_gradient,
    length_scale,
    normal_modes,
    solve_equilibrium,
)
from conftest import MASS_CA40
from oracles import critical_anisotropy, radial_hessians


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

    def test_every_chain_the_tables_budget_admits_solves(self):
        # up to the largest n_ions build_config admits to tables (386 with
        # the couplings' budget of 6 GiB, crystal.CHECKED_IONS), found by
        # bisection, each config's chain solved in build_config, on radial
        # frequencies that hold every such chain linear; the gradient's
        # rounding floor passes _NEWTON_TOL = 1e-13 from N = 56 on
        raw = {"scenario": "tables", "omega_x_hz": 3e8, "omega_y_hz": 3.3e8}
        n_max, refused = 2, 1024  # build_config admits n_max ions and refuses refused
        with pytest.raises(ConfigError, match="coupling tensors"):
            build_config(dict(raw, n_ions=refused))
        while refused - n_max > 1:
            mid = (n_max + refused) // 2
            try:
                build_config(dict(raw, n_ions=mid))
                n_max = mid
            except ConfigError as exc:
                assert "coupling tensors" in str(exc)
                refused = mid
        assert n_max >= 56
        for n in range(1, n_max + 1):
            u = solve_equilibrium(n)
            d = np.diff(u)
            assert np.array_equal(u, -u[::-1]), n
            assert np.all(d > 0), n
            bound = 1e-12 * np.max(1.0 / d**2, initial=1.0)
            assert np.max(np.abs(axial_gradient(u))) <= bound, n

    def test_unconverged_chain_raises(self, monkeypatch):
        # one Newton step from the uniform start leaves a residual far
        # above the bound
        monkeypatch.setattr(crystal, "_NEWTON_MAX_ITER", 1)
        with pytest.raises(EquilibriumSolveError, match="N=5: residual"):
            solve_equilibrium(5)


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
        m, wz = MASS_CA40, 2 * np.pi * 2e6
        base = length_scale(m, wz)
        assert length_scale(m, 4 * wz) == pytest.approx(base / 4 ** (2 / 3), rel=1e-12)
        assert length_scale(2 * m, wz) == pytest.approx(base / 2 ** (1 / 3), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            length_scale(-1.0, 1.0)


def _chain(n):
    return solve_equilibrium(n)


def _axial(n):
    return crystal._axial_hessian(_chain(n))


class TestHessians:
    def test_two_ion_axial_matrix(self):
        # spacing d = 2*(1/4)^(1/3) has d^3 = 2 exactly
        v_z, _, _ = radial_hessians(_chain(2), 0.3, 0.1)
        assert v_z == pytest.approx(np.array([[2.0, -1.0], [-1.0, 2.0]]), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_rows_sum_to_com_eigenvalue(self, n):
        v_z, _, _ = radial_hessians(_chain(n), 0.3, 0.1)
        assert v_z.sum(axis=1) == pytest.approx(np.ones(n), abs=1e-12)

    def test_radial_identity_vs_direct_second_derivatives(self):
        # direct transverse curvatures: 1/alpha on the diagonal minus the
        # pairwise Coulomb term -1/d^3 (diag) / +1/d^3 (offdiag)
        n, ax, ay = 4, 0.27, 0.09
        u = _chain(n)
        v_z, v_x, v_y = radial_hessians(u, ax, ay)
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
        _, v_x, _ = radial_hessians(chain, ax, table_trap.alpha_y)
        h = 1e-4

        def pot(x):
            w = 0.5 / ax * np.dot(x, x) + 0.5 * np.dot(chain, chain)
            for i in range(n):
                for j in range(i + 1, n):
                    w += 1.0 / np.hypot(chain[i] - chain[j], x[i] - x[j])
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
        modes = normal_modes(_axial(3), 0.3, 0.1)
        assert modes.lambda_z == pytest.approx([1.0, 3.0, 29.0 / 5.0], abs=1e-10)

    def test_table_trap_zigzag_frequency(self, table_trap, table_data):
        f_zz = table_data.omega_zz / (2 * np.pi)
        assert abs(f_zz - 131.95e3) < 0.2e3

    @pytest.mark.parametrize("n", range(2, 11))
    def test_structural_invariants(self, n):
        chain = _chain(n)
        alpha = 0.8 * critical_anisotropy(n) if n >= 3 else 0.3
        v_z, v_x, v_y = radial_hessians(chain, alpha, 0.6 * alpha)
        modes = normal_modes(v_z, alpha, 0.6 * alpha)
        assert np.max(np.abs(modes.M.T @ modes.M - np.eye(n))) < 1e-12
        assert abs(modes.lambda_z[0] - 1.0) < 1e-10
        assert modes.M[:, 0] == pytest.approx(np.ones(n) / np.sqrt(n), abs=1e-10)
        # eigen-decomposition leaves only diagonal residue
        rebuilt = modes.M.T @ v_z @ modes.M
        off = rebuilt - np.diag(np.diag(rebuilt))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(rebuilt))
        # closed-form radial eigenvalues, exact by construction
        assert modes.gamma_x == pytest.approx(1 / alpha + 0.5 - modes.lambda_z / 2, abs=0)
        assert np.all(np.diff(modes.gamma_x) < 0)
        # the same M diagonalizes the radial Hessians, with eigenvalues gamma
        for v, gamma in ((v_x, modes.gamma_x), (v_y, modes.gamma_y)):
            rebuilt = modes.M.T @ v @ modes.M
            off = rebuilt - np.diag(np.diag(rebuilt))
            assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(rebuilt))
            assert np.diag(rebuilt) == pytest.approx(gamma, abs=1e-12)

    def test_table_trap_gammas_from_trap_anisotropies(self, table_trap, table_data):
        # each gamma is written once from TrapConfig's anisotropy; reading
        # 1/alpha + 1/2 back from the radial Hessians' [0, 0] entries put
        # gamma_y one ulp (8.9e-16) off this value
        modes = table_data.modes
        for alpha, gamma in ((table_trap.alpha_x, modes.gamma_x),
                             (table_trap.alpha_y, modes.gamma_y)):
            assert np.array_equal(gamma, 1 / alpha + 0.5 - 0.5 * modes.lambda_z)

    def test_unstable_chain_raises(self):
        alpha_c = critical_anisotropy(4)
        with pytest.raises(ChainUnstableError, match="zigzag"):
            normal_modes(_axial(4), alpha_c * 1.05, 0.1)

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateModesError):
            normal_modes(np.eye(3), 0.3, 0.1)


class TestCriticalAnisotropy:
    def test_three_ions_value(self):
        # lambda_3 = 29/5 gives alpha_c = 2/(29/5 - 1) = 5/12
        assert critical_anisotropy(3) == pytest.approx(5.0 / 12.0, abs=1e-10)
        assert critical_anisotropy(3) == pytest.approx(0.41667, abs=1e-5)

    def test_against_bisection_oracle(self):
        chain = _chain(3)

        def gamma_zz(alpha):
            # the radial Hessian's lowest eigenvalue is gamma_zz
            _, v_x, _ = radial_hessians(chain, alpha, alpha)
            return np.linalg.eigvalsh(v_x)[0]

        root = optimize.brentq(gamma_zz, 0.2, 0.9, xtol=1e-13)
        assert critical_anisotropy(3) == pytest.approx(root, abs=1e-10)

    def test_stable_below_critical(self):
        alpha_c = critical_anisotropy(3)
        v_z = _axial(3)
        for alpha in np.linspace(0.05, alpha_c * 0.999, 7):
            modes = normal_modes(v_z, alpha, alpha * 0.5)
            assert modes.gamma_x[-1] > 0

    def test_resonant_anisotropy_identity(self):
        # at alpha_x = 20/63: gamma_zz = 63/20 + 1/2 - 29/10 = 3/4 and
        # lambda_str = 3, so 2*omega_zz = omega_str exactly
        modes = normal_modes(_axial(3), 20.0 / 63.0, 0.16)
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
        # each checked field refuses its bad value where the trap is built
        valid = {"n_ions": 2, "mass": 1.0, "omega_x": 1.0, "omega_y": 1.0, "omega_z": 1.0}
        bad = {"n_ions": (0, "n_ions must be >= 1"), "mass": (-1.0, "mass must be positive")}
        bad |= {name: (0.0, f"{name} must be positive") for name in ("omega_x", "omega_y", "omega_z")}
        for name, (value, match) in bad.items():
            with pytest.raises(ValueError, match=match):
                TrapConfig(**(valid | {name: value}))

    @pytest.mark.parametrize("mass, omega_z", [(1e-300, 1e-20), (1.0, 1e200), (1e-100, 1e-300), (1e-130, 1e160)])
    def test_length_scale_denominator_is_finite_and_positive(self, mass, omega_z):
        # m omega_z^2 underflows to 0 or overflows to inf, though each
        # factor is a positive float; at (1e-130, 1e160) m omega_z is
        # finite, but omega_z^2, which length_scale forms first, is not
        with pytest.raises(ValueError, match="denominator of the length scale"):
            TrapConfig(n_ions=2, mass=mass, omega_x=2.0 * omega_z, omega_y=3.0 * omega_z, omega_z=omega_z)

    def test_anisotropy_and_its_reciprocal_are_finite_and_positive(self):
        # (omega_z/omega)^2 underflows to 0, is a subnormal whose reciprocal
        # overflows, or overflows, though omega itself is a positive float
        valid = {"n_ions": 2, "mass": 1.0, "omega_x": 2.0, "omega_y": 3.0, "omega_z": 1.0}
        for name in ("omega_x", "omega_y"):
            for omega in (1e200, 1e160, 1e-200):
                with pytest.raises(ValueError, match="anisotropy"):
                    TrapConfig(**(valid | {name: omega}))

    def test_anisotropies(self, table_trap):
        assert table_trap.alpha_x == pytest.approx((2.0 / 3.1012) ** 2, rel=1e-12)
        assert table_trap.alpha_y == pytest.approx(0.16, rel=1e-12)
