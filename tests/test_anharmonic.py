import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest

from ionspec2d import anharmonic, cli, crystal, fock, scenarios
from ionspec2d.anharmonic import (
    KerrParams,
    NearResonanceError,
    PerturbativeRegimeError,
    _cubic_slice,
    _quartic_slices,
    anharmonic_prefactor,
    effective_kerr,
    max_nonsecular_ratio,
    perturbative_third_order,
    resonant_coupling,
)
from ionspec2d.crystal import normal_modes, solve_equilibrium
from conftest import MASS_CA40
from oracles import (
    critical_anisotropy,
    exact_zigzag_ladder,
    max_nonsecular_ratio_oneshot,
    mode_tensors_einsum,
    pair_sum_tensor_einsum,
    radial_hessians,
    resonant_manifolds,
)

KHZ = 2 * np.pi * 1e3

# Published reference values (kHz): frequency shifts and dephasing rates of
# the three-ion crystal at omega_z/2pi = 2 MHz, omega_x/2pi = 3.1012 MHz,
# omega_y/2pi = 5 MHz, per perturbative order.
FREQ_SHIFTS = {
    "third": {"x2": -0.5008, "zz": -10.0850, "y2": 0.0, "y3": 0.0,
              "z2": 0.5275, "z3": 0.2821},
    "fourth": {"x2": 0.4791, "zz": 25.2874, "y2": 0.0826, "y3": 0.2894,
               "z2": -0.4371, "z3": -0.9430},
    "effective": {"x2": -0.0217, "zz": 15.2025, "y2": 0.0826, "y3": 0.2894,
                  "z2": 0.0905, "z3": -0.6609},
}
DEPHASING = {
    "third": {"x2": -1.0487, "si_half": -10.3467, "y2": 0.0, "y3": 0.0,
              "z2": 1.0551, "z3": 0.5171},
    "fourth": {"x2": 0.9582, "si_half": 12.9082, "y2": 0.1652, "y3": 0.5787,
               "z2": -0.8741, "z3": -1.8860},
    "effective": {"x2": -0.0905, "si_half": 2.5615, "y2": 0.1652, "y3": 0.5787,
                  "z2": 0.1810, "z3": -1.3690},
}
# near-cancelling sums get the looser tolerance
LOOSE = {("effective", "x2")}


def _chain(n):
    return solve_equilibrium(n)


def _spacing(n=2):
    u = solve_equilibrium(n)
    return u[1] - u[0]


def _chain_trap(n, omega_x_hz, omega_y_hz):
    """An n-ion linear chain at omega_z/2pi = 2 MHz."""
    return crystal.TrapConfig(
        n_ions=n, mass=MASS_CA40, omega_x=2 * np.pi * omega_x_hz,
        omega_y=2 * np.pi * omega_y_hz, omega_z=2 * np.pi * 2e6,
    )


# ---------------------------------------------------------------------------
# Oracle of the closed-form second-order shifts: ladder operators applied to
# occupation dicts, one cubic coupling and one sign pattern at a time, with
# the final-state amplitudes summed coherently before they are squared.


def _oracle_couplings(trap, modes, u):
    """Mode list, frequencies (units of omega_z) and cubic coefficients with
    at least one zigzag x index (units of omega_z), from the einsum D3 less
    the entries that the modes' mirror parities s forbid (s_a s_b s_p > 0)."""
    d3, _ = mode_tensors_einsum(pair_sum_tensor_einsum(u, 3), pair_sum_tensor_einsum(u, 4), modes.M)
    s = np.sign(np.sum(modes.M[::-1] * modes.M, axis=0))
    d3[np.einsum("a,b,c->abc", s, s, s) > 0] = 0.0
    n = modes.n_ions
    zz = n - 1
    x_modes = [("x", m) for m in range(1, n)]
    z_modes = [("z", m) for m in range(1, n)]
    freqs = {("x", m): float(np.sqrt(modes.gamma_x[m])) for m in range(1, n)}
    freqs.update({("z", m): float(np.sqrt(modes.lambda_z[m])) for m in range(1, n)})
    pref = 3.0 * anharmonic.anharmonic_prefactor(trap)
    g = {}
    for _, a in x_modes:
        for _, b in x_modes:
            if a != zz and b != zz:
                continue
            for _, p in z_modes:
                val = d3[a, b, p]
                if abs(val) < 1e-14:
                    continue
                denom = (modes.gamma_x[a] * modes.gamma_x[b] * modes.lambda_z[p]) ** 0.25
                g[(("x", a), ("x", b), ("z", p))] = pref * val / denom
    return x_modes + z_modes, freqs, g


def _ladder(occ, mode, sign):
    n = occ.get(mode, 0)
    if sign > 0:
        return float(np.sqrt(n + 1)), {**occ, mode: n + 1}
    if n == 0:
        return 0.0, occ
    return float(np.sqrt(n)), {**occ, mode: n - 1}


def _oracle_shift(occ, g, freqs, guard=1e-3):
    """Second-order shift of the Fock state ``occ``, units of omega_z."""
    amps = {}
    for (mn, mm, mp), coeff in g.items():
        # factors act right to left: z-mode first, then the two x factors
        for s3 in (1, -1):
            amp3, occ3 = _ladder(occ, mp, s3)
            if amp3 == 0.0:
                continue
            for s2 in (1, -1):
                amp2, occ2 = _ladder(occ3, mm, s2)
                if amp2 == 0.0:
                    continue
                for s1 in (1, -1):
                    amp1, occ1 = _ladder(occ2, mn, s1)
                    if amp1 == 0.0:
                        continue
                    key = tuple(sorted((m, v) for m, v in occ1.items() if v))
                    amps[key] = amps.get(key, 0.0) + coeff * amp3 * amp2 * amp1
    e0 = sum(freqs[m] * v for m, v in occ.items())
    shift = 0.0
    base = tuple(sorted((m, v) for m, v in occ.items() if v))
    for key, amp in amps.items():
        if key == base:
            continue
        denom = e0 - sum(freqs[m] * v for m, v in key)
        if abs(denom) < guard:
            raise NearResonanceError(f"denominator {denom:.3e}; resonant")
        shift += amp * amp / denom
    return shift


def _oracle_third_order(trap, modes, u, guard=1e-3):
    """The Kerr parameters of perturbative_third_order, fitted to the dict
    oracle on the probe grid |0>, |1_mu>, |2_mu> and every |1_mu 1_nu>."""
    mode_list, freqs, g = _oracle_couplings(trap, modes, u)
    wz = trap.omega_z
    n = modes.n_ions
    zz = ("x", n - 1)

    def shift(occ):
        return _oracle_shift(occ, g, freqs, guard)

    base = shift({})
    lin = {mu: shift({mu: 1}) - base for mu in mode_list}
    quad = {mu: 0.5 * (shift({mu: 2}) - 2.0 * shift({mu: 1}) + base) for mu in mode_list}
    cross = {}
    for i, mu in enumerate(mode_list):
        for nu in mode_list[i + 1 :]:
            cross[(mu, nu)] = shift({mu: 1, nu: 1}) - lin[mu] - lin[nu] - base
    # (direction, mode) arrays; the y rows and the COM column stay zero
    delta, dephasing = np.zeros((3, n)), np.zeros((3, n))
    for mu in mode_list:
        at = ("xyz".index(mu[0]), mu[1])
        delta[at] = (lin[mu] - quad[mu]) * wz
        if mu != zz:
            pair = (mu, zz) if (mu, zz) in cross else (zz, mu)
            dephasing[at] = cross[pair] * wz
    return KerrParams(omega_si=2.0 * quad[zz] * wz, delta=delta, dephasing=dephasing)


# omega_x/2pi of a ten-ion chain where the coupling (zz, x9, z4) sits 9.4e-4
# omega_z from resonance: mirror parity forbids it, so its rounding residue
# of 1.5e-14 must not reach the guard
MIRROR_TRAP_HZ = 9391964.650700087

# the table trap, a five-ion chain near its zigzag transition, an eight-ion
# chain, the ten-ion mirror trap
ORACLE_TRAPS = {
    "table": (3, 3.1012e6, 5e6),
    "n5": (5, 5.0e6, 6e6),
    "n8": (8, 8.0e6, 9e6),
    "n10-mirror": (10, MIRROR_TRAP_HZ, 1.1 * MIRROR_TRAP_HZ),
}


class TestThirdOrderOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_TRAPS))
    def test_matches_dict_oracle(self, name):
        trap = _chain_trap(*ORACLE_TRAPS[name])
        data = scenarios.derive_modes(trap)
        got = perturbative_third_order(trap, data.modes, data.u)
        ref = _oracle_third_order(trap, data.modes, data.u)
        assert got.omega_si == pytest.approx(ref.omega_si, rel=1e-12)
        assert got.delta.shape == got.dephasing.shape == (3, trap.n_ions)
        assert got.delta == pytest.approx(ref.delta, rel=1e-12, abs=0)
        assert got.dephasing == pytest.approx(ref.dephasing, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", ["table", "n5"])
    def test_guard_trips_with_the_oracle(self, name):
        # every sign pattern with a nonzero coupling is checked: for guards
        # swept across the denominators, the batched sums raise exactly when
        # the oracle does, somewhere on its probe grid
        trap = _chain_trap(*ORACLE_TRAPS[name])
        data = scenarios.derive_modes(trap)
        outcomes = set()
        for guard in np.geomspace(1e-3, 3.0, 25):
            try:
                _oracle_third_order(trap, data.modes, data.u, guard)
                expected = False
            except NearResonanceError:
                expected = True
            outcomes.add(expected)
            if expected:
                with pytest.raises(NearResonanceError, match="resonant_coupling"):
                    perturbative_third_order(trap, data.modes, data.u, guard)
            else:
                perturbative_third_order(trap, data.modes, data.u, guard)
        assert outcomes == {False, True}


def _loop_c3(chain):
    """C3 entry by entry, the case split over ion indices."""
    u = np.asarray(chain, dtype=float)
    n = len(u)
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    a = np.sign(d) / np.abs(d) ** 4
    c3 = np.zeros((n, n, n))
    for i in range(n):
        c3[i, i, i] = a[i].sum()
        for k in range(n):
            if k != i:
                c3[i, i, k] = c3[i, k, i] = c3[k, i, i] = a[k, i]
    return c3


def _loop_c4(chain):
    """C4 entry by entry, the case split over ion indices."""
    u = np.asarray(chain, dtype=float)
    n = len(u)
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    b = 1.0 / d**5
    c4 = np.zeros((n, n, n, n))
    for idx in np.ndindex(n, n, n, n):
        vals, counts = np.unique(idx, return_counts=True)
        if len(vals) == 1:
            c4[idx] = b[idx[0]].sum()
        elif len(vals) == 2:
            # 2+2 split: +b; 3+1 split: the minority index picks up the minus sign
            c4[idx] = b[vals[0], vals[1]] * (1 if counts[0] == 2 else -1)
    return c4


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_pair_sums_match_case_split(n):
    # off-diagonal entries hold one pair term each and agree exactly; the
    # diagonal sums n - 1 terms in another order
    chain = _chain(n)
    for k, loop in ((3, _loop_c3), (4, _loop_c4)):
        got, ref = pair_sum_tensor_einsum(chain, k), loop(chain)
        np.testing.assert_allclose(got, ref, rtol=0, atol=n * np.finfo(float).eps * np.abs(ref).max())
        off = np.ones(got.shape, dtype=bool)
        off[(np.arange(n),) * got.ndim] = False
        assert np.array_equal(got[off], ref[off])


def _census_d4(u, m):
    """D4 (N^4) filled from the RWA census's D4[a, a:] slabs and the
    symmetry in the first two modes."""
    d4 = np.empty((len(u),) * 4)
    for a, slab in enumerate(_quartic_slices(u, m)):
        d4[a, a:] = slab
        d4[a:, a] = slab
    return d4


def _read_couplings(n, omega_x_hz, omega_y_hz):
    """What the readers sum on an n-ion chain: D3[zz] (N, N), the Kerr
    couplings D4[zz, zz, m, m] for m >= 1, recovered from effective_kerr's y
    dephasing rates, and the census's D4 filled from its D4[a, a:] slabs; and
    the einsum D3 and D4 of the same chain."""
    trap = _chain_trap(n, omega_x_hz, omega_y_hz)
    chain, modes = crystal.modes_for_trap(trap)
    zz = n - 1
    y_rates = effective_kerr(trap, modes, chain).dephasing[1, 1:]
    kerr = y_rates * np.sqrt(modes.gamma_x[zz] * modes.gamma_y[1:]) / (24.0 * anharmonic_prefactor(trap) ** 2 * trap.omega_z)
    census = _census_d4(chain, modes.M)
    einsum = mode_tensors_einsum(pair_sum_tensor_einsum(chain, 3), pair_sum_tensor_einsum(chain, 4), modes.M)
    return modes, _cubic_slice(chain, modes.M, zz), kerr, census, einsum


@pytest.mark.parametrize(
    "n, omega_x_hz, omega_y_hz", [(3, 3.1012e6, 5e6), (5, 5e6, 6e6), (20, 2.0e7, 2.2e7)]
)
def test_fixed_order_contractions_match_einsum(n, omega_x_hz, omega_y_hz):
    # 20 ions: the chain of the tables-n20 benchmark workload
    _, d3_zz, kerr, census, (d3, d4) = _read_couplings(n, omega_x_hz, omega_y_hz)
    zz, m = n - 1, np.arange(1, n)
    for direct, einsum in ((d3_zz, d3[zz]), (kerr, d4[zz, zz, m, m]), (census, d4)):
        assert direct.shape == einsum.shape
        assert np.max(np.abs(direct - einsum)) <= 1e-13 * np.max(np.abs(einsum))


@pytest.mark.parametrize("n, omega_x_hz", [(3, 3.1012e6), (10, MIRROR_TRAP_HZ), (20, 2.0e7)])
def test_parity_forbidden_couplings_are_exactly_zero(n, omega_x_hz):
    # under the mirror u -> -u, D3 is odd and D4 even: an entry whose modes'
    # parities multiply to +1 (D3) or -1 (D4) vanishes, exactly, in D3[zz]
    # and in every census slab D4[a, a:]
    modes, d3_zz, _, census, _ = _read_couplings(n, omega_x_hz, 1.1 * omega_x_hz)
    s = np.sign(np.sum(modes.M[::-1] * modes.M, axis=0))
    assert np.array_equal(np.abs(s), np.ones(n))
    odd3 = np.einsum("a,b,c->abc", s, s, s)[n - 1] < 0
    even4 = np.einsum("a,b,c,d->abcd", s, s, s, s) > 0
    assert np.all(d3_zz[~odd3] == 0.0) and np.all(census[~even4] == 0.0)
    # the allowed entries are not all zero: each parity class carries couplings
    assert np.count_nonzero(d3_zz[odd3]) and np.count_nonzero(census[even4])


class TestC3:
    def test_two_ion_diagonal_entry(self):
        d = _spacing()
        c3 = pair_sum_tensor_einsum(_chain(2), 3)
        assert c3[1, 1, 1] == pytest.approx(1.0 / d**4, rel=1e-12)
        assert c3[1, 1, 1] == pytest.approx(0.3969, abs=1e-4)
        assert c3[0, 0, 0] == pytest.approx(-1.0 / d**4, rel=1e-12)

    def test_middle_ion_cancellation(self):
        c3 = pair_sum_tensor_einsum(_chain(3), 3)
        assert c3[1, 1, 1] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sign_antisymmetry(self, n):
        c3 = pair_sum_tensor_einsum(_chain(n), 3)
        for i in range(n):
            for k in range(n):
                if i != k:
                    assert c3[i, i, k] == pytest.approx(-c3[k, k, i], rel=1e-12)

    def test_vanishes_for_distinct_indices(self):
        c3 = pair_sum_tensor_einsum(_chain(4), 3)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    if len({i, j, k}) == 3:
                        assert c3[i, j, k] == 0.0

    def test_symmetric_in_first_two_indices(self):
        c3 = pair_sum_tensor_einsum(_chain(4), 3)
        assert np.max(np.abs(c3 - c3.transpose(1, 0, 2))) == 0.0


class TestC4:
    def test_two_ion_diagonal_entry(self):
        d = _spacing()
        c4 = pair_sum_tensor_einsum(_chain(2), 4)
        assert c4[0, 0, 0, 0] == pytest.approx(1.0 / d**5, rel=1e-12)
        assert c4[0, 0, 0, 0] == pytest.approx(0.3150, abs=1e-4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_last_index_sums_to_zero(self, n):
        c4 = pair_sum_tensor_einsum(_chain(n), 4)
        assert np.max(np.abs(c4.sum(axis=3))) < 1e-12

    def test_full_permutation_symmetry(self):
        c4 = pair_sum_tensor_einsum(_chain(3), 4)
        for perm in permutations(range(4)):
            assert np.array_equal(c4, c4.transpose(perm))


class TestTaylorOracle:
    """The cubic/quartic tensors must reproduce the actual potential.

    The full dimensionless potential (trap plus Coulomb) is expanded around
    equilibrium with the Hessians, C3 and C4; the residual against direct
    evaluation has to scale as the fifth power of the displacement size.
    """

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quartic_taylor_expansion(self, n):
        rng = np.random.default_rng(5)
        u = solve_equilibrium(n)
        ax, ay = 0.21, 0.08
        v_z, v_x, v_y = radial_hessians(u, ax, ay)
        c3 = pair_sum_tensor_einsum(u, 3)
        c4 = pair_sum_tensor_einsum(u, 4)

        def potential(x, y, z):
            pos = u + z
            w = 0.5 * (np.dot(x, x) / ax + np.dot(y, y) / ay + np.dot(pos, pos))
            for i in range(n):
                for j in range(i + 1, n):
                    w += 1.0 / np.sqrt(
                        (pos[i] - pos[j]) ** 2
                        + (x[i] - x[j]) ** 2
                        + (y[i] - y[j]) ** 2
                    )
            return w

        def model(x, y, z):
            w = potential(np.zeros(n), np.zeros(n), np.zeros(n))
            w += 0.5 * (x @ v_x @ x + y @ v_y @ y + z @ v_z @ z)
            cubic = 3 * np.einsum("ijk,i,j,k->", c3, x, x, z)
            cubic += 3 * np.einsum("ijk,i,j,k->", c3, y, y, z)
            cubic -= 2 * np.einsum("ijk,i,j,k->", c3, z, z, z)
            w += 0.5 * cubic
            quart = 3 * np.einsum("ijkl,i,j,k,l->", c4, x, x, x, x)
            quart += 3 * np.einsum("ijkl,i,j,k,l->", c4, y, y, y, y)
            quart += 8 * np.einsum("ijkl,i,j,k,l->", c4, z, z, z, z)
            quart += 6 * np.einsum("ijkl,i,j,k,l->", c4, x, x, y, y)
            quart -= 24 * np.einsum("ijkl,i,j,k,l->", c4, x, x, z, z)
            quart -= 24 * np.einsum("ijkl,i,j,k,l->", c4, y, y, z, z)
            w += quart * 3.0 / 24.0
            return w

        direction = rng.standard_normal((3, n))
        direction /= np.linalg.norm(direction)
        residuals = []
        for h in (2e-2, 1e-2):
            x, y, z = h * direction
            residuals.append(abs(potential(x, y, z) - model(x, y, z)))
        # quintic remainder: halving h must shrink it by about 2^5
        assert residuals[0] > 0
        assert residuals[0] / residuals[1] == pytest.approx(32.0, rel=0.35)
        assert residuals[1] < 1e-8


class TestModeTensors:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_com_entries_vanish(self, n):
        chain = _chain(n)
        alpha_x = 0.1 if n < 5 else 0.05
        v_z, _, _ = radial_hessians(chain, alpha_x, 0.05)
        modes = normal_modes(v_z, alpha_x, 0.05)
        # every D3[a] and D4[a] slice that the readers sum
        d3 = np.stack([_cubic_slice(chain, modes.M, a) for a in range(n)])
        d4 = _census_d4(chain, modes.M)
        assert np.max(np.abs(d3[0])) < 1e-12
        assert np.max(np.abs(d3[:, 0, :])) < 1e-12
        assert np.max(np.abs(d3[:, :, 0])) < 1e-12
        assert np.max(np.abs(d4[0])) < 1e-12
        assert np.max(np.abs(d4[:, :, :, 0])) < 1e-12

    def test_d3_symmetric_first_pair(self, table_data):
        n = table_data.trap.n_ions
        d3 = np.stack([_cubic_slice(table_data.u, table_data.modes.M, a) for a in range(n)])
        direct = np.einsum(
            "ijk,in,jm,kp->nmp",
            pair_sum_tensor_einsum(solve_equilibrium(table_data.trap.n_ions), 3),
            table_data.modes.M,
            table_data.modes.M,
            table_data.modes.M,
        )
        assert np.max(np.abs(d3 - direct.transpose(1, 0, 2))) < 1e-12


def _by_label(params: np.ndarray) -> dict:
    """A (3, N) parameter array keyed by table label, the x zigzag as "zz"."""
    n = params.shape[1]
    out = {
        anharmonic.mode_label(d, m): params[i, m]
        for i, d in enumerate("xyz") for m in range(1, n)
    }
    out["zz"] = out.pop(anharmonic.mode_label("x", n - 1))
    return out


def _assert_table(actual: dict, expected: dict, order: str):
    for key, ref in expected.items():
        tol = 0.05 if (order, key) in LOOSE else 0.01
        got = actual[key] / KHZ
        if ref == 0.0:
            assert got == 0.0, f"{order}/{key}: expected exact zero, got {got}"
        else:
            assert got == pytest.approx(ref, rel=tol), f"{order}/{key}"


class TestEffectiveParameters:
    def test_fourth_order_dephasing_table(self, table_trap, table_data):
        par = effective_kerr(table_trap, table_data.modes, table_data.u)
        actual = _by_label(par.dephasing)
        actual["si_half"] = par.omega_si / 2
        _assert_table(actual, DEPHASING["fourth"], "fourth")

    def test_fourth_order_shift_table(self, table_trap, table_data):
        par = effective_kerr(table_trap, table_data.modes, table_data.u)
        actual = _by_label(par.delta)
        _assert_table(actual, FREQ_SHIFTS["fourth"], "fourth")

    def test_third_order_tables(self, table_trap, table_data):
        par = perturbative_third_order(table_trap, table_data.modes, table_data.u)
        deph = _by_label(par.dephasing)
        deph["si_half"] = par.omega_si / 2
        _assert_table(deph, DEPHASING["third"], "third")
        _assert_table(_by_label(par.delta), FREQ_SHIFTS["third"], "third")

    def test_effective_tables_and_breakdown(self, table_params):
        deph = _by_label(table_params.effective.dephasing)
        deph["si_half"] = table_params.effective.omega_si / 2
        _assert_table(deph, DEPHASING["effective"], "effective")
        _assert_table(_by_label(table_params.effective.delta), FREQ_SHIFTS["effective"],
                      "effective")
        # breakdown invariant: effective = third + fourth, elementwise
        assert table_params.effective.delta == pytest.approx(
            table_params.third.delta + table_params.fourth.delta, abs=1e-9
        )
        assert table_params.effective.omega_si == pytest.approx(
            table_params.third.omega_si + table_params.fourth.omega_si, abs=1e-9
        )

    def test_shift_polynomial_is_exactly_quadratic(self, table_trap, table_data):
        # perturbative_third_order reads the Kerr coefficients off E2 as an
        # exact quadratic in the occupations: the quadratic fitted to the
        # dict oracle on |0>, |1_mu>, |2_mu>, |1_mu 1_nu> must reproduce
        # states outside the fit grid.  Columns: x2, x3 (zigzag), z2, z3
        _, freqs, g = _oracle_couplings(table_trap, table_data.modes, table_data.u)
        names = [("x", 1), ("x", 2), ("z", 1), ("z", 2)]

        def shifts(states):
            return np.array([
                _oracle_shift({names[i]: int(v) for i, v in enumerate(occ) if v}, g, freqs)
                for occ in states
            ])

        m = 4
        eye = np.eye(m)
        pairs = [eye[i] + eye[j] for i in range(m) for j in range(i + 1, m)]
        probes = np.vstack([np.zeros(m), eye, 2 * eye, *pairs])
        e2 = shifts(probes)
        base, one, two = e2[0], e2[1 : m + 1], e2[m + 1 : 2 * m + 1]
        lin = one - base
        quad = 0.5 * (two - 2 * one + base)
        cross = np.zeros((m, m))
        for (i, j), e in zip(
            [(i, j) for i in range(m) for j in range(i + 1, m)], e2[2 * m + 1 :]
        ):
            cross[i, j] = e - lin[i] - lin[j] - base

        def predict(occ):
            return base + lin @ occ + quad @ (occ * (occ - 1)) + occ @ cross @ occ

        zz, t, st = 1, 0, 2
        states = np.zeros((4, m))
        states[0, zz] = 3
        states[1, [zz, t]] = 2, 1
        states[2, [zz, t, st]] = 1
        states[3, [zz, st]] = 3, 2
        for occ, e in zip(states, shifts(states)):
            assert e == pytest.approx(predict(occ), rel=1e-9)

    def test_near_critical_regime_error(self):
        alpha_c = critical_anisotropy(3)
        wz = 2 * np.pi * 2e6
        trap = crystal.TrapConfig(
            n_ions=3, mass=MASS_CA40,
            omega_x=wz / np.sqrt(alpha_c * (1 - 1e-7)),
            omega_y=2 * np.pi * 5e6, omega_z=wz,
        )
        data = scenarios.derive_modes(trap)
        with pytest.raises(PerturbativeRegimeError):
            effective_kerr(trap, data.modes, data.u)

    def test_resonant_trap_trips_denominator_guard(self, resonance_trap, resonance_data):
        with pytest.raises(NearResonanceError, match="resonant"):
            perturbative_third_order(
                resonance_trap, resonance_data.modes, resonance_data.u
            )

    @pytest.mark.parametrize("omega_x_hz", [84688578.55028766, 1e8])
    def test_rounding_level_coupling_does_not_trip_the_guard(self, omega_x_hz):
        # 40 ions: parity allows the couplings (zz, x24, z2), 2.1e-14 at a
        # denominator of 1.2e-4 omega_z, and (zz, x3, z3), 1.5e-15 at
        # 7.3e-4 omega_z; both sit below the pair sum's rounding floor of
        # 6.4e-13, and the einsum form reads them as 2.2e-14 and 8e-16
        trap = _chain_trap(40, omega_x_hz, 1.1 * omega_x_hz)
        data = scenarios.derive_modes(trap)
        third = perturbative_third_order(trap, data.modes, data.u)
        assert np.isfinite(third.omega_si)


class TestResonantCoupling:
    def test_exchange_rate_at_reference_point(self, resonance_trap, resonance_data):
        res = resonant_coupling(resonance_trap, resonance_data.modes,
                                resonance_data.u)
        assert abs(res.omega_t) / KHZ == pytest.approx(5.9, rel=0.02)

    def test_detuning_vanishes_on_resonance(self, resonance_trap, resonance_data):
        res = resonant_coupling(resonance_trap, resonance_data.modes,
                                resonance_data.u)
        assert abs(res.detuning) < 1e-6 * resonance_trap.omega_z

    def test_scaling_with_axial_frequency(self, resonance_data):
        # z0 ~ wz^(-1/2), l_z ~ wz^(-2/3): Omega_T ~ wz^(7/6) at fixed
        # anisotropy; evaluate at two axial frequencies
        res1 = resonant_coupling(
            resonance_data.trap, resonance_data.modes, resonance_data.u
        )
        wz2 = 2 * np.pi * 4e6
        trap2 = crystal.TrapConfig(
            n_ions=3, mass=MASS_CA40,
            omega_x=wz2 * np.sqrt(63.0 / 20.0),
            omega_y=2 * np.pi * 10e6, omega_z=wz2,
        )
        data2 = scenarios.derive_modes(trap2)
        res2 = resonant_coupling(trap2, data2.modes, data2.u)
        assert res2.omega_t / res1.omega_t == pytest.approx(2 ** (7.0 / 6.0), rel=1e-9)


def _rwa_term_loop(trap, modes, d4):
    """Largest non-secular |coefficient / frequency|, one term at a time, on
    the quartic couplings ``d4`` (N^4)."""
    n = modes.n_ions
    kappa = anharmonic.anharmonic_prefactor(trap) ** 2
    wz = trap.omega_z
    omega_x = modes.omega_radial_x(wz)
    best = 0.0
    for quartet in np.ndindex(n, n, n, n):
        denom = np.prod([modes.gamma_x[m] for m in quartet]) ** 0.25
        coeff = 3.0 * kappa * wz * d4[quartet] / denom
        for signs in product((1, -1), repeat=4):
            freq = float(sum(s * omega_x[m] for s, m in zip(signs, quartet)))
            if abs(freq) >= 1e-9 * wz:
                best = max(best, abs(coeff / freq))
    return best


class TestRWAReport:
    def test_matches_term_loop(self, table_trap, table_data):
        # the term loop on the census's own D4[a, a:] slabs, so the same quotients
        ratio = max_nonsecular_ratio(table_trap, table_data.modes, table_data.u)
        d4 = _census_d4(table_data.u, table_data.modes.M)
        assert ratio == _rwa_term_loop(table_trap, table_data.modes, d4)

    def test_secular_terms_have_zero_frequency(self, table_trap, table_data):
        # the secular terms are exactly the number-conserving sign patterns
        # (each raised mode lowered again), which rotate at 0; every other
        # pattern is far from the 1e-9 omega_z cut, so the census is robust
        n = table_data.modes.n_ions
        wz = table_trap.omega_z
        omega = table_data.modes.omega_radial_x(wz)
        signs = np.array(list(product((1, -1), repeat=4)))  # (16, 4)
        quartets = np.indices((n,) * 4).reshape(4, -1).T  # (n^4, 4)
        freq = (signs[:, None, :] * omega[quartets][None, :, :]).sum(axis=-1)
        # net quanta each pattern adds to each mode
        balance = np.einsum("sk,qkm->sqm", signs, np.eye(n, dtype=int)[quartets])
        conserving = np.all(balance == 0, axis=-1)
        # 6 placements of the two raisings, n^2 raised pairs, each lowered in
        # 2 orders (1 when both are the same mode)
        assert conserving.sum() == 6 * (2 * n * (n - 1) + n)
        assert np.max(np.abs(freq[conserving])) < 1e-9 * wz
        assert np.min(np.abs(freq[~conserving])) > 1e-3 * wz

    def test_max_nonsecular_ratio_frozen(self, table_trap, table_data):
        # dominated by the zigzag-only quartet rotating at 2*omega_zz;
        # small compared to 1, which is what justifies the RWA
        ratio = max_nonsecular_ratio(table_trap, table_data.modes, table_data.u)
        assert ratio == pytest.approx(8.13e-3, rel=0.02)
        assert ratio < 1e-2

    @pytest.mark.parametrize("n_ions", [3, 5, 20])
    def test_loop_is_the_oneshot_form(self, n_ions, table_trap):
        # the loop over the first operator against all (2N)^4 frequencies
        # at once: the same quotients, so the same maximum, exactly
        if n_ions == 3:
            trap = table_trap
        else:
            raw = {"scenario": "tables", "n_ions": n_ions, "omega_x_hz": 2.0e7, "omega_y_hz": 2.2e7}
            trap = cli.build_config(raw).trap()
        data = scenarios.derive_modes(trap)
        ratio = max_nonsecular_ratio(trap, data.modes, data.u)
        assert ratio > 0
        assert ratio == max_nonsecular_ratio_oneshot(trap, data.modes, _census_d4(data.u, data.modes.M))

    def test_census_forms_no_pair_product(self):
        # 50 ions: the census's traced peak stays below the (pairs, N^2)
        # product of the pair rows, 8 pairs N^2 bytes (24.5 MB), which it
        # does not form (43.2 MB when it did; 11.5 MB from its slabs)
        n = 50
        raw = {"scenario": "tables", "n_ions": n, "omega_x_hz": 2.0e8, "omega_y_hz": 2.2e8}
        trap = cli.build_config(raw).trap()
        data = scenarios.derive_modes(trap)
        tracemalloc.start()
        try:
            max_nonsecular_ratio(trap, data.modes, data.u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n * (n - 1) // 2) * n**2

    def test_twenty_ion_tables_run_memory(self, tmp_path):
        # the traced peak of a 20-ion tables run: the (2N)^4 = 2.56e6
        # frequencies and their mask took 24.3 of its 25.7 MB when formed at
        # once; looped over the first operator they hold (2N)^3
        raw = {"scenario": "tables", "n_ions": 20, "omega_x_hz": 2.0e7, "omega_y_hz": 2.2e7}
        cli.run_scenario(cli.build_config(dict(raw, out_dir=str(tmp_path / "warm"))))
        tracemalloc.start()
        try:
            cli.run_scenario(cli.build_config(dict(raw, out_dir=str(tmp_path / "run"))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6


class TestResonantManifolds:
    def test_reference_eigenvalues(self):
        omega_t = 2 * np.pi * 5.9e3
        man = {m.charge: m for m in resonant_manifolds(omega_t, 5)}
        ref = {
            2: np.array([-np.sqrt(2), np.sqrt(2)]),
            3: np.array([-np.sqrt(6), np.sqrt(6)]),
            4: np.array([-4.0, 0.0, 4.0]),
            5: np.array([-4 * np.sqrt(2), 0.0, 4 * np.sqrt(2)]),
        }
        for q, expected in ref.items():
            np.testing.assert_allclose(
                man[q].eigenvalues / omega_t, expected, rtol=1e-10, atol=1e-12
            )
        assert man[2].states == [(0, 2), (1, 0)]
        assert man[4].states == [(0, 4), (1, 2), (2, 0)]

    def test_against_dense_diagonalization(self):
        # independent route: the exchange Hamiltonian built from truncated
        # ladder operators, block-extracted per conserved charge
        omega_t = 2 * np.pi * 5.9e3
        a = fock.embed(fock.destroy(8), 0, (8, 5))
        c = fock.embed(fock.destroy(5), 1, (8, 5))
        h = omega_t * (a @ a @ c.conj().T + a.conj().T @ a.conj().T @ c)
        for man in resonant_manifolds(omega_t, 5):
            idx = [nz * 5 + ns for ns, nz in man.states]
            block = h[np.ix_(idx, idx)]
            dense = np.sort(np.linalg.eigvalsh(block))
            np.testing.assert_allclose(
                man.eigenvalues, dense, rtol=1e-10, atol=1e-12 * omega_t
            )

    def test_requires_two_quanta(self):
        with pytest.raises(ValueError):
            resonant_manifolds(1.0, 1)


class TestScalingTowardTransition:
    def test_kerr_rates_scale_with_gamma_zz(self):
        # Omega_SI ~ 1/gamma_zz and Omega_d ~ 1/sqrt(gamma_zz); regress
        # log-magnitudes on log(gamma_zz) over a decade
        wz = 2 * np.pi * 2e6
        gammas, osi, od = [], [], []
        for gamma_target in (0.05, 0.02, 0.01, 0.005, 0.002):
            u = solve_equilibrium(3)
            lam_max = 29.0 / 5.0
            alpha = 1.0 / (gamma_target - 0.5 + lam_max / 2.0)
            trap = crystal.TrapConfig(
                n_ions=3, mass=MASS_CA40,
                omega_x=wz / np.sqrt(alpha), omega_y=2 * np.pi * 5e6, omega_z=wz,
            )
            data = scenarios.derive_modes(trap)
            par = effective_kerr(trap, data.modes, data.u)
            gammas.append(data.modes.gamma_x[-1])
            osi.append(par.omega_si)
            od.append(abs(par.dephasing[1, -1]))  # the y zigzag
        slope_si = np.polyfit(np.log(gammas), np.log(osi), 1)[0]
        slope_d = np.polyfit(np.log(gammas), np.log(od), 1)[0]
        assert slope_si == pytest.approx(-1.0, abs=0.05)
        assert slope_d == pytest.approx(-0.5, abs=0.025)


class TestExactLadder:
    """The paper's perturbative Omega_SI (third plus fourth order, with the
    RWA on the quartic term) against ``exact_zigzag_ladder``, the second
    difference of the exactly diagonalized zigzag ladder."""

    @pytest.mark.parametrize("omega_x_hz", [3.6e6, 3.15e6, 3.12e6])
    def test_perturbative_within_one_percent_far_from_transition(self, omega_x_hz):
        # gamma_zz = 0.84, 8.1e-2 and 3.4e-2
        data = scenarios.derive_modes(_chain_trap(3, omega_x_hz, 5e6))
        perturbative = scenarios.kerr_parameters(data).effective.omega_si
        assert perturbative == pytest.approx(exact_zigzag_ladder(data), rel=0.01)

    def test_reference_gap(self, table_data, table_params):
        # at gamma_zz = 4.4e-3 the perturbative Omega_SI/2pi is 5114 Hz and
        # the exact ladder's 4419 Hz: the gap (exact - perturbative) /
        # perturbative is -13.6 %, which no regime guard reports
        perturbative = table_params.effective.omega_si
        exact = exact_zigzag_ladder(table_data)
        assert perturbative / (2 * np.pi) == pytest.approx(5114.3, abs=0.5)
        assert exact / (2 * np.pi) == pytest.approx(4418.7, abs=0.5)
        assert (exact - perturbative) / perturbative == pytest.approx(-0.136, abs=0.005)
