import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionspec2d import dynamics, fock, protocol, scenarios
from ionspec2d.dynamics import (
    LindbladModel,
    PropagatorAccuracyError,
    PropagatorSizeError,
    heating_dissipator,
)
from ionspec2d.fock import FockRegister, destroy, thermal_state
from ionspec2d.protocol import (
    PulseSequence,
    SignalGrid,
    SignalRealityError,
    grid_points,
    phase_cycle,
    run_once,
    scan,
)

TWO_PI = 2 * np.pi


def _free_mode(dim, omega=TWO_PI * 20e3):
    reg = FockRegister(dims=(dim,), labels=("m",))
    h = omega * np.diag(np.arange(dim)).astype(complex)
    return LindbladModel(hamiltonian=h, register=reg)


class TestRunOnce:
    def test_no_pulses_returns_initial_population(self):
        model = _free_mode(8)
        rho0, _ = thermal_state(0.9, 8)
        nbar = float(np.real(np.trace(np.diag(np.arange(8)) @ rho0)))
        seq = PulseSequence(amplitudes=(0.0,) * 4)
        cache = {}
        for t1, t3 in ((0.0, 0.0), (3e-5, 0.0), (2e-5, 7e-5)):
            s = run_once(model, rho0, seq, t1, t3, (0.3, 1.1, 2.0), prop_cache=cache)
            assert s == pytest.approx(nbar, abs=1e-12)

    def test_single_pulse_coherent_population(self):
        model = _free_mode(12)
        rho0 = np.zeros((12, 12), dtype=complex)
        rho0[0, 0] = 1.0
        seq = PulseSequence(amplitudes=(0.25, 0.0, 0.0, 0.0))
        s = run_once(model, rho0, seq, 0.0, 0.0, (0.0, 0.0, 0.0))
        assert s == pytest.approx(0.0625, abs=1e-10)

    def test_imaginary_residual_raises(self):
        model = _free_mode(6)
        rho_bad = np.zeros((6, 6), dtype=complex)
        rho_bad[0, 0] = 1.0
        rho_bad[0, 1] = 1j  # not Hermitian: trace picks up an imaginary part
        seq = PulseSequence(amplitudes=(0.25, 0.25, 0.25, 0.25))
        with pytest.raises(SignalRealityError):
            run_once(model, rho_bad, seq, 0.0, 0.0, (0.5, 0.5, 0.5))


class TestPhaseCycle:
    def test_constant_signal_vanishes_for_nonzero_signature(self):
        raw = np.full((4, 4, 4), 2.7)
        assert abs(phase_cycle(raw, (1, -1, -1))) < 1e-14

    def test_cosine_fourier_coefficient(self):
        phases = TWO_PI * np.arange(4) / 4
        raw = np.cos(phases)[:, None, None] * np.ones((4, 4, 4))
        assert phase_cycle(raw, (1, 0, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_planted_orders_extracted_exactly(self):
        # signal with only p = (2, -2, 1) content: orthogonal signatures see
        # zero, the planted one is recovered
        n = (4, 4, 4)
        amp = 0.37
        grids = np.meshgrid(*[TWO_PI * np.arange(k) / k for k in n], indexing="ij")
        phase = 2 * grids[0] - 2 * grids[1] + 1 * grids[2]
        raw = amp * np.cos(phase + 0.4)
        got = phase_cycle(raw, (2, -2, 1))
        assert got == pytest.approx(amp / 2 * np.exp(1j * 0.4), abs=1e-12)
        # (1,-1,-1) differs from (2,-2,1) by (1,-1,-2), not a multiple of 4
        assert abs(phase_cycle(raw, (1, -1, -1))) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
        q=st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_dft_orthogonality_property(self, p, q):
        n = (5, 5, 5)
        grids = np.meshgrid(*[TWO_PI * np.arange(k) / k for k in n], indexing="ij")
        phase = sum(pk * g for pk, g in zip(p, grids))
        raw = np.cos(phase)
        got = phase_cycle(raw, q)
        aliased = all((qk - pk) % nk == 0 for pk, qk, nk in zip(p, q, n))
        anti_aliased = all((qk + pk) % nk == 0 for pk, qk, nk in zip(p, q, n))
        expected = 0.0
        if aliased:
            expected += 0.5
        if anti_aliased:
            expected += 0.5
        assert abs(got) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("shape", [(4, 4, 4), (7, 6, 4, 3, 5)])
    def test_matches_complex_einsum(self, shape):
        # the reference contraction, which copies the real stack to complex
        raw = np.random.default_rng(5).standard_normal(shape)
        signature = (1, -1, -1)
        w = [
            np.exp(-1j * q * TWO_PI * np.arange(n) / n) / n
            for q, n in zip(signature, shape[-3:])
        ]
        ref = np.einsum("...abc,a,b,c->...", raw, *w, optimize=True)
        got = phase_cycle(raw, signature)
        assert np.shape(got) == shape[:-3]
        assert np.max(np.abs(got - ref)) <= 1e-15

    def test_linearity_in_initial_state(self):
        # extraction commutes with convex mixtures of raw stacks
        rng = np.random.default_rng(3)
        raw_a = rng.standard_normal((4, 4, 4))
        raw_b = rng.standard_normal((4, 4, 4))
        lam = 0.3
        mixed = phase_cycle(lam * raw_a + (1 - lam) * raw_b, (1, -1, -1))
        parts = lam * phase_cycle(raw_a, (1, -1, -1)) + (1 - lam) * phase_cycle(
            raw_b, (1, -1, -1)
        )
        assert mixed == pytest.approx(parts, abs=1e-14)


class TestGrid:
    def test_reference_grid_shapes(self):
        assert grid_points(2e-3, 25.3e-6) == 80
        assert grid_points(2e-3, 10.6e-6) == 189
        assert grid_points(1e-3, 10.6e-6) == 95
        assert grid_points(1e-3, 25.3e-6) == 40

    def test_uniform_axis_validation(self):
        with pytest.raises(ValueError, match="uniform"):
            SignalGrid(
                t1=np.array([0.0, 1.0, 3.0]),
                t3=np.array([0.0, 1.0, 2.0]),
                values=np.zeros((3, 3), dtype=complex),
            )

    def test_scan_consistent_with_run_once(self):
        model = _free_mode(7, omega=TWO_PI * 30e3)
        rho0, _ = thermal_state(0.5, 7)
        with pytest.warns(UserWarning, match="aliasing"):
            seq = PulseSequence(n_phases=(2, 2, 2))
        dt = 1e-5
        grid = scan(model, rho0, seq, t_max=2 * dt, dt=dt)
        assert grid.values.shape == (3, 3)
        # rebuild s(0, dt) by direct protocol executions over all phase tuples
        cache = {}
        w = [np.exp(-1j * q * TWO_PI * np.arange(2) / 2) / 2 for q in seq.signature]
        acc = 0.0
        for j2 in range(2):
            for j3 in range(2):
                for j4 in range(2):
                    val = run_once(
                        model, rho0, seq, 0.0, dt,
                        (np.pi * j2, np.pi * j3, np.pi * j4),
                        prop_cache=cache,
                    )
                    acc += val * w[0][j2] * w[1][j3] * w[2][j4]
        assert grid.values[0, 1] == pytest.approx(acc, abs=1e-11)


def _kerr_mode(dim=7):
    """Diagonal H: the closed form takes the phases directly."""
    reg = FockRegister(dims=(dim,), labels=("m",))
    n_op = np.diag(np.arange(dim)).astype(complex)
    h = TWO_PI * 12e3 * n_op + TWO_PI * 2.5e3 * (n_op @ n_op - n_op)
    return LindbladModel(hamiltonian=h, register=reg), thermal_state(0.4, dim)[0]


def _driven_kerr_mode(dim=7):
    """Non-diagonal Hermitian H: the closed form diagonalizes it."""
    model, rho0 = _kerr_mode(dim)
    a = destroy(dim)
    drive = TWO_PI * 1.5e3 * np.exp(0.7j) * a
    h = model.hamiltonian + drive + drive.conj().T
    return LindbladModel(hamiltonian=h, register=model.register), rho0


def _damped_kerr_mode(dim=7):
    """Pure amplitude damping: the jump a rho a^+ feeds rho_{n-1,m-1} from
    rho_{n,m} and nothing feeds back, so the Liouvillian's sparsity pattern
    is not symmetric and its blocks are only weakly connected."""
    model, rho0 = _kerr_mode(dim)
    damped = LindbladModel(
        hamiltonian=model.hamiltonian, collapse_ops=[(destroy(dim), 2e3)], register=model.register
    )
    return damped, rho0


def _heated_exchange(dims=(4, 3)):
    """Two-mode Lindblad model: the sparse Liouvillian path.  The complex
    coupling and the extra cooling jump make L differ from its transpose."""
    reg = FockRegister(dims=dims, labels=("zz", "str"))
    a = fock.embed(destroy(dims[0]), 0, reg)
    c = fock.embed(destroy(dims[1]), 1, reg)
    g = TWO_PI * 5e3 * np.exp(0.3j)
    h = g * (a @ a @ c.conj().T) + np.conj(g) * (a.conj().T @ a.conj().T @ c)
    model = LindbladModel(
        hamiltonian=h,
        collapse_ops=heating_dissipator(0, 0.4e3, reg)
        + heating_dissipator(1, 0.2e3, reg)
        + [(a, 0.3e3)],
        register=reg,
    )
    rho0 = fock.product_state([thermal_state(0.5, dims[0])[0], thermal_state(0.2, dims[1])[0]])
    return model, rho0


def _driven_heated_exchange():
    """``_heated_exchange`` plus a linear zigzag drive a + a^+, which breaks
    the conserved charge Q = n_zz + 2 n_str by one quantum: the Liouvillian
    is one block.  (A stretch drive c + c^+ moves Q by two and keeps the
    parity of Q_ket - Q_bra, so it leaves two blocks.)"""
    model, rho0 = _heated_exchange()
    a = fock.embed(destroy(4), 0, model.register)
    h = model.hamiltonian + TWO_PI * 2e3 * (a + a.conj().T)
    driven = LindbladModel(hamiltonian=h, collapse_ops=model.collapse_ops, register=model.register)
    return driven, rho0


def _oracle(model, rho0, seq, t1, t3, cache):
    """Phase-cycled signal at one (t1, t3) from single protocol executions."""
    raw = np.array([
        [
            [run_once(model, rho0, seq, t1, t3, (p2, p3, p4), cache) for p4 in seq.phase_grid(4)]
            for p3 in seq.phase_grid(3)
        ]
        for p2 in seq.phase_grid(2)
    ])
    return phase_cycle(raw, seq.signature)


class TestScanEngine:
    @pytest.mark.parametrize(
        "build",
        [_kerr_mode, _driven_kerr_mode, _damped_kerr_mode, _heated_exchange, _driven_heated_exchange],
    )
    def test_matches_run_once_oracle(self, build):
        model, rho0 = build()
        seq = PulseSequence()
        dt = 2e-5
        grid = scan(model, rho0, seq, t_max=6 * dt, dt=dt)
        assert np.max(np.abs(grid.values)) > 1e-6  # a signal to compare
        cache = {}
        for k1, k3 in ((0, 0), (0, 5), (3, 2), (6, 1), (6, 6)):
            oracle = _oracle(model, rho0, seq, k1 * dt, k3 * dt, cache)
            assert abs(grid.values[k1, k3] - oracle) < 1e-10

    def test_one_point_grid(self):
        model, rho0 = _heated_exchange()
        seq = PulseSequence()
        grid = scan(model, rho0, seq, t_max=0.5e-5, dt=1e-5)
        assert grid.values.shape == (1, 1)
        assert abs(grid.values[0, 0] - _oracle(model, rho0, seq, 0.0, 0.0, {})) < 1e-10

    def test_memory_guard_trips_before_any_work(self, monkeypatch):
        def no_pulses(*args, **kwargs):
            pytest.fail("pulse operators built before the memory guard")

        monkeypatch.setattr(protocol, "pulse_operator", no_pulses)
        # a 900-level register on a 189-point grid needs ~25 GiB
        reg = FockRegister(dims=(30, 30), labels=("zz", "str"))
        model = LindbladModel(hamiltonian=np.zeros((900, 900), dtype=complex), register=reg)
        rho0 = np.zeros((900, 900), dtype=complex)
        with pytest.raises(PropagatorSizeError, match="GiB"):
            scan(model, rho0, PulseSequence(), t_max=2e-3, dt=10.6e-6)

    @pytest.mark.parametrize("dims, count, largest", [((9, 6), 37, 186), ((7, 5), 29, 97)])
    def test_resonance_block_structure(self, resonance_data, dims, count, largest):
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        lv = dynamics.liouvillian(scenarios.resonance_model(omega_t, dims=dims))
        blocks = dynamics.liouvillian_blocks(lv)
        assert (len(blocks), max(map(len, blocks))) == (count, largest)
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(lv.shape[0]))

    def test_charge_breaking_drive_is_one_block(self):
        model, _ = _driven_heated_exchange()
        assert len(dynamics.liouvillian_blocks(dynamics.liouvillian(model))) == 1

    def test_block_map_guard_trips_before_expm(self, monkeypatch):
        def no_expm(a):
            pytest.fail("block map built before the memory guard")

        monkeypatch.setattr(dynamics, "expm", no_expm)
        # the one 144-entry block's map needs ~3.2 MiB against a 1 MiB budget
        monkeypatch.setattr(dynamics, "DEFAULT_MEMORY_BUDGET", 1024**2)
        model, rho0 = _driven_heated_exchange()
        observables = np.eye(12, dtype=complex)[None]
        with pytest.raises(PropagatorSizeError, match="block"):
            dynamics.evolution_lines(model, rho0, observables, 4, 2e-5)

    def test_injected_trace_drift_raises(self, monkeypatch):
        # a step map scaled by 1 + 1e-6 puts a drift of about 1e-6 k on the
        # trace of the k-th grid point
        exact = dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda a: exact(a) * (1 + 1e-6))
        model, rho0 = _heated_exchange()
        with pytest.raises(PropagatorAccuracyError, match="drift"):
            scan(model, rho0, PulseSequence(), t_max=6 * 2e-5, dt=2e-5)


class TestKerrDualPath:
    def test_fast_path_matches_full_register(self, table_params):
        model = scenarios.kerr_model_from_params(
            table_params, dims=(6, 4, 4), nbar=(1.0, 4.0, 4.0)
        )
        seq = PulseSequence()
        t_max, dt = 12 * 25.3e-6, 25.3e-6
        fast = scenarios.kerr_scan_fast(model, seq, t_max, dt)
        full = scenarios.kerr_scan_full(model, seq, t_max, dt)
        assert np.max(np.abs(fast.values - full.values)) < 1e-10


class TestDeterminism:
    def test_thread_count_does_not_change_bits(self):
        # dissipative two-mode model exercises the superoperator path
        reg = FockRegister(dims=(4, 3), labels=("zz", "str"))
        a = fock.embed(destroy(4), 0, reg)
        c = fock.embed(destroy(3), 1, reg)
        h = TWO_PI * 5e3 * (a @ a @ c.conj().T + a.conj().T @ a.conj().T @ c)
        model = LindbladModel(
            hamiltonian=h,
            collapse_ops=heating_dissipator(0, 0.2e3, reg)
            + heating_dissipator(1, 0.1e3, reg),
            register=reg,
        )
        rho0 = fock.product_state(
            [thermal_state(0.5, 4)[0], thermal_state(0.2, 3)[0]]
        )
        seq = PulseSequence()
        kw = dict(t_max=6 * 2e-5, dt=2e-5)
        g1 = scan(model, rho0, seq, threads=1, **kw)
        g2 = scan(model, rho0, seq, threads=2, **kw)
        assert np.array_equal(g1.values, g2.values)


def _random_quadratic_two_mode(seed: int):
    """Random quadratic (harmonic) Hamiltonian: detunings, beam-splitter
    coupling, weak single-mode squeezing and linear drives."""
    rng = np.random.default_rng(seed)
    # dims sized so truncation leakage stays far below the null threshold:
    # the displaced/squeezed thermal state must never reach the boundary
    reg = FockRegister(dims=(22, 16), labels=("m0", "m1"))
    a = fock.embed(destroy(22), 0, reg)
    b = fock.embed(destroy(16), 1, reg)
    h = TWO_PI * (
        rng.uniform(5e3, 20e3) * (a.conj().T @ a)
        + rng.uniform(5e3, 20e3) * (b.conj().T @ b)
    )
    g_bs = TWO_PI * rng.uniform(1e3, 4e3) * np.exp(1j * rng.uniform(0, TWO_PI))
    h = h + g_bs * (a.conj().T @ b) + np.conj(g_bs) * (b.conj().T @ a)
    sq = TWO_PI * rng.uniform(0.2e3, 0.8e3) * np.exp(1j * rng.uniform(0, TWO_PI))
    h = h + sq * (a @ a) + np.conj(sq) * (a.conj().T @ a.conj().T)
    drive = TWO_PI * rng.uniform(0.5e3, 2e3) * np.exp(1j * rng.uniform(0, TWO_PI))
    h = h + drive * a + np.conj(drive) * a.conj().T
    return LindbladModel(hamiltonian=h, register=reg), reg


class TestHarmonicNull:
    def test_unitary_two_mode_null(self):
        model, reg = _random_quadratic_two_mode(seed=11)
        rho0 = fock.product_state(
            [thermal_state(0.15, 22)[0], thermal_state(0.1, 16)[0]]
        )
        seq = PulseSequence()
        grid = scan(model, rho0, seq, t_max=7 * 2.5e-5, dt=2.5e-5)
        scale = 1e-8 * 0.25**3
        assert np.max(np.abs(grid.values)) < scale

    def test_dissipative_single_mode_null(self):
        rng = np.random.default_rng(23)
        dim = 24
        reg = FockRegister(dims=(dim,), labels=("m",))
        a = destroy(dim)
        h = TWO_PI * (
            rng.uniform(5e3, 15e3) * (a.conj().T @ a)
            + rng.uniform(0.5e3, 1.5e3) * (a + a.conj().T)
        )
        model = LindbladModel(
            hamiltonian=h,
            collapse_ops=heating_dissipator(0, 0.05e3, reg),
            register=reg,
        )
        rho0, _ = thermal_state(0.2, dim)
        seq = PulseSequence()
        grid = scan(model, rho0, seq, t_max=7 * 2.5e-5, dt=2.5e-5)
        assert np.max(np.abs(grid.values)) < 1e-8 * 0.25**3

    def test_anharmonic_term_breaks_the_null(self):
        # control: adding a Kerr term must produce a signal well above the
        # null threshold, so the null tests are not vacuously passing
        dim = 14
        reg = FockRegister(dims=(dim,), labels=("m",))
        n_op = np.diag(np.arange(dim)).astype(complex)
        h = TWO_PI * 10e3 * n_op + TWO_PI * 3e3 * (n_op @ n_op - n_op)
        model = LindbladModel(hamiltonian=h, register=reg)
        rho0, _ = thermal_state(0.2, dim)
        seq = PulseSequence()
        grid = scan(model, rho0, seq, t_max=7 * 2.5e-5, dt=2.5e-5)
        assert np.max(np.abs(grid.values)) > 1e-4 * 0.25**3
