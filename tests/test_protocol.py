import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionspec2d import cli, dynamics, fock, matio, protocol, scenarios
from ionspec2d.dynamics import (
    LindbladModel,
    PropagatorAccuracyError,
    PropagatorSizeError,
    heating_dissipator,
)
from ionspec2d.fock import destroy, thermal_state
from ionspec2d.protocol import (
    PulseSequence,
    SignalGrid,
    SignalRealityError,
    grid_points,
    phase_cycle,
    run_once,
    scan,
)
from oracles import closed_form_lines, cycled_pair

TWO_PI = 2 * np.pi


def _free_mode(dim, omega=TWO_PI * 20e3):
    h = omega * np.diag(np.arange(dim)).astype(complex)
    return LindbladModel(hamiltonian=h, dims=(dim,))


class TestRunOnce:
    def test_no_pulses_returns_initial_population(self):
        model = _free_mode(8)
        rho0 = thermal_state(0.9, 8)
        nbar = float(np.real(np.trace(np.diag(np.arange(8)) @ rho0)))
        seq = PulseSequence(alpha=0.0)
        cache = {}
        for t1, t3 in ((0.0, 0.0), (3e-5, 0.0), (2e-5, 7e-5)):
            s = run_once(model, rho0, seq, t1, t3, (0.3, 1.1, 2.0), prop_cache=cache)
            assert s == pytest.approx(nbar, abs=1e-12)

    def test_single_pulse_coherent_population(self):
        model = _free_mode(12)
        rho0 = np.zeros((12, 12), dtype=complex)
        rho0[0, 0] = 1.0
        # pulses 2..4 at phases 0, 2 pi/3, 4 pi/3 displace by alpha times
        # 1 + exp(2 pi i/3) + exp(4 pi i/3) = 0: only pulse 1's remains
        seq = PulseSequence(alpha=0.25)
        s = run_once(model, rho0, seq, 0.0, 0.0, (0.0, TWO_PI / 3, 2 * TWO_PI / 3))
        assert s == pytest.approx(0.0625, abs=1e-10)

    def test_imaginary_residual_raises(self):
        model = _free_mode(6)
        rho_bad = np.zeros((6, 6), dtype=complex)
        rho_bad[0, 0] = 1.0
        rho_bad[0, 1] = 1j  # not Hermitian: trace picks up an imaginary part
        seq = PulseSequence(alpha=0.25)
        with pytest.raises(SignalRealityError):
            run_once(model, rho_bad, seq, 0.0, 0.0, (0.5, 0.5, 0.5))


class TestPhaseCycle:
    @pytest.mark.parametrize(
        "kwargs",
        [{"n_phases": (4, 4)}, {"signature": (1, -1)}, {"n_phases": (4, 4, 4, 4)}, {"signature": (1, -1, -1, 1)}],
    )
    def test_sequence_refuses_a_wrong_count(self, kwargs):
        # a phase count and a signature entry for each of pulses 2..4:
        # anything else is refused when the sequence is made
        with pytest.raises(ValueError, match="three entries"):
            PulseSequence(**kwargs)

    def test_scan_warns_of_aliasing_once_per_small_count(self):
        # the sequence is built silently; the scan, the code that cycles
        # the phases, warns for pulse 2's two phases alone
        seq = PulseSequence(n_phases=(2, 4, 4))
        with pytest.warns(UserWarning, match="aliasing") as record:
            scan(_free_mode(4), thermal_state(0.5, 4), seq, t_max=1e-5, dt=1e-5)
        assert len(record) == 1

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

    @pytest.mark.parametrize(
        "scenario, share_4_8, share_8_16", [("kerr", 0.0395, 6.8e-8), ("resonance", 0.0117, 1.25e-8)]
    )
    def test_reference_aliasing_shares(self, scenario, share_4_8, share_8_16, tmp_path):
        # with N phases per pulse the orders q + N m alias onto the signature
        # q: at reference, max|S_N - S_2N| / max|S_N| of the grid S_N at
        # n_phases (N, N, N).  The shares are quoted to three digits, and
        # the 1 % tolerance holds them there; the N = 4 one is the aliasing
        # that every reference run carries
        def grid(n):
            out = tmp_path / str(n)
            cli.run_scenario(cli.build_config({"scenario": scenario, "n_phases": [n] * 3, "out_dir": str(out)}))
            return matio.read_matrix(out / "signal_grid.bin")

        s4, s8, s16 = grid(4), grid(8), grid(16)
        assert np.max(np.abs(s4 - s8)) / np.max(np.abs(s4)) == pytest.approx(share_4_8, rel=0.01)
        assert np.max(np.abs(s8 - s16)) / np.max(np.abs(s8)) == pytest.approx(share_8_16, rel=0.01)


class TestGrid:
    def test_reference_grid_shapes(self):
        assert grid_points(2e-3, 25.3e-6) == 80
        assert grid_points(2e-3, 10.6e-6) == 189
        assert grid_points(1e-3, 10.6e-6) == 95
        assert grid_points(1e-3, 25.3e-6) == 40

    @pytest.mark.parametrize(
        "value, dt, match",
        [(0.0, 0.0, "dt must be positive"), (0.0, -1e-5, "dt must be positive"),
         (0.0, np.nan, "dt must be positive"), (0.0, np.inf, "dt must be positive"),
         (np.nan, 1e-5, "non-finite")],
    )
    def test_grid_validation(self, value, dt, match):
        # a grid is its values and its one step: a step that labels no
        # frequency axis, or a value no spectrum can hold, is refused
        with pytest.raises(ValueError, match=match):
            SignalGrid(values=np.full((3, 3), value, dtype=complex), dt=dt)

    def test_scan_consistent_with_run_once(self):
        model = _free_mode(7, omega=TWO_PI * 30e3)
        rho0 = thermal_state(0.5, 7)
        seq = PulseSequence(n_phases=(2, 2, 2))
        dt = 1e-5
        with pytest.warns(UserWarning, match="aliasing"):
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
    """Diagonal H without a declared charge: one d^2 sector of phases."""
    n_op = np.diag(np.arange(dim)).astype(complex)
    h = TWO_PI * 12e3 * n_op + TWO_PI * 2.5e3 * (n_op @ n_op - n_op)
    return LindbladModel(hamiltonian=h, dims=(dim,)), thermal_state(0.4, dim)


def _driven_kerr_mode(dim=7):
    """Non-diagonal Hermitian H: one dense d^2 sector."""
    model, rho0 = _kerr_mode(dim)
    a = destroy(dim)
    drive = TWO_PI * 1.5e3 * np.exp(0.7j) * a
    h = model.hamiltonian + drive + drive.conj().T
    return LindbladModel(hamiltonian=h, dims=model.dims), rho0


def _damped_kerr_mode(dim=7):
    """Pure amplitude damping: the jump a rho a^+ feeds rho_{n-1,m-1} from
    rho_{n,m} and nothing feeds back, so the Liouvillian's sparsity pattern
    is not symmetric and its blocks are only weakly connected."""
    model, rho0 = _kerr_mode(dim)
    damped = LindbladModel(
        hamiltonian=model.hamiltonian, collapse_ops=[(destroy(dim), 2e3)], dims=model.dims
    )
    return damped, rho0


def _heated_exchange(dims=(4, 3)):
    """Two-mode Lindblad model with its conserved charge Q = n_zz + 2 n_str
    declared: the sector path.  The complex coupling and the extra cooling
    jump make L differ from its transpose."""
    a = fock.embed(destroy(dims[0]), 0, dims)
    c = fock.embed(destroy(dims[1]), 1, dims)
    g = TWO_PI * 5e3 * np.exp(0.3j)
    h = g * (a @ a @ c.conj().T) + np.conj(g) * (a.conj().T @ a.conj().T @ c)
    model = LindbladModel(
        hamiltonian=h,
        collapse_ops=heating_dissipator(0, 0.4e3, dims)
        + heating_dissipator(1, 0.2e3, dims)
        + [(a, 0.3e3)],
        dims=dims,
        charge_weights=(1, 2),
    )
    rho0 = fock.product_state([thermal_state(0.5, dims[0]), thermal_state(0.2, dims[1])])
    return model, rho0


def _driven_heated_exchange():
    """``_heated_exchange`` plus a linear zigzag drive a + a^+, which breaks
    the conserved charge Q = n_zz + 2 n_str by one quantum: the Liouvillian
    is one block.  (A stretch drive c + c^+ moves Q by two and keeps the
    parity of Q_ket - Q_bra, so it leaves two blocks.)"""
    model, rho0 = _heated_exchange()
    a = fock.embed(destroy(4), 0, model.dims)
    h = model.hamiltonian + TWO_PI * 2e3 * (a + a.conj().T)
    driven = LindbladModel(hamiltonian=h, collapse_ops=model.collapse_ops, dims=model.dims)
    return driven, rho0


def _three_mode_exchange():
    """Three-mode Lindblad register probed on slot 0, so the pre-cycled
    pulses act beside a spectator axis of two modes: a Kerr probed mode m
    with a complex exchange to the mode l, a two-for-one exchange with the
    mode r, heating on m and cooling on r.  It declares its conserved
    charge Q = n_m + n_l + 2 n_r."""
    dims = (3, 2, 3)
    b, a, c = (fock.embed(destroy(dim), slot, dims) for slot, dim in enumerate(dims))
    nb = b.conj().T @ b
    g = TWO_PI * 3e3 * np.exp(0.4j)
    h = TWO_PI * 12e3 * nb + TWO_PI * 2.5e3 * (nb @ nb - nb)
    h = h + g * (b.conj().T @ a) + np.conj(g) * (a.conj().T @ b)
    h = h + TWO_PI * 2e3 * (b @ b @ c.conj().T + b.conj().T @ b.conj().T @ c)
    model = LindbladModel(
        hamiltonian=h,
        collapse_ops=heating_dissipator(0, 0.3e3, dims) + [(c, 0.5e3)],
        dims=dims,
        charge_weights=(1, 1, 2),
    )
    rho0 = fock.product_state([thermal_state(nbar, dim) for nbar, dim in zip((0.5, 0.3, 0.2), dims)])
    return model, rho0


# n_phases and signature with no symmetry between pulses 2, 3 and 4, so that
# swapped or conjugated phase weights change the result
ASYMMETRIC = PulseSequence(n_phases=(3, 4, 5), signature=(1, -2, 1))
ORACLE_MODELS = (
    _kerr_mode, _driven_kerr_mode, _damped_kerr_mode, _heated_exchange, _driven_heated_exchange, _three_mode_exchange
)
ORACLE_CASES = [pytest.param(b, PulseSequence(), id=b.__name__) for b in ORACLE_MODELS] + [
    pytest.param(b, ASYMMETRIC, id=f"{b.__name__}-asymmetric") for b in ORACLE_MODELS
]


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
    @pytest.mark.parametrize("build, seq", ORACLE_CASES)
    def test_matches_run_once_oracle(self, build, seq):
        model, rho0 = build()
        dt = 2e-5
        grid = scan(model, rho0, seq, t_max=6 * dt, dt=dt)
        assert np.max(np.abs(grid.values)) > 1e-6  # a signal to compare
        cache = {}
        for k1, k3 in ((0, 0), (0, 5), (3, 2), (6, 1), (6, 6)):
            oracle = _oracle(model, rho0, seq, k1 * dt, k3 * dt, cache)
            assert abs(grid.values[k1, k3] - oracle) < 1e-10

    @pytest.mark.parametrize("seq", [PulseSequence(), ASYMMETRIC])
    @pytest.mark.parametrize("dims", [(9,), (6, 3)])
    def test_cycled_pair_matches_kron_loop(self, seq, dims):
        model = LindbladModel(hamiltonian=np.zeros((np.prod(dims),) * 2), dims=dims)
        ref = cycled_pair(seq, dims[0])
        assert np.max(np.abs(protocol._pulse_set(model, seq)[1] - ref)) <= 1e-14 * np.max(np.abs(ref))

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
        # a 900-level register on a 189-point grid needs ~21 GiB
        model = LindbladModel(hamiltonian=np.zeros((900, 900), dtype=complex), dims=(30, 30))
        rho0 = np.zeros((900, 900), dtype=complex)
        with pytest.raises(PropagatorSizeError, match="GiB"):
            scan(model, rho0, PulseSequence(), t_max=2e-3, dt=10.6e-6)

    @pytest.mark.parametrize("dims, count, largest", [((9, 6), 37, 186), ((7, 5), 29, 97)])
    def test_resonance_block_structure(self, resonance_data, dims, count, largest):
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        model = scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=(200.0, 100.0))
        blocks = dynamics.liouvillian_blocks(model)
        assert (len(blocks), max(map(len, blocks.values()))) == (count, largest)
        assert protocol.sector_columns(model.charge_weights, dims, PulseSequence())[2] == largest
        assert np.array_equal(np.sort(np.concatenate(list(blocks.values()))), np.arange(model.dim**2))
        # each block is the sector of one value of c = Q_ket - Q_bra
        ket, bra = np.divmod(np.arange(model.dim**2), model.dim)
        charge = model.charge[ket] - model.charge[bra]
        for c, idx in blocks.items():
            assert np.all(charge[idx] == c)

    @pytest.mark.parametrize("dims, c0", [((2, 2), 4), ((4, 3), 20), ((3, 7), 33), ((30, 20), 6760)])
    def test_largest_sector_is_c0_from_the_dims(self, dims, c0):
        # the memory guard's sector size, from the charge weights alone
        charge = np.add.outer(np.arange(dims[0]), 2 * np.arange(dims[1])).ravel()
        c = np.subtract.outer(charge, charge)
        largest = protocol.sector_columns(scenarios.RESONANCE_CHARGE_WEIGHTS, dims, PulseSequence())[2]
        assert largest == np.unique(c, return_counts=True)[1].max() == np.sum(c == 0) == c0

    @pytest.mark.parametrize("dims", [(7, 5), (9, 6)])
    def test_kept_sectors_match_every_sector_stepped(self, resonance_data, dims):
        # the reference resonance scan against every charge sector stepped
        # and contracted in full, with the scan's own pre-cycled pulses
        cfg = cli.build_config({"scenario": "resonance", "dims": list(dims)})
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        rates = tuple(1e3 * r for r in cfg.heating_quanta_per_ms)
        model = scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=rates)
        rho0 = scenarios.resonance_initial_state(dims, tuple(cfg.nbar))
        seq, n, dt = cfg.sequence(), grid_points(cfg.effective_t_max, cfg.dt_s), cfg.dt_s
        grid = scan(model, rho0, seq, cfg.effective_t_max, dt).values

        d, d_t = model.dim, dims[0]
        d1, cycled, observable = protocol._pulse_set(model, seq)
        vec0 = (d1 @ rho0 @ d1.conj().T).reshape(d * d)
        cov0 = observable.T.reshape(d * d)  # vec(A^T), pre-cycled A
        forward = np.empty((n, d * d), dtype=complex)
        covector = np.empty((n, d * d), dtype=complex)
        for idx in dynamics.liouvillian_blocks(model).values():
            step = dynamics.expm(dynamics.liouvillian(model, idx) * dt)
            x, y = vec0[idx], cov0[idx]
            for k in range(n):
                forward[k, idx], covector[k, idx] = x, y
                x, y = step @ x, y @ step
        line = forward.reshape(n, d_t, d // d_t, d_t, d // d_t)
        states = np.einsum("ABab,karbs->kArBs", cycled.reshape((d_t,) * 4), line)
        every = states.reshape(n, d * d) @ covector.T
        assert np.max(np.abs(grid - every)) <= 1e-12 * np.max(np.abs(every))

    def test_charge_breaking_drive_is_one_block(self):
        model, _ = _driven_heated_exchange()
        assert len(dynamics.liouvillian_blocks(model)) == 1
        assert protocol.sector_columns(model.charge_weights, model.dims, PulseSequence())[2] == model.dim**2

    def test_block_map_guard_trips_before_expm(self, monkeypatch):
        def no_expm(a):
            pytest.fail("block map built before the memory guard")

        monkeypatch.setattr(dynamics, "expm", no_expm)
        # the one 144-entry block's map needs ~3.2 MiB against a 1 MiB budget
        monkeypatch.setattr(dynamics, "DEFAULT_MEMORY_BUDGET", 1024**2)
        model, rho0 = _driven_heated_exchange()
        observable = np.eye(12, dtype=complex)
        with pytest.raises(PropagatorSizeError, match="block"):
            dynamics.evolution_lines(model, rho0, observable, 4, 2e-5)

    def test_step_map_bound_covers_gather_and_expm(self):
        # build_propagator's one 144 x 144 map of this one-block model: the
        # traced peak of the build, with the block that liouvillian scatters
        # and the matrices expm works in, stays within the model-free
        # _map_bytes(b); build_propagator and evolution_lines check the
        # larger bound with the model, which adds the scatter's own memory
        model, _ = _driven_heated_exchange()
        tracemalloc.start()
        try:
            dynamics.build_propagator(model, 2e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= dynamics._map_bytes(model.dim**2)

    def test_injected_trace_drift_raises(self, monkeypatch):
        # a step map scaled by 1 + 1e-6 puts a drift of about 1e-6 k on the
        # trace of the k-th grid point
        exact = dynamics.expm
        monkeypatch.setattr(dynamics, "expm", lambda a: exact(a) * (1 + 1e-6))
        model, rho0 = _heated_exchange()
        with pytest.raises(PropagatorAccuracyError, match="drift"):
            scan(model, rho0, PulseSequence(), t_max=6 * 2e-5, dt=2e-5)

    def test_fault_in_check_only_mirror_sector_raises(self, monkeypatch):
        # a phase drift injected into the Liouvillian of the mirror -c of the
        # forward line's largest kept sector c: -c reaches neither line, so
        # only its reality check against c can see the fault
        model, rho0 = _heated_exchange()
        seq = PulseSequence()
        kept = protocol._kept_sectors(model.charge_weights[0], seq)
        blocks = dynamics.liouvillian_blocks(model)
        c = max((c for c in blocks if dynamics._in_class(c, kept[0])), key=lambda c: blocks[c].size)
        assert not any(dynamics._in_class(-c, cls) for cls in kept)
        exact = dynamics.liouvillian

        def faulty(model, idx=None):
            out = exact(model, idx)
            if idx is not None and np.array_equal(idx, blocks[-c]):
                out += 1e3j * np.eye(idx.size)
            return out

        monkeypatch.setattr(dynamics, "liouvillian", faulty)
        with pytest.raises(SignalRealityError, match="imaginary"):
            scan(model, rho0, seq, t_max=6 * 2e-5, dt=2e-5)

    def test_fault_in_the_covector_mirror_sector_raises(self, monkeypatch):
        # signature (1, -2, -1) keeps the forward sectors 2 + 4Z and the
        # covector sectors 1 + 4Z: the forward line's mirror -(-2) = 2 is
        # kept, while the covector's largest kept sector 1 has its mirror -1
        # in neither class, so only the covector's reality check reads -1
        model, rho0 = _heated_exchange()
        seq = PulseSequence(signature=(1, -2, -1))
        kept = protocol._kept_sectors(model.charge_weights[0], seq)
        blocks = dynamics.liouvillian_blocks(model)
        forward, covector = (
            max((c for c in blocks if dynamics._in_class(c, cls)), key=lambda c: blocks[c].size) for cls in kept
        )
        assert abs(forward) == 2 and dynamics._in_class(-forward, kept[0])
        assert covector == 1 and not any(dynamics._in_class(-1, cls) for cls in kept)
        exact = dynamics.liouvillian

        def faulty(model, idx=None):
            out = exact(model, idx)
            if idx is not None and np.array_equal(idx, blocks[-1]):
                out += 1e3j * np.eye(idx.size)
            return out

        monkeypatch.setattr(dynamics, "liouvillian", faulty)
        with pytest.raises(SignalRealityError, match="imaginary"):
            scan(model, rho0, seq, t_max=6 * 2e-5, dt=2e-5)

    def test_non_hermitian_observable_passes_the_reality_check(self, resonance_data):
        # a_zz on the heated resonance model: its covector line is checked
        # against the line of a_zz^+, and it is the line of its Hermitian
        # part H_R plus i times that of H_I
        dims = (5, 3)
        cfg = cli.build_config({"scenario": "resonance", "dims": list(dims)})
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        rates = tuple(1e3 * r for r in cfg.heating_quanta_per_ms)
        model = scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=rates)
        seq = cfg.sequence()
        state = scenarios.resonance_initial_state(dims, tuple(cfg.nbar))
        kept = protocol._kept_sectors(model.charge_weights[0], seq)
        a = fock.embed(destroy(dims[0]), 0, model.dims)

        def covector(observable):
            return dynamics.evolution_lines(model, state, observable, 9, cfg.dt_s, kept)[1]

        ref = covector((a + a.conj().T) / 2) + 1j * covector((a - a.conj().T) / 2j)
        assert np.max(np.abs(ref)) > 0
        assert np.max(np.abs(covector(a) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "build, seq",
        [
            pytest.param(_heated_exchange, PulseSequence(), id="exchange"),
            pytest.param(_three_mode_exchange, ASYMMETRIC, id="three-mode"),
        ],
    )
    def test_compact_lines_hold_the_full_lines(self, build, seq):
        # the lines on the kept sectors against every sector stepped, entry
        # for entry at the returned vec indices
        model, rho0 = build()
        d1, _, observable = protocol._pulse_set(model, seq)
        args = (model, d1 @ rho0 @ d1.conj().T, observable, 9, 2e-5)
        kept = protocol._kept_sectors(model.charge_weights[0], seq)
        *compact, index_f, index_c = dynamics.evolution_lines(*args, kept)
        *full, every_f, every_c = dynamics.evolution_lines(*args)
        charge = np.subtract.outer(model.charge, model.charge).ravel()
        for line, index, whole, every, cls in zip(compact, (index_f, index_c), full, (every_f, every_c), kept):
            assert np.array_equal(np.sort(index), np.flatnonzero(dynamics._in_class(charge, cls)))
            assert np.array_equal(np.sort(every), np.arange(model.dim**2))
            column = np.empty(model.dim**2, dtype=int)
            column[every] = np.arange(every.size)
            assert np.array_equal(line, whole[..., column[index]])
        assert index_c.size < model.dim**2  # the covector line is compact

    @pytest.mark.parametrize(
        "sectors, stepped",
        [
            # each line keeps the other's check-only mirror: {1, -1} and c = 0
            pytest.param(((1, 0), (-1, 0)), 3, id="crossed-mirrors"),
            # every sector forward, but only the live ones build a map: the
            # start D1 rho0 D1^+ displaces a diagonal rho0 on slot 0 (dim 4,
            # weight 1) alone, so it is nonzero on c = n_zz - n_zz' in -3..3,
            # 7 of the 15 sectors; the covector's live kept sectors -3 and 1
            # of 1 + 4Z, its mirror -1 and the trace's c = 0 are among them
            pytest.param(((0, 1), (1, 4)), 7, id="every-beside-narrow"),
        ],
    )
    def test_each_stepped_sector_builds_one_map(self, monkeypatch, sectors, stepped):
        model, rho0 = _heated_exchange()
        d1, _, observable = protocol._pulse_set(model, PulseSequence())
        args = (model, d1 @ rho0 @ d1.conj().T, observable, 9, 2e-5)
        *full, every_f, every_c = dynamics.evolution_lines(*args)
        exact_expm, exact_gather, exact_skew = dynamics.expm, dynamics.liouvillian, dynamics._check_skew
        maps, gathered, skews = [], [], []
        monkeypatch.setattr(dynamics, "expm", lambda a: maps.append(a.shape) or exact_expm(a))
        monkeypatch.setattr(
            dynamics, "liouvillian", lambda model, idx: gathered.append(tuple(idx)) or exact_gather(model, idx)
        )
        monkeypatch.setattr(dynamics, "_check_skew", lambda x, mirror: skews.append(x.shape) or exact_skew(x, mirror))
        *compact, index_f, index_c = dynamics.evolution_lines(*args, sectors)
        assert len(maps) == len(set(gathered)) == stepped
        assert len(skews) == 2  # both lines' reality checks still run
        for line, index, whole, every in zip(compact, (index_f, index_c), full, (every_f, every_c)):
            column = np.empty(model.dim**2, dtype=int)
            column[every] = np.arange(every.size)
            assert np.array_equal(line, whole[..., column[index]])

    def test_dead_sectors_build_no_map(self, monkeypatch):
        # both lines keep 1 + 4Z, the sectors -7, -3, 1 and 5, but the
        # pulses and the readout act on slot 0 (dim 4, weight 1) of a
        # diagonal rho0, so both starts are nonzero on |c| <= 3 alone: -7
        # and 5 get exact-zero columns and no map, and the maps built are
        # the live -3 and 1, the trace's 0 and the mirror -1 of the largest
        # kept sector 1
        model, rho0 = _heated_exchange()
        d1, _, observable = protocol._pulse_set(model, PulseSequence())
        state, n, dt = d1 @ rho0 @ d1.conj().T, 9, 2e-5
        blocks = dynamics.liouvillian_blocks(model)
        dead = np.concatenate([blocks[-7], blocks[5]])
        assert not np.any(state.reshape(-1)[dead]) and not np.any(observable.T.reshape(-1)[dead])
        # the dense one-step map of every sector, walked in full, is the
        # reference of both lines
        step = dynamics.build_propagator(model, dt).matrix
        x, y = state.reshape(-1), observable.T.reshape(-1)
        reference = np.empty((2, n, model.dim**2), dtype=complex)
        for k in range(n):
            reference[:, k] = x, y
            x, y = step @ x, y @ step
        *full, every_f, every_c = dynamics.evolution_lines(model, state, observable, n, dt)
        exact_expm, exact_scatter = dynamics.expm, dynamics.liouvillian
        maps, scattered = [], []
        monkeypatch.setattr(dynamics, "expm", lambda a: maps.append(a.shape) or exact_expm(a))
        monkeypatch.setattr(
            dynamics, "liouvillian", lambda model, idx: scattered.append(tuple(idx)) or exact_scatter(model, idx)
        )
        *compact, index_f, index_c = dynamics.evolution_lines(model, state, observable, n, dt, ((1, 4), (1, 4)))
        assert len(maps) == 4 and set(scattered) == {tuple(blocks[c]) for c in (-3, -1, 0, 1)}
        for line, index, whole, every, ref in zip(compact, (index_f, index_c), full, (every_f, every_c), reference):
            assert np.all(line[:, np.isin(index, dead)] == 0)
            column = np.empty(model.dim**2, dtype=int)
            column[every] = np.arange(every.size)
            assert np.array_equal(line, whole[..., column[index]])
            assert np.max(np.abs(line - ref[:, index])) <= 1e-12 * np.max(np.abs(ref))

    def test_compact_lines_memory(self, resonance_data):
        # the sector path holds the kept columns, the largest sector's map
        # and the check-only lines: below zero-padded (n, d^2) lines
        dims, n = (7, 5), 120
        cfg = cli.build_config({"scenario": "resonance", "dims": list(dims)})
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        rates = tuple(1e3 * r for r in cfg.heating_quanta_per_ms)
        model = scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=rates)
        seq = cfg.sequence()
        d1, _, observable = protocol._pulse_set(model, seq)
        state = d1 @ scenarios.resonance_initial_state(dims, tuple(cfg.nbar)) @ d1.conj().T
        tracemalloc.start()
        try:
            _, _, index_f, index_c = dynamics.evolution_lines(
                model, state, observable, n, cfg.dt_s, protocol._kept_sectors(model.charge_weights[0], seq)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d2, m, b = model.dim**2, 1, protocol.sector_columns(model.charge_weights, dims, seq)[2]  # one covector row
        lines = 16 * n * (index_f.size + m * index_c.size)
        assert peak <= lines + dynamics._map_bytes(b) + 16 * n * m * b
        assert peak < 16 * n * d2 * (1 + m)


class TestChiWeight:
    @pytest.mark.parametrize("seq", [PulseSequence(), ASYMMETRIC], ids=["default", "asymmetric"])
    def test_deterministic_shift_is_the_shifted_hamiltonian(self, seq):
        # chi(tau) = exp(-i sigma tau) is the ensemble of the one shift
        # sigma Q: the scan of H + sigma Q, where the two-mode charge
        # Q = n_zz + 2 n_str puts the spectator differences at +-2 and +-4
        model, rho0 = _heated_exchange()
        sigma, dt = TWO_PI * 3e3, 2e-5
        shifted = dataclasses.replace(model, hamiltonian=model.hamiltonian + sigma * np.diag(model.charge))
        reference = scan(shifted, rho0, seq, 10 * dt, dt).values
        weighted = scan(model, rho0, seq, 10 * dt, dt, chi=lambda tau: np.exp(-1j * sigma * tau)).values
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(weighted - reference)) <= 1e-12 * scale
        # the shift moves the signal, so the comparison has teeth
        assert np.max(np.abs(scan(model, rho0, seq, 10 * dt, dt).values - reference)) > 0.5 * scale

    @pytest.mark.parametrize("dims", [(7, 5), (9, 6)])
    def test_unit_chi_reproduces_the_unweighted_scan(self, resonance_data, dims):
        # chi = 1 sent through the split by forward and covector charge, on
        # the heated resonance register at its reference grid
        cfg = cli.build_config({"scenario": "resonance", "dims": list(dims)})
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        rates = tuple(1e3 * r for r in cfg.heating_quanta_per_ms)
        model = scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=rates)
        rho0 = scenarios.resonance_initial_state(dims, tuple(cfg.nbar))
        plain = scan(model, rho0, cfg.sequence(), cfg.effective_t_max, cfg.dt_s).values
        split = scan(
            model, rho0, cfg.sequence(), cfg.effective_t_max, cfg.dt_s, chi=lambda tau: np.ones(tau.shape, dtype=complex)
        ).values
        assert np.max(np.abs(split - plain)) <= 1e-13 * np.max(np.abs(plain))


class TestChargeSectors:
    @settings(max_examples=200, deadline=None)
    @given(
        modes=st.lists(st.tuples(st.integers(2, 5), st.integers(-3, 3)), min_size=1, max_size=3),
        n_phases=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        signature=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
    )
    def test_sector_columns_match_a_brute_force_count(self, modes, n_phases, signature):
        # every c = Q_i - Q_j of the product basis counted, zero and
        # negative weights included, against the counter of the weights
        dims, weights = (tuple(x) for x in zip(*modes))
        seq = PulseSequence(n_phases=n_phases, signature=signature)
        charge = np.tensordot(weights, np.indices(dims).reshape(len(dims), -1), 1)
        model = LindbladModel(hamiltonian=np.zeros((charge.size,) * 2), dims=dims, charge_weights=weights)
        assert np.array_equal(model.charge, charge)
        c = np.subtract.outer(charge, charge).ravel()
        counts = [int(np.sum(dynamics._in_class(c, cls))) for cls in protocol._kept_sectors(weights[0], seq)]
        assert protocol.sector_columns(weights, dims, seq) == (*counts, int(np.sum(c == 0)))

    @pytest.mark.parametrize("slot", [0, 1])
    def test_sector_columns_do_not_grow_with_the_weights(self, slot):
        # 12 basis states whose charges span over 2e5 values, with the
        # weight 10^5 on the spectator or on the probed slot 0: the
        # brute-force count over the basis, within a second
        weights, dims = tuple(10**5 if s == slot else 1 for s in range(2)), (4, 3)
        seq = PulseSequence()
        charge = np.tensordot(weights, np.indices(dims).reshape(2, -1), 1)
        c = np.subtract.outer(charge, charge).ravel()
        counts = [int(np.sum(dynamics._in_class(c, cls))) for cls in protocol._kept_sectors(weights[0], seq)]
        start = time.perf_counter()
        columns = protocol.sector_columns(weights, dims, seq)
        assert time.perf_counter() - start < 1.0
        assert columns == (*counts, int(np.sum(c == 0)))

    def test_charge_diagonals_are_pinned(self, monkeypatch):
        # the sectors each scenario steps: the zigzag's n, the product
        # register's basis index and the resonance register's n_zz + 2 n_str
        models = []
        monkeypatch.setattr(protocol, "scan", lambda model, *args, **kwargs: models.append(model))
        kerr = scenarios.KerrModel(
            omega_si=TWO_PI * 2.6e3, delta_zz=TWO_PI * 0.9e3, rate_y=TWO_PI * 1.2e3,
            rate_eg=-TWO_PI * 0.8e3, dims=(5, 3, 3), nbar=(0.8, 1.5, 2.5),
        )
        scenarios.kerr_scan_fast(kerr, PulseSequence(), 4 * 25.3e-6, 25.3e-6)
        scenarios.kerr_scan_full(kerr, PulseSequence(), 4 * 25.3e-6, 25.3e-6)
        zigzag, full = models
        assert np.array_equal(zigzag.charge, np.arange(5))
        assert np.array_equal(full.charge, np.arange(45))
        resonance = scenarios.resonance_model(TWO_PI * 5e3, dims=(9, 6), heating_quanta_per_s=(200.0, 100.0))
        assert np.array_equal(resonance.charge, np.add.outer(np.arange(9), 2 * np.arange(6)).ravel())


class TestClosedFormOracle:
    @pytest.mark.parametrize(
        "raw",
        [{"scenario": "kerr"}, {"scenario": "resonance", "heating_quanta_per_ms": [0.0, 0.0]}],
        ids=["kerr", "resonance-heating-free"],
    )
    def test_stepped_lines_match_the_closed_form(self, raw, tmp_path, monkeypatch):
        # the reference grid from the stepped sector lines against the same
        # run on the eigendecomposition of the dissipation-free H
        def grid(name):
            cli.run_scenario(cli.build_config(dict(raw, out_dir=str(tmp_path / name))))
            return matio.read_matrix(tmp_path / name / "signal_grid.bin")

        stepped = grid("stepped")
        calls = []

        def closed_form(*args):
            calls.append(args[0].dim)
            return closed_form_lines(*args)

        monkeypatch.setattr(dynamics, "evolution_lines", closed_form)
        monkeypatch.setattr(protocol, "evolution_lines", closed_form)
        closed = grid("closed")
        assert len(calls) == 1
        assert np.max(np.abs(stepped - closed)) <= 1e-12 * np.max(np.abs(closed))


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
        # a scan is one contraction with no thread pool of its own, so two
        # identical calls must agree bit for bit (dissipative two-mode model)
        dims = (4, 3)
        a = fock.embed(destroy(4), 0, dims)
        c = fock.embed(destroy(3), 1, dims)
        h = TWO_PI * 5e3 * (a @ a @ c.conj().T + a.conj().T @ a.conj().T @ c)
        model = LindbladModel(
            hamiltonian=h,
            collapse_ops=heating_dissipator(0, 0.2e3, dims)
            + heating_dissipator(1, 0.1e3, dims),
            dims=dims,
        )
        rho0 = fock.product_state(
            [thermal_state(0.5, 4), thermal_state(0.2, 3)]
        )
        seq = PulseSequence()
        kw = dict(t_max=6 * 2e-5, dt=2e-5)
        g1 = scan(model, rho0, seq, **kw)
        g2 = scan(model, rho0, seq, **kw)
        assert np.array_equal(g1.values, g2.values)


def _traced_peak(call) -> int:
    """Peak bytes numpy and Python allocate during ``call()``, after one
    untraced call has done every lazy import."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryGuards:
    @pytest.mark.parametrize("dims, n", [((6, 4), 12), ((10, 6), 40)])
    @pytest.mark.parametrize("heated", [False, True], ids=["heating-free", "heated"])
    def test_scan_guard_bounds_the_traced_peak(self, dims, n, heated):
        # the exchange model with and without heating: both step the kept
        # sectors, and the bound adds the largest sector's step map
        a = fock.embed(destroy(dims[0]), 0, dims)
        c = fock.embed(destroy(dims[1]), 1, dims)
        h = TWO_PI * 5e3 * (a @ a @ c.conj().T + a.conj().T @ a.conj().T @ c)
        heating = heating_dissipator(0, 0.4e3, dims) + heating_dissipator(1, 0.2e3, dims)
        model = LindbladModel(
            hamiltonian=h, collapse_ops=heating if heated else [], dims=dims,
            charge_weights=(1, 2),
        )
        rho0 = fock.product_state([thermal_state(0.5, dim) for dim in dims])
        dt = 2e-5
        peak = _traced_peak(lambda: scan(model, rho0, PulseSequence(), (n - 1) * dt, dt))
        columns = protocol.sector_columns(model.charge_weights, dims, PulseSequence())
        assert protocol._working_set_bytes(dims, n, PulseSequence(), columns) >= peak

    @pytest.mark.parametrize("dims", [(7, 5), (9, 6)])
    def test_sector_guard_bounds_the_heated_resonance_peak(self, resonance_data, dims):
        # the sector path's count, from the dims and the charge weights alone,
        # against the reference grid's traced peak
        cfg = cli.build_config({"scenario": "resonance", "dims": list(dims)})
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        rates = tuple(1e3 * r for r in cfg.heating_quanta_per_ms)
        model = scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=rates)
        rho0 = scenarios.resonance_initial_state(dims, tuple(cfg.nbar))
        seq, n = cfg.sequence(), grid_points(cfg.effective_t_max, cfg.dt_s)
        peak = _traced_peak(lambda: scan(model, rho0, seq, cfg.effective_t_max, cfg.dt_s))
        columns = protocol.sector_columns(scenarios.RESONANCE_CHARGE_WEIGHTS, dims, seq)
        charge = np.subtract.outer(model.charge, model.charge).ravel()
        kept = protocol._kept_sectors(model.charge_weights[0], seq)
        assert columns[:2] == tuple(int(np.sum(dynamics._in_class(charge, cls))) for cls in kept)
        assert peak <= protocol._working_set_bytes(dims, n, seq, columns)

    @pytest.mark.parametrize(
        "d, n, n_phases",
        [
            pytest.param(5, 11, (4, 4, 4), id="5-11"),
            pytest.param(9, 80, (4, 4, 4), id="9-80"),
            # the chi weight of one block and its gather index, 2 n^2, dominate
            pytest.param(9, 400, (4, 4, 4), id="9-400"),
            # the phase-cycle stacks of K32 over 64 x 64 phase pairs dominate
            pytest.param(5, 11, (64, 64, 4), id="5-11-cycle-64x64x4"),
        ],
    )
    def test_kerr_guard_bounds_the_traced_peak(self, d, n, n_phases, monkeypatch):
        # the scan's own guard, which protocol imports by name; the sector
        # lines also check their step map
        budget = []

        def record(need, what):
            if what.startswith("scan"):
                budget.append(need)

        monkeypatch.setattr(dynamics, "_check_budget", record)
        monkeypatch.setattr(protocol, "_check_budget", record)
        model = scenarios.KerrModel(
            omega_si=TWO_PI * 2.6e3, delta_zz=TWO_PI * 0.9e3, rate_y=TWO_PI * 1.2e3,
            rate_eg=-TWO_PI * 0.8e3, dims=(d, 15, 15), nbar=(0.8, 1.5, 2.5),
        )
        dt = 25.3e-6
        seq = PulseSequence(n_phases=n_phases)
        peak = _traced_peak(lambda: scenarios.kerr_scan_fast(model, seq, (n - 1) * dt, dt))
        assert budget and min(budget) >= peak

    def test_chi_guard_bounds_the_traced_peak(self, monkeypatch):
        # a chi weight on the two-mode register, whose spectator differences
        # are nonzero; the larger of the guard's two checks counts the columns
        budget = []

        def record(need, what):
            if what.startswith("scan"):
                budget.append(need)

        monkeypatch.setattr(protocol, "_check_budget", record)
        model, rho0 = _heated_exchange((6, 4))
        dt = 2e-5
        shift = TWO_PI * 3e3
        peak = _traced_peak(
            lambda: scan(model, rho0, PulseSequence(), 39 * dt, dt, chi=lambda tau: np.exp(-1j * shift * tau))
        )
        assert budget and max(budget) >= peak

    @settings(max_examples=30, deadline=None)
    @given(
        modes=st.lists(st.tuples(st.integers(2, 5), st.integers(-2, 2)), min_size=1, max_size=2),
        n_phases=st.tuples(st.integers(1, 64), st.integers(1, 64), st.integers(1, 64)),
        signature=st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
        n=st.integers(2, 30),
        shift=st.none() | st.floats(-TWO_PI * 1e4, TWO_PI * 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_guard_bounds_the_traced_peak_of_any_scan(self, modes, n_phases, signature, n, shift, seed):
        # a random Hamiltonian on 1-2 modes that keeps the declared charge,
        # any cycle and grid, with no weight or a phase chi(tau) =
        # exp(-i shift tau): the need that check_scan_budget records covers
        # the traced peak.  H = i B with B real antisymmetric has a real
        # generator -iH = B, the float64 maps of resonance, which keeps an
        # uncharged 25-level register (one 625-entry sector) fast
        dims, weights = (tuple(x) for x in zip(*modes))
        seq = PulseSequence(n_phases=n_phases, signature=signature)
        charge = dynamics._mode_sum(weights, dims)
        b = np.random.default_rng(seed).normal(size=(charge.size,) * 2)
        h = TWO_PI * 1e3j * (b - b.T) * (np.subtract.outer(charge, charge) == 0)
        model = LindbladModel(hamiltonian=h, dims=dims, charge_weights=weights)
        rho0 = fock.product_state([thermal_state(0.5, d) for d in dims])
        chi = None if shift is None else (lambda tau: np.exp(-1j * shift * tau))
        needs = []
        exact = protocol._check_budget
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a small N_phi warns of aliasing
            patch.setattr(protocol, "_check_budget", lambda need, what: needs.append(need) or exact(need, what))
            peak = _traced_peak(lambda: scan(model, rho0, seq, (n - 1) * 2e-5, 2e-5, chi=chi))
        assert peak <= max(needs)


def _random_quadratic_two_mode(seed: int):
    """Random quadratic (harmonic) Hamiltonian: detunings, beam-splitter
    coupling, weak single-mode squeezing and linear drives."""
    rng = np.random.default_rng(seed)
    # dims sized so truncation leakage stays far below the null threshold:
    # the displaced/squeezed thermal state must never reach the boundary
    dims = (22, 16)
    a = fock.embed(destroy(22), 0, dims)
    b = fock.embed(destroy(16), 1, dims)
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
    return LindbladModel(hamiltonian=h, dims=dims)


class TestHarmonicNull:
    def test_unitary_two_mode_null(self, monkeypatch):
        # squeezing and drives conserve no charge, so the stepped lines would
        # need one 123904^2 map: the scan runs on the closed-form oracle
        # lines, and the memory guard, which charges that map, is skipped
        monkeypatch.setattr(protocol, "evolution_lines", closed_form_lines)
        monkeypatch.setattr(protocol, "check_scan_budget", lambda *args: None)
        model = _random_quadratic_two_mode(seed=11)
        rho0 = fock.product_state(
            [thermal_state(0.15, 22), thermal_state(0.1, 16)]
        )
        seq = PulseSequence()
        grid = scan(model, rho0, seq, t_max=7 * 2.5e-5, dt=2.5e-5)
        scale = 1e-8 * 0.25**3
        assert np.max(np.abs(grid.values)) < scale

    def test_dissipative_single_mode_null(self):
        rng = np.random.default_rng(23)
        dim = 24
        dims = (dim,)
        a = destroy(dim)
        h = TWO_PI * (
            rng.uniform(5e3, 15e3) * (a.conj().T @ a)
            + rng.uniform(0.5e3, 1.5e3) * (a + a.conj().T)
        )
        model = LindbladModel(
            hamiltonian=h,
            collapse_ops=heating_dissipator(0, 0.05e3, dims),
            dims=dims,
        )
        rho0 = thermal_state(0.2, dim)
        seq = PulseSequence()
        grid = scan(model, rho0, seq, t_max=7 * 2.5e-5, dt=2.5e-5)
        assert np.max(np.abs(grid.values)) < 1e-8 * 0.25**3

    def test_anharmonic_term_breaks_the_null(self):
        # control: adding a Kerr term must produce a signal well above the
        # null threshold, so the null tests are not vacuously passing
        dim = 14
        n_op = np.diag(np.arange(dim)).astype(complex)
        h = TWO_PI * 10e3 * n_op + TWO_PI * 3e3 * (n_op @ n_op - n_op)
        model = LindbladModel(hamiltonian=h, dims=(dim,))
        rho0 = thermal_state(0.2, dim)
        seq = PulseSequence()
        grid = scan(model, rho0, seq, t_max=7 * 2.5e-5, dt=2.5e-5)
        assert np.max(np.abs(grid.values)) > 1e-4 * 0.25**3
