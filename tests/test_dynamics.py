import tracemalloc

import numpy as np
import pytest

from ionspec2d import dynamics, fock, protocol, scenarios
from ionspec2d.dynamics import (
    LindbladModel,
    PropagatorSizeError,
    evolution_lines,
    heating_dissipator,
    liouvillian,
)
from ionspec2d.fock import destroy, thermal_state
from oracles import build_propagator, expm_with_eye, scattered_liouvillian


def _coherence_state(dim):
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def _line(model, rho, steps, dt):
    """Forward line P^k(rho), k = 0 .. steps, of evolution_lines, its
    columns put back at their vec indices, and zero in the sectors where
    rho is zero, which the line does not hold."""
    identity = np.eye(model.dim, dtype=complex)
    forward, _, index, _ = evolution_lines(model, rho, identity, steps + 1, dt, ((0, 1), (0, 1)))
    line = np.zeros((steps + 1, model.dim**2), dtype=complex)
    line[:, index] = forward
    return line.reshape(steps + 1, model.dim, model.dim)


class TestFreeEvolution:
    def test_coherence_phase(self):
        omega = 2 * np.pi * 50e3
        dim = 4
        h = omega * np.diag(np.arange(dim)).astype(complex)
        model = LindbladModel(hamiltonian=h, dims=(dim,))
        dt = 1e-6
        rho = _line(model, _coherence_state(dim), 1, dt)[1]
        # |1><0| element advances by exp(-i omega dt)
        assert rho[1, 0] == pytest.approx(0.5 * np.exp(-1j * omega * dt), abs=1e-12)

    @pytest.mark.parametrize("ladder", ["anharmonic", "degenerate-kerr"])
    def test_diagonal_and_dense_paths_agree(self, ladder):
        # the stepped line of a diagonal H against the dense oracle map;
        # the Kerr ladder 0.5 K n(n-1) has E0 = E1, a degenerate eigenspace
        dim = 6
        n = np.diag(np.arange(dim)).astype(complex)
        if ladder == "anharmonic":
            h = 2 * np.pi * 80e3 * n + 2 * np.pi * 4e3 * n @ n
        else:
            h = 0.5 * 2 * np.pi * 30e3 * n @ (n - np.eye(dim))
        model = LindbladModel(hamiltonian=h, dims=(dim,))
        dt = 2.5e-6
        rho0 = thermal_state(0.8, dim)
        d = fock.displacement(0.3, dim)
        rho0 = d @ rho0 @ d.conj().T
        prop = build_propagator(model, dt)
        assert prop.kind == "super"
        dense = [rho0]
        for _ in range(7):
            dense.append(prop.apply_batch(dense[-1][None])[0])
        assert np.max(np.abs(_line(model, rho0, 7, dt) - np.array(dense))) < 1e-12

    def test_unitary_preserves_spectrum(self):
        dim = 5
        a = destroy(dim)
        h = 2 * np.pi * 1e4 * (a + a.conj().T)  # non-diagonal
        model = LindbladModel(hamiltonian=h, dims=(dim,))
        rho0 = thermal_state(1.2, dim)
        rho = _line(model, rho0, 5, 1e-5)[5]
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(rho)),
            np.sort(np.linalg.eigvalsh(rho0)),
            atol=1e-12,
        )


class TestHeating:
    def test_zero_rate_adds_no_jump(self):
        # a zero rate gives two jumps of rate 0, which the generator drops
        dims = (5,)
        model = LindbladModel(
            hamiltonian=np.zeros((5, 5), dtype=complex), collapse_ops=heating_dissipator(0, 0.0, dims), dims=dims
        )
        assert model.generator[1] == []

    def test_linear_phonon_growth(self):
        # rate equation: nbar(t) = nbar0 + ndot t, independent of nbar
        dim, ndot = 15, 0.2e3  # 0.2 quanta/ms
        dims = (dim,)
        model = LindbladModel(
            hamiltonian=np.zeros((dim, dim), dtype=complex),
            collapse_ops=heating_dissipator(0, ndot, dims),
            dims=dims,
        )
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        n_op = np.diag(np.arange(dim))
        line = _line(model, rho, 200, 1e-5)
        n_1ms = float(np.real(np.trace(n_op @ line[100])))
        assert n_1ms == pytest.approx(0.2, abs=0.002)
        n_2ms = float(np.real(np.trace(n_op @ line[200])))
        assert n_2ms == pytest.approx(0.4, rel=1e-3)

    def test_purity_strictly_decreases(self):
        dim = 10
        dims = (dim,)
        model = LindbladModel(
            hamiltonian=np.zeros((dim, dim), dtype=complex),
            collapse_ops=heating_dissipator(0, 0.1e3, dims),
            dims=dims,
        )
        d = fock.displacement(0.4, dim)
        rho = d[:, [0]] @ d[:, [0]].conj().T  # pure coherent state
        line = _line(model, rho, 50, 2e-5)[::10]
        purities = [float(np.real(np.trace(r @ r))) for r in line]
        assert purities[0] == pytest.approx(1.0, abs=1e-12)
        assert all(b < a for a, b in zip(purities, purities[1:]))

    def test_trace_preserved_under_heating(self):
        dim = 8
        dims = (dim,)
        model = LindbladModel(
            hamiltonian=2 * np.pi * 1e4 * np.diag(np.arange(dim)).astype(complex),
            collapse_ops=heating_dissipator(0, 0.3e3, dims),
            dims=dims,
        )
        rho = thermal_state(0.5, dim)
        out = _line(model, rho, 50, 1e-5)[50]
        assert np.trace(out).real == pytest.approx(1.0, abs=50 * 1e-9)


class TestDephasing:
    def test_populations_constant(self):
        # diagonal Hamiltonian plus a number-operator collapse: populations
        # are exactly conserved while coherences decay
        dim = 6
        n_op = np.diag(np.arange(dim)).astype(complex)
        model = LindbladModel(
            hamiltonian=2 * np.pi * 2e4 * n_op,
            collapse_ops=[(n_op, 1e3)],
            dims=(dim,),
        )
        d = fock.displacement(0.5, dim)
        rho0 = d[:, [0]] @ d[:, [0]].conj().T
        rho = _line(model, rho0, 40, 1e-5)[40]
        np.testing.assert_allclose(np.diag(rho).real, np.diag(rho0).real, atol=1e-10)
        # off-diagonals must have decayed
        assert abs(rho[0, 1]) < abs(rho0[0, 1])


class TestSemigroup:
    @pytest.mark.parametrize("dissipative", [False, True])
    def test_two_small_steps_equal_one_double_step(self, dissipative):
        dim = 7
        dims = (dim,)
        a = destroy(dim)
        h = 2 * np.pi * 3e4 * (a.conj().T @ a) + 2 * np.pi * 5e3 * (a + a.conj().T)
        collapse = heating_dissipator(0, 0.2e3, dims) if dissipative else []
        model = LindbladModel(hamiltonian=h, collapse_ops=collapse, dims=dims)
        dt = 4e-6
        rho = thermal_state(0.6, dim)
        # two steps of the line against one double step of the oracle map
        two_small = _line(model, rho, 2, dt)[2]
        one_double = build_propagator(model, 2 * dt).apply_batch(rho[None])[0]
        assert np.max(np.abs(two_small - one_double)) < 1e-9


class TestEvolveEdges:
    """Edges of the forward line and of the interval maps of the oracle
    ``protocol.run_once``."""

    def test_zero_steps_identity(self):
        dim = 4
        model = LindbladModel(
            hamiltonian=np.diag(np.arange(dim)).astype(complex), dims=(dim,)
        )
        rho = thermal_state(0.3, dim)
        assert np.array_equal(_line(model, rho, 0, 1.0)[0], rho)

    def test_size_guard(self, monkeypatch):
        dim = 12
        dims = (dim,)
        model = LindbladModel(
            hamiltonian=np.zeros((dim, dim), dtype=complex),
            collapse_ops=heating_dissipator(0, 1e3, dims),
            dims=dims,
        )
        monkeypatch.setattr(dynamics, "DEFAULT_MEMORY_BUDGET", 1024)
        with pytest.raises(PropagatorSizeError, match="GiB"):
            protocol.run_once(model, thermal_state(0.3, dim), protocol.PulseSequence(), 1e-6, 0.0, (0.0, 0.0, 0.0))

    def test_invalid_dt(self):
        model = LindbladModel(hamiltonian=np.zeros((3, 3), dtype=complex), dims=(3,))
        with pytest.raises(ValueError):
            protocol.run_once(model, np.eye(3) / 3, protocol.PulseSequence(), -1e-6, 0.0, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            evolution_lines(model, np.eye(3), np.eye(3), 2, 0.0, ((0, 1), (0, 1)))


class TestModelValidation:
    def test_non_hermitian_rejected(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladModel(hamiltonian=h, dims=(2,))

    def test_nan_hamiltonian_rejected(self):
        # the Hermiticity residual of a NaN entry is NaN, which is no residual
        # at most its bound
        h = np.diag([0.0, 1.0, np.nan])
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladModel(hamiltonian=h, dims=(3,))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rates"):
            LindbladModel(
                hamiltonian=np.zeros((3, 3), dtype=complex),
                collapse_ops=[(destroy(3), -1.0)],
                dims=(3,),
            )

    def test_dim_below_two_rejected(self):
        # a one-level mode has no ladder, even where the total size matches
        for dims in ((1, 4), (4, 1), (1,)):
            with pytest.raises(ValueError, match="dimension >= 2"):
                LindbladModel(hamiltonian=np.zeros((4, 4)), dims=dims)

    def test_hamiltonian_size_must_match_dims(self):
        # the register (4, 3) has 12 levels, so it takes only a 12 x 12 H;
        # a mismatch is a ValueError before the charge check indexes H
        assert LindbladModel(hamiltonian=np.zeros((12, 12)), dims=(4, 3), charge_weights=(1, 2)).dim == 12
        for shape in ((11, 11), (6, 6), (12, 6), (12,)):
            with pytest.raises(ValueError, match="does not match the register dims"):
                LindbladModel(hamiltonian=np.zeros(shape), dims=(4, 3), charge_weights=(1, 2))

    def _exchange(self, **kw):
        """Two-for-one exchange on (zz, str) with Q = n_zz + 2 n_str."""
        dims = (4, 3)
        a = fock.embed(destroy(4), 0, dims)
        c = fock.embed(destroy(3), 1, dims)
        h = 2 * np.pi * 5e3 * (a @ a @ c.conj().T + a.conj().T @ a.conj().T @ c)
        args = dict(hamiltonian=h, collapse_ops=heating_dissipator(1, 0.2e3, dims), dims=dims, charge_weights=(1, 2))
        return LindbladModel(**(args | kw)), a, c

    def test_declared_charge_accepted(self):
        model, _, _ = self._exchange(charge_weights=[np.int64(1), 2])
        assert model.charge_weights == (1, 2)
        assert model.charge.dtype == np.int64
        assert np.array_equal(model.charge, np.add.outer(np.arange(4), 2 * np.arange(3)).ravel())

    def test_charge_breaking_hamiltonian_rejected(self):
        model, a, _ = self._exchange()
        drive = model.hamiltonian + 2 * np.pi * 1e3 * (a + a.conj().T)  # moves Q by one
        with pytest.raises(ValueError, match="conserve"):
            self._exchange(hamiltonian=drive)

    def test_jump_without_a_fixed_shift_rejected(self):
        _, a, c = self._exchange()
        # a + c lowers Q by 1 on some entries and by 2 on others
        with pytest.raises(ValueError, match="collapse"):
            self._exchange(collapse_ops=[(a + c, 1e2)])

    @pytest.mark.parametrize(
        "charge",
        [
            dict(charge_weights=(1,)),  # one weight for two modes
            dict(charge_weights=(1, 2.0)),
            dict(charge_weights=(True, 2)),
        ],
    )
    def test_malformed_charge_rejected(self, charge):
        with pytest.raises(ValueError, match="integer"):
            self._exchange(**charge)

    def test_liouvillian_against_direct_equation(self):
        # one explicit Lindblad step: L(rho) from the superoperator matches
        # -i[H,rho] + sum_k r_k (C rho C+ - {C+C, rho}/2) computed directly
        dim = 4
        a = destroy(dim)
        h = 2 * np.pi * 1e4 * (a.conj().T @ a + 0.3 * (a + a.conj().T))
        ops = [(a, 250.0), (a.conj().T, 120.0)]
        model = LindbladModel(hamiltonian=h, collapse_ops=ops, dims=(dim,))
        lv = liouvillian(model)
        rho = thermal_state(0.9, dim)
        d = fock.displacement(0.2, dim)
        rho = d @ rho @ d.conj().T
        direct = -1j * (h @ rho - rho @ h)
        for c, r in ops:
            cdc = c.conj().T @ c
            direct += r * (c @ rho @ c.conj().T - 0.5 * (cdc @ rho + rho @ cdc))
        via_super = (lv @ rho.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(via_super - direct)) < 1e-9 * np.max(np.abs(direct))


class TestConversion:
    @pytest.mark.parametrize("name", ["heated-resonance", "uncharged"])
    def test_nested_lists_are_held_as_arrays(self, resonance_data, name):
        # the model converts its operators once: a model built from nested
        # lists holds ndarrays, and its generator (real or complex) has the
        # bytes of the same model built from arrays
        model = _heated_resonance(resonance_data) if name == "heated-resonance" else _uncharged_exchange()
        listed = LindbladModel(
            hamiltonian=model.hamiltonian.tolist(), dims=model.dims, charge_weights=model.charge_weights,
            collapse_ops=[(op.tolist(), rate) for op, rate in model.collapse_ops],
        )
        assert type(listed.hamiltonian) is np.ndarray
        assert all(type(op) is np.ndarray for op, _ in listed.collapse_ops)
        (k, jumps), (k_listed, jumps_listed) = model.generator, listed.generator
        assert k_listed.dtype == k.dtype and k_listed.tobytes() == k.tobytes()
        assert [(c.dtype, c.tobytes(), r) for c, r in jumps_listed] == [(c.dtype, c.tobytes(), r) for c, r in jumps]


class TestParity:
    """The real generator of the resonance exchange, written in the frame
    S = diag(i^n_str), whose square is the stretch parity: the model holds
    K and its jumps as float64 (``LindbladModel.generator``), so every
    Liouvillian block is gathered real, and any other model keeps a complex
    generator."""

    def _resonance(self, resonance_data, dims=(9, 6), rates=(200.0, 100.0)):
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        return scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=rates)

    def test_resonance_generator_and_blocks_are_real(self, resonance_data):
        model = self._resonance(resonance_data)
        k, jumps = model.generator
        assert k.dtype == np.float64
        assert len(jumps) == 4 and {c.dtype for c, _ in jumps} == {np.dtype(np.float64)}
        for idx in dynamics.liouvillian_blocks(model).values():
            assert liouvillian(model, idx).dtype == np.float64

    def test_kerr_zigzag_generator_is_complex(self):
        # the diagonal Kerr Hamiltonian is real, so -iH is imaginary
        kerr = scenarios.KerrModel(
            omega_si=2 * np.pi * 2.6e3, delta_zz=0.0, rate_y=0.0, rate_eg=0.0, dims=(9, 3, 3), nbar=(0.5, 0.5, 0.5)
        )
        zz = LindbladModel(
            hamiltonian=kerr.zz_hamiltonian(), dims=(9,), charge_weights=(1,)
        )
        assert zz.generator[0].dtype == np.complex128

    def test_detuned_or_complex_models_keep_a_complex_generator(self, resonance_data):
        model = self._resonance(resonance_data, dims=(5, 3))
        dims = model.dims
        a = fock.embed(destroy(5), 0, dims)
        c = fock.embed(destroy(3), 1, dims)
        # a detuning delta n_str, and the paper's real exchange, whose -iH is imaginary
        detuned = model.hamiltonian + 2 * np.pi * 1e3 * (c.conj().T @ c)
        paper = 2 * np.pi * 5e3 * (a @ a @ c.conj().T + a.conj().T @ a.conj().T @ c)

        def rebuilt(**changes):  # the model, built again with some arguments changed
            kept = {"hamiltonian": model.hamiltonian, "collapse_ops": model.collapse_ops}
            return LindbladModel(**(kept | changes), dims=dims, charge_weights=model.charge_weights)

        for h in (detuned, paper):
            variant = rebuilt(hamiltonian=h)
            assert variant.generator[0].dtype == np.complex128
            assert liouvillian(variant, dynamics.liouvillian_blocks(variant)[0]).dtype == np.complex128
        # a complex jump makes the generator complex too
        phased = rebuilt(collapse_ops=model.collapse_ops + [(np.exp(0.3j) * c, 50.0)])
        assert phased.generator[0].dtype == np.complex128
        # a zero-rate jump is not part of the generator
        idle = rebuilt(collapse_ops=model.collapse_ops + [(np.exp(0.3j) * c, 0.0)])
        assert idle.generator[0].dtype == np.float64

    def test_fault_in_a_parity_model_mirror_sector_raises(self, resonance_data, monkeypatch):
        # an imaginary diagonal injected into the mirror -c of the forward
        # line's largest kept sector c makes that block of the real
        # generator complex: it is exponentiated as it is, and the reality
        # check sees the fault
        model = self._resonance(resonance_data, dims=(5, 3))
        assert model.generator[0].dtype == np.float64
        seq = protocol.PulseSequence()
        kept = protocol._kept_sectors(model.charge_weights[0], seq)
        blocks = dynamics.liouvillian_blocks(model)
        c = max((c for c in blocks if dynamics._in_class(c, kept[0])), key=lambda c: blocks[c].size)
        exact = dynamics.liouvillian

        def faulty(model, idx=None):
            out = exact(model, idx)
            if idx is not None and np.array_equal(idx, blocks[-c]):
                return out + 1e3j * np.eye(idx.size)
            return out

        monkeypatch.setattr(dynamics, "liouvillian", faulty)
        rho0 = scenarios.resonance_initial_state((5, 3), (0.5, 0.2))
        with pytest.raises(dynamics.SignalRealityError, match="imaginary"):
            protocol.scan(model, rho0, seq, t_max=6 * 2e-5, dt=2e-5)


class TestProbesRefuseNaN:
    """Each check raises unless its residual is at most its bound, so a NaN
    residual, for which every comparison is False, fails it."""

    def test_trace_drift(self):
        diagonal = np.full((4, 3), 1 / 3, dtype=complex)
        dynamics._check_trace_drift(diagonal)
        diagonal[2, 1] = np.nan
        with pytest.raises(dynamics.PropagatorAccuracyError, match="drift nan"):
            dynamics._check_trace_drift(diagonal)

    def test_skew(self):
        x = np.full((4, 3), 0.5 + 0.25j)
        dynamics._check_skew(x, x.conj())
        x[1, 2] = np.nan
        with pytest.raises(dynamics.SignalRealityError, match="part nan"):
            dynamics._check_skew(x, x.conj())


def _heated_resonance(resonance_data, dims=(7, 5)):
    omega_t = scenarios.resonance_parameters(resonance_data).omega_t
    return scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=(200.0, 100.0))


def _kerr_zigzag():
    kerr = scenarios.KerrModel(
        omega_si=2 * np.pi * 2.6e3, delta_zz=2 * np.pi * 0.9e3, rate_y=0.0, rate_eg=0.0,
        dims=(9, 3, 3), nbar=(0.5, 0.5, 0.5),
    )
    return LindbladModel(hamiltonian=kerr.zz_hamiltonian(), dims=(9,), charge_weights=(1,))


def _uncharged_exchange():
    """Zero charge weights, so one block: a complex exchange, heating and a
    complex jump make K and the jumps complex, and a dephasing jump puts a
    third term on the diagonal, where the order of the sum shows."""
    dims = (4, 3)
    a = fock.embed(destroy(4), 0, dims)
    c = fock.embed(destroy(3), 1, dims)
    g = 2 * np.pi * 5e3 * np.exp(0.3j)
    h = g * (a @ a @ c.conj().T) + np.conj(g) * (a.conj().T @ a.conj().T @ c)
    jumps = heating_dissipator(0, 0.4e3, dims) + [(np.exp(0.7j) * c, 0.3e3), (c.conj().T @ c, 0.2e3)]
    return LindbladModel(hamiltonian=h, dims=dims, collapse_ops=jumps)


class TestGather:
    """``liouvillian`` gathers each block from the formula of L on the
    block's own vec indices, the three terms added from zeros in order in
    the generator's dtype; the sparse scatter of ``scattered_liouvillian``,
    which adds a repeated position's terms in that order by one
    ``np.add.at``, is its reference, byte for byte and in dtype."""

    @pytest.mark.parametrize(
        "name, dtype",
        [
            ("heated-resonance", np.float64),
            ("heated-resonance-9x6", np.float64),
            ("kerr-zigzag", np.complex128),
            ("uncharged", np.complex128),
        ],
    )
    def test_gather_is_the_sparse_scatter(self, resonance_data, name, dtype):
        model = {
            "heated-resonance": lambda: _heated_resonance(resonance_data),
            "heated-resonance-9x6": lambda: _heated_resonance(resonance_data, dims=(9, 6)),
            "kerr-zigzag": _kerr_zigzag,
            "uncharged": _uncharged_exchange,
        }[name]()
        for idx in [*dynamics.liouvillian_blocks(model).values(), None]:
            gathered, scattered = liouvillian(model, idx), scattered_liouvillian(model, idx)
            assert gathered.dtype == scattered.dtype == dtype
            assert gathered.tobytes() == scattered.tobytes()

    def test_single_precision_model_keeps_its_dtype(self):
        # float32 operators give a complex64 generator: the block is summed
        # in complex64, in the scatter oracle's order of the terms
        a = destroy(4).astype(np.float32)
        h = (2 * np.pi * 1e4 * (a.T @ a + 0.3 * (a + a.T))).astype(np.float32)
        model = LindbladModel(hamiltonian=h, dims=(4,), collapse_ops=[(a, 250.0), (a.T, 120.0)])
        gathered, scattered = liouvillian(model), scattered_liouvillian(model)
        assert gathered.dtype == scattered.dtype == np.complex64
        assert np.max(np.abs(gathered - scattered)) <= 1e-6 * np.max(np.abs(scattered))

    @pytest.mark.parametrize("name", ["heated-resonance", "uncharged"])
    def test_gather_memory_is_charged(self, resonance_data, name):
        # one block's gather, its index tables and temporaries beside the
        # block, holds at most 6 complex b x b matrices, well within the
        # 10 that _map_bytes(b) charges for the gather and expm
        model = _heated_resonance(resonance_data) if name == "heated-resonance" else _uncharged_exchange()
        model.generator  # noqa: B018 -- formed before the trace, as in a scan
        idx = dynamics.liouvillian_blocks(model)[0]
        tracemalloc.start()
        try:
            liouvillian(model, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 16 * idx.size**2


class TestExpmIdentityTerms:
    """``expm`` adds the Pade identity terms b0 I and b1 I on the diagonal;
    the dense-identity form ``expm_with_eye`` is its reference, bit for bit
    (off the diagonal that form adds 0.0, which changes no value)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_random_matrices(self, dtype):
        # 1-norms from 1e-3 to about 50, with and without squarings
        rng = np.random.default_rng(5)
        for size in [*range(1, 60), 100, 200]:
            a = rng.standard_normal((size, size)).astype(dtype)
            if dtype is np.complex128:
                a += 1j * rng.standard_normal((size, size))
            a *= 10.0 ** rng.uniform(-3.0, 1.7) / np.abs(a).sum(axis=0).max()
            assert np.array_equal(dynamics.expm(a), expm_with_eye(a))

    @pytest.mark.parametrize("dims, count", [((7, 5), 29), ((9, 6), 37), ((11, 8), 49)])
    def test_every_heated_resonance_block(self, resonance_data, dims, count):
        # every sector block of the heated resonance model at the scenario's
        # dt; (11, 8) holds the largest maps of any compared config, up to
        # b = 378
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        model = scenarios.resonance_model(omega_t, dims=dims, heating_quanta_per_s=(200.0, 100.0))
        blocks = dynamics.liouvillian_blocks(model)
        assert len(blocks) == count
        for idx in blocks.values():
            a = liouvillian(model, idx) * 10.6e-6
            assert np.array_equal(dynamics.expm(a), expm_with_eye(a))

    def test_one_matrix_fewer(self, resonance_data):
        # the c = 0 block of the reference resonance model, b = 186 in
        # float64: the dense-identity form peaks at 8.0 b^2, expm one b^2
        # lower
        omega_t = scenarios.resonance_parameters(resonance_data).omega_t
        model = scenarios.resonance_model(omega_t, dims=(9, 6), heating_quanta_per_s=(200.0, 100.0))
        a = liouvillian(model, dynamics.liouvillian_blocks(model)[0]) * 10.6e-6
        matrix = a.nbytes
        assert a.shape == (186, 186) and a.dtype == np.float64
        peaks = []
        for expm in (expm_with_eye, dynamics.expm):
            tracemalloc.start()
            try:
                expm(a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert 7.9 * matrix <= peaks[0] <= 8.1 * matrix
        assert peaks[1] <= 7.1 * matrix
