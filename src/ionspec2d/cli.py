"""Scenario runner: config parsing, artifact output, run manifest.

Four scenarios: ``kerr`` (self-interaction spectrum near the structural
transition), ``resonance`` (zigzag-stretch exchange spectrum under heating),
``tables`` (effective-parameter tables only), and ``noise-table`` (the laser
phase-noise contrast-loss table).  Both spectrum scenarios run one engine,
``protocol.scan``: ``resonance`` on its register, ``kerr`` through
``scenarios.kerr_scan_fast`` on the zigzag alone, with the spectator
average as scan's chi weight.  Each is one phase-cycled contraction, not a
thread pool, so the ``threads`` setting is validated but has no effect, and
neither has ``seed``: no run draws a random number.  Laser phase noise
multiplies a grid by its exact attenuation ``phasenoise.attenuation``.
Importing this module pins the BLAS thread variables to 1 unless the
caller set them.  A signal grid is its values and its one time step dt,
at t1 = k1 dt and t3 = k3 dt; each axis spans 2 ms times ``grid_scale``
(the command line's ``--grid-scale``), the one grid-length setting, at
the step ``dt_s``.  The spectrum stage makes one ``spectrum.fft2``; the
two 1D projections are plain complex arrays, the means of that spectrum
over one axis, taken before the optional carrier notch.  It writes each
quantity once: ``signal_grid.bin``,
``spectrum.bin`` (complex; its two affine omega axes are the manifest's
``spectrum_axes``, start, step and count), each projection as the
spectrum's own axis beside the projection's magnitude, and ``peaks.csv``.
A ``resonance`` run labels its peaks with the letters that
``scenarios.predicted_peaks`` places from the charge blocks of its exchange
model, within 1.5 bins, and warns when the detuning 2 omega_zz -
omega_str, which that model omits, exceeds the same tolerance.
``build_config`` parses each field as the kind of its default and rejects
an invalid configuration with ConfigError (exit 2) before any work starts,
a stage past the memory budget included: the coupling tensors of the ion
number, the scan (the columns of its kept charge sectors, its largest
sector's step map and its phase-cycle stacks) and the zero-padded
spectrum.  The pulse sequence (``RunConfig.sequence``) checks its own
settings when ``build_config`` builds it.  ``main`` prints every ConfigError, an unreadable or invalid
config file's included, from one handler and exits with 2.  Every run,
successful or not, leaves a manifest.json with the resolved
configuration, derived parameters, regime diagnostics (the RWA ratio of
``kerr`` and ``tables``), every warning the run raised (each also
re-emitted once the manifest is written) and checksums of all outputs: SHA-256 of the bytes each
``matio`` writer returns (no artifact is read back), from CPython's
built-in module rather than ``hashlib``, whose import loads OpenSSL's
libcrypto (about 3.4 MB of resident memory) in every run.  ``argparse`` is
imported by ``main`` alone, so ``build_config`` and ``run_scenario`` load
neither.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

# CPython's own SHA-256 (the same digests as hashlib's): importing hashlib
# loads OpenSSL's libcrypto, about 3.4 MB of resident memory, to hash at
# most about a megabyte of artifacts
try:
    from _sha2 import sha256 as _new_sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256  # Python 3.10, 3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256 as _new_sha256

# one BLAS thread unless the caller set one: the block maps and lines are
# small matrices, which a second OpenBLAS thread on a two-core machine makes
# several times slower; OpenBLAS reads these when numpy loads, below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import __version__, anharmonic, dynamics, fock, matio, phasenoise, protocol, scenarios, spectrum  # noqa: E402
from .crystal import ATOMIC_MASS, TrapConfig  # noqa: E402

SCENARIOS = ("kerr", "resonance", "tables", "noise-table")
# register modes of the simulated scenarios, slot 0 the probed zigzag: (zz,
# y zigzag, Egyptian) and (zz, stretch); the manifest's kept_weight keys
_MODE_LABELS = {"kerr": ("zz", "yzz", "eg"), "resonance": ("zz", "str")}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One run's settings.  ``threads`` (a positive integer) and ``seed`` (a
    non-negative one) are validated and recorded, but have no effect: each
    scan is one contraction, and no run draws a random number.  The two keys
    are accepted only because the benchmark's workload configs still pass
    them; both go once those stop (ROADMAP item 1)."""

    scenario: str
    n_ions: int = 3
    mass_amu: float = 39.9625909  # 40Ca+; the electron-mass correction is below every tolerance
    omega_z_hz: float = 2.0e6
    omega_x_hz: float = 3.1012e6
    omega_y_hz: float = 5.0e6
    dims: tuple[int, ...] = (9, 15, 15)
    nbar: tuple[float, ...] = (1.0, 4.0, 4.0)
    heating_quanta_per_ms: tuple[float, ...] = (0.0, 0.0)
    alpha: float = protocol.PulseSequence.alpha
    n_phases: tuple[int, int, int] = protocol.PulseSequence.n_phases
    signature: tuple[int, int, int] = protocol.PulseSequence.signature
    dt_s: float = 25.3e-6
    grid_scale: float = 1.0
    seed: int = 0
    threads: int = 1
    out_dir: str = "out"
    window: str = "none"
    zero_pad: int = 1
    baseline_notch: bool = False
    peak_threshold: float = 0.05
    phase_noise_diffusion: float = 0.0
    noise_t1_s: float = 2.5e-3
    noise_t3_s: float = 2.5e-3

    def trap(self) -> TrapConfig:
        return TrapConfig(
            n_ions=self.n_ions,
            mass=self.mass_amu * ATOMIC_MASS,
            omega_x=2 * np.pi * self.omega_x_hz,
            omega_y=2 * np.pi * self.omega_y_hz,
            omega_z=2 * np.pi * self.omega_z_hz,
        )

    def sequence(self) -> protocol.PulseSequence:
        return protocol.PulseSequence(
            alpha=self.alpha, n_phases=tuple(self.n_phases), signature=tuple(self.signature)
        )

    @property
    def effective_t_max(self) -> float:
        return 2.0e-3 * self.grid_scale  # each grid axis spans the reference 2 ms times grid_scale


# per-scenario defaults layered over the dataclass defaults
_SCENARIO_DEFAULTS = {
    "kerr": {"heating_quanta_per_ms": (0.0, 0.0, 0.0)},
    "resonance": {
        "omega_x_hz": 2.0e6 * float(np.sqrt(63.0 / 20.0)),
        "dims": (9, 6),
        "nbar": (0.7, 0.2),
        "heating_quanta_per_ms": (0.2, 0.1),
        "dt_s": 10.6e-6,
    },
    "tables": {},
    "noise-table": {"phase_noise_diffusion": phasenoise.DEFAULT_DIFFUSION},
}

# ranges checked for every scenario, so that no value fails only after the run
_POSITIVE = ("mass_amu", "omega_z_hz", "omega_x_hz", "omega_y_hz", "dt_s", "grid_scale", "threads", "zero_pad")
_NON_NEGATIVE = ("seed", "phase_noise_diffusion", "noise_t1_s", "noise_t3_s")


def _scalar(name: str, value, kind: type):
    """``value`` as a 64-bit integer or a finite float, never truncated;
    ConfigError otherwise."""
    if isinstance(value, bool) or not isinstance(value, (kind, int)):
        raise ConfigError(f"{name} must be {'an integer' if kind is int else 'a number'}")
    if kind is int:
        if abs(value) >= 2**63:
            raise ConfigError(f"{name} must fit in 64 bits")
        return value
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def build_config(raw: dict) -> RunConfig:
    """Validated config from a JSON-compatible dict; unknown keys rejected.
    Each field is parsed as the kind of its ``RunConfig`` default."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    merged = dict(_SCENARIO_DEFAULTS[scenario])
    merged.update(raw)
    cfg_kwargs = {"scenario": scenario}
    # each field parses as the kind of its default: a tuple as its first
    # entry's, and bool before int, whose subclass it is
    for f in fields(RunConfig):
        if f.name == "scenario" or f.name not in merged:
            continue
        value, default = merged[f.name], f.default
        if isinstance(default, tuple):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{f.name} must be a list")
            value = tuple(_scalar(f"{f.name} entry", v, type(default[0])) for v in value)
        elif isinstance(default, (bool, str)):
            if not isinstance(value, type(default)):
                raise ConfigError(f"{f.name} must be a {'boolean' if isinstance(default, bool) else 'string'}")
        else:
            value = _scalar(f.name, value, type(default))
        cfg_kwargs[f.name] = value
    cfg = RunConfig(**cfg_kwargs)
    for name in _POSITIVE:
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    for name in _NON_NEGATIVE:
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be >= 0")
    if not 0 < cfg.peak_threshold < 1:
        raise ConfigError("peak_threshold must be in (0, 1)")
    if cfg.window not in ("none", "cosine"):
        raise ConfigError("window must be 'none' or 'cosine'")
    try:  # the sequence checks its own phase counts and signature
        seq = cfg.sequence()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # kerr models a zigzag crystal of at least three ions; one ion has no zigzag
    min_ions = {"noise-table": 0, "kerr": 3}.get(cfg.scenario, 2)
    if cfg.n_ions < min_ions:
        raise ConfigError(f"{cfg.scenario} needs n_ions >= {min_ions}, got {cfg.n_ions}")
    if cfg.scenario in _MODE_LABELS:
        if len(cfg.dims) != len(cfg.nbar):
            raise ConfigError("dims and nbar must have matching lengths")
        if len(cfg.dims) != len(_MODE_LABELS[cfg.scenario]):
            raise ConfigError(
                f"{cfg.scenario} needs {len(_MODE_LABELS[cfg.scenario])} dims, got {len(cfg.dims)}"
            )
        if min(cfg.dims) < 2:
            raise ConfigError("every dim must be >= 2")
        if min(cfg.nbar) < 0:
            raise ConfigError("nbar must be >= 0")
    if cfg.scenario == "resonance" and (
        len(cfg.heating_quanta_per_ms) != 2 or min(cfg.heating_quanta_per_ms) < 0
    ):
        raise ConfigError("resonance needs two heating_quanta_per_ms values >= 0")
    if cfg.scenario == "kerr" and any(cfg.heating_quanta_per_ms):
        raise ConfigError("kerr is dissipation-free: heating_quanta_per_ms must be zero")
    try:
        if cfg.scenario != "noise-table":
            # the coupling tensors of N ions, one stage at a time: C4's
            # outer powers over the N (N - 1)/2 ion pairs, (pairs, N^2) and
            # (pairs, N^3) (anharmonic._pair_sum_tensor), or the RWA ratio's
            # (2N)^3 rotation frequencies of one first operator with their
            # mask and temporaries (kerr and tables); beside them the four
            # tensors up to N^4
            need = 8 * max(cfg.n_ions**3 * (cfg.n_ions**2 - 1) // 2, 24 * cfg.n_ions**3) + 32 * cfg.n_ions**4
            dynamics._check_budget(need, f"coupling tensors ({cfg.n_ions} ions)")
        if cfg.scenario in _MODE_LABELS:
            # also false when 2 ms * grid_scale overflows to infinity
            if not cfg.effective_t_max / cfg.dt_s < 2**62:
                raise ConfigError("2 ms * grid_scale / dt_s is too large for a grid index")
            n = protocol.grid_points(cfg.effective_t_max, cfg.dt_s)
            if n < 2:
                raise ConfigError(
                    "2 ms * grid_scale must be at least dt_s: a one-point grid has no spectrum"
                )
            # the scan's own guard, before any operator is built; kerr
            # scans the zigzag alone, and the pulses drive slot 0 (the
            # protocol's probed mode)
            if cfg.scenario == "kerr":
                protocol.check_scan_budget((1,), cfg.dims[:1], n, seq, chi=True)
            else:
                protocol.check_scan_budget(scenarios.RESONANCE_CHARGE_WEIGHTS, cfg.dims, n, seq)
            # the spectrum stage holds at most four complex (n zero_pad)^2
            # arrays at once: the spectrum beside fft2's unshifted output,
            # the notch's copy or the bytes of spectrum.bin, and find_peaks'
            # magnitudes with their padded copies
            side = n * cfg.zero_pad
            dynamics._check_budget(64 * side * side, f"spectrum ({side} x {side} bins)")
    except dynamics.PropagatorSizeError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _sha256(data: bytes) -> str:
    return _new_sha256(data).hexdigest()


def _write_tables(out: Path, params: anharmonic.EffectiveParams) -> dict[str, str]:
    """The shift and dephasing CSV tables (kHz), one row per order: the x, y
    and z modes in ascending mode number, COM dropped, and in the x zigzag's
    column its own shift and Omega_SI/2.  Returns {file name: sha256}."""
    khz = 2 * np.pi * 1e3
    n = params.effective.delta.shape[1]
    labels = [anharmonic.mode_label(d, m) for d in "xyz" for m in range(1, n)]
    shift_header = ["order"] + [f"dw_{c}" for c in labels]
    deph_header = ["order"] + [f"od_{c}" for c in labels]
    shift_header[n - 1], deph_header[n - 1] = "dw_zz", "osi_half"  # the x zigzag
    shift_rows, deph_rows = [], []
    for order_name in ("third", "fourth", "effective"):
        par = getattr(params, order_name)
        deph = par.dephasing.copy()
        deph[0, -1] = par.omega_si / 2
        shift_rows.append([order_name] + (par.delta[:, 1:] / khz).ravel().tolist())
        deph_rows.append([order_name] + (deph[:, 1:] / khz).ravel().tolist())
    shifts, deph = "freq_shifts_khz.csv", "dephasing_rates_khz.csv"
    return {
        shifts: _sha256(matio.write_csv(out / shifts, shift_header, shift_rows)),
        deph: _sha256(matio.write_csv(out / deph, deph_header, deph_rows)),
    }


def _write_spectrum_products(out: Path, grid, spec, projections, peaks) -> dict[str, str]:
    """The spectrum stage's artifacts, each quantity once: the phase-cycled
    grid (``signal_grid.bin``), the complex 2D spectrum (``spectrum.bin``;
    its axes are in the manifest, ``_axis``), the 1D projections
    ({axis: complex array on the spectrum's axis}), each written as its
    axis beside its magnitude, and the peak list.  Returns {file name:
    sha256}."""
    digests = {}
    for name, values in (("signal_grid.bin", grid.values), ("spectrum.bin", spec.values)):
        digests[name] = _sha256(matio.write_matrix(out / name, values))
    for axis, proj in projections.items():
        name = f"projection_{axis}.csv"
        digests[name] = _sha256(matio.write_csv(
            out / name, ["omega_rad_s", "magnitude"],
            np.column_stack([getattr(spec, axis), np.abs(proj)]).tolist(),
        ))
    digests["peaks.csv"] = _sha256(matio.write_csv(
        out / "peaks.csv",
        ["omega1_rad_s", "omega3_rad_s", "magnitude", "label"],
        [[pk.omega1, pk.omega3, pk.magnitude, pk.label] for pk in peaks],
    ))
    return digests


def _axis(omega: np.ndarray, dt: float) -> dict:
    """A spectrum axis of ``count`` bins at grid step ``dt`` as the manifest
    records it: omega[k] = start + k * step for k < count (rad/s), with the
    exact step 2 pi / (count dt)."""
    return {"start": float(omega[0]), "step": 2 * np.pi / (omega.size * dt), "count": omega.size}


def _apply_phase_noise(grid, signature, diffusion):
    """The phase-cycled grid times its exact pointwise attenuation exp(-L),
    at t1 = k1 dt down the rows and t3 = k3 dt along the columns."""
    n1, n3 = grid.values.shape
    factor = phasenoise.attenuation(signature, np.arange(n1)[:, None] * grid.dt, np.arange(n3) * grid.dt, diffusion)
    return protocol.SignalGrid(values=grid.values * factor, dt=grid.dt)


def _truncation(cfg: RunConfig) -> dict:
    """Thermal weight each mode keeps in its truncated Fock space,
    1 - (nbar/(1+nbar))^dim in closed form (``fock.thermal_sum``), so that
    a huge spectator dim or nbar costs nothing; the initial state is
    renormalized over it."""
    return {
        "kept_weight": {
            label: float(fock.thermal_sum(nbar, dim).real)
            for label, dim, nbar in zip(_MODE_LABELS[cfg.scenario], cfg.dims, cfg.nbar)
        }
    }


def run_scenario(cfg: RunConfig) -> dict:
    """Execute the configured scenario; returns the manifest dict."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest = {
        "tool": "ionspec2d",
        "version": __version__,
        "scenario": cfg.scenario,
        "status": "running",
        "resolved_config": asdict(cfg),
    }
    outputs = None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # every warning, repeats included
            outputs = _dispatch(cfg, out, manifest)
        manifest["status"] = "ok"
    except Exception as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["wall_time_s"] = time.time() - started
        manifest["warnings"] = [{"category": w.category.__name__, "message": str(w.message)} for w in caught]
        if outputs is not None:
            manifest["outputs"] = outputs
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        for w in caught:  # re-emitted once the manifest is written: stderr by default
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return manifest


def _dispatch(cfg: RunConfig, out: Path, manifest: dict) -> dict[str, str]:
    """Run the configured scenario; returns {artifact name: sha256}."""
    if cfg.scenario == "noise-table":
        rows = phasenoise.loss_table(
            t1=cfg.noise_t1_s,
            t3=cfg.noise_t3_s,
            diffusion=cfg.phase_noise_diffusion,
        )
        written = matio.write_csv(
            out / "noise_loss.csv",
            ["p2", "p3", "p4", "loss_analytic", "loss_exact"],
            [[r["p2"], r["p3"], r["p4"], r["loss"], r["loss_exact"]] for r in rows],
        )
        manifest["derived"] = {"diffusion_rad2_s": cfg.phase_noise_diffusion}
        return {"noise_loss.csv": _sha256(written)}

    data = scenarios.derive_modes(cfg.trap())
    derived = {
        "omega_zz_hz": data.omega_zz / (2 * np.pi),
        "lambda_z": data.modes.lambda_z.tolist(),
        "gamma_x": data.modes.gamma_x.tolist(),
        "gamma_y": data.modes.gamma_y.tolist(),
    }
    manifest["derived"] = derived

    if cfg.scenario in ("tables", "kerr"):
        params = scenarios.kerr_parameters(data)
        eff = params.effective
        derived["omega_si_hz"] = eff.omega_si / (2 * np.pi)
        derived["delta_omega_zz_hz"] = eff.delta[0, -1] / (2 * np.pi)
        manifest["regime"] = {
            "rwa_max_nonsecular_ratio": anharmonic.max_nonsecular_ratio(
                data.trap, data.modes, data.tensors
            )
        }
        if cfg.scenario == "tables":
            return _write_tables(out, params)

    seq = cfg.sequence()
    t_max = cfg.effective_t_max
    manifest["truncation"] = _truncation(cfg)
    if cfg.scenario == "kerr":
        model = scenarios.kerr_model_from_params(
            params, dims=tuple(cfg.dims), nbar=tuple(cfg.nbar)
        )
        manifest["dissipation_free"] = True
        grid = scenarios.kerr_scan_fast(model, seq, t_max, cfg.dt_s)
        tables = _write_tables(out, params)
    else:  # resonance
        res = scenarios.resonance_parameters(data)
        derived["omega_t_hz"] = res.omega_t / (2 * np.pi)
        derived["detuning_hz"] = res.detuning / (2 * np.pi)
        rates = tuple(1e3 * r for r in cfg.heating_quanta_per_ms)
        manifest["dissipation_free"] = not any(rates)
        model = scenarios.resonance_model(
            res.omega_t, dims=tuple(cfg.dims), heating_quanta_per_s=rates
        )
        rho0 = scenarios.resonance_initial_state(tuple(cfg.dims), tuple(cfg.nbar))
        grid = protocol.scan(model, rho0, seq, t_max, cfg.dt_s)
        tables = {}

    if cfg.phase_noise_diffusion > 0:
        grid = _apply_phase_noise(grid, cfg.signature, cfg.phase_noise_diffusion)

    spec = spectrum.fft2(
        grid, window=cfg.window, zero_pad=cfg.zero_pad, carrier_offset=-data.omega_zz
    )
    # the projections average the whole spectrum, so they are taken before the notch
    projections = {axis: spectrum.project_1d(spec, axis) for axis in ("omega1", "omega3")}
    if cfg.baseline_notch:
        spec = spectrum.notch_carrier(spec)
    manifest["spectrum_axes"] = {f"{axis}_rad_s": _axis(getattr(spec, axis), spec.dt) for axis in ("omega1", "omega3")}
    peaks = spectrum.find_peaks(spec, threshold=cfg.peak_threshold)
    if cfg.scenario == "resonance":
        tol = 1.5 * spec.bin_width
        if abs(res.detuning) > tol:  # the exchange model omits it, and it moves the peaks
            warnings.warn(
                f"detuning 2 omega_zz - omega_str = {res.detuning / (2 * np.pi):.1f} Hz is not in the exchange "
                f"model and exceeds the peak-label tolerance {tol / (2 * np.pi):.1f} Hz: the labels cannot be trusted",
                stacklevel=2,
            )
        predicted = scenarios.predicted_peaks(model, data.omega_zz, scenarios.RESONANCE_LETTERS)
        scenarios.label_peaks(peaks, predicted, tol)
    return tables | _write_spectrum_products(out, grid, spec, projections, peaks)


def main(argv: list[str] | None = None) -> int:
    import argparse  # only the command line parses arguments

    parser = argparse.ArgumentParser(
        prog="ionspec2d",
        description="2D phase-cycled spectroscopy simulations for ion Coulomb crystals",
    )
    parser.add_argument("--config", type=Path, help="JSON configuration file")
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--grid-scale", dest="grid_scale", type=float)
    args = parser.parse_args(argv)

    try:
        try:
            raw = json.loads(args.config.read_text(encoding="utf-8")) if args.config else {}
        except (OSError, ValueError) as exc:  # ValueError: invalid UTF-8 or JSON
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        if isinstance(raw, dict):  # the flags override its keys; build_config rejects a non-object
            raw.update({key: value for key, value in vars(args).items() if key != "config" and value is not None})
        cfg = build_config(raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_scenario(cfg)
    except Exception as exc:  # manifest with the error is already on disk
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"status": manifest["status"], "out_dir": cfg.out_dir,
                      "wall_time_s": round(manifest["wall_time_s"], 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
