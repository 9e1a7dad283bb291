"""Scenario runner: config parsing, artifact output, run manifest.

Four scenarios: ``kerr`` (self-interaction spectrum near the structural
transition), ``resonance`` (zigzag-stretch exchange spectrum under heating),
``tables`` (effective-parameter tables only), and ``noise-table`` (the laser
phase-noise contrast-loss table).  ``kerr`` always runs the sector-averaged
closed form ``scenarios.kerr_scan_fast``; ``resonance`` runs
``protocol.scan``.  Each is one phase-cycled contraction, not a thread pool,
so the ``threads`` setting is validated but has no effect.  The spectrum
stage makes one ``spectrum.fft2``; the two 1D projections are means of that
spectrum, taken before the optional carrier notch.  ``build_config``
rejects an invalid configuration with ConfigError (exit 2) before any work
starts, a ``resonance`` scan past the memory budget included.  Every run,
successful or not, leaves a manifest.json with the resolved configuration,
derived parameters, regime diagnostics (the RWA ratio of ``kerr`` and
``tables``) and checksums of all outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy import constants

from . import __version__, anharmonic, dynamics, fock, matio, phasenoise, protocol, scenarios, spectrum
from .crystal import TrapConfig

SCENARIOS = ("kerr", "resonance", "tables", "noise-table")
# register modes of the simulated scenarios: (zz, y zigzag, Egyptian) and (zz, stretch)
_MODE_COUNT = {"kerr": 3, "resonance": 2}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """One run's settings.  ``threads`` is validated (a positive integer)
    and recorded, but has no effect: each scan is one contraction."""

    scenario: str
    n_ions: int = 3
    mass_amu: float = 39.9625909
    omega_z_hz: float = 2.0e6
    omega_x_hz: float = 3.1012e6
    omega_y_hz: float = 5.0e6
    dims: tuple[int, ...] = (9, 15, 15)
    nbar: tuple[float, ...] = (1.0, 4.0, 4.0)
    heating_quanta_per_ms: tuple[float, ...] = (0.0, 0.0)
    alpha: float = 0.25
    n_phases: tuple[int, int, int] = (4, 4, 4)
    signature: tuple[int, int, int] = (1, -1, -1)
    t_max_s: float = 2.0e-3
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
    mc_paths: int = 100_000

    def trap(self) -> TrapConfig:
        return TrapConfig(
            n_ions=self.n_ions,
            mass=self.mass_amu * constants.atomic_mass,
            omega_x=2 * np.pi * self.omega_x_hz,
            omega_y=2 * np.pi * self.omega_y_hz,
            omega_z=2 * np.pi * self.omega_z_hz,
        )

    def sequence(self) -> protocol.PulseSequence:
        return protocol.PulseSequence(
            amplitudes=(self.alpha,) * 4,
            n_phases=tuple(self.n_phases),
            signature=tuple(self.signature),
            target=0,
        )

    @property
    def effective_t_max(self) -> float:
        return self.t_max_s * self.grid_scale


# per-scenario defaults layered over the dataclass defaults
_SCENARIO_DEFAULTS = {
    "kerr": {
        "dims": (9, 15, 15),
        "nbar": (1.0, 4.0, 4.0),
        "dt_s": 25.3e-6,
        "heating_quanta_per_ms": (0.0, 0.0, 0.0),
    },
    "resonance": {
        "omega_x_hz": 2.0e6 * float(np.sqrt(63.0 / 20.0)),
        "dims": (9, 6),
        "nbar": (0.7, 0.2),
        "heating_quanta_per_ms": (0.2, 0.1),
        "dt_s": 10.6e-6,
    },
    "tables": {},
    "noise-table": {},
}

_TUPLE_FIELDS = {
    "dims": int,
    "nbar": float,
    "heating_quanta_per_ms": float,
    "n_phases": int,
    "signature": int,
}
_INT_FIELDS = ("n_ions", "seed", "threads", "zero_pad", "mc_paths")
# ranges checked for every scenario, so that no value fails only after the run
_POSITIVE = (
    "mass_amu", "omega_z_hz", "omega_x_hz", "omega_y_hz",
    "t_max_s", "dt_s", "grid_scale", "threads", "zero_pad",
)
_NON_NEGATIVE = ("seed", "mc_paths", "phase_noise_diffusion", "noise_t1_s", "noise_t3_s")


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
    """Validated config from a JSON-compatible dict; unknown keys rejected."""
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    merged = dict(_SCENARIO_DEFAULTS[scenario])
    merged.update(raw)
    cfg_kwargs = {}
    for f in fields(RunConfig):
        if f.name not in merged:
            continue
        value = merged[f.name]
        if f.name in _TUPLE_FIELDS:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{f.name} must be a list")
            value = tuple(_scalar(f"{f.name} entry", v, _TUPLE_FIELDS[f.name]) for v in value)
        elif f.name in ("scenario", "out_dir", "window"):
            if not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string")
        elif f.name == "baseline_notch":
            if not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a boolean")
        else:
            value = _scalar(f.name, value, int if f.name in _INT_FIELDS else float)
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
    if len(cfg.n_phases) != 3 or len(cfg.signature) != 3:
        raise ConfigError("n_phases and signature need three entries, for pulses 2..4")
    if min(cfg.n_phases) < 1:
        raise ConfigError("n_phases must be >= 1")
    # kerr models a zigzag crystal of at least three ions; one ion has no zigzag
    min_ions = {"noise-table": 0, "kerr": 3}.get(cfg.scenario, 2)
    if cfg.n_ions < min_ions:
        raise ConfigError(f"{cfg.scenario} needs n_ions >= {min_ions}, got {cfg.n_ions}")
    if cfg.scenario in _MODE_COUNT:
        if len(cfg.dims) != len(cfg.nbar):
            raise ConfigError("dims and nbar must have matching lengths")
        if len(cfg.dims) != _MODE_COUNT[cfg.scenario]:
            raise ConfigError(
                f"{cfg.scenario} needs {_MODE_COUNT[cfg.scenario]} dims, got {len(cfg.dims)}"
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
    if cfg.scenario in _MODE_COUNT:
        # also false when t_max_s * grid_scale overflows to infinity
        if not cfg.effective_t_max / cfg.dt_s < 2**62:
            raise ConfigError("t_max_s * grid_scale / dt_s is too large for a grid index")
        n = protocol.grid_points(cfg.effective_t_max, cfg.dt_s)
        if n < 2:
            raise ConfigError(
                "t_max_s * grid_scale must be at least dt_s: a one-point grid has no spectrum"
            )
    if cfg.scenario == "resonance":
        # the scan's own guard, before resonance_model builds a d x d operator;
        # the pulses target slot 0, the zigzag (RunConfig.sequence)
        try:
            protocol.check_scan_budget(cfg.dims, n, 0)
        except dynamics.PropagatorSizeError as exc:
            raise ConfigError(str(exc)) from None
    if cfg.scenario in _MODE_COUNT and cfg.phase_noise_diffusion > 0:
        # the loss grows with t1 and t3, so the last grid point bounds it
        t_last = (n - 1) * cfg.dt_s
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the run warns when it applies the loss
            worst = phasenoise.contrast_loss(
                cfg.signature, t_last, t_last, cfg.phase_noise_diffusion
            )
        if worst >= 1.0:
            raise ConfigError(
                f"phase_noise_diffusion {cfg.phase_noise_diffusion:g} rad^2/s gives a "
                f"contrast loss of {worst:.3g} at the end of the grid; a loss >= 1 "
                "would flip the sign of the signal"
            )
    return cfg


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_tables(out: Path, params: anharmonic.EffectiveParams) -> list[Path]:
    """The shift and dephasing CSV tables (kHz), one row per order: the x, y
    and z modes in ascending mode number, COM dropped, and in the x zigzag's
    column its own shift and Omega_SI/2."""
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
    shifts, deph = out / "freq_shifts_khz.csv", out / "dephasing_rates_khz.csv"
    matio.write_csv(shifts, shift_header, shift_rows)
    matio.write_csv(deph, deph_header, deph_rows)
    return [shifts, deph]


def _write_spectrum_products(out: Path, grid, spec, proj1, proj3, peaks) -> list[Path]:
    names = (
        "signal_grid.bin", "spectrum.bin", "spectrum.csv",
        "projection_omega1.csv", "projection_omega3.csv", "peaks.csv",
    )
    paths = [out / name for name in names]
    grid_path, spec_path, csv_path, proj1_path, proj3_path, peaks_path = paths
    matio.write_matrix(grid_path, grid.values)
    matio.write_matrix(spec_path, spec.values)
    w1, w3 = np.meshgrid(spec.omega1, spec.omega3, indexing="ij")
    rows = np.column_stack([w1.ravel(), w3.ravel(), spec.magnitude.ravel()])
    matio.write_csv(csv_path, ["omega1_rad_s", "omega3_rad_s", "magnitude"], rows.tolist())
    for path, proj in ((proj1_path, proj1), (proj3_path, proj3)):
        matio.write_csv(
            path, ["omega_rad_s", "magnitude"],
            np.column_stack([proj.omega, proj.magnitude]).tolist(),
        )
    matio.write_csv(
        peaks_path,
        ["omega1_rad_s", "omega3_rad_s", "magnitude", "label"],
        [[pk.omega1, pk.omega3, pk.magnitude, pk.label] for pk in peaks],
    )
    return paths


def _apply_phase_noise(grid, signature, diffusion):
    """Pointwise analytic attenuation of the phase-cycled grid; build_config
    has already rejected a loss that would reach 1 and flip the sign."""
    t1, t3 = np.meshgrid(grid.t1, grid.t3, indexing="ij")
    loss = phasenoise.contrast_loss(signature, t1, t3, diffusion)
    return protocol.SignalGrid(t1=grid.t1, t3=grid.t3, values=grid.values * (1 - loss))


def _truncation(labels: tuple[str, ...], cfg: RunConfig) -> dict:
    """Thermal weight each mode keeps in its truncated Fock space; the
    initial state is renormalized over it."""
    return {
        "kept_weight": {
            label: fock.thermal_populations(nbar, dim)[1]
            for label, dim, nbar in zip(labels, cfg.dims, cfg.nbar)
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
    try:
        outputs = _dispatch(cfg, out, manifest)
        manifest["status"] = "ok"
    except Exception as exc:
        manifest["status"] = "error"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        manifest["wall_time_s"] = time.time() - started
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        raise
    manifest["wall_time_s"] = time.time() - started
    manifest["outputs"] = {p.name: _sha256(p) for p in outputs}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _dispatch(cfg: RunConfig, out: Path, manifest: dict) -> list[Path]:
    if cfg.scenario == "noise-table":
        rows = phasenoise.loss_table(
            t1=cfg.noise_t1_s,
            t3=cfg.noise_t3_s,
            diffusion=cfg.phase_noise_diffusion or phasenoise.DEFAULT_DIFFUSION,
            n_paths=cfg.mc_paths,
            seed=cfg.seed,
        )
        path = out / "noise_loss.csv"
        matio.write_csv(
            path,
            ["p2", "p3", "p4", "loss_analytic", "loss_mc"],
            [[r["p2"], r["p3"], r["p4"], r["loss"], r.get("loss_mc", "")] for r in rows],
        )
        manifest["derived"] = {"diffusion_rad2_s": cfg.phase_noise_diffusion or phasenoise.DEFAULT_DIFFUSION}
        return [path]

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
        derived["omega_si_hz"] = params.omega_si / (2 * np.pi)
        derived["delta_omega_zz_hz"] = params.delta_omega_zz / (2 * np.pi)
        manifest["regime"] = {
            "rwa_max_nonsecular_ratio": anharmonic.max_nonsecular_ratio(
                data.trap, data.modes, data.tensors
            )
        }
        if cfg.scenario == "tables":
            return _write_tables(out, params)

    seq = cfg.sequence()
    t_max = cfg.effective_t_max
    if cfg.scenario == "kerr":
        model = scenarios.kerr_model_from_params(
            params, dims=tuple(cfg.dims), nbar=tuple(cfg.nbar)
        )
        manifest["dissipation_free"] = True
        manifest["truncation"] = _truncation(model.full_register().labels, cfg)
        grid = scenarios.kerr_scan_fast(model, seq, t_max, cfg.dt_s)
        table_paths = _write_tables(out, params)
    else:  # resonance
        res = scenarios.resonance_parameters(data)
        derived["omega_t_hz"] = res.omega_t / (2 * np.pi)
        derived["detuning_hz"] = res.detuning / (2 * np.pi)
        rates = tuple(1e3 * r for r in cfg.heating_quanta_per_ms)
        manifest["dissipation_free"] = not any(rates)
        model = scenarios.resonance_model(
            res.omega_t, dims=tuple(cfg.dims), heating_quanta_per_s=rates
        )
        manifest["truncation"] = _truncation(model.register.labels, cfg)
        rho0 = scenarios.resonance_initial_state(tuple(cfg.dims), tuple(cfg.nbar))
        grid = protocol.scan(model, rho0, seq, t_max, cfg.dt_s)
        table_paths = []

    if cfg.phase_noise_diffusion > 0:
        grid = _apply_phase_noise(grid, cfg.signature, cfg.phase_noise_diffusion)

    spec = spectrum.fft2(
        grid, window=cfg.window, zero_pad=cfg.zero_pad, carrier_offset=-data.omega_zz
    )
    # the projections average the whole spectrum, so they are taken before the notch
    proj1 = spectrum.project_1d(spec, "omega1")
    proj3 = spectrum.project_1d(spec, "omega3")
    if cfg.baseline_notch:
        spec = spectrum.notch_carrier(spec)
    peaks = spectrum.find_peaks(spec, threshold=cfg.peak_threshold)
    if cfg.scenario == "resonance":
        scenarios.label_peaks(
            peaks,
            scenarios.predicted_resonance_peaks(data.omega_zz, res.omega_t),
            1.5 * spec.bin_width,
        )
    return table_paths + _write_spectrum_products(out, grid, spec, proj1, proj3, peaks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ionspec2d",
        description="2D phase-cycled spectroscopy simulations for ion Coulomb crystals",
    )
    parser.add_argument("--config", type=Path, help="JSON configuration file")
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--grid-scale", dest="grid_scale", type=float)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)

    raw: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(raw, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 2
    for key in ("scenario", "out_dir", "grid_scale", "threads", "seed"):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    if "scenario" not in raw:
        print("error: --scenario (or a config with one) is required", file=sys.stderr)
        return 2
    try:
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
