"""Run configuration: YAML schema, validation and initial state builders.

A run file is a single YAML document with nested sections::

    grid:         {dims: [16], spacing: 1.0}
    particles:    list of {mass, kinetic, initial: {type: gaussian|cat, ...}}
    model:        {kind, sigma, gamma, kappa, G, feedback_smearing, kernel_kind}
    integration:  {dt, steps, ensemble, seed, representation}
    output:       {record_every, offdiagonal_pairs, signal_sites, snapshot_every}
    analyze:      per-subcommand parameter blocks (see cli)

Gaussian packets are specified by center/width/momentum per axis (lattice
units); cat states by two centers sharing one width.  All validation errors
are collected and reported together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import yaml

from .lattice import LatticeGrid, ParticleSet
from .models import MODEL_KINDS, MONITORED_KINDS, ModelSpec

# libyaml's parser when PyYAML has it: yaml.SafeLoader's constructors, 7x faster
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Invalid run configuration; .errors lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass
class RunConfig:
    spec: ModelSpec
    initial: list  # per-particle initial-state dicts
    dt: float
    steps: int
    ensemble: int
    seed: int
    representation: str  # 'density' or 'pure'
    record_every: int = 1
    offdiagonal_pairs: list = field(default_factory=list)
    signal_sites: list = field(default_factory=list)
    snapshot_every: int = 0
    analyze: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def parse_config(data: dict) -> RunConfig:
    errors = []
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a mapping"])

    gsec = data.get("grid")
    grid = None
    if not isinstance(gsec, dict) or "dims" not in gsec:
        errors.append("grid: section with 'dims' is required")
    else:
        try:
            grid = LatticeGrid(gsec["dims"], gsec.get("spacing", 1.0))
        except (ValueError, TypeError) as exc:
            errors.append(f"grid: {exc}")

    psec = data.get("particles")
    particles = None
    initial = []
    if not isinstance(psec, list) or not psec:
        errors.append("particles: non-empty list is required")
    else:
        masses, kin = [], []
        for i, p in enumerate(psec):
            if not isinstance(p, dict):
                errors.append(f"particles[{i}]: must be a mapping")
                continue
            m = p.get("mass", 1.0)
            if not isinstance(m, (int, float)) or m <= 0:
                errors.append(f"particles[{i}].mass: must be a positive number")
                m = 1.0
            masses.append(float(m))
            kin.append(bool(p.get("kinetic", True)))
            init = p.get("initial")
            if not isinstance(init, dict) or init.get("type") not in ("gaussian", "cat"):
                errors.append(f"particles[{i}].initial: type must be 'gaussian' or 'cat'")
                init = {"type": "gaussian", "center": [0.0], "width": 1.0}
            initial.append(init)
        try:
            particles = ParticleSet(masses, kinetic=kin)
        except ValueError as exc:
            errors.append(f"particles: {exc}")

    msec = data.get("model")
    spec = None
    if not isinstance(msec, dict) or msec.get("kind") not in MODEL_KINDS:
        errors.append(f"model.kind: must be one of {MODEL_KINDS}")
    elif grid is not None and particles is not None:
        for key in ("sigma", "gamma", "kappa", "G"):
            v = msec.get(key)
            if v is not None and (not isinstance(v, (int, float)) or v < 0):
                errors.append(f"model.{key}: must be a nonnegative number")
        try:
            spec = ModelSpec(
                kind=msec["kind"], grid=grid, particles=particles,
                sigma=float(msec.get("sigma", 1.0)),
                gamma=float(msec.get("gamma", 1.0)),
                kappa=float(msec.get("kappa", 2.0)),
                G=float(msec.get("G", 1.0)),
                feedback_smearing=msec.get("feedback_smearing"),
                kernel_kind=msec.get("kernel_kind"))
        except ValueError as exc:
            errors.append(f"model: {exc}")

    isec = data.get("integration", {})
    if not isinstance(isec, dict):
        errors.append("integration: must be a mapping")
        isec = {}
    dt = isec.get("dt", 1e-3)
    steps = isec.get("steps", 100)
    ensemble = isec.get("ensemble", 1)
    seed = isec.get("seed", 0)
    representation = isec.get("representation")
    if not isinstance(dt, (int, float)) or dt <= 0:
        errors.append("integration.dt: must be a positive number")
        dt = 1e-3
    if not isinstance(steps, int) or steps < 1:
        errors.append("integration.steps: must be a positive integer")
        steps = 1
    if not isinstance(ensemble, int) or ensemble < 1:
        errors.append("integration.ensemble: must be >= 1")
        ensemble = 1
    if not isinstance(seed, int):
        errors.append("integration.seed: must be an integer")
        seed = 0
    kind = None if spec is None else spec.kind
    if representation is None:
        representation = "pure" if kind == "sn" else "density"
    if representation not in ("density", "pure", "mean"):
        errors.append("integration.representation: must be 'density', 'pure' or 'mean'")
        representation = "density"
    if kind == "sn" and representation == "mean":
        errors.append("integration.representation: the mean-field baseline has no "
                      "noise to average; use 'pure'")
    elif kind == "sn" and representation != "pure":
        errors.append("integration.representation: the mean-field baseline needs 'pure'")

    osec = data.get("output", {})
    if not isinstance(osec, dict):
        errors.append("output: must be a mapping")
        osec = {}
    record_every = osec.get("record_every", 1)
    if not isinstance(record_every, int) or record_every < 1:
        errors.append("output.record_every: must be a positive integer")
        record_every = 1
    pairs = osec.get("offdiagonal_pairs", [])
    if grid is not None and particles is not None:
        ncfg = grid.n_sites ** particles.count
        for pr in pairs:
            if (not isinstance(pr, (list, tuple)) or len(pr) != 2
                    or not all(isinstance(v, int) and 0 <= v < ncfg for v in pr)):
                errors.append(f"output.offdiagonal_pairs: bad entry {pr!r}")
        for s in osec.get("signal_sites", []):
            if not isinstance(s, int) or not (0 <= s < grid.n_sites):
                errors.append(f"output.signal_sites: bad site {s!r}")
    if osec.get("signal_sites") and kind is not None and kind not in MONITORED_KINDS:
        errors.append(f"output.signal_sites: model kind {kind!r} records no signal; "
                      f"only {MONITORED_KINDS} are monitored")
    snapshot_every = osec.get("snapshot_every", 0)
    if not isinstance(snapshot_every, int) or snapshot_every < 0:
        errors.append("output.snapshot_every: must be a nonnegative integer")
        snapshot_every = 0

    asec = data.get("analyze", {})
    if asec is None:
        asec = {}
    if not isinstance(asec, dict):
        errors.append("analyze: must be a mapping")
        asec = {}

    if errors:
        raise ConfigError(errors)
    return RunConfig(spec=spec, initial=initial, dt=float(dt), steps=steps,
                     ensemble=ensemble, seed=seed, representation=representation,
                     record_every=record_every, offdiagonal_pairs=list(pairs),
                     signal_sites=list(osec.get("signal_sites", [])),
                     snapshot_every=snapshot_every, analyze=asec, raw=data)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.load(fh, Loader=SAFE_LOADER)
    return parse_config(data)


def _packet(grid: LatticeGrid, center, width, momentum=None) -> np.ndarray:
    """Periodic Gaussian packet on the grid (unnormalized)."""
    center = np.broadcast_to(np.asarray(center, float), (grid.ndim,))
    if momentum is None:
        momentum = np.zeros(grid.ndim)
    momentum = np.broadcast_to(np.asarray(momentum, float), (grid.ndim,))
    psi = np.ones(grid.dims, complex)
    for ax, coords in enumerate(grid.axis_coordinates):
        d = grid.minimal_image(coords - center[ax], ax)
        psi = psi * np.exp(-d**2 / (4.0 * width**2) + 1j * momentum[ax] * coords).reshape(
            (1,) * ax + (-1,) + (1,) * (grid.ndim - ax - 1))
    return psi.reshape(-1)


def single_particle_state(grid: LatticeGrid, init: dict) -> np.ndarray:
    """Normalized one-particle state from an 'initial' config block."""
    width = float(init.get("width", 1.0))
    if width <= 0:
        raise ConfigError(["initial.width must be positive"])
    if init["type"] == "gaussian":
        psi = _packet(grid, init.get("center", [0.0]), width, init.get("momentum"))
    else:  # cat
        centers = init.get("centers")
        if not isinstance(centers, (list, tuple)) or len(centers) != 2:
            raise ConfigError(["initial.centers: cat states need exactly two centers"])
        phase = float(init.get("relative_phase", 0.0))
        psi = (_packet(grid, centers[0], width, init.get("momentum"))
               + np.exp(1j * phase) * _packet(grid, centers[1], width, init.get("momentum")))
    nrm = np.linalg.norm(psi)
    if nrm == 0:
        raise ConfigError(["initial state has zero norm"])
    return psi / nrm


def build_initial_state(cfg: RunConfig) -> np.ndarray:
    """Joint pure state: product of the per-particle packets."""
    grid = cfg.spec.grid
    psi = None
    for init in cfg.initial:
        one = single_particle_state(grid, init)
        psi = one if psi is None else np.outer(psi, one).ravel()
    return psi
