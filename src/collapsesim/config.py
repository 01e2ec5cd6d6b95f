"""Run configuration: YAML schema, validation and initial state builders.

A run file is a single YAML document with nested sections::

    grid:         {dims: [16], spacing: 1.0}
    particles:    list of {mass, kinetic, initial: {type: gaussian|cat, ...}}
    model:        {kind: csl|dp|sn|pair, sigma, gamma, kappa, G, feedback_smearing}
    integration:  {dt, steps, ensemble, seed, representation}
    output:       {record_every, offdiagonal_pairs, signal_sites, snapshot_every}
    analyze:      per-subcommand parameter blocks, resolved with their defaults

Gaussian packets are specified by center/width/momentum per axis (lattice
units); cat states by two centers sharing one width.  Unknown keys are
errors too, and all errors are collected and reported together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    record_every: int
    offdiagonal_pairs: list
    signal_sites: list
    snapshot_every: int
    analyze: dict  # every analyze block, its values checked and defaulted
    raw: dict


def number(value, kind=float):
    """value as kind if it is a finite int or float, not a boolean, and whole
    for kind int; else None.  The one number check of run and analyze keys."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = kind(value)
    except (ValueError, OverflowError):  # int of nan or inf, float of a huge int
        return None
    return x if -math.inf < x < math.inf and x == value else None


def _vector(value, kind=float, length=None):
    """value, a number or a list of them, as a list of kind if every entry
    passes number and there are 1 or length (None: any count > 0); else None."""
    out = [number(v, kind) for v in (value if isinstance(value, (list, tuple)) else [value])]
    return out if out and None not in out and len(out) in (1, length or len(out)) else None


def parse_config(data: dict) -> RunConfig:
    errors = []

    def mapping(value, where, keys):
        """value if it is a mapping, else None; an error names a value that is
        no mapping, and each of its keys outside keys ("" where: top level)."""
        if not isinstance(value, dict):
            errors.append(f"{where or 'top level'}: must be a mapping; got {value!r}")
            return None
        errors.extend(f"{where + '.' if where else ''}{key}: unknown key; known keys are "
                      f"{', '.join(keys)}" for key in value if key not in keys)
        return value

    if mapping(data, "", ("grid", "particles", "model", "integration", "output",
                          "analyze")) is None:
        raise ConfigError(errors)

    def num(value, where, rule, ok=lambda x: x > 0, kind=float, fallback=1):
        """number(value, kind) if ok holds; else fallback and an error naming key and value."""
        x = number(value, kind)
        if x is None or not ok(x):
            errors.append(f"{where}: must be {rule}; got {value!r}")
            return fallback
        return x

    def flag(value, where, null=False):
        """value if it is a YAML boolean, or null where allowed; else None and an error."""
        if isinstance(value, bool) or (null and value is None):
            return value
        errors.append(f"{where}: must be true or false; got {value!r}")

    gsec = mapping(data.get("grid", {}), "grid", ("dims", "spacing")) or {}
    grid = None
    if "dims" not in gsec:
        errors.append("grid: section with 'dims' is required")
    else:
        dims = _vector(gsec["dims"], int)
        spacing = _vector(gsec.get("spacing", 1.0), float, None if dims is None else len(dims))
        if dims is None or spacing is None:
            key = "dims" if dims is None else "spacing"
            rule = "whole numbers" if dims is None else "one number, or one per axis"
            errors.append(f"grid.{key}: must be {rule}; got {gsec[key]!r}")
        else:
            try:
                grid = LatticeGrid(dims, spacing)
            except ValueError as exc:
                errors.append(f"grid: {exc}")

    psec = data.get("particles")
    particles = None
    initial = []
    if not isinstance(psec, list) or not psec:
        errors.append("particles: non-empty list is required")
    else:
        masses, kin = [], []
        for i, p in enumerate(psec):
            if mapping(p, f"particles[{i}]", ("mass", "kinetic", "initial")) is None:
                continue
            masses.append(num(p.get("mass", 1.0), f"particles[{i}].mass", "a positive number"))
            kin.append(flag(p.get("kinetic", True), f"particles[{i}].kinetic"))
            where = f"particles[{i}].initial"
            init = mapping(p.get("initial", {}), where, ("type", "center", "centers", "width",
                                                         "momentum", "relative_phase")) or {}
            if init.get("type") not in ("gaussian", "cat"):
                errors.append(f"{where}: type must be 'gaussian' or 'cat'")
                init = {"type": "gaussian", "center": [0.0], "width": 1.0}
            else:
                num(init.get("width", 1.0), f"{where}.width", "a positive number")
                num(init.get("relative_phase", 0.0), f"{where}.relative_phase", "a number",
                    lambda x: True)
                cat = init["type"] == "cat"
                centers = init.get("centers") if cat else [init.get("center", [0.0])]
                if cat and (not isinstance(centers, (list, tuple)) or len(centers) != 2):
                    errors.append(f"{where}.centers: cat states need exactly two centers")
                    centers = []
                momentum = [] if init.get("momentum") is None else [("momentum", init["momentum"])]
                for key, v in [("centers" if cat else "center", c) for c in centers] + momentum:
                    if _vector(v, float, None if grid is None else grid.ndim) is None:
                        errors.append(f"{where}.{key}: must be one number, or one per grid "
                                      f"axis; got {v!r}")
            initial.append(init)
        try:
            particles = ParticleSet(masses, kinetic=kin)
        except ValueError as exc:
            errors.append(f"particles: {exc}")

    msec = mapping(data.get("model", {}), "model", ("kind", "sigma", "gamma", "kappa", "G",
                                                    "feedback_smearing")) or {}
    spec = None
    kind = msec.get("kind")
    if kind not in MODEL_KINDS:
        errors.append(f"model.kind: must be one of {MODEL_KINDS}")
    elif grid is not None and particles is not None:
        values = {key: num(msec[key], f"model.{key}", "a nonnegative number", lambda x: x >= 0)
                  for key in ("sigma", "gamma", "kappa", "G") if key in msec}
        try:
            spec = ModelSpec(kind=kind, grid=grid, particles=particles, **values,
                             feedback_smearing=flag(msec.get("feedback_smearing"),
                                                    "model.feedback_smearing", null=True))
        except ValueError as exc:
            errors.append(f"model: {exc}")

    isec = mapping(data.get("integration", {}), "integration",
                   ("dt", "steps", "ensemble", "seed", "representation")) or {}
    dt = num(isec.get("dt", 1e-3), "integration.dt", "a positive number", fallback=1e-3)
    steps = num(isec.get("steps", 100), "integration.steps", "a positive integer", kind=int)
    ensemble = num(isec.get("ensemble", 1), "integration.ensemble", "an integer >= 1", kind=int)
    seed = num(isec.get("seed", 0), "integration.seed", "a nonnegative integer",
               lambda x: x >= 0, int, 0)
    representation = isec.get("representation")
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

    osec = mapping(data.get("output", {}), "output", ("record_every", "offdiagonal_pairs",
                                                      "signal_sites", "snapshot_every")) or {}
    record_every = num(osec.get("record_every", 1), "output.record_every",
                       "a positive integer", kind=int)
    pairs, sites = osec.get("offdiagonal_pairs", []), osec.get("signal_sites", [])
    for key, value in (("offdiagonal_pairs", pairs), ("signal_sites", sites)):
        if not isinstance(value, list):
            errors.append(f"output.{key}: must be a list; got {value!r}")
    pairs, sites = (v if isinstance(v, list) else [] for v in (pairs, sites))
    if grid is not None and particles is not None:
        ncfg = grid.n_sites ** particles.count
        for pr in pairs:
            if (not isinstance(pr, (list, tuple)) or len(pr) != 2
                    or not all(number(v, int) is not None and 0 <= v < ncfg for v in pr)):
                errors.append(f"output.offdiagonal_pairs: bad entry {pr!r}")
        for s in sites:
            if number(s, int) is None or not (0 <= s < grid.n_sites):
                errors.append(f"output.signal_sites: bad site {s!r}")
    if sites and kind is not None and kind not in MONITORED_KINDS:
        errors.append(f"output.signal_sites: model kind {kind!r} records no signal; "
                      f"only {MONITORED_KINDS} are monitored")
    snapshot_every = num(osec.get("snapshot_every", 0), "output.snapshot_every",
                         "a nonnegative integer", lambda x: x >= 0, int, 0)

    blocks = {"rate": ("separations", "axis"),
              "pair_potential": ("separations", "axis"),
              "kappa_scan": ("kappas", "separation", "axis"), "linearity": ("time", "samples")}
    asec = data.get("analyze")
    asec = mapping({} if asec is None else asec, "analyze", tuple(blocks)) or {}
    rate, pair, scan, lin = (mapping(asec.get(key, {}), f"analyze.{key}", keys) or {}
                             for key, keys in blocks.items())
    analyze = {}
    if grid is not None:
        def along(block, key):
            """The block's axis (default 0), its site count n and the rule for a site on it."""
            ax = num(block.get("axis", 0), f"analyze.{key}.axis",
                     f"an axis in 0..{grid.ndim - 1} of this {grid.ndim}-d grid",
                     lambda x: 0 <= x < grid.ndim, int, 0)
            return ax, grid.dims[ax], f"in 0..{grid.dims[ax] - 1} sites along axis {ax}"

        def separations(block, key, default):
            """The block's axis and its separations (default(n)), whole and inside the grid."""
            ax, n, rule = along(block, key)
            value = block.get("separations", default(n))
            out = (_vector(value, int) if value else []) if isinstance(value, list) else None
            if out is None or not all(0 <= d < n for d in out):
                errors.append(f"analyze.{key}.separations: must be a list of whole numbers "
                              f"{rule}; got {value!r}")
            return {"axis": ax, "separations": out}

        analyze["rate"] = separations(rate, "rate", lambda n: list(range(0, max(2, n // 4 + 1))))
        analyze["pair_potential"] = separations(pair, "pair_potential",
                                                lambda n: list(range(1, n // 2 + 1)))
        kappas = scan.get("kappas", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
        listed = _vector(kappas) if isinstance(kappas, list) else None
        if listed is None or min(listed) <= 0:
            errors.append(f"analyze.kappa_scan.kappas: must be a non-empty list of positive "
                          f"numbers; got {kappas!r}")
        ax, n, rule = along(scan, "kappa_scan")
        analyze["kappa_scan"] = {"axis": ax, "kappas": listed, "separation": num(
            scan.get("separation", min(3, n - 1)), "analyze.kappa_scan.separation",
            f"a whole number {rule}", lambda x: 0 <= x < n, int, 0)}
    analyze["linearity"] = {
        "time": num(lin.get("time", 0.2), "analyze.linearity.time", "a positive number"),
        "samples": num(lin.get("samples", 200), "analyze.linearity.samples",
                       "a positive integer", kind=int)}

    if errors:
        raise ConfigError(errors)
    return RunConfig(spec=spec, initial=initial, dt=dt, steps=steps,
                     ensemble=ensemble, seed=seed, representation=representation,
                     record_every=record_every,
                     offdiagonal_pairs=[[int(v) for v in pr] for pr in pairs],
                     signal_sites=[int(s) for s in sites],
                     snapshot_every=snapshot_every, analyze=analyze, raw=data)


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
    """Normalized one-particle state from an 'initial' config block, as
    parse_config checks it."""
    width = float(init.get("width", 1.0))
    if init["type"] == "gaussian":
        psi = _packet(grid, init.get("center", [0.0]), width, init.get("momentum"))
    else:  # cat
        centers = init["centers"]
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
