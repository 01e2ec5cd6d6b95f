"""Batch front end: structured config in, seeded runs, CSV/JSON out.

Subcommands::

    collapse-sim run            --config run.yaml [--seed N] [--out DIR]
    collapse-sim analyze rate   --config run.yaml [--out DIR]
    collapse-sim analyze pair-potential | kappa-scan | linearity ...
    collapse-sim presets        [--json]

Exit codes: 0 success, 2 invalid configuration or an unusable --out, 3
numerical guard tripped.  --out is made before any computation, so a run
that trips a guard leaves it empty.  CSV files carry a header row with
units and 17 significant digits, every row ending in CRLF, so a (config,
seed) pair reproduces them byte for byte.  The JSON summary echoes the
configuration as the file gives it, defaults not filled in; its timing
fields (wall_time_s, build_s, run_s, write_s and steps_per_s) are the
values excluded from the byte-reproducibility contract.  The trajectories
of an ensemble are stepped together in one batch (engine.run_ensemble);
trajectory i depends only on the config and on seed + i.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import analysis
from .config import (ConfigError, RunConfig, build_initial_state, load_config,
                     single_particle_state)
# run_trajectory is not called here; bench/spans.py looks it up as cli.run_trajectory
from .engine import run_ensemble, run_trajectory  # noqa: F401
from .lattice import GuardError
from .models import (LATTICE_MAPPING_FORMULA, MONITORED_KINDS, PRESETS, build_model,
                     preset_lattice_values)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3

ATOMIC_MASS_KG = 1.66053906892e-27


def _write_csv(path: Path, header: list[str], columns) -> None:
    """The one CSV writer: a header row, then the columns side by side, each
    float with 17 significant digits, every row ending in CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack(columns).reshape(-1, len(header)), fmt="%.17g",
                   delimiter=",", header=",".join(header), comments="", newline="\r\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=float)
        fh.write("\n")


def _trajectory_columns(cfg: RunConfig, rec):
    header = ["t (lattice time)", "trace (1)", "purity (1)"]
    header += [f"x{n} (length)" for n in range(cfg.spec.particles.count)]
    header += [f"abs_rho_{x}_{y} (1)" for x, y in cfg.offdiagonal_pairs]
    header += [f"signal_site{s} (mass/volume)" for s in cfg.signal_sites]
    columns = [rec.times, rec.trace, rec.purity, rec.positions]
    if rec.offdiagonals is not None:
        columns.append(rec.offdiagonals)
    if rec.signals is not None:
        columns.append(rec.signals[:, cfg.signal_sites])
    return header, columns


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.snapshot_every:  # run_ensemble would hold state copies that no file receives
        raise ConfigError([f"output.snapshot_every: collapse-sim run writes no snapshots, "
                           f"so it must be 0; got {cfg.snapshot_every}"])
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before the run
    t0 = time.perf_counter()
    model = build_model(cfg.spec)
    psi = build_initial_state(cfg)
    if cfg.representation == "pure":
        initial = psi
    else:
        initial = np.outer(psi, psi.conj())
    unconditional = cfg.representation == "mean"
    seeds = [cfg.seed + i for i in range(cfg.ensemble)]
    t_run = time.perf_counter()
    records = run_ensemble(initial, model, cfg.dt, cfg.steps, seeds,
                           record_every=cfg.record_every,
                           record_signal=bool(cfg.signal_sites),
                           offdiagonal_pairs=cfg.offdiagonal_pairs,
                           unconditional=unconditional)
    t_write = time.perf_counter()
    diagnostics = []
    for i, rec in enumerate(records):
        _write_csv(out_dir / f"trajectory_{i:04d}.csv", *_trajectory_columns(cfg, rec))
        diagnostics.append({
            "seed": rec.seed,
            "final_trace": rec.trace[-1],
            "final_purity": rec.purity[-1],
            "min_eigenvalue": (None if rec.min_eigenvalue is None
                               else float(rec.min_eigenvalue.min())),
            "positivity_events": len(rec.positivity_warnings),
        })
    t_end = time.perf_counter()
    summary = {
        "config": cfg.raw,
        "seeds": seeds,
        "trajectories": diagnostics,
        "wall_time_s": t_end - t0,
        "build_s": t_run - t0,  # model and initial state
        "run_s": t_write - t_run,
        "write_s": t_end - t_write,  # trajectory CSVs
        "steps_per_s": cfg.ensemble * cfg.steps / (t_write - t_run),
    }
    _write_json(out_dir / "summary.json", summary)
    return EXIT_OK


def _require_rate_model(cfg: RunConfig, what: str) -> None:
    """Closed-form rates need one monitored particle (see decoherence_profile)."""
    if cfg.spec.particles.count != 1 or cfg.spec.kind not in MONITORED_KINDS:
        raise ConfigError([f"analyze {what} needs one particle and a monitored model kind "
                           f"({', '.join(MONITORED_KINDS)}); the config has "
                           f"{cfg.spec.particles.count} particles, kind {cfg.spec.kind!r}"])


def _analyze_rate(cfg: RunConfig, out_dir: Path) -> int:
    _require_rate_model(cfg, "rate")
    block = cfg.analyze["rate"]
    prof = analysis.decoherence_profile(cfg.spec, block["separations"], axis=block["axis"])
    _write_csv(out_dir / "rate.csv",
               ["d (length)", "rate_intrinsic (1/time)",
                "rate_backaction (1/time)", "rate_total (1/time)"],
               [prof.separations, prof.intrinsic, prof.backaction, prof.total])
    return EXIT_OK


def _analyze_pair_potential(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.spec.particles.count != 2:
        raise ConfigError([f"analyze pair-potential needs exactly two particles; "
                           f"the config has {cfg.spec.particles.count}"])
    block = cfg.analyze["pair_potential"]
    rows = analysis.pair_potential_curve(cfg.spec, block["separations"], axis=block["axis"])
    _write_csv(out_dir / "pair_potential.csv",
               ["d (length)", "V_inter (energy)", "V_corrected (energy)",
                "newton_ratio (1)"],
               [np.array([(r.separation, r.potential, r.corrected, r.newton_ratio)
                          for r in rows])])
    return EXIT_OK


def _analyze_kappa_scan(cfg: RunConfig, out_dir: Path) -> int:
    _require_rate_model(cfg, "kappa-scan")
    if cfg.spec.kind == "csl":
        import logging  # on first use: only a csl scan has something to log
        logging.getLogger("collapsesim").warning(
            "analyze kappa-scan: only the dp kernel reads kappa, so on kind csl every "
            "rate_total in kappa_scan.csv is the same and is_minimum flags the first kappa")
    block = cfg.analyze["kappa_scan"]
    rows, best = analysis.kappa_scan(cfg.spec, block["kappas"], block["separation"],
                                     axis=block["axis"])
    _write_csv(out_dir / "kappa_scan.csv",
               ["kappa (1)", "rate_total (1/time)", "is_minimum (0/1)"],
               [np.array([(k, r, 1.0 if k == best else 0.0) for k, r in rows])])
    return EXIT_OK


def _analyze_linearity(cfg: RunConfig, out_dir: Path) -> int:
    t, samples = cfg.analyze["linearity"]["time"], cfg.analyze["linearity"]["samples"]
    init, n = cfg.initial[0], cfg.spec.particles.count
    if n != 1 or init.get("type") != "cat":
        raise ConfigError([f"analyze linearity needs one particle in a cat initial state; the "
                           f"config has {n} particles, particle 0 {init.get('type')!r}"])
    if int(round(t / cfg.dt)) < 1:
        raise ConfigError([f"analyze linearity needs a time of at least one step (dt = "
                           f"{cfg.dt:g}); got time {t:g}"])
    model = build_model(cfg.spec)
    grid = cfg.spec.grid
    a = single_particle_state(grid, {"type": "gaussian", "center": init["centers"][0],
                                     "width": init.get("width", 1.0)})
    b = single_particle_state(grid, {"type": "gaussian", "center": init["centers"][1],
                                     "width": init.get("width", 1.0)})
    report = analysis.linearity_witness(model, *analysis.cat_ensembles(a, b), t, cfg.dt,
                                        n_samples=samples, seed0=cfg.seed)
    out = {"trace_distance": float(report.distance),
           "tolerance": float(report.tolerance), "linear": bool(report.linear),
           "time": report.time, "samples": samples,
           "model_kind": cfg.spec.kind}
    _write_json(out_dir / "linearity.json", out)
    return EXIT_OK


def cmd_analyze(subcommand: str, cfg: RunConfig, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    handlers = {
        "rate": _analyze_rate,
        "pair-potential": _analyze_pair_potential,
        "kappa-scan": _analyze_kappa_scan,
        "linearity": _analyze_linearity,
    }
    return handlers[subcommand](cfg, out_dir)


def cmd_presets(as_json: bool) -> int:
    payload = {"presets": {}, "lattice_mapping": LATTICE_MAPPING_FORMULA}
    for key, preset in PRESETS.items():
        entry = dict(preset)
        entry["lattice_example"] = preset_lattice_values(
            preset, length_m=preset["sigma_m"], mass_kg=ATOMIC_MASS_KG)
        payload["presets"][key] = entry
    if as_json:
        print(json.dumps(payload, indent=2, default=float))
        return EXIT_OK
    for key, entry in payload["presets"].items():
        print(f"{key}: {entry['description']}")
        print(f"  sigma = {entry['sigma_m']:g} m")
        if entry["gamma_over_hbar2_si"] is not None:
            print(f"  gamma/hbar^2 = {entry['gamma_over_hbar2_si']:g} m^3 kg^-2 s^-1"
                  f"  ({entry['gamma_note']})")
        else:
            print(f"  {entry['gamma_note']}")
        if entry["kappa"] is not None:
            print(f"  kappa = {entry['kappa']:g}")
        print(f"  G = {entry['G_si']:g} m^3 kg^-1 s^-2")
        ex = entry["lattice_example"]
        print(f"  lattice example (ell = sigma, mu = 1 u): tau = {ex['time_unit_s']:.6g} s, "
              f"sigma_lat = {ex['sigma_lattice']:g}, G_lat = {ex['G_lattice']:.6g}")
    print(f"\nlattice mapping: {LATTICE_MAPPING_FORMULA}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="collapse-sim",
                                     description="monitored-gravity lattice runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate seeded trajectories")
    p_an = sub.add_parser("analyze", help="closed-form observables")
    p_an.add_argument("what", choices=["rate", "pair-potential", "kappa-scan", "linearity"])
    for p in (p_run, p_an):
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    p_pre = sub.add_parser("presets", help="physical parameter presets")
    p_pre.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "presets":
        return cmd_presets(args.json)
    try:
        cfg = load_config(args.config)
        if args.seed is not None and args.seed < 0:
            raise ConfigError([f"--seed: must be a nonnegative integer; got {args.seed}"])
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        cfg.seed = args.seed
    out_dir = Path(args.out)
    try:
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        return cmd_analyze(args.what, cfg, out_dir)
    except (ConfigError, OSError) as exc:  # OSError: an unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
