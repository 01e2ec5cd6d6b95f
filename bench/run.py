"""collapsesim benchmark: one workload per invocation, every metric by name.

    python3 bench/run.py --workload ensemble_c6 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  Set-up is timed in ``SETUP_RUNS`` fresh worker
processes (process start to model and initial state ready) and reported as
their median.  A further worker sets up once more and then runs the
workload's operation back to back for ``--seconds``, checking every output.

``setup_s`` and ``run_s`` are wall times brought to a nominal host speed:
each set-up and each operation is bracketed by timings of a fixed reference
computation (``hostspeed.py``), because load from outside the VM moves the
speed of everything in it.  The raw wall times are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: set-up workers run with layer wrappers installed, and the
measuring worker spends half of ``--seconds`` untraced and half traced, so
the tracing overhead and the bitwise equality of traced and untraced
outputs are measured in the same run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name each metric with its unit, the tail percentile of ``run_s`` and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREADS = 1  # the pinned BLAS pool
# Pinned before numpy loads, so that the host-speed reference timed in this
# process runs on one BLAS thread, as the workers (which inherit it) do.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from hostspeed import Reference  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_RUNS = 3
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ".bench_work"
# cli_demo's trajectory pool.  The steps hold the GIL for most of their time,
# so a second thread adds no speed on 2 cores, only scheduling noise.
POOL_THREADS = 1
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "pass_ratio": "1"}

# per-layer metric -> unit.  *_s are seconds per operation (set-up layers:
# per set-up), *_calls and counters are per operation.
RUN_LAYER_TIMES = {  # metric -> (span name, "total" or "self")
    "kernels.sample_noise_s": ("kernels.sample_noise", "total"),
    "engine.ensemble_mean_s": ("engine.ensemble_mean", "total"),
    "engine.combined_step_s": ("engine.combined_step", "total"),
    "engine.sse_step_s": ("engine.sse_step", "total"),
    "engine.run_trajectory_self_s": ("engine.run_trajectory", "self"),
    "models.advance_s": ("models.advance", "total"),
    "cli.cmd_run_self_s": ("cli.cmd_run", "self"),
    "analysis.decoherence_profile_s": ("analysis.decoherence_profile", "total"),
    "analysis.kappa_scan_s": ("analysis.kappa_scan", "total"),
}
RUN_LAYER_COUNTS = ("kernels.sample_noise_calls", "kernels.noise_values",
                    "engine.combined_step_calls", "engine.sse_step_calls",
                    "models.advance_calls", "engine.positivity_events", "cli.bytes_written")
SETUP_LAYER_TIMES = {
    "config.load_config_s": "config.load_config",
    "models.build_model_s": "models.build_model",
    "lattice.kinetic_hamiltonian_s": "lattice.kinetic_hamiltonian",
    "models.density_family_s": "models.density_family",
    "models.newton_family_s": "models.newton_family",
    "engine.MonitoringSpec_init_s": "engine.MonitoringSpec_init",
    "engine.FeedbackSpec_init_s": "engine.FeedbackSpec_init",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in RUN_LAYER_TIMES},
    **{name: "s" for name in SETUP_LAYER_TIMES},
    **{name: "count" for name in RUN_LAYER_COUNTS},
    "cli.bytes_written": "bytes",
    "models.model_bytes": "bytes",
    "proc.import_s": "s",
    "proc.cpu_s": "s",
    "bench.trace_overhead": "1",
    "bench.run_coverage": "1",
    "bench.setup_coverage": "1",
    "src.lines": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="'tiny' shrinks every workload for the benchmark's self-tests")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)  # carries the BLAS pinning
    env["COLLAPSE_SIM_THREADS"] = str(POOL_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(job: dict, env: dict, reference=None):
    """Start a worker; return (seconds from spawn to READY, spawn time, result,
    host-speed scale).  The scale is 1.0 without a ``reference``; with one, the
    reference is timed before the spawn and after the worker has ended."""
    ref_before = reference.time() if reference is not None else None
    spawn_wall = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(job)],
                            stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "READY" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {job['workload']} ({job['mode']}) exited with "
                           f"code {proc.returncode} before reporting")
    scale = 1.0 if reference is None else reference.scale(ref_before, reference.time())
    return ready_s, spawn_wall, json.loads(lines[-1]), scale


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_file = root / ".git" / ref[5:]
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args, env: dict) -> dict:
    from importlib import metadata

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": nproc(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            "COLLAPSE_SIM_THREADS": int(env["COLLAPSE_SIM_THREADS"]),
            "git_commit": git_commit(root), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "size": args.size}


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "collapsesim").glob("*.py")))


def median_of(records, fn):
    return statistics.median(fn(r) for r in records)


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_wall(rec) -> float:
    return rec["wall"] * rec["scale"]


def end_to_end(setups, measured, steps_per_op):
    ops = measured["untraced"]
    run_s = statistics.median(scaled_wall(r) for r in ops)
    passed = sum(not r["problems"] for r in ops)
    return {
        "setup_s": statistics.median(s[0] * s[3] for s in setups),
        "run_s": run_s,
        "steps_per_s": steps_per_op / run_s,
        "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        "pass_ratio": passed / len(ops),
    }


def per_layer(setups, measured, root):
    traced, untraced = measured["traced"], measured["untraced"]

    def op_time(rec, span, kind):
        return rec["layers"].get(span, {}).get(kind, 0.0)

    def coverage(rec):
        main = rec["main_thread"]
        op = main["bench.op"]["total"]
        return sum(v["self"] for k, v in main.items() if k != "bench.op") / op

    out = {name: median_of(traced, lambda r: op_time(r, span, kind))
           for name, (span, kind) in RUN_LAYER_TIMES.items()}
    out.update({name: median_of(traced, lambda r: r["counts"].get(name, 0))
                for name in RUN_LAYER_COUNTS})
    out["proc.cpu_s"] = median_of(untraced, lambda r: r["cpu"])
    out["bench.trace_overhead"] = (median_of(traced, scaled_wall)
                                   / median_of(untraced, scaled_wall) - 1.0)
    out["bench.run_coverage"] = median_of(traced, coverage)

    setup_results = [s[2] for s in setups]
    out.update({name: median_of(setup_results, lambda r: r["layers"].get(span, {}).get("total", 0.0))
                for name, span in SETUP_LAYER_TIMES.items()})
    out["proc.import_s"] = median_of(setup_results, lambda r: r["import_s"])
    out["models.model_bytes"] = measured["model_bytes"]
    out["bench.setup_coverage"] = statistics.median(
        (r["t_start"] - spawn + r["import_s"] + sum(v["self"] for v in r["layers"].values()))
        / ready for ready, spawn, r, _ in setups)
    out["src.lines"] = src_lines(root)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "collapsesim" / "__init__.py").is_file():
        print("error: run from the root of a collapsesim checkout (src/collapsesim not found)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.yaml"
    workload.write_config(args.seed, args.size, config_path)

    env = child_env(root)
    job = {"workload": args.workload, "seed": args.seed, "size": args.size,
           "seconds": args.seconds, "trace": args.trace, "config": str(config_path),
           "src": str(root / "src")}
    reference = Reference(workload.setup_reference)
    try:
        setups = [run_worker({**job, "mode": "setup"}, env, reference)
                  for _ in range(SETUP_RUNS)]
        _, _, measured, _ = run_worker({**job, "mode": "measure"}, env)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        reference.close()
        shutil.rmtree(work, ignore_errors=True)

    ops = measured["untraced"] + measured.get("traced", [])
    failed = [r for r in ops if r["problems"]]
    steps_per_op = measured["steps_per_op"]

    print(f"# environment {json.dumps(environment(root, args, env))}")
    for r in failed[:5]:
        print(f"# failed operation: {' | '.join(r['problems'])}")
    untraced = measured["untraced"]
    walls = [scaled_wall(r) for r in untraced]
    print(f"# run_s samples: {len(walls)} operations, {steps_per_op} trajectory-steps each: "
          + " ".join(f"{w:.6g}" for w in walls))
    print(f"# run_s median {statistics.median(walls):.6g} s ({len(walls)} samples); "
          f"unscaled wall median {median_of(untraced, lambda r: r['wall']):.6g} s, "
          f"host-speed scale median {median_of(untraced, lambda r: r['scale']):.4f}")
    t = tail(walls)
    if t is None:
        print(f"# run_s tail: fewer than 20 operations; max {max(walls):.6g} s")
    else:
        print(f"# run_s_p{t[0]} {t[1]:.6g} s ({len(walls)} samples, >= 10 beyond)")
    print(f"# setup_s samples: {' '.join(f'{s[0] * s[3]:.4f}' for s in setups)} s; "
          f"unscaled {' '.join(f'{s[0]:.4f}' for s in setups)} s")

    if args.trace:
        values, units = per_layer(setups, measured, root), PER_LAYER_UNITS
    else:
        values, units = end_to_end(setups, measured, steps_per_op), END_TO_END_UNITS
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
