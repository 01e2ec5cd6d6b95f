"""The four benchmark workloads: inputs, one operation, and output checks.

Each workload's inputs are a run configuration written from ``--seed``;
the program only ever sees that file (and, for ``ensemble_c6``, the seed
block of each operation).  ``write_config`` runs in the orchestrating
process and needs only PyYAML; everything else runs in a worker process
that imports collapsesim from the checkout's ``src``.

Operation outputs are dicts of arrays, bytes and numbers.  ``fingerprint``
hashes them bit for bit, so repeated operations on the same input, and the
traced and untraced runs of one operation, can be compared exactly.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEMO_CONFIG = BENCH_DIR / "run_config.yaml"  # byte copy of demos/run_config.yaml
CLI_DIGESTS = BENCH_DIR / "cli_demo_sha256.json"

SIZES = ("full", "tiny")


def fingerprint(output: dict) -> str:
    """SHA-256 over every value of an operation output, bit for bit."""
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(output):
        value = output[key]
        h.update(key.encode())
        if isinstance(value, bytes):
            h.update(value)
        else:
            arr = np.ascontiguousarray(value)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def trajectory_csv_digest(files: dict) -> str:
    """SHA-256 of the trajectory CSVs of one ``run``, concatenated in order."""
    h = hashlib.sha256()
    for name in sorted(files):
        if name.startswith("trajectory_"):
            h.update(files[name])
    return h.hexdigest()


class State:
    """Everything set-up leaves for the operations of one workload."""

    def __init__(self, config_path: Path, cfg, model, initial):
        self.config_path = config_path
        self.cfg = cfg
        self.model = model
        self.initial = initial
        self.first_output: dict[int, dict] = {}  # input key -> first output seen
        self.first_digest: dict[int, str] = {}


class Workload:
    name = ""
    # The hostspeed.Reference kinds that track this workload's operations
    # and its set-up.
    reference = "interp"
    setup_reference = "interp"

    def config(self, seed: int, size: str) -> dict:
        raise NotImplementedError

    def write_config(self, seed: int, size: str, path: Path) -> None:
        import yaml

        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(self.config(seed, size), fh, sort_keys=False)

    def setup(self, config_path: Path) -> State:
        """What a user pays before the first step: config, model, initial state."""
        import numpy as np
        from collapsesim import config, models

        cfg = config.load_config(config_path)
        model = models.build_model(cfg.spec)
        psi = config.build_initial_state(cfg)
        initial = psi if cfg.representation == "pure" else np.outer(psi, psi.conj())
        return State(config_path, cfg, model, initial)

    def prepare_checks(self, state: State, seed: int, size: str) -> None:
        """Untimed reference data for ``check``."""

    def op(self, state: State, k: int):
        raise NotImplementedError

    def collect(self, state: State, result) -> dict:
        """Turn an operation's result into a comparable output (untimed)."""
        return result

    def input_key(self, k: int) -> int:
        """Operations with equal keys get equal inputs and must agree bitwise."""
        return 0

    def check(self, state: State, k: int, output: dict) -> list[str]:
        """Physics checks on one output; returns the problems found."""
        return []

    def counts(self, output: dict) -> dict:
        return {}

    def steps_per_op(self, state: State) -> int:
        """Trajectory-steps in one operation."""
        return state.cfg.ensemble * state.cfg.steps


def _particle(center, width=1.0, kind="gaussian"):
    init = {"type": kind, "width": width}
    init["centers" if kind == "cat" else "center"] = center
    return {"mass": 1.0, "kinetic": True, "initial": init}


class EnsembleC6(Workload):
    name = "ensemble_c6"

    def config(self, seed, size):
        tiny = size == "tiny"
        return {
            "grid": {"dims": [2], "spacing": 1.0},
            # a cat of packets on both sites is |+> = (|0> + |1>)/sqrt(2)
            "particles": [_particle([[0.0], [1.0]], kind="cat")],
            "model": {"kind": "csl", "sigma": 0.35, "gamma": 0.6, "G": 0.15},
            "integration": {"dt": 1.0e-3, "steps": 50 if tiny else 1000,
                            "ensemble": 4 if tiny else 16,
                            "seed": seed * 1_000_000},
        }

    def prepare_checks(self, state, seed, size):
        from collapsesim import engine

        m, cfg = state.model, state.cfg
        rho = state.initial.copy()
        for i in range(1, cfg.steps + 1):
            rho = engine.me_step(rho, m.hamiltonian, m.monitoring, m.feedback, cfg.dt,
                                 backaction=m.backaction, step=i)
        state.me_solution = rho

    def seeds(self, state, k):
        n = state.cfg.ensemble
        return range(state.cfg.seed + k * n, state.cfg.seed + (k + 1) * n)

    def op(self, state, k):
        from collapsesim import engine

        cfg = state.cfg
        return {"mean": engine.ensemble_mean(state.model, state.initial, cfg.dt, cfg.steps,
                                             self.seeds(state, k))}

    def input_key(self, k):
        return k

    def check(self, state, k, output):
        import numpy as np

        means = [state.first_output[j]["mean"] for j in range(k + 1)]
        avg = sum(means) / len(means)
        dist = 0.5 * float(np.abs(np.linalg.eigvalsh(avg - state.me_solution)).sum())
        tol = 5.0 / np.sqrt(state.cfg.ensemble * (k + 1))
        if not np.isfinite(dist) or dist >= tol:
            return [f"trace distance to the master equation {dist:.4g} >= {tol:.4g}"]
        return []


class CliDemo(Workload):
    name = "cli_demo"

    def config(self, seed, size):
        import yaml

        data = yaml.safe_load(DEMO_CONFIG.read_text(encoding="utf-8"))
        if size == "tiny":
            data["integration"].update(steps=100, ensemble=2)
            data["analyze"]["kappa_scan"]["kappas"] = [1.0, 2.0, 4.0]
        return data

    def write_config(self, seed, size, path):
        if size == "full":
            shutil.copyfile(DEMO_CONFIG, path)
        else:
            super().write_config(seed, size, path)

    def prepare_checks(self, state, seed, size):
        state.seed = seed
        state.out_dir = state.config_path.parent / "out"
        state.expected_digest = None
        if size == "full":
            state.expected_digest = json.loads(CLI_DIGESTS.read_text())["digests"].get(str(seed))

    def op(self, state, k):
        from collapsesim import cli

        base = ["--config", str(state.config_path), "--seed", str(state.seed),
                "--out", str(state.out_dir)]
        return [cli.main(["run"] + base),
                cli.main(["analyze", "rate"] + base),
                cli.main(["analyze", "kappa-scan"] + base)]

    def collect(self, state, result):
        output = {"exit_codes": bytes(result)}
        for path in sorted(state.out_dir.glob("*.csv")):
            output[path.name] = path.read_bytes()
        shutil.rmtree(state.out_dir)
        return output

    def check(self, state, k, output):
        problems = []
        if any(output["exit_codes"]):
            problems.append(f"exit codes {list(output['exit_codes'])}")
        n_traj = sum(name.startswith("trajectory_") for name in output)
        if n_traj != state.cfg.ensemble:
            problems.append(f"{n_traj} trajectory CSVs for {state.cfg.ensemble} trajectories")
        digest = trajectory_csv_digest(output)
        if state.expected_digest is not None and digest != state.expected_digest:
            problems.append(f"trajectory CSV digest {digest} differs from the recorded one")
        return problems

    def counts(self, output):
        return {"cli.bytes_written": sum(len(v) for n, v in output.items() if n.endswith(".csv"))}


class _SingleTrajectory(Workload):
    def op(self, state, k):
        from collapsesim import engine

        cfg = state.cfg
        return engine.run_trajectory(state.initial, state.model, cfg.dt, cfg.steps, cfg.seed,
                                     record_every=cfg.record_every,
                                     snapshot_every=cfg.snapshot_every)

    def collect(self, state, rec):
        return {"trace": rec.trace, "purity": rec.purity, "positions": rec.positions,
                "final": rec.snapshots[-1][1]}


class Dense3d(_SingleTrajectory):
    name = "dense3d"
    reference = setup_reference = "blas"

    def config(self, seed, size):
        n, steps = (4, 2) if size == "tiny" else (8, 5)
        c = n / 2.0
        return {
            "grid": {"dims": [n, n, n], "spacing": 1.0},
            "particles": [_particle([[c - n / 4.0, c, c], [c + n / 4.0, c, c]], kind="cat")],
            "model": {"kind": "dp", "sigma": 1.0, "kappa": 2.0, "G": 0.05,
                      "feedback_smearing": True},
            "integration": {"dt": 1.0e-3, "steps": steps, "seed": seed,
                            "representation": "density"},
            "output": {"record_every": steps, "snapshot_every": steps},
        }

    def check(self, state, k, output):
        import numpy as np

        rho = output["final"]
        trace_drift = abs(np.trace(rho) - 1.0)
        herm_drift = float(np.abs(rho - rho.conj().T).max())
        problems = []
        if not trace_drift < 1e-12:
            problems.append(f"trace drift {trace_drift:.3g}")
        if not herm_drift < 1e-12:
            problems.append(f"Hermiticity drift {herm_drift:.3g}")
        return problems


class Pure2p(_SingleTrajectory):
    name = "pure2p"
    # The operation streams large operators and 4096^2 records through
    # memory; set-up is mostly the Gram products of build_model.
    reference = "stream"
    setup_reference = "blas"

    def config(self, seed, size):
        n, steps = (4, 2) if size == "tiny" else (8, 4)
        c = n / 2.0
        return {
            "grid": {"dims": [n, n], "spacing": 1.0},
            "particles": [_particle([c - n / 4.0, c]), _particle([c + n / 4.0, c])],
            "model": {"kind": "dp", "sigma": 1.0, "kappa": 2.0, "G": 0.05,
                      "feedback_smearing": True},
            "integration": {"dt": 1.0e-3, "steps": steps, "seed": seed,
                            "representation": "pure"},
            "output": {"record_every": steps, "snapshot_every": steps},
        }

    def check(self, state, k, output):
        import numpy as np

        drift = abs(float(np.linalg.norm(output["final"])) - 1.0)
        return [] if drift < 1e-12 else [f"norm drift {drift:.3g}"]


WORKLOADS = {w.name: w for w in (EnsembleC6(), CliDemo(), Dense3d(), Pure2p())}
