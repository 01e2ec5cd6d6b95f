"""One benchmark process: set up a workload, then optionally run its operations.

    python3 bench/worker.py '<job json>'

``run.py`` starts this script and passes the job.  The worker prints
``READY`` as soon as set-up is done (the parent times process start to that
line), then one JSON line with what it measured.  A worker never retries: an
operation that raises, or whose output fails a check, is recorded as failed.
"""

import time

T_START = time.time()  # wall clock; the parent compares it with its spawn time

# The program is imported first and timed: it is part of set-up.  The
# benchmark's own modules, imported next, then find numpy, yaml and the
# standard library loaded and add almost nothing.
_t0 = time.perf_counter()
import collapsesim  # noqa: E402
from collapsesim import analysis, cli, config, engine, models  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import Reference  # noqa: E402
from spans import Tracer, install_layer_wrappers, summarize  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

MIN_OPS = 2  # cross-operation checks need a second operation


def model_bytes(model) -> int:
    """Sum of nbytes of the arrays held by a built model and its specs."""
    import numpy as np

    total = 0
    for obj in (model, model.monitoring, model.feedback):
        if obj is not None:
            total += sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))
    return total


def run_ops(workload, state, seconds, tracer=None, reference=None):
    """Run operations until ``seconds`` have passed; check each one.

    With a ``reference``, each operation is bracketed by two reference
    timings that give the host-speed ``scale`` of its wall time; without
    one the scale is 1.
    """
    def scale(ref_before):
        return 1.0 if reference is None else reference.scale(ref_before, reference.time())

    main_thread = threading.get_ident()
    records = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_OPS or time.perf_counter() < deadline:
        rec = {"problems": []}
        ref_before = reference.time() if reference is not None else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                result = workload.op(state, k)
            else:
                result = tracer.call("bench.op", workload.op, state, k)
            rec["wall"] = time.perf_counter() - t0
            rec["cpu"] = time.process_time() - c0
            rec["scale"] = scale(ref_before)
            output = workload.collect(state, result)
            digest = fingerprint(output)
            key = workload.input_key(k)
            if key not in state.first_output:
                state.first_output[key] = output
                state.first_digest[key] = digest
            elif digest != state.first_digest[key]:
                rec["problems"].append("output differs bitwise from an earlier run of this input")
            rec["problems"] += workload.check(state, k, output)
            rec["counts"] = workload.counts(output)
        except Exception:  # an operation that raises is a failed operation
            rec.setdefault("wall", time.perf_counter() - t0)
            rec.setdefault("cpu", time.process_time() - c0)
            if "scale" not in rec:
                rec["scale"] = scale(ref_before)
            rec["problems"].append(traceback.format_exc(limit=3))
        if tracer is not None:
            spans, counts = tracer.take()
            rec["layers"] = summarize(spans)
            rec["main_thread"] = summarize(spans, thread=main_thread)
            rec.setdefault("counts", {}).update(counts)
        records.append(rec)
        k += 1
    return records


def main() -> int:
    job = json.loads(sys.argv[1])
    workload = WORKLOADS[job["workload"]]
    src = Path(job["src"]).resolve()

    if src not in Path(collapsesim.__file__).resolve().parents:
        print(f"collapsesim was imported from {collapsesim.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if job["mode"] == "setup" and job["trace"] else None
    if tracer is not None:
        install_layer_wrappers(tracer)
    try:
        state = workload.setup(Path(job["config"]))
    finally:
        if tracer is not None:
            tracer.restore()
    print("READY", flush=True)

    out = {"t_start": T_START, "import_s": IMPORT_S, "model_bytes": model_bytes(state.model)}
    if tracer is not None:
        spans, _ = tracer.take()
        out["layers"] = summarize(spans)

    if job["mode"] == "measure":
        workload.prepare_checks(state, job["seed"], job["size"])
        reference = Reference(workload.reference)
        try:
            seconds = job["seconds"] / 2.0 if job["trace"] else job["seconds"]
            out["untraced"] = run_ops(workload, state, seconds, reference=reference)
            if job["trace"]:
                tracer = Tracer()
                install_layer_wrappers(tracer)
                try:
                    out["traced"] = run_ops(workload, state, seconds, tracer, reference)
                finally:
                    tracer.restore()
        finally:
            reference.close()
        out["steps_per_op"] = workload.steps_per_op(state)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
