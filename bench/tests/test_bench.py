"""Self-tests of the benchmark harness (not part of the package's test suite).

    python3 -m pytest bench/tests -q

Every workload runs end to end at a tiny size, traced and untraced; the
metric names are checked against BENCHMARK.json; a corrupted CSV must be
counted as a failed operation; tracing must leave outputs bit for bit
unchanged and put every wrapped name back.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, install_layer_wrappers  # noqa: E402
from workloads import WORKLOADS, fingerprint, trajectory_csv_digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def tiny_state(name, tmp_path, seed=3):
    wl = WORKLOADS[name]
    path = tmp_path / "config.yaml"
    wl.write_config(seed, "tiny", path)
    state = wl.setup(path)
    wl.prepare_checks(state, seed, "tiny")
    return wl, state


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_every_workload(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name_, metric in result["metrics"].items():
        assert metric["value"] == metric["value"], name_  # not NaN


def test_metric_names_schema():
    e2e, layers = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert {m["name"]: m["unit"] for m in e2e} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in layers} == run.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in e2e)
               for m in e2e)


def test_flipped_csv_byte_is_a_failed_operation(tmp_path):
    wl, state = tiny_state("cli_demo", tmp_path)
    collect = wl.collect

    def corrupting_collect(state_, result):
        output = collect(state_, result)
        if corrupting_collect.calls == 1:
            data = bytearray(output["trajectory_0001.csv"])
            data[len(data) // 2] ^= 0x01
            output["trajectory_0001.csv"] = bytes(data)
        corrupting_collect.calls += 1
        return output

    corrupting_collect.calls = 0
    wl.collect = corrupting_collect
    try:
        records = worker.run_ops(wl, state, seconds=0.0)
    finally:
        del wl.collect
    assert [bool(r["problems"]) for r in records] == [False, True]
    assert "differs bitwise" in records[1]["problems"][0]

    # the recorded-digest check catches the same flip on its own
    first = state.first_output[0]
    state.expected_digest = trajectory_csv_digest(first)
    assert wl.check(state, 0, first) == []
    flipped = dict(first)
    flipped["trajectory_0000.csv"] = b"X" + first["trajectory_0000.csv"][1:]
    assert any("digest" in p for p in wl.check(state, 0, flipped))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_keeps_outputs_bitwise_and_restores_names(name, tmp_path):
    from collapsesim import analysis, cli, config, engine, kernels, models

    modules = (analysis, cli, config, engine, models, kernels.CorrelationKernel, models.Model)
    before = [dict(vars(m)) for m in modules]
    wl, state = tiny_state(name, tmp_path)
    plain = fingerprint(wl.collect(state, wl.op(state, 0)))
    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        traced = fingerprint(wl.collect(state, wl.op(state, 0)))
    finally:
        tracer.restore()
    spans, _ = tracer.take()
    assert spans, "no layer was traced"
    assert traced == plain
    after = [dict(vars(m)) for m in modules]
    for b, a in zip(before, after):
        assert {k: v for k, v in a.items() if b.get(k) is not v} == {}
