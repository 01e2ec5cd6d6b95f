"""The benchmark's tracer wraps names in the package's modules from outside
(bench/spans.py).  A change that deletes or renames one of them passes the
package's own tests and breaks only the traced benchmark, so it is checked
here: every wrapped name exists, and restore puts every original back.
The same holds for the demo configuration that the benchmark copies."""

import importlib.util
import re
from pathlib import Path

from collapsesim import analysis, cli, config, engine, kernels, models

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
OWNERS = (analysis, cli, config, engine, kernels, models, kernels.CorrelationKernel,
          models.Model)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist_and_are_restored():
    spans = load_spans()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = spans.Tracer()
    try:
        spans.install_layer_wrappers(tracer)
        wrapped = [(old.get(key), value) for owner, old in zip(OWNERS, before)
                   for key, value in vars(owner).items() if old.get(key) is not value]
    finally:
        tracer.restore()
    # one replaced attribute per wrap call, each a wrapper of the original
    assert len(wrapped) == len(re.findall(r"tracer\.wrap\(", SPANS.read_text()))
    assert all(value.__wrapped__ is original for original, value in wrapped)
    after = [dict(vars(owner)) for owner in OWNERS]
    for owner, old, new in zip(OWNERS, before, after):
        assert old.keys() == new.keys(), owner
        assert all(new[key] is value for key, value in old.items()), owner


def test_bench_config_is_the_demo_config():
    # the cli_demo workload runs bench/run_config.yaml, and its recorded
    # digests (bench/cli_demo_sha256.json) are those of demos/run_config.yaml
    assert ((ROOT / "bench" / "run_config.yaml").read_bytes()
            == (ROOT / "demos" / "run_config.yaml").read_bytes())
