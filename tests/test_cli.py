import copy
import csv
import hashlib
import json
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from collapsesim import cli, config
from collapsesim.cli import main

from oracles import csv_writer_table

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "run_config.yaml"
YAML_LOADERS = [
    pytest.param(yaml.SafeLoader, id="python"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml",
                 marks=pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                          reason="PyYAML built without libyaml")),
]


def write_config(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def base_config(**overrides):
    cfg = {
        "grid": {"dims": [8], "spacing": 1.0},
        "particles": [{"mass": 1.0, "kinetic": True,
                       "initial": {"type": "gaussian", "center": [4.0],
                                   "width": 1.5, "momentum": [0.3]}}],
        "model": {"kind": "csl", "sigma": 1.0, "gamma": 1.0, "G": 0.1},
        "integration": {"dt": 1e-4, "steps": 200, "ensemble": 1, "seed": 7},
        "output": {"record_every": 10},
    }
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]])


class TestRun:
    def test_minimal_run_trace_column(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", base_config())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, data = read_csv(tmp_path / "out" / "trajectory_0000.csv")
        assert header[0].startswith("t ")
        trace = data[:, header.index("trace (1)")]
        assert np.abs(trace - 1.0).max() < 1e-10
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seeds"] == [7]
        assert "wall_time_s" in summary

    def test_summary_reruns_equal_but_timings(self, tmp_path):
        # the timing fields are the one part of summary.json outside the
        # byte contract
        cfg = write_config(tmp_path / "run.yaml", base_config(
            integration={"dt": 1e-4, "steps": 50, "ensemble": 2, "seed": 7}))
        timings = ("wall_time_s", "build_s", "run_s", "write_s", "steps_per_s")
        summaries = []
        for out in ("a", "b"):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / out)]) == 0
            summary = json.loads((tmp_path / out / "summary.json").read_text())
            assert all(summary.pop(key) > 0 for key in timings)
            summaries.append(json.dumps(summary, sort_keys=True))
        assert summaries[0] == summaries[1]
        assert json.loads(summaries[0])["seeds"] == [7, 8]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", base_config())
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trajectory_0000.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory_0000.csv").read_bytes()
        assert a == b

    def test_ensemble_member_equals_single_seed_run(self, tmp_path):
        # the ensemble is stepped as one batch, yet trajectory i depends only
        # on the config and on seed + i: it has the bytes of a one-member run
        # with that seed
        data = base_config()
        data["integration"]["ensemble"] = 3
        data["output"]["offdiagonal_pairs"] = [[2, 6]]
        data["output"]["signal_sites"] = [4]
        cfg = write_config(tmp_path / "run.yaml", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
        data["integration"]["ensemble"] = 1
        one = write_config(tmp_path / "one.yaml", data)
        for i in range(3):
            out = tmp_path / f"seed{i}"
            assert main(["run", "--config", one, "--seed", str(7 + i), "--out", str(out)]) == 0
            member = (tmp_path / "all" / f"trajectory_{i:04d}.csv").read_bytes()
            assert member == (out / "trajectory_0000.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", base_config())
        main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["run", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trajectory_0000.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory_0000.csv").read_bytes()
        assert a != b

    def test_cat_decay_rate_matches_analyze(self, tmp_path):
        # cross-command self-consistency: the noise-averaged run's
        # off-diagonal decay equals the closed-form rate table entry
        from collapsesim.analysis import fit_offdiagonal_decay

        x, y = 2, 6
        run_cfg = base_config()
        run_cfg["particles"] = [{"mass": 1.0, "kinetic": False,
                                 "initial": {"type": "cat", "centers": [[2.0], [6.0]],
                                             "width": 0.45}}]
        run_cfg["model"] = {"kind": "csl", "sigma": 1.0, "gamma": 1.0, "G": 0.2}
        run_cfg["integration"] = {"dt": 1.2e-3, "steps": 300, "ensemble": 1,
                                  "seed": 0, "representation": "mean"}
        run_cfg["output"] = {"record_every": 3, "offdiagonal_pairs": [[x, y]]}
        run_cfg["analyze"] = {"rate": {"separations": [0, 1, 2, 3, 4]}}
        cfg = write_config(tmp_path / "run.yaml", run_cfg)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        header, data = read_csv(tmp_path / "out" / "trajectory_0000.csv")
        col = header.index(f"abs_rho_{x}_{y} (1)")
        series = data[:, col]
        assert series[-1] < 0.5 * series[0]  # visibly decaying
        fitted = fit_offdiagonal_decay(data[:, 0], series)

        assert main(["analyze", "rate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        _, table = read_csv(tmp_path / "out" / "rate.csv")
        rate_d4 = table[table[:, 0] == 4.0, 3][0]
        assert fitted == pytest.approx(rate_d4, rel=0.01)

    def test_pure_demo_trajectory_bytes(self, tmp_path):
        # frozen SHA-256 of the state-vector path: the demo run with
        # representation 'pure' (records read psi directly, purity exactly 1)
        data = yaml.safe_load(DEMO_CONFIG.read_text())
        data["integration"].update(representation="pure", steps=200)
        cfg = write_config(tmp_path / "pure.yaml", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        digests = [hashlib.sha256((tmp_path / "out" / f"trajectory_{i:04d}.csv")
                                  .read_bytes()).hexdigest() for i in range(4)]
        assert digests == [
            "d2d77f7410017d73ce66827e3939c75b4fe8895913e38c9712635656ef930ec0",
            "2184b784e471937e999b2526a1bd6a9b999d0e62f0789f6e5691b33813ac1809",
            "5b3f4bacc500ec84fedacb19469b1d6857cd3c6067b4f61f2f7c4f0535732557",
            "53029ba0697f26ab65b3a172638d7092b3ebc7bb68b06f1ed5e0702922424712"]

    def test_invalid_config_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "bad.yaml", {"grid": {"dims": [8]}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", [["run"], ["analyze", "linearity"]])
    def test_negative_seed_option_exit_2(self, tmp_path, capsys, command):
        # Philox takes no negative seed: the override is checked like the config's
        out = tmp_path / "out"
        assert main(command + ["--config", str(DEMO_CONFIG), "--seed", "-2",
                               "--out", str(out)]) == 2
        assert "--seed: must be a nonnegative integer; got -2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("loader", YAML_LOADERS)
    def test_malformed_yaml_exit_2(self, tmp_path, monkeypatch, capsys, loader):
        monkeypatch.setattr(config, "SAFE_LOADER", loader)
        bad = tmp_path / "bad.yaml"
        bad.write_text("grid: {dims: [8]\nparticles: [\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("loader", YAML_LOADERS)
    def test_loaders_parse_demo_config_alike(self, monkeypatch, loader):
        monkeypatch.setattr(config, "SAFE_LOADER", loader)
        raw = config.load_config(DEMO_CONFIG).raw
        reference = yaml.load(DEMO_CONFIG.read_text(), Loader=yaml.SafeLoader)
        assert raw == reference and repr(raw) == repr(reference)  # repr tells 1 from 1.0

    @pytest.mark.parametrize("kind", ["sn", "pair"])
    def test_signal_sites_need_monitored_kind_exit_2(self, tmp_path, capsys, kind):
        # unmonitored kinds record no signal: the CSV header would name
        # signal_site columns that no row fills
        data = base_config(model={"kind": kind, "G": 0.1},
                           output={"record_every": 10, "signal_sites": [2, 5]})
        data["particles"] = data["particles"] * 2
        data["integration"]["representation"] = "pure"
        cfg = write_config(tmp_path / "run.yaml", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "output.signal_sites" in err and repr(kind) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edits, key, shown", [
        ({("integration", "steps"): True}, "integration.steps", "True"),
        ({("integration", "seed"): False}, "integration.seed", "False"),
        ({("output", "record_every"): True}, "output.record_every", "True"),
        ({("particles", 0, "mass"): True}, "particles[0].mass", "True"),
        ({("model", "G"): True}, "model.G", "True"),
        ({("output", "signal_sites"): [True]}, "output.signal_sites", "True"),
        ({("integration", "dt"): float("nan")}, "integration.dt", "nan"),
        ({("model", "sigma"): float("inf")}, "model.sigma", "inf"),
        ({("grid", "dims"): [8.9]}, "grid.dims", "8.9"),
        ({("grid", "dims"): [4, 4], ("particles", 0, "initial", "center"): [1.0, 2.0, 3.0]},
         "particles[0].initial.center", "[1.0, 2.0, 3.0]"),
        ({("particles", 0, "initial", "width"): "abc"}, "particles[0].initial.width", "'abc'"),
        ({("particles", 0, "initial"): {"type": "cat", "centers": [[2.0], ["x"]]}},
         "particles[0].initial.centers", "'x'"),
        ({("particles", 0, "kinetic"): "no"}, "particles[0].kinetic", "'no'"),
        ({("model", "feedback_smearing"): "no"}, "model.feedback_smearing", "'no'"),
        ({("output", "offdiagonal_pairs"): 5}, "output.offdiagonal_pairs", "5"),
        ({("output", "signal_sites"): 5}, "output.signal_sites", "5"),
        ({("analyze",): {"rate": 5}}, "analyze.rate", "5"),
        ({("outptu",): {"record_every": 5}}, "outptu", "unknown key"),
        ({("grid", "spacng"): 2.0}, "grid.spacng", "unknown key"),
        ({("particles", 0, "masss"): 2.0}, "particles[0].masss", "unknown key"),
        ({("particles", 0, "initial", "widht"): 2.0}, "particles[0].initial.widht", "unknown key"),
        ({("model", "kindd"): "dp"}, "model.kindd", "unknown key"),
        ({("integration", "stpes"): 2000}, "integration.stpes", "unknown key"),
        ({("output", "record_evry"): 5}, "output.record_evry", "unknown key"),
        ({("analyze",): {"rates": {}}}, "analyze.rates", "unknown key"),
        ({("analyze",): {"rate": {"separation": [1, 2]}}}, "analyze.rate.separation",
         "unknown key"),
        ({("model", "kernel_kind"): "dp"}, "model.kernel_kind", "unknown key"),
        ({("analyze",): {"pair_potential": {"corrected": False}}},
         "analyze.pair_potential.corrected", "unknown key; known keys are separations, axis"),
        ({("model", "kind"): "generic"}, "model.kind",
         "must be one of ('csl', 'dp', 'sn', 'pair')"),
        ({("model", "kind"): "generic", ("model", "kernel_kind"): "sn"}, "model.kernel_kind",
         "unknown key; known keys are kind, sigma, gamma, kappa, G, feedback_smearing\n"
         "  model.kind: must be one of ('csl', 'dp', 'sn', 'pair')"),
        ({("output", "snapshot_every"): 1}, "output.snapshot_every", "got 1"),
        ({("model", "kind"): "dp", ("model", "G"): 0.0}, "model:", "kappa G"),
        ({("integration", "seed"): -3}, "integration.seed", "-3"),
        ({("model", "gamma"): 0.0}, "model:", "csl strength gamma"),
        ({("model", "kind"): "dp", ("model", "kappa"): 0.0}, "model:", "kappa G"),
    ], ids=["steps-true", "seed-false", "record-every-true", "mass-true", "G-true",
            "signal-site-true", "dt-nan", "sigma-inf", "dims-fraction", "center-length-3",
            "width-text", "cat-center-text", "kinetic-text", "smearing-text",
            "pairs-not-list", "sites-not-list", "analyze-block-not-mapping",
            "unknown-top-key", "unknown-grid-key", "unknown-particle-key",
            "unknown-initial-key", "unknown-model-key", "unknown-integration-key",
            "unknown-output-key", "unknown-analyze-block", "unknown-analyze-block-key",
            "kernel-kind-not-generic", "pair-potential-corrected",
            "generic-without-kernel-kind", "generic-kernel-kind-sn", "snapshots-on-run",
            "dp-G-zero", "seed-negative", "csl-gamma-zero", "dp-kappa-zero"])
    def test_bad_number_or_initial_block_exit_2(self, tmp_path, capsys, edits, key, shown):
        # each value passes a bare isinstance or float() test, fails only inside
        # numpy, or sits under a key or a model kind that nothing reads
        data = base_config()
        for path, value in edits.items():
            section = data
            for part in path[:-1]:
                section = section[part]
            section[path[-1]] = value
        cfg = write_config(tmp_path / "run.yaml", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert key in err and shown in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, key, shown", [
        ({"rate": {"separations": [0, 99]}}, "analyze.rate.separations", "got [0, 99]"),
        ({"rate": {"axis": 1}}, "analyze.rate.axis", "got 1"),
        ({"kappa_scan": {"kappas": [-1.0]}}, "analyze.kappa_scan.kappas", "got [-1.0]"),
        ({"kappa_scan": {"separation": 8}}, "analyze.kappa_scan.separation", "got 8"),
        ({"linearity": {"time": 0}}, "analyze.linearity.time", "got 0"),
        ({"linearity": {"samples": 2.5}}, "analyze.linearity.samples", "got 2.5"),
    ], ids=["separations-outside", "axis-outside", "kappa-negative", "separation-outside",
            "time-zero", "samples-fraction"])
    def test_bad_analyze_value_listed_with_run_errors_exit_2(self, tmp_path, capsys, block,
                                                             key, shown):
        # run reads no analyze block, yet a bad analyze value exits 2 at load,
        # in the one message that lists the run sections' errors
        data = base_config(analyze=block)
        data["integration"]["steps"] = 0
        cfg = write_config(tmp_path / "run.yaml", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "integration.steps: must be a positive integer; got 0" in err
        assert f"{key}: must be" in err and shown in err
        assert not (tmp_path / "out").exists()

    def test_guard_trip_exit_3(self, tmp_path, capsys):
        data = base_config()
        data["model"]["G"] = 5.0
        data["integration"]["dt"] = 0.05
        cfg = write_config(tmp_path / "run.yaml", data)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "step-size" in err and "step" in err

    @pytest.mark.parametrize("command, out",
                             [(["run"], "file/sub"), (["analyze", "rate"], "file")],
                             ids=["run", "analyze"])
    def test_unusable_out_exit_2(self, tmp_path, capsys, monkeypatch, command, out):
        # the output directory is made before the model is built, so an
        # --out below a regular file is reported before any integration
        def unreached(*args, **kwargs):
            raise AssertionError("run_ensemble was reached")

        monkeypatch.setattr(cli, "run_ensemble", unreached)
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path / "run.yaml", base_config())
        assert main(command + ["--config", cfg, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path / out) in err


class TestReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def example(self):
        """The README's schema example, as text."""
        text = self.README.read_text(encoding="utf-8")
        section = text[text.index("## Run configuration schema (YAML)"):]
        start = section.index("```yaml\n") + len("```yaml\n")
        return section[start:section.index("```\n", start)]

    def test_config_example_parses(self):
        # every key the README's schema example shows is one parse_config reads
        cfg = config.parse_config(yaml.safe_load(self.example()))
        assert cfg.spec.kind == "csl" and set(cfg.analyze) == {
            "rate", "pair_potential", "kappa_scan", "linearity"}

    def test_example_names_every_known_key(self):
        # and every key parse_config knows, section by section, is named in
        # the example (a value or a comment), so an added or renamed key
        # cannot leave the schema stale; the known keys are the ones
        # parse_config lists for an unknown key
        text = self.example()
        data = yaml.safe_load(text)
        paths = [(), ("grid",), ("particles", 0), ("particles", 0, "initial"), ("model",),
                 ("integration",), ("output",), ("analyze",),
                 *(("analyze", block) for block in data["analyze"])]
        for path in paths:
            edited = copy.deepcopy(data)
            section = edited
            for part in path:
                section = section[part]
            section["unknown"] = 0
            with pytest.raises(config.ConfigError) as info:
                config.parse_config(edited)
            (error,) = info.value.errors
            for key in error.split("known keys are ")[1].split(", "):
                assert re.search(rf"\b{key}:", text), (path, key)

    def test_kind_comment_names_the_model_kinds(self):
        # the schema names each model kind by its one spelling: the kind
        # comment lists MODEL_KINDS, and no retired alias appears anywhere
        line = re.search(r"^  kind: \w+ +# (.*)$", self.example(), re.M)
        assert tuple(line.group(1).split(" | ")) == config.MODEL_KINDS
        text = self.README.read_text(encoding="utf-8")
        assert "generic" not in text and "kernel_kind" not in text


class TestAnalyze:
    def test_kappa_scan_minimum_row(self, tmp_path, caplog):
        data = {
            "grid": {"dims": [6, 6, 6], "spacing": 1.0},
            "particles": [{"mass": 1.0, "kinetic": False,
                           "initial": {"type": "gaussian", "center": [3.0, 3.0, 3.0],
                                       "width": 1.0}}],
            "model": {"kind": "dp", "sigma": 1.1, "kappa": 2.0, "G": 1.0},
            "analyze": {"kappa_scan": {"kappas": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0],
                                       "separation": 2}},
        }
        cfg = write_config(tmp_path / "scan.yaml", data)
        with caplog.at_level(logging.WARNING, logger="collapsesim"):
            assert main(["analyze", "kappa-scan", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        assert caplog.records == []  # dp reads kappa: the table is not flat
        _, table = read_csv(tmp_path / "kappa_scan.csv")
        best = table[np.argmin(table[:, 1]), 0]
        flagged = table[table[:, 2] == 1.0, 0]
        assert best == 2.0 and list(flagged) == [2.0]

    def test_kappa_scan_on_csl_warns_the_table_is_flat(self, tmp_path, caplog):
        # only the dp kernel reads kappa: on the csl demo every rate is equal and
        # the first kappa is flagged, which one logged warning says
        with caplog.at_level(logging.WARNING, logger="collapsesim"):
            assert main(["analyze", "kappa-scan", "--config", str(DEMO_CONFIG),
                         "--out", str(tmp_path)]) == 0
        assert [(r.name, r.levelno) for r in caplog.records] == [("collapsesim", logging.WARNING)]
        assert "only the dp kernel reads kappa" in caplog.records[0].getMessage()
        _, table = read_csv(tmp_path / "kappa_scan.csv")
        assert len(set(table[:, 1])) == 1 and list(table[:, 2]) == [1.0] + [0.0] * (len(table) - 1)

    def test_pair_potential_newton_column(self, tmp_path):
        data = {
            "grid": {"dims": [32, 32, 32], "spacing": 1.0},
            "particles": [
                {"mass": 1.0, "initial": {"type": "gaussian", "center": [8.0] * 3,
                                          "width": 1.0}},
                {"mass": 1.0, "initial": {"type": "gaussian", "center": [24.0] * 3,
                                          "width": 1.0}}],
            "model": {"kind": "csl", "sigma": 1.0, "gamma": 1.0, "G": 1.0},
            "analyze": {"pair_potential": {"separations": [8]}},
        }
        cfg = write_config(tmp_path / "pair.yaml", data)
        assert main(["analyze", "pair-potential", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        header, table = read_csv(tmp_path / "pair_potential.csv")
        assert header[-1].startswith("newton_ratio")
        assert table[0, -1] == pytest.approx(1.0, abs=0.02)

    def test_rate_without_separations_writes_the_header_row(self, tmp_path):
        data = base_config(analyze={"rate": {"separations": []}})
        cfg = write_config(tmp_path / "rate.yaml", data)
        assert main(["analyze", "rate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rate.csv").read_bytes() == (
            b"d (length),rate_intrinsic (1/time),rate_backaction (1/time),rate_total (1/time)\r\n")

    def test_rate_table_zero_separation_row(self, tmp_path):
        data = base_config()
        data["particles"][0]["kinetic"] = False
        data["analyze"] = {"rate": {"separations": [0, 1, 2]}}
        cfg = write_config(tmp_path / "rate.yaml", data)
        assert main(["analyze", "rate", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, table = read_csv(tmp_path / "rate.csv")
        assert table[0, 0] == 0.0
        assert np.abs(table[0, 1:]).max() < 1e-14

    @staticmethod
    def linearity_config(**block):
        data = base_config()
        data["particles"] = [{"mass": 1.0,
                              "initial": {"type": "cat", "centers": [[2.0], [6.0]],
                                          "width": 0.7}}]
        data["model"] = {"kind": "csl", "sigma": 1.0, "gamma": 1.0, "G": 0.1}
        data["integration"] = {"dt": 1e-4, "steps": 100, "seed": 3, "ensemble": 1}
        data["analyze"] = {"linearity": {"time": 0.01, "samples": 20, **block}}
        return data

    def test_linearity_report(self, tmp_path):
        cfg = write_config(tmp_path / "lin.yaml", self.linearity_config())
        assert main(["analyze", "linearity", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "linearity.json").read_text())
        assert report["linear"] is True
        assert report["trace_distance"] < report["tolerance"]
        # the configured samples per branch, not the total over both branches
        assert report["samples"] == 20

    def test_pair_potential_on_pair_kind(self, tmp_path):
        # the one-particle self-energy specs must not inherit kind 'pair'
        data = {
            "grid": {"dims": [6, 6, 6], "spacing": 1.0},
            "particles": [
                {"mass": 1.0, "initial": {"type": "gaussian", "center": [1.0] * 3,
                                          "width": 1.0}},
                {"mass": 2.0, "initial": {"type": "gaussian", "center": [4.0] * 3,
                                          "width": 1.0}}],
            "model": {"kind": "pair", "G": 1.0},
            "analyze": {"pair_potential": {"separations": [1, 2, 3]}},
        }
        cfg = write_config(tmp_path / "pair.yaml", data)
        assert main(["analyze", "pair-potential", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        header, table = read_csv(tmp_path / "pair_potential.csv")
        assert header[-1].startswith("newton_ratio")
        assert np.isfinite(table[:, -1]).all()

    def test_pair_potential_needs_two_particles_exit_2(self, tmp_path, capsys):
        assert main(["analyze", "pair-potential", "--config", str(DEMO_CONFIG),
                     "--out", str(tmp_path)]) == 2
        assert "exactly two particles" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [False, "no"])
    def test_corrected_key_is_unknown_exit_2(self, tmp_path, capsys, value):
        # the image correction always applies where it can: no key turns it off
        data = base_config()
        data["particles"] = data["particles"] * 2
        data["analyze"] = {"pair_potential": {"corrected": value}}
        cfg = write_config(tmp_path / "corrected.yaml", data)
        assert main(["analyze", "pair-potential", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert ("analyze.pair_potential.corrected: unknown key; known keys are separations, "
                "axis") in capsys.readouterr().err
        assert not (tmp_path / "pair_potential.csv").exists()

    @pytest.mark.parametrize("what", ["rate", "kappa-scan"])
    def test_rate_tables_need_one_particle_exit_2(self, tmp_path, capsys, what):
        data = base_config()
        data["particles"] = data["particles"] * 2
        cfg = write_config(tmp_path / "two.yaml", data)
        assert main(["analyze", what, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "needs one particle" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["rate", "kappa-scan"])
    def test_rate_tables_need_monitored_kind_exit_2(self, tmp_path, capsys, what):
        data = base_config(model={"kind": "sn", "G": 0.1})
        cfg = write_config(tmp_path / "sn.yaml", data)
        assert main(["analyze", what, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "monitored model kind" in capsys.readouterr().err

    def test_linearity_needs_one_particle_exit_2(self, tmp_path, capsys):
        data = self.linearity_config()
        data["particles"] = data["particles"] * 2
        cfg = write_config(tmp_path / "lin.yaml", data)
        assert main(["analyze", "linearity", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "needs one particle" in capsys.readouterr().err

    @pytest.mark.parametrize("block, shown", [
        ({"time": 4e-5}, "at least one step"),
        ({"samples": 0}, "analyze.linearity.samples: must be a positive integer; got 0")],
        ids=["time-below-one-step", "no-samples"])
    def test_linearity_needs_a_step_and_a_sample_exit_2(self, tmp_path, capsys, block, shown):
        cfg = write_config(tmp_path / "lin.yaml", self.linearity_config(**block))
        assert main(["analyze", "linearity", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert shown in capsys.readouterr().err

    @pytest.mark.parametrize("axis", [1, -1])
    @pytest.mark.parametrize("what", ["rate", "kappa-scan", "pair-potential"])
    def test_axis_outside_grid_exit_2(self, tmp_path, capsys, what, axis):
        data = base_config()
        if what == "pair-potential":
            data["particles"] = data["particles"] * 2
        data["analyze"] = {what.replace("-", "_"): {"axis": axis}}
        cfg = write_config(tmp_path / "axis.yaml", data)
        assert main(["analyze", what, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert (f"analyze.{what.replace('-', '_')}.axis: must be an axis in 0..0 of this "
                f"1-d grid; got {axis}") in capsys.readouterr().err

    @pytest.mark.parametrize("what, block", [
        ("rate", {"separations": [0, 99]}), ("rate", {"separations": [-1]}),
        ("kappa-scan", {"separation": 8}), ("kappa-scan", {"separation": -1}),
        ("pair-potential", {"separations": [1, 99]})])
    def test_separation_outside_grid_exit_2(self, tmp_path, capsys, what, block):
        data = base_config()
        if what == "pair-potential":
            data["particles"] = data["particles"] * 2
        data["analyze"] = {what.replace("-", "_"): block}
        cfg = write_config(tmp_path / "sep.yaml", data)
        assert main(["analyze", what, "--config", cfg, "--out", str(tmp_path)]) == 2
        ((key, value),) = block.items()
        assert (f"analyze.{what.replace('-', '_')}.{key}: must be "
                f"{'a whole number' if key == 'separation' else 'a list of whole numbers'} "
                f"in 0..7 sites along axis 0; got {value!r}") in capsys.readouterr().err

    @pytest.mark.parametrize("what, key, value", [
        ("rate", "axis", "x"), ("rate", "separations", [1.5]), ("rate", "separations", 3),
        ("kappa-scan", "separation", "many"), ("kappa-scan", "kappas", ["a"]),
        ("kappa-scan", "kappas", [0.0]), ("pair-potential", "axis", True),
        ("linearity", "samples", "many"), ("linearity", "time", "x"),
        ("linearity", "time", float("inf"))])
    def test_block_value_of_wrong_kind_exit_2(self, tmp_path, capsys, what, key, value):
        data = self.linearity_config() if what == "linearity" else base_config()
        if what == "pair-potential":
            data["particles"] = data["particles"] * 2
        data["analyze"] = {what.replace("-", "_"): {key: value}}
        cfg = write_config(tmp_path / "kind.yaml", data)
        assert main(["analyze", what, "--config", cfg, "--out", str(tmp_path)]) == 2
        err, bad = capsys.readouterr().err, value[0] if isinstance(value, list) else value
        assert f"analyze.{what.replace('-', '_')}.{key}: must be" in err and repr(bad) in err

    def test_empty_kappas_exit_2(self, tmp_path, capsys):
        data = yaml.safe_load(DEMO_CONFIG.read_text())
        data["analyze"]["kappa_scan"]["kappas"] = []
        cfg = write_config(tmp_path / "empty.yaml", data)
        assert main(["analyze", "kappa-scan", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert ("analyze.kappa_scan.kappas: must be a non-empty list of positive numbers; "
                "got []") in capsys.readouterr().err

    @pytest.mark.parametrize("kind, key", [("csl", "kappa"), ("dp", "gamma")])
    def test_unread_strength_zero_keeps_bytes(self, tmp_path, kind, key):
        # csl's kernel reads only gamma, dp's only kappa and G: the strength
        # a kind does not read may be 0 and moves no byte of the rate table
        data = yaml.safe_load(DEMO_CONFIG.read_text())
        data["model"]["kind"] = kind
        data["model"].pop(key, None)
        tables = []
        for name, model in (("without", data["model"]), ("zero", {**data["model"], key: 0})):
            cfg = write_config(tmp_path / f"{name}.yaml", {**data, "model": model})
            assert main(["analyze", "rate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            tables.append((tmp_path / name / "rate.csv").read_bytes())
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("axis, expected", [(0, [0, 1, 2, 3, 4]), (1, [0, 1])])
    def test_rate_default_separations_read_the_block_axis(self, tmp_path, axis, expected):
        # d = 0 .. max(1, L // 4) with L the sites along the block's own axis
        data = base_config(grid={"dims": [16, 4], "spacing": 1.0})
        data["analyze"] = {"rate": {"axis": axis}}
        cfg = write_config(tmp_path / "rate.yaml", data)
        assert main(["analyze", "rate", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, table = read_csv(tmp_path / "rate.csv")
        assert table[:, 0].tolist() == expected

    def test_kappa_scan_default_separation_on_two_sites(self, tmp_path):
        # the default separation is min(3, L - 1): d = 1 on a 2-site chain
        data = base_config(grid={"dims": [2], "spacing": 1.0})
        data["particles"][0]["initial"]["center"] = [0.0]
        tables = []
        for name, block in (("default", {}), ("explicit", {"separation": 1})):
            data["analyze"] = {"kappa_scan": block}
            cfg = write_config(tmp_path / f"{name}.yaml", data)
            out = tmp_path / name
            assert main(["analyze", "kappa-scan", "--config", cfg, "--out", str(out)]) == 0
            tables.append((out / "kappa_scan.csv").read_bytes())
        assert tables[0] == tables[1]

    @settings(max_examples=40, deadline=None)
    @given(dims=st.lists(st.integers(2, 16), min_size=1, max_size=3), data=st.data())
    def test_defaults_lie_inside_every_grid(self, dims, data):
        # analyze defaults are resolved at load, so they must never fail a
        # config that runs no analysis: none on any grid, with or without an axis
        axes = {key: data.draw(st.integers(0, len(dims) - 1), label=key)
                for key in ("rate", "pair_potential", "kappa_scan")}
        for given_axes in (None, axes):
            raw = base_config(grid={"dims": dims, "spacing": 1.0})
            if given_axes:
                raw["analyze"] = {key: {"axis": ax} for key, ax in given_axes.items()}
            analyze = config.parse_config(raw).analyze
            assert set(analyze) == {"rate", "pair_potential", "kappa_scan", "linearity"}
            for key, ax in axes.items():
                block = analyze[key]
                assert block["axis"] == (ax if given_axes else 0)
                seps = block.get("separations", [block.get("separation")])
                assert seps and all(0 <= d < dims[block["axis"]] for d in seps), (key, seps)

    def test_quoted_number_exit_2(self, tmp_path, capsys):
        # one number check for run and analyze keys: a YAML string is no number
        data = base_config()
        data["analyze"] = {"rate": {"separations": ["3"]}}
        cfg = write_config(tmp_path / "quoted.yaml", data)
        assert main(["analyze", "rate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert ("analyze.rate.separations: must be a list of whole numbers in 0..7 sites "
                "along axis 0; got ['3']") in capsys.readouterr().err


class TestAnalyzeBytes:
    """Frozen SHA-256 of the closed-form tables: a change to any of their
    bytes must be deliberate."""

    @pytest.mark.parametrize("what, name, digest", [
        ("rate", "rate.csv",
         "a11b8952f33e5b0f110a5805fbed84b732e496ab062e4b8db8280c0b3db3a98c"),
        ("kappa-scan", "kappa_scan.csv",
         "a480681f85241269fabe3959750fa787cabe580f759176afe238424adeb56e82"),
    ], ids=["rate", "kappa-scan"])
    def test_demo_tables(self, tmp_path, what, name, digest):
        assert main(["analyze", what, "--config", str(DEMO_CONFIG),
                     "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    def test_pair_potential_table(self, tmp_path):
        data = {
            "grid": {"dims": [6, 6, 6], "spacing": 1.0},
            "particles": [
                {"mass": 1.0, "initial": {"type": "gaussian", "center": [1.0] * 3,
                                          "width": 1.0}},
                {"mass": 2.0, "initial": {"type": "gaussian", "center": [4.0] * 3,
                                          "width": 1.0}}],
            "model": {"kind": "dp", "sigma": 1.1, "kappa": 2.0, "G": 1.0},
            "analyze": {"pair_potential": {"separations": [0, 1, 2, 3]}},
        }
        cfg = write_config(tmp_path / "pair.yaml", data)
        assert main(["analyze", "pair-potential", "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "pair_potential.csv").read_bytes()).hexdigest()
        assert digest == "4b44ee9ad378b934a8afec93937bb297a34885b2633c315ee051dc37892aec12"


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(table=arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 9)),
                        elements=st.floats(width=64) | st.sampled_from(
                            [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072e-308,
                             1.7976931348623157e308, -1e-300, 1e300])))
    def test_csv_bytes_equal_csv_writer(self, table):
        # one np.savetxt call writes what csv.writer wrote cell by cell,
        # whether a column comes alone or in a block of columns
        header = [f"c{k} (1)" for k in range(table.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp) / "ours.csv", Path(tmp) / "oracle.csv"
            cli._write_csv(ours, header, [table[:, 0], table[:, 1:]])
            csv_writer_table(oracle, header, table)
            assert ours.read_bytes() == oracle.read_bytes()


class TestPresets:
    def test_text_lists_sigma_values(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "1e-07 m" in out
        assert "1e-14 m" in out

    def test_json_flag_valid_json(self, capsys):
        assert main(["presets", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["presets"]["grw-csl"]["sigma_m"] == 1e-7
        assert payload["presets"]["dp"]["kappa"] == 2.0
        assert "lattice_mapping" in payload

    def test_preset_lattice_example_present(self, capsys):
        main(["presets", "--json"])
        payload = json.loads(capsys.readouterr().out)
        ex = payload["presets"]["grw-csl"]["lattice_example"]
        assert ex["sigma_lattice"] == pytest.approx(1.0)
