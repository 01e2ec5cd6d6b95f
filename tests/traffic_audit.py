"""Print the lines of src/collapsesim that no run of the program reaches.

    PYTHONPATH=src python tests/traffic_audit.py

A sys.settrace line collector records every line executed in
src/collapsesim while the script runs the program's traffic outside the
unit tests:

- the acceptance gate, tests/test_acceptance.py, in-process through
  pytest.main;
- every CLI subcommand on the demo config and on its dp, pure, mean, sn,
  pair and two-particle variants, written to a temporary directory;
- the five demos, through runpy;
- one operation of each benchmark workload in bench/workloads.py.

It then prints each statement of the package that nothing reached, as
file:line and its first source line.  Docstrings, raise statements and
except blocks are left out: they are the error paths.  A statement it
prints has no caller outside the unit tests, so run it before deleting
code as unreached.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "collapsesim"
PREFIX = str(SRC) + os.sep
reached: dict[str, set[int]] = {}


def _lines(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    """The global tracer: trace the lines of the package's frames only."""
    name = frame.f_code.co_filename
    if not name.startswith(PREFIX):
        return None
    reached.setdefault(name, set())
    return _lines


def _quiet(fn, *args):
    """fn(*args) with its stdout and stderr swallowed; returns its result."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def run_gate() -> None:
    import pytest

    code = _quiet(pytest.main, ["-q", "-p", "no:cacheprovider",
                                str(ROOT / "tests" / "test_acceptance.py")])
    if code != 0:
        raise SystemExit(f"the acceptance gate failed (pytest exit code {code})")


def config_variants(base: dict) -> dict[str, dict]:
    """The demo config and its variants, shortened to a few steps; each
    covers a model kind or representation that the demo does not."""
    short = copy.deepcopy(base)
    short["integration"].update(steps=40, ensemble=2)
    short["output"]["record_every"] = 10
    short["analyze"]["linearity"].update(time=0.001, samples=4)

    def variant(model=None, representation=None, two=False, dims=1):
        cfg = copy.deepcopy(short)
        if model is not None:
            cfg["model"] = model
        if representation is not None:
            cfg["integration"]["representation"] = representation
        if two:  # on a 16-site chain, or a cubic 4^3 grid (pair-potential's image term)
            packet = {"type": "gaussian", "width": 1.0}
            cfg["particles"] = [
                {"mass": 1.0, "kinetic": True, "initial": dict(packet, center=[1.0] * dims)},
                {"mass": 2.0, "kinetic": True, "initial": dict(packet, center=[3.0] * dims)}]
            cfg["output"].update(offdiagonal_pairs=[[0, 17]], signal_sites=[0, 2])
            if dims == 3:
                cfg["grid"]["dims"] = [4, 4, 4]
                cfg["analyze"]["rate"]["separations"] = [0, 1, 2, 3]
        if cfg["model"]["kind"] not in ("csl", "dp"):  # baselines record no signal
            cfg["output"].pop("signal_sites")
        return cfg

    dp = {"kind": "dp", "sigma": 1.0, "kappa": 2.0, "G": 0.05}
    return {"demo": base, "dp": variant(dp), "pure": variant(representation="pure"),
            "mean": variant(representation="mean"), "dp-pure": variant(dp, "pure"),
            "dp-mean": variant(dp, "mean"),
            "sn": variant({"kind": "sn", "sigma": 1.0, "G": 0.05}, "pure"),
            "pair": variant({"kind": "pair", "G": 0.05}, two=True),
            "pair-pure": variant({"kind": "pair", "G": 0.05}, "pure", two=True),
            "two": variant(two=True), "two-pure": variant(representation="pure", two=True),
            "two-3d": variant(representation="pure", two=True, dims=3)}


def run_cli(tmp: Path) -> None:
    import yaml

    from collapsesim import cli

    base = yaml.safe_load((ROOT / "demos" / "run_config.yaml").read_text(encoding="utf-8"))
    for name, data in config_variants(base).items():
        path = tmp / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
        common = ["--config", str(path), "--out", str(tmp / name)]
        if name != "demo":  # the cli_demo workload runs the full demo run
            _quiet(cli.main, ["run"] + common)
        for what in ("rate", "pair-potential", "kappa-scan", "linearity"):
            _quiet(cli.main, ["analyze", what] + common)
    bad = copy.deepcopy(base)  # a non-mapping particle and a number that is not one
    bad["particles"].insert(0, 3)
    bad["integration"]["dt"] = "fast"
    path = tmp / "bad.yaml"
    path.write_text(yaml.safe_dump(bad, sort_keys=False), encoding="utf-8")
    _quiet(cli.main, ["run", "--config", str(path), "--out", str(tmp / "bad")])
    for argv in (["presets"], ["presets", "--json"]):
        _quiet(cli.main, argv)
    saved = sys.argv
    sys.argv = ["collapse-sim", "presets"]
    try:  # the module run as a script
        with contextlib.suppress(SystemExit):
            _quiet(runpy.run_module, "collapsesim.cli", None, "__main__")
    finally:
        sys.argv = saved


def run_demos(tmp: Path) -> None:
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for demo in sorted((ROOT / "demos").glob("*.py")):
            _quiet(runpy.run_path, str(demo), None, "__main__")
    finally:
        os.chdir(cwd)


def run_workloads(tmp: Path) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        (tmp / name).mkdir()
        path = tmp / name / "config.yaml"
        workload.write_config(1, "full", path)
        state = workload.setup(path)
        workload.prepare_checks(state, 1, "full")
        output = workload.collect(state, workload.op(state, 0))
        state.first_output[workload.input_key(0)] = output
        problems = workload.check(state, 0, output)
        if problems:
            raise SystemExit(f"workload {name}: {problems}")


def _reports_error(stmt: ast.stmt) -> bool:
    """Whether stmt raises or records a config error (errors.append or .extend)."""
    if isinstance(stmt, ast.Raise):
        return True
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "errors")


def excluded_lines(tree: ast.Module) -> set[int]:
    """Lines of docstrings and of the error paths: except blocks, exception
    classes, and every block of statements that raises or records an error."""
    out = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
        error_class = isinstance(node, ast.ClassDef) and any(
            getattr(base, "id", "").endswith("Error") for base in node.bases)
        if error_class or isinstance(node, ast.ExceptHandler):
            out.update(range(node.lineno, node.end_lineno + 1))
        for block in (getattr(node, key, None) for key in ("body", "orelse")):
            if isinstance(block, list) and any(map(_reports_error, block)):
                out.update(range(block[0].lineno, block[-1].end_lineno + 1))
    return out


def statement_lines(stmt: ast.stmt) -> range:
    """The lines of a simple statement, or the header of a compound one."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
        return range(first, body[0].lineno)
    return range(stmt.lineno, stmt.end_lineno + 1)


def unreached(path: Path) -> list[tuple[int, str]]:
    """(line, source) of each statement of path that no traced line falls
    in, and not inside one reported already; a try statement's header runs
    no code of its own and is skipped."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    hit, skip = reached.get(str(path), set()), excluded_lines(tree)
    text = source.splitlines()
    out, inside = [], set()
    for node in ast.walk(tree):  # breadth first: a statement before its body
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try):
            continue
        if node.lineno in skip or node.lineno in inside or hit.intersection(
                statement_lines(node)):
            continue
        out.append((node.lineno, text[node.lineno - 1].strip()))
        inside.update(range(node.lineno, node.end_lineno + 1))
    return sorted(out)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_calls)  # before the package is imported: its module lines count
    try:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            run_gate()
            run_cli(tmp)
            run_demos(tmp)
            run_workloads(tmp)
    finally:
        sys.settrace(None)
    missing = [(path, line, text) for path in sorted(SRC.glob("*.py"))
               for line, text in unreached(path)]
    for path, line, text in missing:
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missing)} unreached statements outside docstrings and error paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
