"""Every top-level function and class of the package has a caller outside
the tests: code in src/, demos/ or bench/ refers to it, or the acceptance
gate imports it.  A definition that only unit tests reach is dead code, and
so is a parameter default that only unit tests override.  Each output
format has one writer: cli._write_csv and cli._write_json.  And every
contraction goes through one name, lattice.einsum."""

import ast
import dataclasses
import inspect
import numbers
from pathlib import Path

from collapsesim import kernels

ROOT = Path(__file__).resolve().parents[1]
PUBLIC_API = {"fit_offdiagonal_decay"}  # exported from collapsesim; only tests call it


def definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def references(tree, path, own):
    """Names, attributes and imported names in tree (imports in __init__.py
    excluded), and the attribute names that bench/spans.py wraps; a
    definition's references to itself in its own body are left out.  own
    is whether tree is a module of the package."""
    found = set()
    for top in tree.body:
        skip = getattr(top, "name", None) if own else None  # a def or class statement
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                found.update(alias.name for alias in node.names)
                continue
            elif (path.name == "spans.py" and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap"):
                found.update(arg.value for arg in node.args if isinstance(arg, ast.Constant))
                continue
            else:
                continue
            if name != skip:
                found.add(name)
    return found


def unreferenced(root: Path) -> list[str]:
    """module.name of each top-level definition in root/src/collapsesim
    that nothing in root's src, demos or bench code (bench tests excluded)
    refers to and that root/tests/test_acceptance.py does not import."""
    package = sorted((root / "src" / "collapsesim").glob("*.py"))
    callers = sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in package + callers}
    used = set(PUBLIC_API)
    for path, tree in trees.items():
        used |= references(tree, path, own=path in package)
    gate = ast.parse((root / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used |= {alias.name for node in ast.walk(gate) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    return [f"{path.stem}.{node.name}" for path in package
            for node in definitions(trees[path]) if node.name not in used]


def test_every_definition_has_a_caller_outside_the_tests():
    assert unreferenced(ROOT) == []


def defaults(fn, method):
    """(position, name) of each parameter of fn that has a default; a
    method's positions skip self or cls, and a keyword-only one has None."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = int(method and not any(getattr(d, "id", None) == "staticmethod"
                                  for d in fn.decorator_list))
    first = len(positional) - len(args.defaults)
    return ([(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
            + [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def passed(call, position, name):
    """Whether call passes the parameter at position (None: keyword-only)
    named name; *args and **kwargs count as passing whatever they may."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    return position is not None and any(i == position or isinstance(arg, ast.Starred)
                                        for i, arg in enumerate(call.args[:position + 1]))


def unpassed(root: Path) -> list[str]:
    """module.function(parameters) for each top-level function and method
    (an __init__ under its class name) of root/src/collapsesim whose listed
    defaulted parameters no call passes, counting the calls by name in
    root's src, demos and bench code (bench tests excluded) and in
    root/tests/test_acceptance.py."""
    package = sorted((root / "src" / "collapsesim").glob("*.py"))
    callers = (package + sorted((root / "demos").glob("*.py"))
               + sorted((root / "bench").glob("*.py")) + [root / "tests" / "test_acceptance.py"])
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in callers}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path in package:
        for top in definitions(trees[path]):
            if top.name in PUBLIC_API:
                continue
            if isinstance(top, ast.ClassDef):
                fns = [(f"{top.name}.{fn.name}", top.name if fn.name == "__init__" else fn.name,
                        fn, True) for fn in top.body
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
            else:
                fns = [(top.name, top.name, top, False)]
            for where, called, fn, method in fns:
                missing = [name for position, name in defaults(fn, method)
                           if not any(passed(c, position, name) for c in calls.get(called, []))]
                if missing:
                    found.append(f"{path.stem}.{where}({', '.join(missing)})")
    return found


def test_every_default_is_overridden_outside_the_tests():
    # a default that no caller outside the unit tests overrides selects a
    # code path that only the tests reach
    assert unpassed(ROOT) == []


def file_writers(root: Path) -> list[str]:
    """module.definition (module.<module> for top-level statements) of each
    open() for writing in root/src/collapsesim, whose mode, positional or
    keyword, holds w, a, x or + (a mode that is not a literal counts), and
    module: import csv for each import of the csv module there."""
    found = []
    for path in sorted((root / "src" / "collapsesim").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                    found.append(f"{path.stem}: import csv")
                elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                    found.append(f"{path.stem}: import csv")
                elif (isinstance(node, ast.Call)
                      and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                      == "open"):
                    position = 1 if isinstance(node.func, ast.Name) else 0  # path.open(mode)
                    modes = [k.value for k in node.keywords if k.arg == "mode"]
                    modes += node.args[position:position + 1]
                    if any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value)
                           for m in modes):
                        found.append(where)
    return found


def test_one_writer_per_output_format():
    # every CSV goes through cli._write_csv and every JSON file through
    # cli._write_json, so no second path can format an output differently
    assert [w for w in file_writers(ROOT) if w not in {"cli._write_csv", "cli._write_json"}] == []


def contractions(root: Path) -> list[str]:
    """module.definition:line (module.<module> for top-level statements) of
    each np.einsum or numpy.einsum attribute and each import of einsum or
    c_einsum from numpy in root/src/collapsesim."""
    found = []
    for path in sorted((root / "src" / "collapsesim").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in sorted(ast.walk(top), key=lambda n: getattr(n, "lineno", 0)):
                if (isinstance(node, ast.Attribute) and node.attr == "einsum"
                        and getattr(node.value, "id", None) in ("np", "numpy")):
                    found.append(f"{where}:{node.lineno}")
                elif (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
                      and any(a.name in ("einsum", "c_einsum") for a in node.names)):
                    found.append(f"{where}:{node.lineno}")
    return found


def test_one_contraction_binding():
    # every einsum in src calls lattice.einsum, numpy's C contraction bound
    # once (np.einsum where numpy has no numpy._core), so no call site pays
    # np.einsum's Python dispatch or can take a different contraction
    found = contractions(ROOT)
    binding = [w for w in found if w.startswith("lattice.<module>:")]
    assert [w for w in found if w not in binding] == []
    assert len(binding) == 2  # the c_einsum import and its np.einsum fallback


def test_kernels_default_no_model_setting():
    # models.ModelSpec is the one home of the strengths and G: no field of
    # CorrelationKernel and no kernels function gives them a number of its own
    names = ("gamma", "kappa", "G")
    found = {f"CorrelationKernel.{f.name}": f.default
             for f in dataclasses.fields(kernels.CorrelationKernel) if f.name in names}
    for fname, fn in inspect.getmembers(kernels, inspect.isfunction):
        if fn.__module__ == kernels.__name__:
            found.update({f"{fname}({p.name})": p.default
                          for p in inspect.signature(fn).parameters.values() if p.name in names})
    assert {"CorrelationKernel.gamma", "coulomb_potential(G)", "axis_coulomb_3d(G)"} <= set(found)
    assert {where: d for where, d in found.items() if isinstance(d, numbers.Number)} == {}
