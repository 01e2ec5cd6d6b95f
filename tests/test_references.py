"""Every top-level function and class of the package has a caller outside
the tests: code in src/, demos/ or bench/ refers to it, or the acceptance
gate imports it.  A definition that only unit tests reach is dead code, and
so is a parameter default that only unit tests override.  Each output
format has one writer: cli._write_csv and cli._write_json.  Every
contraction goes through one name, lattice.einsum.  And only
run_ensemble's certificate reaches _commutator's hermitian flag."""

import ast
import dataclasses
import inspect
import numbers
import shutil
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


def scoped(tree, module):
    """(module.qualname of the innermost enclosing def or class, node) for
    every node of tree."""
    for child in ast.iter_child_nodes(tree):
        inner = module
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{module}.{child.name}"
        yield inner, child
        yield from scoped(child, inner)


FLAG_CALLS = {"_commutator": ("engine._euler", 3), "_euler": ("engine.combined_step", 7)}
TABLES_PASSERS = {"models.Model.advance", "engine.run_ensemble"}


def hermitian_flag_paths(root: Path) -> list[str]:
    """module.qualname:line of each statement in root's src, demos and
    bench code (bench tests excluded) that could hand _commutator a
    hermitian flag other than run_ensemble's certificate.  The one path is:
    run_ensemble sets certified only from _certified and ends every tables
    tuple with it; only it and Model.advance pass tables, by that name;
    combined_step unpacks hermitian from tables alone and passes it last to
    _euler, which passes it last to _commutator.  A flag set anywhere else
    would let a step take one product for a state that is not Hermitian,
    and silently change its bytes."""
    paths = (sorted((root / "src" / "collapsesim").glob("*.py"))
             + sorted((root / "demos").glob("*.py")) + sorted((root / "bench").glob("*.py")))
    found = []
    for path in paths:
        for where, node in scoped(ast.parse(path.read_text(encoding="utf-8")), path.stem):
            bad = False
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in FLAG_CALLS and len(node.args) + len(node.keywords) >= FLAG_CALLS[name][1]:
                    bad = (where != FLAG_CALLS[name][0] or bool(node.keywords)
                           or getattr(node.args[-1], "id", None) != "hermitian")
                tables = [k.value for k in node.keywords if k.arg == "tables"]
                bad |= name == "combined_step" and len(node.args) >= 10  # tables by position
                bad |= bool(tables) and (where not in TABLES_PASSERS
                                         or getattr(tables[0], "id", None) != "tables")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                value = node.value
                if "certified" in names:
                    bad |= where != "engine.run_ensemble" or not any(
                        getattr(n, "id", None) == "_certified" for n in ast.walk(value))
                if "tables" in names and where == "engine.run_ensemble":
                    bad |= not (isinstance(value, ast.Tuple)
                                and getattr(value.elts[-1], "id", None) == "certified")
                if "hermitian" in names:
                    constants = [n.value for n in ast.walk(value) if isinstance(n, ast.Constant)]
                    bad |= (where != "engine.combined_step"
                            or "tables" not in {getattr(n, "id", None) for n in ast.walk(value)}
                            or any(c not in (None, False) for c in constants))
            if bad:
                found.append(f"{where}:{node.lineno}")
    return found


def test_only_the_run_certificate_sets_the_hermitian_flag():
    assert hermitian_flag_paths(ROOT) == []


def test_hermitian_flag_guard_sees_a_constant_flag(tmp_path):
    # the guard itself: a run whose tables carry True instead of the
    # certificate is found where it is built
    src = tmp_path / "src" / "collapsesim"
    shutil.copytree(ROOT / "src" / "collapsesim", src)
    engine = src / "engine.py"
    text = engine.read_text(encoding="utf-8")
    assert text.count("sums[b % chunk], certified)") == 1
    engine.write_text(text.replace("sums[b % chunk], certified)", "sums[b % chunk], True)"),
                      encoding="utf-8")
    line = 1 + text[:text.index("sums[b % chunk], certified)")].count("\n")
    assert hermitian_flag_paths(tmp_path) == [f"engine.run_ensemble:{line}"]
