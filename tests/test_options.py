"""The public keyword options of the package are the recorded ones.

``tests/data/options.json`` holds, for every function named in a module's
``__all__`` and for the constructor and every public method of every class
named there, the name and the default (its ``repr``) of each parameter that
has one, read with ``inspect.signature``; a callable without options is
recorded as ``{}``.  A change that adds, removes, renames or re-defaults an
option, or adds or removes a public callable, shows up here and in the diff
of that file.

Regenerate (only when a change of options is intended) with
``PYTHONPATH=src python tests/test_options.py``.

Two more surface checks stand in for a linter: no module under
``src/isotropykit`` imports a name it never uses (``__init__.py`` imports
only to re-export), and every module-level private function, class and
constant is read somewhere in the package beyond its own definition.
"""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import isotropykit

PATH = Path(__file__).parent / "data" / "options.json"


def _callables(mod):
    # (dotted name, function): the module's public functions, and the
    # constructor and public methods of its public classes
    for name in sorted(getattr(mod, "__all__", ())):
        obj = getattr(mod, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, fn in sorted(inspect.getmembers(obj, inspect.isfunction)):
                if attr == "__init__" or not attr.startswith("_"):
                    yield f"{name}.{attr}", fn


def record():
    out = {}
    for info in sorted(pkgutil.iter_modules(isotropykit.__path__), key=lambda m: m.name):
        mod = importlib.import_module(f"isotropykit.{info.name}")
        for name, fn in _callables(mod):
            out[f"{info.name}.{name}"] = {
                p.name: repr(p.default) for p in inspect.signature(fn).parameters.values()
                if p.default is not inspect.Parameter.empty}
    return out


def test_options_match_record():
    assert record() == json.loads(PATH.read_text())


def _unused_imports(tree):
    # the names a module imports and never reads
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    unused = {path.name: names
              for path in sorted(Path(isotropykit.__file__).parent.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def _private_definitions(tree):
    # name -> the module-level statement that defines it, for every private
    # function, class and constant of a module
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def _reads(node):
    # the names a statement reads, as a name or as an attribute
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def test_no_unreferenced_private_names():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(Path(isotropykit.__file__).parent.glob("*.py"))}
    # per module and top-level statement, the names it reads
    reads = [(module, node, _reads(node)) for module, tree in trees.items()
             for node in tree.body]
    checked, unread = 0, []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree).items():
            checked += 1
            if not any(name in names for m, node, names in reads
                       if (m, node) != (module, definition)):
                unread.append(f"{module}:{name}")
    assert checked >= 100
    assert unread == []


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1) + "\n")
