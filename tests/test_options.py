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
"""

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


if __name__ == "__main__":
    PATH.write_text(json.dumps(record(), indent=1) + "\n")
