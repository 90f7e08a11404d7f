"""The benchmark tracer installs on divconv and puts every name back.

perfbench/tracer.py binds divconv names by attribute; one that a change
deletes or renames makes install() raise here instead of in a traced
benchmark run.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import divconv


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_names():
    # install patches every loaded divconv module, so load them all first
    for info in pkgutil.iter_modules(divconv.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"divconv.{info.name}")
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "divconv"
    }


def test_tracer_installs_and_restores_every_name():
    tracer_mod = _load_tracer()
    before = _module_names()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        patched = list(tracer._undo)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
    after = _module_names()
    assert after.keys() == before.keys()
    for name, names in before.items():
        assert after[name].keys() == names.keys(), name
        assert all(after[name][k] is v for k, v in names.items()), name
