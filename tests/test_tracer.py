"""The benchmark tracer installs on divconv, reads its spans, and puts
every name back.

perfbench/tracer.py binds divconv names by attribute and reads the values
they return; one that a change deletes, renames or reshapes makes install()
or a span's counters fail here instead of in a traced benchmark run.
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


def test_traced_run_records_every_layer_counter(capsys, tmp_path, provider):
    from divconv import cli, representation

    tracer_mod = _load_tracer()
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    tracer.enabled = True
    try:
        code = cli.main(["--machine", "--cache-dir", str(tmp_path), "convsum", "1", "33"])
        count = representation.count_N(1, 10, 250, provider.w)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert count == representation.count_N(1, 10, 250, provider.w)
    summary = tracer.summary()
    assert summary["convolution.basis_for"]["calls"] >= 1
    # the level-33 fixture probe fails and the repair basis replaces it
    assert summary["convolution.derive"]["failed"] == 1
    assert summary["spaces.repair"]["calls"] == 1
    assert summary["cache.store"]["calls"] == 2
    assert summary["cache.store"]["bytes"] == sum(
        p.stat().st_size for p in tmp_path.iterdir()
    )
    assert summary["representation.count"]["calls"] == 1
    assert summary["representation.count"]["w_calls"] >= 1
