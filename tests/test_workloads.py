"""Each benchmark workload sets up and answers its first operations correctly.

perfbench/workloads.py calls divconv through its public names
(`cli.main`, `eta.search_cusp_forms`, `q.vector()`, `provider.w`,
`rep_oracle`, ...) and compares each result with an oracle or a stored
golden file; one that a change deletes, renames or reshapes fails here
instead of in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


def _kind(op):
    # evaluate and table ops are (kind, a, b, n); a resolve op is a pair and
    # a search op a level, one kind each
    return op[0] if isinstance(op, tuple) and isinstance(op[0], str) else None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_first_ops_are_correct(name, tmp_path):
    workload = WORKLOADS[name](1, str(tmp_path))
    workload.setup()
    firsts = {}
    for op in workload.ops:
        firsts.setdefault(_kind(op), op)
    if name == "evaluate":
        assert set(firsts) == {"W", "N", "R"}
    for op in firsts.values():
        assert workload.run(op) == workload.expected(op), (name, op)
