"""Write perfbench/golden/ from the divconv in ./src (about a minute).

    PYTHONPATH=src python3 perfbench/make_golden.py

The golden files pin the `--machine` output and exit code of every
`convsum` the resolve workload runs, and the hit count and digest of the
search workload's result.  divconv promises byte-identical `--machine`
output and the same search output, so these files change only with a
change that is meant to alter those outputs.
"""

from __future__ import annotations

import json
import os
import tempfile

from workloads import GOLDEN, RESOLVE_PAIRS, SEARCH_BOUND, SEARCH_LEVELS, Resolve, Search


def main() -> None:
    scratch = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        resolve = Resolve(0, tmp)
        resolve.setup()
        golden = {}
        for a, b in RESOLVE_PAIRS:
            code, stdout = resolve.run((a, b))
            golden[f"{a},{b}"] = {"exit": code, "stdout": stdout}
    _dump("resolve.json", golden)

    search = Search(0, "")
    search.setup()
    _dump("search.json", {f"{N},{SEARCH_BOUND}": search.run(N) for N in SEARCH_LEVELS})


def _dump(name: str, doc: dict) -> None:
    os.makedirs(GOLDEN, exist_ok=True)
    with open(os.path.join(GOLDEN, name), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
