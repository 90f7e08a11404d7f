import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divconv
from divconv import cli
from divconv.cache import CacheEntry
from divconv.cli import main


def _src_env():
    # the environment of a `python -m divconv.cli` child that imports this tree
    src = str(Path(divconv.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims(capsys):
    code, out, _ = run_cli(capsys, "dims", "33")
    assert code == 0
    assert "dim_E4=4" in out and "dim_S4=10" in out


def test_dims_machine_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "--machine", "dims", "56")
    code2, out2, _ = run_cli(capsys, "--machine", "dims", "56")
    assert code == code2 == 0
    assert out1 == out2 == (
        '{\n "cusp_count": 8,\n "dim_E4": 8,\n "dim_M4": 28,\n "dim_S4": 20,\n'
        ' "eps2": 0,\n "eps3": 0,\n "genus": 5,\n "in_class": true,\n'
        ' "index_mu": 96,\n "level": 56\n}\n'
    )


def test_search_cusp_level_1_empty(capsys):
    code, out, _ = run_cli(capsys, "search-cusp", "1")
    assert code == 0
    assert "0 cusp quotients" in out


def test_search_cusp_level_12(capsys):
    code, out, _ = run_cli(capsys, "--machine", "search-cusp", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] >= 3
    assert any(q["order"] == 1 for q in doc["quotients"])


@pytest.mark.parametrize(
    "argv, sha256",
    [
        ("search-cusp 40 --bound 4", "0e7b6ab05f98057e63044ddddb58e998ea67cecd448d7e94467e5286612593cc"),
        ("search-cusp 40 --strict", "1f717293f4d43216ecc888ccec6ad2b64503ada227c4d0d3dae8b98f54f60131"),
        ("search-cusp 12", "bfa93d13c59ee706df049f9046bcbc07a50d42f669049f1ca3ce6f14e0e06e82"),
        # three and two divisors: the prefix is the exponent at delta = N alone
        ("search-cusp 4", "b4bd4acc3436645aba1e77aaa4cd6f095527c7767164a1ab0645a151e4da11c7"),
        ("search-cusp 11", "52d0b3815f2005a963754808518c4493581c1039a34d2752f5cb7c0379c16463"),
        # documents built from the records: generators, bases (searched,
        # fixture and repaired), a formula and representation counts
        ("basis 12", "e0c86b59c3b68efe0263d197e04181c91ed97e60532cf8f727ef5ac304504251"),
        ("basis 40 --use-fixture", "e7dbac481cdbf1e335eb46f730c36f2ad08147b74b8d7539fa125a19f8429f79"),
        ("basis 42 --repair", "970b14415ff47c47616110f3298e435482eea702b8074a9471b373dbef5bb4a9"),
        ("convsum 1 10 --use-fixture", "5b25985912f965a6319c16c4e11f05d9760545b665d303fc75a304d84215ca5c"),
        ("repnum --form quad 1 10 50", "9a95d8b552c760de82f70d28f653e720cb3f5029ef5f221d35eea4ba6f66da2c"),
        ("repnum --form hex 1 11 40", "590c5386376febcafcbc9e8af9eb61baf3708c4ec08cd5147c3fc4d9b68561fb"),
    ],
)
def test_machine_output_pinned(capsys, argv, sha256):
    # the exact --machine stdout: every field, row and order
    code, out, _ = run_cli(capsys, "--machine", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_search_cusp_max_order_zero(capsys):
    code, out, _ = run_cli(capsys, "--machine", "search-cusp", "12", "--max-order", "0")
    assert code == 0
    doc = json.loads(out)
    assert (doc["count"], doc["max_order"]) == (0, 0)


def test_basis_fixture(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--machine", "--cache-dir", str(tmp_path), "basis", "10", "--use-fixture"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cusp"]) == 3
    assert (tmp_path / "basis-10.json").exists()


def test_convsum_diagonal(capsys):
    code, out, _ = run_cli(capsys, "convsum", "2", "2")
    assert code == 0
    assert "W_(1,1)(n/2)" in out and "5/12" in out


def test_convsum_fixture_level_10(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "--machine",
        "--cache-dir",
        str(tmp_path),
        "convsum",
        "1",
        "10",
        "--use-fixture",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma3_terms"]["1"] == "1/312"
    assert doc["sigma3_terms"]["10"] == "25/78"
    assert doc["cusp_terms"]["1"] == "-31/1560"
    assert doc["verified_to"] == 200
    assert (tmp_path / "formula-10.json").exists()


RESOLVE_GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden" / "resolve.json"


def test_convsum_machine_matches_resolve_golden(capsys):
    # every pair the resolve benchmark runs, byte for byte; the golden file
    # is read, never rewritten
    golden = json.loads(RESOLVE_GOLDEN.read_text())
    for key, want in golden.items():
        a, b = key.split(",")
        code, out, _ = run_cli(capsys, "--machine", "convsum", a, b)
        assert (code, out) == (want["exit"], want["stdout"]), key


def test_convsum_gcd_reduction_note(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--cache-dir", str(tmp_path), "convsum", "2", "20", "--use-fixture"
    )
    assert code == 0
    assert "W_(1,10)(n/2)" in out


def test_convsum_unsupported_level(capsys):
    code, _, err = run_cli(capsys, "convsum", "1", "9")
    assert code == 3
    assert "class" in err


def test_convsum_notes_an_unusable_fixture_basis(capsys):
    # the note reads the basis's own fixture_failure; a level whose fixture
    # basis serves (10) or that has none (42) prints no note
    code, out, _ = run_cli(capsys, "convsum", "1", "33")
    assert code == 0
    assert out.splitlines()[0] == (
        "note: fixture basis unusable (level 33 (3,11): no exact solution; the basis "
        "does not span the squared Eisenstein difference); using repaired basis"
    )
    for a, b in (("1", "10"), ("6", "7")):
        code, out, _ = run_cli(capsys, "convsum", a, b)
        assert code == 0
        assert "note:" not in out


def test_convsum_fixture_33_reports_failure(capsys):
    code, _, err = run_cli(capsys, "convsum", "1", "33", "--use-fixture")
    assert code == 3
    assert "span" in err


@pytest.mark.parametrize("argv", ["search-cusp 40 --bound 0"])
def test_search_bound_below_one_exits_2(capsys, argv):
    value = argv.split()[-1]
    assert run_cli(capsys, *argv.split()) == (2, "", f"error: search bound must be >= 1, got {value}\n")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param("convsum 1 2 --verify -5", id="-5"),
        pytest.param("convsum 1 2 --verify 0", id="0"),
        # the diagonal, fixture and repair paths refuse them alike
        "convsum 2 2 --verify -5",
        "convsum 4 4 --verify 0",
        "convsum 1 10 --verify 100000000",
        "convsum 1 10 --bound 0",
        "convsum 1 10 --use-fixture --bound 0",
        "convsum 2 2 --bound 0",
        "convsum 1 14 --bound 0",
        "repnum --form quad 1 10 5 --bound 0",
        "repnum --form quad 1 14 5 --bound 0",
        # basis searches at SEARCH_BOUND on every path
        "basis 10 --use-fixture --bound 0",
        "basis 10 --bound 0",
        "basis 10 --repair --bound 0",
        "basis 10 --bound 10",
    ],
)
def test_convsum_rejects_verify_below_one(capsys, argv):
    # convsum, repnum and basis take no depth and no bound at all, so each
    # has one configuration: any --verify or --bound is an argparse usage error
    with pytest.raises(SystemExit) as e:
        main(argv.split())
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_basis_repair_without_spanning_basis_exits_3(capsys):
    assert run_cli(capsys, "basis", "21", "--repair") == (
        3,
        "",
        "unsupported level: level 21: no spanning weight-4 cusp basis: only 0 independent "
        "generators of 6 needed; orders not represented: [1, 2, 3, 4, 5, 6]\n",
    )


def test_basis_use_fixture_with_repair_exits_2(capsys):
    # one mode per basis: the fixture or the repair search, never both
    with pytest.raises(SystemExit) as e:
        main(["basis", "10", "--use-fixture", "--repair"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --repair: not allowed with argument --use-fixture\n")


# one cheap invocation per subcommand
GLOBAL_FLAG_CASES = [
    "dims 56",
    "search-cusp 12 --bound 4",
    "basis 10 --use-fixture",
    "convsum 1 10 --use-fixture",
    "repnum --form quad 1 10 5",
    "verify-paper",
]


@pytest.mark.parametrize("argv", GLOBAL_FLAG_CASES)
def test_global_flags_before_and_after_the_subcommand_agree(capsys, monkeypatch, tmp_path, argv):
    from divconv import verify

    # verify-paper runs two cheap items and no regeneration search
    cheap_items = lambda provider: verify.check_dimensions() + verify.check_omega_sets()
    monkeypatch.setattr(verify, "run_all", cheap_items)
    cmd = argv.split()
    runs = []
    for where in ("before", "after"):
        cache_dir = tmp_path / where
        flags = ["--machine", "--cache-dir", str(cache_dir)]
        code, out, err = run_cli(capsys, *(flags + cmd if where == "before" else cmd + flags))
        files = {f.name: f.read_bytes() for f in cache_dir.iterdir()} if cache_dir.exists() else {}
        runs.append((code, out, err, files))
    assert runs[0] == runs[1]
    code, out, _, files = runs[0]
    # both flags took effect: JSON on stdout, and the cache files of the
    # two subcommands that write any
    assert code == 0 and out.startswith("{")
    assert bool(files) == (cmd[0] in ("basis", "convsum"))

    # the namespace each command receives: main's defaults without the
    # flags, the values given with them in either place
    seen = []
    command = "cmd_" + cmd[0].replace("-", "_")
    monkeypatch.setattr(cli, command, lambda args: seen.append(args) or 0)
    main(cmd)
    main(["--machine", "--cache-dir", "d"] + cmd)
    main(cmd + ["--machine", "--cache-dir", "d"])
    assert [(a.machine, a.cache_dir) for a in seen] == [(False, None), (True, "d"), (True, "d")]


# one command per failure kind, each with its exit code and stderr prefix
FAILURE_KINDS = {
    "convsum 0 5": (2, "error: "),
    "repnum --form quad 2 4 6": (2, "error: "),
    # W_(1,10)(2*10^8) past the verified range: the direct sum refuses it at once
    "repnum --form quad 1 10 200000000": (2, "error: dispatch_W: "),
    "convsum 1 7 --use-fixture": (3, "unsupported level: "),
    "convsum 1 9": (3, "unsupported level: "),
    "convsum 1 21": (3, "unsupported level: "),
    # levels outside the class: every basis builder refuses them first
    "basis 9": (3, "unsupported level: "),
    "basis 16": (3, "unsupported level: "),
    "basis 48": (3, "unsupported level: "),
    "basis 48 --repair": (3, "unsupported level: "),
    "search-cusp 40 --bound 17": (3, "search too large: "),
    "convsum 1 33 --use-fixture": (3, "derivation failed: "),
    # a level above spaces.BASIS_LEVEL_CEILING: refused before any search
    "basis 1000000007": (3, "unsupported level: "),
    "basis 1000000007 --repair": (3, "unsupported level: "),
    "convsum 1 1000000007": (3, "unsupported level: "),
    # the level ceiling comes before the class, which would factorize the level
    "convsum 1 100000000000000000039": (3, "unsupported level: "),
    "repnum --form quad 1 100000000000000000039 5": (3, "unsupported level: "),
    # a 21-digit prime factor: trial division stops at its ceiling at once
    "dims 100000000000000000039": (2, "error: factorize: "),
}


def test_every_failure_is_one_stderr_line_from_main(capsys):
    for argv, (want, prefix) in FAILURE_KINDS.items():
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (want, ""), argv
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), argv


def test_basis_above_the_level_ceiling_exits_3_at_once():
    # without the ceiling, Case 2 selection expands a series of 2 dim S4,
    # about 6.7 * 10^8 rows, until memory runs out; the address-space limit
    # keeps such a regression from exhausting the machine
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run(
        [sys.executable, "-m", "divconv.cli", "basis", "1000000007"],
        capture_output=True,
        env=_src_env(),
        preexec_fn=limit,
        timeout=2,
    )
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == (
        b"unsupported level: level 1000000007 is above the basis ceiling "
        b"BASIS_LEVEL_CEILING = 10000\n"
    )


def test_dims_of_a_twelve_digit_prime_level(capsys):
    # the largest prime below the factorize ceiling still factors
    code, out, _ = run_cli(capsys, "dims", "999999999989")
    assert code == 0
    assert out.startswith("level 999999999989: index mu=999999999990 ")


def test_repnum_quad(capsys):
    code, out, _ = run_cli(capsys, "repnum", "--form", "quad", "1", "1", "1")
    assert code == 0
    assert "= 16" in out


def test_repnum_hex_machine(capsys):
    code, out, _ = run_cli(capsys, "--machine", "repnum", "--form", "hex", "1", "4", "6")
    assert code == 0
    doc = json.loads(out)
    from divconv.representation import rep_oracle

    assert doc["count"] == rep_oracle("hex", 1, 4, 6)
    assert doc["w_invocations"]


@pytest.mark.parametrize(
    "a, b, why",
    [
        pytest.param("0", "1", "must be positive, got (0, 1)", id="0-1"),
        pytest.param("1", "-2", "must be positive, got (1, -2)", id="1--2"),
        pytest.param("2", "4", "must be coprime", id="2-4"),
    ],
)
def test_repnum_rejects_nonpositive_pair(capsys, a, b, why):
    code, out, err = run_cli(capsys, "repnum", "--form", "quad", a, b, "5")
    assert (code, out, err) == (2, "", f"error: count_N: (a, b) {why}\n")


@pytest.mark.parametrize(
    "argv", [["dims", "10"], ["--machine", "convsum", "1", "10", "--use-fixture"]]
)
def test_closed_pipe_exits_quietly(argv):
    """A reader that has gone (`divconv ... | head -1`) costs the rest of
    the output, not a traceback or the exit code."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "divconv.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_src_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "module, unloaded, flags",
    [
        # verify and the printed values serve verify-paper alone, the cache
        # writer --cache-dir, representation repnum and the searches their
        # first call, so a convsum loads none; no record needs dataclasses
        pytest.param(
            "divconv.cli",
            [
                "divconv.verify",
                "divconv.published",
                "divconv.cache",
                "divconv.representation",
                "divconv.search",
                "dataclasses",
                "inspect",
            ],
            [],
            id="divconv.cli",
        ),
        # the library never reads the printed values, nor searches on import
        pytest.param("divconv.spaces", ["divconv.published", "divconv.search"], [], id="divconv.spaces"),
        pytest.param("divconv.cache", ["dataclasses"], [], id="divconv.cache"),
        pytest.param("divconv.verify", ["dataclasses"], [], id="divconv.verify"),
        # without site, which may load them itself, nothing of ours does
        pytest.param("divconv.cli", ["typing", "tempfile"], ["-S"], id="divconv.cli-S"),
    ],
)
def test_import_leaves_unused_modules_unloaded(module, unloaded, flags):
    code = f"import sys, {module}; print([m for m in {unloaded!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, env=_src_env(), timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[]\n", b"")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["dims"])  # missing level
    assert e.value.code == 2


def test_unknown_command_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_cache_rejects_tampering(tmp_path, provider):
    # the one read left: store_formula merges into the level's formula file
    from divconv.cache import Cache

    cache = Cache(str(tmp_path))
    f = provider.formula(1, 10)
    cache.store_formula(f)
    path = tmp_path / "formula-10.json"
    doc = json.loads(path.read_text())
    doc["payload"]["entries"][0]["verified_to"] = 10**6
    path.write_text(json.dumps(doc))
    tampered = path.read_bytes()
    with pytest.raises(ValueError, match="fails its checksum"):
        cache.store_formula(f)
    assert path.read_bytes() == tampered


# the last holds a valid checksum over a payload this package never writes
_FORGED_ENTRIES = json.dumps(CacheEntry.wrap("formula", 10, {"entries": [1]})._asdict())


@pytest.mark.parametrize(
    "content, problem",
    [
        ("{}", "is malformed"),
        ("[1]", "is malformed"),
        (_FORGED_ENTRIES, "holds malformed formula entries"),
    ],
    ids=["object", "list", "forged-entries"],
)
def test_convsum_refuses_malformed_cache_entry(capsys, tmp_path, content, problem):
    (tmp_path / "formula-10.json").write_text(content)
    code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), "convsum", "1", "10")
    assert (code, out) == (2, "")
    assert err == f"error: cache entry {tmp_path / 'formula-10.json'} {problem}\n"
    # the refused formula store comes first, so nothing else is written
    assert not (tmp_path / "basis-10.json").exists()


def test_cache_dir_that_is_a_file_exits_2(capsys, tmp_path):
    target = tmp_path / "not-a-directory"
    target.write_text("")
    code, out, err = run_cli(capsys, "--cache-dir", str(target), "convsum", "1", "10")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write cache entry {target / 'formula-10.json'}: ")
    assert err.count("\n") == 1 and str(target) in err


def test_cache_files_are_deterministic(tmp_path, provider):
    from divconv.cache import Cache

    f = provider.formula(1, 10)
    for run in ("a", "b"):
        cache = Cache(str(tmp_path / run))
        cache.store_basis(f.basis)
        cache.store_formula(f)
    for name in ("basis-10.json", "formula-10.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # no field, such as a timestamp, that differs between identical runs
        doc = json.loads((tmp_path / "a" / name).read_text())
        assert sorted(doc) == ["checksum", "kind", "level", "payload"]


def test_convsum_without_cache_dir_writes_nothing(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path))
    code, _, _ = run_cli(capsys, "convsum", "1", "10", "--use-fixture")
    assert code == 0
    code, _, _ = run_cli(capsys, "basis", "10", "--use-fixture")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


# Inputs that never start a repair search: dims, convsum on fixture bases,
# and repnum whose W calls stay at the fixture-resolved levels 10 and 40.
# count_R of a coprime pair calls W at 3ab, a level no fixture resolves
# here, so hex counts are drawn only for n <= 0.
_REPNUM_PAIRS = [(1, 10), (10, 1), (2, 5), (5, 2), (2, 4), (0, 3), (1, 0), (-1, 1)]
_cli_inputs = st.one_of(
    st.builds(lambda N: ["dims", str(N)], st.integers(-5, 3000)),
    st.builds(
        lambda a, b: ["convsum", str(a), str(b), "--use-fixture"],
        st.integers(-1, 60),
        st.integers(-1, 60),
    ),
    st.builds(
        lambda ab, n: ["repnum", "--form", "quad", str(ab[0]), str(ab[1]), str(n)],
        st.sampled_from(_REPNUM_PAIRS),
        st.integers(-3, 250),
    ),
    st.builds(
        lambda ab, n: ["repnum", "--form", "hex", str(ab[0]), str(ab[1]), str(n)],
        st.sampled_from(_REPNUM_PAIRS),
        st.integers(-3, 0),
    ),
)


@settings(max_examples=40)
@given(_cli_inputs, st.booleans())
def test_cli_exit_codes(argv, machine):
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main((["--machine"] if machine else []) + argv)
    except SystemExit as e:
        assert e.code == 2  # argparse usage error
        return
    assert code in (0, 2, 3, 4)
