"""Cache of bases and formulas for export: versioned JSON, exact rationals.

Rationals serialize as "p/q" strings (plain "p" for integers) so nothing is
ever rounded.  Files are named {kind}-{level}.json; each holds one entry
with a checksum of its canonical payload, and writes are atomic
(write-temp-then-rename).  Nothing reads the files back except
store_formula, which merges into the level's existing formula file.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import namedtuple

from .cli import encode_rational

FORMAT_VERSION = 1


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    return "sha256:" + hashlib.sha256(_canonical(payload).encode()).hexdigest()[:32]


class CacheEntry(namedtuple("CacheEntry", "kind level payload checksum")):  # kind: "basis" | "formula"
    @staticmethod
    def wrap(kind: str, level: int, payload: dict) -> "CacheEntry":
        return CacheEntry(kind=kind, level=level, payload=payload, checksum=_checksum(payload))

    def verify(self) -> bool:
        return self.checksum == _checksum(self.payload)


def eta_to_payload(e: EtaQuotient) -> dict:
    return {"level": e.level, "exponents": [[d, r] for d, r in e.exponents]}


def generator_to_payload(g: CuspGenerator) -> dict:
    out = {"kind": g.kind, "eta": eta_to_payload(g.eta)}
    if g.e2_scale is not None:
        out["e2_scale"] = g.e2_scale
    return out


def basis_to_payload(b: ModularBasis) -> dict:
    return {
        "format": FORMAT_VERSION,
        "level": b.level,
        "eisenstein": list(b.eisenstein),
        "cusp": [generator_to_payload(g) for g in b.cusp],
        "matrix_checksum": b.checksum,
        "defects": list(b.defects),
    }


def formula_to_payload(f: ConvolutionFormula) -> dict:
    return {
        "format": FORMAT_VERSION,
        "level": f.level,
        "alpha": f.alpha,
        "beta": f.beta,
        "x": [[d, encode_rational(v)] for d, v in sorted(f.x.items())],
        "y": [encode_rational(v) for v in f.y],
        "basis_ref": f.basis.checksum,
        "verified_to": f.verified_to,
    }


class Cache:
    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, kind: str, level: int) -> str:
        return os.path.join(self.directory, f"{kind}-{level}.json")

    def _write(self, path: str, entry: CacheEntry) -> None:
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(entry._asdict(), fh, sort_keys=True, indent=1)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as e:
            raise ValueError(f"cannot write cache entry {path}: {e}") from e

    def _read(self, path: str) -> CacheEntry | None:
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as e:
            raise ValueError(f"cannot read cache entry {path}: {e}") from e
        names = CacheEntry._fields
        if not (
            isinstance(doc, dict)
            and all(name in doc for name in names)
            and isinstance(doc["payload"], dict)
        ):
            raise ValueError(f"cache entry {path} is malformed")
        entry = CacheEntry(**{name: doc[name] for name in names})
        if not entry.verify():
            raise ValueError(f"cache entry {path} fails its checksum")
        return entry

    def store_basis(self, basis: ModularBasis) -> CacheEntry:
        entry = CacheEntry.wrap("basis", basis.level, basis_to_payload(basis))
        self._write(self._path("basis", basis.level), entry)
        return entry

    def store_formula(self, f: ConvolutionFormula) -> CacheEntry:
        path = self._path("formula", f.level)
        existing = self._read(path)
        entries = {}
        if existing is not None:
            stored = existing.payload.get("entries", [])
            if not isinstance(stored, list) or not all(
                isinstance(e, dict) and isinstance(e.get("alpha"), int) and isinstance(e.get("beta"), int)
                for e in stored
            ):
                raise ValueError(f"cache entry {path} holds malformed formula entries")
            entries = {(e["alpha"], e["beta"]): e for e in stored}
        entries[(f.alpha, f.beta)] = formula_to_payload(f)
        payload = {
            "format": FORMAT_VERSION,
            "entries": [entries[k] for k in sorted(entries)],
        }
        entry = CacheEntry.wrap("formula", f.level, payload)
        self._write(path, entry)
        return entry
