"""Persistent cache for bases and formulas: versioned JSON, exact rationals.

Rationals serialize as "p/q" strings (plain "p" for integers) so nothing is
ever rounded.  Files are named {kind}-{level}.json; each holds one entry
with a checksum of its canonical payload, and writes are atomic
(write-temp-then-rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .convolution import ConvolutionFormula
from .eta import EtaQuotient
from .spaces import CuspGenerator, ModularBasis, build_basis

FORMAT_VERSION = 1


def encode_rational(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def decode_rational(s: str) -> Fraction:
    return Fraction(s)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: dict) -> str:
    return "sha256:" + hashlib.sha256(_canonical(payload).encode()).hexdigest()[:32]


@dataclass(frozen=True)
class CacheEntry:
    kind: str  # "basis" | "formula"
    level: int
    payload: dict
    checksum: str
    created: str

    @staticmethod
    def wrap(kind: str, level: int, payload: dict) -> "CacheEntry":
        return CacheEntry(
            kind=kind,
            level=level,
            payload=payload,
            checksum=_checksum(payload),
            created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        )

    def verify(self) -> bool:
        return self.checksum == _checksum(self.payload)


def eta_to_payload(e: EtaQuotient) -> dict:
    return {"level": e.level, "exponents": [[d, r] for d, r in e.exponents]}


def eta_from_payload(p: dict) -> EtaQuotient:
    return EtaQuotient.make(p["level"], {d: r for d, r in p["exponents"]})


def generator_to_payload(g: CuspGenerator) -> dict:
    out = {"kind": g.kind, "eta": eta_to_payload(g.eta)}
    if g.e2_scale is not None:
        out["e2_scale"] = g.e2_scale
    return out


def generator_from_payload(p: dict) -> CuspGenerator:
    return CuspGenerator(
        kind=p["kind"],
        eta=eta_from_payload(p["eta"]),
        e2_scale=p.get("e2_scale"),
    )


def basis_to_payload(b: ModularBasis) -> dict:
    return {
        "format": FORMAT_VERSION,
        "level": b.level,
        "eisenstein": list(b.eisenstein),
        "cusp": [generator_to_payload(g) for g in b.cusp],
        "matrix_checksum": b.checksum,
        "defects": list(b.defects),
    }


def basis_from_payload(p: dict, T: int) -> ModularBasis:
    gens = [generator_from_payload(g) for g in p["cusp"]]
    # the stored defects already hold the ones build_basis recomputes
    basis = replace(build_basis(p["level"], gens, T), defects=list(p.get("defects", [])))
    if basis.checksum != p["matrix_checksum"]:
        raise ValueError(
            f"cached basis for level {p['level']} fails its matrix checksum"
        )
    return basis


def formula_to_payload(f: ConvolutionFormula) -> dict:
    return {
        "format": FORMAT_VERSION,
        "level": f.level,
        "alpha": f.alpha,
        "beta": f.beta,
        "x": [[d, encode_rational(v)] for d, v in sorted(f.x.items())],
        "y": [encode_rational(v) for v in f.y],
        "basis_ref": f.basis_ref,
        "verified_to": f.verified_to,
    }


def formula_from_payload(p: dict) -> ConvolutionFormula:
    return ConvolutionFormula(
        alpha=p["alpha"],
        beta=p["beta"],
        level=p["level"],
        x={d: decode_rational(v) for d, v in p["x"]},
        y=[decode_rational(v) for v in p["y"]],
        basis_ref=p["basis_ref"],
        verified_to=p["verified_to"],
    )


class Cache:
    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, kind: str, level: int) -> str:
        return os.path.join(self.directory, f"{kind}-{level}.json")

    def _write(self, path: str, entry: CacheEntry) -> None:
        os.makedirs(self.directory, exist_ok=True)
        doc = {
            "kind": entry.kind,
            "level": entry.level,
            "payload": entry.payload,
            "checksum": entry.checksum,
            "created": entry.created,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def _read(self, path: str) -> CacheEntry | None:
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            doc = json.load(fh)
        entry = CacheEntry(
            kind=doc["kind"],
            level=doc["level"],
            payload=doc["payload"],
            checksum=doc["checksum"],
            created=doc["created"],
        )
        if not entry.verify():
            raise ValueError(f"cache entry {path} fails its checksum")
        return entry

    def store_basis(self, basis: ModularBasis) -> CacheEntry:
        entry = CacheEntry.wrap("basis", basis.level, basis_to_payload(basis))
        self._write(self._path("basis", basis.level), entry)
        return entry

    def load_basis(self, level: int, T: int) -> ModularBasis | None:
        entry = self._read(self._path("basis", level))
        if entry is None:
            return None
        return basis_from_payload(entry.payload, T)

    def store_formula(self, f: ConvolutionFormula) -> CacheEntry:
        path = self._path("formula", f.level)
        existing = self._read(path)
        entries = {}
        if existing is not None:
            entries = {
                (e["alpha"], e["beta"]): e for e in existing.payload.get("entries", [])
            }
        entries[(f.alpha, f.beta)] = formula_to_payload(f)
        payload = {
            "format": FORMAT_VERSION,
            "entries": [entries[k] for k in sorted(entries)],
        }
        entry = CacheEntry.wrap("formula", f.level, payload)
        self._write(path, entry)
        return entry

    def load_formula(self, alpha: int, beta: int) -> ConvolutionFormula | None:
        if alpha > beta:
            alpha, beta = beta, alpha
        entry = self._read(self._path("formula", alpha * beta))
        if entry is None:
            return None
        for e in entry.payload.get("entries", []):
            if e["alpha"] == alpha and e["beta"] == beta:
                return formula_from_payload(e)
        return None
