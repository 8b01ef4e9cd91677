"""Curve containers and the delimited-text format shared by all commands.

One record per grid point. The x column is the average received power in dB
for outage curves (x_kind "er_db") and the sum argument y for sum-CDF curves
(x_kind "y"). Values are written in scientific notation with 12 significant
digits; identical inputs produce byte-identical files (no timestamps).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DomainError

COLUMNS = ("label", "scheme", "source", "L", "rho", "sigma_G", "gamma_th",
           "x_kind", "x", "outage", "stderr", "n", "hits", "note")

SOURCES = ("asymptotic", "simulation", "exact", "baseline")


@dataclass(frozen=True)
class CurvePoint:
    x: float
    outage: Optional[float]      # None for annotated (e.g. pre-asymptotic) points
    stderr: Optional[float] = None
    n: Optional[int] = None
    hits: Optional[int] = None
    note: str = ""


@dataclass(frozen=True)
class Curve:
    label: str
    scheme: str
    source: str
    L: int
    rho: float
    sigma_G: float
    gamma_th: Optional[float]    # None where no threshold applies (sum-CDF curves)
    points: tuple[CurvePoint, ...] = field(default_factory=tuple)
    x_kind: str = "er_db"

    def __post_init__(self):
        if self.source not in SOURCES:
            raise DomainError(f"unknown curve source {self.source!r}")
        xs = [p.x for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise DomainError(f"curve {self.label!r}: x grid must be strictly increasing")
        for p in self.points:
            if p.outage is not None and not (-1e-12 <= p.outage <= 1.0 + 1e-12):
                raise DomainError(f"curve {self.label!r}: outage {p.outage!r} outside [0, 1]")


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12e}"
    return str(v)


def curves_to_text(curves: Sequence[Curve], meta: Optional[dict] = None) -> str:
    """Curves as comma-separated records with '#'-prefixed header metadata
    (sorted by key for reproducible bytes)."""
    stream = io.StringIO()
    for key in sorted((meta or {})):
        stream.write(f"# {key}={meta[key]}\n")
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(COLUMNS)
    for c in curves:
        for p in c.points:
            w.writerow([
                c.label, c.scheme, c.source, c.L, _fmt(c.rho), _fmt(c.sigma_G),
                _fmt(c.gamma_th), c.x_kind, _fmt(p.x), _fmt(p.outage),
                _fmt(p.stderr), "" if p.n is None else p.n,
                "" if p.hits is None else p.hits, p.note,
            ])
    return stream.getvalue()


def read_curves(stream) -> tuple[dict, list[Curve]]:
    """Inverse of curves_to_text: returns (meta, curves). Curves are grouped
    by label in file order."""
    meta: dict = {}
    rows = []
    header = None
    for line in stream:
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
            continue
        parsed = next(csv.reader([line]))
        if header is None:
            if tuple(parsed) != COLUMNS:
                raise DomainError(f"unexpected curve header {parsed!r}")
            header = parsed
            continue
        rows.append(dict(zip(COLUMNS, parsed)))
    if header is None:
        raise DomainError("no curve header found")

    def opt_float(s: str) -> Optional[float]:
        return float(s) if s else None

    def opt_int(s: str) -> Optional[int]:
        return int(s) if s else None

    curves: list[Curve] = []
    grouped: dict[str, list[dict]] = {}   # in file order
    for r in rows:
        grouped.setdefault(r["label"], []).append(r)
    for label, rs in grouped.items():
        first = rs[0]
        pts = tuple(
            CurvePoint(x=float(r["x"]), outage=opt_float(r["outage"]),
                       stderr=opt_float(r["stderr"]), n=opt_int(r["n"]),
                       hits=opt_int(r["hits"]), note=r["note"])
            for r in rs)
        curves.append(Curve(
            label=label, scheme=first["scheme"], source=first["source"],
            L=int(first["L"]), rho=float(first["rho"]), sigma_G=float(first["sigma_G"]),
            gamma_th=opt_float(first["gamma_th"]),
            points=pts, x_kind=first["x_kind"]))
    return meta, curves
