"""Check-matrix file formats and code loading.

Supported formats:

* alist — the standard LDPC adjacency format: first line "n r", then
  max column/row degrees, the n column degrees, the r row degrees, one
  adjacency line per column and one per row (1-based, zero-padded
  entries tolerated on read, written padded).
* dense — one line of 0/1 characters per row.

Quantum codes load from a JSON manifest naming the H_X and H_Z files
(or carrying the rows inline), or from builtin specs: "desk[:seed]"
(hypergraph product of a seeded (3,4)-regular classical code) and
"hgp:m,n" (repetition-code product, the [[m*n + (m-1)(n-1), 1, min(m,n)]]
family).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import replace

from .codes import OperatorSet, SubsystemCode, css_code, hgp, repetition_check
from .gf2 import Gf2Matrix, set_bits


class ParseError(ValueError):
    def __init__(self, path, line, col, message):
        super().__init__(f"{path}:{line}:{col}: {message}")
        self.line = line
        self.col = col


def _read_int_line(path, lines, idx, expect):
    if idx >= len(lines):
        raise ParseError(path, idx + 1, 1, "unexpected end of file")
    parts = lines[idx].split()
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        bad = next(p for p in parts if not p.lstrip("-").isdigit())
        col = lines[idx].index(bad) + 1
        raise ParseError(path, idx + 1, col, f"expected integers, got {bad!r}")
    if expect is not None and len(vals) != expect:
        raise ParseError(path, idx + 1, 1,
                         f"expected {expect} integers, got {len(vals)}")
    return vals


def load_alist(path: str) -> Gf2Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    # blank lines are skipped, so a line that can hold no entry is not read:
    # `save_alist` leaves it blank (the degrees of an empty side, every
    # adjacency line of a side whose degrees are all zero)
    lines = [ln for ln in lines if ln.strip() != ""]
    n, r = _read_int_line(path, lines, 0, 2)
    if n < 0 or r < 0:
        raise ParseError(path, 1, 1, "negative dimensions")
    _read_int_line(path, lines, 1, 2)  # max degrees, informational
    col_deg = _read_int_line(path, lines, 2, n) if n else []
    at = 2 + (n > 0)
    row_deg = _read_int_line(path, lines, at, r) if r else []
    row_deg_line = at + 1
    at += r > 0
    if sum(col_deg) != sum(row_deg):
        raise ParseError(path, row_deg_line, 1,
                         "column/row degree totals disagree")
    rows = [0] * r
    col_lines = n if any(col_deg) else 0
    for j in range(col_lines):
        entries = _read_int_line(path, lines, at + j, None)
        live = [e for e in entries if e != 0]
        if len(live) != col_deg[j]:
            raise ParseError(path, at + j + 1, 1,
                             f"column {j + 1} lists {len(live)} entries, "
                             f"degree says {col_deg[j]}")
        for e in live:
            if not 1 <= e <= r:
                raise ParseError(path, at + j + 1, 1,
                                 f"row index {e} out of range")
            rows[e - 1] |= 1 << j
    at += col_lines
    for i, (row, deg) in enumerate(zip(rows, row_deg)):
        if row.bit_count() != deg:
            raise ParseError(path, row_deg_line, 1,
                             f"row {i + 1} has {row.bit_count()} entries, "
                             f"degree says {deg}")
    # row-perspective lines, when present, list exactly each row's columns
    if at + r <= len(lines):
        for i, row in enumerate(rows):
            listed = sorted(e for e in _read_int_line(path, lines, at + i, None)
                            if e)
            expected = [j + 1 for j in set_bits(row)]
            if listed != expected:
                raise ParseError(path, at + i + 1, 1,
                                 f"row {i + 1} lists columns {listed}, the "
                                 f"column perspective has {expected}")
    return Gf2Matrix(rows, n)


def save_alist(m: Gf2Matrix, path: str) -> None:
    n, r = m.cols, m.rows
    cols = [[i + 1 for i in set_bits(c)] for c in m.transpose().bits]
    rows = [[j + 1 for j in set_bits(row)] for row in m.bits]
    cmax = max((len(c) for c in cols), default=0)
    rmax = max((len(rw) for rw in rows), default=0)
    out = [f"{n} {r}", f"{cmax} {rmax}",
           " ".join(str(len(c)) for c in cols),
           " ".join(str(len(rw)) for rw in rows)]
    for c in cols:
        out.append(" ".join(str(e) for e in c + [0] * (cmax - len(c))))
    for rw in rows:
        out.append(" ".join(str(e) for e in rw + [0] * (rmax - len(rw))))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def load_dense_text(path: str) -> Gf2Matrix:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            for col, ch in enumerate(line, start=1):
                if ch not in "01":
                    raise ParseError(path, lineno, col,
                                     f"expected 0 or 1, got {ch!r}")
            if width is None:
                width = len(line)
            elif len(line) != width:
                raise ParseError(path, lineno, len(line),
                                 f"row width {len(line)} differs from {width}")
            rows.append(sum((1 << j) for j, ch in enumerate(line) if ch == "1"))
    if width is None:
        raise ParseError(path, 1, 1, "empty dense matrix file")
    return Gf2Matrix(rows, width)


def save_dense_text(m: Gf2Matrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(m.rows):
            fh.write("".join(str((m.bits[i] >> j) & 1) for j in range(m.cols)))
            fh.write("\n")


def load_check_matrix(path: str, fmt: str) -> Gf2Matrix:
    if fmt == "alist":
        return load_alist(path)
    if fmt == "dense":
        return load_dense_text(path)
    raise ValueError(f"unknown format {fmt!r} (use alist or dense)")


def save_check_matrix(m: Gf2Matrix, path: str, fmt: str) -> None:
    if fmt == "alist":
        save_alist(m, path)
    elif fmt == "dense":
        save_dense_text(m, path)
    else:
        raise ValueError(f"unknown format {fmt!r} (use alist or dense)")


def random_regular_ldpc(n_bits: int, bit_degree: int, check_degree: int,
                        seed: int) -> Gf2Matrix:
    """Seeded (bit_degree, check_degree)-regular code via stub matching.

    Redraws until the matching is simple (no repeated edges, which
    would cancel over GF(2)).
    """
    if (n_bits * bit_degree) % check_degree != 0:
        raise ValueError("degrees do not divide: no regular graph exists")
    n_checks = n_bits * bit_degree // check_degree
    rng = random.Random(seed)
    bit_stubs = [b for b in range(n_bits) for _ in range(bit_degree)]
    for _ in range(10_000):
        check_stubs = [c for c in range(n_checks) for _ in range(check_degree)]
        rng.shuffle(check_stubs)
        edges = set(zip(bit_stubs, check_stubs))
        if len(edges) == n_bits * bit_degree:
            rows = [0] * n_checks
            for (b, ch) in edges:
                rows[ch] |= 1 << b
            return Gf2Matrix(rows, n_bits)
    raise RuntimeError("failed to draw a simple regular graph")


def desk_code(seed: int = 7, n_bits: int = 16) -> SubsystemCode:
    """Desk-scale benchmark memory: HGP of a seeded (3,4)-regular code."""
    h = random_regular_ldpc(n_bits, 3, 4, seed)
    code = hgp(h, h, name=f"desk(seed={seed},n1={n_bits})")
    return code


def load_code(spec: str, fmt: str = "alist") -> SubsystemCode:
    """Resolve a code spec: builtin name, hgp:m,n, or a JSON manifest path."""
    if spec == "desk" or spec.startswith("desk:"):
        seed = int(spec.split(":", 1)[1]) if ":" in spec else 7
        return desk_code(seed)
    if spec.startswith("hgp:"):
        parts = spec[4:].split(",")
        if len(parts) != 2:
            raise ValueError("hgp spec needs two lengths, e.g. hgp:3,3")
        m, n = int(parts[0]), int(parts[1])
        code = hgp(repetition_check(m), repetition_check(n),
                   name=f"hgp({m},{n})")
        return replace(code, distance=min(m, n))
    if not os.path.exists(spec):
        raise ValueError(f"code spec {spec!r} is neither builtin nor a file")
    with open(spec, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(spec))

    def matrix_of(key, width=None):
        if key in manifest:
            rows = [[int(ch) for ch in row] for row in manifest[key]]
            if not rows:
                if width is None:
                    raise ValueError(f"empty {key!r} needs the other matrix inline")
                return Gf2Matrix.zeros(0, width)
            return Gf2Matrix.from_rows(rows)
        fkey = key + "_file"
        if fkey in manifest:
            p = manifest[fkey]
            if not os.path.isabs(p):
                p = os.path.join(base, p)
            return load_check_matrix(p, manifest.get("format", fmt))
        raise ValueError(f"manifest is missing {key!r} or {fkey!r}")

    hx = matrix_of("hx")
    hz = matrix_of("hz", width=hx.cols)
    return css_code(hx, hz, name=manifest.get("name", os.path.basename(spec)),
                    distance=manifest.get("distance"))


def load_sigma(path: str, code: SubsystemCode):
    """Operator set from a dense-text file of Z-operator rows."""
    m = load_dense_text(path)
    if m.cols != code.n:
        raise ValueError(
            f"sigma rows have {m.cols} columns, code has {code.n} qubits")
    return OperatorSet("Z", m)
