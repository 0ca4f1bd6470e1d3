"""Deterministic file IO: CSV tables, columnar complex matrices, config hashing.

Experiment CSVs use 9 significant digits with '.' separator and unix
newlines so that reruns with identical configs are byte-identical.
Columnar matrix files use 17 significant digits so float64 values
round-trip exactly; of these only the channel file has a loader here
(load_channelset_array).
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

CSV_DIGITS = 9
LOSSLESS_DIGITS = 17


def fmt_number(x, digits: int = CSV_DIGITS) -> str:
    """Format a scalar for CSV output with a fixed number of significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if np.isnan(v):
        return "nan"
    if np.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, f".{digits}g")


def format_row(values, digits: int = CSV_DIGITS) -> str:
    out = []
    for v in values:
        if isinstance(v, str):
            out.append(v)
        else:
            out.append(fmt_number(v, digits))
    return ",".join(out)


def write_csv(path, header, rows, digits: int = CSV_DIGITS) -> None:
    """Write rows (iterables of str/number) under a header line, unix newlines."""
    lines = [",".join(header)]
    lines.extend(format_row(r, digits) for r in rows)
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a CSV written by write_csv; returns (header, list of string rows)."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- complex matrix/channel columnar files -----------------------------------

def _save_columnar(path, array, index_names) -> None:
    """Columnar (index..., re, im) dump of a complex array, one row per entry
    in C order; index_names heads the index columns."""
    a = np.asarray(array)
    rows = [(*idx, a[idx].real, a[idx].imag) for idx in np.ndindex(a.shape)]
    write_csv(path, [*index_names, "re", "im"], rows, digits=LOSSLESS_DIGITS)


def save_complex_matrix(path, m) -> None:
    """Columnar (row, col, re, im) dump of a 2-D complex matrix."""
    _save_columnar(path, m, ("row", "col"))


def save_indexed_matrices(path, mats, index_name: str) -> None:
    """Columnar (index, row, col, re, im) dump of a stack of complex matrices."""
    _save_columnar(path, mats, (index_name, "row", "col"))


def save_channelset(path, channels) -> None:
    """Serialize a ChannelSet to columns (k, u, row, col, re, im)."""
    _save_columnar(path, channels.h, ("k", "u", "row", "col"))


def load_channelset_array(path):
    """Load the channel array written by save_channelset."""
    header, rows = read_csv(path)
    assert header == ["k", "u", "row", "col", "re", "im"]
    nk = max(int(r[0]) for r in rows) + 1
    nu = max(int(r[1]) for r in rows) + 1
    nr = max(int(r[2]) for r in rows) + 1
    nc = max(int(r[3]) for r in rows) + 1
    h = np.zeros((nk, nu, nr, nc), dtype=complex)
    for r in rows:
        h[int(r[0]), int(r[1]), int(r[2]), int(r[3])] = float(r[4]) + 1j * float(r[5])
    return h


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
