"""Graph serialization: whitespace edge lists (SNAP style) and ``.npz``.

The paper's inputs are SNAP/Konect edge-list files; this module reads the
same format (``#`` and ``%`` comment lines, one ``u v`` pair per line)
and also provides a fast binary ``.npz`` round-trip for the synthetic
suite.
"""

from __future__ import annotations

import io
import os
import warnings
from typing import TextIO

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.build import from_edge_array
from repro.graph.csr import CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "save_npz",
    "load_npz",
]

#: Largest vertex id an int64 CSR can hold; larger tokens in an input
#: file are a format error (reported with the line number), not an
#: uncaught ``OverflowError`` deep inside NumPy.
_MAX_ID = int(np.iinfo(np.int64).max)


def read_edge_list(
    source: str | os.PathLike[str] | TextIO,
    num_vertices: int | None = None,
) -> CSRGraph:
    """Read a whitespace edge list into an undirected :class:`CSRGraph`.

    Lines starting with ``#`` or ``%`` and blank lines are skipped.
    Each remaining line must contain at least two integer fields; extra
    fields (weights, timestamps) are ignored, matching how the paper's
    unweighted evaluation treats Konect files.

    Malformed input — non-integer tokens (including ``nan``/``inf``
    and floats), negative ids, or ids past the int64 range — raises
    :class:`~repro.errors.GraphFormatError` naming the offending line.

    Plain input (printable ASCII, tabs and newlines) is parsed by one
    ``np.loadtxt`` call; anything else, and any input that call
    rejects, goes through a line-by-line loop that alone produces the
    errors.  Both accept the same inputs and return the same arrays.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    arr = _parse_plain(text)
    if arr is None:
        arr = _parse_lines(text)
    return from_edge_array(arr, num_vertices)


#: Bytes on which ``str.split``/``str.strip`` and ``np.loadtxt``'s
#: whitespace tokenizer agree: printable ASCII, tab and newline.
_PLAIN = bytes([9, 10, *range(32, 127)])


def _parse_plain(text: str) -> np.ndarray | None:
    """The ``(m, 2)`` edge array of ``text`` read in bulk, or ``None``
    when ``text`` must go through :func:`_parse_lines`: it holds a byte
    outside :data:`_PLAIN` (a ``\\r``, a form feed, non-ASCII digits or
    spaces, a BOM), or ``np.loadtxt`` rejects it, or it has a negative
    id."""
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN):
        return None
    body = _drop_comment_lines(text)
    if not body or body.isspace():
        # loadtxt warns on input without data; the line loop does not.
        return np.empty((0, 2), dtype=np.int64)
    try:
        with warnings.catch_warnings():
            # NumPy before the deprecation expired reads a float field
            # such as '2.5' or 'nan' into an int column by truncation,
            # with only a DeprecationWarning; as an error it makes the
            # field a ValueError like any other non-integer.
            warnings.simplefilter("error", DeprecationWarning)
            arr = np.loadtxt(io.StringIO(body), dtype=np.int64,
                             usecols=(0, 1), comments=None, ndmin=2)
    # A short line, a non-integer, an int64 overflow.
    except (ValueError, DeprecationWarning):
        return None
    return arr if arr.min() >= 0 else None


def _drop_comment_lines(text: str) -> str:
    """``text`` without the lines whose first non-blank character is
    ``#`` or ``%``.  ``text`` is plain (see :data:`_PLAIN`).  Only the
    first mark on each line is looked at, and each ``str.find`` resumes
    past the last line examined, so a line full of marks costs what
    its length does."""
    pieces = []
    start = 0  # first character not yet dropped
    end = 0  # end of the last line examined
    found = [text.find("#"), text.find("%")]  # next mark of each kind
    while True:
        found = [text.find(ch, end) if 0 <= i < end else i
                 for ch, i in zip("#%", found)]
        marks = [i for i in found if i >= 0]
        if not marks:
            break
        i = min(marks)
        line = text.rfind("\n", 0, i) + 1
        end = text.find("\n", i) + 1 or len(text)
        if not text[line:i].strip():  # not a mid-line mark in a field
            pieces.append(text[start:line])
            start = end
    pieces.append(text[start:])
    return "".join(pieces)


def _parse_lines(text: str) -> np.ndarray:
    """The ``(m, 2)`` edge array of ``text``, one line at a time,
    raising :class:`~repro.errors.GraphFormatError` at the first
    malformed line."""
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line or line[0] in "#%":
            continue
        fields = line.split()
        if len(fields) < 2:
            raise GraphFormatError(
                f"line {lineno}: expected 'u v', got {line!r}"
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"line {lineno}: non-integer vertex id in {line!r}"
            ) from exc
        if u < 0 or v < 0:
            raise GraphFormatError(
                f"line {lineno}: negative vertex id in {line!r}"
            )
        if u > _MAX_ID or v > _MAX_ID:
            raise GraphFormatError(
                f"line {lineno}: vertex id exceeds int64 range in {line!r}"
            )
        pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def write_edge_list(g: CSRGraph, path: str | os.PathLike[str]) -> None:
    """Write a graph as a whitespace edge list (one row per undirected
    edge, ``u < v``)."""
    edges = g.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# repro edge list |V|={g.num_vertices} |E|={g.num_edges}\n")
        np.savetxt(fh, edges, fmt="%d")


def save_npz(g: CSRGraph, path: str | os.PathLike[str]) -> None:
    """Save a graph (undirected or DAG) to a compressed ``.npz`` file."""
    np.savez_compressed(
        path,
        indptr=g.indptr,
        indices=g.indices,
        directed=np.array(g.directed),
    )


def load_npz(path: str | os.PathLike[str]) -> CSRGraph:
    """Load a graph previously written by :func:`save_npz`."""
    with np.load(path) as data:
        try:
            return CSRGraph(
                data["indptr"],
                data["indices"],
                directed=bool(data["directed"]),
                validate=False,
            )
        except KeyError as exc:
            raise GraphFormatError(f"{path}: missing array {exc}") from exc


def write_metis(g: CSRGraph, path: str | os.PathLike[str]) -> None:
    """Write an undirected graph in METIS format.

    METIS is 1-indexed: the header line is ``n m`` and line ``i`` lists
    the neighbors of vertex ``i - 1``.
    """
    if g.directed:
        raise GraphFormatError("METIS format stores undirected graphs")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.num_vertices} {g.num_edges}\n")
        for u in range(g.num_vertices):
            fh.write(" ".join(str(int(v) + 1) for v in g.neighbors(u)))
            fh.write("\n")


def read_metis(source: str | os.PathLike[str] | TextIO) -> CSRGraph:
    """Read a METIS graph file (plain, unweighted format).

    Comment lines start with ``%``.  The header's edge count is
    validated against the adjacency lines.
    """
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [
        ln for ln in (raw.strip() for raw in text.splitlines())
        if ln and not ln.startswith("%")
    ]
    if not lines:
        raise GraphFormatError("empty METIS file")
    header = lines[0].split()
    if len(header) < 2:
        raise GraphFormatError("METIS header must be 'n m [fmt]'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphFormatError("non-integer METIS header") from exc
    if len(lines) - 1 != n:
        raise GraphFormatError(
            f"METIS file has {len(lines) - 1} adjacency lines, header says {n}"
        )
    pairs: list[tuple[int, int]] = []
    for u, line in enumerate(lines[1:]):
        for field in line.split():
            try:
                v = int(field) - 1
            except ValueError as exc:
                raise GraphFormatError(
                    f"vertex {u}: non-integer neighbor {field!r}"
                ) from exc
            if not 0 <= v < n:
                raise GraphFormatError(
                    f"vertex {u}: neighbor {v + 1} out of range 1..{n}"
                )
            pairs.append((u, v))
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    g = from_edge_array(arr, num_vertices=n)
    if g.num_edges != m:
        raise GraphFormatError(
            f"METIS header claims {m} edges, adjacency encodes {g.num_edges}"
        )
    return g
