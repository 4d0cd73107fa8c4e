"""The v1 writer of ``solution.csv``: the oracle of the v2 layout.

A v1 file has one row per node of the strip, broadcast axes or not; the
library writes v2, which writes the solved nodes once and names the axes
it leaves out.  This is the library's v1 writer as it was, kept so that
the tests can check that ``parse_solution_text`` reads a v2 file into the
same rows, bit for bit, as the v1 file of the same solution.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from effbc.grid import coord_columns
from effbc.reports import _sanitize, canonical_json, fmt


def solution_text_v1(solution):
    """The v1 text of ``solution``: a '#' header plus one CSV row per node."""
    return b"".join(_solution_chunks(solution)).decode("ascii")


def _solution_chunks(solution):
    """The v1 solution file in ASCII pieces (bytes-like), each ending in a
    newline: the header, then the node rows of one block of
    first-lateral-index slabs at a time, as few slabs as make _BLOCK_ROWS
    rows (one, when a slab has that many).

    Each column of the node table (the indices, y1..yd, u1..uN) is reduced
    to the axes it is not broadcast along: the index and coordinate columns
    come with length 1 along their constant axes, and the values of an
    invariant solution with zero strides along theirs.  Each distinct entry
    of the reduced array is formatted once, with its trailing ',' or newline
    ("%.17g" renders floats exactly as fmt does, nan and inf included), so
    the reduction decides how often a text is made, never the text.  A column
    that varies along the first axis on more entries than a block has (a
    sheared coordinate, say) is formatted a block at a time instead, so no
    text is ever larger than one block's.  A block is one structured array
    with a byte-string field per column on a kept bytearray, filled by
    broadcast assignment: the columns constant along the first axis once,
    when the block is made, and the others per block.  The bytearray less
    its NUL padding is the piece.
    """
    prob = solution.problem
    op_hash = hashlib.sha256(canonical_json(prob.operator.describe()).encode()).hexdigest()[:16]
    grid = solution.grid
    lines = []
    lines.append("# effbc strip solution v1")
    lines.append(f"# geometry: {json.dumps(_sanitize(grid.describe()), sort_keys=True)}")
    lines.append(f"# operator_hash: {op_hash}")
    lines.append(f"# residual_norm: {fmt(solution.residual_norm)}")
    lines.append(f"# iterations: {solution.iterations}")
    N = solution.values.shape[0]
    lat_axes = len(grid.lat_cells)
    idx_names = [f"i{j}" for j in range(lat_axes)] + ["level"]
    coord_names = [f"y{j + 1}" for j in range(grid.d)]
    val_names = [f"u{c + 1}" for c in range(N)]
    names = idx_names + coord_names + val_names
    lines.append(",".join(names))
    yield ("\n".join(lines) + "\n").encode("ascii")
    shape = grid.node_shape
    index = np.indices(shape, sparse=True)
    floats = [*coord_columns(grid.edges, grid.origin, shape), *solution.values]
    specs = ["%d,"] * len(index) + ["%.17g,"] * len(floats)
    specs[-1] = "%.17g\n"
    block = -(-_BLOCK_ROWS // math.prod(shape[1:]))  # slabs per piece
    columns = []  # (reduced column, its spec, its text, or None if made by block)
    for a, spec in zip([*index, *floats], specs):
        a = _reduced(a)
        by_block = a.shape[0] > 1 and a.size > block * math.prod(shape[1:])
        columns.append((a, spec, None if by_block else _text_table(a, spec)))
    # the columns whose text changes from block to block
    varying = [text is None or text.shape[0] > 1 for _, _, text in columns]
    raw = buf = None
    for i0 in range(0, shape[0], block):
        n = min(block, shape[0] - i0)
        texts = [
            _text_table(a[i0:i0 + n], spec) if text is None
            else text[i0:i0 + n] if text.shape[0] > 1 else text
            for a, spec, text in columns
        ]
        dtype = np.dtype([(name, t.dtype) for name, t in zip(names, texts)])
        new = buf is None or buf.dtype != dtype
        if new:
            raw = buf = None  # the old block goes before the new one is made
            raw = bytearray(block * math.prod(shape[1:]) * dtype.itemsize)
            buf = np.frombuffer(raw, dtype).reshape((block,) + shape[1:])
        for name, t, v in zip(names, texts, varying):
            if new or v:
                buf[name][:n] = t
        # the bytearray's own translate drops the padding; only the last,
        # partial block is sliced (copied) first
        yield (raw if n == block else raw[: buf[:n].nbytes]).translate(None, b"\0")


_BLOCK_ROWS = 4096  # rows per piece at least, unless one slab has more


def _keys(a):
    """a, or for floats their bit patterns, so that 0.0 and -0.0 (and nans
    of two signs) differ."""
    return a.view(f"i{a.itemsize}") if a.dtype.kind == "f" else a


def _reduced(a):
    """a with length 1 along every axis it is broadcast along (stride 0):
    constant there, read from its layout, not from its entries."""
    return a[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in a.strides)]


def _text_table(a, spec):
    """The %-``spec`` text of every entry of a as NUL-padded bytes of the
    longest's width.  Each distinct entry is formatted once."""
    distinct, inverse = np.unique(_keys(a).ravel(), return_inverse=True)
    if a.dtype.kind == "f":
        distinct = distinct.view(a.dtype)
    table = np.array(list(map(spec.__mod__, distinct.tolist())), dtype="S")
    return table[inverse.reshape(a.shape)]
