"""Report emission: CSV tables, JSON summaries, hand-rolled SVG plots,
and the run manifest.

All numeric text is written with 17 significant digits so reruns are
byte-identical; JSON uses sorted keys and replaces non-finite floats by
null.  SVG output is restricted to polyline / circle / text primitives,
keeping plots free of any plotting dependency.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np

from .grid import coord_columns

__all__ = ["fmt", "canonical_json", "config_hash", "Reporter", "SvgPlot", "svg_panels"]


def fmt(x):
    """17 significant digit decimal rendering of a number (nan, inf, -inf)."""
    return str(int(x)) if isinstance(x, (int, np.integer)) else format(float(x), ".17g")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(float(obj)) else None
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj):
    return json.dumps(_sanitize(obj), sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def config_hash(obj):
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


class SvgPlot:
    """Minimal line/scatter plot rendered as standalone SVG."""

    W, H = 640, 420
    ML, MR, MT, MB = 70, 20, 36, 50

    def __init__(self, title="", xlabel="", ylabel="", logy=False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.logy = logy
        self.series = []  # (xs, ys, color, kind, label)

    def add_line(self, xs, ys, color="#1f77b4", label=""):
        self.series.append((np.asarray(xs, float), np.asarray(ys, float), color, "line", label))

    def add_points(self, xs, ys, color="#d62728", label=""):
        self.series.append((np.asarray(xs, float), np.asarray(ys, float), color, "points", label))

    def _prep(self, ys):
        return np.log10(np.maximum(ys, 1e-300)) if self.logy else ys

    def _bounds(self):
        xs = np.concatenate([s[0] for s in self.series])
        ys = np.concatenate([self._prep(s[1]) for s in self.series])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x1 - x0 < 1e-300:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 - y0 < 1e-300:
            y0, y1 = y0 - 0.5, y1 + 0.5
        return x0, x1, y0, y1

    def render(self, x_offset=0, y_offset=0):
        x0, x1, y0, y1 = self._bounds()
        iw = self.W - self.ML - self.MR
        ih = self.H - self.MT - self.MB

        def px(x):
            return self.ML + (x - x0) / (x1 - x0) * iw + x_offset

        def py(y):
            return self.MT + (1.0 - (y - y0) / (y1 - y0)) * ih + y_offset

        parts = []
        parts.append(
            f'<rect x="{self.ML + x_offset}" y="{self.MT + y_offset}" width="{iw}" '
            f'height="{ih}" fill="none" stroke="#333"/>'
        )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = x0 + frac * (x1 - x0)
            yv = y0 + frac * (y1 - y0)
            parts.append(
                f'<text x="{px(xv):.1f}" y="{self.MT + ih + 16 + y_offset}" font-size="11" '
                f'text-anchor="middle">{xv:.3g}</text>'
            )
            lab = f"1e{yv:.2f}" if self.logy else f"{yv:.3g}"
            parts.append(
                f'<text x="{self.ML - 6 + x_offset}" y="{py(yv):.1f}" font-size="11" '
                f'text-anchor="end">{lab}</text>'
            )
        for xs, ys, color, kind, label in self.series:
            ysp = self._prep(ys)
            if kind == "line":
                pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ysp))
                parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            else:
                for a, b in zip(xs, ysp):
                    parts.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{self.ML + iw / 2 + x_offset}" y="{self.MT - 12 + y_offset}" '
            f'font-size="14" text-anchor="middle">{self.title}</text>'
        )
        parts.append(
            f'<text x="{self.ML + iw / 2 + x_offset}" y="{self.MT + ih + 36 + y_offset}" '
            f'font-size="12" text-anchor="middle">{self.xlabel}</text>'
        )
        parts.append(
            f'<text x="{16 + x_offset}" y="{self.MT + ih / 2 + y_offset}" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 {16 + x_offset} '
            f'{self.MT + ih / 2 + y_offset})">{self.ylabel}</text>'
        )
        legend_y = self.MT + 14 + y_offset
        for xs, ys, color, kind, label in self.series:
            if label:
                parts.append(
                    f'<text x="{self.ML + iw - 8 + x_offset}" y="{legend_y}" font-size="11" '
                    f'text-anchor="end" fill="{color}">{label}</text>'
                )
                legend_y += 14
        return "\n".join(parts)

    def to_svg(self):
        body = self.render()
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.W}" height="{self.H}" '
            f'viewBox="0 0 {self.W} {self.H}">\n{body}\n</svg>\n'
        )


def svg_panels(panels):
    """Compose several SvgPlot objects into one SVG document, one per row."""
    W, H = SvgPlot.W, SvgPlot.H
    n = len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
        f'height="{n * H}" viewBox="0 0 {W} {n * H}">'
    ]
    for i, p in enumerate(panels):
        parts.append(p.render(y_offset=i * H))
    parts.append("</svg>\n")
    return "\n".join(parts)


class Reporter:
    """Single-writer sink for all run outputs plus the manifest.

    Every emitted file is recorded; ``finalize`` writes manifest.json with
    the config hash, version, per-operation timings and the full file
    inventory.  All writes happen on the caller's thread.
    """

    def __init__(self, out_dir, config=None, version="0.1.0"):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.config = config
        self.version = version
        self.files = []
        self.timings = {}
        self._t0 = {}

    def start(self, op):
        self._t0[op] = time.perf_counter()

    def stop(self, op):
        self.timings[op] = time.perf_counter() - self._t0.pop(op)

    def _register(self, name):
        self.files.append(name)
        return os.path.join(self.out_dir, name)

    def open_text(self, name):
        """A new file of the run, open for text writing; the caller closes it."""
        return open(self._register(name), "w", encoding="utf-8")

    def open_binary(self, name):
        """A new file of the run, open for binary writing; the caller closes it."""
        return open(self._register(name), "wb")

    def write_text(self, name, text):
        with self.open_text(name) as f:
            f.write(text)
        return f.name

    def write_csv(self, name, header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(fmt(v) if isinstance(v, (int, float, np.floating, np.integer)) else str(v) for v in row))
        return self.write_text(name, "\n".join(lines) + "\n")

    def write_json(self, name, obj):
        return self.write_text(name, canonical_json(obj))

    def write_svg(self, name, svg_text):
        return self.write_text(name, svg_text)

    def finalize(self):
        manifest = {
            "artifact_version": self.version,
            "config_hash": config_hash(self.config) if self.config is not None else None,
            "files": sorted(self.files),
            "timings_seconds": {k: round(v, 6) for k, v in self.timings.items()},
        }
        path = os.path.join(self.out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(canonical_json(manifest))
        return manifest


def _solution_chunks(solution):
    """The solution file (v2) in ASCII pieces (bytes-like), each ending in a
    newline: the header, then the node rows of one block of
    first-lateral-index slabs at a time, as few slabs as make _BLOCK_ROWS
    rows (one, when a slab has that many).

    The rows are those of the nodes that were solved: a node axis along
    which ``solution.values`` has stride 0 (the dropped axes of a reduced
    strip, the levels of an exact lift) is a broadcast axis, read from the
    layout of the values, not from their entries, and only its index 0 is
    written.  The header names these axes and carries the cell edges and
    the origin as exact JSON floats, from which ``parse_solution_text``
    rebuilds the other nodes.  Each column of the table (the indices,
    y1..yd, u1..uN) comes with length 1 along the axes it is constant on,
    and each distinct entry of a block is formatted once, with its trailing
    ',' or newline ("%.17g" renders floats exactly as fmt does, nan and inf
    included).  A block is one structured array with a byte-string field
    per column on a bytearray, filled by broadcast assignment; the
    bytearray less its NUL padding is the piece.
    """
    prob = solution.problem
    op_hash = hashlib.sha256(canonical_json(prob.operator.describe()).encode()).hexdigest()[:16]
    grid = solution.grid
    N = solution.values.shape[0]
    idx_names = [f"i{j}" for j in range(len(grid.lat_cells))] + ["level"]
    names = idx_names + [f"y{j + 1}" for j in range(grid.d)] + [f"u{c + 1}" for c in range(N)]
    broadcast = [ax for ax, stride in enumerate(solution.values.strides[1:]) if stride == 0]
    shape = tuple(1 if ax in broadcast else n for ax, n in enumerate(grid.node_shape))
    lines = [
        "# effbc strip solution v2",
        f"# geometry: {json.dumps(_sanitize(grid.describe()), sort_keys=True)}",
        f"# operator_hash: {op_hash}",
        f"# residual_norm: {fmt(solution.residual_norm)}",
        f"# iterations: {solution.iterations}",
        f"# broadcast: {json.dumps([idx_names[ax] for ax in broadcast])}",
        f"# edges: {json.dumps(grid.edges.tolist())}",
        f"# origin: {json.dumps(grid.origin.tolist())}",
        ",".join(names),
    ]
    yield ("\n".join(lines) + "\n").encode("ascii")
    values = solution.values[(slice(None),) + tuple(slice(0, n) for n in shape)]
    columns = [
        *np.indices(shape, sparse=True), *coord_columns(grid.edges, grid.origin, shape), *values
    ]
    specs = ["%d,"] * len(shape) + ["%.17g,"] * (grid.d + N)
    specs[-1] = "%.17g\n"
    block = -(-_BLOCK_ROWS // math.prod(shape[1:]))  # slabs per piece
    for i0 in range(0, shape[0], block):
        slabs = [c[i0:i0 + block] if c.shape[0] > 1 else c for c in columns]
        yield _block_text(names, slabs, specs, (min(block, shape[0] - i0),) + shape[1:])


_BLOCK_ROWS = 4096  # rows per piece at least, unless one slab has more


def _block_text(names, columns, specs, shape):
    """The rows of the index block ``shape`` whose columns (broadcastable
    to it) are ``columns``: their texts laid into one structured array,
    less the NUL padding of the shorter texts."""
    texts = [_text_table(a, spec) for a, spec in zip(columns, specs)]
    dtype = np.dtype([(name, t.dtype) for name, t in zip(names, texts)])
    raw = bytearray(math.prod(shape) * dtype.itemsize)
    buf = np.frombuffer(raw, dtype).reshape(shape)
    for name, t in zip(names, texts):
        buf[name] = t
    return raw.translate(None, b"\0")


def _keys(a):
    """a, or for floats their bit patterns, so that 0.0 and -0.0 (and nans
    of two signs) differ."""
    return a.view(f"i{a.itemsize}") if a.dtype.kind == "f" else a


def _text_table(a, spec):
    """The %-``spec`` text of every entry of a as NUL-padded bytes of the
    longest's width.  Each distinct entry is formatted once."""
    distinct, inverse = np.unique(_keys(a).ravel(), return_inverse=True)
    if a.dtype.kind == "f":
        distinct = distinct.view(a.dtype)
    table = np.array(list(map(spec.__mod__, distinct.tolist())), dtype="S")
    return table[inverse.reshape(a.shape)]


def solution_text(solution, out=None):
    """Self-describing text serialization: '#' header plus a node CSV.

    With ``out``, a file open for binary writing, the ASCII pieces go to it
    as they are made, so the whole text is never held at once, and None is
    returned.
    """
    chunks = _solution_chunks(solution)
    if out is None:
        return b"".join(chunks).decode("ascii")
    out.writelines(chunks)
    return None


def parse_solution_text(text):
    """Read back the header metadata and the node table of a solution file.

    Returns (meta, header, rows): one row per node of the strip in index
    order, its index columns as ints and its y and u columns as floats.
    A v2 file's broadcast axes are expanded: its values are repeated along
    them, and the coordinates of every node are made again from the
    header's edges and origin by ``grid.coord_columns``, so the rows carry
    the bits a v1 file (one row per node) gives.
    """
    lines = text.splitlines()
    meta = {}
    k = 0
    while lines[k].startswith("# "):
        key, colon, val = lines[k][2:].partition(":")
        if colon:
            meta[key.strip()] = val.strip()
        k += 1
    header = lines[k].split(",")
    n_idx = header.index("y1")
    table = list(zip(*(line.split(",") for line in lines[k + 1:])))
    cols = [list(map(int, c)) for c in table[:n_idx]] + [list(map(float, c)) for c in table[n_idx:]]
    broadcast = json.loads(meta.get("broadcast", "[]"))
    if broadcast:
        geometry = json.loads(meta["geometry"])
        shape = (*geometry["lat_cells"], geometry["n_vert"] + 1)
        solved = tuple(1 if name in broadcast else n for name, n in zip(header, shape))
        edges, origin = np.array(json.loads(meta["edges"])), np.array(json.loads(meta["origin"]))
        full = [
            *np.indices(shape, sparse=True),
            *coord_columns(edges, origin, shape),
            *(np.reshape(c, solved) for c in cols[n_idx + len(origin):]),
        ]
        cols = [np.broadcast_to(c, shape).ravel().tolist() for c in full]
    return meta, header, list(map(list, zip(*cols)))
