# Ragged arrays (ring, sizes, labels), the clippers' format (see
# hemiot.geometry), built from and split into the forms the tests write
# cells in.
import numpy as np

from hemiot.geometry import SIDE


def pieces(*cells):
    """Cells given as vertex lists, as one ragged array (ring, sizes,
    labels) for the clippers, every edge labelled SIDE."""
    sizes = np.array([len(v) for v in cells])
    return (np.array([p for v in cells for p in v], dtype=float).reshape(-1, 2),
            sizes, np.full(int(sizes.sum()), SIDE))


def cell_list(ring, sizes, labels):
    """The cells of a ragged array as a list of (verts, labels) pairs, the
    form the per-cell references take: a cell's vertices as (x, y) tuples
    and the int labels of its edges, edge e running from verts[e] to
    verts[e + 1]."""
    cells, start = [], 0
    for k in sizes.tolist():
        cells.append((list(map(tuple, ring[start:start + k].tolist())),
                      labels[start:start + k].tolist()))
        start += k
    return cells


def one_by_one(ring, sizes, labels):
    """Each cell of a ragged array as a one-cell ragged array, in order."""
    start = np.cumsum(sizes) - sizes
    return [(ring[s:s + k], sizes[i:i + 1], labels[s:s + k])
            for i, (s, k) in enumerate(zip(start, sizes))]
