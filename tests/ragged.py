# Conversions between ragged arrays (see hemiot.geometry.ragged_cells) and
# the forms the tests write cells in.
import numpy as np

from hemiot.geometry import SIDE


def pieces(*cells):
    """Cells given as vertex lists, as one ragged array (ring, sizes,
    labels) for the clippers, every edge labelled SIDE."""
    sizes = np.array([len(v) for v in cells])
    return (np.array([p for v in cells for p in v], dtype=float).reshape(-1, 2),
            sizes, np.full(int(sizes.sum()), SIDE))


def cell_list(ring, sizes, arcs):
    """The cells of a ragged array as a list of labeled cells (verts,
    labels), the form the one-cell functions and the per-cell references
    take. An arc edge gets its arc label; the array keeps no other label,
    so every other edge is labelled ("line",)."""
    arc_at = {(i, tuple(a)): lab for i, a, _, lab in arcs}
    cells, start = [], 0
    for i, k in enumerate(sizes.tolist()):
        verts = list(map(tuple, ring[start:start + k].tolist()))
        cells.append((verts, [arc_at.get((i, v), ("line",)) for v in verts]))
        start += k
    return cells
