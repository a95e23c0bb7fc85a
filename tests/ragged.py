# The cells of a ragged array (see hemiot.geometry.ragged_cells) as a list of
# labeled cells (verts, labels), the form the one-cell functions and the
# per-cell references take. An arc edge gets its arc label; the array keeps
# no other label, so every other edge is labelled ("line",).


def cell_list(ring, sizes, arcs):
    arc_at = {(i, tuple(a)): lab for i, a, _, lab in arcs}
    cells, start = [], 0
    for i, k in enumerate(sizes.tolist()):
        verts = list(map(tuple, ring[start:start + k].tolist()))
        cells.append((verts, [arc_at.get((i, v), ("line",)) for v in verts]))
        start += k
    return cells
