"""Conformal triangular meshes with oriented edges and coboundary maps.

A mesh stores vertices, counter-clockwise triangles, their geometry as one
batch of arrays and a derived edge table (a record array, one row per edge).
Every edge carries a canonical unit normal: for an internal edge the normal
points from the incident triangle of smaller index (the *owner*) towards the
other one (the *neighbor*); for a boundary edge it points out of the domain.
The edge endpoints are ordered so that the frame (normal, head - tail) is
right-handed.

Admissibility for the cell-centered scheme requires every internal edge to be
strictly Delaunay (opposite angles summing below pi) and every boundary edge
to face an acute angle, that is, every cotangent coupling coefficient to be
positive; ``quality_report`` checks the coefficients the solver uses.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "TriangleGeometry",
    "Mesh",
    "MeshQualityReport",
    "build_mesh",
    "cotan_coefficients",
    "quality_report",
    "generate_rhombus_equilateral",
    "read_mesh",
    "write_mesh",
]

# A mesh is admissible iff every coefficient reaches this (a cocircular edge
# pair gives an exact zero only up to the rounding of the two cotangents).
COEFF_TOL = 1e-12

# Guard band for the strict inequality of ``MeshQualityReport.all_acute``.
ANGLE_GUARD = 1e-12

# Triangles with area below DEGENERATE_REL * max edge length^2 are rejected.
DEGENERATE_REL = 1e-14


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed mesh file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _dot(u, v):
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


# numpy reduces a last axis of width 3 one row at a time, 10-25 times slower
# than the same arithmetic on its three columns.  These column forms add,
# compare and pick in numpy's own order, so they give its bits: the maximum
# propagates NaN, and a tie or a NaN keeps the first index.
def _sum3(a):
    """``a.sum(axis=-1)`` of an array whose last axis has width 3."""
    # numpy adds a0, a1 and a2 in turn to +0.0; that start changes only the
    # sum of three -0.0, to +0.0, and so does the trailing + 0.0 here
    return a[..., 0] + a[..., 1] + a[..., 2] + 0.0


def _max3(a):
    """``a.max(axis=-1)`` of an array whose last axis has width 3."""
    return np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])


def _argmax3(a):
    """``np.argmax(a, axis=-1)`` of an array whose last axis has width 3."""
    # a column wins over the maximum m before it unless it is <= m, so a NaN
    # wins, and none wins over a NaN m (m == m fails)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    top = np.maximum(a0, a1)
    k = (~(a1 <= a0) & (a0 == a0)).astype(np.intp)
    return np.where(~(a2 <= top) & (top == top), 2, k)


# Local index of vertex i+1 and vertex i+2 (mod 3): edge i joins them.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


@dataclass(frozen=True)
class TriangleGeometry:
    """Geometric quantities of one counter-clockwise triangle, or of a batch.

    Vertex i is opposite edge i, so ``edge_lengths[i]`` and ``cot[i]``, the
    cotangent of the angle at vertex i, follow the same opposite-vertex
    indexing.  ``ratio`` is rho^2 / |K|, with rho^2 the squared gyration
    radius: the mean squared distance to the centroid, which equals the sum
    of the squared edge lengths divided by 36.  A batch of B triangles
    carries B on the leading axis of every field (``area`` and ``ratio``
    become arrays of shape (B,)).
    """

    vertices: np.ndarray      # (3, 2)
    area: float
    edge_lengths: np.ndarray  # (3,)
    cot: np.ndarray           # (3,) cotangent of angle i at vertex i
    ratio: float

    @classmethod
    def from_vertices(cls, vertices) -> "TriangleGeometry":
        """Build from three 2D points, or from a (B, 3, 2) batch of them,
        reordering each triangle to counter-clockwise.

        Raises :class:`MeshError` naming the first triangle that has a
        non-finite corner, is too large, is too small or is degenerate.
        """
        v = np.array(vertices, dtype=float)
        batched = v.ndim == 3
        v = v.reshape(-1, 3, 2)
        nonfinite = np.flatnonzero(~np.isfinite(v).all(axis=(1, 2)))
        if nonfinite.size:
            where = f" {nonfinite[0]}" if batched else ""
            raise MeshError(
                f"triangle{where} has a non-finite corner: vertices {v[nonfinite[0]].tolist()}"
            )
        geom, _, degenerate = cls._oriented(v)
        bad = np.flatnonzero(degenerate)
        if bad.size:
            where = f" {bad[0]}" if batched else ""
            raise MeshError(
                f"degenerate triangle{where} with vertices {geom.vertices[bad[0]].tolist()}"
            )
        return geom if batched else geom[0]

    def __getitem__(self, index) -> "TriangleGeometry":
        """The triangles of a batch that ``index`` selects, as a batch."""
        return TriangleGeometry(*(getattr(self, f.name)[index] for f in fields(self)))

    @classmethod
    def _oriented(cls, v: np.ndarray) -> tuple["TriangleGeometry", np.ndarray, np.ndarray]:
        """Read-only batch of the corners ``v`` (B, 3, 2), which are reordered
        in place to counter-clockwise, with the flags of the reordered and of
        the degenerate triangles: area <= DEGENERATE_REL * (longest edge)^2.

        Raises :class:`MeshError` naming the first triangle whose longest
        edge squared overflows a float (an edge above about 1.34e154), below
        which every area, product and ratio formed here is finite, then the
        first whose area underflows to 0 though it is not degenerate.  A
        degenerate triangle is flagged, not rejected: it gets infinite or NaN
        cotangents and ratio.
        """
        x, y = v[..., 0], v[..., 1]                  # (B, 3) views of v
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            signed = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                            - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
            clockwise = signed < 0.0
            flip = np.flatnonzero(clockwise)
            v[flip, 1:] = v[flip, :0:-1]
            # edge i runs from vertex i+1 to vertex i+2
            dx = x[:, _PREV] - x[:, _NEXT]
            dy = y[:, _PREV] - y[:, _NEXT]
            lengths = np.hypot(dx, dy)
            longest = _max3(lengths)
            big = np.flatnonzero(np.isinf(longest**2))
            if big.size:
                raise MeshError(
                    f"triangle {big[0]} is too large: the square of its longest edge, "
                    f"{longest[big[0]]:.6g}, overflows a float"
                )
            area = np.abs(signed)  # a clockwise area is the exact negative of its reordered one
            # angle i lies between the edges to vertices i+1 and i+2; the ratio
            # of their dot and cross products is its cotangent, exact to
            # round-off on slivers and needles alike.  The edges are divided
            # by the power of two of the longest one, an exact scaling, so no
            # product is subnormal on a tiny triangle and the dimensionless
            # cot and ratio do not depend on the coordinate scale.  The scale
            # is capped at 2^1023, the largest finite one, which only a
            # longest edge below 2^-1023 reaches.
            scale = np.ldexp(1.0, np.minimum(-np.frexp(longest)[1], 1023))
            dx *= scale[:, None]
            dy *= scale[:, None]
            # the edges from vertex i to vertices i+1 and i+2 are edges i+2
            # and -(edge i+1); 0 - d, not -d, keeps the +0 of a difference of
            # equal coordinates, so a right angle's cotangent keeps its sign
            ax, ay = dx[:, _PREV], dy[:, _PREV]
            bx, by = 0.0 - dx[:, _NEXT], 0.0 - dy[:, _NEXT]
            del dx, dy           # freed before the products: a lower peak on a large mesh
            cross = np.abs(ax * by - ay * bx)
            cot = (ax * bx + ay * by) / cross
            # cross[:, 0] is 2 |K| scaled, from the edges that give ``signed``
            ratio = _sum3((lengths * scale[:, None] / 6.0) ** 2) / (0.5 * cross[:, 0])
        # the test area <= DEGENERATE_REL * longest^2 times 2 scale^2, so that
        # neither side underflows on a tiny triangle
        degenerate = cross[:, 0] <= 2.0 * DEGENERATE_REL * (longest * scale) ** 2
        small = np.flatnonzero((area == 0.0) & ~degenerate)
        if small.size:
            raise MeshError(f"triangle {small[0]} is too small: its area underflows to 0")
        fields = (v, area, lengths, cot, ratio)
        for arr in fields:
            arr.flags.writeable = False
        return cls(*fields), clockwise, degenerate


# One row per edge of ``Mesh.edges``; see :class:`Mesh`.
_EDGE_DTYPE = np.dtype(
    [
        ("tail", int),
        ("head", int),
        ("owner", int),
        ("owner_local", int),
        ("neighbor", int),
        ("neighbor_local", int),
        ("normal", float, (2,)),
        ("length", float),
    ]
)


class Mesh:
    """Immutable conformal triangle mesh; use :func:`build_mesh` to create one.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counter-clockwise
    edges : read-only record array with fields ``tail``, ``head``,
        ``owner``, ``owner_local``, ``neighbor``, ``neighbor_local`` (ints),
        ``normal`` (a (2,) float subfield) and ``length``, one row per edge,
        ordered by the vertex pair (min, max).  ``owner`` is the triangle the
        normal points away from and ``neighbor`` the one it points into; on
        the boundary ``neighbor`` and ``neighbor_local`` are -1 and the
        normal points out of the domain.  ``owner_local`` / ``neighbor_local`` give
        the local edge index (= local index of the opposite vertex) inside
        each triangle.  ``mesh.edges[e].tail`` reads one edge,
        ``mesh.edges.owner`` a whole column.
    geometries : TriangleGeometry batch with one row per triangle
    tri_edges : (nt, 3) int array, edge id of local edge i (opposite vertex i)
    tri_signs : (nt, 3) int array, +1 where the canonical normal is outward
        for that triangle, -1 otherwise
    internal_edges, boundary_edges : int arrays of edge ids
    coefficients : ``cotan_coefficients(mesh)``, computed on first use
    """

    def __init__(self, vertices, triangles, edges, tri_edges, tri_signs, geometries):
        self.vertices = vertices
        self.triangles = triangles
        self.edges = edges
        self.tri_edges = tri_edges
        self.tri_signs = tri_signs
        self.geometries = geometries
        internal = edges.neighbor >= 0
        self.internal_edges = np.flatnonzero(internal)
        self.boundary_edges = np.flatnonzero(~internal)
        for arr in (
            self.vertices,
            self.triangles,
            self.edges,
            self.tri_edges,
            self.tri_signs,
            self.internal_edges,
            self.boundary_edges,
        ):
            arr.flags.writeable = False

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def h_max(self) -> float:
        """Largest edge length."""
        return float(self.edges.length.max())

    @property
    def areas(self) -> np.ndarray:
        return self.geometries.area

    @cached_property
    def coefficients(self) -> np.ndarray:
        # the one home of the coefficients; quality reports read it too
        return cotan_coefficients(self)


def _first_offender(tris: np.ndarray, degenerate: np.ndarray) -> str | None:
    """Message for the lowest-index triangle that repeats a vertex, repeats
    an earlier triangle or is degenerate (checked in that order), or None."""
    ordered = np.sort(tris, axis=1)
    repeats = (ordered[:, 0] == ordered[:, 1]) | (ordered[:, 1] == ordered[:, 2])
    # a stable sort keeps equal triangles in index order, so every one but
    # the first of a run is a duplicate of an earlier triangle
    order = np.lexsort(ordered.T[::-1])
    duplicate = np.zeros(len(tris), dtype=bool)
    duplicate[order[1:]] = ~_max3(ordered[order[1:]] != ordered[order[:-1]])  # all equal
    found = [
        (int(np.argmax(mask)), rank) for rank, mask in enumerate((repeats, duplicate, degenerate))
        if mask.any()
    ]
    if not found:
        return None
    t, rank = min(found)
    if rank == 0:
        return f"triangle {t} repeats a vertex"
    if rank == 1:
        return f"duplicate triangle {tuple(ordered[t].tolist())}"
    return f"triangle {t} is degenerate"


def build_mesh(vertices, triangles) -> Mesh:
    """Build a mesh from vertex coordinates and vertex-index triples.

    Triangles given clockwise are reoriented.  Raises :class:`MeshError` for
    non-finite coordinates, out-of-range indices, triangles too large or too
    small to measure (see :meth:`TriangleGeometry._oriented`), duplicate or
    degenerate triangles, non-conforming connectivity (an edge shared by
    more than two triangles) and folded meshes (two triangles on the same
    side of their shared edge).  Each error names the lowest-index offender.
    """
    verts = np.array(vertices, dtype=float).reshape(-1, 2)
    tris = np.array(triangles, dtype=int).reshape(-1, 3)
    nv, nt = len(verts), len(tris)
    if nv < 3:
        raise MeshError("a mesh needs at least 3 vertices")
    bad = np.flatnonzero(~(np.isfinite(verts[:, 0]) & np.isfinite(verts[:, 1])))
    if bad.size:
        raise MeshError(f"vertex {bad[0]} has a non-finite coordinate {verts[bad[0]].tolist()}")
    bad = np.flatnonzero(_max3((tris < 0) | (tris >= nv)))  # any out of range
    if bad.size:
        raise MeshError(f"triangle {bad[0]} has a vertex index out of range 0..{nv - 1}")
    if nt == 0:
        raise MeshError("a mesh needs at least one triangle")

    geometries, clockwise, degenerate = TriangleGeometry._oriented(verts[tris])
    flip = np.flatnonzero(clockwise)
    tris[flip, 1:] = tris[flip, :0:-1]
    message = _first_offender(tris, degenerate)
    if message:
        raise MeshError(message)

    # half-edge 3t + m joins vertices m+1 and m+2 of triangle t; a stable
    # sort on the key of its vertex pair groups the (at most two) halves of
    # each edge, lower triangle first, with edge ids in increasing key order
    start_v = tris[:, _NEXT].ravel()
    end_v = tris[:, _PREV].ravel()
    keys = np.minimum(start_v, end_v) * nv + np.maximum(start_v, end_v)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    counts = np.diff(np.r_[first, len(keys)])
    bad = np.flatnonzero(counts > 2)
    if bad.size:
        key = divmod(int(sorted_keys[first[bad[0]]]), nv)
        raise MeshError(
            f"non-conforming mesh: edge {key} belongs to {counts[bad[0]]} triangles"
        )
    shared = counts == 2
    own = order[first]
    other = np.full(len(first), -1)
    other[shared] = order[first[shared] + 1]
    # counter-clockwise triangles on opposite sides of an edge traverse it
    # in opposite directions
    folded = np.flatnonzero(start_v[other[shared]] == start_v[own[shared]])
    if folded.size:
        e = np.flatnonzero(shared)[folded[0]]
        key = divmod(int(sorted_keys[first[e]]), nv)
        raise MeshError(
            f"folded mesh: triangles {own[e] // 3} and {other[e] // 3} lie on the "
            f"same side of edge {key}"
        )

    tail = start_v[own]
    head = end_v[own]
    tangent = verts[head] - verts[tail]
    length = geometries.edge_lengths.ravel()[own]  # half-edge own[e] is edge e
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1) / length[:, None]
    neighbor = np.where(shared, other // 3, -1)
    neighbor_local = np.where(shared, other % 3, -1)
    edges = np.rec.fromarrays(
        [tail, head, own // 3, own % 3, neighbor, neighbor_local, normal, length],
        dtype=_EDGE_DTYPE,
    )
    tri_edges = np.empty(3 * nt, dtype=int)
    tri_edges[order] = np.repeat(np.arange(len(first)), counts)
    tri_signs = np.full(3 * nt, -1, dtype=int)
    tri_signs[own] = 1
    return Mesh(
        verts, tris, edges, tri_edges.reshape(nt, 3), tri_signs.reshape(nt, 3), geometries
    )


def cotan_coefficients(mesh: Mesh) -> np.ndarray:
    """Cotangent coupling coefficients for every edge of the mesh, as a
    read-only array.

    Internal edge: (cot(theta_K) + cot(theta_L)) / 2 over the two opposite
    angles; boundary edge: cot(theta_K) / 2.  Computed for any mesh; a
    coefficient is non-positive where the mesh fails the angle conditions,
    which breaks uniqueness of the discrete problem.
    """
    cot = mesh.geometries.cot
    e = mesh.edges
    values = 0.5 * cot[e.owner, e.owner_local]
    internal = mesh.internal_edges
    values[internal] += 0.5 * cot[e.neighbor[internal], e.neighbor_local[internal]]
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class MeshQualityReport:
    """Angle extrema and per-edge admissibility flags of a mesh.

    ``edge_ok[e]`` is ``mesh.coefficients[e] >= COEFF_TOL``: strict Delaunay
    for an internal edge, an acute opposite angle for a boundary edge.  The
    mesh is admissible iff every flag holds, exactly when ``assemble``
    accepts ``mesh.coefficients``.
    """

    theta_min: float
    theta_max: float
    edge_ok: np.ndarray
    all_acute: bool
    admissible: bool

    def offending_edges(self) -> list[int]:
        return np.flatnonzero(~self.edge_ok).tolist()


def quality_report(mesh: Mesh) -> MeshQualityReport:
    """Check each of ``mesh.coefficients`` against COEFF_TOL."""
    cot = mesh.geometries.cot
    edge_ok = mesh.coefficients >= COEFF_TOL
    edge_ok.flags.writeable = False
    return MeshQualityReport(
        theta_min=math.atan2(1.0, cot.max()),
        theta_max=math.atan2(1.0, cot.min()),
        edge_ok=edge_ok,
        all_acute=bool(cot.min() > ANGLE_GUARD),
        admissible=bool(edge_ok.all()),
    )


def generate_rhombus_equilateral(n: int) -> Mesh:
    """Tile the unit rhombus (0,0),(1,0),(3/2,s3/2),(1/2,s3/2) with 2n^2
    congruent equilateral triangles of side 1/n.

    Every angle is pi/3, so the mesh is admissible at any subdivision level.
    Vertex (i, j) of the grid has id j (n + 1) + i; cell (i, j) holds the
    triangles (i, j), (i+1, j), (i, j+1) and (i+1, j), (i+1, j+1), (i, j+1).
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    s3 = math.sqrt(3.0)
    j, i = np.divmod(np.arange((n + 1) ** 2), n + 1)
    verts = np.column_stack([i / n + j / (2 * n), j * s3 / (2 * n)])
    jj, ii = np.divmod(np.arange(n * n), n)
    a = jj * (n + 1) + ii
    b, c = a + 1, a + n + 1
    tris = np.stack([a, b, c, b, c + 1, c], axis=-1).reshape(-1, 3)
    return build_mesh(verts, tris)


FORMAT_HEADER = "ptg-mesh 1"


def write_mesh(mesh: Mesh) -> str:
    """Serialize to the line-oriented text format (17 significant digits)."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    return (
        f"{FORMAT_HEADER}\n{nv} {nt}\n"
        + ("%.17g %.17g\n" * nv) % tuple(mesh.vertices.ravel().tolist())
        + ("%d %d %d\n" * nt) % tuple(mesh.triangles.ravel().tolist())
    )


def _plain(text: str) -> bool:
    """True if ``text`` may hold ASCII decimal numerals only: Python's
    ``float`` and ``int`` also read ``_`` separators and non-ASCII digits,
    and numpy's reader splits on a no-break space."""
    return text.isascii() and "_" not in text


def _parse_block(rows: list[str], width: int, dtype, valid) -> np.ndarray | None:
    """Convert ``rows`` to a (len(rows), width) array, or None if they fail.

    One ``np.loadtxt`` call converts the rows (none for no rows, on which it
    warns); a carriage return, where numpy would end a line, reads as a
    space.  ``valid`` checks the values with array operations.
    """
    if not rows:
        return np.empty((0, width), dtype=dtype)
    text = "".join(rows)
    if not _plain(text):
        return None
    if "\r" in text:
        rows = [row.replace("\r", " ") for row in rows]
    try:
        values = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(rows), width) and valid(values) else None


def _read_rows(rows: list[str], line: Callable[[int], int]) -> Mesh:
    """Parse the stripped data rows of a file: the header, the counts, the
    vertex and the triangle rows, and nothing after them.

    A failed check raises :class:`MeshFormatError` naming ``line(i)``, the
    1-based line of data row i.  A block that fails its bulk parse is checked
    row by row for the message of its first bad row.
    """
    if rows[0] != FORMAT_HEADER:
        raise MeshFormatError(f"bad header {rows[0]!r}, expected {FORMAT_HEADER!r}", line(0))
    if len(rows) < 2:
        raise MeshFormatError(
            "unexpected end of file, expected vertex and triangle counts", line(1)
        )
    parts = rows[1].split()
    if len(parts) != 2:
        raise MeshFormatError("expected '<nv> <nt>'", line(1))
    try:
        if not _plain(rows[1]):
            raise ValueError
        nv, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError("counts must be integers", line(1)) from None
    if nv < 3 or nt < 1:
        raise MeshFormatError(f"implausible counts nv={nv} nt={nt}", line(1))

    def check_vertex(row: int, parts: list[str]) -> None:
        if len(parts) != 2:
            raise MeshFormatError("expected 'x y'", line(row))
        try:
            if not _plain(rows[row]):
                raise ValueError
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise MeshFormatError("coordinates must be decimal floats", line(row)) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MeshFormatError("coordinates must be finite", line(row))

    def check_triangle(row: int, parts: list[str]) -> None:
        if len(parts) != 3:
            raise MeshFormatError("expected 'i j k'", line(row))
        try:
            if not _plain(rows[row]):
                raise ValueError
            tri = tuple(int(p) for p in parts)
        except ValueError:
            raise MeshFormatError("indices must be integers", line(row)) from None
        for idx in tri:
            if not 0 <= idx < nv:
                raise MeshFormatError(f"vertex index {idx} out of range 0..{nv - 1}", line(row))

    def block(first: int, count: int, what: str, width: int, dtype, valid, check_row):
        values = _parse_block(rows[first : first + count], width, dtype, valid)
        if values is None:
            for row in range(first, min(first + count, len(rows))):
                check_row(row, rows[row].split())
            raise AssertionError("a block failed its bulk parse but no row check")
        if len(values) < count:
            raise MeshFormatError(f"unexpected end of file, expected {what}", line(len(rows)))
        return values

    verts = block(
        2, nv, "vertex coordinates", 2, float, lambda v: np.isfinite(v).all(), check_vertex
    )
    tris = block(
        2 + nv, nt, "triangle indices", 3, np.int64,
        lambda t: ((t >= 0) & (t < nv)).all(), check_triangle,
    )
    end = 2 + nv + nt
    if len(rows) > end:
        raise MeshFormatError("unexpected content after the declared data", line(end))
    try:
        return build_mesh(verts, tris)
    except MeshError as exc:
        raise MeshError(f"invalid mesh in file: {exc}") from exc


def read_mesh(text: str) -> Mesh:
    """Parse the text format produced by :func:`write_mesh`.

    Lines end at line feeds only.  Blank lines and lines starting with
    ``#`` are ignored, and numbers are ASCII decimals.  The remaining lines
    are parsed once, the vertex and the triangle lines each in bulk; the
    file's lines are numbered only when a check fails, so that the error
    carries the offending 1-based line number.
    """
    lines = text.split("\n")
    rows = list(filter(None, map(str.strip, lines)))
    if "#" in text:
        rows = [row for row in rows if row[0] != "#"]
    if not rows:
        raise MeshFormatError("empty mesh file", 1)

    def line(row: int) -> int:
        """1-based line of data row ``row``; one past the last data line
        for ``row == len(rows)``."""
        numbers = [
            lineno for lineno, stripped in enumerate(map(str.strip, lines), start=1)
            if stripped and stripped[0] != "#"
        ]
        return numbers[row] if row < len(numbers) else numbers[-1] + 1

    return _read_rows(rows, line)
