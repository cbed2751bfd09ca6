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
from dataclasses import dataclass

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


def _signed_areas(v: np.ndarray):
    """Signed areas of triangles with corners ``v`` (..., 3, 2); positive if CCW."""
    return 0.5 * _cross(v[..., 1, :] - v[..., 0, :], v[..., 2, :] - v[..., 0, :])


# Local index of vertex i+1 and vertex i+2 (mod 3): edge i joins them.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _wrap(a: np.ndarray) -> np.ndarray:
    """Extend ``a`` (B, 3, ...) along axis 1 by its entries 0 and 1, so that
    the slice ``[:, k:k+3]`` holds entry i+k (mod 3) at position i."""
    return np.concatenate([a, a[:, :2]], axis=1)


def _edge_lengths(w: np.ndarray) -> np.ndarray:
    """Edge lengths (B, 3) of the wrapped corners ``w`` (B, 5, 2); entry i
    is the edge opposite vertex i, from vertex i+1 to vertex i+2."""
    d = w[:, 2:5] - w[:, 1:4]
    return np.hypot(d[..., 0], d[..., 1])


def _degenerate(area: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    return area <= DEGENERATE_REL * lengths.max(axis=-1) ** 2


@dataclass(frozen=True)
class TriangleGeometry:
    """Geometric quantities of one counter-clockwise triangle, or of a batch.

    Vertex i is opposite edge i, so ``edge_lengths[i]`` and ``angles[i]``
    follow the same opposite-vertex indexing.  ``rho2`` is the squared
    gyration radius: the mean squared distance to the centroid, which equals
    the sum of the squared edge lengths divided by 36.  A batch of B
    triangles carries B on the leading axis of every field (``area`` and
    ``rho2`` become arrays of shape (B,)).
    """

    vertices: np.ndarray      # (3, 2)
    area: float
    edge_lengths: np.ndarray  # (3,)
    angles: np.ndarray        # (3,) radians, angle i at vertex i
    rho2: float

    @staticmethod
    def degenerate(vertices) -> np.ndarray:
        """Per-triangle flag: area at most DEGENERATE_REL * (longest edge)^2.

        ``vertices`` has shape (..., 3, 2); either orientation is accepted.
        """
        v = np.asarray(vertices, dtype=float)
        lengths = _edge_lengths(_wrap(v.reshape(-1, 3, 2))).reshape(v.shape[:-1])
        return _degenerate(np.abs(_signed_areas(v)), lengths)

    @classmethod
    def from_vertices(cls, vertices) -> "TriangleGeometry":
        """Build from three 2D points, or from a (B, 3, 2) batch of them,
        reordering each triangle to counter-clockwise.

        Raises :class:`MeshError` naming the first degenerate triangle.
        """
        v = np.array(vertices, dtype=float)
        batched = v.ndim == 3
        geom = cls._oriented(v.reshape(-1, 3, 2))[0]
        bad = np.flatnonzero(_degenerate(geom.area, geom.edge_lengths))
        if bad.size:
            where = f" {bad[0]}" if batched else ""
            raise MeshError(
                f"degenerate triangle{where} with vertices {geom.vertices[bad[0]].tolist()}"
            )
        if batched:
            return geom
        return cls(
            geom.vertices[0], float(geom.area[0]), geom.edge_lengths[0], geom.angles[0],
            float(geom.rho2[0]),
        )

    @classmethod
    def _oriented(cls, v: np.ndarray) -> tuple["TriangleGeometry", np.ndarray]:
        """Read-only batch of the corners ``v`` (B, 3, 2), which are reordered
        in place to counter-clockwise, and the flags of the reordered ones.

        Nothing is rejected.
        """
        signed = _signed_areas(v)
        clockwise = signed < 0.0
        if clockwise.any():
            v[clockwise] = v[clockwise][:, [0, 2, 1]]
        w = _wrap(v)
        lengths = _edge_lengths(w)
        # angle i lies between the edges to vertices i+1 and i+2; the arctan2
        # of their cross and dot products is exact to round-off on slivers
        a = w[:, 1:4] - v
        b = w[:, 2:5] - v
        angles = np.arctan2(np.abs(_cross(a, b)), a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1])
        rho2 = np.sum(lengths**2, axis=-1) / 36.0
        # a clockwise area is the exact negative of its reordered one
        fields = (v, np.abs(signed), lengths, angles, rho2)
        for arr in fields:
            arr.flags.writeable = False
        return cls(*fields), clockwise


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


def _first_offender(tris: np.ndarray, degenerate: np.ndarray) -> str | None:
    """Message for the lowest-index triangle that repeats a vertex, repeats
    an earlier triangle or is degenerate (checked in that order), or None."""
    ordered = np.sort(tris, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    # a stable sort keeps equal triangles in index order, so every one but
    # the first of a run is a duplicate of an earlier triangle
    order = np.lexsort(ordered.T[::-1])
    duplicate = np.zeros(len(tris), dtype=bool)
    duplicate[order[1:]] = (ordered[order[1:]] == ordered[order[:-1]]).all(axis=1)
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
    non-finite coordinates, out-of-range indices, duplicate or degenerate
    triangles, non-conforming connectivity (an edge shared by more than two
    triangles) and folded meshes (two triangles on the same side of their
    shared edge).  Each error names the lowest-index offender.
    """
    verts = np.array(vertices, dtype=float).reshape(-1, 2)
    tris = np.array(triangles, dtype=int).reshape(-1, 3)
    nv, nt = len(verts), len(tris)
    if nv < 3:
        raise MeshError("a mesh needs at least 3 vertices")
    bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
    if bad.size:
        raise MeshError(f"vertex {bad[0]} has a non-finite coordinate {verts[bad[0]].tolist()}")
    bad = np.flatnonzero(((tris < 0) | (tris >= nv)).any(axis=1))
    if bad.size:
        raise MeshError(f"triangle {bad[0]} has a vertex index out of range 0..{nv - 1}")
    if nt == 0:
        raise MeshError("a mesh needs at least one triangle")

    geometries, clockwise = TriangleGeometry._oriented(verts[tris])
    if clockwise.any():
        tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
    message = _first_offender(tris, _degenerate(geometries.area, geometries.edge_lengths))
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
    length = np.hypot(tangent[:, 0], tangent[:, 1])
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
    angles = mesh.geometries.angles
    e = mesh.edges
    values = 0.5 / np.tan(angles[e.owner, e.owner_local])
    internal = mesh.internal_edges
    values[internal] += 0.5 / np.tan(angles[e.neighbor[internal], e.neighbor_local[internal]])
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class MeshQualityReport:
    """Angle extrema, cotangent coefficients and per-edge admissibility flags.

    ``edge_ok[e]`` is ``coefficients[e] >= COEFF_TOL``: strict Delaunay for an
    internal edge, an acute opposite angle for a boundary edge.  The mesh is
    admissible iff every flag holds, exactly when ``assemble`` accepts
    ``coefficients``.
    """

    theta_min: float
    theta_max: float
    coefficients: np.ndarray
    edge_ok: np.ndarray
    all_acute: bool
    admissible: bool

    def offending_edges(self) -> list[int]:
        return np.flatnonzero(~self.edge_ok).tolist()

    def to_dict(self) -> dict:
        return {
            "theta_min": self.theta_min,
            "theta_max": self.theta_max,
            "theta_min_degrees": math.degrees(self.theta_min),
            "theta_max_degrees": math.degrees(self.theta_max),
            "all_acute": bool(self.all_acute),
            "admissible": bool(self.admissible),
            "offending_edges": self.offending_edges(),
        }


def quality_report(mesh: Mesh) -> MeshQualityReport:
    """Compute the cotangent coefficients and check each against COEFF_TOL."""
    angles = mesh.geometries.angles
    coefficients = cotan_coefficients(mesh)
    edge_ok = coefficients >= COEFF_TOL
    edge_ok.flags.writeable = False
    return MeshQualityReport(
        theta_min=float(angles.min()),
        theta_max=float(angles.max()),
        coefficients=coefficients,
        edge_ok=edge_ok,
        all_acute=bool(angles.max() < math.pi / 2 - ANGLE_GUARD),
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


# Joins the rows of a block, which is then split in one piece: it is neither
# whitespace nor a numeral, so it stays a token of its own and fails any
# conversion.
_ROW_END = "\0"


def _plain(text: str) -> bool:
    """True if ``text`` may hold ASCII decimal numerals only: Python's
    ``float`` and ``int`` also read ``_`` separators and non-ASCII digits."""
    return text.isascii() and "_" not in text


def _parse_block(rows: list[str], width: int, dtype, valid) -> np.ndarray | None:
    """Convert ``rows`` to a (len(rows), width) array, or None if they fail.

    The rows are joined around ``_ROW_END``, split once and converted by one
    ``np.array`` call.  A row of another width moves some ``_ROW_END`` off
    the slots that follow every ``width`` tokens: either the slot check
    fails, the token count misses len(rows) * width, or that token stays
    among the values and fails the conversion.  ``valid`` checks the values
    with array operations.
    """
    block = f" {_ROW_END} ".join(rows)
    if not _plain(block):
        return None
    tokens = block.split()
    if tokens[width :: width + 1] != [_ROW_END] * (len(rows) - 1):
        return None
    del tokens[width :: width + 1]
    try:
        values = np.array(tokens, dtype=dtype).reshape(len(rows), width)
    except (ValueError, OverflowError):
        return None
    return values if valid(values) else None


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
