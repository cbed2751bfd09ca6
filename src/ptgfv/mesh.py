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
to face an acute angle; ``quality_report`` checks both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshError",
    "MeshFormatError",
    "TriangleGeometry",
    "Mesh",
    "MeshQualityReport",
    "build_mesh",
    "quality_report",
    "generate_rhombus_equilateral",
    "read_mesh",
    "write_mesh",
]

# Guard band for the strict angle inequalities (Delaunay / boundary acuteness).
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


def _edge_lengths(v: np.ndarray) -> np.ndarray:
    """Edge lengths (..., 3); entry i is the edge opposite vertex i."""
    d = v[..., _PREV, :] - v[..., _NEXT, :]
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
    circumcenter: np.ndarray  # (2,)
    rho2: float
    centroid: np.ndarray      # (2,)

    @staticmethod
    def degenerate(vertices) -> np.ndarray:
        """Per-triangle flag: area at most DEGENERATE_REL * (longest edge)^2.

        ``vertices`` has shape (..., 3, 2); either orientation is accepted.
        """
        v = np.asarray(vertices, dtype=float)
        return _degenerate(np.abs(_signed_areas(v)), _edge_lengths(v))

    @classmethod
    def from_vertices(cls, vertices) -> "TriangleGeometry":
        """Build from three 2D points, or from a (B, 3, 2) batch of them,
        reordering each triangle to counter-clockwise.

        Raises :class:`MeshError` naming the first degenerate triangle.
        """
        v = np.array(vertices, dtype=float)
        batched = v.ndim == 3
        v = v.reshape(-1, 3, 2)
        cw = _signed_areas(v) < 0.0
        v[cw] = v[cw][:, [0, 2, 1]]
        area = _signed_areas(v)
        lengths = _edge_lengths(v)
        bad = np.flatnonzero(_degenerate(area, lengths))
        if bad.size:
            where = f" {bad[0]}" if batched else ""
            raise MeshError(f"degenerate triangle{where} with vertices {v[bad[0]].tolist()}")
        # angle i lies between the edges to vertices i+1 and i+2, which are
        # the edges opposite vertices i+2 and i+1
        a = v[:, _NEXT] - v
        b = v[:, _PREV] - v
        cos = (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) / (lengths[:, _PREV] * lengths[:, _NEXT])
        angles = np.arccos(np.clip(cos, -1.0, 1.0))
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        denom = 2.0 * _cross(d1, d2)
        n1 = np.sum(d1 * d1, axis=-1)
        n2 = np.sum(d2 * d2, axis=-1)
        center = v[:, 0] + np.stack(
            [(d2[:, 1] * n1 - d1[:, 1] * n2) / denom, (d1[:, 0] * n2 - d2[:, 0] * n1) / denom],
            axis=-1,
        )
        rho2 = np.sum(lengths**2, axis=-1) / 36.0
        centroid = v.mean(axis=-2)
        fields = (v, area, lengths, angles, center, rho2, centroid)
        for arr in fields:
            arr.flags.writeable = False
        if batched:
            return cls(*fields)
        v, area, lengths, angles, center, rho2, centroid = (arr[0] for arr in fields)
        return cls(v, float(area), lengths, angles, center, float(rho2), centroid)


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

    def opposite_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """Per edge, the angle opposite it in its owner and in its neighbor
        (NaN on the boundary)."""
        angles = self.geometries.angles
        e = self.edges
        theta_l = np.full(len(e), np.nan)
        internal = self.internal_edges
        theta_l[internal] = angles[e.neighbor[internal], e.neighbor_local[internal]]
        return angles[e.owner, e.owner_local], theta_l


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

    clockwise = _signed_areas(verts[tris]) < 0.0
    tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
    corners = verts[tris]
    message = _first_offender(tris, TriangleGeometry.degenerate(corners))
    if message:
        raise MeshError(message)
    geometries = TriangleGeometry.from_vertices(corners)

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


@dataclass(frozen=True)
class MeshQualityReport:
    """Angle extrema and per-edge admissibility flags.

    ``edge_ok[e]`` is the strict Delaunay flag for internal edges and the
    acute-opposite-angle flag for boundary edges.  The mesh is admissible for
    the four-point scheme iff every flag holds.
    """

    theta_min: float
    theta_max: float
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
    """Check the strict Delaunay and boundary-acuteness angle conditions."""
    angles = mesh.geometries.angles
    theta_k, theta_l = mesh.opposite_angles()
    edge_ok = np.where(
        mesh.edges.neighbor >= 0,
        theta_k + theta_l < math.pi - ANGLE_GUARD,
        theta_k < math.pi / 2 - ANGLE_GUARD,
    )
    edge_ok.flags.writeable = False
    return MeshQualityReport(
        theta_min=float(angles.min()),
        theta_max=float(angles.max()),
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


# Ends each row when a block is split in one piece: it is neither whitespace
# nor a numeral, so it stays a token of its own and fails any conversion.
_ROW_END = "\0"


def _parse_block(rows, width: int, dtype, valid, check_line) -> np.ndarray:
    """Convert ``rows`` of (line number, text) to a (len(rows), width) array.

    The block is split once, with ``_ROW_END`` after every row, and converted
    by one ``np.array`` call.  A row of another width moves some ``_ROW_END``
    off the slots that follow every ``width`` tokens: either the slot check
    fails, or that token stays among the values and fails the conversion.
    ``valid`` checks the values with array operations.  Only a block that
    fails any of these goes through ``check_line(lineno, parts)`` line by
    line, which raises on the first bad line with its message.
    """
    try:
        tokens = "".join([f"{line} {_ROW_END} " for _, line in rows]).split()
        if tokens[width :: width + 1] == [_ROW_END] * len(rows):
            del tokens[width :: width + 1]
            values = np.array(tokens, dtype=dtype).reshape(len(rows), width)
            if valid(values):
                return values
    except (ValueError, OverflowError):
        pass
    for lineno, line in rows:
        check_line(lineno, line.split())
    raise AssertionError("a block failed its bulk parse but no line check")


def read_mesh(text: str) -> Mesh:
    """Parse the text format produced by :func:`write_mesh`.

    Blank lines and lines starting with ``#`` are ignored.  The vertex and
    the triangle lines are each parsed in bulk; errors carry the offending
    1-based line number.
    """
    numbered = [
        (lineno, stripped)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if (stripped := line.strip()) and stripped[0] != "#"
    ]
    if not numbered:
        raise MeshFormatError("empty mesh file", 1)

    def end_of_file(what: str) -> MeshFormatError:
        return MeshFormatError(f"unexpected end of file, expected {what}", numbered[-1][0] + 1)

    lineno, header = numbered[0]
    if header != FORMAT_HEADER:
        raise MeshFormatError(f"bad header {header!r}, expected {FORMAT_HEADER!r}", lineno)
    if len(numbered) < 2:
        raise end_of_file("vertex and triangle counts")
    lineno, counts = numbered[1]
    parts = counts.split()
    if len(parts) != 2:
        raise MeshFormatError("expected '<nv> <nt>'", lineno)
    try:
        nv, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError("counts must be integers", lineno) from None
    if nv < 3 or nt < 1:
        raise MeshFormatError(f"implausible counts nv={nv} nt={nt}", lineno)

    def check_vertex(lineno: int, parts: list[str]) -> None:
        if len(parts) != 2:
            raise MeshFormatError("expected 'x y'", lineno)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise MeshFormatError("coordinates must be decimal floats", lineno) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MeshFormatError("coordinates must be finite", lineno)

    def check_triangle(lineno: int, parts: list[str]) -> None:
        if len(parts) != 3:
            raise MeshFormatError("expected 'i j k'", lineno)
        try:
            tri = tuple(int(p) for p in parts)
        except ValueError:
            raise MeshFormatError("indices must be integers", lineno) from None
        for idx in tri:
            if not 0 <= idx < nv:
                raise MeshFormatError(f"vertex index {idx} out of range 0..{nv - 1}", lineno)

    rows = numbered[2 : 2 + nv]
    verts = _parse_block(rows, 2, float, lambda v: np.isfinite(v).all(), check_vertex)
    if len(rows) < nv:
        raise end_of_file("vertex coordinates")
    rows = numbered[2 + nv : 2 + nv + nt]
    tris = _parse_block(
        rows, 3, np.int64, lambda t: ((t >= 0) & (t < nv)).all(), check_triangle
    )
    if len(rows) < nt:
        raise end_of_file("triangle indices")
    if len(numbered) > 2 + nv + nt:
        raise MeshFormatError(
            "unexpected content after the declared data", numbered[2 + nv + nt][0]
        )
    try:
        return build_mesh(verts, tris)
    except MeshError as exc:
        raise MeshError(f"invalid mesh in file: {exc}") from exc
