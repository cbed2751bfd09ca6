"""Conformal triangular meshes with oriented edges and coboundary maps.

A mesh stores vertices, counter-clockwise triangles and a derived edge list.
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
    "Edge",
    "Mesh",
    "MeshQualityReport",
    "build_mesh",
    "triangle_geometry",
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


@dataclass(frozen=True)
class Edge:
    """One oriented mesh edge.

    ``owner`` is the triangle the normal points away from; for an internal
    edge ``neighbor`` is the triangle it points into, for a boundary edge it
    is None and the normal points out of the domain.  ``owner_local`` /
    ``neighbor_local`` give the local edge index (= local index of the
    opposite vertex) inside each triangle.
    """

    tail: int
    head: int
    normal: np.ndarray
    length: float
    owner: int
    owner_local: int
    opposite_owner: int
    neighbor: int | None = None
    neighbor_local: int | None = None
    opposite_neighbor: int | None = None

    @property
    def is_boundary(self) -> bool:
        return self.neighbor is None


class Mesh:
    """Immutable conformal triangle mesh; use :func:`build_mesh` to create one.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counter-clockwise
    edges : tuple of Edge
    tri_edges : (nt, 3) int array, edge id of local edge i (opposite vertex i)
    tri_signs : (nt, 3) int array, +1 where the canonical normal is outward
        for that triangle, -1 otherwise
    internal_edges, boundary_edges : int arrays of edge ids
    boundary_position : per-edge index into ``boundary_edges`` (-1 internal)
    """

    def __init__(self, vertices, triangles, edges, tri_edges, tri_signs, geometries):
        self.vertices = vertices
        self.triangles = triangles
        self.edges = tuple(edges)
        self.tri_edges = tri_edges
        self.tri_signs = tri_signs
        self._geometries = tuple(geometries)
        self.internal_edges = np.array(
            [e for e, edge in enumerate(self.edges) if not edge.is_boundary], dtype=int
        )
        self.boundary_edges = np.array(
            [e for e, edge in enumerate(self.edges) if edge.is_boundary], dtype=int
        )
        self.boundary_position = np.full(len(self.edges), -1, dtype=int)
        self.boundary_position[self.boundary_edges] = np.arange(len(self.boundary_edges))
        self._areas = np.array([g.area for g in self._geometries])
        for arr in (
            self.vertices,
            self.triangles,
            self.tri_edges,
            self.tri_signs,
            self.internal_edges,
            self.boundary_edges,
            self.boundary_position,
            self._areas,
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
        return max(e.length for e in self.edges)

    @property
    def areas(self) -> np.ndarray:
        return self._areas

    def geometry(self, t: int) -> TriangleGeometry:
        return self._geometries[t]

    def edge_opposite_angles(self, e: int) -> tuple[float, float | None]:
        """Angles opposite edge ``e`` in its owner and (if any) neighbor."""
        edge = self.edges[e]
        theta_k = float(self._geometries[edge.owner].angles[edge.owner_local])
        if edge.is_boundary:
            return theta_k, None
        theta_l = float(self._geometries[edge.neighbor].angles[edge.neighbor_local])
        return theta_k, theta_l


def triangle_geometry(mesh: Mesh, t: int) -> TriangleGeometry:
    """Geometry of triangle ``t`` (precomputed at build time)."""
    if not 0 <= t < mesh.num_triangles:
        raise IndexError(f"triangle id {t} out of range")
    return mesh.geometry(t)


def build_mesh(vertices, triangles) -> Mesh:
    """Build a mesh from vertex coordinates and vertex-index triples.

    Triangles given clockwise are silently reoriented.  Raises
    :class:`MeshError` for out-of-range indices, duplicate or degenerate
    triangles, and non-conforming connectivity (an edge shared by more than
    two triangles).
    """
    verts = np.array(vertices, dtype=float).reshape(-1, 2)
    tris = np.array(triangles, dtype=int).reshape(-1, 3)
    if len(verts) < 3:
        raise MeshError("a mesh needs at least 3 vertices")
    if tris.size and (tris.min() < 0 or tris.max() >= len(verts)):
        raise MeshError("triangle vertex index out of range")
    if len(tris) == 0:
        raise MeshError("a mesh needs at least one triangle")

    clockwise = _signed_areas(verts[tris]) < 0.0
    tris[clockwise] = tris[clockwise][:, [0, 2, 1]]
    corners = verts[tris]
    degenerate = TriangleGeometry.degenerate(corners)
    seen: set[tuple[int, int, int]] = set()
    for t, tri in enumerate(tris.tolist()):
        if len(set(tri)) != 3:
            raise MeshError(f"triangle {t} repeats a vertex")
        key = tuple(sorted(tri))
        if key in seen:
            raise MeshError(f"duplicate triangle {key}")
        seen.add(key)
        if degenerate[t]:
            raise MeshError(f"triangle {t} is degenerate")
    batch = TriangleGeometry.from_vertices(corners)
    geometries = [
        TriangleGeometry(*row)
        for row in zip(
            batch.vertices,
            batch.area.tolist(),
            batch.edge_lengths,
            batch.angles,
            batch.circumcenter,
            batch.rho2.tolist(),
            batch.centroid,
        )
    ]

    incidence: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t, tri in enumerate(tris):
        for m in range(3):
            p = int(tri[(m + 1) % 3])
            q = int(tri[(m + 2) % 3])
            incidence.setdefault((min(p, q), max(p, q)), []).append((t, m))

    edges = []
    nt = len(tris)
    tri_edges = np.full((nt, 3), -1, dtype=int)
    tri_signs = np.zeros((nt, 3), dtype=int)
    for eid, key in enumerate(sorted(incidence)):
        inc = sorted(incidence[key])
        if len(inc) > 2:
            raise MeshError(
                f"non-conforming mesh: edge {key} belongs to {len(inc)} triangles"
            )
        owner, m = inc[0]
        tri = tris[owner]
        tail = int(tri[(m + 1) % 3])
        head = int(tri[(m + 2) % 3])
        tangent = verts[head] - verts[tail]
        length = float(np.hypot(*tangent))
        normal = np.array([tangent[1], -tangent[0]]) / length
        normal.flags.writeable = False
        tri_edges[owner, m] = eid
        tri_signs[owner, m] = 1
        if len(inc) == 2:
            neighbor, ml = inc[1]
            tri_edges[neighbor, ml] = eid
            tri_signs[neighbor, ml] = -1
            edges.append(
                Edge(
                    tail=tail,
                    head=head,
                    normal=normal,
                    length=length,
                    owner=owner,
                    owner_local=m,
                    opposite_owner=int(tri[m]),
                    neighbor=neighbor,
                    neighbor_local=ml,
                    opposite_neighbor=int(tris[neighbor][ml]),
                )
            )
        else:
            edges.append(
                Edge(
                    tail=tail,
                    head=head,
                    normal=normal,
                    length=length,
                    owner=owner,
                    owner_local=m,
                    opposite_owner=int(tri[m]),
                )
            )
    return Mesh(verts, tris, edges, tri_edges, tri_signs, geometries)


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
        return [int(e) for e in np.flatnonzero(~self.edge_ok)]

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
    angles = np.array([mesh.geometry(t).angles for t in range(mesh.num_triangles)])
    edge_ok = np.empty(mesh.num_edges, dtype=bool)
    for e in range(mesh.num_edges):
        theta_k, theta_l = mesh.edge_opposite_angles(e)
        if theta_l is None:
            edge_ok[e] = theta_k < math.pi / 2 - ANGLE_GUARD
        else:
            edge_ok[e] = theta_k + theta_l < math.pi - ANGLE_GUARD
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
    """
    if n < 1:
        raise ValueError("subdivision count must be >= 1")
    s3 = math.sqrt(3.0)
    verts = [
        (i / n + j / (2 * n), j * s3 / (2 * n))
        for j in range(n + 1)
        for i in range(n + 1)
    ]

    def vid(i, j):
        return j * (n + 1) + i

    tris = []
    for j in range(n):
        for i in range(n):
            tris.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            tris.append((vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return build_mesh(verts, tris)


FORMAT_HEADER = "ptg-mesh 1"


def write_mesh(mesh: Mesh) -> str:
    """Serialize to the line-oriented text format (17 significant digits)."""
    lines = [FORMAT_HEADER, f"{mesh.num_vertices} {mesh.num_triangles}"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    return "\n".join(lines) + "\n"


def read_mesh(text: str) -> Mesh:
    """Parse the text format produced by :func:`write_mesh`.

    Blank lines and lines starting with ``#`` are ignored.  Errors carry the
    offending 1-based line number.
    """
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise MeshFormatError("empty mesh file", 1)
    pos = 0

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(numbered):
            last = numbered[-1][0] if numbered else 1
            raise MeshFormatError(f"unexpected end of file, expected {what}", last + 1)
        item = numbered[pos]
        pos += 1
        return item

    lineno, header = take("header")
    if header != FORMAT_HEADER:
        raise MeshFormatError(f"bad header {header!r}, expected {FORMAT_HEADER!r}", lineno)
    lineno, counts = take("vertex and triangle counts")
    parts = counts.split()
    if len(parts) != 2:
        raise MeshFormatError("expected '<nv> <nt>'", lineno)
    try:
        nv, nt = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError("counts must be integers", lineno) from None
    if nv < 3 or nt < 1:
        raise MeshFormatError(f"implausible counts nv={nv} nt={nt}", lineno)

    verts = []
    for _ in range(nv):
        lineno, line = take("vertex coordinates")
        parts = line.split()
        if len(parts) != 2:
            raise MeshFormatError("expected 'x y'", lineno)
        try:
            verts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise MeshFormatError("coordinates must be decimal floats", lineno) from None
    tris = []
    for _ in range(nt):
        lineno, line = take("triangle indices")
        parts = line.split()
        if len(parts) != 3:
            raise MeshFormatError("expected 'i j k'", lineno)
        try:
            tri = tuple(int(p) for p in parts)
        except ValueError:
            raise MeshFormatError("indices must be integers", lineno) from None
        for idx in tri:
            if not 0 <= idx < nv:
                raise MeshFormatError(f"vertex index {idx} out of range 0..{nv - 1}", lineno)
        tris.append(tri)
    if pos != len(numbered):
        raise MeshFormatError("unexpected content after the declared data", numbered[pos][0])
    try:
        return build_mesh(verts, tris)
    except MeshError as exc:
        raise MeshError(f"invalid mesh in file: {exc}") from exc
