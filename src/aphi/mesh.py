"""Structured hexahedral meshes of axis-aligned boxes.

Entities (nodes, edges, cells) are numbered lexicographically with x
fastest, so rebuilding a mesh from identical inputs reproduces identical
numbering bit for bit.  Every edge runs along its positive axis, from its
lower to its upper node, and is stored as that node pair; node ids grow
along every axis, so the lower node id comes first and the global
orientation of an edge agrees with the local one in every cell.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

FACE_LABELS = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")

CONDUCTOR = "conductor"
AIR = "air"


class UncoveredRegionError(ValueError):
    """A cell centroid was matched by no region predicate."""


# Local node ordering of the hexahedron (VTK cell type 12): nodes 0-3 on
# the bottom face counterclockwise, 4-7 on the top face.
NODE_OFFSETS = np.array(
    [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
     (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)], dtype=np.int64)

# Twelve local edges, each oriented along its positive axis: four x-edges,
# four y-edges, four z-edges, transverse corners in (-,-),(+,-),(-,+),(+,+)
# order.  The pair (a, b) means "from local node a to local node b".
LOCAL_EDGE_NODES = np.array(
    [(0, 1), (3, 2), (4, 5), (7, 6),
     (0, 3), (1, 2), (4, 7), (5, 6),
     (0, 4), (1, 5), (3, 7), (2, 6)], dtype=np.int64)

LOCAL_EDGE_AXIS = np.repeat(np.arange(3), 4)

# Reference coordinates of the two transverse axes for each local edge.
LOCAL_EDGE_TRANSVERSE = np.tile(
    np.array([(-1, -1), (1, -1), (-1, 1), (1, 1)], dtype=np.float64), (3, 1))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box used for region predicates (closed on all sides)."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        inside = np.ones(pts.shape[0], dtype=bool)
        for ax in range(3):
            inside &= (pts[:, ax] >= self.lo[ax]) & (pts[:, ax] <= self.hi[ax])
        return inside


@dataclass(frozen=True)
class Mesh:
    """Structured hexahedral mesh with full node/edge/cell incidence.

    ``edges[e] = (a, b)`` with ``a < b`` runs along +axis from node a to
    node b; ``cell_edges`` holds the 12 global edge ids per cell in the
    ``LOCAL_EDGE_NODES`` ordering, which runs along +axis too, so
    ``edges[cell_edges] == cells[:, LOCAL_EDGE_NODES]`` and the global and
    local orientations agree without signs.
    """

    extents: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    subdivisions: tuple[int, int, int]
    nodes: np.ndarray        # (n_nodes, 3)
    cells: np.ndarray        # (n_cells, 8)
    edges: np.ndarray        # (n_edges, 2), low node first
    cell_edges: np.ndarray   # (n_cells, 12)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def spacing(self) -> np.ndarray:
        return np.array([(hi - lo) / n for (lo, hi), n in
                         zip(self.extents, self.subdivisions)])

    @property
    def origin(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.extents])

    def node_grid_index(self, nodes: np.ndarray) -> np.ndarray:
        """Map node ids to (i, j, k) grid indices."""
        nx, ny, _ = self.subdivisions
        nodes = np.asarray(nodes)
        i = nodes % (nx + 1)
        rest = nodes // (nx + 1)
        j = rest % (ny + 1)
        k = rest // (ny + 1)
        return np.stack([i, j, k], axis=-1)

    def cell_origins(self) -> np.ndarray:
        """Lower corner coordinates of every cell."""
        return self.nodes[self.cells[:, 0]]

    def cell_centroids(self) -> np.ndarray:
        return self.cell_origins() + 0.5 * self.spacing

    def locate_points(self, points: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
        """Return (cell ids, reference coordinates in [-1,1]^3) for points.

        Raises ValueError for points outside the domain (beyond a relative
        tolerance of the box size).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        h = self.spacing
        n = np.array(self.subdivisions)
        local = (pts - self.origin) / h
        if np.any(local < -tol * n) or np.any(local > n * (1 + tol)):
            bad = np.argwhere((local < -tol * n) | (local > n * (1 + tol)))
            raise ValueError(f"point outside domain: {pts[bad[0, 0]]}, extents {self.extents}")
        idx = np.clip(np.floor(local).astype(np.int64), 0, n - 1)
        ref = 2.0 * (local - idx) - 1.0
        cells = idx[:, 0] + n[0] * (idx[:, 1] + n[1] * idx[:, 2])
        return cells, np.clip(ref, -1.0, 1.0)


def build_box_mesh(extents: Sequence[Sequence[float]],
                   subdivisions: Sequence[int]) -> Mesh:
    """Build the structured hex mesh of a box.

    extents: three (lo, hi) intervals, each with hi > lo.
    subdivisions: three positive cell counts (nx, ny, nz).
    """
    if len(extents) != 3 or len(subdivisions) != 3:
        raise ValueError("extents and subdivisions must have length 3")
    subdivisions = tuple(int(n) for n in subdivisions)
    if any(n <= 0 for n in subdivisions):
        raise ValueError(f"subdivisions must be >= 1, got {subdivisions}")
    extents = tuple((float(lo), float(hi)) for lo, hi in extents)
    if any(hi <= lo for lo, hi in extents):
        raise ValueError(f"each extent interval must be nonempty, got {extents}")

    n = np.array(subdivisions)
    axes = [np.linspace(*extents[ax], n[ax] + 1) for ax in range(3)]
    grid = np.meshgrid(*axes[::-1], indexing="ij")
    nodes = np.stack([g.ravel() for g in grid[::-1]], axis=1)
    # node ids on the (z, y, x) grid, so that C order runs x fastest
    node_ids = np.arange(nodes.shape[0]).reshape(tuple(n[::-1] + 1))
    stride = np.array([1, n[0] + 1, (n[0] + 1) * (n[1] + 1)])
    cells = node_ids[:n[2], :n[1], :n[0]].reshape(-1, 1) + NODE_OFFSETS @ stride

    # Global edge ids: all x-edges first, then y, then z, each family
    # numbered like its lower nodes (x fastest).  A local edge of a cell is
    # the family edge at the offset of its lower local node.
    edges = []
    cell_edges = np.empty((cells.shape[0], 12), dtype=np.int64)
    lower_offsets = NODE_OFFSETS[LOCAL_EDGE_NODES[:, 0]]
    first = 0
    for ax in range(3):
        lower = np.delete(node_ids, -1, axis=2 - ax)  # all but the last layer along ax
        ids = first + np.arange(lower.size).reshape(lower.shape)
        edges.append(np.stack([lower.ravel(), lower.ravel() + stride[ax]], axis=1))
        for m in np.flatnonzero(LOCAL_EDGE_AXIS == ax):
            ox, oy, oz = lower_offsets[m]
            cell_edges[:, m] = ids[oz:oz + n[2], oy:oy + n[1], ox:ox + n[0]].ravel()
        first += lower.size

    return Mesh(extents=extents, subdivisions=subdivisions, nodes=nodes,
                cells=cells, edges=np.concatenate(edges), cell_edges=cell_edges)


@dataclass(frozen=True)
class RegionTags:
    """Conductor/air cell labels with derived node and edge sets.

    A node or edge counts as conductor-touching when at least one adjacent
    cell is conductor; the complements are the air-only index sets.
    """

    conductor_cells: np.ndarray   # bool (n_cells,)
    conductor_nodes: np.ndarray   # bool (n_nodes,)
    conductor_edges: np.ndarray   # bool (n_edges,)

    @property
    def air_cells(self) -> np.ndarray:
        return ~self.conductor_cells


def match_cells(mesh: Mesh, boxes: Sequence[Box]) -> np.ndarray:
    """Index of the last box containing each cell centroid.

    Raises UncoveredRegionError if some centroid lies in no box.
    """
    centroids = mesh.cell_centroids()
    match = np.full(mesh.n_cells, -1, dtype=np.int64)
    for idx, box in enumerate(boxes):
        match[box.contains(centroids)] = idx
    if np.any(match < 0):
        cell = int(np.argmax(match < 0))
        raise UncoveredRegionError(
            f"cell {cell} (centroid {centroids[cell]}) matched no region")
    return match


def derive_entity_tags(mesh: Mesh, conductor_cells: np.ndarray) -> RegionTags:
    conductor_cells = np.asarray(conductor_cells, dtype=bool)
    conductor_nodes = np.zeros(mesh.n_nodes, dtype=bool)
    conductor_edges = np.zeros(mesh.n_edges, dtype=bool)
    cc = np.flatnonzero(conductor_cells)
    conductor_nodes[mesh.cells[cc].ravel()] = True
    conductor_edges[mesh.cell_edges[cc].ravel()] = True
    return RegionTags(conductor_cells=conductor_cells,
                      conductor_nodes=conductor_nodes,
                      conductor_edges=conductor_edges)


def tag_regions(mesh: Mesh, predicates: Sequence[tuple[Box, str]]) -> RegionTags:
    """Label every cell by centroid membership, last match wins.

    Raises UncoveredRegionError if some centroid matches no predicate.
    """
    for _, label in predicates:
        if label not in (CONDUCTOR, AIR):
            raise ValueError(f"unknown region label {label!r}")
    match = match_cells(mesh, [box for box, _ in predicates])
    labels = np.array([label for _, label in predicates])
    conductor_cells = labels[match] == CONDUCTOR
    return derive_entity_tags(mesh, conductor_cells)


@dataclass(frozen=True)
class BoundarySet:
    nodes: np.ndarray  # node ids
    edges: np.ndarray  # edge ids


@dataclass(frozen=True)
class BoundaryTags:
    """Per-face-label boundary entity sets plus the union node mask.

    Entities on box edges/corners belong to every adjacent label.
    """

    sets: dict[str, BoundarySet]
    node_mask: np.ndarray

    def __getitem__(self, label: str) -> BoundarySet:
        if label not in self.sets:
            raise KeyError(f"unknown boundary label {label!r}; "
                           f"known labels: {sorted(self.sets)}")
        return self.sets[label]


def boundary_entities(mesh: Mesh) -> BoundaryTags:
    """Collect the nodes and edges of the six box faces."""
    nx, ny, nz = mesh.subdivisions
    grid = mesh.node_grid_index(np.arange(mesh.n_nodes))
    edge_mid = grid[mesh.edges[:, 0]] + grid[mesh.edges[:, 1]]  # doubled midpoint

    sets = {}
    node_mask = np.zeros(mesh.n_nodes, dtype=bool)
    limits = {"xmin": (0, 0), "xmax": (0, 2 * nx), "ymin": (1, 0),
              "ymax": (1, 2 * ny), "zmin": (2, 0), "zmax": (2, 2 * nz)}
    for label in FACE_LABELS:
        axis, value = limits[label]
        nodes = np.flatnonzero(grid[:, axis] * 2 == value)
        edges = np.flatnonzero(edge_mid[:, axis] == value)
        sets[label] = BoundarySet(nodes=nodes, edges=edges)
        node_mask[nodes] = True
    return BoundaryTags(sets=sets, node_mask=node_mask)
