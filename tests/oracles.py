"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (loops, dense algebra, finite
differences) and never calls the code paths it is used to check.
"""
from collections import deque

import numpy as np


def brute_force_edges(subdivisions):
    """All grid-adjacent node pairs of a box grid, as a sorted set."""
    nx, ny, nz = subdivisions

    def nid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    edges = set()
    for k in range(nz + 1):
        for j in range(ny + 1):
            for i in range(nx + 1):
                if i < nx:
                    edges.add((nid(i, j, k), nid(i + 1, j, k)))
                if j < ny:
                    edges.add((nid(i, j, k), nid(i, j + 1, k)))
                if k < nz:
                    edges.add((nid(i, j, k), nid(i, j, k + 1)))
    return sorted(edges)


def bfs_tree(graph):
    """Queue-based BFS of a gauge graph from its root, with
    neighbours in ascending free-edge position.  Returns the tree edge
    positions, ascending, and the vertex each of them reaches."""
    adj = [[] for _ in range(graph.n_vertices)]
    for pos in range(graph.edge_ids.shape[0]):
        va, vb = (int(v) for v in graph.edge_vertices[pos])
        if va == vb:
            continue
        adj[va].append((pos, vb))
        adj[vb].append((pos, va))
    visited = [False] * graph.n_vertices
    visited[graph.root] = True
    queue = deque([graph.root])
    reached = {}
    while queue:
        v = queue.popleft()
        for pos, other in adj[v]:
            if not visited[other]:
                visited[other] = True
                reached[pos] = other
                queue.append(other)
    tree = sorted(reached)
    return np.array(tree, dtype=np.int64), np.array([reached[p] for p in tree], dtype=np.int64)


def brute_force_faces(cells):
    """Distinct quad faces of hex cells -> {face key: occurrence count}."""
    local_faces = [(0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
                   (2, 3, 7, 6), (0, 4, 7, 3), (1, 2, 6, 5)]
    counts = {}
    for cell in cells:
        for face in local_faces:
            key = frozenset(int(cell[l]) for l in face)
            counts[key] = counts.get(key, 0) + 1
    return counts


def interior_node_count(subdivisions):
    return max(0, (subdivisions[0] - 1)) * max(0, (subdivisions[1] - 1)) \
        * max(0, (subdivisions[2] - 1))


def dense_rank(A, rtol=1e-10):
    A = np.asarray(A.toarray() if hasattr(A, "toarray") else A)
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def dense_condition(A):
    A = np.asarray(A.toarray() if hasattr(A, "toarray") else A)
    s = np.linalg.svd(A, compute_uv=False)
    return np.inf if s[-1] == 0 else float(s[0] / s[-1])


def min_eig_sym(A):
    A = np.asarray(A.toarray() if hasattr(A, "toarray") else A)
    return float(np.linalg.eigvalsh(0.5 * (A + A.conj().T)).min())


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar callable at one point."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(3)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        g[ax] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(F, x, h=1e-6):
    """Central-difference Jacobian of a vector callable (3 -> 3)."""
    x = np.asarray(x, dtype=float)
    J = np.zeros((3, 3))
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        J[:, ax] = (F(x + e) - F(x - e)) / (2 * h)
    return J


def fd_curl(F, x, h=1e-6):
    J = fd_jacobian(F, x, h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


def fd_divergence(F, x, h=1e-6):
    return float(np.trace(fd_jacobian(F, x, h)))


def fd_curl_curl(F, x, h=1e-4):
    """Second-order central differences of curl(F) component stencils."""
    def curl_at(y):
        return fd_curl(F, y, h)
    return fd_curl(curl_at, x, h)


def line_integral(F, a, b, n_gauss=5):
    """Gauss quadrature of int_a^b F . dl along a straight segment."""
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = 0.0
    for xi, wi in zip(x, w):
        total = total + wi * np.dot(np.asarray(F(mid + xi * half)), half)
    return total


def volume_quadrature(f, lo, hi, n=4):
    """Tensor Gauss quadrature of a scalar callable over a box."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    total = 0.0
    for c, wc in zip(x, w):
        for b, wb in zip(x, w):
            for a, wa in zip(x, w):
                p = mid + half * np.array([a, b, c])
                total = total + wa * wb * wc * f(p)
    return total * half.prod()


def cell_centre_fields(mesh, u, a, omega):
    """grad phi, A, B and E of lowest-order elements at every cell centre.

    Built from the degrees of freedom alone: at the centre of a box cell the
    trilinear gradient is the mean of the four parallel nodal differences
    over h, the edge-element value is the mean of the four parallel
    circulations over h, and each curl component is the mean of the two
    opposite face circulations over the face area.  Cells are visited with
    i fastest, then j, then k.  Returns (centres, {name: (n_cells, 3)}).
    """
    nx, ny, nz = mesh.subdivisions
    lo = np.array([e[0] for e in mesh.extents], dtype=float)
    h = (np.array([e[1] for e in mesh.extents], dtype=float) - lo) / [nx, ny, nz]

    def nid(i, j, k):
        return i + (nx + 1) * (j + (ny + 1) * k)

    signed_edge = {}
    for e, (p, q) in enumerate(mesh.edges):
        signed_edge[(int(p), int(q))] = (e, 1.0)
        signed_edge[(int(q), int(p))] = (e, -1.0)

    def circulation(p, q):
        e, s = signed_edge[(p, q)]
        return s * a[e]

    centres, grads, vecs, curls = [], [], [], []
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                def node(off):
                    return nid(i + off[0], j + off[1], k + off[2])

                assert np.allclose(mesh.nodes[node((0, 0, 0))], lo + h * [i, j, k])
                g = np.zeros(3, dtype=complex)
                v = np.zeros(3, dtype=complex)
                b = np.zeros(3, dtype=complex)
                for ax in range(3):
                    t1, t2 = (ax + 1) % 3, (ax + 2) % 3
                    for s1 in (0, 1):
                        for s2 in (0, 1):
                            start = [0, 0, 0]
                            start[t1], start[t2] = s1, s2
                            end = list(start)
                            end[ax] = 1
                            p, q = node(start), node(end)
                            g[ax] += (u[q] - u[p]) / (4 * h[ax])
                            v[ax] += circulation(p, q) / (4 * h[ax])
                    for side in (0, 1):
                        ring = []
                        for c1, c2 in ((0, 0), (1, 0), (1, 1), (0, 1)):
                            off = [0, 0, 0]
                            off[ax], off[t1], off[t2] = side, c1, c2
                            ring.append(node(off))
                        loop = sum(circulation(ring[m], ring[(m + 1) % 4])
                                   for m in range(4))
                        b[ax] += loop / (2 * h[t1] * h[t2])
                centres.append(lo + h * [i + 0.5, j + 0.5, k + 0.5])
                grads.append(g)
                vecs.append(v)
                curls.append(b)
    grads, vecs = np.array(grads), np.array(vecs)
    fields = {"grad_phi": grads, "A": vecs, "B": np.array(curls),
              "E": -grads - 1j * omega * vecs}
    return np.array(centres), fields


def source_moments(mesh, source, kind, order=10):
    """Load vector of a source by the whole-mesh quadrature formula: the
    points of every cell in one source call and one three-operand einsum.

    kind "scalar" gives q[i] = int rho N_i over all nodes, kind "edge"
    j[i] = int J . w_i over all edges.
    """
    from aphi.spaces import (physical_edge_basis, physical_scalar_basis,
                             tensor_quadrature)

    pts, wts = tensor_quadrature(order)
    h = mesh.spacing
    phys = mesh.cell_origins()[:, None, :] + (pts[None, :, :] + 1.0) * (0.5 * h)
    det = h.prod() / 8.0
    if kind == "scalar":
        N, _ = physical_scalar_basis(h, pts)
        vals = np.asarray(source(phys.reshape(-1, 3))).reshape(mesh.n_cells, -1)
        contrib = det * np.einsum("cq,q,ql->cl", vals, wts, N)
        out = np.zeros(mesh.n_nodes, dtype=complex)
        np.add.at(out, mesh.cells, contrib)
        return out
    W, _ = physical_edge_basis(h, pts)
    vals = np.asarray(source(phys.reshape(-1, 3))).reshape(mesh.n_cells, -1, 3)
    contrib = det * np.einsum("cqd,q,qld->cl", vals, wts, W)
    out = np.zeros(mesh.n_edges, dtype=complex)
    np.add.at(out, mesh.cell_edges, contrib)
    return out


def hcurl_error(built, a_full, case):
    """physics.hcurl_error with the discrete field and its curl at the
    quadrature points formed by one unoptimized einsum each."""
    from aphi.physics import _ERROR_QUAD_ORDER
    from aphi.spaces import physical_edge_basis, tensor_quadrature

    mesh = built.mesh
    pts, wts = tensor_quadrature(_ERROR_QUAD_ORDER)
    W, C = physical_edge_basis(mesh.spacing, pts)
    coeff = a_full[mesh.cell_edges]
    A_h = np.einsum("cl,qld->cqd", coeff, W)
    curl_h = np.einsum("cl,qld->cqd", coeff, C)
    origins = mesh.cell_origins()
    phys = origins[:, None, :] + (pts[None, :, :] + 1.0) * (0.5 * mesh.spacing)
    flat = phys.reshape(-1, 3)
    dA = A_h - case.A(flat).reshape(A_h.shape)
    dC = curl_h - case.curl_A(flat).reshape(curl_h.shape)
    det = mesh.spacing.prod() / 8.0
    err2 = det * np.einsum("q,cq->", wts,
                           np.abs(dA) ** 2 @ np.ones(3) + np.abs(dC) ** 2 @ np.ones(3))
    return float(np.sqrt(err2))
