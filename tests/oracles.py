"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (loops, dense algebra, finite
differences) and never calls the code paths it is used to check.
"""
from collections import deque

import numpy as np
import scipy.sparse as sp


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
    root = graph.gauge_nodes.size  # the vertex after the gauge nodes
    adj = [[] for _ in range(root + 1)]
    for pos in range(graph.edge_vertices.shape[0]):
        va, vb = (int(v) for v in graph.edge_vertices[pos])
        if va == vb:
            continue
        adj[va].append((pos, vb))
        adj[vb].append((pos, va))
    visited = [False] * (root + 1)
    visited[root] = True
    queue = deque([root])
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


def floating_conductor_node(mesh, conductor_cells, dirichlet_nodes):
    """The lowest node of the first component, joined by the edges of the
    conductor cells and taken in order of lowest node, that holds no
    Dirichlet node; None when every component holds one."""
    adj = {}
    for cell in np.flatnonzero(conductor_cells):
        for e in mesh.cell_edges[cell]:
            a, b = (int(v) for v in mesh.edges[e])
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    fixed = {int(n) for n in dirichlet_nodes}
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        component, queue = {start}, deque([start])
        while queue:
            for other in adj[queue.popleft()]:
                if other not in component:
                    component.add(other)
                    queue.append(other)
        seen |= component
        if not component & fixed:
            return start
    return None


def full_scatter(w, elem, rows, cols, shape):
    """Sum w[c] * elem[i, j] into entry (rows[c, i], cols[c, j]) over every
    cell and every element entry, zero weights and zero entries included,
    so the result stores every zero that the pattern of the cells holds."""
    vals = w[:, None, None] * elem[None, :, :]
    r = np.repeat(rows, cols.shape[1], axis=1)
    c = np.tile(cols, (1, rows.shape[1]))
    m = sp.coo_matrix((vals.ravel(), (r.ravel(), c.ravel())), shape=shape).tocsr()
    m.sum_duplicates()
    m.sort_indices()
    return m


def is_canonical_csr(A):
    """CSR with strictly increasing columns in every row, from the arrays."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    key = rows.astype(np.int64) * A.shape[1] + A.indices
    return A.format == "csr" and bool(np.all(np.diff(key) > 0))


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


def polynomial_moments(mesh, source, kind):
    """Load vector of a source whose terms (coef, px, py, pz) have
    numpy.polynomial factors, from exact antiderivatives cell by cell.

    kind "scalar": source is a tuple of terms and q[i] = int rho N_i; kind
    "edge": one tuple per component and j[i] = int J . w_i.  The basis is
    read from the node coordinates alone: N_i is the product of the 1D
    hats that are 1 at node i, and w_i is t_i / h along edge i times the
    hats that are 1 on the edge's two transverse lines.
    """
    h = mesh.spacing

    def integral(p, a, lo, at=None):
        # int over [lo, lo + h_a] of p, times the hat that is 1 at `at`
        hi = lo + h[a]
        if at is not None:
            x = type(p).identity(domain=p.domain, window=p.window)
            other = hi if at == lo else lo
            p = p * (x - other) / (at - other)
        F = p.integ()
        return F(hi) - F(lo)

    out = np.zeros(mesh.n_nodes if kind == "scalar" else mesh.n_edges, dtype=complex)
    for cell in range(mesh.n_cells):
        lo = mesh.nodes[mesh.cells[cell]].min(axis=0)
        if kind == "scalar":
            for node in mesh.cells[cell]:
                at = mesh.nodes[node]
                for coef, *ps in source:
                    out[node] += coef * np.prod([integral(ps[a], a, lo[a], at[a])
                                                 for a in range(3)])
            continue
        for e in mesh.cell_edges[cell]:
            start, end = mesh.nodes[mesh.edges[e]]
            axis = int(np.argmax(end - start))
            for coef, *ps in source[axis]:
                out[e] += coef * np.prod([integral(ps[a], a, lo[a]) / h[a] if a == axis
                                          else integral(ps[a], a, lo[a], start[a])
                                          for a in range(3)])
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


def edge_interpolate(mesh, field, n_gauss=5):
    """Edge circulations of a vector field: int_e F . t dl per edge.

    field maps (m, 3) points to (m, 3) values; edges are straight and
    axis-aligned, so Gauss quadrature along the edge is used directly.
    """
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    a = mesh.nodes[mesh.edges[:, 0]]
    b = mesh.nodes[mesh.edges[:, 1]]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    circ = np.zeros(mesh.n_edges, dtype=complex)
    for xi, wi in zip(x, w):
        pts = mid + xi * half
        vals = np.asarray(field(pts))
        circ += wi * np.einsum("ij,ij->i", vals, half)
    return circ


def read_vtk_points(path):
    """Parse the POINTS block back out of a legacy ASCII VTK file."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("POINTS"):
            count = int(line.split()[1])
            rows = [tuple(float(t) for t in lines[i + 1 + k].split())
                    for k in range(count)]
            return np.array(rows)
    raise ValueError(f"no POINTS block found in {path}")


def whole_batch_fields(built, solution, points):
    """Every DerivedFields evaluator at points, as name -> array, with both
    bases evaluated for all the points in one batch and each field written
    out as its formula."""
    from aphi.spaces import physical_edge_basis, physical_scalar_basis

    mesh = built.mesh
    omega = solution.frequency.omega
    cells, ref = mesh.locate_points(points)
    _, grads = physical_scalar_basis(mesh.spacing, ref)
    W, C = physical_edge_basis(mesh.spacing, ref)
    coeff = solution.a[mesh.cell_edges[cells]]
    grad_phi = np.einsum("ql,qld->qd", solution.u[mesh.cells[cells]], grads)
    A = np.einsum("ql,qld->qd", coeff, W)
    B = np.einsum("ql,qld->qd", coeff, C)
    eps = built.material.eps[cells][:, None]
    sigma = built.material.sigma[cells][:, None]
    D_e = -eps * grad_phi
    D_m = -1j * omega * eps * A
    J_e = -sigma * grad_phi
    J_m = -1j * omega * sigma * A
    J_source = (built.mms.J_s(points, omega) if built.mms is not None
                else np.zeros((points.shape[0], 3), dtype=complex))
    return {"grad_phi": grad_phi, "vector_potential": A, "B": B,
            "E": -grad_phi - 1j * omega * A, "D_e": D_e, "D_m": D_m,
            "J_e": J_e, "J_m": J_m, "J_source": J_source,
            "D_total": D_e + D_m, "J_total": J_e + J_m + J_source}
