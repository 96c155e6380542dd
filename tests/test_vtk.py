import numpy as np
import pytest

from aphi import physics
from aphi.mesh import Mesh, build_box_mesh
from aphi.physics import run_two_step
from aphi.vtk_io import export_vtk, write_vtk
from oracles import read_vtk_points


def test_mesh_only_file_structure(tmp_path):
    mesh = build_box_mesh(((0, 1), (0, 2), (0, 1)), (2, 1, 1))
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "ASCII" in lines
    assert "DATASET UNSTRUCTURED_GRID" in lines
    assert f"POINTS {mesh.n_nodes} double" in lines
    assert f"CELLS {mesh.n_cells} {mesh.n_cells * 9}" in lines
    types_at = lines.index(f"CELL_TYPES {mesh.n_cells}")
    assert all(lines[types_at + 1 + k] == "12" for k in range(mesh.n_cells))


def test_point_round_trip_bit_exact(tmp_path):
    mesh = build_box_mesh(((0, 0.22), (0, 1 / 3), (0, np.pi)), (3, 2, 2))
    path = tmp_path / "m.vtk"
    write_vtk(path, mesh)
    back = read_vtk_points(path)
    assert back.shape == mesh.nodes.shape
    assert np.array_equal(back, mesh.nodes)


def _loop_written_vtk(mesh, point_data, title):
    # one f-string per row, the reference layout of the legacy ASCII file
    out = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
           f"POINTS {mesh.n_nodes} double"]
    out += [" ".join(f"{x:.17g}" for x in p) for p in mesh.nodes]
    out.append(f"CELLS {mesh.n_cells} {mesh.n_cells * 9}")
    out += ["8 " + " ".join(str(int(n)) for n in cell) for cell in mesh.cells]
    out.append(f"CELL_TYPES {mesh.n_cells}")
    out += ["12"] * mesh.n_cells
    out.append(f"POINT_DATA {mesh.n_nodes}")
    for name, arr in point_data.items():
        out.append(f"VECTORS {name} double")
        out += [" ".join(f"{x:.17g}" for x in v) for v in arr]
    return "\n".join(out) + "\n"


def test_write_matches_per_row_formatting(tmp_path):
    mesh = build_box_mesh(((-1e-3, 0.22), (0, 1 / 3), (0, np.pi)), (2, 2, 1))
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((mesh.n_nodes, 3)) * 10.0 ** rng.integers(-30, 31, (mesh.n_nodes, 3))
    vals[0] = (-0.0, 0.0, 5e-324)
    vals[1] = (1e300, -1e-300, 1.0)
    point_data = {"B_re": vals, "B_im": -vals[::-1]}
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, point_data, title="t")
    assert path.read_text() == _loop_written_vtk(mesh, point_data, "t")


def test_field_export_lengths_and_names(tmp_path, academic_built):
    sol = run_two_step(academic_built, 100.0, "tree-cotree")
    path = tmp_path / "sol.vtk"
    export_vtk(path, academic_built, sol)
    text = path.read_text()
    n = academic_built.mesh.n_nodes
    assert f"POINT_DATA {n}" in text
    for name in ("B_re", "B_im", "E_re", "E_im", "D_re", "D_im", "J_re",
                 "J_im", "D_e_re", "D_m_re", "J_e_re", "J_m_re"):
        assert f"VECTORS {name} double" in text
        block = text.split(f"VECTORS {name} double\n", 1)[1]
        rows = block.splitlines()[:n]
        assert len(rows) == n and all(len(r.split()) == 3 for r in rows)


def test_export_locates_and_evaluates_each_basis_once(tmp_path, academic_built,
                                                     monkeypatch):
    calls = {"locate": 0, "scalar": 0, "edge": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Mesh, "locate_points", counted("locate", Mesh.locate_points))
    monkeypatch.setattr(physics, "physical_scalar_basis",
                        counted("scalar", physics.physical_scalar_basis))
    monkeypatch.setattr(physics, "physical_edge_basis",
                        counted("edge", physics.physical_edge_basis))
    sol = run_two_step(academic_built, 100.0, "tree-cotree")
    export_vtk(tmp_path / "f.vtk", academic_built, sol, density=2)
    assert calls == {"locate": 1, "scalar": 1, "edge": 1}


def test_density_refines_sampling_grid(tmp_path, academic_built):
    sol = run_two_step(academic_built, 0.0, "tree-cotree")
    path = tmp_path / "dense.vtk"
    export_vtk(path, academic_built, sol, density=2)
    pts = read_vtk_points(path)
    assert pts.shape[0] == 7 ** 3  # (2*3 + 1)^3 sampling nodes


def test_field_shape_validation(tmp_path):
    mesh = build_box_mesh(((0, 1), (0, 1), (0, 1)), (1, 1, 1))
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", mesh,
                  {"B_re": np.zeros((mesh.n_nodes, 2))})


def test_export_deterministic(tmp_path, academic_built):
    sol = run_two_step(academic_built, 100.0, "tree-cotree")
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    export_vtk(p1, academic_built, sol)
    export_vtk(p2, academic_built, sol)
    assert p1.read_bytes() == p2.read_bytes()
