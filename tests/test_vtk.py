import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aphi import cli, physics
from aphi.mesh import Mesh, build_box_mesh
from aphi.physics import DerivedFields, run_two_step
from aphi.vtk_io import _FIELD_EVALUATORS, export_vtk, write_vtk
from oracles import read_vtk_points

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SPECIAL_VALUES = (-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e-300)


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


def test_few_distinct_values_match_per_row_formatting(tmp_path):
    mesh = build_box_mesh(((-1e-3, 0.22), (0, 1 / 3), (0, np.pi)), (3, 2, 2))
    rng = np.random.default_rng(11)
    pool = np.array(SPECIAL_VALUES + (1.0, -2.5))
    vals = pool[rng.integers(pool.size, size=(mesh.n_nodes, 3))]
    vals[0] = (-0.0, 0.0, np.nan)
    # a second NaN bit pattern, which formats the same as the first
    vals[1, 0] = (np.array(np.nan).view(np.int64) ^ 1).view(np.float64)
    point_data = {"J_re": vals, "J_im": np.zeros_like(vals)}
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, point_data, title="t")
    assert path.read_text() == _loop_written_vtk(mesh, point_data, "t")


@given(st.tuples(*[st.integers(1, 3)] * 3), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_value_pools_match_per_row_formatting(tmp_path_factory, subdivs, share, seed):
    # the distinct share of the vectors runs from one value to all distinct
    mesh = build_box_mesh(((0, 0.3), (-1, 1), (0, 1e-3)), subdivs)
    rng = np.random.default_rng(seed)
    n_values = 3 * mesh.n_nodes
    n_pool = max(1, round(share * n_values))
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, size=n_pool,
                        dtype=np.int64, endpoint=True)
    pool = np.concatenate([SPECIAL_VALUES, bits.view(np.float64)])[rng.permutation(n_pool)]
    vals = pool[rng.permutation(np.arange(n_values) % n_pool)].reshape(-1, 3)
    point_data = {"B_re": vals, "B_im": np.sign(vals)}
    path = tmp_path_factory.mktemp("pool") / "f.vtk"
    write_vtk(path, mesh, point_data, title="t")
    assert path.read_text() == _loop_written_vtk(mesh, point_data, "t")


@pytest.mark.parametrize("subdivs", [(1, 1, 1), (2, 2, 1), (3, 2, 1), (4, 3, 2)])
def test_cells_block_matches_per_row_formatting(tmp_path, subdivs):
    mesh = build_box_mesh(((0, 1), (0, 1), (0, 1)), subdivs)
    path = tmp_path / "m.vtk"
    write_vtk(path, mesh, title="t")
    expected = _loop_written_vtk(mesh, {}, "t")
    assert path.read_text() == expected[:expected.index("POINT_DATA")]


def test_export_matches_per_row_formatting(tmp_path, academic_built):
    sol = run_two_step(academic_built, 100.0, "tree-cotree")
    path = tmp_path / "f.vtk"
    export_vtk(path, academic_built, sol, density=2)
    sample = build_box_mesh(academic_built.mesh.extents,
                            [2 * n for n in academic_built.mesh.subdivisions])
    flds = DerivedFields(academic_built, sol, sample.nodes)
    point_data = {}
    for name, attr in _FIELD_EVALUATORS:
        values = getattr(flds, attr)()
        point_data[f"{name}_re"], point_data[f"{name}_im"] = values.real, values.imag
    title = f"{academic_built.name} f=100Hz tree-cotree"
    assert path.read_text() == _loop_written_vtk(sample, point_data, title)


@pytest.mark.parametrize("bad", [np.zeros((8, 3), complex), np.full((8, 3), "0"),
                                 np.zeros((8, 3), object)])
def test_non_real_field_refused_by_name(tmp_path, bad):
    mesh = build_box_mesh(((0, 1), (0, 1), (0, 1)), (1, 1, 1))
    with pytest.raises(ValueError, match="'E_re'"):
        write_vtk(tmp_path / "bad.vtk", mesh, {"B_re": np.zeros((8, 3)), "E_re": bad})


def test_float32_field_written_as_its_float64_values(tmp_path):
    mesh = build_box_mesh(((0, 1), (0, 1), (0, 1)), (2, 1, 1))
    vals = np.tile(np.array([-0.0, 0.0, 0.1], np.float32), (mesh.n_nodes, 1))
    path = tmp_path / "f.vtk"
    write_vtk(path, mesh, {"B_re": vals}, title="t")
    assert path.read_text() == _loop_written_vtk(mesh, {"B_re": vals.astype(np.float64)}, "t")
    assert "-0 0 0.10000000149011612\n" in path.read_text()


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
    # one locate for the whole sample; each basis evaluated once per point,
    # in blocks of at most physics._FIELD_BLOCK points
    calls = {"locate": [], "scalar": [], "edge": []}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key].append(len(args[1]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Mesh, "locate_points", counted("locate", Mesh.locate_points))
    monkeypatch.setattr(physics, "physical_scalar_basis",
                        counted("scalar", physics.physical_scalar_basis))
    monkeypatch.setattr(physics, "physical_edge_basis",
                        counted("edge", physics.physical_edge_basis))
    sol = run_two_step(academic_built, 100.0, "tree-cotree")
    for density in (2, 4):
        for counts in calls.values():
            counts.clear()
        export_vtk(tmp_path / "f.vtk", academic_built, sol, density=density)
        n = (density * 3 + 1) ** 3  # 343, then 2197 sample nodes
        assert calls["locate"] == [n]
        assert len(calls["scalar"]) == -(-n // physics._FIELD_BLOCK)
        assert sum(calls["scalar"]) == n
        assert max(calls["scalar"]) <= physics._FIELD_BLOCK
        assert calls["edge"] == calls["scalar"]
    assert n > physics._FIELD_BLOCK  # the second sample spans two blocks


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


def _assert_complete(path, n_nodes, fields):
    # the points parse back, and each field holds one row of three values
    # per node, the last field's rows ending the file
    assert read_vtk_points(path).shape == (n_nodes, 3)
    text = path.read_text(encoding="ascii")
    for name in fields:
        rows = text.split(f"VECTORS {name} double\n", 1)[1].splitlines()[:n_nodes]
        assert len(rows) == n_nodes and all(len(r.split()) == 3 for r in rows), name
    assert text.endswith(f"\n{rows[-1]}\n")


def test_non_ascii_title_written_with_replacements(tmp_path):
    mesh = build_box_mesh(((0, 1), (0, 1), (0, 1)), (2, 1, 1))
    path = tmp_path / "t.vtk"
    write_vtk(path, mesh, {"B_re": np.ones((mesh.n_nodes, 3))},
              title="akademisch_\u00fc.cfg\nf=1Hz \u03c9")
    assert path.read_bytes().splitlines()[1] == b"akademisch_?.cfg f=1Hz ?"
    _assert_complete(path, mesh.n_nodes, ["B_re"])


@pytest.mark.parametrize("char", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                  "\x00", "\t", "\x1f", "\x7f"])
def test_control_characters_in_title_keep_one_header_line(tmp_path, char):
    # str.splitlines() splits lines at \r, \v, \f and \x1c-\x1e as well as
    # at \n, and universal-newline reading at \r
    mesh = build_box_mesh(((0, 1), (0, 1), (0, 1)), (2, 1, 1))
    path = tmp_path / "t.vtk"
    write_vtk(path, mesh, title=f"cfg{char}name")
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[1:3] == ["cfg name", "ASCII"]
    assert np.array_equal(read_vtk_points(path), mesh.nodes)


def test_solve_vtk_from_a_non_ascii_config_path(tmp_path):
    cfg = tmp_path / "akademisch_\u00fc.cfg"
    shutil.copy(CONFIG_DIR / "academic.cfg", cfg)
    out = tmp_path / "out.vtk"
    assert cli.main(["solve", "--config", str(cfg), "--subdivs", "3,3,3",
                     "--freq", "100", "--method", "tree-cotree",
                     "--vtk", str(out)]) == 0
    title = out.read_bytes().splitlines()[1].decode("ascii")
    assert title.endswith("akademisch_?.cfg f=100Hz tree-cotree")
    _assert_complete(out, 4 ** 3, [f"{name}_{part}" for name, _ in _FIELD_EVALUATORS
                                   for part in ("re", "im")])
