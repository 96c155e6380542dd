"""Legacy ASCII VTK export of meshes and sampled field solutions.

Hexahedra are written as unstructured-grid cell type 12; complex fields
are split into _re/_im vector arrays.  Coordinates are printed with 17
significant digits so parsing the file back reproduces them bit for bit.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .mesh import Mesh, build_box_mesh
from .physics import BuiltScenario, DerivedFields, Solution

VTK_HEXAHEDRON = 12
_XYZ = "%.17g %.17g %.17g\n"

_FIELD_EVALUATORS = (
    ("B", "B"), ("E", "E"), ("D", "D_total"), ("J", "J_total"),
    ("D_e", "D_e"), ("D_m", "D_m"), ("J_e", "J_e"), ("J_m", "J_m"),
)


def _rows(row_fmt: str, arr: np.ndarray) -> str:
    """One %-format over the flattened array, row_fmt repeated per row."""
    return (row_fmt * arr.shape[0]) % tuple(np.ravel(arr).tolist())


def write_vtk(path, mesh: Mesh, point_data: Mapping[str, np.ndarray] | None = None,
              title: str = "aphi export") -> None:
    """Write the mesh and optional per-node vector arrays (real valued)."""
    point_data = dict(point_data or {})
    for name, arr in point_data.items():
        if arr.shape != (mesh.n_nodes, 3):
            raise ValueError(f"field {name!r} must have shape ({mesh.n_nodes}, 3), "
                             f"got {arr.shape}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title.replace("\n", " ")[:255] + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        fh.write(_rows(_XYZ, mesh.nodes))
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * 9}\n")
        fh.write(_rows("8" + " %d" * 8 + "\n", mesh.cells))
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        fh.write(f"{VTK_HEXAHEDRON}\n" * mesh.n_cells)
        if point_data:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, arr in point_data.items():
                fh.write(f"VECTORS {name} double\n")
                fh.write(_rows(_XYZ, arr))


def export_vtk(path, built: BuiltScenario, solution: Solution,
               density: int = 1) -> None:
    """Sample the derived fields on a (density x subdivisions) grid of the
    same box and write them as point data."""
    if density < 1:
        raise ValueError("density must be >= 1")
    if density == 1:
        sample = built.mesh
    else:
        sample = build_box_mesh(built.mesh.extents,
                                [density * n for n in built.mesh.subdivisions])
    flds = DerivedFields(built, solution, sample.nodes)
    point_data: dict[str, np.ndarray] = {}
    for name, attr in _FIELD_EVALUATORS:
        values = getattr(flds, attr)()
        point_data[f"{name}_re"] = np.ascontiguousarray(values.real)
        point_data[f"{name}_im"] = np.ascontiguousarray(values.imag)
    write_vtk(path, sample, point_data,
              title=f"{built.name} f={solution.frequency.f:g}Hz {solution.method}")
