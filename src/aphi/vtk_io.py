"""Legacy ASCII VTK export of meshes and sampled field solutions.

Hexahedra are written as unstructured-grid cell type 12; complex fields
are split into _re/_im vector arrays.  Coordinates are printed with 17
significant digits so parsing the file back reproduces them bit for bit.

Most blocks repeat their values: the lowest-order curl is constant per
cell, the currents are zero in air, and a box grid has few distinct
coordinates.  So each distinct value of a block is formatted once and the
rows are assembled from those strings.
"""
from __future__ import annotations

from typing import Mapping

import numpy as np

from .mesh import Grid, build_box_grid
from .physics import BuiltScenario, DerivedFields, Solution

VTK_HEXAHEDRON = 12
_CONTROLS = dict.fromkeys([*range(0x20), 0x7F], " ")  # ASCII controls to spaces

_FIELD_EVALUATORS = (
    ("B", "B"), ("E", "E"), ("D", "D_total"), ("J", "J_total"),
    ("D_e", "D_e"), ("D_m", "D_m"), ("J_e", "J_e"), ("J_m", "J_m"),
)


def _rows(arr: np.ndarray, value_fmt: str, lead: str = "") -> str:
    """The rows of a 2D float64 or integer array: lead, then the row's
    values in value_fmt separated by spaces.

    Each distinct value is formatted once, keyed by its bits (a float64
    viewed as int64), so -0.0 and 0.0, or two NaN payloads, are formatted
    apart; the rows are then built by one %-format over those strings.
    """
    values = np.ravel(arr)
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    text = ((value_fmt + "\n") * distinct.size
            % tuple(distinct.view(values.dtype).tolist())).split("\n")
    row = lead + " ".join(["%s"] * arr.shape[1]) + "\n"
    return (row * arr.shape[0]) % tuple(np.array(text, dtype=object)[inverse].tolist())


def write_vtk(path, mesh: Grid, point_data: Mapping[str, np.ndarray] | None = None,
              title: str = "aphi export") -> None:
    """Write the grid's nodes and hexahedra (of a Mesh too) and optional
    per-node vector arrays, each real valued (a complex or non-numeric
    array is refused by name) and written through float64."""
    point_data = dict(point_data or {})
    for name, arr in point_data.items():
        arr = np.asarray(arr)
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"field {name!r} must be real numbers, got dtype {arr.dtype}")
        if arr.shape != (mesh.n_nodes, 3):
            raise ValueError(f"field {name!r} must have shape ({mesh.n_nodes}, 3), "
                             f"got {arr.shape}")
        # %.17g prints any real through a double, so the cast keeps the text
        point_data[name] = arr.astype(np.float64, copy=False)
    # a control character would split the title (a solve's config path) line
    with open(path, "w", encoding="ascii", errors="replace") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(title[:255].translate(_CONTROLS) + "\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        fh.write(_rows(mesh.nodes, "%.17g"))
        fh.write(f"CELLS {mesh.n_cells} {mesh.n_cells * 9}\n")
        fh.write(_rows(mesh.cells, "%d", lead="8 "))
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        fh.write(f"{VTK_HEXAHEDRON}\n" * mesh.n_cells)
        if point_data:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, arr in point_data.items():
                fh.write(f"VECTORS {name} double\n")
                fh.write(_rows(arr, "%.17g"))


def export_vtk(path, built: BuiltScenario, solution: Solution,
               density: int = 1) -> None:
    """Sample the derived fields on a (density x subdivisions) grid of the
    same box, nodes and cells only, and write them as point data."""
    if density < 1:
        raise ValueError("density must be >= 1")
    sample = build_box_grid(built.mesh.extents,
                            [density * n for n in built.mesh.subdivisions])
    flds = DerivedFields(built, solution, sample.nodes)
    point_data: dict[str, np.ndarray] = {}
    for name, attr in _FIELD_EVALUATORS:
        values = getattr(flds, attr)()
        point_data[f"{name}_re"] = np.ascontiguousarray(values.real)
        point_data[f"{name}_im"] = np.ascontiguousarray(values.imag)
    write_vtk(path, sample, point_data,
              title=f"{built.name} f={solution.frequency.f:g}Hz {solution.method}")
