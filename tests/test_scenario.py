import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from aphi import cli
from aphi.mesh import UncoveredRegionError
from aphi.scenario import (ConfigError, academic_scenario, load_scenario,
                           mms_scenario, parse_scenario)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
domain 0 1 0 1 0 1
subdivisions 2 2 2
region 0 1 0 1 0 1 eps_r=1 sigma=0
"""


def test_minimal_all_air_config():
    scenario = parse_scenario(MINIMAL)
    built = scenario.build()
    assert built.mesh.n_cells == 8
    assert not built.material.tags.conductor_cells.any()
    assert built.scalar.n_free == built.mesh.n_nodes  # no BCs
    assert scenario.methods == ("original", "tree-cotree", "lagrange")


def test_region_outside_domain_uncovered():
    text = """
domain 0 1 0 1 0 1
subdivisions 2 2 2
region 2 3 0 1 0 1 eps_r=1 sigma=0
"""
    scenario = parse_scenario(text)
    with pytest.raises(UncoveredRegionError):
        scenario.build()


def test_golden_configs_parse_and_build():
    for name in ("academic.cfg", "mms_sigma0.cfg", "mms_sigma6e7.cfg"):
        scenario = load_scenario(CONFIG_DIR / name)
        built = scenario.build()
        assert built.mesh.n_cells > 0


def test_config_with_byte_order_mark_reads_as_plain(tmp_path):
    # editors on Windows save UTF-8 with a leading byte-order mark, which
    # would otherwise be read as the first key
    plain = CONFIG_DIR / "academic.cfg"
    bom = tmp_path / "academic.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert dataclasses.replace(load_scenario(bom), name=str(plain)) == load_scenario(plain)
    assert cli.main(["check", "--config", str(bom), "--subdivs", "3,3,3"]) == 0


def test_shipped_academic_matches_factory():
    from_file = load_scenario(CONFIG_DIR / "academic.cfg").build()
    from_factory = academic_scenario((3, 3, 3)).build()
    assert np.array_equal(from_file.material.sigma, from_factory.material.sigma)
    assert np.array_equal(from_file.material.eps, from_factory.material.eps)
    assert np.array_equal(from_file.scalar.constrained,
                          from_factory.scalar.constrained)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_scenario("domain 0 1 0 1 0 1\nsubdivisions 2 2\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL + "\nphi lid 0\n")
    assert "lid" in str(err.value)
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL + "\nwavelength 3\n")
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL + "\nmethods amg\n")
    with pytest.raises(ConfigError):
        parse_scenario("subdivisions 1 1 1\nregion 0 1 0 1 0 1 eps_r=1 sigma=0\n")


def test_region_requires_material_keys():
    with pytest.raises(ConfigError):
        parse_scenario("""
domain 0 1 0 1 0 1
subdivisions 1 1 1
region 0 1 0 1 0 1 eps_r=1
""")


def test_region_box_inverted_refused_zero_thickness_kept():
    text = "domain 0 1 0 1 0 1\nsubdivisions 1 1 1\nregion {} eps_r=1 sigma=5\n"
    for box in ("0.8 0.2 0 1 0 1", "0 1 0 1 1 0"):
        with pytest.raises(ConfigError, match="inverted") as err:
            parse_scenario(text.format(box))
        assert err.value.line == 3
    box = parse_scenario(text.format("0.5 0.5 0 1 0 1")).regions[0].box
    assert box.lo[0] == box.hi[0] == 0.5


def test_manufactured_requires_matching_domain():
    text = """
domain 0 1 0 1 0 1
subdivisions 2 2 2
region 0 1 0 1 0 1 eps_r=1 sigma=0
phi all 0
a_zero all
source manufactured
"""
    with pytest.raises(ValueError):
        parse_scenario(text).build()


def test_manufactured_requires_uniform_vacuum():
    scenario = mms_scenario(0.0, (2, 2, 2))
    bad = scenario.__class__(
        extents=scenario.extents, subdivisions=scenario.subdivisions,
        regions=(scenario.regions[0].__class__(
            box=scenario.regions[0].box, eps_r=2.0, sigma=0.0),),
        phi_bcs=scenario.phi_bcs, a_zero=scenario.a_zero,
        source="manufactured")
    with pytest.raises(ValueError):
        bad.build()


def test_subdivision_override():
    scenario = academic_scenario((3, 3, 3)).with_subdivisions((2, 2, 2))
    assert scenario.build().mesh.n_cells == 8


def test_phi_all_faces():
    scenario = parse_scenario(MINIMAL + "phi all 0.5\n")
    built = scenario.build()
    assert built.scalar.n_free == 1
    assert np.all(built.scalar.values == 0.5)


def test_complex_phi_value():
    scenario = parse_scenario(MINIMAL + "phi xmin 1+2j\n")
    built = scenario.build()
    assert np.all(built.scalar.values == 1 + 2j)


def _arrays(obj, path, seen):
    """(path, array) for every ndarray that obj holds: in its dataclass
    fields, recursively, and in the data, indices and indptr of its sparse
    matrices; each object is walked once."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif sp.issparse(obj):
        for name in ("data", "indices", "indptr"):
            yield f"{path}.{name}", getattr(obj, name)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name), f"{path}.{f.name}", seen)


def _buffer_bytes(arr: np.ndarray) -> int:
    """Bytes of the buffer that arr's memory belongs to."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.nbytes if arr.base is None else memoryview(arr.base).nbytes


@pytest.mark.parametrize("make", [lambda: academic_scenario((3, 3, 3)),
                                  lambda: mms_scenario(6e7, (4, 4, 4))],
                         ids=["academic-3", "mms_sigma6e7-4"])
def test_built_scenario_arrays_own_their_buffers(make):
    # every array lives as long as the scenario, so a view into a larger
    # buffer (a sparse matrix's COO scatter, say) would hold that buffer too
    built = make().build()
    arrays = dict(_arrays(built, "built", set()))
    assert {"built.bundle.C_nu.data", "built.bundle.G_eps.indices",
            "built.mesh.cell_edges", "built.material.tags.conductor_edges",
            "built.scalar.free", "built.gauge.edge_vertices",
            "built.partition.tree_vertex"} <= set(arrays)
    larger = {path: (arr.nbytes, _buffer_bytes(arr)) for path, arr in arrays.items()
              if _buffer_bytes(arr) > arr.nbytes}
    assert larger == {}
