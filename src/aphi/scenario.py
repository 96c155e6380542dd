"""Declarative scenario configuration.

Scenarios are described in a flat, line-oriented key-value format:

    # comment (blank lines ignored)
    domain        x0 x1 y0 y1 z0 z1
    subdivisions  nx ny nz
    region        x0 x1 y0 y1 z0 z1 eps_r=<v> sigma=<v> [mu_r=<v>]
    phi           <face|all> <value>
    a_zero        <face|all> [<face> ...]
    source        none | manufactured
    methods       <method> [<method> ...]

Faces are xmin/xmax/ymin/ymax/zmin/zmax.  Domain, subdivisions, source
and methods lines appear at most once, and each key at most once in a
region line.  Region lines are ordered; the last box containing a cell
centroid wins.  Cells with sigma > 0 are tagged
conductor.  The manufactured source requires uniform vacuum-like materials
and the fixed trigonometric-case domain.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.constants import epsilon_0, mu_0

from .assembly import ManufacturedCase, MaterialField, assemble_bundle
from .gauge import build_gauge_graph, spanning_tree
from .mesh import (FACE_LABELS, Box, boundary_entities, build_box_mesh,
                   derive_entity_tags, match_cells)
from .physics import METHODS, BuiltScenario
from .spaces import DirichletSpec, build_edge_space, build_scalar_space


class ConfigError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class RegionSpec:
    box: Box
    eps_r: float
    sigma: float
    mu_r: float = 1.0


@dataclass(frozen=True)
class Scenario:
    extents: tuple[tuple[float, float], ...]
    subdivisions: tuple[int, int, int]
    regions: tuple[RegionSpec, ...]
    phi_bcs: tuple[tuple[str, complex], ...] = ()
    a_zero: tuple[str, ...] = ()
    source: str = "none"
    methods: tuple[str, ...] = METHODS
    name: str = "scenario"

    def with_subdivisions(self, subdivisions) -> "Scenario":
        return replace(self, subdivisions=tuple(int(n) for n in subdivisions))

    def build(self) -> BuiltScenario:
        mesh = build_box_mesh(self.extents, self.subdivisions)
        match = match_cells(mesh, [r.box for r in self.regions])
        eps = np.array([r.eps_r for r in self.regions])[match] * epsilon_0
        sigma = np.array([r.sigma for r in self.regions])[match]
        nu = 1.0 / (np.array([r.mu_r for r in self.regions])[match] * mu_0)
        tags = derive_entity_tags(mesh, sigma > 0)
        material = MaterialField(sigma=sigma, eps=eps, nu=nu, tags=tags)

        boundary = boundary_entities(mesh)
        spec = DirichletSpec(scalar=self.phi_bcs, edge=self.a_zero)
        scalar = build_scalar_space(mesh, boundary, spec)
        edge = build_edge_space(mesh, boundary, spec)

        mms = None
        if self.source == "manufactured":
            mms = self._manufactured_case(material)
        bundle = assemble_bundle(scalar, edge, material, mms)
        gauge = build_gauge_graph(mesh, edge, scalar)
        partition = spanning_tree(gauge)
        return BuiltScenario(mesh=mesh, material=material, scalar=scalar,
                             edge=edge, bundle=bundle, gauge=gauge,
                             partition=partition, name=self.name)

    def _manufactured_case(self, material: MaterialField) -> ManufacturedCase:
        sigma = float(material.sigma[0])
        if np.ptp(material.sigma) != 0 or np.ptp(material.eps) != 0 \
                or np.ptp(material.nu) != 0:
            raise ValueError("manufactured source requires uniform materials")
        case = ManufacturedCase(sigma=sigma)
        if not np.isclose(material.eps[0], case.eps, rtol=1e-12, atol=0.0) \
                or not np.isclose(material.nu[0], case.nu, rtol=1e-12, atol=0.0):
            raise ValueError("manufactured source requires eps_r=1 and mu_r=1")
        for (lo, hi), (clo, chi) in zip(self.extents, case.domain):
            if abs(lo - clo) > 1e-9 or abs(hi - chi) > 1e-9:
                raise ValueError(
                    f"manufactured source requires the domain {case.domain}")
        return case


def _expand_faces(token: str, line: int) -> tuple[str, ...]:
    if token == "all":
        return FACE_LABELS
    if token not in FACE_LABELS:
        raise ConfigError(line, f"unknown face label {token!r}; "
                                f"use one of {FACE_LABELS} or 'all'")
    return (token,)


def _parse_floats(tokens, count, line, what):
    if len(tokens) != count:
        raise ConfigError(line, f"{what} needs {count} numbers, got {len(tokens)}")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(line, f"bad number in {what}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise ConfigError(line, f"{what} numbers must be finite, got {tokens}")
    return values


def _parse_keyvals(tokens, line, required, optional=()):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(line, f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        if key not in required and key not in optional:
            raise ConfigError(line, f"unknown key {key!r}")
        if key in out:
            raise ConfigError(line, f"repeated key {key!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ConfigError(line, f"bad value for {key}: {val!r}") from None
        if not np.isfinite(out[key]):
            raise ConfigError(line, f"{key} must be finite, got {val!r}")
    for key in required:
        if key not in out:
            raise ConfigError(line, f"missing required key {key}=")
    return out


def check_methods(methods, error=ValueError) -> tuple[str, ...]:
    """The methods as a tuple, each known and once, or raise error(message)."""
    for m in methods:
        if m not in METHODS:
            raise error(f"unknown method {m!r}; choose from {METHODS}")
    if len(set(methods)) != len(methods):
        raise error(f"repeated method in {list(methods)}")
    return tuple(methods)


# Keys of at most one line each; region, phi and a_zero lines accumulate.
_SINGLE_LINES = ("domain", "subdivisions", "source", "methods")


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse the key-value scenario format; errors carry line numbers."""
    extents = None
    subdivisions = None
    regions: list[RegionSpec] = []
    phi_bcs: list[tuple[str, complex]] = []
    a_zero: list[str] = []
    source = "none"
    methods: tuple[str, ...] | None = None
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, *tokens = stripped.split()
        if key == "domain":
            v = _parse_floats(tokens, 6, lineno, "domain")
            extents = ((v[0], v[1]), (v[2], v[3]), (v[4], v[5]))
            if any(hi <= lo for lo, hi in extents):
                raise ConfigError(lineno, "domain intervals must be nonempty")
        elif key == "subdivisions":
            v = _parse_floats(tokens, 3, lineno, "subdivisions")
            if any(n != int(n) or n < 1 for n in v):
                raise ConfigError(lineno, "subdivisions must be positive integers")
            subdivisions = tuple(int(n) for n in v)
        elif key == "region":
            if len(tokens) < 8:
                raise ConfigError(lineno, "region needs 6 box numbers and "
                                          "eps_r=/sigma= values")
            box_vals = _parse_floats(tokens[:6], 6, lineno, "region box")
            kv = _parse_keyvals(tokens[6:], lineno,
                                required=("eps_r", "sigma"), optional=("mu_r",))
            box = Box(lo=(box_vals[0], box_vals[2], box_vals[4]),
                      hi=(box_vals[1], box_vals[3], box_vals[5]))
            if any(hi < lo for lo, hi in zip(box.lo, box.hi)):
                raise ConfigError(lineno, "region box is inverted: hi < lo")
            if kv["eps_r"] <= 0:
                raise ConfigError(lineno, "eps_r must be positive")
            if kv["sigma"] < 0:
                raise ConfigError(lineno, "sigma must be nonnegative")
            mu_r = kv.get("mu_r", 1.0)
            if mu_r <= 0:
                raise ConfigError(lineno, "mu_r must be positive")
            regions.append(RegionSpec(box=box, eps_r=kv["eps_r"],
                                      sigma=kv["sigma"], mu_r=mu_r))
        elif key == "phi":
            if len(tokens) != 2:
                raise ConfigError(lineno, "phi needs a face label and a value")
            try:
                value = complex(tokens[1])
            except ValueError:
                raise ConfigError(lineno, f"bad phi value {tokens[1]!r}") from None
            if not np.isfinite(value):
                raise ConfigError(lineno, f"phi value must be finite, got {tokens[1]!r}")
            for face in _expand_faces(tokens[0], lineno):
                phi_bcs.append((face, value))
        elif key == "a_zero":
            if not tokens:
                raise ConfigError(lineno, "a_zero needs at least one face label")
            for tok in tokens:
                a_zero.extend(_expand_faces(tok, lineno))
        elif key == "source":
            if len(tokens) != 1 or tokens[0] not in ("none", "manufactured"):
                raise ConfigError(lineno, "source must be 'none' or 'manufactured'")
            source = tokens[0]
        elif key == "methods":
            if not tokens:
                raise ConfigError(lineno, "methods needs at least one entry")
            methods = check_methods(tokens, lambda msg: ConfigError(lineno, msg))
        else:
            raise ConfigError(lineno, f"unknown key {key!r}")
        # a valid line that would silently replace an earlier one
        if key in _SINGLE_LINES and key in seen:
            raise ConfigError(lineno, f"repeated {key!r} line; it may appear once")
        seen.add(key)

    if extents is None:
        raise ConfigError(0, "missing required 'domain' line")
    if subdivisions is None:
        raise ConfigError(0, "missing required 'subdivisions' line")
    if not regions:
        raise ConfigError(0, "at least one 'region' line is required")
    return Scenario(extents=extents, subdivisions=subdivisions,
                    regions=tuple(regions), phi_bcs=tuple(phi_bcs),
                    a_zero=tuple(dict.fromkeys(a_zero)), source=source,
                    methods=methods if methods is not None else METHODS,
                    name=name)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8-sig") as fh:  # drops a byte-order mark
        return parse_scenario(fh.read(), name=str(path))


def academic_scenario(subdivisions=(3, 3, 3)) -> Scenario:
    """Three conducting bars along x inside a 22 cm dielectric box, driven
    by a unit potential difference between the x faces; tangential vector
    potential clamped on the whole boundary."""
    L = 0.22
    b0, b1 = 0.10, 0.12  # bar cross-section window
    whole = Box(lo=(0.0, 0.0, 0.0), hi=(L, L, L))
    regions = (
        RegionSpec(box=whole, eps_r=5.0, sigma=0.0),
        RegionSpec(box=Box(lo=(0.0, b0, 0.0), hi=(L, b1, L)), eps_r=1.0, sigma=0.0),
        RegionSpec(box=Box(lo=(0.0, 0.0, b0), hi=(L, L, b1)), eps_r=1.0, sigma=0.0),
        RegionSpec(box=Box(lo=(0.0, b0, b0), hi=(0.10, b1, b1)), eps_r=5.0, sigma=5.0),
        RegionSpec(box=Box(lo=(0.12, b0, b0), hi=(L, b1, b1)), eps_r=5.0, sigma=5.0),
        RegionSpec(box=Box(lo=(b0, b0, b0), hi=(b1, b1, b1)), eps_r=1.0, sigma=1.0),
    )
    return Scenario(extents=((0.0, L),) * 3, subdivisions=tuple(subdivisions),
                    regions=regions,
                    phi_bcs=(("xmin", 0.0 + 0.0j), ("xmax", 1.0 + 0.0j)),
                    a_zero=FACE_LABELS, source="none", name="academic")


def mms_scenario(sigma: float = 0.0, subdivisions=(2, 2, 2)) -> Scenario:
    """Manufactured trigonometric case on (pi/2, 3pi/2)^3 with uniform
    materials; both potentials vanish tangentially on the boundary."""
    case = ManufacturedCase(sigma=sigma)
    whole = Box(lo=tuple(lo for lo, _ in case.domain),
                hi=tuple(hi for _, hi in case.domain))
    return Scenario(extents=case.domain, subdivisions=tuple(subdivisions),
                    regions=(RegionSpec(box=whole, eps_r=1.0, sigma=sigma),),
                    phi_bcs=tuple((label, 0.0 + 0.0j) for label in FACE_LABELS),
                    a_zero=FACE_LABELS, source="manufactured",
                    name=f"mms-sigma{sigma:g}")
