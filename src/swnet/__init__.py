"""Shallow-water flow in channel networks with 2D junction elements."""

from .boundaries import BoundaryCondition, gaussian_pulse
from .core import (
    DryStateError,
    H_DRY,
    NonFiniteError,
    PhysicalParams,
    PositivityError,
    conserved,
    friction_source,
    froude,
    max_wave_speed,
    physical_flux,
    rotate_back,
    rotate_state,
)
from .config import ConfigError, ScenarioConfig, build_simulation, parse_config
from .geometry import (
    Channel,
    ConnectedEnd,
    GeometryError,
    JunctionGeometry,
    MeshError,
    TriMesh,
    build_junction_polygon,
    load_trimesh,
    save_trimesh,
)
from .junctions import (
    JunctionField,
    JunctionSpec,
    JunctionView,
    project_transverse,
    rotate_gradients,
)
from .presets import preset, preset_names
from .psfp import PSFPFailure, PSFPProblem, PSFPStarState, psfp_residual, psfp_solve
from .riemann import exact_riemann_sample, exact_riemann_star, hllc_flux, wall_flux
from .simulation import Gauge, Mesh2DSimulation, NetworkSimulation, RunResult, write_gauge_csv
from .studies import build_reference_sim, compare_methods, convergence_order, grid_independence

__all__ = [name for name in dir() if not name.startswith("_")]
