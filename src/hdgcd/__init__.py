"""Hybridized DG solver for stationary convection-diffusion on triangles.

The element unknowns live in discontinuous P_k spaces; a trace unknown on
the mesh skeleton glues elements together through diffusive penalties and
upwind convective fluxes.  Static condensation reduces every solve to the
skeleton, and a streamline-diffusion P1 baseline is included for
comparison studies.
"""

from hdgcd.mesh import (BoundaryTag, Mesh, MeshError, all_dirichlet,
                        build_uniform_triangulation, dirichlet_where,
                        load_mesh, save_mesh)
from hdgcd.fespace import (DofMap, EdgeBasis, ElementBasis, build_dofmap,
                           quad_edge, quad_triangle)
from hdgcd.assembly import (ProblemSpec, assemble_local_systems,
                            assemble_monolithic, bracket, check_problem,
                            default_eta, verify_inflow_in_dirichlet)
from hdgcd.solver import (ElementSolvabilityError, HdgSolution,
                          SingularSystemError, solve_hdg, solve_monolithic)
from hdgcd.analysis import (conservation_residual, convergence_table,
                            error_h1_broken, error_hdg, error_l2, hdg_norm,
                            overshoot_metric, project_to_hdg)
from hdgcd.supg import SupgSolution, solve_supg, supg_tau
from hdgcd.problems import (case_layer, case_reduced_limit, case_smooth,
                            get_case, verify_source_term)

__version__ = "0.1.0"

__all__ = [
    "BoundaryTag", "Mesh", "MeshError", "all_dirichlet",
    "build_uniform_triangulation", "dirichlet_where", "load_mesh",
    "save_mesh", "verify_inflow_in_dirichlet",
    "DofMap", "EdgeBasis", "ElementBasis", "build_dofmap", "quad_edge",
    "quad_triangle",
    "ProblemSpec", "assemble_local_systems", "assemble_monolithic",
    "bracket", "check_problem", "default_eta",
    "ElementSolvabilityError", "HdgSolution", "SingularSystemError",
    "solve_hdg", "solve_monolithic",
    "conservation_residual", "convergence_table", "error_h1_broken",
    "error_hdg", "error_l2", "hdg_norm", "overshoot_metric",
    "project_to_hdg",
    "SupgSolution", "solve_supg", "supg_tau",
    "case_layer", "case_reduced_limit", "case_smooth", "get_case",
    "verify_source_term",
    "__version__",
]
