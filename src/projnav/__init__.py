"""Incremental projection Navier-Stokes on Taylor-Hood triangles.

A research-scale library: triangular meshes with patch structures, P2/P1
assembly, CSR iterative solvers, the incremental pressure-correction time
loop with exact per-step energy audits, and a divergence-preserving
interpolation toolbox with its lemma-verification suite.
"""

from .mesh import (SimplicialMesh, MeshError, build_from_arrays,
                   build_structured_unit_square, build_pathological_mesh,
                   mesh_metrics, read_mesh_file, write_mesh_file)
from .quadrature import QuadratureRule, triangle_rule
from .sparse import (CsrMatrix, SolverReport, SolverError, cg_solve,
                     bicgstab_solve)
from .fem import (SpaceP1, SpaceP2Vector, FieldP1Scalar, FieldP2Vector,
                  CompositeVelocity, assemble_mass_p2, assemble_stiffness_p2,
                  assemble_convection, assemble_grad_coupling,
                  assemble_pressure_laplacian, assemble_load, h1_seminorm,
                  weak_div_moments, div_moments)
from .interp import (AnalyticVectorField, InterpError, lagrange_p2,
                     edge_bubble, edge_bubble_residuals, divergence_correct,
                     pi_n, pi_n_convergence_study)
from .scheme import (SchemeConfig, SchemeState, StepDiagnostics, SchemeError,
                     SchemeOperators, initialize, predict, correct, step, run,
                     l2l2_velocity_error)
from . import mms

__version__ = "0.1.0"
