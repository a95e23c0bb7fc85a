# Semi-discrete optimal transport on the hemisphere chart: solve the
# prescribed-curvature mass balance on a convex planar domain and verify
# the structural estimates the construction rests on.
from .chart import c_exp_rows, chart_density
from .domains import (BoundaryGeometry, ConeSpec, ConvexPolygonDomain,
                      DiskDomain, SourceDensity, boundary_geometry,
                      constant_density, d0_threshold, inradius_point,
                      lambda_constant, make_cone_spec, theta_of,
                      total_mass)
from .experiments import (BlowupReport, ConeInclusionReport,
                          EstarVolumeResult, SliceEstimateReport,
                          SphereBenchmarkReport, blowup_experiment,
                          cone_inclusion_check, estar_volume_check,
                          slice_estimate_check, sphere_benchmark)
from .laguerre import (LaguerreCell, LaguerreDiagram, compute_measures,
                       edge_weights, laguerre_diagram)
from .oracle import (DiscretePlan, agreement_ceiling, lp_transport,
                     monotonicity_certificate, semidiscrete_agreement)
from .solver import (CellMeasureError, ConvergenceError, MassBalanceError,
                     Solution, SolveReport, export_mesh, solution_to_csv,
                     solve)
from .targets import (DiscreteTarget, FullHemisphere, chart_disk,
                      chart_polygon, discretize, full_hemisphere,
                      region_mass, truncation_radius_for)

__version__ = "0.1.0"
