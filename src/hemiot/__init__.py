# Semi-discrete optimal transport on the hemisphere chart: solve the
# prescribed-curvature mass balance on a convex planar domain and verify
# the structural estimates the construction rests on.
from .chart import (HemispherePoint, c_exp, chart_density, cost,
                    gauss_curvature, graph_area_jacobian,
                    great_circle_deviation, is_geodesically_convex,
                    metric_in_chart)
from .domains import (BoundaryGeometry, ConeSpec, ConvexPolygonDomain,
                      DiskDomain, SourceDensity, boundary_geometry,
                      cone_memberships, constant_density, contains,
                      d0_threshold, distance_to_boundary, domain_area,
                      erode, inradius_point, lambda_constant, make_cone_spec,
                      theta_of, total_mass)
from .experiments import (BlowupReport, ConeInclusionReport,
                          EstarVolumeResult, SliceEstimateReport,
                          SphereBenchmarkReport, blowup_experiment,
                          cone_inclusion_check, estar_volume_check,
                          gauss_map_image_check, slice_estimate_check,
                          sphere_benchmark)
from .laguerre import (LaguerreCell, LaguerreDiagram, compute_measures,
                       edge_weights, laguerre_diagram, pairwise_overlap_area)
from .oracle import (DiscretePlan, agreement_ceiling, brute_force_assignment,
                     lp_transport, monotonicity_certificate,
                     normal_cone_check, semidiscrete_agreement)
from .solver import (CellMeasureError, ConvergenceError, MassBalanceError,
                     Solution, SolveReport, active_site, export_mesh,
                     gauss_map, potential, solution_to_csv, solve)
from .targets import (DiscreteTarget, FullHemisphere, chart_disk,
                      chart_polygon, discretize, full_hemisphere,
                      region_mass, truncation_radius_for)

__version__ = "0.1.0"
