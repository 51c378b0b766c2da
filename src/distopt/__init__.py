"""distopt: distributed convex optimization over graphs, simulated with
continuous-time agent dynamics and discrete-time communication, plus a
certificate engine for the sufficient-condition constants."""

from . import certificates, costs, diagnostics, dynamics, errors, graph, scenarios, schedulers
from .certificates import CertificateReport, ConvexityBounds, certify
from .costs import CostModel, NetworkCost, catalog, minimize_global, network_cost, quadratic_cost
from .diagnostics import (
    AnalysisCoordinates,
    decay_check,
    lasalle_function,
    lyapunov_digraph,
    lyapunov_undirected,
    reconstruct_gradient,
    to_analysis_coords,
)
from .dynamics import (
    AlgorithmParams,
    SwitchingSchedule,
    Trace,
    equilibrium,
    simulate,
)
from .graph import (
    DisagreementBasis,
    GraphSpectrum,
    WeightedDigraph,
    build_digraph,
    complement_basis,
    is_strongly_connected,
    is_weight_balanced,
    out_laplacian,
    preset_graph,
    spectral_summary,
)
from .scenarios import Scenario, parse_scenario, presets, scenario_from_dict
from .schedulers import (
    CentralizedEvent,
    Continuous,
    DistributedEvent,
    EulerScheme,
    EventStats,
    Periodic,
    event_stats,
    periodic_due,
)

__version__ = "0.1.0"
