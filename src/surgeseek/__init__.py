"""Surge-force extremum seeking for planar underactuated vehicles."""
from .averaging import (ConfigVectorField, averaged_rhs, double_integrator_demo,
                        lambda_matrix, lie_bracket, symmetric_product, xi_field)
from .costs import CostField, get_field, quadratic_cost
from .dither import (DitherComponent, DitherSet, EsGains, es_dither_set,
                     general_input, validate_dither)
from .integrator import BlowUpError, IntegratorSettings, Trajectory, integrate
from .passivity import (c_hat_bound, monotonicity_check, passivity_residual,
                        steady_state_for_torque)
from .scenario import (RunMetrics, Scenario, compare, load_scenario,
                       run_averaged, run_full, sweep)
from .vehicle import VehicleParams, dynamics_rhs, reference_boat

__version__ = "0.1.0"
