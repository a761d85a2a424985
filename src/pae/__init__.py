"""Parallel amplitude estimation: exact simulation, phase-shifter synthesis,
robust phase recovery, and resource benchmarking."""

from .circuit import (CapacityError, MeasurementSetting, ParallelCircuit,
                      analytic_stage, ghz_depth, ideal_probabilities, parity_probabilities,
                      setting_probability, statevector_even_parity_probability,
                      statevector_stage)
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .core_model import (AmplitudeInstance, DomainError, ExplicitOracle,
                         build_explicit_oracle, build_grover_unitary,
                         grover_plane, grover_plane_basis, make_instance)
from .driver import (ResourceReport, Schedule, ScheduleStep, build_schedule,
                     hl_reference, query_count, resource_report, run,
                     sample_and_recover, step_probabilities, theorem_resources,
                     PARALLEL_L_TABLE_PLUS, PARALLEL_L_TABLE_PLUS_I)
from .qsp import (AngleSequence, PhaseShifterSpec, SynthesisError,
                  TruncatedTarget, build_branch_unitary, complete_target,
                  load_angles,
                  realized_functions, save_angles, select_L, select_L_empirical,
                  solve_angles, state_error_bound, synthesize_shifter,
                  synthesize_shifters, truncate_target, truncation_error_bound)
from .rpe import (PhaseEstimate, estimate_phase, finalize, mse_bound,
                  schedule_nu, step_phase, unwrap_step)

__version__ = "0.1.0"
