"""Mode-aware probabilistic scheduling for a friction-varying DC motor.

An interacting-multiple-model estimator tracks which friction mode the
motor is in; the posterior mode probabilities double as the convex weights
scheduling precomputed vertex LQR gains, and a common-Lyapunov certificate
bounds how much scheduling mismatch the closed loop tolerates.
"""

__version__ = "0.1.0"

from .config import MotorConfig, load_motor_config
from .control import (
    LqrWeights,
    RiccatiSolution,
    control_input,
    maps_gain,
    solve_dare,
    synthesize_vertex_gains,
)
from .errors import (
    CertificationError,
    ConfigError,
    MapschedError,
    NumericalError,
    ParameterError,
)
from .estimation import (
    FilterBank,
    NoiseConfig,
    imm_step,
    initial_belief,
)
from .harness import (
    FrictionSchedule,
    MetricsReport,
    RunRecord,
    ScenarioSpec,
    compare_runs,
    compute_metrics,
    design_from_motor,
    load_scenario,
    run_scenario,
)
from .ident import IdentResult, SteadyStateSample, identify, regress_slope, viscous_from_slope
from .motor import (
    FrictionModel,
    MotorParams,
    VertexSet,
    build_continuous_model,
    build_vertex_set,
)
from .plant import TickMap, plant_step
from .stability import (
    StabilityCert,
    certify,
    epsilon_star,
    find_common_lyapunov,
    lipschitz_constants,
)

__all__ = [name for name in dir() if not name.startswith("_")]
