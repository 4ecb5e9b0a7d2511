"""Mode-aware probabilistic scheduling for a friction-varying DC motor.

An interacting-multiple-model estimator tracks which friction mode the
motor is in; the posterior mode probabilities double as the convex weights
scheduling precomputed vertex LQR gains, and a common-Lyapunov certificate
bounds how much scheduling mismatch the closed loop tolerates.
"""

import os

# The package's linear algebra is on 3x3 and smaller matrices, where a BLAS
# thread pool only costs: OpenBLAS wakes its idle threads in steps of a few
# ms, and on a 2-vCPU machine one Riccati solve (scipy's, at the time) took
# 16 ms against 0.5 ms on one thread. Set before numpy loads its BLAS, so it takes effect
# only when mapsched is imported first; a value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .config import MotorConfig, load_motor_config
from .control import (
    Q_LQR,
    R_LQR,
    RiccatiSolution,
    control_input,
    maps_gain,
    solve_dare,
    synthesize_vertex_gains,
    vertex_solutions,
)
from .errors import (
    CertificationError,
    ConfigError,
    MapschedError,
    NumericalError,
    ParameterError,
)
from .estimation import (
    FILTER_Q,
    FILTER_R,
    FilterBank,
    imm_step,
    initial_belief,
)
from .harness import (
    Controller,
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

# the public names, not the modules bound on import
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(os)))
