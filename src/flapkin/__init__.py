"""flapkin: planar armwing linkage kinematics, compliance, gait and synthesis.

A toolkit for modeling single-actuator crank / four-bar armwing mechanisms
that articulate bat-like plunge and extension-retraction within one wingbeat,
scoring the resulting gaits with quasi-steady strip aerodynamics, and fitting
link dimensions to gait targets.
"""

__version__ = "0.1.0"

from .aero import AeroConfig, AeroReport, compare_gaits, quasi_steady_forces, strip_kinematics
from .compliance import (
    HingeGeometry,
    LoadCase,
    elastic_energy,
    hinge_stiffness,
    solve_equilibrium,
)
from .designs import ARMWING_TRANSMISSION_JOINTS, two_stage_armwing
from .errors import FlapkinError
from .fileio import parse_mechanism, render_svg, serialize_mechanism, trajectory_csv
from .gait import (
    GaitMetrics,
    GaitTrajectory,
    gait_from_pose_arrays,
    gait_metrics,
    generate_gait,
)
from .geometry import Point2, Pose
from .kinematics import (
    Branch,
    Configuration,
    assemble,
    solve_fourbar,
    sweep_arrays,
    velocities,
)
from .mechanism import (
    CompliantHinge,
    FourBar,
    FourBarClass,
    Joint,
    Link,
    LinkRole,
    Mechanism,
    RigidPin,
    ValidationReport,
    as_fourbar,
    fourbar_mechanism,
    grashof_classify,
    mobility,
    validate_mechanism,
)
from .synthesis import (
    DesignSpace,
    GaitSpec,
    Parameter,
    SynthesisResult,
    objective,
    population_costs,
    synthesize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
