"""Fluid and packet-level models of TCP flows coupled through Drop-Tail queues.

The package analyses when two sets of long-lived TCP flows (Compound, Reno
or Illinois), each behind its own edge router and merging at a common core
router, synchronise: per-set limit cycles of the delayed fluid model act as
coupled phase oscillators whose locking conditions, coupling strengths and
stability are computed here and cross-checked by delay-differential and
packet-level simulation.
"""

from .equilibrium import EquilibriumState, solve_coupled, solve_single
from .errors import (
    ConfigError,
    NoRootError,
    SimulationError,
    TcpSyncError,
    UnsupportedConfigError,
)
from .linear_analysis import (
    closed_form_coupling,
    closed_form_frequency,
    coupling_strength,
    critical_delay,
    intrinsic_frequency,
)
from .loss_models import (
    INTERMEDIATE,
    SMALL_BUFFER,
    NetworkParams,
)
from .protocols import (
    COMPOUND,
    ILLINOIS,
    RENO,
    ProtocolSpec,
    decrease_fn,
    g_factor,
    increase_fn,
)
from .sync_solver import (
    SyncProblem,
    SyncState,
    coupling_range,
    critical_coupling,
    order_parameter,
    solve_sync,
)
from .trace import Trace

__version__ = "0.1.0"
