"""Core abstractions: parameters, configurations, systems, tuners."""

from repro.core.fidelity import Fidelity, FidelitySystem, with_fidelity
from repro.core.measurement import (
    Measurement,
    Observation,
    TuningHistory,
    history_digest,
)
from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    Constraint,
    NumericParameter,
    Parameter,
    make_constraint,
)
from repro.core.pool import CandidatePool
from repro.core.serialize import (
    configuration_from_dict,
    dumps,
    history_from_jsonable,
    to_jsonable,
)
from repro.core.session import TuningSession
from repro.core.system import InstrumentedSystem, SubspaceSystem, SystemUnderTune
from repro.core.tuner import (
    CATEGORIES,
    Budget,
    OnlineTuner,
    StreamResult,
    StreamStep,
    Tuner,
    TuningResult,
)
from repro.core.workload import StreamPhase, Workload, WorkloadStream

# Imported last: the driver builds on tuner + session.
from repro.core.driver import (
    Candidate,
    PromotionScheduler,
    SearchDriver,
    SearchState,
    SearchTuner,
)

__all__ = [
    "BooleanParameter",
    "Budget",
    "CATEGORIES",
    "Candidate",
    "CandidatePool",
    "CategoricalParameter",
    "Configuration",
    "ConfigurationSpace",
    "Constraint",
    "Fidelity",
    "FidelitySystem",
    "InstrumentedSystem",
    "PromotionScheduler",
    "SubspaceSystem",
    "Measurement",
    "NumericParameter",
    "Observation",
    "OnlineTuner",
    "Parameter",
    "SearchDriver",
    "SearchState",
    "SearchTuner",
    "StreamPhase",
    "StreamResult",
    "StreamStep",
    "SystemUnderTune",
    "Tuner",
    "TuningHistory",
    "TuningResult",
    "TuningSession",
    "Workload",
    "WorkloadStream",
    "history_digest",
    "configuration_from_dict",
    "dumps",
    "history_from_jsonable",
    "make_constraint",
    "to_jsonable",
    "with_fidelity",
]
