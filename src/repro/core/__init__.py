"""Core incrementalization machinery (the paper's contribution)."""

from .argkeys import ArgsKey, is_primitive
from .engine import DittoEngine
from .errors import (
    CheckDeadlineExceeded,
    CheckRestrictionError,
    CyclicCheckError,
    DittoError,
    EngineBusyError,
    EngineStateError,
    GraphAuditError,
    InstrumentationError,
    OptimisticMispredictionError,
    ResultTypeError,
    StepLimitExceeded,
    TenantIsolationError,
    TrackingError,
    VerificationError,
)
from .locations import (
    FieldLocation,
    IndexLocation,
    LengthLocation,
    Location,
    RangeLocation,
)
from .memo_table import MemoTable
from .node import ComputationNode
from .order_maintenance import OrderList, Record
from .stats import EngineStats, FallbackEvent, RunReport
from .tracked import (
    TrackedArray,
    TrackedList,
    TrackedObject,
    TrackingState,
    WriteLog,
    is_tracked,
    reset_tracking,
    tracking_state,
)

__all__ = [
    "ArgsKey",
    "CheckDeadlineExceeded",
    "CheckRestrictionError",
    "ComputationNode",
    "CyclicCheckError",
    "DittoEngine",
    "DittoError",
    "EngineBusyError",
    "EngineStateError",
    "EngineStats",
    "FallbackEvent",
    "FieldLocation",
    "GraphAuditError",
    "IndexLocation",
    "InstrumentationError",
    "is_primitive",
    "is_tracked",
    "LengthLocation",
    "Location",
    "MemoTable",
    "OptimisticMispredictionError",
    "OrderList",
    "RangeLocation",
    "Record",
    "reset_tracking",
    "ResultTypeError",
    "RunReport",
    "StepLimitExceeded",
    "TenantIsolationError",
    "TrackedArray",
    "TrackedList",
    "TrackedObject",
    "TrackingError",
    "TrackingState",
    "tracking_state",
    "VerificationError",
    "WriteLog",
]
