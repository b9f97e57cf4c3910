"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by this library derive from
:class:`ReproError` so downstream code can catch library failures with a
single ``except`` clause while letting programming errors propagate.

The budget/robustness family (:class:`BudgetExceededError` and its
subclasses, :class:`CheckpointError`, :class:`KernelFaultError`,
:class:`RunInterrupted`) backs the :mod:`repro.runtime` run controller:
engines raise them at root-vertex granularity, harnesses catch
:class:`BudgetExceededError` to render the paper's "> 2h" cells, and
the degradation ladder converts them into explicitly-approximate
results (announced via :class:`DegradedResultWarning`).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "OrderingError",
    "CountingError",
    "KernelUnavailableError",
    "ParallelModelError",
    "DatasetError",
    "TraceFormatError",
    "StoreFormatError",
    "BudgetExceededError",
    "DeadlineExceededError",
    "NodeBudgetExceededError",
    "MemoryBudgetExceededError",
    "CheckpointError",
    "ForestFormatError",
    "IOIntegrityError",
    "KernelFaultError",
    "RunInterrupted",
    "WorkerCrashError",
    "ShardError",
    "DegradedResultWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """Raised when input graph data is malformed or inconsistent."""


class OrderingError(ReproError):
    """Raised when an ordering cannot be computed or is invalid."""


class CountingError(ReproError):
    """Raised for invalid clique-counting requests (e.g. ``k < 1``)."""


class KernelUnavailableError(CountingError):
    """An optional kernel backend cannot run on this interpreter.

    Carries the *reason* (e.g. why the ``native`` backend's C walker
    could not be built) so :func:`repro.kernels.resolve_kernel` can
    report why — not just that — a registered backend is unavailable.
    """

    def __init__(self, backend: str, reason: str) -> None:
        super().__init__(f"kernel backend {backend!r} unavailable: {reason}")
        self.backend = backend
        self.reason = reason


class ParallelModelError(ReproError):
    """Raised for invalid machine/scheduler model configurations."""


class DatasetError(ReproError):
    """Raised when a dataset analog is unknown or cannot be built."""


class TraceFormatError(ReproError):
    """Raised when a JSON-lines trace file is malformed.

    Carries the 1-based line number in the message, mirroring
    :class:`GraphFormatError`'s discipline for graph inputs
    (see :func:`repro.obs.parse_trace_lines`).
    """


class StoreFormatError(ReproError):
    """Raised when a benchmark run-store file is malformed.

    Carries the file path and 1-based line number in the message,
    mirroring :class:`GraphFormatError`'s discipline for graph inputs
    (see :mod:`repro.bench.platform.store`).
    """


class BudgetExceededError(ReproError):
    """A run blew one of its :class:`~repro.runtime.Budget` limits.

    ``spent`` carries the :class:`~repro.runtime.BudgetSpent` snapshot
    at the moment of exhaustion (``None`` when the raising site had no
    controller), so harnesses can report *how far* a run got — the
    paper's "> 2h" cells become ``>budget(... nodes)`` cells.
    """

    def __init__(self, message: str, spent=None) -> None:
        super().__init__(message)
        self.spent = spent


class DeadlineExceededError(BudgetExceededError):
    """The wall-clock deadline passed (checked at root granularity)."""


class NodeBudgetExceededError(BudgetExceededError):
    """The recursion-node budget is exhausted.

    Replaces the ad-hoc mutable-list budget the enumeration baseline
    used to carry (``repro.counting.arbcount``).
    """


class MemoryBudgetExceededError(BudgetExceededError):
    """The memory watermark was crossed, or an allocation failed
    (``MemoryError`` raised while processing a root)."""


class CheckpointError(ReproError):
    """A checkpoint file is corrupt, incompatible with the run being
    resumed, or cannot be written."""


class ForestFormatError(CheckpointError):
    """A persisted SCT forest ``.npz`` is truncated or corrupt.

    Subclasses :class:`CheckpointError` so existing callers that treat
    any unloadable forest as a checkpoint failure keep working; carries
    the offending path in the message, and the loader quarantines the
    file (renames it ``<path>.corrupt``) before raising so a rebuild
    can re-save under the original name (see
    :func:`repro.counting.forest.load_or_rebuild_forest`).
    """


class IOIntegrityError(ReproError):
    """A persisted artifact failed checksum verification on read.

    Raised by :mod:`repro.shard.safeio` when a spill file, ledger line
    or checkpoint does not hash to its recorded content checksum —
    a torn write, bit-rot, or injected corruption.  Carries the
    offending path as ``path`` (and the quarantined name as
    ``quarantined`` when the caller moved it aside).
    """

    def __init__(self, message: str, path=None, quarantined=None) -> None:
        super().__init__(message)
        self.path = path
        self.quarantined = quarantined


class KernelFaultError(ReproError):
    """A bitset-kernel backend failed mid-run.

    With degradation enabled the engine falls back to the ``bigint``
    reference backend and re-verifies the active root; without it the
    fault propagates.
    """


class RunInterrupted(ReproError):
    """A run was interrupted between roots (injected or cooperative).

    When checkpointing is enabled the controller saves its state before
    this propagates, so the run can be resumed deterministically.
    """


class WorkerCrashError(ReproError):
    """A parallel worker process failed while counting a chunk.

    The worker-side error is carried in the message (workers report
    failures as data rather than raising through the pool, so the
    parent knows *which* chunk died).  With degradation enabled the
    parallel runtime re-runs the failed chunk in-process on the
    ``bigint`` reference backend instead of raising — the result stays
    exact and is flagged via ``degraded_from`` (see
    :mod:`repro.parallel.runtime`).
    """


class ShardError(ReproError):
    """An out-of-core shard could not be counted.

    Raised by :mod:`repro.shard` after the bounded retry loop (respill,
    re-verify, recount with seeded exponential backoff) is exhausted
    and degradation is not enabled.  With ``degrade=True`` the shard is
    instead recounted exactly from the resident graph and the result is
    flagged ``degraded_from="shard"``.
    """


class DegradedResultWarning(UserWarning):
    """Emitted when a run returns a degraded (approximate or
    backend-downgraded) result instead of failing outright."""
