"""Per-round training history."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..telemetry.diagnostics import AlgoDiagnostics
from .metrics import instability, rounds_to_target, time_to_target

#: RoundRecord dict fields keyed by client id (JSON object keys are strings).
_CLIENT_KEYED = ("alphas", "update_norms", "quarantined", "retries")


@dataclass
class RoundRecord:
    """Everything recorded about one communication round."""

    round: int
    test_accuracy: float
    test_loss: float
    round_sim_time: float  # slowest-client simulated local compute
    cumulative_sim_time: float
    round_wall_time: float  # measured seconds for the round
    participating: List[int] = field(default_factory=list)
    alphas: Dict[int, float] = field(default_factory=dict)  # TACO alpha_i^t
    expelled: List[int] = field(default_factory=list)
    update_norms: Dict[int, float] = field(default_factory=dict)
    # Fault accounting (repro.faults + repro.fl.degradation):
    dropped: List[int] = field(default_factory=list)  # crashes + retry-exhausted
    quarantined: Dict[int, str] = field(default_factory=dict)  # client -> reason
    stragglers: List[int] = field(default_factory=list)  # missed the deadline
    retries: Dict[int, int] = field(default_factory=dict)  # client -> attempts
    # Delivery semantics (repro.network; empty without an active plan):
    duplicated: List[int] = field(default_factory=list)  # deduplicated arrivals
    deliveries: Dict[str, int] = field(default_factory=dict)  # outcome -> count
    aggregated: int = 0  # updates that actually reached the strategy
    skipped: bool = False  # True when quorum failed and the step was skipped
    # Transport accounting (repro.comm; zero when no Transport is attached):
    uplink_bytes: int = 0  # client -> server upload bytes this round
    downlink_bytes: int = 0  # server -> client broadcast bytes this round
    # Guard accounting (repro.guard; empty when no guard is attached):
    anomalies: List[str] = field(default_factory=list)  # anomaly kinds observed
    recovery: Optional[str] = None  # action applied after this round, if any
    # What the algorithm published this round (None while telemetry is off):
    diagnostics: Optional[AlgoDiagnostics] = None

    @property
    def fault_count(self) -> int:
        """Uploads selected this round that never reached aggregation."""
        return len(self.dropped) + len(self.quarantined) + len(self.stragglers)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump in field order; client-id keys become sorted strings."""
        data = {name: list(v) if isinstance(v, list) else v for name, v in vars(self).items()}
        for name in _CLIENT_KEYED:
            data[name] = {str(cid): value for cid, value in sorted(data[name].items())}
        data["deliveries"] = dict(sorted(data["deliveries"].items()))
        if self.diagnostics is not None:
            data["diagnostics"] = self.diagnostics.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RoundRecord":
        """Inverse of :meth:`to_dict`; fields an older dump lacks take defaults."""
        kwargs = dict(data)
        for name in _CLIENT_KEYED:
            if name in kwargs:
                kwargs[name] = {int(cid): value for cid, value in kwargs[name].items()}
        if kwargs.get("diagnostics") is not None:
            kwargs["diagnostics"] = AlgoDiagnostics.from_dict(kwargs["diagnostics"])
        return cls(**kwargs)


@dataclass
class RecoveryEvent:
    """One action the recovery controller took (see :mod:`repro.guard`).

    Rollbacks truncate the poisoned round records they revert, so this
    audit log is the durable trace of what the guard did: which round was
    anomalous, what the escalation ladder chose, where the run was rewound
    to, the server-lr scale afterwards, and the clients blamed.
    """

    round: int  # the anomalous round that triggered the action
    action: str  # "skip" | "rollback" | "abort"
    anomalies: List[str] = field(default_factory=list)  # anomaly kinds
    rolled_back_to: Optional[int] = None  # snapshot round (rollback only)
    lr_scale: float = 1.0  # server-lr scale after the action
    blamed_clients: List[int] = field(default_factory=list)
    detail: str = ""


class TrainingHistory:
    """Accumulates round records and answers the paper's metric queries."""

    def __init__(self) -> None:
        self.records: List[RoundRecord] = []
        self.recoveries: List[RecoveryEvent] = []

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def truncate(self, length: int) -> None:
        """Drop records beyond ``length`` (rollback rewinds the history)."""
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        del self.records[length:]

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Series accessors
    # ------------------------------------------------------------------
    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.test_accuracy for r in self.records])

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.test_loss for r in self.records])

    @property
    def cumulative_times(self) -> np.ndarray:
        return np.array([r.cumulative_sim_time for r in self.records])

    @property
    def round_times(self) -> np.ndarray:
        return np.array([r.round_sim_time for r in self.records])

    @property
    def wall_times(self) -> np.ndarray:
        """Measured (real) seconds per round, alongside the simulated series."""
        return np.array([r.round_wall_time for r in self.records])

    @property
    def cumulative_wall_times(self) -> np.ndarray:
        """Running total of measured per-round seconds."""
        return np.cumsum(self.wall_times) if self.records else np.array([])

    @property
    def final_accuracy(self) -> float:
        if not self.records:
            raise ValueError("history is empty")
        return self.records[-1].test_accuracy

    @property
    def best_accuracy(self) -> float:
        if not self.records:
            raise ValueError("history is empty")
        return float(self.accuracies.max())

    @property
    def expelled_clients(self) -> List[int]:
        expelled: List[int] = []
        for record in self.records:
            expelled.extend(record.expelled)
        return expelled

    # ------------------------------------------------------------------
    # Traffic accounting (repro.comm)
    # ------------------------------------------------------------------
    @property
    def total_uplink_bytes(self) -> int:
        """All client -> server upload bytes across the run."""
        return sum(r.uplink_bytes for r in self.records)

    @property
    def total_downlink_bytes(self) -> int:
        """All server -> client broadcast bytes across the run."""
        return sum(r.downlink_bytes for r in self.records)

    # ------------------------------------------------------------------
    # Fault accounting
    # ------------------------------------------------------------------
    @property
    def total_dropped(self) -> int:
        return sum(len(r.dropped) for r in self.records)

    @property
    def total_quarantined(self) -> int:
        return sum(len(r.quarantined) for r in self.records)

    @property
    def total_stragglers(self) -> int:
        return sum(len(r.stragglers) for r in self.records)

    @property
    def skipped_rounds(self) -> int:
        return sum(1 for r in self.records if r.skipped)

    @property
    def total_duplicated(self) -> int:
        """Arrivals the server deduplicated before aggregation."""
        return sum(len(r.duplicated) for r in self.records)

    def fault_summary(self) -> Dict[str, int]:
        """Run-level fault totals (dropped/quarantined/stragglers/...)."""
        return {
            "dropped": self.total_dropped,
            "quarantined": self.total_quarantined,
            "stragglers": self.total_stragglers,
            "retried_uploads": sum(len(r.retries) for r in self.records),
            "duplicated_uploads": self.total_duplicated,
            "skipped_rounds": self.skipped_rounds,
        }

    def delivery_summary(self) -> Dict[str, int]:
        """Run-level network delivery totals (empty without an active plan)."""
        totals: Dict[str, int] = {}
        for record in self.records:
            for outcome, count in record.deliveries.items():
                totals[outcome] = totals.get(outcome, 0) + count
        return totals

    def quarantine_reasons(self) -> Dict[str, int]:
        """Counts per quarantine reason across the run."""
        reasons: Dict[str, int] = {}
        for record in self.records:
            for reason in record.quarantined.values():
                reasons[reason] = reasons.get(reason, 0) + 1
        return reasons

    # ------------------------------------------------------------------
    # Guard accounting (repro.guard)
    # ------------------------------------------------------------------
    @property
    def total_rollbacks(self) -> int:
        return sum(1 for e in self.recoveries if e.action == "rollback")

    @property
    def total_skips(self) -> int:
        return sum(1 for e in self.recoveries if e.action == "skip")

    @property
    def aborted(self) -> bool:
        """True when the guard exhausted its budget and gave up."""
        return any(e.action == "abort" for e in self.recoveries)

    def anomaly_counts(self) -> Dict[str, int]:
        """Counts per anomaly kind, from surviving records *and* the audit log.

        A rollback truncates the records of the rounds it reverts, so their
        anomalies are counted from the recovery events instead; skip events
        leave their (annotated) record in place, so only non-skip events
        contribute here.
        """
        counts: Dict[str, int] = {}
        for record in self.records:
            for kind in record.anomalies:
                counts[kind] = counts.get(kind, 0) + 1
        for event in self.recoveries:
            if event.action == "skip":
                continue  # its record survived and was counted above
            for kind in event.anomalies:
                counts[kind] = counts.get(kind, 0) + 1
        return counts

    def recovery_summary(self) -> Dict[str, object]:
        """Run-level guard totals for reports and the CLI JSON output."""
        return {
            "skips": self.total_skips,
            "rollbacks": self.total_rollbacks,
            "aborted": self.aborted,
            "anomalies": self.anomaly_counts(),
            "lr_scale": self.recoveries[-1].lr_scale if self.recoveries else 1.0,
        }

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------
    def rounds_to_accuracy(self, target: float) -> Optional[int]:
        """Round-to-accuracy: first round reaching ``target`` (Table V)."""
        return rounds_to_target(self.accuracies, target)

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """Time-to-accuracy: cumulative compute time at ``target`` (Fig. 4)."""
        return time_to_target(self.accuracies, self.cumulative_times, target)

    def instability(self, window: int = 5) -> float:
        return instability(self.accuracies, window=window)

    def mean_alpha_by_client(self) -> Dict[int, float]:
        """Average TACO correction coefficient per client (Table II)."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for record in self.records:
            for client, alpha in record.alphas.items():
                sums[client] = sums.get(client, 0.0) + alpha
                counts[client] = counts.get(client, 0) + 1
        return {client: sums[client] / counts[client] for client in sums}
