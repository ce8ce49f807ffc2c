"""Configuration of the self-healing layer.

One frozen :class:`GuardPolicy` fixes every detection threshold and every
recovery knob, so a guarded run is a pure function of (data seed, fault
seed, policy) — the property the bit-exact resume tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GuardPolicy:
    """Thresholds for anomaly detection and the recovery escalation ladder.

    Detection
    ---------
    spike_window:
        Rolling window of healthy-round losses backing the spike detector.
    spike_min_history:
        Spike/blowup checks stay silent until this many healthy rounds have
        been committed (a median over two points means nothing).
    spike_threshold:
        A loss is a spike when it exceeds the rolling median by this many
        MAD (median absolute deviation) units, with an absolute floor so a
        near-zero MAD cannot turn noise into anomalies.
    norm_blowup_factor:
        The global update norm is a blowup when it exceeds this multiple of
        its rolling median.
    plateau_window / plateau_tolerance:
        Accuracy flat (max - min <= tolerance) over the window raises a
        ``warn`` plateau anomaly; 0 disables the check.  Plateaus are
        reported, not recovered from — rolling back cannot un-stall a run.

    Recovery
    --------
    rollback_window:
        K: how many known-good engine states the ring buffer keeps.
        Consecutive failed recoveries walk deeper into this buffer.
    max_rollbacks:
        The escalation budget: after this many rollbacks the controller
        aborts the run (reported as a divergence) instead of looping.
    lr_backoff:
        Multiplier applied to the server learning rate on every rollback
        (0.5 halves eta_g each time).
    tighten_after:
        Once this many rollbacks have been spent, the degradation
        quarantine is tightened as well: non-finite filtering is forced on
        and the norm-outlier factor is multiplied by ``quarantine_tighten``.
    quarantine_tighten:
        The tightening multiplier for the norm-outlier factor (floored so
        the factor stays a valid > 1 multiple of the round median).
    """

    rollback_window: int = 3
    max_rollbacks: int = 4
    lr_backoff: float = 0.5
    spike_window: int = 8
    spike_min_history: int = 4
    spike_threshold: float = 10.0
    norm_blowup_factor: float = 100.0
    plateau_window: int = 0
    plateau_tolerance: float = 1e-3
    tighten_after: int = 2
    quarantine_tighten: float = 0.5

    def __post_init__(self) -> None:
        if self.rollback_window < 1:
            raise ValueError(f"rollback_window must be >= 1, got {self.rollback_window}")
        if self.max_rollbacks < 0:
            raise ValueError(f"max_rollbacks must be >= 0, got {self.max_rollbacks}")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise ValueError(f"lr_backoff must be in (0, 1], got {self.lr_backoff}")
        if self.spike_window < 2:
            raise ValueError(f"spike_window must be >= 2, got {self.spike_window}")
        if self.spike_min_history < 2:
            raise ValueError(
                f"spike_min_history must be >= 2, got {self.spike_min_history}"
            )
        if self.spike_threshold <= 0:
            raise ValueError(f"spike_threshold must be positive, got {self.spike_threshold}")
        if self.norm_blowup_factor <= 1:
            raise ValueError(
                f"norm_blowup_factor must exceed 1, got {self.norm_blowup_factor}"
            )
        if self.plateau_window < 0:
            raise ValueError(f"plateau_window must be >= 0, got {self.plateau_window}")
        if self.plateau_tolerance < 0:
            raise ValueError(
                f"plateau_tolerance must be >= 0, got {self.plateau_tolerance}"
            )
        if self.tighten_after < 1:
            raise ValueError(f"tighten_after must be >= 1, got {self.tighten_after}")
        if not 0.0 < self.quarantine_tighten <= 1.0:
            raise ValueError(
                f"quarantine_tighten must be in (0, 1], got {self.quarantine_tighten}"
            )
