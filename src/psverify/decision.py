"""Tokhura-distance matching and the agree-or-reject fusion rule.

Cepstral and temporal distances are minimized separately; a trial is
accepted only when both nearest speakers coincide, otherwise it is
rejected (and, in a verification setting, the speaker is asked to repeat).
"""

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .features import UtteranceFeatures
from .modeling import ModelSet

# Classical Tokhura weight table; the temporal block defaults to plain
# squared Euclidean. Both are overridable configuration, not claims.
TOKHURA_CEPSTRAL_WEIGHTS = (1.0, 3.0, 7.0, 13.0, 19.0, 22.0, 25.0, 33.0, 42.0, 50.0, 56.0, 61.0)
DEFAULT_TEMPORAL_WEIGHTS = (1.0, 1.0, 1.0, 1.0)

VERIFIED = "verified"
IMPOSTOR = "impostor"
RETRY = "retry"


@dataclass(frozen=True, eq=False)
class DistanceWeights:
    cepstral_weights: np.ndarray = field(default_factory=lambda: np.array(TOKHURA_CEPSTRAL_WEIGHTS))
    temporal_weights: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_TEMPORAL_WEIGHTS))

    def __post_init__(self):
        for name, count in (("cepstral_weights", 12), ("temporal_weights", 4)):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            if w.shape != (count,):
                raise ValueError(f"{name} needs {count} values, got {w.size if w.ndim == 1 else w.shape}")
            if not np.all((0 < w) & (w < np.inf)):
                raise ValueError(f"{name} must be finite and positive")
            object.__setattr__(self, name, w)


class Distances(Mapping):
    """Read-only speaker id -> distance map over sorted ids and a parallel
    float64 array. Iterates in id order; values come out as Python floats.
    The id -> value dict behind lookups is built on the first one."""

    __slots__ = ("_ids", "_values", "_lookup")

    def __init__(self, ids: tuple[str, ...], values: np.ndarray):
        self._ids = ids
        self._values = values
        self._lookup = None

    def __getitem__(self, sid) -> float:
        if self._lookup is None:
            self._lookup = dict(zip(self._ids, self._values.tolist()))
        return self._lookup[sid]

    def __iter__(self):
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return f"Distances({dict(self)!r})"


@dataclass(frozen=True)
class DistanceReport:
    """Per-speaker distances for one test utterance, one family at a time.

    Any mapping given for a family is stored as a `Distances`.
    """

    cepstral_distances: Mapping
    temporal_distances: Mapping
    argmin_cepstral: str
    argmin_temporal: str

    def __post_init__(self):
        for name in ("cepstral_distances", "temporal_distances"):
            distances = getattr(self, name)
            if not isinstance(distances, Distances):
                ids = tuple(sorted(distances))
                values = np.array([distances[sid] for sid in ids], dtype=np.float64)
                object.__setattr__(self, name, Distances(ids, values))


@dataclass(frozen=True)
class VerificationOutcome:
    accepted: bool
    speaker_id: str | None = None

    def __post_init__(self):
        if self.accepted and not self.speaker_id:
            raise ValueError("accepted outcome needs a speaker id")
        if not self.accepted and self.speaker_id is not None:
            raise ValueError("rejected outcome carries no speaker id")


def weighted_distance(x, y, w) -> float:
    """Tokhura's weighted squared-Euclidean distance: sum_i w_i (x_i - y_i)^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.shape != y.shape or x.shape != w.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape} vs {w.shape}")
    d = x - y
    return float(w @ (d * d))


def score_against_models(
    features: UtteranceFeatures,
    model_set: ModelSet,
    weights: DistanceWeights | None = None,
) -> DistanceReport:
    """Distances from the test vector to every same-vowel speaker model.

    The 12-dimensional cepstral distance and the 4-dimensional temporal
    distance are computed and minimized independently, each as one pass
    over the vowel's model matrix; every value equals
    `weighted_distance` against that model up to rounding.
    """
    if weights is None:
        weights = DistanceWeights()
    ids, matrix = model_set.table(features.vowel)
    if not ids:
        raise ValueError(f"no enrolled model for vowel {features.vowel!r}")
    sq = (matrix - features.vector) ** 2
    # einsum sums every row in the same order; BLAS gemv (`@`) rounds a row
    # differently by its position, so equal models would not tie exactly.
    cep = np.einsum("ij,j->i", sq[:, 4:], weights.cepstral_weights)
    tem = np.einsum("ij,j->i", sq[:, :4], weights.temporal_weights)
    # ids are sorted and argmin takes the first minimum, so ties break
    # towards the lexicographically smallest speaker id
    return DistanceReport(
        Distances(ids, cep),
        Distances(ids, tem),
        ids[int(np.argmin(cep))],
        ids[int(np.argmin(tem))],
    )


def agreed_speaker(cepstral_pick: str, temporal_pick: str) -> str | None:
    """The agree-or-reject rule: the common pick when the cepstral and
    temporal nearest speakers agree, None (rejected) when they differ."""
    return cepstral_pick if cepstral_pick == temporal_pick else None


def identify_combined(report: DistanceReport) -> VerificationOutcome:
    """Accept only when the cepstral and temporal nearest speakers agree."""
    speaker = agreed_speaker(report.argmin_cepstral, report.argmin_temporal)
    return VerificationOutcome(speaker is not None, speaker)


def verify_claim(report: DistanceReport, claimed: str) -> str:
    """Check an identity claim: 'verified', 'impostor', or 'retry'.

    A rejected (disagreeing) trial is a retry: the speaker is asked to
    speak once more.
    """
    if claimed not in report.cepstral_distances:
        raise ValueError(f"unknown claimed speaker {claimed!r}")
    outcome = identify_combined(report)
    if not outcome.accepted:
        return RETRY
    return VERIFIED if outcome.speaker_id == claimed else IMPOSTOR
