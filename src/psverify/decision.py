"""Tokhura-distance matching and the agree-or-reject fusion rule.

Cepstral and temporal distances are minimized separately; a trial is
accepted only when both nearest speakers coincide, otherwise it is
rejected (and, in a verification setting, the speaker is asked to repeat).
"""

from collections.abc import Mapping
from dataclasses import dataclass

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
    """Both weight vectors, kept as read-only copies of the values checked."""

    cepstral_weights: np.ndarray = TOKHURA_CEPSTRAL_WEIGHTS
    temporal_weights: np.ndarray = DEFAULT_TEMPORAL_WEIGHTS

    def __post_init__(self):
        for name, count in (("cepstral_weights", 12), ("temporal_weights", 4)):
            w = np.array(getattr(self, name), dtype=np.float64)
            if w.shape != (count,):
                raise ValueError(f"{name} needs {count} values, got {w.size if w.ndim == 1 else w.shape}")
            if not np.all((0 < w) & (w < np.inf)):
                raise ValueError(f"{name} must be finite and positive")
            w.flags.writeable = False
            object.__setattr__(self, name, w)


_DEFAULT_WEIGHTS = DistanceWeights()


@dataclass(frozen=True, eq=False)
class DistanceReport:
    """Distances from one test utterance to every same-vowel speaker model:
    one read-only float64 array per family, parallel to the sorted `ids`.

    Two mappings over the same speaker ids may stand in for the arrays; they
    are stored as the sorted ids and one array each. Given arrays are copied.
    Reports do not compare by value.
    """

    cepstral_distances: np.ndarray
    temporal_distances: np.ndarray
    argmin_cepstral: str
    argmin_temporal: str
    ids: tuple = ()

    def __post_init__(self):
        ids = self.ids
        for name in ("cepstral_distances", "temporal_distances"):
            values = getattr(self, name)
            if isinstance(values, Mapping):
                ids = ids or tuple(sorted(values))
                if values.keys() != set(ids):
                    raise ValueError(f"{name} names other speakers than the report's ids")
                values = [values[sid] for sid in ids]
            values = np.array(values, dtype=np.float64)
            if values.shape != (len(ids),):
                raise ValueError(f"{name} needs one value per id ({len(ids)}), got shape {values.shape}")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "ids", tuple(ids))


@dataclass(frozen=True, slots=True)
class VerificationOutcome:
    accepted: bool
    speaker_id: str | None = None

    def __post_init__(self):
        if self.accepted and not self.speaker_id:
            raise ValueError("accepted outcome needs a speaker id")
        if not self.accepted and self.speaker_id is not None:
            raise ValueError("rejected outcome carries no speaker id")


def score_against_models(
    features: UtteranceFeatures,
    model_set: ModelSet,
    weights: DistanceWeights | None = None,
) -> DistanceReport:
    """Distances from the test vector to every same-vowel speaker model.

    The 12-dimensional cepstral distance and the 4-dimensional temporal
    distance are computed and minimized independently, each as one pass
    over the vowel's model matrix: Tokhura's weighted squared Euclidean
    distance, sum_i w_i (x_i - m_i)^2 over the family's dimensions.
    """
    if weights is None:
        weights = _DEFAULT_WEIGHTS
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
    return DistanceReport(cep, tem, ids[int(np.argmin(cep))], ids[int(np.argmin(tem))], ids)


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
    if claimed not in report.ids:
        raise ValueError(f"unknown claimed speaker {claimed!r}")
    outcome = identify_combined(report)
    if not outcome.accepted:
        return RETRY
    return VERIFIED if outcome.speaker_id == claimed else IMPOSTOR
