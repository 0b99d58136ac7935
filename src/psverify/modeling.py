"""Speaker models: per-(speaker, vowel) mean feature vectors and their
line-oriented persistence format.

A ModelSet keeps each vowel's models as columns: the speaker ids in
lexicographic order, a read-only (S, 16) matrix and an utterance-count
array. `SpeakerModel` is the record that goes in through `add` and comes
back out of the `models` view.
"""

import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import UtteranceFeatures, VOWELS

MODEL_DIM = 16
FORMAT_HEADER = "PSV-MODELS v1"
_MAX_UTTERANCES = int(np.iinfo(np.int64).max)

# one model line: speaker id, vowel, utterance count, 16 values
_LINE_FORMAT = "%s %s %d" + " %.12g" * MODEL_DIM
_LINE_DTYPE = np.dtype([
    ("sid", object), ("vowel", "U2"), ("n", np.int64), ("values", np.float64, (MODEL_DIM,)),
])
# files made only of these bytes are parsed by column; splitting them on
# "\n" and " " gives the lines and fields that str.splitlines/str.split give
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n"


def speaker_id_error(speaker_id: str) -> str | None:
    """Why a speaker id cannot be one field of a model line, or None."""
    if not speaker_id or any(ch.isspace() for ch in speaker_id):
        return f"speaker id must be non-empty and contain no whitespace: {speaker_id!r}"
    return None


def _model_error(speaker_id: str, vowel: str, values: np.ndarray, n_utterances: int) -> str | None:
    """The first rule a model breaks, or None."""
    if error := speaker_id_error(speaker_id):
        return error
    if vowel not in VOWELS:
        return f"unknown vowel {vowel!r}"
    if values.shape != (MODEL_DIM,):
        return f"model must hold {MODEL_DIM} values, got {values.shape}"
    if not np.all(np.isfinite(values)):
        return "model values must be finite"
    if n_utterances < 1:
        return f"model needs at least one utterance, got {n_utterances}"
    if n_utterances > _MAX_UTTERANCES:
        return f"utterance count {n_utterances} exceeds {_MAX_UTTERANCES}"
    return None


@dataclass(frozen=True, eq=False)
class SpeakerModel:
    speaker_id: str
    vowel: str
    mean_features: np.ndarray
    n_utterances: int

    def __post_init__(self):
        arr = np.array(self.mean_features, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "mean_features", arr)
        object.__setattr__(self, "n_utterances", operator.index(self.n_utterances))
        error = _model_error(self.speaker_id, self.vowel, arr, self.n_utterances)
        if error:
            raise ValueError(error)

    @classmethod
    def _of_row(cls, speaker_id: str, vowel: str, row: np.ndarray, n_utterances: int):
        """A record over one row of a ModelSet's columns, which were
        validated when they were built: no copy and no checks."""
        model = object.__new__(cls)
        object.__setattr__(model, "speaker_id", speaker_id)
        object.__setattr__(model, "vowel", vowel)
        object.__setattr__(model, "mean_features", row)
        object.__setattr__(model, "n_utterances", n_utterances)
        return model


_NO_COLUMNS = ((), np.empty((0, MODEL_DIM)), np.empty(0, np.int64))


class _ModelsView(Mapping):
    """Read-only (speaker id, vowel) -> SpeakerModel view of a ModelSet.
    Values are built from the columns on each access."""

    __slots__ = ("_set",)

    def __init__(self, model_set: "ModelSet"):
        self._set = model_set

    def __getitem__(self, key) -> SpeakerModel:
        if key not in self:
            raise KeyError(key)
        sid, vowel = key
        ids, matrix, counts = self._set._read(vowel)
        i = self._set._rows[vowel][sid]
        return SpeakerModel._of_row(ids[i], vowel, matrix[i], int(counts[i]))

    def __contains__(self, key) -> bool:
        if not (isinstance(key, tuple) and len(key) == 2):
            return False
        sid, vowel = key
        return sid in self._set._rows.get(vowel, ())

    def __len__(self) -> int:
        return sum(map(len, self._set._rows.values()))

    def __iter__(self):
        for vowel in self._set._rows:
            for sid in self._set._read(vowel)[0]:
                yield sid, vowel


class ModelSet:
    """Speaker models keyed by (speaker id, vowel), stored per vowel as
    columns. `add` is the only writer: it queues the model, and the
    vowel's next read merges the queue in with one sort."""

    def __init__(self):
        self._columns = {}  # vowel -> (ids, matrix, counts)
        self._rows = {}  # vowel -> {speaker id: row, or None while queued}
        self._queued = {}  # vowel -> [(speaker id, values, count)]

    @property
    def models(self) -> Mapping:
        """Read-only view of the models, keyed by (speaker id, vowel)."""
        return _ModelsView(self)

    def add(self, model: SpeakerModel) -> None:
        """Queue one model; amortized O(1)."""
        # one shared id string per speaker across the five vowels
        sid = sys.intern(model.speaker_id)
        rows = self._rows.setdefault(model.vowel, {})
        if sid in rows:
            raise ValueError(f"duplicate model for {(sid, model.vowel)}")
        rows[sid] = None
        self._queued.setdefault(model.vowel, []).append((sid, model.mean_features, model.n_utterances))

    def _merge(self, vowel: str, ids, matrix: np.ndarray, counts: np.ndarray) -> None:
        """Merge new columns, in any order, into the vowel's; ValueError if
        an id repeats."""
        old_ids, old_matrix, old_counts = self._columns.get(vowel, _NO_COLUMNS)
        ids = old_ids + tuple(ids)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = tuple(ids[i] for i in order)
        matrix = np.concatenate((old_matrix, matrix))[order]
        counts = np.concatenate((old_counts, counts))[order]
        matrix.flags.writeable = counts.flags.writeable = False
        rows = dict(zip(ids, range(len(ids))))
        if len(rows) != len(ids):
            raise ValueError("duplicate speaker id")
        self._columns[vowel] = ids, matrix, counts
        self._rows[vowel] = rows

    def _read(self, vowel: str):
        """The vowel's (ids, matrix, counts), queued models merged in."""
        queued = self._queued.pop(vowel, None)
        if queued:
            ids, rows, counts = zip(*queued)
            self._merge(vowel, ids, np.stack(rows), np.array(counts, dtype=np.int64))
        return self._columns.get(vowel, _NO_COLUMNS)

    def speakers(self) -> list[str]:
        return sorted(set().union(*self._rows.values()))

    def table(self, vowel: str) -> tuple[tuple[str, ...], np.ndarray]:
        """The vowel's speaker ids in lexicographic order and their models
        as a read-only (S, 16) matrix."""
        return self._read(vowel)[:2]

    def for_vowel(self, vowel: str) -> list[SpeakerModel]:
        ids, matrix, counts = self._read(vowel)
        return [
            SpeakerModel._of_row(sid, vowel, row, n)
            for sid, row, n in zip(ids, matrix, counts.tolist())
        ]


def build_model(speaker_id: str, vowel: str, features) -> SpeakerModel:
    """Coordinate-wise mean of the utterances' 16-value vectors."""
    features = list(features)
    if not features:
        raise ValueError("cannot build a model from zero utterances")
    for f in features:
        if not isinstance(f, UtteranceFeatures):
            raise TypeError("expected UtteranceFeatures")
        if f.vowel != vowel:
            raise ValueError(f"mixed vowels: model is {vowel!r}, utterance is {f.vowel!r}")
    mean = np.mean([f.vector for f in features], axis=0)
    return SpeakerModel(speaker_id, vowel, mean, len(features))


def save_models(model_set: ModelSet, path) -> None:
    """Write the v1 text format, one model per line, sorted by (speaker, vowel)."""
    ids, vowels, matrices, counts = [], [], [], []
    for vowel in sorted(model_set._rows):
        vowel_ids, matrix, vowel_counts = model_set._read(vowel)
        ids.extend(vowel_ids)
        vowels.extend([vowel] * len(vowel_ids))
        matrices.append(matrix)
        counts.append(vowel_counts)
    # a stable sort by id keeps each speaker's vowels in sorted order
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rows = np.concatenate(matrices or [np.empty((0, MODEL_DIM))])[order].tolist()
    ns = np.concatenate(counts or [np.empty(0, np.int64)])[order].tolist()
    lines = [FORMAT_HEADER]
    lines.extend(_LINE_FORMAT % (ids[i], vowels[i], n, *row) for i, n, row in zip(order, ns, rows))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_models(path) -> ModelSet:
    """Read the v1 text format back, validating layout, values and key
    uniqueness.

    A file of printable ASCII lines is parsed a column at a time. Any other
    file, or one the column parse rejects, is read line by line, which
    accepts the same files and names the line of the first fault.
    """
    path = Path(path)
    data = path.read_bytes()
    if data.isascii() and not data.translate(None, _PLAIN_BYTES):
        try:
            return _model_set(*_parse_columns(data.decode("ascii")))
        except ValueError:
            pass
    return _model_set(*_parse_lines(path, data.decode("utf-8").splitlines()))


def _parse_columns(text: str):
    """(ids, vowels, counts, matrix) of a plain model file in one numpy
    parse, or ValueError without a line number."""
    header, *body = text.split("\n")
    if header.strip() != FORMAT_HEADER:
        raise ValueError("bad header")
    if not any(line.strip() for line in body):
        return [], np.empty(0, str), np.empty(0, np.int64), np.empty((0, MODEL_DIM))
    # blank lines are skipped; every other line must hold exactly 19 fields
    lines = np.loadtxt(body, dtype=_LINE_DTYPE, comments=None, ndmin=1)
    return lines["sid"].tolist(), lines["vowel"], lines["n"], lines["values"]


def _parse_lines(path: Path, lines: list[str]):
    """(ids, vowels, counts, matrix) read one line at a time, or a
    ValueError naming the first line that breaks a rule."""
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ValueError(f"{path}: expected header {FORMAT_HEADER!r}")
    ids, vowels, counts, rows = [], [], [], []
    seen = set()
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 3 + MODEL_DIM:
            raise ValueError(
                f"{path}: line {lineno}: expected {3 + MODEL_DIM} fields, got {len(tokens)}"
            )
        sid, vowel, n_text = tokens[:3]
        try:
            n = int(n_text)
            values = np.array([float(t) for t in tokens[3:]])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed number") from None
        if (sid, vowel) in seen:
            raise ValueError(f"{path}: line {lineno}: duplicate model for ({sid}, {vowel})")
        seen.add((sid, vowel))
        error = _model_error(sid, vowel, values, n)
        if error:
            raise ValueError(f"{path}: line {lineno}: {error}")
        ids.append(sid)
        vowels.append(vowel)
        counts.append(n)
        rows.append(values)
    matrix = np.array(rows, dtype=np.float64).reshape(len(rows), MODEL_DIM)
    return ids, np.array(vowels, dtype=str), np.array(counts, dtype=np.int64), matrix


def _model_set(ids: list[str], vowels: np.ndarray, counts: np.ndarray, matrix: np.ndarray) -> ModelSet:
    """A ModelSet from parallel per-model columns in any order, or
    ValueError if a row breaks a model rule or a key repeats."""
    if not (np.isfinite(matrix).all() and (counts >= 1).all() and np.isin(vowels, VOWELS).all()):
        raise ValueError("model values must be finite, counts at least 1 and vowels known")
    model_set = ModelSet()
    for vowel in VOWELS:
        rows = np.flatnonzero(vowels == vowel)
        if rows.size:
            sids = [sys.intern(ids[i]) for i in rows.tolist()]
            model_set._merge(vowel, sids, matrix[rows], counts[rows])
    return model_set
