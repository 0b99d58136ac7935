"""Speaker models: per-(speaker, vowel) mean feature vectors, and the one
file format they are saved in and loaded from.

A ModelSet keeps each vowel's models as columns: the speaker ids in
lexicographic order, its only index, a read-only (S, 16) matrix and an
utterance-count array. `SpeakerModel` is the record that goes in through
`add` and comes back out of the `models` view, in VOWELS order.
"""

import operator
import sys
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import UtteranceFeatures, VOWELS

MODEL_DIM = 16
FORMAT_HEADER = "PSV-MODELS v2"
_MAX_UTTERANCES = int(np.iinfo(np.int64).max)


def speaker_id_error(speaker_id: str) -> str | None:
    """Why a speaker id cannot be one field of a model file's id line, or None."""
    # str.split() cuts at exactly the characters that str.isspace() names
    if speaker_id.split() != [speaker_id]:
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


@dataclass(frozen=True, eq=False, slots=True)
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
_NO_QUEUE = ((), (), ())


def _row(ids: tuple, sid) -> int | None:
    """The row of `sid` in the sorted `ids`, or None; None for a non-str."""
    i = bisect_left(ids, sid) if isinstance(sid, str) else len(ids)
    return i if i < len(ids) and ids[i] == sid else None


class _ModelsView(Mapping):
    """Read-only (speaker id, vowel) -> SpeakerModel view of a ModelSet, in
    VOWELS order. Values are built from the columns on each access."""

    __slots__ = ("_set",)

    def __init__(self, model_set: "ModelSet"):
        self._set = model_set

    def __getitem__(self, key) -> SpeakerModel:
        sid, vowel = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        ids, matrix, counts = self._set._read(vowel)
        i = _row(ids, sid)
        if i is None:
            raise KeyError(key)
        return SpeakerModel._of_row(ids[i], vowel, matrix[i], int(counts[i]))

    def __len__(self) -> int:
        return sum(len(self._set._read(vowel)[0]) for vowel in VOWELS)

    def __iter__(self):
        for vowel in VOWELS:
            for sid in self._set._read(vowel)[0]:
                yield sid, vowel


class ModelSet:
    """Speaker models keyed by (speaker id, vowel), stored per vowel as
    columns. `add` is the only writer: it queues the model, and the
    vowel's next read merges the queue in with one sort."""

    def __init__(self):
        self._columns = {}  # vowel -> (ids, matrix, counts)
        # vowel -> ({speaker id: None}, array("d") of the rows' values, array("q") of counts):
        # a queued model costs its 136 bytes of data and an id, not an ndarray of its own
        self._queued = {}

    @property
    def models(self) -> Mapping:
        """Read-only view of the models, keyed by (speaker id, vowel)."""
        return _ModelsView(self)

    def add(self, model: SpeakerModel) -> None:
        """Queue one model; a binary search for a repeat, and no merge."""
        # one shared id string per speaker across the five vowels
        sid = sys.intern(model.speaker_id)
        ids, values, counts = self._queued.setdefault(model.vowel, ({}, array("d"), array("q")))
        if sid in ids or _row(self._columns.get(model.vowel, _NO_COLUMNS)[0], sid) is not None:
            raise ValueError(f"duplicate model for {(sid, model.vowel)}")
        ids[sid] = None
        # native float64 bytes: a loaded model's row is little-endian on any host
        values.frombytes(model.mean_features.astype(np.float64, copy=False).tobytes())
        counts.append(model.n_utterances)

    def _merge(self, vowel: str, ids, matrix: np.ndarray, counts: np.ndarray) -> None:
        """Merge new columns, in any order, into the vowel's. Ids already
        strictly increasing skip the sort and its copy; sorted ids break
        strict order only at a repeat: ValueError naming the smallest."""
        old_ids, old_matrix, old_counts = self._columns.get(vowel, _NO_COLUMNS)
        ids = tuple(ids)
        if old_ids:
            ids = old_ids + ids
            matrix = np.concatenate((old_matrix, matrix))
            counts = np.concatenate((old_counts, counts))
        # a tuple that another vowel's columns hold is in order: load_models passes
        # equal id lines as one tuple, so a file's shared line is walked once
        in_order = any(ids is other for other, _, _ in self._columns.values())
        if not in_order and not all(map(operator.lt, ids, ids[1:])):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            ids = tuple(ids[i] for i in order)
            if not all(map(operator.lt, ids, ids[1:])):
                repeated = next(a for a, b in zip(ids, ids[1:]) if a == b)
                raise ValueError(f"duplicate speaker id {repeated!r} for vowel {vowel!r}")
            matrix, counts = matrix[order], counts[order]
        matrix.flags.writeable = counts.flags.writeable = False
        self._columns[vowel] = ids, matrix, counts

    def _read(self, vowel: str):
        """The vowel's (ids, matrix, counts), queued models merged in."""
        ids, values, counts = self._queued.pop(vowel, _NO_QUEUE)
        if ids:
            self._merge(vowel, ids, np.frombuffer(values).reshape(-1, MODEL_DIM), np.frombuffer(counts, np.int64))
        return self._columns.get(vowel, _NO_COLUMNS)

    def speakers(self) -> list[str]:
        return sorted(set().union(*(self._read(vowel)[0] for vowel in VOWELS)))

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
    """Write the v2 format: the header line; one line per vowel, in VOWELS
    order, holding the vowel and its sorted speaker ids separated by
    spaces; then, per vowel in the same order, its (S, 16) matrix as
    little-endian float64 and its S counts as little-endian int64."""
    columns = [model_set._read(vowel) for vowel in VOWELS]
    lines = [FORMAT_HEADER] + [" ".join((vowel, *ids)) for vowel, (ids, _, _) in zip(VOWELS, columns)]
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for _, matrix, counts in columns:
            # the columns' own buffers when they are already little-endian and contiguous
            fh.write(np.ascontiguousarray(matrix, "<f8").data)
            fh.write(np.ascontiguousarray(counts, "<i8").data)


def load_models(path) -> ModelSet:
    """Read the v2 format back, or raise a ValueError naming the path: for
    any other header, a vowel line out of place, a bad or repeated speaker
    id, a body whose size the id lines do not fix, a non-finite value or a
    count below 1."""
    path = Path(path)
    with open(path, "rb") as fh:
        header, *lines = [fh.readline() for _ in range(len(VOWELS) + 1)]
        try:
            if header.removesuffix(b"\n") != FORMAT_HEADER.encode():
                raise ValueError(f"not a {FORMAT_HEADER!r} model file; run enroll again to rebuild it")
            if not lines[-1].endswith(b"\n"):
                raise ValueError("file ends inside the speaker id lines")
            ids_of, interned = [], {}  # id text -> its interned ids, shared by equal lines
            for lineno, (vowel, line) in enumerate(zip(VOWELS, lines), 2):
                name, sep, tail = line[:-1].decode("utf-8").partition(" ")
                if name != vowel:
                    raise ValueError(f"line {lineno}: expected the speaker ids of vowel {vowel!r}")
                ids = interned.get(tail) if sep else ()
                if ids is None:
                    ids = tail.split(" ")
                    # equal exactly when every id passes speaker_id_error
                    if tail.split() != ids:
                        error = next(filter(None, map(speaker_id_error, ids)))
                        raise ValueError(f"line {lineno}: {error}")
                    ids = interned[tail] = tuple(map(sys.intern, ids))
                ids_of.append(ids)
            row_bytes = 8 * (MODEL_DIM + 1)
            size = row_bytes * sum(map(len, ids_of))
            # the body is read straight into a buffer of its own, with no copy:
            # the columns are views of it, 8-byte aligned wherever the id lines
            # end (numpy's arithmetic is slower over unaligned float64)
            body = np.empty(size, np.uint8)
            held = fh.readinto(body) + len(fh.read())
            if held != size:
                raise ValueError(f"model data holds {held} bytes, the id lines fix {size}")
            model_set, offset = ModelSet(), 0
            for vowel, ids in zip(VOWELS, ids_of):
                n = len(ids)
                matrix = np.frombuffer(body, "<f8", n * MODEL_DIM, offset).reshape(n, MODEL_DIM)
                counts = np.frombuffer(body, "<i8", n, offset + 8 * n * MODEL_DIM)
                offset += n * row_bytes
                if not np.isfinite(matrix).all():
                    raise ValueError(f"vowel {vowel!r}: model values must be finite")
                if not (counts >= 1).all():
                    raise ValueError(f"vowel {vowel!r}: utterance counts must be at least 1")
                model_set._merge(vowel, ids, matrix, counts)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return model_set
