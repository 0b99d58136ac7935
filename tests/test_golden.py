"""The pinned answers of `tests/golden`: the seed-7 study recomputed by the
same function that wrote `answers.json`, and compared with it. Feature
values may move by 1e-12 relative; everything else must match exactly."""

import copy
import json
from itertools import zip_longest

import pytest

from golden.write_answers import ANSWERS, answers

RELATIVE_TOLERANCE = 1e-12


def mismatches(expected: dict, actual: dict) -> list[str]:
    """One line per differing field, naming the file, the field and both values."""
    found = []

    def differ(where, want, got):
        found.append(f"{where}: expected {want!r}, got {got!r}")

    for key in ("corpus", "corpus_sha256"):
        if expected[key] != actual[key]:
            differ(key, expected[key], actual[key])
    for name in sorted(expected["files"].keys() | actual["files"].keys()):
        want, got = expected["files"].get(name), actual["files"].get(name)
        if want is None or got is None:
            differ(name, want, got)
            continue
        for field in sorted(want.keys() | got.keys()):
            a, b = want.get(field), got.get(field)
            if field == "vector" and a is not None and b is not None and len(a) == len(b):
                for i, (x, y) in enumerate(zip(map(float.fromhex, a), map(float.fromhex, b))):
                    if not abs(y - x) <= RELATIVE_TOLERANCE * abs(x):
                        differ(f"{name}: vector[{i}]", x, y)
            elif a != b:
                differ(f"{name}: {field}", a, b)
    for name in sorted(expected["report"].keys() | actual["report"].keys()):
        want, got = expected["report"].get(name, ""), actual["report"].get(name, "")
        lines = zip_longest(want.splitlines(keepends=True), got.splitlines(keepends=True))
        for number, (a, b) in enumerate(lines, 1):
            if a != b:
                differ(f"report {name}: line {number}", a, b)
                break
    return found


@pytest.fixture(scope="module")
def computed():
    return answers()


def test_answers_are_the_pinned_ones(computed):
    found = mismatches(json.loads(ANSWERS.read_text(encoding="utf-8")), computed)
    assert not found, f"{len(found)} answers moved:\n" + "\n".join(found[:40])


def test_a_mismatch_names_the_file_the_field_and_both_values(computed):
    moved = copy.deepcopy(computed)
    name = sorted(moved["files"])[0]
    x = float.fromhex(moved["files"][name]["vector"][4])
    within = x * (1 + RELATIVE_TOLERANCE / 2)
    moved["files"][name]["vector"][4] = within.hex()
    assert mismatches(computed, moved) == []
    beyond = x * (1 + 4 * RELATIVE_TOLERANCE)
    moved["files"][name]["vector"][4] = beyond.hex()
    moved["files"][name]["marks"] += 1
    moved["report"]["vowels.csv"] = moved["report"]["vowels.csv"].replace("\r\n", "\n", 2)
    assert mismatches(computed, moved) == [
        f"{name}: marks: expected {computed['files'][name]['marks']}, got {moved['files'][name]['marks']}",
        f"{name}: vector[4]: expected {x!r}, got {beyond!r}",
        f"report vowels.csv: line 1: expected {computed['report']['vowels.csv'].splitlines(True)[0]!r}, "
        f"got {moved['report']['vowels.csv'].splitlines(True)[0]!r}",
    ]
