"""The retired PSVERIFY_NUMBA flag is inert, the command line loads no
module it does not need, and generating a corpus loads no scipy module.

psverify once shipped numba-compiled kernels that PSVERIFY_NUMBA=0 (or
false/no/off) switched off. The pipeline now has one numpy path, so an
environment that still sets the flag must get that path with the same
features, and numba is never loaded.
"""

import json
import os
import subprocess
import sys

import pytest

import psverify
from psverify.synth import synth_vowel
from psverify.pipeline import utterance_features_from_file
from psverify.signal_io import write_text_samples

# The flag was read once at import, so only a fresh interpreter can show
# that it no longer matters. The child must import the very copy of
# psverify under test, must not find the old kernel module or load numba
# (nor scipy.signal), and prints its feature vector for the parent to
# compare bit for bit.
CHILD = """
import importlib.util, json, os, sys
import psverify
from psverify.pipeline import utterance_features_from_file
assert os.path.abspath(psverify.__file__) == sys.argv[1], psverify.__file__
assert importlib.util.find_spec("psverify._kernels") is None
features = utterance_features_from_file(sys.argv[2], "a")
assert "numba" not in sys.modules
assert "scipy.signal" not in sys.modules
print(json.dumps([float(v).hex() for v in features.vector]))
"""


@pytest.fixture(scope="module")
def utterance(tmp_path_factory):
    path = tmp_path_factory.mktemp("flag") / "a.txt"
    write_text_samples(synth_vowel(120.0, [(700, 80), (1200, 90)], 0.3, seed=3), path)
    vector = utterance_features_from_file(path, "a").vector
    return path, [float(v).hex() for v in vector]


# scipy.signal would be most of a cold `import psverify.cli`
CLI_CHILD = """
import os, sys
import psverify.cli
assert os.path.abspath(psverify.__file__) == sys.argv[1], psverify.__file__
assert "scipy.signal" not in sys.modules
"""

# the synthetic corpus generator runs its resonators on numpy alone: no
# scipy module at all, so scipy is needed only by the tests and the benchmark
CORPUS_CHILD = """
import os, sys
import psverify
from psverify.evaluation import make_synthetic_corpus
assert os.path.abspath(psverify.__file__) == sys.argv[1], psverify.__file__
make_synthetic_corpus(sys.argv[2], n_speakers=2, train_per_vowel=1, test_per_vowel=1, seed=5)
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
assert not loaded, loaded
"""


def run_child(source, *args, **env_extra):
    """Run `source` in a fresh interpreter that imports the psverify under
    test; argv[1] is that package's __init__ path. Returns stdout."""
    package_file = os.path.abspath(psverify.__file__)
    package_root = os.path.dirname(os.path.dirname(package_file))
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", source, package_file, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_with_flag(value, utterance):
    path, expected = utterance
    stdout = run_child(CHILD, str(path), PSVERIFY_NUMBA=value)
    assert json.loads(stdout) == expected


def test_cli_import_leaves_scipy_signal_unloaded():
    run_child(CLI_CHILD)


def test_corpus_generation_loads_no_scipy(tmp_path):
    run_child(CORPUS_CHILD, str(tmp_path / "corpus"))
    assert (tmp_path / "corpus" / "manifest.csv").is_file()


def test_env_flag_selects_numpy_path(utterance):
    run_with_flag("0", utterance)


OFF_FLAGS = list(dict.fromkeys(
    form
    for base in ("0", "false", "no", "off")
    for form in (base, base.upper(), f"  {base} ", f"\t{base.upper()}\n")
))


@pytest.mark.parametrize("value", OFF_FLAGS)
def test_env_flag_off_values_disable_numba(value, utterance):
    run_with_flag(value, utterance)
