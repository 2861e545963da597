"""Differential oracle backend axis: corpus replay per kernel backend.

Every committed corpus artifact replays with the fast tier pinned to
each backend available in this interpreter; the verdict demands
bit-exact stats and full predictor state against the scalar reference
for every one of them.  This is the regression net the compiled tier
hangs from.
"""

import pytest

from repro.core.backends import BACKEND_ENV, available_backends
from repro.qa.corpus import DEFAULT_CORPUS, iter_corpus
from repro.qa.oracle import backend_mode_env, check_case, run_mode

CORPUS = list(iter_corpus(DEFAULT_CORPUS))


def test_corpus_exists():
    assert CORPUS, "committed qa corpus is empty"


@pytest.mark.parametrize(
    "path,case,reason", CORPUS,
    ids=[p.name for p, _, _ in CORPUS])
def test_corpus_replays_clean_on_every_backend(path, case, reason):
    verdict = check_case(case, backends=[])
    assert verdict.passed, f"{path.name}: {verdict.reason}"
    assert set(verdict.backends) == set(available_backends())


def test_backend_axis_records_pinned_runs():
    _, case, _ = CORPUS[0]
    verdict = check_case(case, backends=["numpy"])
    assert list(verdict.backends) == ["numpy"]
    assert verdict.backends["numpy"].backend == "numpy"
    assert verdict.backends["numpy"].label() == "fast/numpy"


def test_classic_two_run_check_unchanged():
    _, case, _ = CORPUS[0]
    verdict = check_case(case)
    assert verdict.passed, verdict.reason
    assert verdict.backends == {}


def test_backend_env_is_restored(monkeypatch):
    import os
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    with backend_mode_env("compiled"):
        assert os.environ[BACKEND_ENV] == "compiled"
    assert BACKEND_ENV not in os.environ
    monkeypatch.setenv(BACKEND_ENV, "numpy")
    with backend_mode_env("compiled"):
        assert os.environ[BACKEND_ENV] == "compiled"
    assert os.environ[BACKEND_ENV] == "numpy"


def test_run_mode_pins_backend_for_the_run():
    _, case, _ = CORPUS[0]
    pinned = run_mode(case, "fast", backend="compiled")
    assert pinned.backend == "compiled"
    assert not pinned.crashed, pinned.error
