"""Differential oracle on the fast tier's one residual backend.

Every committed corpus artifact replays through :func:`check_case`: the
scalar reference and the fast tier run on fresh engines, and the
verdict demands bit-exact stats and full predictor state.  With one
residual per engine there is no backend axis left; the two-run check
is the whole contract.
"""

import pytest

from repro.qa.corpus import DEFAULT_CORPUS, iter_corpus
from repro.qa.oracle import check_case

CORPUS = list(iter_corpus(DEFAULT_CORPUS))


def test_corpus_exists():
    assert CORPUS, "committed qa corpus is empty"


@pytest.mark.parametrize(
    "path,case,reason", CORPUS,
    ids=[p.name for p, _, _ in CORPUS])
def test_corpus_replays_clean_on_every_backend(path, case, reason):
    verdict = check_case(case)
    assert verdict.passed, f"{path.name}: {verdict.reason}"
    assert verdict.fast.stats == verdict.scalar.stats
    assert verdict.fast.state == verdict.scalar.state


def test_classic_two_run_check_unchanged():
    _, case, _ = CORPUS[0]
    verdict = check_case(case)
    assert verdict.passed, verdict.reason
    assert (verdict.scalar.mode, verdict.fast.mode) == ("scalar", "fast")
    assert len(verdict.scalar.stats) == case.repeats
    assert len(verdict.fast.stats) == case.repeats
