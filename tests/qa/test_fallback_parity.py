"""Parity for the fast engine's documented scalar fallbacks.

``track_recovery`` (single engine) and ``record_timeline`` (dual and
multi engines) route ``REPRO_ENGINE=fast`` through the scalar reference loop
by design.  That fallback must still be *byte-identical* to a genuine
scalar run — stats, timeline, recovery log, and full predictor state —
across randomized configurations, not just the fixed parity matrix.
"""

from dataclasses import replace

import random

import pytest

from repro.qa.generators import sample_case
from repro.qa.oracle import check_case


def _cases(qa_seed, engine, n, **flags):
    rng = random.Random(f"fallback:{qa_seed}:{engine}")
    cases = []
    while len(cases) < n:
        case = sample_case(rng, engine)
        case = replace(case, budget=min(case.budget, 1500), repeats=1,
                       **flags)
        cases.append(case)
    return cases


@pytest.mark.parametrize("index", range(4))
def test_track_recovery_fallback_parity(index, qa_seed):
    case = _cases(qa_seed, "single", 4, track_recovery=True)[index]
    verdict = check_case(case)
    assert verdict.passed, verdict.summary()
    # The fallback really ran the tracking path on both sides.
    assert verdict.scalar.recovery_log == verdict.fast.recovery_log


def _assert_timeline_parity(case):
    verdict = check_case(case)
    assert verdict.passed, verdict.summary()
    scalar = verdict.scalar.stats[0]
    fast = verdict.fast.stats[0]
    assert scalar.timeline is not None
    assert fast.timeline == scalar.timeline


@pytest.mark.parametrize("index", range(4))
def test_record_timeline_fallback_parity(index, qa_seed):
    _assert_timeline_parity(
        _cases(qa_seed, "dual", 4, record_timeline=True)[index])


@pytest.mark.parametrize("index", range(2))
def test_multi_record_timeline_fallback_parity(index, qa_seed):
    _assert_timeline_parity(
        _cases(qa_seed, "multi", 2, record_timeline=True)[index])


def test_recovery_log_is_populated(qa_seed):
    """At least one sampled workload must actually produce BBR entries,
    or the parity assertions above would be vacuous."""
    populated = 0
    for case in _cases(qa_seed, "single", 4, track_recovery=True):
        verdict = check_case(case)
        assert verdict.passed, verdict.summary()
        if verdict.scalar.recovery_log:
            populated += 1
    assert populated > 0
