"""The vectorized direction path is bit-exact with the reference loops.

Figure 6's sweep builds each configuration's PHT slot stream with
elementwise arithmetic and resolves every counter with the fetch
engines' write scan (:func:`repro.core.kernels.scan_writes`).  These
tests lock the stream helpers and that scan against the sequential
evaluators: misprediction counts and final counter tables.
"""

import numpy as np
import pytest

from repro.core.kernels import _grouping_order, packed_history, scan_writes
from repro.icache import CacheGeometry
from repro.predictors import (
    COUNTER_INIT,
    BlockedPHT,
    DirectionResult,
    ScalarPHT,
    direction_accuracy_sweep,
    evaluate_blocked_direction,
    evaluate_scalar_direction,
)
from repro.predictors.evaluate import (
    _block_sampling,
    _blocked_slots_from,
    _cond_streams,
    _scalar_slots,
)
from repro.workloads import load_fetch_input

BUDGET = 8_000
GEOMETRY = CacheGeometry.normal(8)
#: A mix of irregular (int) and loop-heavy (fp) control flow.
WORKLOADS = ("compress", "go", "swim", "fpppp")
HISTORIES = (4, 8, 12)


@pytest.fixture(scope="module", params=WORKLOADS)
def fetch_input(request):
    return load_fetch_input(request.param, GEOMETRY, BUDGET)


class TestPackedHistory:
    def test_matches_manual_shift_register(self):
        outcomes = np.array([1, 0, 1, 1, 0, 1], dtype=np.int64)
        h = 3
        values = packed_history(outcomes, h)
        ghr = 0
        assert values[0] == 0
        for t, bit in enumerate(outcomes):
            ghr = ((ghr << 1) | int(bit)) & ((1 << h) - 1)
            assert values[t + 1] == ghr

    def test_length_is_n_plus_one(self):
        assert len(packed_history(np.array([1, 0]), 5)) == 3


class TestGroupingOrder:
    def test_matches_stable_argsort(self):
        rng = np.random.default_rng(7)
        # Big enough to take the radix path, with heavy duplication.
        slots = rng.integers(0, 5_000, size=40_000).astype(np.int64)
        np.testing.assert_array_equal(
            _grouping_order(slots), np.argsort(slots, kind="stable"))

    def test_small_input_falls_back(self):
        slots = np.array([3, 1, 2, 1], dtype=np.int64)
        np.testing.assert_array_equal(
            _grouping_order(slots), np.argsort(slots, kind="stable"))


def _replay(slots, taken, counters):
    """Scan a write stream from ``counters`` (a predictor's backing
    list), write the final states back and return the mispredicts."""
    scan = scan_writes(np.asarray(counters, dtype=np.int64),
                       np.asarray(slots, dtype=np.int64),
                       np.asarray(taken, dtype=bool))
    last = np.append(scan.seg_start, True)[1:]
    for slot, state in zip(scan.slot[last].tolist(),
                           scan.after[last].tolist()):
        counters[slot] = state
    return int(np.count_nonzero((scan.before >= 2) != scan.taken))


class TestCounterStream:
    def _reference(self, slots, taken):
        from repro.predictors.counters import (counter_predicts_taken,
                                               counter_update)

        counters = {}
        wrong = 0
        for slot, outcome in zip(slots, taken):
            state = counters.get(slot, COUNTER_INIT)
            if counter_predicts_taken(state) != outcome:
                wrong += 1
            counters[slot] = counter_update(state, outcome)
        return wrong, counters

    def test_matches_sequential_updates(self):
        rng = np.random.default_rng(3)
        slots = rng.integers(0, 40, size=2_000)
        taken = rng.random(2_000) < 0.7
        counters = [COUNTER_INIT] * 40
        wrong = _replay(slots, taken, counters)
        ref_wrong, ref_finals = self._reference(slots.tolist(),
                                                taken.tolist())
        assert wrong == ref_wrong
        assert {slot: counters[slot] for slot in ref_finals} == ref_finals

    def test_writes_back_into_counters(self):
        # Warm slots: 0 climbs from 0, 2 falls from 3; 1 is untouched.
        slots = np.array([0, 0, 2, 2])
        taken = np.array([True, True, False, False])
        counters = [0, 2, 3]
        _replay(slots, taken, counters)
        assert counters == [2, 2, 1]

    def test_empty_stream(self):
        counters = [1, 3]
        wrong = _replay(np.array([], dtype=int), np.array([], dtype=bool),
                        counters)
        assert (wrong, counters) == (0, [1, 3])


class TestEvaluatorEquivalence:
    @pytest.mark.parametrize("h", HISTORIES)
    def test_scalar_bit_exact(self, fetch_input, h):
        ref_pht = ScalarPHT(history_length=h, n_tables=8)
        ref = evaluate_scalar_direction(fetch_input.trace, ref_pht)
        pcs, outcomes = _cond_streams(fetch_input.trace)
        vec_pht = ScalarPHT(history_length=h, n_tables=8)
        # GHR before conditional t = first t outcomes shifted in.
        slots = _scalar_slots(pcs, packed_history(outcomes, h)[:-1],
                              vec_pht)
        wrong = _replay(slots, outcomes, vec_pht._counters)
        assert DirectionResult(n_cond=len(pcs), mispredicts=wrong) == ref
        assert vec_pht._counters == ref_pht._counters

    @pytest.mark.parametrize("h", HISTORIES)
    def test_blocked_bit_exact(self, fetch_input, h):
        ref_pht = BlockedPHT(history_length=h, block_width=8)
        ref = evaluate_blocked_direction(fetch_input.blocks, ref_pht)
        pcs, outcomes = _cond_streams(fetch_input.trace)
        vec_pht = BlockedPHT(history_length=h, block_width=8)
        lines, shifts = _block_sampling(fetch_input.blocks)
        slots = _blocked_slots_from(vec_pht, pcs,
                                    packed_history(outcomes, h), lines,
                                    shifts)
        wrong = _replay(slots, outcomes, vec_pht._counters)
        assert DirectionResult(n_cond=len(pcs), mispredicts=wrong) == ref
        assert vec_pht._counters == ref_pht._counters

    def test_batched_sweep_matches_reference(self, fetch_input):
        sweep = direction_accuracy_sweep(fetch_input.trace,
                                         fetch_input.blocks, HISTORIES)
        for h in HISTORIES:
            blocked, scalar = sweep[h]
            assert blocked == evaluate_blocked_direction(
                fetch_input.blocks,
                BlockedPHT(history_length=h, block_width=8))
            assert scalar == evaluate_scalar_direction(
                fetch_input.trace,
                ScalarPHT(history_length=h, n_tables=8))

    def test_sweep_handles_empty_history_list(self, fetch_input):
        assert direction_accuracy_sweep(fetch_input.trace,
                                        fetch_input.blocks, ()) == {}
