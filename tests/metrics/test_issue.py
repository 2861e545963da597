"""Issue-buffer model and fetch-timeline recording."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DualBlockEngine, EngineConfig, MultiBlockEngine
from repro.icache import CacheGeometry
from repro.metrics import simulate_issue
from repro.workloads import load_fetch_input

GEO = CacheGeometry.self_aligned(8)


class TestSimulateIssue:
    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_issue([1], issue_width=0)
        with pytest.raises(ValueError):
            simulate_issue([1], buffer_capacity=0)

    def test_steady_feed_saturates_issue(self):
        result = simulate_issue([16] * 100, issue_width=8,
                                buffer_capacity=32)
        assert result.issue_ipc == pytest.approx(8.0, rel=0.05)

    def test_all_instructions_eventually_issue(self):
        timeline = [5, 0, 12, 3, 0, 0, 16]
        result = simulate_issue(timeline, issue_width=4)
        assert result.instructions == sum(timeline)

    def test_starvation_counted(self):
        result = simulate_issue([8, 0, 0, 0, 8], issue_width=8)
        assert result.starved_cycles >= 3

    def test_wider_issue_never_slower(self):
        timeline = [7, 0, 13, 2, 9, 0, 16, 1] * 20
        narrow = simulate_issue(timeline, issue_width=4)
        wide = simulate_issue(timeline, issue_width=8)
        assert wide.cycles <= narrow.cycles

    def test_small_buffer_throttles_fetch(self):
        result = simulate_issue([16] * 50, issue_width=4,
                                buffer_capacity=8)
        assert result.full_cycles > 0
        assert result.instructions == 16 * 50


@settings(max_examples=30, deadline=None)
@given(timeline=st.lists(st.integers(0, 16), max_size=60),
       width=st.integers(1, 16), capacity=st.integers(1, 64))
def test_issue_conservation(timeline, width, capacity):
    result = simulate_issue(timeline, issue_width=width,
                            buffer_capacity=capacity)
    assert result.instructions == sum(timeline)
    assert result.issue_ipc <= width
    assert result.cycles >= len(timeline) or sum(timeline) == 0


class TestTimelineRecording:
    @pytest.fixture(scope="class")
    def recorded(self):
        fi = load_fetch_input("swim", GEO, 40_000)
        stats = DualBlockEngine(EngineConfig(
            geometry=GEO, n_select_tables=8)).run(fi, record_timeline=True)
        return stats

    def test_disabled_by_default(self):
        fi = load_fetch_input("swim", GEO, 40_000)
        stats = DualBlockEngine(EngineConfig(geometry=GEO)).run(fi)
        assert stats.timeline is None

    def test_timeline_conserves_instructions(self, recorded):
        assert sum(recorded.timeline) == recorded.n_instructions

    def test_timeline_length_is_fetch_cycles(self, recorded):
        assert len(recorded.timeline) == recorded.fetch_cycles

    def test_deliveries_bounded_by_two_blocks(self, recorded):
        assert max(recorded.timeline) <= 2 * GEO.block_width

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grouped_timeline(self, n):
        """b0 ships alone, then each group of N: the same checks hold
        for every group size."""
        fi = load_fetch_input("swim", GEO, 40_000)
        stats = MultiBlockEngine(EngineConfig(
            geometry=GEO, n_select_tables=8), n).run(
                fi, record_timeline=True)
        assert sum(stats.timeline) == stats.n_instructions
        assert len(stats.timeline) == stats.fetch_cycles
        assert max(stats.timeline) <= n * GEO.block_width

    def test_paper_claim_eight_issue_absorbs_two_blocks(self, recorded):
        """Section 4: with a raw two-block rate above 8, an 8-issue unit
        'will usually receive, and average close to, 8 instructions per
        request'."""
        assert recorded.ipc_f > 8  # raw fetch rate exceeds issue width
        result = simulate_issue(recorded.timeline, issue_width=8,
                                buffer_capacity=32)
        assert result.issue_ipc > 7.2
