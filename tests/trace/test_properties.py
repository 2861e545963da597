"""Property-based tests over traces and block segmentation.

Random (but valid) programs are generated via the synthetic generator and
executed; the resulting traces must satisfy structural invariants under
every cache geometry.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cpu import Machine
from repro.icache.geometry import CacheGeometry
from repro.isa import InstrKind
from repro.trace import (
    EXIT_FALLTHROUGH,
    SyntheticSpec,
    segment_blocks,
    synthetic_program,
    trace_stats,
)

from .test_blocks import assert_matches_reference

K_HALT = int(InstrKind.HALT)

specs = st.builds(
    SyntheticSpec,
    seed=st.integers(0, 10_000),
    n_functions=st.integers(0, 4),
    loop_depth=st.integers(1, 3),
    irregularity=st.floats(0.0, 1.0),
    body_ops=st.integers(1, 8),
    iterations=st.integers(2, 16),
)

geometries = st.sampled_from([
    CacheGeometry.normal(8),
    CacheGeometry.normal(4),
    CacheGeometry.extended(8),
    CacheGeometry.self_aligned(8),
    CacheGeometry(kind="extended", block_width=4, line_size=8, n_banks=8),
])


def run_spec(spec, budget=40_000):
    return Machine(synthetic_program(spec)).run(max_instructions=budget).trace


@settings(max_examples=25, deadline=None)
@given(spec=specs)
def test_trace_is_well_formed(spec):
    trace = run_spec(spec)
    assert int(trace.kind[-1]) == K_HALT
    # Records strictly follow execution order within sequential runs:
    # each record's pc is reachable from the previous target/fall-through.
    prev_next = trace.entry_pc
    for pc, kind, taken, target in trace.records():
        assert pc >= prev_next, "records must not precede the fetch point"
        prev_next = target if taken else pc + 1
    # Instruction count equals the sum of sequential run lengths.
    total = 0
    prev_next = trace.entry_pc
    for pc, kind, taken, target in trace.records():
        total += pc - prev_next + 1
        prev_next = target if taken else pc + 1
    assert total == trace.n_instructions


@settings(max_examples=25, deadline=None)
@given(spec=specs, geo=geometries)
def test_segmentation_invariants(spec, geo):
    trace = run_spec(spec)
    bs = segment_blocks(trace, geo)
    # Bit-identical to the reference loop, arrays and dtypes.
    assert_matches_reference(trace, geo)
    # Conservation: blocks cover every executed instruction exactly once.
    assert bs.instructions == trace.n_instructions
    # Geometry: no block exceeds its limit.
    for i in range(bs.n_blocks):
        start = int(bs.start[i])
        n = int(bs.n_instr[i])
        assert 1 <= n <= geo.block_limit(start)
    # Record windows partition the record array.
    assert bs.first_rec[0] == 0
    ends = bs.first_rec + bs.n_recs
    assert list(ends[:-1]) == list(bs.first_rec[1:])
    assert ends[-1] == trace.n_records
    # Chain property: each block's exit target is the next block's start.
    for i in range(bs.n_blocks - 1):
        assert bs.exit_target[i] == bs.start[i + 1]
    # Fall-through blocks fill the geometry limit exactly.
    for i in range(bs.n_blocks):
        if bs.exit_kind[i] == EXIT_FALLTHROUGH:
            assert bs.n_instr[i] == geo.block_limit(int(bs.start[i]))
    # The last block ends in HALT.
    assert bs.exit_kind[-1] == K_HALT


@settings(max_examples=15, deadline=None)
@given(spec=specs)
def test_stats_are_consistent(spec):
    trace = run_spec(spec)
    stats = trace_stats(trace)
    assert stats.n_instructions == trace.n_instructions
    assert stats.n_branches == trace.n_branches
    assert 0.0 <= stats.cond_taken_rate <= 1.0
    assert 0.0 <= stats.branch_density <= 1.0
    assert sum(stats.kind_counts.values()) == trace.n_records


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_synthetic_is_deterministic(seed):
    spec = SyntheticSpec(seed=seed)
    t1 = run_spec(spec, budget=5_000)
    t2 = run_spec(spec, budget=5_000)
    np.testing.assert_array_equal(t1.pc, t2.pc)
    np.testing.assert_array_equal(t1.taken, t2.taken)
    assert t1.n_instructions == t2.n_instructions
