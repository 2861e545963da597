"""Direction evaluators: loops learn, blocked ~ scalar accuracy (Fig 6)."""

from repro.cpu import Machine
from repro.icache.geometry import CacheGeometry
from repro.isa import Assembler, ProgramBuilder
from repro.predictors import (
    BACCost,
    BlockedPHT,
    ScalarPHT,
    blocked_pht_lookups,
    evaluate_bac_direction,
    evaluate_blocked_direction,
    evaluate_scalar_direction,
)
from repro.trace import SyntheticSpec, segment_blocks, synthetic_program


def loop_trace(iterations=200):
    asm = Assembler()
    asm.li("r3", 0)
    asm.li("r4", iterations)
    asm.label("top")
    asm.addi("r3", "r3", 1)
    asm.blt("r3", "r4", "top")
    asm.halt()
    return Machine(asm.assemble()).run().trace


def alternating_trace(iterations=400):
    """Branch taken on even iterations only — needs history to predict."""
    asm = Assembler()
    asm.li("r3", 0)
    asm.li("r4", iterations)
    asm.label("top")
    asm.andi("r5", "r3", 1)
    asm.beq("r5", "r0", "skip")
    asm.nop()
    asm.label("skip")
    asm.addi("r3", "r3", 1)
    asm.blt("r3", "r4", "top")
    asm.halt()
    return Machine(asm.assemble()).run().trace


class TestScalarEvaluator:
    def test_simple_loop_is_nearly_perfect(self):
        result = evaluate_scalar_direction(loop_trace(), ScalarPHT())
        assert result.n_cond == 200
        assert result.mispredicts <= 3  # warmup plus final fall-through

    def test_alternating_pattern_learned_via_history(self):
        result = evaluate_scalar_direction(alternating_trace(), ScalarPHT())
        assert result.misprediction_rate < 0.05

    def test_rate_bounds(self):
        result = evaluate_scalar_direction(loop_trace(50), ScalarPHT())
        assert 0.0 <= result.misprediction_rate <= 1.0
        assert result.accuracy == 1.0 - result.misprediction_rate


class TestBlockedEvaluator:
    def _blocked(self, trace, history=10):
        blocks = segment_blocks(trace, CacheGeometry.normal(8))
        return evaluate_blocked_direction(
            blocks, BlockedPHT(history_length=history))

    def test_simple_loop_is_nearly_perfect(self):
        result = self._blocked(loop_trace())
        assert result.n_cond == 200
        assert result.mispredicts <= 3

    def test_alternating_pattern_learned(self):
        result = self._blocked(alternating_trace())
        assert result.misprediction_rate < 0.05

    def test_counts_every_executed_cond(self):
        trace = loop_trace(77)
        result = self._blocked(trace)
        assert result.n_cond == trace.n_cond


class TestBlockedVsScalar:
    def test_accuracy_within_tolerance_on_synthetic_mix(self):
        """The paper's headline: blocked ~ scalar accuracy at equal size."""
        total_scalar = total_blocked = 0
        conds = 0
        for seed in range(4):
            trace = Machine(synthetic_program(
                SyntheticSpec(seed=seed, irregularity=0.7, iterations=20)
            )).run(max_instructions=60_000).trace
            s = evaluate_scalar_direction(
                trace, ScalarPHT(history_length=10, n_tables=8))
            blocks = segment_blocks(trace, CacheGeometry.normal(8))
            p = evaluate_blocked_direction(
                blocks, BlockedPHT(history_length=10, block_width=8))
            assert s.n_cond == p.n_cond
            total_scalar += s.mispredicts
            total_blocked += p.mispredicts
            conds += s.n_cond
        rate_scalar = total_scalar / conds
        rate_blocked = total_blocked / conds
        # "The difference in accuracy ... were small" — allow 2 points.
        assert abs(rate_scalar - rate_blocked) < 0.02


class TestBACBaseline:
    def test_cost_grows_exponentially(self):
        costs = [BACCost.for_branches(k).pht_lookups for k in (1, 2, 3, 4)]
        assert costs == [1, 3, 7, 15]
        assert BACCost.for_branches(3).bac_addresses_per_entry == 14

    def test_blocked_lookups_constant(self):
        assert [blocked_pht_lookups(k) for k in (1, 2, 3, 8)] == [1, 1, 1, 1]

    def test_bac_accuracy_equals_scalar(self):
        trace = alternating_trace()
        bac = evaluate_bac_direction(trace, history_length=10, n_tables=8)
        scalar = evaluate_scalar_direction(
            trace, ScalarPHT(history_length=10, n_tables=8))
        assert bac.mispredicts == scalar.mispredicts

    def test_cost_validation(self):
        import pytest
        with pytest.raises(ValueError):
            BACCost.for_branches(0)
        with pytest.raises(ValueError):
            blocked_pht_lookups(0)


def test_import_leaves_the_engines_unloaded():
    """``import repro.predictors.evaluate`` does not pull in ``repro.core``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, repro.predictors.evaluate\n"
            "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "repro.predictors.evaluate" in loaded
    assert "repro.core.fast" not in loaded
    assert "repro.core.dual" not in loaded
