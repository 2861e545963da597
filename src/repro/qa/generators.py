"""Composable random generators for fuzz cases.

Two layers:

* **Family builders** — deterministic program constructors keyed by a
  family name and a dict of small integers, chosen so the interesting
  branch behaviours of the paper each have a dedicated stressor:
  ``loops`` (deep counted-loop nests: taken back-edges, GHR
  periodicity), ``correlated`` (branch pairs whose outcomes are
  functions of each other: global history pays off), ``towers``
  (call/return chains deeper than the RAS: overflow wraparound),
  ``near`` (short forward branches targeting the same or the next fetch
  block: near-block selection and target-array pressure) and
  ``synthetic`` (the general mixed generator of
  :mod:`repro.trace.synthetic`).

* **Samplers** — seeded :class:`random.Random` functions that draw a
  family, its parameters, a cache geometry and an engine configuration,
  yielding a replayable :class:`~repro.qa.cases.QACase`.  All sampling
  is explicit-RNG only; nothing reads ambient randomness.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..icache.geometry import GEOMETRY_KINDS
from ..isa.builder import ProgramBuilder
from ..isa.program import Program
from ..trace.synthetic import SyntheticSpec, synthetic_program
from .cases import ENGINE_KINDS, CaseError, QACase

# ----------------------------------------------------------------------
# Family builders
# ----------------------------------------------------------------------


def _family_loops(params: Mapping[str, int]) -> Program:
    """Nested counted loops with co-prime trip counts.

    Pure loop nests are the branch population the blocked PHT is built
    for: almost every conditional is a taken back-edge, and the GHR sees
    long periodic patterns whose period exceeds most history lengths.
    """
    depth = max(1, int(params.get("depth", 2)))
    trips = max(2, int(params.get("trips", 5)))
    body_ops = max(0, int(params.get("body_ops", 2)))
    rounds = max(1, int(params.get("rounds", 3)))

    b = ProgramBuilder(name="qa-loops", data_size=1 << 12)
    with b.function("main"):
        b.asm.li("r4", 0)
        with b.for_range("r3", 0, rounds):
            counters = [f"r{5 + level}" for level in range(depth)]

            def nest(level: int) -> None:
                # Co-prime-ish trip counts desynchronise the levels.
                trip = trips + 2 * level + 1
                with b.for_range(counters[level], 0, trip):
                    for _ in range(body_ops):
                        b.asm.add("r4", "r4", counters[level])
                    if level + 1 < depth:
                        nest(level + 1)

            nest(0)
    return b.build()


def _family_correlated(params: Mapping[str, int]) -> Program:
    """Pairs of conditionals whose second outcome is a function of the
    first.

    The leading branch tests an LCG bit; the trailing branch tests the
    *same* bit (optionally inverted), so a global-history predictor can
    learn the pair while any per-branch-only view cannot.  A stride of
    straight-line filler controls whether the pair lands in one fetch
    block or straddles two.
    """
    pairs = max(1, int(params.get("pairs", 4)))
    iterations = max(2, int(params.get("iterations", 24)))
    invert = int(params.get("invert", 1)) % 2
    stride = max(0, int(params.get("stride", 2)))

    b = ProgramBuilder(name="qa-correlated", data_size=1 << 12)
    with b.function("main"):
        b.asm.li("r20", 9_176_429)
        b.asm.li("r4", 0)
        with b.for_range("r3", 0, iterations):
            for p in range(pairs):
                b.lcg_step("r20")
                b.asm.srli("r21", "r20", (p % 5) + 3)
                b.asm.andi("r21", "r21", 1)
                with b.if_("eq", "r21", "r0"):
                    b.asm.addi("r4", "r4", 1)
                for _ in range(stride):
                    b.asm.add("r4", "r4", "r0")
                second = "ne" if invert else "eq"
                with b.if_(second, "r21", "r0"):
                    b.asm.addi("r4", "r4", 2)
    return b.build()


def _family_towers(params: Mapping[str, int]) -> Program:
    """Call/return towers deeper than a small RAS.

    ``f0`` calls ``f1`` calls ... ``f{depth-1}``; each level optionally
    adds an early data-dependent return.  With ``depth`` above the
    configured RAS size the circular stack wraps and the way back out
    mispredicts — the exact overflow behaviour the paper inherits from
    Kaeli & Emma.
    """
    depth = max(1, int(params.get("depth", 6)))
    rounds = max(1, int(params.get("rounds", 8)))
    early = int(params.get("early", 0)) % 2

    b = ProgramBuilder(name="qa-towers", data_size=1 << 13)
    for level in range(depth - 1, -1, -1):
        with b.function(f"level_{level}"):
            b.asm.addi("r4", "r4", 1)
            if early:
                b.asm.andi("r21", "r4", 3)
                with b.if_("eq", "r21", "r0"):
                    b.return_()
            if level + 1 < depth:
                b.call(f"level_{level + 1}")
            b.asm.addi("r4", "r4", 1)
    with b.function("main"):
        b.asm.li("r4", 0)
        with b.for_range("r3", 0, rounds):
            b.call("level_0")
    return b.build()


def _family_near(params: Mapping[str, int]) -> Program:
    """Short forward branches whose targets sit near the block boundary.

    Bodies of ``span`` straight-line instructions make the if-skip
    targets land inside the same fetch block, just past it, or across a
    line boundary depending on alignment — the corner the near-block
    adder (``EngineConfig.near_block``) and target arrays disagree on
    most easily.
    """
    branches = max(1, int(params.get("branches", 6)))
    span = max(1, int(params.get("span", 3)))
    iterations = max(2, int(params.get("iterations", 20)))

    b = ProgramBuilder(name="qa-near", data_size=1 << 12)
    with b.function("main"):
        b.asm.li("r20", 123_457)
        b.asm.li("r4", 0)
        with b.for_range("r3", 0, iterations):
            b.lcg_step("r20")
            for i in range(branches):
                b.asm.srli("r21", "r20", i % 7)
                b.asm.andi("r21", "r21", 1)
                with b.if_("eq", "r21", "r0"):
                    # Vary the skip distance so consecutive branches
                    # target different offsets within/after the block.
                    for _ in range(1 + (i * span) % (2 * span)):
                        b.asm.addi("r4", "r4", 1)
    return b.build()


def _family_synthetic(params: Mapping[str, int]) -> Program:
    """The general mixed generator, parameterised by plain integers."""
    spec = SyntheticSpec(
        seed=int(params.get("seed", 0)),
        n_functions=max(0, int(params.get("n_functions", 2))),
        loop_depth=max(1, int(params.get("loop_depth", 2))),
        irregularity=(int(params.get("irregularity_pct", 50)) % 101) / 100.0,
        body_ops=max(1, int(params.get("body_ops", 3))),
        iterations=max(2, int(params.get("iterations", 8))),
    )
    return synthetic_program(spec)


#: Family name -> deterministic program builder.
FAMILIES: Dict[str, Callable[[Mapping[str, int]], Program]] = {
    "loops": _family_loops,
    "correlated": _family_correlated,
    "towers": _family_towers,
    "near": _family_near,
    "synthetic": _family_synthetic,
}


def build_family_program(family: str, params: Mapping[str, int]) -> Program:
    """Build the program for ``family`` (KeyError-safe: CaseError)."""
    try:
        builder = FAMILIES[family]
    except KeyError:
        raise CaseError(f"unknown workload family: {family!r}") from None
    return builder(params)


# ----------------------------------------------------------------------
# Random samplers
# ----------------------------------------------------------------------

def sample_family(rng: random.Random) -> Tuple[str, Dict[str, int]]:
    """Draw a family name and a parameter dict for it."""
    family = rng.choice(sorted(FAMILIES))
    params: Dict[str, int]
    if family == "loops":
        params = {"depth": rng.randint(1, 3),
                  "trips": rng.randint(2, 9),
                  "body_ops": rng.randint(0, 5),
                  "rounds": rng.randint(1, 4)}
    elif family == "correlated":
        params = {"pairs": rng.randint(1, 6),
                  "iterations": rng.randint(4, 40),
                  "invert": rng.randint(0, 1),
                  "stride": rng.randint(0, 6)}
    elif family == "towers":
        params = {"depth": rng.randint(1, 40),
                  "rounds": rng.randint(2, 16),
                  "early": rng.randint(0, 1)}
    elif family == "near":
        params = {"branches": rng.randint(1, 10),
                  "span": rng.randint(1, 6),
                  "iterations": rng.randint(4, 32)}
    else:
        params = {"seed": rng.randint(0, 100_000),
                  "n_functions": rng.randint(0, 3),
                  "loop_depth": rng.randint(1, 3),
                  "irregularity_pct": rng.randint(0, 100),
                  "body_ops": rng.randint(1, 7),
                  "iterations": rng.randint(2, 10)}
    return family, params


def sample_geometry(rng: random.Random) -> Tuple[str, int]:
    """Draw a (geometry kind, block width) pair."""
    kind = rng.choice(GEOMETRY_KINDS)
    width = rng.choice((2, 4, 8, 16))
    return kind, width


def sample_config(rng: random.Random, engine: str) -> Dict[str, Any]:
    """Draw :class:`EngineConfig` overrides legal for ``engine``.

    The constraints mirror the engines' constructors: ``dual``/``multi``
    refuse a separate BIT table, ``multi``/``two_ahead`` model NLS
    target arrays only, and double selection only means something to the
    dual and multi engines.
    """
    overrides: Dict[str, Any] = {
        "history_length": rng.choice((2, 4, 6, 8, 10, 12)),
        "n_pht_tables": rng.choice((1, 2, 4)),
        "n_select_tables": rng.choice((1, 2, 4, 8)),
        "target_entries": rng.choice((16, 64, 256)),
        "near_block": rng.random() < 0.3,
        "ras_size": rng.choice((1, 2, 4, 8, 32)),
        "track_not_taken_targets": rng.random() < 0.8,
    }
    if engine in ("single", "dual") and rng.random() < 0.3:
        overrides["target_kind"] = "btb"
        ways = rng.choice((1, 2, 4, 8))
        overrides["btb_associativity"] = ways
        if rng.random() < 0.25:
            overrides["target_entries"] = ways  # one fully associative set
    if engine == "single" and rng.random() < 0.3:
        overrides["bit_entries"] = rng.choice((2, 4, 8, 32))
    if engine in ("dual", "multi") and rng.random() < 0.4:
        overrides["selection"] = "double"
    return overrides


def sample_case(rng: random.Random, engine: str) -> QACase:
    """Draw one complete, engine-legal case."""
    family, params = sample_family(rng)
    kind, width = sample_geometry(rng)
    case = QACase(
        engine=engine,
        geometry_kind=kind,
        block_width=width,
        family=family,
        params=params,
        budget=rng.choice((600, 1500, 4000, 10_000)),
        repeats=rng.choice((1, 1, 1, 2, 3)),
        config=sample_config(rng, engine),
        n_blocks=rng.randint(1, 4) if engine == "multi" else 2,
        serialization_penalty=(rng.randint(0, 2)
                               if engine == "two_ahead" else 0),
    )
    return case


def case_stream(seed: int, engines: Tuple[str, ...] = ENGINE_KINDS,
                start: int = 0) -> "CaseStream":
    """Deterministic case iterator cycling through ``engines``."""
    return CaseStream(seed, engines, start)


class CaseStream:
    """Indexable deterministic case source.

    ``case(i)`` depends only on ``(seed, i)`` — not on how many cases
    were drawn before — so a campaign log line like ``case 17`` is
    enough to regenerate the exact input.
    """

    def __init__(self, seed: int, engines: Tuple[str, ...],
                 start: int = 0) -> None:
        if not engines:
            raise CaseError("case stream needs at least one engine kind")
        for engine in engines:
            if engine not in ENGINE_KINDS:
                raise CaseError(f"unknown engine kind: {engine!r}")
        self.seed = seed
        self.engines = engines
        self.index = start

    def case(self, index: int) -> QACase:
        """The ``index``-th case of this stream."""
        rng = random.Random(self.seed * 1_000_003 + index)
        engine = self.engines[index % len(self.engines)]
        return sample_case(rng, engine)

    def next(self) -> Tuple[int, QACase]:
        """Draw the next (index, case) pair."""
        index = self.index
        self.index += 1
        return index, self.case(index)


# ----------------------------------------------------------------------
# Small-structure operation streams (property-test satellites)
# ----------------------------------------------------------------------

def counter_op_stream(rng: random.Random, n: int) -> List[bool]:
    """Random taken/not-taken training stream for saturating counters."""
    return [rng.random() < 0.5 for _ in range(n)]


def ras_op_stream(rng: random.Random, n: int,
                  push_bias: float = 0.55) -> List[Tuple[str, int]]:
    """Random push/pop/peek stream for the return-address stack.

    Push-biased by default so deep stacks (and overflow wraparound on
    small sizes) actually occur.
    """
    ops: List[Tuple[str, int]] = []
    for i in range(n):
        roll = rng.random()
        if roll < push_bias:
            ops.append(("push", rng.randint(0, 1 << 20)))
        elif roll < push_bias + 0.3:
            ops.append(("pop", 0))
        else:
            ops.append(("peek", rng.randint(0, 4)))
    return ops
