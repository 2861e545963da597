"""The seed alone decides a workload's inputs."""

from pathlib import Path

import scenarios
from scenarios import SIZES, STRATA


def make(name, seed, units=1):
    return scenarios.WORKLOAD_CLASSES[name](seed, units, SIZES["full"],
                                            Path("unused"))


def sweep_plan(seed, units=1):
    return [c.canonical_json() for c in make("sweep-warm", seed,
                                             units).configs]


def test_sweep_configurations_repeat_per_seed():
    assert sweep_plan(5) == sweep_plan(5)
    assert sweep_plan(5) != sweep_plan(6)


def test_sweep_draws_one_configuration_per_stratum():
    configs = make("sweep-warm", 9, units=2).configs
    assert len(configs) == 2 * len(STRATA)
    for unit in (configs[:len(STRATA)], configs[len(STRATA):]):
        assert sum(c.config["near_block"] for c in unit) == len(STRATA) // 2
        assert sorted(c.n_blocks for c in unit if c.engine == "multi") \
            == [3, 4]
        kinds = [c.geometry_kind for c in unit]
        assert max(map(kinds.count, set(kinds))) \
            - min(map(kinds.count, set(kinds))) <= 1
    for config, (engine, target, selection) in zip(configs, STRATA * 2):
        assert config.engine == engine
        assert config.config["target_kind"] == target
        assert 6 <= config.config["history_length"] <= 12
        if engine != "single":
            assert config.config["selection"] == selection
            assert 1 <= config.config["n_select_tables"] <= 8
        config.build_engine()  # every drawn configuration is accepted


def test_capture_order_and_configuration_repeat_per_seed():
    first, again, other = (make("capture-cold", s) for s in (4, 4, 8))
    assert first.order == again.order
    assert sorted(first.order) == sorted(other.order)
    assert len(set(first.order)) == 18
    assert first.template == again.template
    assert (first.order, first.template) != (other.order, other.template)
    assert first.template.engine == "dual"
    assert first.template.geometry_kind == "align"


def test_serve_universe_and_stream_repeat_per_seed():
    first, again, other = (make("serve-zipf", s) for s in (3, 3, 4))
    assert first.universe == again.universe
    assert (first.stream == again.stream).all()
    assert first.universe != other.universe
    assert len(first.stream) == SIZES["full"].serve_requests
    assert len({r.digest() for r in first.universe}) == len(first.universe)
