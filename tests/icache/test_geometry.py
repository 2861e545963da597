"""Cache geometry validation, and every geometry the program builds."""

import random

import pytest

from repro.experiments.table6 import CACHE_TYPES
from repro.icache.geometry import (EXTENDED, NORMAL, SELF_ALIGNED,
                                   CacheGeometry)
from repro.qa import generators
from repro.qa.cases import QACase
from repro.serve.requests import GEOMETRY_KINDS, ServeRequest
from repro.serve.traffic import build_universe


@pytest.mark.parametrize("kind", [NORMAL, EXTENDED, SELF_ALIGNED])
def test_line_narrower_than_a_block_is_rejected(kind):
    with pytest.raises(ValueError, match=f"{kind} cache needs line_size"):
        CacheGeometry(kind, 16, 8, 16)


@pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 127])
def test_the_paper_constructors_build(width):
    for make in (CacheGeometry.normal, CacheGeometry.extended,
                 CacheGeometry.self_aligned):
        geometry = make(width)
        assert geometry.line_size >= geometry.block_width == width


def test_runner_request_and_case_geometries_build():
    """The runners build the paper constructors at width 8; the service
    and the qa oracle build theirs from a kind and a width."""
    for _, make in CACHE_TYPES:
        assert make(8).block_width == 8
    for kind in GEOMETRY_KINDS:
        for width in (2, 4, 8, 16):
            request = ServeRequest(workload="", geometry_kind=kind,
                                   block_width=width)
            assert request.geometry().block_width == width
    for request in build_universe(1, 24, budget=1_000):
        request.geometry()
    rng = random.Random(7)
    for _ in range(50):
        kind, width = generators.sample_geometry(rng)
        case = QACase(engine="dual", geometry_kind=kind, block_width=width)
        assert case.geometry().block_width == width
