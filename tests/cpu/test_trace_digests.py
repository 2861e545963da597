"""Pinned trace digests: every registered program, both tracers.

The parity suite compares the two tracers with each other, so it cannot
see a change both make: they share the interpreter loop, the record
format and the trace assembly.  These sha256 digests of
:meth:`~repro.trace.record.Trace.arrays` pin the captured traces
themselves, so cached traces keyed by
:data:`~repro.trace.record.CAPTURE_VERSION` stay valid.  The small
budget runs only the interpreter loop (it is below ``SUPERBLOCK_CAP``);
the large one runs warm-up steps, superblocks and the final stretch.
"""

import hashlib

import numpy as np
import pytest

from repro.cpu import FastMachine, Machine
from repro.cpu.codegen import SUPERBLOCK_CAP
from repro.workloads.registry import REGISTRY

#: Instruction budgets the digests were taken at.
BUDGETS = (300, 20_000)

#: Program name -> sha256 of its trace at each of :data:`BUDGETS`.
DIGESTS = {
    "applu": (
        "13b3e5ed7e78f527558a6de4cc53383077bc4f9fdd1c52eb47a48dc55a9ef083",
        "9c187fce61a69d285aa5b99e6ad155bae4f0244d37e1d6f82775059d8fe72629"),
    "apsi": (
        "431e4bd5ca3e0c79bd1f5fa733c5120d8cc57ab94b8204fd0059ea3ed085835b",
        "8c8be6cfab647ddf1f24418d070bb16a5af2c65b2a36096f38942dd01c610538"),
    "compress": (
        "a93cb35e13defaddd8eb7d09371c3e555384342e7ea52b49b5dc6ddcf574445d",
        "6f8a564ec4f0ccbfb48969e7c3f2c9adb4e323cea00190f919bbc4d52b8d98e9"),
    "fpppp": (
        "cdef4b5d8b431a0b35677849a6ef2052e2809f70fd70c7a00f40c686cff86c2e",
        "b96a5ca37346ebe6d8c5f1f7260a30fbbc30d34ce8ab5e6c1376c5106507b5d9"),
    "gcc": (
        "b0f57941dca8b6eddc1cf916035c90d05a1fcd44da880e5709c48940fc947645",
        "b2be45ccddfa3cf20aa0ae4df47bafd7b732174ee1a9bd03d1d95eabb7c30015"),
    "go": (
        "87bab059c1b506c4736c17eddc59080b6fdd635bcbbb9cfc79ea8ee398d7be2a",
        "853c4b0c103094cc4cba98bef2dec8b7b82bd730b1f83ca0a510975b1a75728f"),
    "hydro2d": (
        "5b3189e27b25cef3a7d679b1945bf9c0534b383f922fc1dfa47f92458035424d",
        "da1e7e1e0b7d617b4928ba479f6ad14adb1a421b6827d4c7284f9aa422d146cf"),
    "ijpeg": (
        "1b95c7f41723a1d937ba0406180c4e0bfa88d1e6be71d22b3cc86876eedbbfa2",
        "baee9d35d36c72b5099d364d7363f2d4bb95194cd01f9646db9b96875f6eb083"),
    "kmp": (
        "2642651f2ed6ef1aad7a8abeaa59cbd566faea94b4ea6f26d144838e3d7bd4a6",
        "1c65b3be3eb22ee1cfbf644a3ae66dbe061e1b3b7141f4c7f0439a7473dd41ae"),
    "li": (
        "ca68509355bf2a3c3f6dc9cb6c16de759101afc3fdc19be99564c271bc333889",
        "c57daa8be1b65e1a12dbb5703f0c15f9d8bc23d87fd77e44c7d3c4b37b94abff"),
    "m88ksim": (
        "1ab454f3d63c8e1e5633c78095f80a74ef3047d56f19c2610e641e22f88499c5",
        "0a96876de67d37924ae6c6265a15fd62afd70aae1368d83e6d1166d95ccc3ccb"),
    "mgrid": (
        "254f3bb9cc91eb0841cdbb5d03b4ddef60bce42e1ddaa0b09136d8a66be31e33",
        "8f54f50621873e13cc3845465288ba9bf4b1f33d97a4d21d105c907e216f0326"),
    "perl": (
        "7ade7d4aced3abc8caa67b91376b2712a2f0fbc8ab74cc9265b5f0c341205a60",
        "8da2cd79b538e0a9b552608f0bfb707ca9855283ba20dff3f4e718403d863029"),
    "su2cor": (
        "3f6fffd4d424245217f317900e705c87ca154548d7cb88c2461c97b693641952",
        "4adef82d7284305175a5597dc0d2efe322622e20223606cba54f8f0a5f717341"),
    "swim": (
        "18fb884c3533e9d3511f06d2acb2d7b39714c689c6bd6a3b50ce51316c9083ae",
        "5d96e37c0175d07ada601a58c5a19bbd1de52bbbb6a2ec1689469f793b1f5094"),
    "tomcatv": (
        "5eba86b85e8d70923d5b87bea5f3ae1de3b25ffeecbd6b8e80aad8b173738e56",
        "16ab056f53b5d1a90a12a9a5954cbff2a9dfe50fc502252154a8d396c0d7ba31"),
    "turb3d": (
        "a8fa41d35b34fe7f58689f68aee4f34e41bf076034b862d700fe742b1166f0ec",
        "10b0e4eef3d15aa42096d8fdb8cee3ba139fa52ba7c9ee9d7902c0d939f868db"),
    "vortex": (
        "ee5c94329864515b2efcbbbd2853193323f02094cfc4af8b0d0b4eb20df68b16",
        "99e52c23342a896c7d677c632352c7e89de8656e4dad77f93b273ad03e7d5a34"),
    "wave5": (
        "5ef342b345759e2f0d2d1a70aa7c46f139c4690f36e5236f7fa335a9b2fb6563",
        "93eaeb5b0aed16a49e5bae79d6afb1257cbe0973e6fcb51531bbd5be8ca0e874"),
}


def trace_digest(trace):
    """sha256 over every named array: name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for key, value in sorted(trace.arrays().items()):
        a = np.asarray(value)
        h.update(f"{key}:{a.dtype.str}:{a.shape};".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_small_budget_is_below_the_superblock_cap():
    assert BUDGETS[0] < SUPERBLOCK_CAP < BUDGETS[1]


def test_every_registered_program_is_pinned():
    assert sorted(REGISTRY.names()) == sorted(DIGESTS)


@pytest.mark.parametrize("tracer", [Machine, FastMachine],
                         ids=["scalar", "fast"])
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_trace_digest(name, tracer):
    program = REGISTRY.program(name)
    got = tuple(trace_digest(tracer(program).run(budget).trace)
                for budget in BUDGETS)
    assert got == DIGESTS[name]
