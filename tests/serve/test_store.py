"""Result store: verified reads, LRU bounds, injected corruption."""

import pytest

from repro.runtime import faults
from repro.serve.requests import payload_digest
from repro.serve.store import ResultStore


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


def _payload(n: int) -> dict:
    return {"n_blocks": n, "n_instructions": 10 * n}


def _served(n: int) -> tuple:
    """What a verified read of ``_payload(n)`` returns."""
    return _payload(n), payload_digest(_payload(n))


def test_put_get_round_trip():
    store = ResultStore()
    assert store.put("ab", "kmp", _payload(1)) == payload_digest(_payload(1))
    assert store.get("ab", "kmp") == _served(1)
    assert store.stats.hits == 1
    assert store.get("cd", "kmp") is None
    assert store.stats.misses == 1


def test_lru_eviction_beyond_bound():
    store = ResultStore(max_entries=2)
    store.put("a", "kmp", _payload(1))
    store.put("b", "kmp", _payload(2))
    store.get("a", "kmp")               # refresh a
    store.put("c", "kmp", _payload(3))  # evicts b
    assert store.get("b", "kmp") is None
    assert store.get("a", "kmp") is not None
    assert store.stats.evictions == 1


def test_corrupted_entry_is_a_clean_miss_never_wrong_bytes():
    spec = faults.parse_spec("corrupt:entry=ab")
    store = ResultStore(fault_spec=spec)
    store.put("abcd", "kmp", _payload(1))
    # The injected corruption flips the stored bytes; verification must
    # catch it and miss, never return a mangled payload.
    assert store.get("abcd", "kmp") is None
    assert store.stats.corruptions == 1
    # The entry was dropped: recompute and store again, reads are clean
    # (the fault already fired its one time).
    store.put("abcd", "kmp", _payload(1))
    assert store.get("abcd", "kmp") == _served(1)


def test_corruption_respects_times_and_targets():
    spec = faults.parse_spec("corrupt:entry=ab,times=2")
    store = ResultStore(fault_spec=spec)
    for _ in range(2):
        store.put("abcd", "kmp", _payload(1))
        assert store.get("abcd", "kmp") is None
    store.put("abcd", "kmp", _payload(1))
    assert store.get("abcd", "kmp") == _served(1)
    # Untargeted digests are never corrupted.
    store.put("ffff", "kmp", _payload(2))
    assert store.get("ffff", "kmp") == _served(2)


def test_workload_name_targets_whole_family():
    spec = faults.parse_spec("corrupt:entry=kmp")
    store = ResultStore(fault_spec=spec)
    store.put("0000", "kmp", _payload(1))
    assert store.get("0000", "kmp") is None
    assert store.stats.corruptions == 1


def test_rejects_bad_bound():
    with pytest.raises(ValueError):
        ResultStore(max_entries=0)
