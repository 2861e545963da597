"""Content-addressed result store with verified reads.

Entries are keyed by the request digest and hold the *canonical JSON
bytes* of the result payload plus their SHA-256 — the same
integrity-sidecar discipline as the disk cache of
:mod:`repro.runtime.cache`, applied to the service's in-memory tier.
Every read re-verifies the checksum, so a corrupted entry (including
one corrupted deliberately by a ``corrupt:entry`` fault) produces a
clean miss and a recompute, never a silently wrong answer.  A verified
read returns the checksum with the payload: it is the payload's
:func:`~repro.serve.requests.payload_digest`, so a hit never re-encodes
or re-hashes what it serves.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..runtime import faults
from .requests import payload_json

DEFAULT_MAX_ENTRIES = 4096


@dataclass
class StoreStats:
    """Counters for one store's lifetime."""

    hits: int = 0
    misses: int = 0
    corruptions: int = 0   #: checksum failures detected (and evicted)
    evictions: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "corruptions": self.corruptions,
                "evictions": self.evictions}


class ResultStore:
    """LRU-bounded digest-keyed store of canonical result payloads."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 fault_spec: Optional[Tuple[faults.Fault, ...]] = None,
                 ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        #: digest -> (canonical payload bytes, sha256 hex, workload)
        self._entries: "OrderedDict[str, Tuple[bytes, str, str]]" = \
            OrderedDict()
        self._spec = fault_spec
        self.stats = StoreStats()

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, digest: str, workload: str,
            payload: Dict[str, Any]) -> str:
        """Insert (or refresh) the payload; return its payload digest."""
        blob = payload_json(payload).encode("ascii")
        sha = hashlib.sha256(blob).hexdigest()
        self._entries[digest] = (blob, sha, workload)
        self._entries.move_to_end(digest)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return sha

    def get(self, digest: str, workload: str,
            ) -> Optional[Tuple[Dict[str, Any], str]]:
        """Verified ``(payload, payload digest)``, or None on a miss.

        The digest is the SHA-256 this read has just checked the stored
        bytes against; a corrupted entry is dropped and reads as a miss.
        """
        entry = self._entries.get(digest)
        if entry is None:
            self.stats.misses += 1
            return None
        blob, sha, stored_workload = entry
        if faults.corrupt_entry(digest, workload, self._spec):
            # Injected corruption persists until detected, like a bad
            # disk block: the verification path must catch it.
            blob = b"corrupt:" + blob
            self._entries[digest] = (blob, sha, stored_workload)
        if hashlib.sha256(blob).hexdigest() != sha:
            # Never serve bytes that fail verification — drop the entry
            # and report a miss so the caller recomputes.
            del self._entries[digest]
            self.stats.corruptions += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.stats.hits += 1
        decoded: Dict[str, Any] = json.loads(blob)
        return decoded, sha
