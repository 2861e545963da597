"""Deterministic fault injection for the sweep runtime.

Recovery code that is never exercised is recovery code that does not
work.  This module turns the environment variable ``REPRO_FAULT_SPEC``
into reproducible faults that the resilient executor and the persistent
cache must survive, so every recovery path in
:mod:`repro.runtime.resilience` is provable by an ordinary test — no
sleeps, no signals, no flaky timing.

Grammar: semicolon-separated directives, each ``action:target=value``
with an optional ``,times=N`` (default 1)::

    crash:cell=3          the worker process running sweep cell 3 dies
                          hard (``os._exit``) on the cell's first attempt
    hang:cell=5           the worker running cell 5 blocks far past any
                          reasonable deadline on its first attempt
    fail:cell=2,times=2   cell 2 raises :class:`FaultInjected` on its
                          first two attempts
    corrupt:trace=go      the cached trace artifact for workload ``go``
                          is overwritten with garbage immediately before
                          its next read (once per process)
    corrupt:compiled=go   the same for the cached derived engine input
                          (segmentation, compiled base and read rows;
                          one per geometry, the first one read fires)

Cell faults are gated on the *attempt number*, so a retried cell runs
clean: ``crash:cell=3`` proves the pool respawns and re-runs exactly the
lost cell, after which the sweep finishes with bit-identical numbers.
In a worker process a ``crash`` really kills the interpreter; when the
sweep runs serially there is no isolation boundary to sacrifice, so
``crash`` and ``hang`` degrade to a raised :class:`FaultInjected` and
exercise the retry path instead.

**Service-level faults** (consumed by :mod:`repro.serve`) extend the
same grammar to long-lived prediction serving, where requests — not
sweep-cell indexes — are the stable identity::

    crash:request=3f2a    the worker running any request whose digest
                          starts with ``3f2a`` dies hard on its first
                          attempt (``hang``/``fail`` analogous)
    fail:request=kmp      request faults also match by workload name,
                          so one directive can fault a whole family
    corrupt:entry=3f2a    the service's cached result payload for the
                          matching entry reads corrupt once, forcing a
                          verified recompute instead of a wrong answer

Request faults keep the attempt gating of cell faults: the service maps
``crash``/``hang`` onto the translated per-batch cell faults of the
resilient executor (so worker death and deadline kill paths are the real
ones), applies ``fail`` inside the worker body as a typed failure, and
replays still-faulted requests on its in-process degradation ladder
where every action degrades to :class:`FaultInjected` — exactly the
serial semantics above.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Environment variable holding the fault specification.
FAULTS_ENV = "REPRO_FAULT_SPEC"

#: Exit code used by injected worker crashes (recognisable in core dumps
#: of the test suite, never produced by real simulation code).
CRASH_EXIT_CODE = 86

#: How long an injected hang blocks — far beyond any sane cell deadline.
HANG_SECONDS = 600.0

_CELL_ACTIONS = ("crash", "hang", "fail")
_ARTIFACT_KINDS = ("trace", "compiled", "entry")

_CORRUPTION_MARKER = b"repro-injected-corruption"


class FaultInjected(RuntimeError):
    """The failure raised (or simulated) by an injected fault."""


@dataclass(frozen=True)
class Fault:
    """One parsed directive of ``REPRO_FAULT_SPEC``."""

    action: str   #: ``crash`` | ``hang`` | ``fail`` | ``corrupt``
    kind: str     #: ``cell`` for cell faults, else the artifact kind
    target: str   #: cell index (as text) or workload name
    times: int    #: attempts (or reads) the fault fires on


def _bad_spec(raw: str, why: str) -> ValueError:
    return ValueError(f"{FAULTS_ENV}: {why} (in {raw!r}); expected "
                      f"directives like 'crash:cell=3', 'hang:cell=5', "
                      f"'fail:cell=2,times=2' or 'corrupt:trace=go' "
                      f"separated by ';'")


def parse_spec(raw: Optional[str]) -> Tuple[Fault, ...]:
    """Parse a fault specification, raising ``ValueError`` on bad input."""
    if raw is None or not raw.strip():
        return ()
    parsed = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        action, sep, rest = chunk.partition(":")
        action = action.strip().lower()
        if not sep or not rest.strip():
            raise _bad_spec(raw, f"directive {chunk!r} has no target")
        if action not in (*_CELL_ACTIONS, "corrupt"):
            raise _bad_spec(raw, f"unknown action {action!r}")
        parts = [p.strip() for p in rest.split(",")]
        key, sep, value = parts[0].partition("=")
        key, value = key.strip().lower(), value.strip()
        if not sep or not value:
            raise _bad_spec(raw, f"directive {chunk!r} has no target value")
        times = 1
        for extra in parts[1:]:
            opt, sep, amount = extra.partition("=")
            if opt.strip().lower() != "times" or not sep:
                raise _bad_spec(raw, f"unknown option {extra!r}")
            try:
                times = int(amount.strip())
            except ValueError:
                raise _bad_spec(raw, f"times must be an integer, "
                                     f"got {amount!r}") from None
            if times < 1:
                raise _bad_spec(raw, f"times must be >= 1, got {times}")
        if action in _CELL_ACTIONS:
            if key == "request":
                # Service-level fault: the target names a request by
                # digest prefix or workload name (repro.serve).
                parsed.append(Fault(action, "request", value, times))
                continue
            if key != "cell":
                raise _bad_spec(raw, f"{action} faults target 'cell' or "
                                     f"'request', not {key!r}")
            try:
                index = int(value)
            except ValueError:
                raise _bad_spec(raw, f"cell index must be an integer, "
                                     f"got {value!r}") from None
            if index < 0:
                raise _bad_spec(raw, f"cell index must be >= 0, "
                                     f"got {index}")
            parsed.append(Fault(action, "cell", str(index), times))
        else:
            if key not in _ARTIFACT_KINDS:
                raise _bad_spec(raw, f"corrupt faults target one of "
                                     f"{_ARTIFACT_KINDS}, not {key!r}")
            parsed.append(Fault("corrupt", key, value, times))
    return tuple(parsed)


def active() -> Tuple[Fault, ...]:
    """The faults configured in the environment (parsed fresh)."""
    return parse_spec(os.environ.get(FAULTS_ENV))


def validate() -> None:
    """Raise ``ValueError`` if ``REPRO_FAULT_SPEC`` cannot be parsed."""
    active()


def apply_cell_faults(index: int, attempt: int, isolated: bool) -> None:
    """Fire any cell fault matching ``(index, attempt)``.

    ``isolated`` is True inside a sweep worker process, where a crash can
    really take the interpreter down (and a hang really blocks) without
    hurting the parent.  Serial execution has no such boundary, so hard
    faults degrade to :class:`FaultInjected` and exercise the retry path.
    """
    for fault in active():
        if fault.kind != "cell" or int(fault.target) != index:
            continue
        if attempt >= fault.times:
            continue
        if fault.action == "crash" and isolated:
            os._exit(CRASH_EXIT_CODE)
        if fault.action == "hang" and isolated:
            time.sleep(HANG_SECONDS)
        raise FaultInjected(
            f"injected {fault.action}: cell {index}, attempt {attempt}")


# ----------------------------------------------------------------------
# Service-level faults (repro.serve)
# ----------------------------------------------------------------------

def _matches_request(fault: Fault, digest: str, workload: str) -> bool:
    """Whether a request-targeted fault selects this request.

    Targets match either a digest prefix (the content address of the
    request, precise) or the workload name (coarse: one directive faults
    a whole request family).
    """
    return bool(fault.target) and (digest.startswith(fault.target)
                                   or fault.target == workload)


def request_faults(digest: str, workload: str,
                   spec: Optional[Tuple[Fault, ...]] = None,
                   ) -> Tuple[Fault, ...]:
    """The request-targeted faults selecting ``(digest, workload)``.

    ``spec`` defaults to the environment's parsed spec; the service
    passes its construction-time snapshot so mid-campaign environment
    mutation cannot change the plan.
    """
    faults_ = active() if spec is None else spec
    return tuple(f for f in faults_ if f.kind == "request"
                 and _matches_request(f, digest, workload))


def apply_request_faults(digest: str, workload: str, attempt: int,
                         hard: bool,
                         spec: Optional[Tuple[Fault, ...]] = None) -> None:
    """Fire request faults matching ``(digest, workload, attempt)``.

    ``hard=False`` is the worker-side call inside the request body:
    only ``fail`` directives fire (as :class:`FaultInjected`), because
    ``crash``/``hang`` are delivered through the translated per-batch
    cell faults of the resilient executor — the worker genuinely dies
    or wedges there.  ``hard=True`` is the service's in-process
    degradation ladder, where — exactly like serial sweeps — every
    action degrades to a raised :class:`FaultInjected`.
    """
    for fault in request_faults(digest, workload, spec):
        if attempt >= fault.times:
            continue
        if fault.action == "fail" or hard:
            raise FaultInjected(
                f"injected {fault.action}: request {digest[:12]} "
                f"({workload}), attempt {attempt}")


#: (kind, name) -> number of times a corruption fault already fired,
#: so ``times=N`` is honoured within one process.
_corruptions_fired: Dict[Tuple[str, str], int] = {}


def corrupt_artifact(path: Path, kind: str, name: str) -> None:
    """Overwrite a cache artifact with garbage if a fault targets it."""
    for fault in active():
        if fault.action != "corrupt" or fault.kind != kind \
                or fault.target != name:
            continue
        key = (kind, name)
        if _corruptions_fired.get(key, 0) >= fault.times:
            continue
        if not path.exists():
            continue
        path.write_bytes(_CORRUPTION_MARKER)
        _corruptions_fired[key] = _corruptions_fired.get(key, 0) + 1


def corrupt_entry(digest: str, workload: str,
                  spec: Optional[Tuple[Fault, ...]] = None) -> bool:
    """Whether a ``corrupt:entry`` fault fires for this store read.

    The serve result store calls this before serving a cached payload;
    a ``True`` return means the store must hand back corrupted bytes so
    its checksum verification path is exercised.  ``times=N`` is
    honoured per target within one process, mirroring artifact
    corruption.
    """
    faults_ = active() if spec is None else spec
    for fault in faults_:
        if fault.action != "corrupt" or fault.kind != "entry":
            continue
        if not _matches_request(fault, digest, workload):
            continue
        key = ("entry", fault.target)
        if _corruptions_fired.get(key, 0) >= fault.times:
            continue
        _corruptions_fired[key] = _corruptions_fired.get(key, 0) + 1
        return True
    return False


def reset() -> None:
    """Forget which corruption faults already fired (tests)."""
    _corruptions_fired.clear()
