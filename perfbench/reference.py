"""Reference results from the scalar engines, the ground truth outputs
are checked against.

A cell is a :class:`repro.serve.ServeRequest` (analog, engine, geometry,
budget, configuration), whose canonical JSON is its key and whose
reference is the canonical :func:`repro.serve.stats_payload` of the
scalar reference engine's ``FetchStats``: totals plus the count and
cycles of every ``PenaltyKind``.

Values for the default seed are committed under ``refdata/``.  Any other
seed is computed after the timed phase, in two worker processes, and
kept under the scratch directory, per digest of the program's sources,
so that a repeated seed is not recomputed.

The reference workers share nothing with the run under check: they use
the scalar tracer as well as the scalar engines, and a disk cache of
their own that starts empty, so every trace and segmentation they use
is captured afresh rather than read back from the measured run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
from pathlib import Path
from typing import Dict, Iterable, List

from common import (BENCH_DIR, CACHE_ENV, DEFAULT_SEED, DEFAULT_WORKDIR,
                    sources_digest)

REFDATA = BENCH_DIR / "refdata"

#: Processes that compute missing references (the host has two CPUs).
WORKERS = 2


def ref_name(workload: str, size: str, seed: int) -> str:
    return f"{workload}-{size}-seed{seed}.json"


def _read(path: Path) -> Dict[str, dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _write(path: Path, table: Dict[str, dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table, sort_keys=True, indent=0))
    os.replace(tmp, path)


def local_table(workdir: Path, name: str) -> Path:
    """Where computed references for the current sources are kept."""
    return workdir / "refs" / sources_digest() / name


def _init_scalar(cache_dir: str) -> None:
    # Reference workers only: pin the scalar tracer and engines, as the
    # qa oracles do, and a private cache.  The process under measurement
    # never sees these variables.
    os.environ["REPRO_ENGINE"] = "scalar"
    os.environ["REPRO_TRACER"] = "scalar"
    os.environ[CACHE_ENV] = cache_dir


def scalar_payload(request_json: str) -> dict:
    """Scalar-engine payload of one cell (runs in a reference worker)."""
    from repro.serve import ServeRequest, stats_payload

    request = ServeRequest.from_dict(json.loads(request_json))
    return stats_payload(request.run())


def compute(keys: List[str], cache_dir: Path) -> Dict[str, dict]:
    """Scalar payloads for ``keys`` (canonical request JSON), captured
    from scratch in ``cache_dir``, which is emptied first and after."""
    if not keys:
        return {}
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    ctx = multiprocessing.get_context("spawn")
    try:
        with ctx.Pool(min(WORKERS, len(keys)), initializer=_init_scalar,
                      initargs=(str(cache_dir),)) as pool:
            payloads = pool.map(scalar_payload, keys, chunksize=1)
            pool.close()
            pool.join()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return dict(zip(keys, payloads))


def references(workload: str, size: str, seed: int, keys: Iterable[str],
               workdir: Path) -> Dict[str, dict]:
    """Reference payload for every key, computing what is not stored."""
    keys = list(dict.fromkeys(keys))
    name = ref_name(workload, size, seed)
    local = local_table(workdir, name)
    table = _read(local)
    table.update(_read(REFDATA / name))  # committed values win
    missing = [k for k in keys if k not in table]
    if missing:
        computed = compute(missing, workdir / "refs-cache")
        stored = _read(local)
        stored.update(computed)
        _write(local, stored)
        table.update(computed)
    return {k: table[k] for k in keys}


def commit(workload: str, size: str, seed: int, workdir: Path) -> Path:
    """Copy a computed local table into ``refdata/``."""
    name = ref_name(workload, size, seed)
    table = _read(local_table(workdir, name))
    if not table:
        raise FileNotFoundError(f"no computed references for {name}; "
                                "run the workload at that seed first")
    _write(REFDATA / name, table)
    return REFDATA / name


if __name__ == "__main__":
    # python3 perfbench/reference.py <workload>...: commit the default
    # seed's computed references after an intended change of results.
    import sys

    for name in sys.argv[1:]:
        print(commit(name, "full", DEFAULT_SEED, DEFAULT_WORKDIR))
