"""Concurrent readers against a store under live writes.

The serve layer reads the same store a sweep writes, from multiple
threads, while writer *processes* fill cells — so a reader must never
observe a torn cell.  SQLite's WAL transactions are the mechanism; these
tests pin the observable contract: a concurrently-read cell is either
absent, fully valid, or (transiently) unreadable — never ``corrupt``.
"""

import hashlib
import multiprocessing
import threading
import time

import pytest

from repro.sim.store import (CELL_CORRUPT, CELL_MISS, CELL_OK,
                             CELL_UNREADABLE, ResultStore,
                             StoreReadOnlyError)
from repro.sim.simulator import RunResult

BACKENDS = ("sqlite",)
WRITERS = 4
CELLS_PER_WRITER = 25
#: Wall-clock budget for all writers together; a hang fails fast.
WRITER_TIMEOUT_S = 60


def _root(tmp_path, backend):
    return f"{backend}:{tmp_path / 'store'}"


def _key(writer: int, index: int) -> str:
    return hashlib.sha256(f"{writer}/{index}".encode()).hexdigest()


def _result(writer: int, index: int) -> RunResult:
    return RunResult(design=f"D{writer}", workload=f"w{index}",
                     cycles=100.0 + index, instructions=1000,
                     references=10, nm_service_ratio=0.5,
                     nm_traffic_bytes=1.0, fm_traffic_bytes=2.0,
                     energy_pj=3.0, flat_capacity_bytes=4)


def _writer_process(root: str, writer: int) -> None:
    store = ResultStore(root)
    for index in range(CELLS_PER_WRITER):
        store.put(_key(writer, index), _result(writer, index),
                  job={"writer": writer, "index": index})
    store.backend.close()


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_readers_never_see_partial_cells(tmp_path, backend):
    """4 writer processes fill cells while a reader thread polls
    ``probe_many`` through a read-only store: every probe must come back
    miss, ok or (transiently) unreadable — never corrupt/partial."""
    root = _root(tmp_path, backend)
    ResultStore(root)                       # materialise the directory
    keys = [_key(writer, index) for writer in range(WRITERS)
            for index in range(CELLS_PER_WRITER)]

    bad = []
    seen_ok = set()
    stop = threading.Event()

    def read_loop():
        reader = ResultStore(root, read_only=True)
        while not stop.is_set():
            for key, (status, result) in reader.probe_many(keys).items():
                if status not in (CELL_MISS, CELL_OK, CELL_UNREADABLE):
                    bad.append((key, status))
                if status == CELL_OK:
                    seen_ok.add(key)
                    if result.references != 10:
                        bad.append((key, "mangled result"))
            time.sleep(0.002)
        reader.backend.close()

    reader_thread = threading.Thread(target=read_loop, daemon=True)
    reader_thread.start()
    # Spawned, not forked: a child forked while the reader thread is inside
    # SQLite can inherit a held lock and hang.
    context = multiprocessing.get_context("spawn")
    processes = [
        context.Process(target=_writer_process, args=(root, w))
        for w in range(WRITERS)]
    for process in processes:
        process.start()
    deadline = time.monotonic() + WRITER_TIMEOUT_S
    for process in processes:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    hung = [process for process in processes if process.is_alive()]
    for process in hung:
        process.terminate()
        process.join(timeout=10)
    if hung:
        stop.set()
    assert not hung, f"{len(hung)} writer(s) still running after " \
        f"{WRITER_TIMEOUT_S} s"
    assert [process.exitcode for process in processes] == [0] * WRITERS

    # Writers are done: keep reading until every cell is visible.
    deadline = time.monotonic() + 60
    while len(seen_ok) < len(keys) and time.monotonic() < deadline:
        time.sleep(0.01)
    stop.set()
    reader_thread.join(timeout=10)

    assert not bad, f"reader observed damaged cells: {bad[:5]}"
    assert len(seen_ok) == len(keys)
    # Post-hoc scan from a fresh handle agrees: nothing corrupt on disk.
    final = ResultStore(root)
    statuses = {s for _, (s, _) in final.probe_many(keys).items()}
    assert statuses == {CELL_OK}
    assert CELL_CORRUPT not in statuses


@pytest.mark.parametrize("backend", BACKENDS)
def test_read_only_store_rejects_writes(tmp_path, backend):
    root = _root(tmp_path, backend)
    writable = ResultStore(root)
    writable.put(_key(0, 0), _result(0, 0))

    reader = ResultStore(root, read_only=True)
    assert reader.read_only
    status, result = reader.probe(_key(0, 0))
    assert status == CELL_OK and result.workload == "w0"
    with pytest.raises(StoreReadOnlyError):
        reader.put(_key(0, 1), _result(0, 1))
    with pytest.raises(StoreReadOnlyError):
        reader.clear()
    # The writable handle is unaffected.
    writable.put(_key(0, 1), _result(0, 1))
    assert len(writable) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_read_only_store_requires_existing_root(tmp_path, backend):
    """Opening read-only must not create directories as a side effect."""
    root = _root(tmp_path, backend)
    store = ResultStore(root, read_only=True)
    status, _ = store.probe(_key(0, 0))
    assert status in (CELL_MISS, CELL_UNREADABLE)
