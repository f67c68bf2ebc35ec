"""The DRAM timing model: inlined access kernels over one memory's state.

:func:`make_kernels` compiles one
:class:`~repro.memory.controller.MemoryController` into a pair of closures
and is the only implementation of DRAM timing in the package: it derives
the row hit / empty / miss latencies from the memory's
:class:`~repro.params.DramParams` itself and reads the burst time the
memory derives.  Each memory calls it once, at construction, and exposes
the pair as its ``line_access`` / ``block_transfer`` attributes.  Its
:meth:`~repro.memory.controller.MemoryController.access` /
:meth:`~repro.memory.controller.MemoryController.transfer_block`
methods are thin calls into them, and each design step
(``MemorySystem._step``, which both ``MemorySystem.fast_path`` and
``MemorySystem.access`` run) binds the same pair and skips the method
call.  BASELINE's step is the far memory's line kernel itself: the
driver passes it a reference's ``(slot, row)``, and ``kind`` defaults to
demand traffic.  Hybrid2's step runs on it everything but case 2b's
demand fill:
line hits and fills, metadata accesses, write-backs, migrations and
swaps.  The demand fill stays on the controller methods, the calls the
repo benchmark's traced run counts.

The line kernel takes a line's ``(slot, row)``
(:meth:`~repro.memory.controller.MemoryController.locate`) rather than
its address: a design maps every address it knows before the run in its
``_columns``, and the few whose frame is runtime state read the memory's
slot table inline.  Per 64 B line it classifies the row-buffer state
(hit / miss / empty), waits for the bank, serialises the burst on the
channel's data bus, and counts the line.

The block kernel takes an address and reads the slot table once per
aligned span, whose lines share a bank and a row: it classifies the
span's first line as the line kernel would and derives the rest, all
row hits, in one straight-line sum of the completion time.  The sum is
as long as the memory's span has lines, so the kernel is compiled from
source (:data:`_BLOCK_SOURCE`) once per process and lines-per-span count.

Neither kernel touches energy, bus-busy time or traffic bytes.  They
count integers on the memory: lines per bank slot, writes, activations,
row misses and the background and metadata lines.  The memory derives
the rest on read (:func:`~repro.memory.controller.fold`): energy is
dynamic only, as in the paper's Figure 18 (refresh and static energy are
excluded), ``rw_energy_pj_per_bit * 512`` per 64 B line and
``act_pre_energy_nj * 1000`` pJ per row activation, and a channel is
busy ``burst_ns`` per line.

``tests/test_fastpath.py`` pins the kernels and the floats the memory
derives against the frozen golden ``tests/data/golden/dram_timing.json``
float for float and ``tests/test_engine_equivalence.py`` pins the full
engine per design.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable, Dict, Tuple

from ..common import LINE_SIZE

if TYPE_CHECKING:
    from .controller import MemoryController

#: Traffic classes accepted by the line kernel (mirrors the ``demand`` /
#: ``metadata`` flags of :meth:`MemoryController.access`).
KIND_DEMAND = 0
KIND_BACKGROUND = 1
KIND_METADATA = 2

LineKernel = Callable[[int, int, bool, float, int], float]
BlockKernel = Callable[[int, int, bool, float, bool], float]


def make_kernels(controller: "MemoryController") -> Tuple[LineKernel,
                                                          BlockKernel]:
    """Return ``(line_access, block_transfer)`` kernels for ``controller``.

    ``line_access(slot, row, is_write, now_ns, kind)`` issues one 64 B
    access to row ``row`` of bank ``slot`` and returns its latency in ns
    (controller overhead included); ``kind`` selects the traffic class
    (:data:`KIND_DEMAND`, the default, / :data:`KIND_BACKGROUND` /
    :data:`KIND_METADATA`).
    ``block_transfer(address, nbytes, is_write, now_ns, demand)`` streams a
    block as consecutive line bursts, all issued at ``now_ns``, and returns
    the latency of the first line (critical word first); only that line is
    demand traffic.  It leaves every float and counter exactly as issuing
    the block's lines one by one through ``line_access`` would.
    """
    params = controller.params
    open_rows = controller.open_row
    ready_at = controller.ready_at_ns
    lines = controller.lines
    row_misses = controller.row_misses
    activations = controller.activations
    channel_of = controller.channel_of
    bus_free_at = controller.bus_free_at_ns
    slot_table, period, span, row_stride = controller.address_map
    # Row hit: column access only.  Row empty: activate, then column
    # access.  Row miss: precharge, activate, column access.
    clock_ns = params.clock_ns
    hit_ns = params.tcas_cycles * clock_ns
    trcd_ns = params.trcd_cycles * clock_ns
    empty_ns = trcd_ns + hit_ns
    miss_ns = params.trp_cycles * clock_ns + trcd_ns + hit_ns
    burst_ns = controller.burst_ns
    overhead_ns = controller.CONTROLLER_OVERHEAD_NS

    def line_access(slot: int, row: int, is_write: bool, now_ns: float,
                    kind: int = KIND_DEMAND) -> float:
        open_row = open_rows[slot]
        if open_row == row:
            array_latency = hit_ns
        else:
            if open_row < 0:
                array_latency = empty_ns
            else:
                array_latency = miss_ns
                row_misses[slot] += 1
            activations[slot] += 1
            open_rows[slot] = row

        ready = ready_at[slot]
        if now_ns > ready:
            ready = now_ns
        data_ready = ready + array_latency
        channel = channel_of[slot]
        begin = bus_free_at[channel]
        if data_ready > begin:
            begin = data_ready
        completion = begin + burst_ns
        bus_free_at[channel] = completion
        ready_at[slot] = completion

        lines[slot] += 1
        if is_write:
            controller.writes += 1
        if kind:
            if kind == 1:
                controller.background_lines += 1
            else:
                controller.metadata_lines += 1
        return (completion - now_ns) + overhead_ns

    block_transfer = _block_binder(span // LINE_SIZE)(
        controller=controller, slot_table=slot_table, period=period, span=span,
        row_stride=row_stride, open_rows=open_rows, ready_at=ready_at,
        slot_lines=lines, row_misses=row_misses, activations=activations,
        channel_of=channel_of, bus_free_at=bus_free_at, hit_ns=hit_ns,
        empty_ns=empty_ns, miss_ns=miss_ns, burst_ns=burst_ns,
        overhead_ns=overhead_ns)
    return line_access, block_transfer


#: The block kernel, as source: ``bind(**state)`` returns a
#: ``block_transfer`` closed over one controller's state and constants.
#: Every line of a ``span``-aligned span shares a channel, a bank and a
#: row, so after a span's first line every line is a row hit that starts
#: when the previous one completes (the bank and the bus are both free
#: then).  The kernel classifies each span's first line and derives the
#: rest: the head span (from ``address`` to the next span boundary, which
#: also gives the critical-word latency), a loop over the whole spans, and
#: a partial tail span.  :func:`_block_binder` fills in the three span
#: bodies for a memory whose spans hold ``{lines}`` lines.
_BLOCK_SOURCE = """\
def bind(controller, slot_table, period, span, row_stride, open_rows,
         ready_at, slot_lines, row_misses, activations, channel_of,
         bus_free_at, hit_ns, empty_ns, miss_ns, burst_ns, overhead_ns):
    def block_transfer(address, nbytes, is_write, now_ns, demand):
        lines = nbytes // LINE_SIZE or 1
        line_address = address
        run = -((address % span - span) // LINE_SIZE)
        if run > lines:
            run = lines
{head}
        left = lines - run
        if left:
            tail = line_address + run * LINE_SIZE
            spans = left // {lines}
            run = left - spans * {lines}
            for line_address in range(tail, tail + spans * span, span):
{whole}
            if run:
                line_address = tail + spans * span
{partial}
        if is_write:
            controller.writes += lines
        controller.background_lines += lines - 1 if demand else lines
        return first
    return block_transfer
"""

#: One span of ``{run}`` lines from ``line_address``: the first line's
#: timing as in the line kernel, then ``{chain}`` for the rest.
_SPAN_SOURCE = """\
slot = slot_table[line_address % period // span]
row = line_address // row_stride
open_row = open_rows[slot]
if open_row == row:
    array_latency = hit_ns
else:
    if open_row < 0:
        array_latency = empty_ns
    else:
        array_latency = miss_ns
        row_misses[slot] += 1
    activations[slot] += 1
    open_rows[slot] = row
slot_lines[slot] += {run}
ready = ready_at[slot]
if now_ns > ready:
    ready = now_ns
data_ready = ready + array_latency
channel = channel_of[slot]
begin = bus_free_at[channel]
if data_ready > begin:
    begin = data_ready
completion = begin + burst_ns{first}
{chain}
bus_free_at[channel] = completion
ready_at[slot] = completion
"""

#: The rest of a partial span: its lines one loop step each.
_LOOP_CHAIN = """\
for _ in range(run - 1):
    completion = completion + hit_ns + burst_ns"""


def _indent(code: str, depth: int) -> str:
    return "\n".join(" " * depth + line for line in code.splitlines())


@functools.lru_cache(maxsize=None)
def _block_binder(lines: int) -> Callable[..., BlockKernel]:
    """``bind`` of :data:`_BLOCK_SOURCE` for spans of ``lines`` lines,
    compiled once per process and line count.

    A whole span advances its completion time in one sum, written out
    ``lines`` terms long: Python adds left to right, so it still takes one
    line at a time, in line order.  The integer counters are bumped once
    per span or per block.
    """
    whole_chain = ("completion = completion"
                   + " + hit_ns + burst_ns" * (lines - 1))
    head_chain = (f"if run == {lines}:\n{_indent(whole_chain, 4)}\n"
                  f"else:\n{_indent(_LOOP_CHAIN, 4)}")

    def span_code(run: str, chain: str, depth: int, first: str = "") -> str:
        return _indent(_SPAN_SOURCE.format(run=run, chain=chain,
                                           first=first), depth)

    source = _BLOCK_SOURCE.format(
        lines=lines,
        head=span_code("run", head_chain, 8,
                       "\nfirst = (completion - now_ns) + overhead_ns"),
        whole=span_code(str(lines), whole_chain, 16),
        partial=span_code("run", _LOOP_CHAIN, 16))
    scope: Dict[str, Any] = {"LINE_SIZE": LINE_SIZE}
    exec(compile(source, f"<block kernel, {lines} lines per span>", "exec"),
         scope)
    return scope["bind"]
