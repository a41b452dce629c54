"""The control-processor interpreter.

A 32-bit, byte-addressed stack machine with the three-register
evaluation stack (Areg, Breg, Creg), workspace-pointer locals, the
PFIX/NFIX variable-length operand scheme, soft (memory-word) channels
with rendezvous semantics, and the two-priority scheduler — the
feature list the paper gives for the T Series node's control unit.

Two execution modes:

* :meth:`CPU.run` — untimed stepping, for ISA-level programs and tests.
* :meth:`CPU.as_process` — an engine process that charges simulated
  time per instruction (7.5 MIPS average; off-chip memory accesses at
  the 400 ns word-port rate), for whole-node simulations.

Decoded-instruction cache
-------------------------
Re-decoding the PFIX/NFIX prefix chain and walking the opcode
if-ladder on *every* execution of every instruction is the
interpreter's dominant cost.  Instruction execution is therefore split
into one bound method per opcode, and :meth:`CPU.step` keeps a
**decoded-instruction cache**: the first time an instruction at a
given PC executes, its whole prefix chain is decoded once into a
``(bound-method, operand, next_pc, byte_count, prefix_cycles, op)``
tuple; every later execution dispatches straight from the cache.
Architectural state (instruction and cycle counters, trace log,
Iptr/Oreg behaviour) is updated exactly as the byte-at-a-time
reference path would.

The cache is keyed by PC and is only consulted when ``Oreg == 0``,
which is true at every instruction-chain boundary — including jumps
into the middle of a prefix chain, which simply get their own cache
entry.  It is **invalidated on code-store writes**: the only supported
way to modify code after construction is :meth:`CPU.patch_code`, which
clears the whole cache (a conservative rule — a patched byte can
change the meaning of any chain that runs through it).

Basic-block translator (turbo kernel)
-------------------------------------
On the default *turbo* tier (see
:func:`repro.events.engine.kernel_tier`) the decoded cache grows into
a **basic-block translator**: starting from a chain boundary, a
straight-line run of *safe* chains — operations that only touch the
evaluation stack, workspace/data memory, the workspace pointer, and
the error flag — is decoded once into a block record with pre-summed
byte and cycle totals.  :meth:`step` then executes the whole block in
one call: per chain only ``Iptr`` is set and the pre-bound handler
invoked; the instruction and cycle counters advance by the pre-summed
totals afterwards.  A block ends at any branch, call, channel
operation, or scheduler/priority point (the *tail*, executed with
exact fast-path semantics), so architectural state at every chain
boundary a harness can observe is bit-identical to the reference tier.
:attr:`step_barrier` lets harnesses (self-modifying-code patching,
``as_process`` yield pacing) force control back at the first chain
boundary where ``instructions >= barrier`` — the same boundary
chain-at-a-time dispatch would stop at.  :meth:`patch_code` invalidates
exactly the blocks whose span overlaps the patched range.

Kernel tiers: ``REPRO_SLOW_KERNEL=1`` (the *reference* tier) disables
both caches, forcing the byte-at-a-time reference path (used by the
equivalence regression tests and the wall-clock benchmark baseline).
"""

from repro.cp.isa import CYCLE_COSTS, Op, Secondary
from repro.cp.scheduler import (
    HIGH,
    LOW,
    NOT_PROCESS,
    Scheduler,
    descriptor_priority,
    descriptor_wptr,
    make_descriptor,
)
from repro.events.engine import kernel_tier

MASK32 = 0xFFFFFFFF
MIN_INT = -(1 << 31)
MAX_INT = (1 << 31) - 1


def to_signed(value: int) -> int:
    """Interpret a 32-bit pattern as signed."""
    value &= MASK32
    return value - (1 << 32) if value >> 31 else value


def to_unsigned(value: int) -> int:
    """Wrap any integer to a 32-bit pattern."""
    return value & MASK32


class CPUError(Exception):
    """Illegal instruction, bad address, or deadlock."""


class ExternalIO(Exception):
    """Internal signal: an IN/OUT hit an external (link) channel.

    Raised by the step loop and caught by :meth:`CPU.as_process`,
    which performs the transfer through the engine-level channel
    object and resumes the CPU.  ``direction`` is 'in' or 'out'.
    """

    def __init__(self, direction, channel, pointer, count):
        super().__init__(direction)
        self.direction = direction
        self.channel = channel
        self.pointer = pointer
        self.count = count


class ArrayMemory:
    """A flat word-addressable memory for standalone CPU programs.

    Node integration replaces this with a view onto the node's
    :class:`~repro.memory.DualPortMemory`.
    """

    def __init__(self, size_bytes: int = 64 * 1024):
        if size_bytes % 4:
            raise ValueError("memory size must be word aligned")
        self.size = size_bytes
        self._words = [0] * (size_bytes // 4)

    def read_word(self, address: int) -> int:
        if address % 4 or not 0 <= address < self.size:
            raise CPUError(f"bad word read at {address:#x}")
        return self._words[address // 4]

    def write_word(self, address: int, value: int) -> None:
        if address % 4 or not 0 <= address < self.size:
            raise CPUError(f"bad word write at {address:#x}")
        self._words[address // 4] = to_unsigned(value)

    def read_bytes(self, address: int, count: int) -> bytes:
        out = bytearray()
        for i in range(count):
            word = self.read_word((address + i) & ~0x3)
            out.append((word >> (8 * ((address + i) & 0x3))) & 0xFF)
        return bytes(out)

    def write_bytes(self, address: int, data: bytes) -> None:
        for i, b in enumerate(data):
            a = address + i
            word = self.read_word(a & ~0x3)
            shift = 8 * (a & 0x3)
            word = (word & ~(0xFF << shift)) | (b << shift)
            self.write_word(a & ~0x3, word)


class CPU:
    """The interpreter.

    Parameters
    ----------
    code : bytes
        The program image (lives in the 2 KB-style on-chip store; data
        lives in ``memory``).  Modify it only through
        :meth:`patch_code`, which invalidates the decoded cache.
    memory : object
        Word-addressed data memory (``read_word``/``write_word`` and
        the byte variants).
    entry : int
        Initial instruction pointer.
    wptr : int
        Initial workspace pointer (top of the initial workspace).
    priority : int
        Initial process priority (HIGH or LOW).
    """

    def __init__(self, code, memory=None, entry=0, wptr=None, priority=LOW,
                 trace=False):
        self.code = bytearray(code)
        self.memory = memory or ArrayMemory()
        self.areg = 0
        self.breg = 0
        self.creg = 0
        self.oreg = 0
        self.iptr = entry
        default_top = getattr(self.memory, "size", 1 << 20)
        self.wptr = wptr if wptr is not None else default_top - 256
        self.priority = priority
        self.error = False
        self.halted = False
        #: True if the CPU stopped because every process was blocked.
        self.deadlocked = False
        self.scheduler = Scheduler()
        self.scheduler.current = (self.wptr, priority)
        self.instructions = 0
        self.cycles = 0
        self.trace = trace
        self._trace_log = []
        #: External channel table: address → object with engine hooks
        #: (used by node integration; bare CPUs have none).
        self.external_channels = {}
        # Bound dispatch tables (index = primary opcode / secondary
        # number) and the PC-keyed decoded-instruction cache.
        self._primary = tuple(
            fn.__get__(self) if fn is not None else None
            for fn in self._PRIMARY_FUNCS
        )
        self._secondary = {
            sec: fn.__get__(self) for sec, fn in self._SECONDARY_FUNCS.items()
        }
        tier = kernel_tier()
        self.kernel_tier = tier
        # Turbo tier: the decoded-chain cache, plus translated basic
        # blocks keyed by start PC and a negative cache of PCs where
        # translation was not worthwhile.
        self._use_cache = tier != "reference"
        self._decoded = {}
        self._blocks = {}
        self._unblocked = set()
        #: When set, the turbo tier returns control from :meth:`step`
        #: at the first instruction-chain boundary where
        #: ``instructions >= step_barrier`` instead of running through
        #: it — the boundary chain-at-a-time dispatch would observe.
        self.step_barrier = None
        # Cache profiling counters (see cache_stats()).
        self.decoded_hits = 0
        self.decoded_misses = 0
        self.decoded_invalidations = 0
        self.block_hits = 0
        self.block_translations = 0
        self.block_chains = 0
        self.block_invalidations = 0
        self.block_imports = 0

    # -- code store ---------------------------------------------------------

    def patch_code(self, address: int, data) -> None:
        """Write ``data`` into the code store at ``address``.

        This is the only supported way to modify code after
        construction; it invalidates the entire decoded-instruction
        cache (a patched byte may sit in the middle of a cached prefix
        chain, and per-PC entries do not record their spans) and
        exactly the translated blocks whose recorded ``[start, end)``
        span overlaps the patched range.
        """
        data = bytes(data)
        if not 0 <= address <= len(self.code) - len(data):
            raise CPUError(
                f"code patch [{address:#x}, {address + len(data):#x}) "
                f"outside code store"
            )
        self.code[address:address + len(data)] = data
        self.decoded_invalidations += len(self._decoded)
        self._decoded.clear()
        if self._blocks:
            lo, hi = address, address + len(data)
            stale = [
                pc for pc, block in self._blocks.items()
                if block[6] < hi and block[7] > lo
            ]
            for pc in stale:
                del self._blocks[pc]
            self.block_invalidations += len(stale)
        # A patch can turn an untranslatable run into a translatable
        # one (and vice versa): retry everything.
        self._unblocked.clear()

    def cache_stats(self) -> dict:
        """Decoded-cache and translated-block counters, rolled up.

        * ``decoded_hits`` / ``decoded_misses`` — chain dispatches
          served from / decoded into the per-PC cache;
        * ``decoded_invalidations`` — cached chains dropped by
          :meth:`patch_code` (the whole cache clears per patch);
        * ``block_translations`` — basic blocks compiled;
        * ``block_chains`` — chains packed into those blocks;
        * ``block_hits`` — block executions (each replaces
          that many chain dispatches);
        * ``block_invalidations`` — blocks dropped by
          :meth:`patch_code` span overlap;
        * ``kernel_tier`` — the tier this CPU was built under.
        """
        return {
            "kernel_tier": self.kernel_tier,
            "decoded_hits": self.decoded_hits,
            "decoded_misses": self.decoded_misses,
            "decoded_invalidations": self.decoded_invalidations,
            "block_translations": self.block_translations,
            "block_chains": self.block_chains,
            "block_hits": self.block_hits,
            "block_invalidations": self.block_invalidations,
            "block_imports": self.block_imports,
        }

    #: Serialized block-table format version (see :meth:`export_blocks`).
    BLOCK_TABLE_SCHEMA = 1

    def export_blocks(self) -> dict:
        """Serialize the translated-block tables as a JSON-able dict.

        Block records hold bound handler methods, so the payload
        stores each chain's *identity* — ``(op, operand, next_pc,
        byte_count, prefix_cycles)`` — and :meth:`import_blocks`
        re-derives the handlers, static costs, and prefix sums from
        the same tables runtime translation uses.  A loaded table is
        therefore structurally identical to what
        :meth:`_translate_block` would build for the same code image;
        the payload carries the code digest so a stale artifact can
        never attach to different code.
        """
        import hashlib

        blocks = []
        for pc in sorted(self._blocks):
            chains, _tb, _tc, _cb, _cc, tail, _start, _end = \
                self._blocks[pc]
            blocks.append({
                "pc": pc,
                "chains": [
                    [Op[name].value, operand, next_pc, nbytes, prefix]
                    for (_h, operand, next_pc, nbytes, prefix,
                         name, _cost) in chains
                ],
                "tail": None if tail is None else list(
                    (tail[5], tail[1], tail[2], tail[3], tail[4])
                ),
            })
        return {
            "schema": self.BLOCK_TABLE_SCHEMA,
            "code_sha256": hashlib.sha256(bytes(self.code)).hexdigest(),
            "blocks": blocks,
            "unblocked": sorted(self._unblocked),
        }

    def import_blocks(self, payload: dict) -> int:
        """Install a serialized block table (see :meth:`export_blocks`).

        Every chain is re-validated against the safe-cost tables and
        its handlers rebound on this CPU, so a tampered or stale
        payload is rejected rather than mis-executed.  Counts as
        ``block_imports``, not ``block_translations`` — a warm start
        from an ahead-of-time artifact leaves the runtime translator
        untouched.  Returns the number of blocks installed.
        """
        import hashlib

        if not self._use_cache:
            raise CPUError(
                "block import requires a block-translating kernel tier"
            )
        if payload.get("schema") != self.BLOCK_TABLE_SCHEMA:
            raise CPUError(
                f"unsupported block-table schema {payload.get('schema')!r}"
            )
        digest = hashlib.sha256(bytes(self.code)).hexdigest()
        if payload.get("code_sha256") != digest:
            raise CPUError("block table was built for different code")
        installed = {}
        for record in payload["blocks"]:
            chains = []
            cum_bytes = []
            cum_cycles = []
            total_bytes = 0
            total_cycles = 0
            for op, operand, next_pc, nbytes, prefix in record["chains"]:
                if op == Op.OPR:
                    handler = self._secondary.get(operand)
                    cost = self._SAFE_SECONDARY_COST.get(operand)
                else:
                    handler = self._primary[op]
                    cost = self._SAFE_PRIMARY_COST.get(op)
                if handler is None or cost is None:
                    raise CPUError("unsafe chain in imported block table")
                cum_bytes.append(total_bytes)
                cum_cycles.append(total_cycles)
                chains.append((handler, operand, next_pc, nbytes,
                               prefix, Op(op).name, cost))
                total_bytes += nbytes
                total_cycles += prefix + cost
            if len(chains) < 2:
                raise CPUError("imported block shorter than two chains")
            tail = record.get("tail")
            if tail is not None:
                op, operand, next_pc, nbytes, prefix = tail
                if op == Op.OPR:
                    handler = self._secondary.get(operand)
                else:
                    handler = self._primary[op]
                if handler is None:
                    raise CPUError("undecodable tail in imported block")
                tail = (handler, operand, next_pc, nbytes, prefix, op)
            pc = record["pc"]
            end = tail[2] if tail is not None else chains[-1][2]
            installed[pc] = (tuple(chains), total_bytes, total_cycles,
                             tuple(cum_bytes), tuple(cum_cycles),
                             tail, pc, end)
        self._blocks.update(installed)
        self._unblocked |= set(payload.get("unblocked", []))
        self.block_imports += len(installed)
        return len(installed)

    # -- conformance --------------------------------------------------------

    def snapshot_state(self, with_memory: bool = True) -> dict:
        """Architectural state as a JSON-able dict.

        This is the fingerprint the differential-testing oracle
        compares between the cached fast path and the byte-at-a-time
        reference path: registers, pointers, flags, the instruction and
        cycle counters, the scheduler queues, and (optionally) a digest
        of data memory.  Anything the two paths could silently disagree
        on belongs here.
        """
        import hashlib

        state = {
            "areg": to_signed(self.areg),
            "breg": to_signed(self.breg),
            "creg": to_signed(self.creg),
            "oreg": self.oreg,
            "iptr": self.iptr,
            "wptr": self.wptr,
            "priority": self.priority,
            "error": self.error,
            "halted": self.halted,
            "deadlocked": self.deadlocked,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "queues": {
                "high": list(self.scheduler.queues[HIGH]),
                "low": list(self.scheduler.queues[LOW]),
            },
            "code_sha256": hashlib.sha256(bytes(self.code)).hexdigest(),
        }
        words = getattr(self.memory, "_words", None)
        if with_memory and words is not None:
            digest = hashlib.sha256()
            for word in words:
                digest.update(word.to_bytes(4, "little"))
            state["memory_sha256"] = digest.hexdigest()
        return state

    @property
    def trace_log(self):
        """The per-instruction trace (requires ``trace=True``)."""
        return list(self._trace_log)

    # -- stack helpers ------------------------------------------------------

    def _push(self, value: int) -> None:
        self.creg = self.breg
        self.breg = self.areg
        self.areg = to_unsigned(value)

    def _pop(self) -> int:
        value = self.areg
        self.areg = self.breg
        self.breg = self.creg
        return value

    # -- process switching -------------------------------------------------

    def _save_iptr(self) -> None:
        """Save the resume point in the workspace (offset −1 word)."""
        self.memory.write_word(self.wptr - 4, self.iptr)

    def _deschedule(self, requeue: bool) -> None:
        """Stop running the current process; optionally requeue it."""
        self._save_iptr()
        if requeue:
            self.scheduler.enqueue(self.wptr, self.priority)
        self._switch_to_next()

    def _switch_to_next(self) -> None:
        nxt = self.scheduler.next_process()
        if nxt is None:
            # Nothing runnable.  Processes may be parked on channel
            # words (deadlock if no external event will free them).
            self.halted = True
            self.deadlocked = True
            return
        self.wptr, self.priority = nxt
        self.iptr = self.memory.read_word(self.wptr - 4)

    def _make_runnable(self, wptr: int, priority: int) -> None:
        self.scheduler.enqueue(wptr, priority)
        if priority == HIGH and self.priority == LOW:
            # Preemption: the high-priority process displaces us now.
            self._deschedule(requeue=True)

    # -- channels -----------------------------------------------------

    def _channel_io(self, is_input: bool) -> None:
        """The soft-channel rendezvous: IN and OUT.

        A channel is a memory word.  Idle it holds NOT_PROCESS; with
        one party waiting it holds that party's process descriptor
        (its data pointer parked in workspace offset −3).  The second
        party performs the copy and reschedules the first.
        """
        count = to_signed(self._pop())
        chan = self._pop()
        pointer = self._pop()
        if count < 0:
            raise CPUError("negative channel transfer count")
        if chan in self.external_channels:
            # Hand the transfer to the engine-mode driver; untimed
            # run() has no engine to block on.
            raise ExternalIO(
                "in" if is_input else "out",
                self.external_channels[chan], pointer, count,
            )
        word = self.memory.read_word(chan)
        if word == NOT_PROCESS:
            # First to arrive: park and deschedule.
            self.memory.write_word(
                chan, make_descriptor(self.wptr, self.priority)
            )
            self.memory.write_word(self.wptr - 12, pointer)
            self.memory.write_word(self.wptr - 16, count)
            self._deschedule(requeue=False)
            return
        # Second to arrive: the copy direction follows our role.
        partner_wptr = descriptor_wptr(word)
        partner_priority = descriptor_priority(word)
        partner_ptr = self.memory.read_word(partner_wptr - 12)
        partner_count = to_signed(self.memory.read_word(partner_wptr - 16))
        if partner_count != count:
            raise CPUError(
                f"channel length mismatch: {count} vs {partner_count}"
            )
        if is_input:
            data = self.memory.read_bytes(partner_ptr, count)
            self.memory.write_bytes(pointer, data)
        else:
            data = self.memory.read_bytes(pointer, count)
            self.memory.write_bytes(partner_ptr, data)
        self.memory.write_word(chan, NOT_PROCESS)
        self._make_runnable(partner_wptr, partner_priority)

    # -- the decode/execute cycle ---------------------------------------

    def _decode(self, pc: int):
        """Decode the full instruction chain starting at ``pc``.

        Returns ``(handler, operand, next_pc, byte_count,
        prefix_cycles, op)`` or ``None`` when the chain cannot be
        decoded (PC out of bounds, chain running off the end of the
        code store, or an unknown secondary) — those cases fall back to
        the byte-wise path so the error surfaces exactly as it always
        did.
        """
        code = self.code
        size = len(code)
        oreg = 0
        cursor = pc
        prefix_cycles = 0
        while True:
            if not 0 <= cursor < size:
                return None
            byte = code[cursor]
            op = byte >> 4
            oreg |= byte & 0xF
            cursor += 1
            if op == Op.PFIX:
                oreg <<= 4
                prefix_cycles += 1
                continue
            if op == Op.NFIX:
                oreg = (~oreg) << 4
                prefix_cycles += 1
                continue
            break
        if op == Op.OPR:
            handler = self._secondary.get(oreg)
        else:
            handler = self._primary[op]
        if handler is None:
            return None
        return (handler, oreg, cursor, cursor - pc, prefix_cycles, op)

    def step(self) -> int:
        """Decode and execute one instruction; returns its cycle cost.

        On the cached fast path one call executes a whole prefix chain
        plus its final opcode and returns the chain's total cost; on
        the turbo tier one call may execute a whole translated basic
        block (bounded by :attr:`step_barrier`); the reference path
        (cache disabled, or mid-chain ``Oreg`` state) executes a single
        code byte per call, exactly as the hardware decodes.
        Architectural state at every chain boundary advances
        identically on all tiers.
        """
        if self.halted:
            raise CPUError("CPU is halted")
        if self._use_cache and self.oreg == 0:
            iptr = self.iptr
            block = self._blocks.get(iptr)
            if block is None and iptr not in self._unblocked:
                block = self._translate_block(iptr)
            if block is not None:
                return self._run_block(block)
            decoded = self._decoded
            entry = decoded.get(iptr)
            if entry is None:
                self.decoded_misses += 1
                entry = self._decode(iptr)
                if entry is not None:
                    decoded[iptr] = entry
            else:
                self.decoded_hits += 1
            if entry is not None:
                handler, operand, next_pc, nbytes, prefix_cycles, op = entry
                self.iptr = next_pc
                self.instructions += nbytes
                self.cycles += prefix_cycles
                cost = handler(operand)
                self.cycles += cost
                if self.trace:
                    self._trace_log.append(
                        (self.instructions, Op(op).name, operand,
                         to_signed(self.areg))
                    )
                return prefix_cycles + cost
        return self._step_byte()

    # -- the turbo tier: basic-block translation ------------------------

    #: Longest straight-line run packed into one block.
    BLOCK_CHAIN_CAP = 64

    def _translate_block(self, pc: int):
        """Compile the straight-line run of safe chains at ``pc``.

        Returns the block record, or None (and remembers the PC in the
        negative cache) when fewer than two safe chains start there —
        those PCs use the plain decoded-chain dispatch.  The record is
        a tuple::

            (chains, total_bytes, total_cycles, cum_bytes, cum_cycles,
             tail, start, end)

        ``chains`` holds ``(handler, operand, next_pc, byte_count,
        prefix_cycles, op_name, cost)`` per safe chain, with ``cost``
        from the static safe-cost tables (pinned against the handlers
        by a regression test).  ``cum_bytes``/``cum_cycles`` are
        exclusive prefix sums for exception fix-up.  ``tail`` is the
        decoded unsafe chain ending the run (or None at a decode
        boundary), and ``[start, end)`` is the code-store span covered
        — including the tail — used for patch invalidation.
        """
        chains = []
        cum_bytes = []
        cum_cycles = []
        total_bytes = 0
        total_cycles = 0
        tail = None
        cursor = pc
        safe_primary = self._SAFE_PRIMARY_COST
        safe_secondary = self._SAFE_SECONDARY_COST
        while len(chains) < self.BLOCK_CHAIN_CAP:
            entry = self._decode(cursor)
            if entry is None:
                break
            handler, operand, next_pc, nbytes, prefix_cycles, op = entry
            if op == Op.OPR:
                cost = safe_secondary.get(operand)
            else:
                cost = safe_primary.get(op)
            if cost is None:
                tail = entry
                break
            cum_bytes.append(total_bytes)
            cum_cycles.append(total_cycles)
            chains.append((handler, operand, next_pc, nbytes,
                           prefix_cycles, Op(op).name, cost))
            total_bytes += nbytes
            total_cycles += prefix_cycles + cost
            cursor = next_pc
        if len(chains) < 2:
            self._unblocked.add(pc)
            return None
        end = tail[2] if tail is not None else cursor
        block = (tuple(chains), total_bytes, total_cycles,
                 tuple(cum_bytes), tuple(cum_cycles), tail, pc, end)
        self._blocks[pc] = block
        self.block_translations += 1
        self.block_chains += len(chains)
        return block

    def _run_block(self, block) -> int:
        """Execute one translated block; returns its total cycle cost."""
        chains, total_bytes, total_cycles, cum_bytes, cum_cycles, \
            tail, start, end = block
        barrier = self.step_barrier
        if barrier is not None and self.instructions + (end - start) \
                >= barrier:
            return self._run_block_careful(block, barrier)
        self.block_hits += 1
        if self.trace:
            trace_log = self._trace_log
            for entry in chains:
                self.iptr = entry[2]
                self.instructions += entry[3]
                self.cycles += entry[4]
                entry[0](entry[1])
                self.cycles += entry[6]
                trace_log.append(
                    (self.instructions, entry[5], entry[1],
                     to_signed(self.areg))
                )
        else:
            i = 0
            try:
                for entry in chains:
                    self.iptr = entry[2]
                    entry[0](entry[1])
                    i += 1
            except BaseException:
                # Restore the exact chain-at-a-time state at the
                # failing chain: full cost of completed chains, plus
                # this chain's bytes and prefix cycles (the fast path
                # charges those before invoking the handler).
                self.instructions += cum_bytes[i] + chains[i][3]
                self.cycles += cum_cycles[i] + chains[i][4]
                raise
            self.instructions += total_bytes
            self.cycles += total_cycles
        cost = total_cycles
        if tail is not None:
            cost += self._exec_chain(tail)
        return cost

    def _run_block_careful(self, block, barrier: int) -> int:
        """Chain-at-a-time block execution honouring ``step_barrier``.

        Returns control at the first chain boundary where
        ``instructions >= barrier`` — bit-identically to how
        chain-at-a-time dispatch paces a harness's between-step checks.
        """
        chains, _tb, _tc, _cb, _cc, tail, _start, _end = block
        self.block_hits += 1
        total = 0
        trace = self.trace
        for entry in chains:
            self.iptr = entry[2]
            self.instructions += entry[3]
            self.cycles += entry[4]
            entry[0](entry[1])
            self.cycles += entry[6]
            if trace:
                self._trace_log.append(
                    (self.instructions, entry[5], entry[1],
                     to_signed(self.areg))
                )
            total += entry[4] + entry[6]
            if self.instructions >= barrier:
                return total
        if tail is not None:
            total += self._exec_chain(tail)
        return total

    def _exec_chain(self, entry) -> int:
        """Execute one decoded chain with exact fast-path semantics."""
        handler, operand, next_pc, nbytes, prefix_cycles, op = entry
        self.iptr = next_pc
        self.instructions += nbytes
        self.cycles += prefix_cycles
        cost = handler(operand)
        self.cycles += cost
        if self.trace:
            self._trace_log.append(
                (self.instructions, Op(op).name, operand,
                 to_signed(self.areg))
            )
        return prefix_cycles + cost

    def _step_byte(self) -> int:
        """The byte-at-a-time reference decode path."""
        if not 0 <= self.iptr < len(self.code):
            raise CPUError(f"Iptr {self.iptr:#x} outside code")
        byte = self.code[self.iptr]
        op = byte >> 4
        nibble = byte & 0xF
        self.iptr += 1
        self.instructions += 1
        self.oreg |= nibble

        if op == Op.PFIX:
            self.oreg <<= 4
            self.cycles += 1
            return 1
        if op == Op.NFIX:
            self.oreg = (~self.oreg) << 4
            self.cycles += 1
            return 1

        operand = self.oreg
        self.oreg = 0
        cost = self._execute(op, operand)
        self.cycles += cost
        if self.trace:
            self._trace_log.append(
                (self.instructions, Op(op).name, operand,
                 to_signed(self.areg))
            )
        return cost

    def _execute(self, op: int, operand: int) -> int:
        handler = self._primary[op] if 0 <= op < 16 else None
        if handler is None:  # pragma: no cover - all 16 opcodes handled
            raise CPUError(f"undecodable opcode {op:#x}")
        return handler(operand)

    # -- primary opcode handlers -------------------------------------------
    #
    # One bound method per direct opcode.  Each takes the (fully
    # prefixed) operand and returns its cycle cost; the decoded cache
    # stores these bound methods directly.

    def _op_ldc(self, operand: int) -> int:
        self._push(operand)
        return CYCLE_COSTS["default"]

    def _op_ldl(self, operand: int) -> int:
        self._push(self.memory.read_word(self.wptr + 4 * operand))
        return CYCLE_COSTS["default"]

    def _op_stl(self, operand: int) -> int:
        self.memory.write_word(self.wptr + 4 * operand, self._pop())
        return CYCLE_COSTS["default"]

    def _op_ldlp(self, operand: int) -> int:
        self._push(self.wptr + 4 * operand)
        return CYCLE_COSTS["default"]

    def _op_ldnl(self, operand: int) -> int:
        self.areg = self.memory.read_word(
            to_unsigned(self.areg) + 4 * operand
        )
        return CYCLE_COSTS["default"]

    def _op_stnl(self, operand: int) -> int:
        address = self._pop()
        value = self._pop()
        self.memory.write_word(to_unsigned(address) + 4 * operand, value)
        return CYCLE_COSTS["default"]

    def _op_ldnlp(self, operand: int) -> int:
        self.areg = to_unsigned(self.areg + 4 * operand)
        return CYCLE_COSTS["default"]

    def _op_adc(self, operand: int) -> int:
        result = to_signed(self.areg) + operand
        if not MIN_INT <= result <= MAX_INT:
            self.error = True
        self.areg = to_unsigned(result)
        return CYCLE_COSTS["default"]

    def _op_eqc(self, operand: int) -> int:
        self.areg = 1 if to_signed(self.areg) == operand else 0
        return CYCLE_COSTS["default"]

    def _op_j(self, operand: int) -> int:
        self.iptr += operand
        # Descheduling point: timeslice low-priority processes.
        if self.scheduler.timeslice_expired():
            self._deschedule(requeue=True)
        return CYCLE_COSTS["branch"]

    def _op_cj(self, operand: int) -> int:
        if to_signed(self.areg) == 0:
            self.iptr += operand
        else:
            self._pop()
        return CYCLE_COSTS["branch"]

    def _op_call(self, operand: int) -> int:
        mem = self.memory
        self.wptr -= 16
        mem.write_word(self.wptr, self.iptr)
        mem.write_word(self.wptr + 4, self.areg)
        mem.write_word(self.wptr + 8, self.breg)
        mem.write_word(self.wptr + 12, self.creg)
        self.iptr += operand
        return CYCLE_COSTS["call"]

    def _op_ajw(self, operand: int) -> int:
        self.wptr += 4 * operand
        return CYCLE_COSTS["default"]

    def _op_opr(self, operand: int) -> int:
        return self._operate(operand)

    def _operate(self, sec: int) -> int:
        handler = self._secondary.get(sec)
        if handler is None:
            raise CPUError(f"unknown secondary opcode {sec:#x}")
        return handler(sec)

    # -- secondary (OPR) handlers ------------------------------------------
    #
    # Each takes the secondary number (ignored — it is fixed per
    # handler; the uniform signature keeps cache dispatch branch-free)
    # and returns its cycle cost.

    def _sec_rev(self, _sec=None) -> int:
        self.areg, self.breg = self.breg, self.areg
        return CYCLE_COSTS["default"]

    def _sec_add(self, _sec=None) -> int:
        result = to_signed(self.breg) + to_signed(self.areg)
        if not MIN_INT <= result <= MAX_INT:
            self.error = True
        self._binary(result)
        return CYCLE_COSTS["default"]

    def _sec_sub(self, _sec=None) -> int:
        result = to_signed(self.breg) - to_signed(self.areg)
        if not MIN_INT <= result <= MAX_INT:
            self.error = True
        self._binary(result)
        return CYCLE_COSTS["default"]

    def _sec_diff(self, _sec=None) -> int:
        self._binary(self.breg - self.areg)  # modulo, no error
        return CYCLE_COSTS["default"]

    def _sec_mul(self, _sec=None) -> int:
        result = to_signed(self.breg) * to_signed(self.areg)
        if not MIN_INT <= result <= MAX_INT:
            self.error = True
        self._binary(result)
        return CYCLE_COSTS["mul"]

    def _sec_div(self, _sec=None) -> int:
        a, b = to_signed(self.areg), to_signed(self.breg)
        if a == 0 or (a == -1 and b == MIN_INT):
            self.error = True
            self._binary(0)
        else:
            self._binary(int(b / a))  # trunc toward zero
        return CYCLE_COSTS["div"]

    def _sec_rem(self, _sec=None) -> int:
        a, b = to_signed(self.areg), to_signed(self.breg)
        if a == 0:
            self.error = True
            self._binary(0)
        else:
            self._binary(b - int(b / a) * a)
        return CYCLE_COSTS["div"]

    def _sec_gt(self, _sec=None) -> int:
        self._binary(
            1 if to_signed(self.breg) > to_signed(self.areg) else 0
        )
        return CYCLE_COSTS["default"]

    def _sec_and(self, _sec=None) -> int:
        self._binary(self.breg & self.areg)
        return CYCLE_COSTS["default"]

    def _sec_or(self, _sec=None) -> int:
        self._binary(self.breg | self.areg)
        return CYCLE_COSTS["default"]

    def _sec_xor(self, _sec=None) -> int:
        self._binary(self.breg ^ self.areg)
        return CYCLE_COSTS["default"]

    def _sec_not(self, _sec=None) -> int:
        self.areg = to_unsigned(~self.areg)
        return CYCLE_COSTS["default"]

    def _sec_shl(self, _sec=None) -> int:
        shift = to_signed(self.areg)
        self._binary(self.breg << shift if 0 <= shift < 32 else 0)
        return CYCLE_COSTS["default"]

    def _sec_shr(self, _sec=None) -> int:
        shift = to_signed(self.areg)
        self._binary(self.breg >> shift if 0 <= shift < 32 else 0)
        return CYCLE_COSTS["default"]

    def _sec_mint(self, _sec=None) -> int:
        self._push(0x80000000)
        return CYCLE_COSTS["default"]

    def _sec_dup(self, _sec=None) -> int:
        self._push(self.areg)
        return CYCLE_COSTS["default"]

    def _sec_ret(self, _sec=None) -> int:
        self.iptr = self.memory.read_word(self.wptr)
        self.wptr += 16
        return CYCLE_COSTS["call"]

    def _sec_gcall(self, _sec=None) -> int:
        self.areg, self.iptr = self.iptr, to_unsigned(self.areg)
        return CYCLE_COSTS["default"]

    def _sec_gajw(self, _sec=None) -> int:
        self.areg, self.wptr = self.wptr, to_unsigned(self.areg)
        return CYCLE_COSTS["default"]

    def _sec_ldpi(self, _sec=None) -> int:
        self.areg = to_unsigned(self.areg + self.iptr)
        return CYCLE_COSTS["default"]

    def _sec_startp(self, _sec=None) -> int:
        # Simulator deviation from the transputer: B holds the new
        # process's *absolute* start address rather than an
        # Iptr-relative offset — our assembler resolves labels to
        # absolute addresses, which keeps PAR setup code simple.
        new_wptr = to_unsigned(self._pop())
        start = to_unsigned(self._pop())
        self.memory.write_word(new_wptr - 4, start)
        self._make_runnable(new_wptr, self.priority)
        return CYCLE_COSTS["process"]

    def _sec_endp(self, _sec=None) -> int:
        mem = self.memory
        join = to_unsigned(self._pop())
        count = to_signed(mem.read_word(join + 4))
        if count <= 1:
            # Last to finish: continue the successor.
            mem.write_word(join + 4, 0)
            self.wptr = join
            self.iptr = mem.read_word(join)
        else:
            mem.write_word(join + 4, count - 1)
            self._switch_to_next()
        return CYCLE_COSTS["process"]

    def _sec_stopp(self, _sec=None) -> int:
        self._deschedule(requeue=False)
        return CYCLE_COSTS["process"]

    def _sec_runp(self, _sec=None) -> int:
        descriptor = to_unsigned(self._pop())
        self._make_runnable(
            descriptor_wptr(descriptor), descriptor_priority(descriptor)
        )
        return CYCLE_COSTS["process"]

    def _sec_in(self, _sec=None) -> int:
        self._channel_io(is_input=True)
        return CYCLE_COSTS["io_setup"]

    def _sec_out(self, _sec=None) -> int:
        self._channel_io(is_input=False)
        return CYCLE_COSTS["io_setup"]

    def _sec_outword(self, _sec=None) -> int:
        # outword: A = word, B = channel.  Stage the word in the
        # workspace (offset 0) and run the OUT protocol on it.
        word = self._pop()
        chan = self._pop()
        self.memory.write_word(self.wptr, word)
        self._push(self.wptr)  # pointer
        self._push(chan)
        self._push(4)  # count
        # Stack is now (A=count, B=chan, C=ptr) — as OUT expects.
        self._channel_io(is_input=False)
        return CYCLE_COSTS["io_setup"]

    def _sec_alt(self, _sec=None) -> int:
        # Simplified: alternation handled at the Occam DSL level.
        return CYCLE_COSTS["default"]

    def _sec_testerr(self, _sec=None) -> int:
        self._push(1 if self.error else 0)
        self.error = False
        return CYCLE_COSTS["default"]

    def _sec_seterr(self, _sec=None) -> int:
        self.error = True
        return CYCLE_COSTS["default"]

    def _sec_stoperr(self, _sec=None) -> int:
        if self.error:
            self._deschedule(requeue=False)
        return CYCLE_COSTS["default"]

    def _sec_terminate(self, _sec=None) -> int:
        self.halted = True
        return CYCLE_COSTS["default"]

    def _binary(self, result: int) -> None:
        """Replace B and A with one result (the binary-op stack shape)."""
        self.areg = to_unsigned(result)
        self.breg = self.creg

    # -- drivers -----------------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> int:
        """Untimed execution until TERMINATE or deadlock.

        Returns the instruction count.  Raises :class:`CPUError` if the
        step budget is exhausted (runaway program) or the program
        touches an external (link) channel, which needs engine mode.
        """
        for _ in range(max_steps):
            if self.halted:
                return self.instructions
            try:
                self.step()
            except ExternalIO as io:
                raise CPUError(
                    "external channel I/O requires engine mode "
                    "(as_process)"
                ) from io
        raise CPUError(f"exceeded {max_steps} steps")

    def as_process(self, engine, specs, yield_every: int = 64):
        """Engine process: run with simulated time.

        Charges ``specs``-derived nanoseconds per instruction cycle and
        yields to the engine every ``yield_every`` executed code bytes
        so other node components interleave.  IN/OUT on registered
        external channels (see :attr:`external_channels` and
        :mod:`repro.cp.link_channels`) block on the engine-level
        channel — this is how an assembly program talks over the
        node's serial links.

        Time owed to the engine is tracked as *cycle-counter deltas*
        (``self.cycles`` minus what has already been charged), so the
        accounting is identical whether :meth:`step` executes one byte
        or one whole decoded chain per call.  The turbo tier is paced
        through :attr:`step_barrier`: a translated block that would run
        through the next yield point instead returns at the first chain
        boundary past it — exactly where chain-at-a-time dispatch
        yields — so the engine-side event interleaving is bit-identical
        across tiers.
        """
        if self not in engine.cp_cpus:
            engine.cp_cpus.append(self)
        cycle_ns = max(1, round(1000.0 / specs.cp_mips))
        charged = self.cycles
        marker = self.instructions
        self.step_barrier = marker + yield_every
        while not self.halted:
            try:
                self.step()
            except ExternalIO as io:
                # Flush accumulated CPU time, then do the transfer at
                # engine pace (DMA + wire or rendezvous).
                pending = self.cycles - charged
                if pending:
                    yield engine.timeout(pending * cycle_ns)
                    charged = self.cycles
                    marker = self.instructions
                    self.step_barrier = marker + yield_every
                if io.direction == "out":
                    data = self.memory.read_bytes(io.pointer, io.count)
                    yield from io.channel.send(data)
                else:
                    data = yield from io.channel.recv()
                    if len(data) != io.count:
                        raise CPUError(
                            f"external channel delivered {len(data)} "
                            f"bytes, IN expected {io.count}"
                        )
                    self.memory.write_bytes(io.pointer, bytes(data))
                continue
            if self.instructions - marker >= yield_every:
                yield engine.timeout((self.cycles - charged) * cycle_ns)
                charged = self.cycles
                marker = self.instructions
                self.step_barrier = marker + yield_every
        self.step_barrier = None
        if self.cycles != charged:
            yield engine.timeout((self.cycles - charged) * cycle_ns)
        return self.instructions

    def __repr__(self):
        return (
            f"<CPU iptr={self.iptr:#x} A={to_signed(self.areg)} "
            f"B={to_signed(self.breg)} C={to_signed(self.creg)} "
            f"{'halted' if self.halted else 'running'}>"
        )


#: Primary dispatch: index = direct opcode.  PFIX/NFIX are handled in
#: the decode loop itself and never dispatched.
CPU._PRIMARY_FUNCS = (
    CPU._op_j,      # 0x0
    CPU._op_ldlp,   # 0x1
    None,           # 0x2 PFIX
    CPU._op_ldnl,   # 0x3
    CPU._op_ldc,    # 0x4
    CPU._op_ldnlp,  # 0x5
    None,           # 0x6 NFIX
    CPU._op_ldl,    # 0x7
    CPU._op_adc,    # 0x8
    CPU._op_call,   # 0x9
    CPU._op_cj,     # 0xA
    CPU._op_ajw,    # 0xB
    CPU._op_eqc,    # 0xC
    CPU._op_stl,    # 0xD
    CPU._op_stnl,   # 0xE
    CPU._op_opr,    # 0xF
)

#: Block-safe primary opcodes → static cycle cost.  Safe means: no
#: control transfer, no scheduler interaction, no channel I/O — the
#: operation only touches the evaluation stack, workspace/data memory,
#: the workspace pointer, and the error flag, so a translated block
#: may run it without surfacing a chain boundary.  The costs mirror
#: what each handler returns (pinned by a regression test).
CPU._SAFE_PRIMARY_COST = {
    Op.LDLP: CYCLE_COSTS["default"],
    Op.LDNL: CYCLE_COSTS["default"],
    Op.LDC: CYCLE_COSTS["default"],
    Op.LDNLP: CYCLE_COSTS["default"],
    Op.LDL: CYCLE_COSTS["default"],
    Op.ADC: CYCLE_COSTS["default"],
    Op.AJW: CYCLE_COSTS["default"],
    Op.EQC: CYCLE_COSTS["default"],
    Op.STL: CYCLE_COSTS["default"],
    Op.STNL: CYCLE_COSTS["default"],
}

#: Block-safe secondary opcodes → static cycle cost.  Excluded (block
#: enders): RET/GCALL (control transfer), STARTP/ENDP/STOPP/RUNP/
#: STOPERR (scheduler), IN/OUT/OUTWORD (channel I/O, may raise
#: ExternalIO or deschedule), TERMINATE (halts).
CPU._SAFE_SECONDARY_COST = {
    Secondary.REV: CYCLE_COSTS["default"],
    Secondary.ADD: CYCLE_COSTS["default"],
    Secondary.SUB: CYCLE_COSTS["default"],
    Secondary.DIFF: CYCLE_COSTS["default"],
    Secondary.MUL: CYCLE_COSTS["mul"],
    Secondary.DIV: CYCLE_COSTS["div"],
    Secondary.REM: CYCLE_COSTS["div"],
    Secondary.GT: CYCLE_COSTS["default"],
    Secondary.AND: CYCLE_COSTS["default"],
    Secondary.OR: CYCLE_COSTS["default"],
    Secondary.XOR: CYCLE_COSTS["default"],
    Secondary.NOT: CYCLE_COSTS["default"],
    Secondary.SHL: CYCLE_COSTS["default"],
    Secondary.SHR: CYCLE_COSTS["default"],
    Secondary.MINT: CYCLE_COSTS["default"],
    Secondary.DUP: CYCLE_COSTS["default"],
    Secondary.GAJW: CYCLE_COSTS["default"],
    Secondary.LDPI: CYCLE_COSTS["default"],
    Secondary.ALT: CYCLE_COSTS["default"],
    Secondary.TESTERR: CYCLE_COSTS["default"],
    Secondary.SETERR: CYCLE_COSTS["default"],
}

#: Secondary dispatch: secondary number → handler.
CPU._SECONDARY_FUNCS = {
    Secondary.REV: CPU._sec_rev,
    Secondary.ADD: CPU._sec_add,
    Secondary.SUB: CPU._sec_sub,
    Secondary.DIFF: CPU._sec_diff,
    Secondary.MUL: CPU._sec_mul,
    Secondary.DIV: CPU._sec_div,
    Secondary.REM: CPU._sec_rem,
    Secondary.GT: CPU._sec_gt,
    Secondary.AND: CPU._sec_and,
    Secondary.OR: CPU._sec_or,
    Secondary.XOR: CPU._sec_xor,
    Secondary.NOT: CPU._sec_not,
    Secondary.SHL: CPU._sec_shl,
    Secondary.SHR: CPU._sec_shr,
    Secondary.MINT: CPU._sec_mint,
    Secondary.DUP: CPU._sec_dup,
    Secondary.RET: CPU._sec_ret,
    Secondary.GCALL: CPU._sec_gcall,
    Secondary.GAJW: CPU._sec_gajw,
    Secondary.LDPI: CPU._sec_ldpi,
    Secondary.STARTP: CPU._sec_startp,
    Secondary.ENDP: CPU._sec_endp,
    Secondary.STOPP: CPU._sec_stopp,
    Secondary.RUNP: CPU._sec_runp,
    Secondary.IN: CPU._sec_in,
    Secondary.OUT: CPU._sec_out,
    Secondary.OUTWORD: CPU._sec_outword,
    Secondary.ALT: CPU._sec_alt,
    Secondary.TESTERR: CPU._sec_testerr,
    Secondary.SETERR: CPU._sec_seterr,
    Secondary.STOPERR: CPU._sec_stoperr,
    Secondary.TERMINATE: CPU._sec_terminate,
}
