"""The C-like software driver of paper Listing 7, plus the ISA executor.

The driver exposes the functions the paper's C snippets call --
``set_src_and_dst``, ``set_data_addr``, ``set_metadata_addr``,
``set_span``, ``set_stride``, ``set_metadata_stride``, ``set_axis`` and
``stellar_issue`` -- each of which *encodes a real instruction* (Table II)
into the stream.  ``stellar_issue`` hands the accumulated stream to the
:class:`ISAExecutor`, which decodes every instruction (exercising the
encoding round-trip), assembles the transfer descriptor, performs the data
movement against the :class:`~repro.isa.machine.Machine` with real address
arithmetic, and charges DMA/DRAM cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


from ..core.memspec import AxisType
from ..sim.dma import TransferDescriptor
from .encoding import (
    ENTIRE_AXIS,
    AxisTypeCode,
    Instruction,
    MetadataType,
    Opcode,
    Target,
    decode,
    make,
)
from .machine import BufferStore, Machine

_AXIS_CODE_TO_TYPE = {
    AxisTypeCode.DENSE: AxisType.DENSE,
    AxisTypeCode.COMPRESSED: AxisType.COMPRESSED,
    AxisTypeCode.BITVECTOR: AxisType.BITVECTOR,
    AxisTypeCode.LINKED_LIST: AxisType.LINKED_LIST,
}


class _SideConfig:
    """Decoded configuration for one side (src or dst) of a transfer."""

    def __init__(self):
        self.data_addr: int = 0
        self.metadata_addrs: Dict[Tuple[int, int], int] = {}
        self.spans: Dict[int, int] = {}
        self.data_strides: Dict[int, int] = {}
        self.metadata_strides: Dict[Tuple[int, int, int], int] = {}
        self.axis_types: Dict[int, AxisType] = {}

    def rank(self) -> int:
        axes = set(self.spans) | set(self.axis_types)
        return (max(axes) + 1) if axes else 0


class ISAExecutor:
    """Decodes instruction streams and performs the transfers."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.unit_ids: Dict[str, int] = {"DRAM": 0}
        for offset, name in enumerate(sorted(machine.buffers)):
            self.unit_ids[name] = offset + 1
        self.unit_names = {v: k for k, v in self.unit_ids.items()}
        self._reset_config()
        self.issued_transfers = 0

    def _reset_config(self) -> None:
        self.src = _SideConfig()
        self.dst = _SideConfig()
        self.src_unit: Optional[str] = None
        self.dst_unit: Optional[str] = None
        self.constants: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def execute(self, stream: Sequence[Tuple[int, int, int]]) -> int:
        """Execute an encoded stream; returns cycles charged by issues."""
        cycles = 0
        for opcode, rs1, rs2 in stream:
            instruction = decode(opcode, rs1, rs2)
            cycles += self._execute_one(instruction)
        return cycles

    def _sides(self, target: Target) -> List[_SideConfig]:
        if target is Target.FOR_SRC:
            return [self.src]
        if target is Target.FOR_DST:
            return [self.dst]
        return [self.src, self.dst]

    def _execute_one(self, instruction: Instruction) -> int:
        op = instruction.opcode
        if op is Opcode.SET_SRC_AND_DST:
            src_id = instruction.value >> 8
            dst_id = instruction.value & 0xFF
            self.src_unit = self.unit_names[src_id]
            self.dst_unit = self.unit_names[dst_id]
            return 0
        if op is Opcode.SET_ADDRESS:
            for side in self._sides(instruction.target):
                side.data_addr = instruction.value
            return 0
        if op is Opcode.SET_METADATA_ADDRESS:
            for side in self._sides(instruction.target):
                side.metadata_addrs[
                    (instruction.axis, instruction.metadata_type)
                ] = instruction.value
            return 0
        if op is Opcode.SET_SPAN:
            for side in self._sides(instruction.target):
                side.spans[instruction.axis] = instruction.value
            return 0
        if op is Opcode.SET_DATA_STRIDE:
            for side in self._sides(instruction.target):
                side.data_strides[instruction.axis] = instruction.value
            return 0
        if op is Opcode.SET_METADATA_STRIDE:
            for side in self._sides(instruction.target):
                key = (
                    instruction.axis,
                    instruction.metadata_type,
                    instruction.value >> 32,
                )
                side.metadata_strides[key] = instruction.value & ((1 << 32) - 1)
            return 0
        if op is Opcode.SET_AXIS_TYPE:
            code = AxisTypeCode(instruction.value)
            for side in self._sides(instruction.target):
                side.axis_types[instruction.axis] = _AXIS_CODE_TO_TYPE[code]
            return 0
        if op is Opcode.SET_CONSTANT:
            self.constants[instruction.axis] = instruction.value
            return 0
        if op is Opcode.ISSUE:
            return self._issue()
        raise ValueError(f"unhandled opcode {op}")

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------

    def _issue(self) -> int:
        if self.src_unit is None or self.dst_unit is None:
            raise RuntimeError("issue before set_src_and_dst")
        self.issued_transfers += 1
        if self.src_unit == "DRAM" and self.dst_unit != "DRAM":
            cycles = self._dram_to_buffer(self.machine.buffer(self.dst_unit))
        elif self.dst_unit == "DRAM" and self.src_unit != "DRAM":
            cycles = self._buffer_to_dram(self.machine.buffer(self.src_unit))
        else:
            raise RuntimeError(
                f"unsupported transfer {self.src_unit} -> {self.dst_unit}"
            )
        self._reset_config()
        return cycles

    def _axis_types(self, side: _SideConfig) -> List[AxisType]:
        rank = side.rank()
        return [side.axis_types.get(axis, AxisType.DENSE) for axis in range(rank)]

    def _dram_to_buffer(self, store: BufferStore) -> int:
        side = self.src
        axis_types = self._axis_types(side)
        store.clear()
        word = self.machine.word_bytes
        transfers: List[TransferDescriptor] = []

        if all(t is AxisType.DENSE for t in axis_types):
            elements = self._move_dense_in(store, side)
            transfers.append(TransferDescriptor(elements * word))
        elif axis_types[0] is AxisType.COMPRESSED:
            counts = self._move_csr_in(store, side)
            row_id_words, coord_words, data_words = counts
            transfers.append(TransferDescriptor(row_id_words * word))
            transfers.append(TransferDescriptor(coord_words * word, dependency=0))
            transfers.append(TransferDescriptor(data_words * word, dependency=0))
        else:
            raise RuntimeError(
                f"unsupported source axis formats {[t.value for t in axis_types]}"
            )
        return self.machine.charge_transfers(transfers)

    def _move_dense_in(self, store: BufferStore, side: _SideConfig) -> int:
        rank = side.rank()
        spans = [side.spans.get(axis, 1) for axis in range(rank)]
        strides = [side.data_strides.get(axis, 1) for axis in range(rank)]

        def rec(axis: int, base: int):
            if axis < 0:
                store.data.append(self.machine.dram.read_word(base))
                return
            for position in range(spans[axis]):
                rec(axis - 1, base + position * strides[axis])

        rec(rank - 1, side.data_addr)
        return len(store.data)

    def _move_csr_in(self, store: BufferStore, side: _SideConfig) -> Tuple[int, int, int]:
        """Move a CSR matrix (Listing 7's second snippet): row-id segment
        pointers, then the coordinate and data arrays they select."""
        rows = side.spans.get(1)
        if rows is None or rows == ENTIRE_AXIS:
            raise RuntimeError("CSR move requires the outer span (N_ROWS)")
        row_id_addr = side.metadata_addrs.get((0, int(MetadataType.ROW_ID)))
        coord_addr = side.metadata_addrs.get((0, int(MetadataType.COORD)))
        if row_id_addr is None or coord_addr is None:
            raise RuntimeError("CSR move requires ROW_ID and COORD addresses")

        row_ids = [
            int(self.machine.dram.read_word(row_id_addr + r)) for r in range(rows + 1)
        ]
        nnz = row_ids[-1] - row_ids[0]
        coords = self.machine.dram.read_block(coord_addr + row_ids[0], nnz)
        data = self.machine.dram.read_block(side.data_addr + row_ids[0], nnz)

        store.data = list(data)
        store.metadata[(0, "ROW_ID")] = row_ids
        store.metadata[(0, "COORD")] = [int(c) for c in coords]
        return rows + 1, nnz, nnz

    def _buffer_to_dram(self, store: BufferStore) -> int:
        side = self.dst
        rank = side.rank()
        spans = [side.spans.get(axis, 1) for axis in range(rank)]
        strides = [side.data_strides.get(axis, 1) for axis in range(rank)]
        word = self.machine.word_bytes
        cursor = 0

        def rec(axis: int, base: int):
            nonlocal cursor
            if axis < 0:
                value = store.data[cursor] if cursor < len(store.data) else 0
                self.machine.dram.write_word(base, value)
                cursor += 1
                return
            for position in range(spans[axis]):
                rec(axis - 1, base + position * strides[axis])

        rec(rank - 1, side.data_addr)
        transfers = [TransferDescriptor(max(1, cursor) * word)]
        return self.machine.charge_transfers(transfers)


class StellarDriver:
    """Listing 7's C API, building and executing real instruction streams."""

    FOR_SRC = Target.FOR_SRC
    FOR_DST = Target.FOR_DST
    FOR_BOTH = Target.FOR_BOTH
    DENSE = AxisTypeCode.DENSE
    COMPRESSED = AxisTypeCode.COMPRESSED
    BITVECTOR = AxisTypeCode.BITVECTOR
    LINKED_LIST = AxisTypeCode.LINKED_LIST
    ROW_ID = MetadataType.ROW_ID
    COORDS = MetadataType.COORD
    ENTIRE_AXIS = ENTIRE_AXIS

    def __init__(self, machine: Machine, check: bool = True):
        self.machine = machine
        self.executor = ISAExecutor(machine)
        self.stream: List[Tuple[int, int, int]] = []
        self.history: List[Tuple[int, int, int]] = []
        #: run the static program verifier on every stream before it
        #: reaches the executor (raises repro.analysis.AnalysisError).
        self.check = check

    def _push(self, instruction: Instruction) -> None:
        encoded = instruction.encode()
        self.stream.append(encoded)
        self.history.append(encoded)

    # -- Listing 7 API -------------------------------------------------

    def set_src_and_dst(self, src: str, dst: str) -> None:
        value = (self.executor.unit_ids[src] << 8) | self.executor.unit_ids[dst]
        self._push(make(Opcode.SET_SRC_AND_DST, value=value))

    def set_data_addr(self, target: Target, address: int) -> None:
        self._push(make(Opcode.SET_ADDRESS, target, value=address))

    def set_metadata_addr(
        self, target: Target, axis: int, metadata_type: MetadataType, address: int
    ) -> None:
        self._push(
            make(
                Opcode.SET_METADATA_ADDRESS,
                target,
                axis=axis,
                metadata_type=int(metadata_type),
                value=address,
            )
        )

    def set_span(self, target: Target, axis: int, span: int) -> None:
        self._push(make(Opcode.SET_SPAN, target, axis=axis, value=span))

    def set_stride(self, target: Target, axis: int, stride: int) -> None:
        self._push(make(Opcode.SET_DATA_STRIDE, target, axis=axis, value=stride))

    def set_metadata_stride(
        self,
        target: Target,
        addr_gen_axis: int,
        axis: int,
        metadata_type: MetadataType,
        stride: int,
    ) -> None:
        value = (addr_gen_axis << 32) | stride
        self._push(
            make(
                Opcode.SET_METADATA_STRIDE,
                target,
                axis=axis,
                metadata_type=int(metadata_type),
                value=value,
            )
        )

    def set_axis(self, target: Target, axis: int, axis_type: AxisTypeCode) -> None:
        self._push(
            make(Opcode.SET_AXIS_TYPE, target, axis=axis, value=int(axis_type))
        )

    def set_constant(self, constant_id: int, value: int) -> None:
        self._push(make(Opcode.SET_CONSTANT, axis=constant_id, value=value))

    def stellar_issue(self) -> int:
        """Issue the pending stream; returns the cycles the transfer took."""
        self._push(make(Opcode.ISSUE))
        stream, self.stream = self.stream, []
        if self.check:
            from ..analysis.diagnostics import AnalysisError, errors_only
            from ..analysis.program import check_program, machine_unit_names
            from ..obs.profile import span

            with span("analysis.program"):
                findings = errors_only(
                    check_program(stream, machine_unit_names(self.machine))
                )
            if findings:
                raise AnalysisError(findings)
        return self.executor.execute(stream)
