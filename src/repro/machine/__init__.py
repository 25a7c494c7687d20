"""Executable cycle-level machine models: the cacheless MM-machine and the
cache-based CC-machine of Figures 2 and 3, plus a driver that materialises
VCM workloads for cross-validation against the analytical equations."""

from repro.machine.ops import (
    LoadPair,
    Operation,
    OpTable,
    VectorCompute,
    VectorLoad,
    VectorStore,
)
from repro.machine.programs import (
    fft_program,
    jacobi_program,
    matmul_program,
    strided_reuse_program,
)
from repro.machine.report import ExecutionReport
from repro.machine.trace_runner import compare_machines_on_trace, run_trace
from repro.machine.vcm_driver import DrivenResult, VCMDriver
from repro.machine.vector_machine import CCMachine, MMMachine, VectorMachine

__all__ = [
    "CCMachine",
    "compare_machines_on_trace",
    "DrivenResult",
    "ExecutionReport",
    "LoadPair",
    "MMMachine",
    "Operation",
    "OpTable",
    "VCMDriver",
    "VectorCompute",
    "VectorLoad",
    "VectorMachine",
    "VectorStore",
    "fft_program",
    "jacobi_program",
    "matmul_program",
    "run_trace",
    "strided_reuse_program",
]
