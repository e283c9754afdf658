"""The top-level accelerator facade: Stellar's user-facing entry point.

An :class:`Accelerator` bundles the five independent design axes of paper
Section III and drives the full generation flow of Figure 1: compile the
specifications, emit Verilog, instantiate a simulator, and report area --
each axis replaceable in isolation (the separation of concerns the paper
argues for).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from .balancing import LoadBalancingScheme
from .compiler import CompiledDesign, compile_design
from .dataflow import SpaceTimeTransform
from .expr import Bounds
from .functionality import FunctionalSpec
from .memspec import MemoryBufferSpec
from .sparsity import SparsityStructure


class Accelerator:
    """A complete accelerator description across Stellar's five axes.

    Example (a 4x4 output-stationary dense matmul unit)::

        acc = Accelerator(
            spec=matmul_spec(),
            bounds=Bounds({"i": 4, "j": 4, "k": 4}),
            transform=output_stationary(),
        )
        design = acc.build()
        verilog = design.to_verilog()
    """

    def __init__(
        self,
        spec: FunctionalSpec,
        bounds: Union[Bounds, Mapping[str, int]],
        transform: SpaceTimeTransform,
        sparsity: Optional[SparsityStructure] = None,
        balancing: Optional[LoadBalancingScheme] = None,
        membufs: Optional[Mapping[str, MemoryBufferSpec]] = None,
        element_bits: int = 32,
    ):
        self.spec = spec
        self.bounds = bounds if isinstance(bounds, Bounds) else Bounds(bounds)
        self.transform = transform
        self.sparsity = sparsity or SparsityStructure()
        self.balancing = balancing or LoadBalancingScheme()
        self.membufs: Dict[str, MemoryBufferSpec] = dict(membufs or {})
        self.element_bits = element_bits

    # Axis-replacement helpers: each returns a new Accelerator with one
    # design concern changed and everything else untouched.
    def with_transform(self, transform: SpaceTimeTransform) -> "Accelerator":
        return self._replace(transform=transform)

    def with_sparsity(self, sparsity: SparsityStructure) -> "Accelerator":
        return self._replace(sparsity=sparsity)

    def with_balancing(self, balancing: LoadBalancingScheme) -> "Accelerator":
        return self._replace(balancing=balancing)

    def with_membufs(self, membufs: Mapping[str, MemoryBufferSpec]) -> "Accelerator":
        return self._replace(membufs=dict(membufs))

    def with_bounds(self, bounds: Union[Bounds, Mapping[str, int]]) -> "Accelerator":
        return self._replace(bounds=bounds if isinstance(bounds, Bounds) else Bounds(bounds))

    def _replace(self, **kwargs) -> "Accelerator":
        fields = {
            "spec": self.spec,
            "bounds": self.bounds,
            "transform": self.transform,
            "sparsity": self.sparsity,
            "balancing": self.balancing,
            "membufs": self.membufs,
            "element_bits": self.element_bits,
        }
        fields.update(kwargs)
        return Accelerator(**fields)

    def build(self, check: bool = True, cache=None) -> "GeneratedDesign":
        """Run the compiler and wrap the result with the backends.

        ``check`` is forwarded to :func:`repro.core.compiler.compile_design`
        and controls the spec-legality analysis gate.  ``cache`` (a
        :class:`repro.exec.cache.CompileCache`) memoizes the whole
        compile on the design's content key and shares pipeline stages
        with other designs built through the same cache.
        """
        compiled = compile_design(
            self.spec,
            self.bounds,
            self.transform,
            sparsity=self.sparsity,
            balancing=self.balancing,
            membufs=self.membufs,
            element_bits=self.element_bits,
            check=check,
            cache=cache,
        )
        return GeneratedDesign(self, compiled)


class GeneratedDesign:
    """A compiled accelerator plus its generation backends.

    Backends are imported lazily so the core compiler stays free of
    dependencies on the RTL, simulation, and area subsystems.
    """

    def __init__(self, accelerator: Accelerator, compiled: CompiledDesign):
        self.accelerator = accelerator
        self.compiled = compiled

    @property
    def name(self) -> str:
        return self.compiled.name

    @property
    def pe_count(self) -> int:
        return self.compiled.pe_count

    @property
    def dataflow_roles(self) -> Dict[str, str]:
        return self.compiled.dataflow_roles

    @property
    def regfile_plans(self):
        return self.compiled.regfile_plans

    @property
    def balancer(self):
        return self.compiled.balancer

    def pruned_variables(self):
        return self.compiled.pruned_variables()

    def summary(self) -> str:
        return self.compiled.summary()

    def to_verilog(self) -> str:
        """Emit the design as Verilog text (paper's primary output)."""
        from ..rtl.lowering import lower_design

        return lower_design(self.compiled).emit()

    def to_netlist(self):
        """The structural RTL netlist the Verilog is emitted from."""
        from ..rtl.lowering import lower_design

        return lower_design(self.compiled)

    def simulator(self, **kwargs):
        """A cycle-level simulator instance for this design."""
        from ..sim.spatial_array import SpatialArraySim

        return SpatialArraySim(self.compiled, **kwargs)

    def run(self, tensors: Mapping[str, "object"], **kwargs):
        """Simulate one invocation; returns a result with outputs + stats."""
        sim = self.simulator(**kwargs)
        return sim.run(tensors)

    def area_report(self, **kwargs):
        """Component-level area estimate (calibrated model; see DESIGN.md)."""
        from ..area.model import estimate_design_area

        return estimate_design_area(self.compiled, **kwargs)

    def energy_report(self, sim_result, **kwargs):
        """Energy estimate for one simulated invocation (Figure 17 model)."""
        from ..area.energy import energy_from_counters

        return energy_from_counters(sim_result.counters, **kwargs)

    def rtl_simulator(self, top: Optional[str] = None):
        """An RTL interpreter over the emitted netlist (poke/peek/step)."""
        from ..rtl.sim import RTLSimulator

        return RTLSimulator(self.to_netlist(), top=top)

    def __repr__(self) -> str:
        return f"GeneratedDesign({self.name!r}, pes={self.pe_count})"
