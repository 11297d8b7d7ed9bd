"""Per-layer complexity accounting: multiply-accumulates and parameter counts.

One MAC = one multiply + one accumulate (a 1x1 conv over T positions from C
to K channels costs T*C*K). Norms, activations, softmax, pooling, position
adds, and bias adds cost zero MACs; their parameters are still counted.
Counts are per sample (batch 1). Both come from each layer's blocks.LAYERS
rows, which walk the same Slot lists that build allocates.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import blocks as B
from .models import ModelConfig, layer_plan


@dataclass
class ComplexityReport:
    name: str
    resolution: int
    rows: list  # (path, macs, params)

    @property
    def total_macs(self) -> int:
        return sum(r[1] for r in self.rows)

    @property
    def total_params(self) -> int:
        return sum(r[2] for r in self.rows)

    @property
    def gmacs(self) -> float:
        return self.total_macs / 1e9

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "resolution": self.resolution,
            "rows": [{"path": p, "macs": m, "params": n} for p, m, n in self.rows],
            "total_macs": self.total_macs,
            "total_params": self.total_params,
        }

    def table(self) -> str:
        width = max([len(p) for p, _, _ in self.rows] + [len("layer")])
        lines = [f"{self.name} @ {self.resolution}x{self.resolution}",
                 f"{'layer'.ljust(width)}  {'MACs':>14}  {'params':>12}",
                 "-" * (width + 32)]
        for p, m, n in self.rows:
            lines.append(f"{p.ljust(width)}  {m:>14,}  {n:>12,}")
        lines.append("-" * (width + 32))
        lines.append(f"{'total'.ljust(width)}  {self.total_macs:>14,}  {self.total_params:>12,}")
        lines.append(f"total MACs ≈ {self.gmacs:.2f}G")
        lines.append(f"total params ≈ {self.total_params / 1e6:.1f}M")
        return "\n".join(lines)


def complexity_report(config: ModelConfig, resolution: int | None = None) -> ComplexityReport:
    plan = layer_plan(config, resolution=resolution)
    rows = [r for e in plan for r in B.LAYERS[e.kind].rows(e, config)]
    return ComplexityReport(config.name, plan[0].in_shape[-1], rows)  # the checked resolution

