"""What each benchmark workload runs: programs, scale and figure configs.

A *cell* is one ``(program, VirtualArchConfig)`` timing run.  The row
workloads run every figure config over a few programs in one process;
the pooled sweep runs every figure of the paper through the harness.

Programs are generated here from the public ``repro.workloads`` pieces
so that ``--seed`` can regenerate each program's function farm.  Seed 0
keeps the suite's own farm seeds, which is what the committed golden
digests were recorded from.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Tuple

#: Digest of every cell's ``TimingRunResult`` and every rendered figure
#: at seed 0, written by ``update_goldens.py``.
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: Every distinct preset used by Figs. 4/5/8/9, grouped by figure.  The
#: pooled sweep checks that rendering a figure simulates nothing after
#: these cells were materialized, so a drift from
#: ``repro.harness.figures`` fails the run instead of going unnoticed.
FIG4_CONFIGS = ["no_l15", "l15_64k", "l15_128k"]
FIG5_CONFIGS = ["conservative_1", "speculative_1", "speculative_2", "speculative_4",
                "speculative_6", "speculative_9"]
FIG8_CONFIGS = ["morph_noopt", "morph_opt"]
FIG9_CONFIGS = ["static_1mem_9trans", "static_4mem_6trans", "morph_threshold_15",
                "morph_threshold_0", "morph_threshold_5"]
FIGURE_CONFIGS = FIG4_CONFIGS + FIG5_CONFIGS + FIG8_CONFIGS + FIG9_CONFIGS

#: The programs ``figure1_timeline`` and ``table11_intrinsics`` use by
#: default; the pooled sweep's program set must include both.
FIG1_PROGRAM = "197.parser"
TABLE11_PROGRAM = "181.mcf"


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is in README.md and BENCHMARK.json."""

    name: str
    programs: Tuple[str, ...]
    scale: float
    pooled: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload("large_code_rows", ("176.gcc", "255.vortex"), 1.0, False),
        Workload("compact_rows", ("164.gzip", "181.mcf", "197.parser", "256.bzip2"), 0.5, False),
        # four compact programs and two large-code ones (vpr, gap), so the
        # pool's groups are unequal; must include FIG1_PROGRAM and
        # TABLE11_PROGRAM
        Workload("pooled_sweep", ("164.gzip", "175.vpr", "181.mcf", "197.parser", "254.gap",
                                  "256.bzip2"), 0.5, True),
    ]
}


def farm_seed(program: str, suite_seed: int, seed: int) -> int:
    """The farm seed for ``program`` under benchmark ``seed``.

    Seed 0 keeps the suite's own seed; any other seed derives a new one
    from the seed and the program name, stable across processes.
    """
    if seed == 0:
        return suite_seed
    return zlib.crc32(f"{seed}:{program}".encode()) & 0x7FFFFFFF


def program_source(program: str, scale: float, seed: int) -> str:
    """Assembly of suite workload ``program`` with a seed-derived farm.

    Mirrors ``repro.workloads.suite.build_source``; only the farm's seed
    differs, so function count, body size and sequence length (the
    program's shape) are those of the suite.
    """
    from repro.workloads import workload_specs
    from repro.workloads.builder import build_farm

    spec = workload_specs()[program]
    farm_config = replace(spec.farm, seed=farm_seed(program, spec.farm.seed, seed))
    rounds = max(1, int(spec.rounds * scale))
    if farm_config.phased_rounds:
        farm_config = replace(farm_config, phased_rounds=rounds)
    kernel = spec.kernel(scale)
    farm = build_farm(farm_config, prefix=program.split(".")[-1])

    lines: List[str] = [
        f"; synthetic workload {spec.name}: {spec.description}",
        "_start:",
        "    xor esi, esi",
    ]
    if farm_config.phased_rounds:
        for round_index in range(rounds):
            lines.append(f"    call {kernel.entry}")
            for _ in range(spec.sweeps_per_round):
                lines.append(f"    call {farm.sweep_for_round(round_index)}")
    else:
        lines += [f"    mov ebp, {rounds}", "main_round:", f"    call {kernel.entry}"]
        for _ in range(spec.sweeps_per_round):
            lines.append(f"    call {farm.sweep_label}")
        lines += ["    dec ebp", "    jnz main_round"]
    lines += [
        "    mov eax, esi",
        "    and eax, 255",
        "    mov ebx, eax",
        "    mov eax, 1",
        "    int 0x80",
    ]
    lines += kernel.text_lines
    lines += farm.text_lines
    lines.append(".data")
    lines += kernel.data_lines
    lines += farm.data_lines
    return "\n".join(lines) + "\n"


def build_program(program: str, scale: float = 1.0, seed: int = 0):
    """Assemble ``program`` at ``scale`` with the farm of ``seed``."""
    from repro.guest.assembler import assemble

    return assemble(program_source(program, scale, seed), name=program)


def pooled_figure_cells(programs: Tuple[str, ...], scale: float) -> Dict[str, List[tuple]]:
    """The cells each figure of ``ALL_FIGURES`` materializes, by figure."""
    def grid(configs):
        return [(p, c, scale) for p in programs for c in configs]

    return {
        "figure1": [(FIG1_PROGRAM, "conservative_1", scale),
                    (FIG1_PROGRAM, "speculative_4", scale)],
        "figure4": grid(FIG4_CONFIGS),
        "figure5": grid(FIG5_CONFIGS),
        "figure6": grid(FIG5_CONFIGS),
        "figure7": grid(FIG5_CONFIGS),
        "figure8": grid(FIG8_CONFIGS),
        "figure9": grid(FIG9_CONFIGS),
        "figure10": grid(FIG9_CONFIGS),
        "table11": [(TABLE11_PROGRAM, "speculative_6", scale)],
    }
