"""Pin the translator's emitted code, block by block.

``perfbench/golden.json`` and the figure outputs see translations only
through cycle totals, so a change in the emitted host code that happens
to cost the same would slip past them.  This test translates every
block a workload reaches under each translator namespace the presets
use — optimized, unoptimized (``morph_noopt``) and hardware-MMU load
intrinsics (``hw_mmu``) — and hashes the full text of every
:class:`~repro.dbt.block.TranslatedBlock`.  Each digest was recorded
before a change to the code generator (see :data:`DIGESTS`); any change
to the translator's output changes them.
"""

import hashlib

import pytest

from repro.dbt.transcache import TranslationCache
from repro.dbt.translator import TranslationConfig, Translator
from repro.guest.memory import GuestMemory
from repro.morph.config import PRESETS
from repro.vm.timing import run_timing
from repro.workloads import build_workload

SCALE = 0.05

#: The translator configurations the presets build (see ``TimingVM``).
NAMESPACES = {
    "optimized": TranslationConfig(),
    "noopt": TranslationConfig(optimize=False),
    "hw_mmu": TranslationConfig(load_latency=3, load_occupancy=1),
}

#: sha256 over every reached block.  176.gcc, 164.gzip and 181.mcf were
#: recorded at the parent of the immutable-instruction change; 197.parser,
#: 255.vortex and 256.bzip2 at the parent of the FLAGS-sequence memo and
#: slotted IR, so every program of the perfbench row workloads is pinned.
DIGESTS = {
    "176.gcc": "0efc8dd99f95782db371ddd9658afcec44bfcecc2d59c223dc11928207a169e8",
    "164.gzip": "167d6f6cb714d28202ff30dec40e702ea05f98385fbabc8b5d0d8566a4d990f2",
    "181.mcf": "445acebb34fb3d37209574f1bdce0afdfc33ae11e6dcca4559b684abc8fe244c",
    "197.parser": "69e143d2f3a329c25dae88678dd5fb22c9cf69e2013d6a321265423cca899279",
    "255.vortex": "a3c71b70d642faae89c72f3a44e195866e8be654f42aaf1756477d59d34a3dc3",
    "256.bzip2": "41ccdd490ff5bbb48116e11ad5c039680387a87fea4c082b42e44d12072e77da",
}


def _reached_blocks(program, name):
    """Guest PCs the default preset translates, speculation included."""
    cache = TranslationCache()
    run_timing(program, PRESETS["speculative_4"], translation_cache=cache,
               program_key=name)
    return sorted({block.guest_address for block in cache.blocks()})


def _block_text(block):
    lines = [
        f"{block.guest_address:#x}+{block.guest_length}/{block.guest_instr_count}"
        f" ret={block.call_return_address} exit={block.exit_kind}"
        f" cost={block.cost_cycles} xlate={block.translation_cycles}"
    ]
    lines.extend(str(instr) for instr in block.instrs)
    lines.extend(
        f"stub {stub.offset_words} {stub.kind.name} {stub.guest_target}"
        for stub in block.exit_stubs
    )
    return "\n".join(lines) + "\n"


def translation_digest(name: str, scale: float = SCALE) -> str:
    """sha256 of every block ``name`` reaches, in every namespace."""
    program = build_workload(name, scale=scale)
    pcs = _reached_blocks(program, name)
    memory = GuestMemory()
    program.load(memory)
    digest = hashlib.sha256()
    for label, config in NAMESPACES.items():
        translator = Translator(memory.read_bytes, config)
        digest.update(f"== {label}\n".encode())
        for pc in pcs:
            digest.update(_block_text(translator.translate(pc)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_translation_digest_is_pinned(name):
    assert translation_digest(name) == DIGESTS[name]


if __name__ == "__main__":  # print the digests to record
    for workload in DIGESTS:
        print(f'    "{workload}": "{translation_digest(workload)}",')
