"""The per-translation block facts against their old per-fetch forms,
and a pin on whole timing results.

The code-cache hierarchy and the speculative translator used to
recompute a block's transfer cycles, its chainable targets and its
static successor predictions on every fetch.  They now read facts the
translator records once (:meth:`TranslatedBlock.seal`).  The
references below are those computations as they were; every block the
workloads reach must agree with them, optimized and unoptimized.

The result digests pin ``dataclasses.asdict(TimingRunResult)``, stats
and metrics included, and were recorded before the facts replaced the
per-fetch computations.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.dbt.predictor import RETURN_PREDICTION_PENALTY, Prediction
from repro.dbt.transcache import CachingTranslator, TranslationCache
from repro.dbt.translator import Translator
from repro.guest.memory import GuestMemory
from repro.host.isa import ExitReason
from repro.morph.config import PRESETS
from repro.vm.timing import run_timing
from repro.workloads import build_workload

from tests.test_translation_digest import NAMESPACES, SCALE, _reached_blocks


def reference_transfer_cycles(block):
    """``codecache._transfer_cycles``: 0.25 cycles per host word, >= 1."""
    return max(1, int(len(block.instrs) * 0.25))


def reference_chain_targets(block):
    """The targets ``L1CodeCache.try_chain`` scanned the stubs for."""
    return [target for _, target in block.stub_patch_offsets()]


def reference_predictions(block):
    """``predict_successors`` reading the exit stubs directly."""
    targets = [
        stub.guest_target for stub in block.exit_stubs
        if stub.guest_target is not None and stub.kind is ExitReason.BRANCH
    ]
    predictions = []
    if len(targets) == 1:
        predictions.append(Prediction(targets[0], 0))
    elif len(targets) >= 2:
        fallthrough, taken = targets[0], targets[1]
        if taken <= block.guest_address:
            predictions += [Prediction(taken, 0), Prediction(fallthrough, 1)]
        else:
            predictions += [Prediction(fallthrough, 0), Prediction(taken, 1)]
    if block.call_return_address is not None:
        predictions.append(
            Prediction(block.call_return_address, RETURN_PREDICTION_PENALTY)
        )
    return predictions


@pytest.mark.parametrize("name", ["164.gzip", "176.gcc", "181.mcf"])
def test_sealed_facts_match_the_per_fetch_computations(name):
    program = build_workload(name, scale=SCALE)
    pcs = _reached_blocks(program, name)
    memory = GuestMemory()
    program.load(memory)
    # hw_mmu differs from optimized only in cost_cycles, not in code
    for label in ("optimized", "noopt"):
        translator = Translator(memory.read_bytes, NAMESPACES[label])
        for pc in pcs:
            block = translator.translate(pc)
            assert block.host_words == len(block.instrs) == block.host_size_bytes // 4
            assert block.transfer_cycles == reference_transfer_cycles(block)
            targets = reference_chain_targets(block)
            assert block.chain_targets == frozenset(targets)
            assert list(block.predictions) == reference_predictions(block)


def test_cache_hits_share_the_masters_facts():
    program = build_workload("181.mcf", scale=SCALE)
    memory = GuestMemory()
    program.load(memory)
    cache = TranslationCache()
    config = NAMESPACES["optimized"]
    first = CachingTranslator(memory.read_bytes, config, cache, "mcf", lambda: 0)
    second = CachingTranslator(memory.read_bytes, config, cache, "mcf", lambda: 0)
    fresh = first.translate(program.entry)
    hit = second.translate(program.entry)
    assert hit is not fresh
    assert hit.chain_targets is fresh.chain_targets
    assert hit.predictions is fresh.predictions
    assert hit.instrs is fresh.instrs
    assert second.stats.as_dict() == first.stats.as_dict()


#: sha256 of ``json.dumps(asdict(result), sort_keys=True)`` per
#: (workload, preset) at ``SCALE``, recorded before the block facts.
RESULT_DIGESTS = {
    ("164.gzip", "no_l15"):
        "a55762b52c4038c4cb643445e424796472e42ea09d94f209e76364a5d343c7d7",
    ("164.gzip", "l15_128k"):
        "05be6d63fe31442c9748515abadbbf8acad3cc22c510f6bd7ef4c186f025645b",
    ("164.gzip", "speculative_9"):
        "220b2415e2a1195ad379b44efa6b3d65c56311d0863517b19702e42abbdb7c5a",
    ("164.gzip", "morph_threshold_5"):
        "5745587a91a79a075e58b69977f8c182bece90599461f4085e95cb1c5b6bef68",
    ("176.gcc", "no_l15"):
        "a38c9bc20814d124fd2b9eea690b1a412e2d4d3dfd99694e8bd18d36b5883aa1",
    ("176.gcc", "l15_128k"):
        "70d91f6e352dbfa31fd98cc1096a7db14fe0431ef54e7dcc82b1b72c8b6045f9",
    ("176.gcc", "speculative_9"):
        "e758d957ee53caf21a8d08f80eecf749a458e70ab6b3abc48ca7f60cebcdb58c",
    ("176.gcc", "morph_threshold_5"):
        "73e7b6585cf7844eec6b10628c4662cf4c00a507798347f883dbc560716cbc86",
}


def result_digest(result) -> str:
    text = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", ["164.gzip", "176.gcc"])
def test_timing_results_are_pinned(name):
    program = build_workload(name, scale=SCALE)
    cache = TranslationCache()  # results are bit-identical with it
    for (workload, config), digest in RESULT_DIGESTS.items():
        if workload == name:
            result = run_timing(program, PRESETS[config], translation_cache=cache,
                                program_key=name)
            assert result_digest(result) == digest, config


if __name__ == "__main__":  # print the digests to record
    for workload, config in RESULT_DIGESTS:
        program = build_workload(workload, scale=SCALE)
        digest = result_digest(run_timing(program, PRESETS[config]))
        print(f'    ("{workload}", "{config}"): "{digest}",')
