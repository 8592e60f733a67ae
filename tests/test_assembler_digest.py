"""Pin the assembler's output, program by program.

The figures and ``perfbench/golden.json`` see an assembled program only
through the cycles it runs, and ``test_translation_digest.py`` only
through the blocks a run reaches.  This test hashes everything
``assemble`` returns: each section's name, address and bytes, the
symbol table and the entry point.  It covers every workload at four
scales, perfbench's seeded builds (seeds 0 and 1 of each benchmark
workload's programs, at that workload's scale) and the example
programs.  The digests in :data:`DIGESTS` were recorded before the
assembler was reworked to lex, parse and encode each distinct statement
once; any change to what it emits changes them.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.guest.assembler import assemble
from repro.workloads import SPECINT_NAMES, build_workload

ROOT = Path(__file__).resolve().parent.parent

if "benchgrid" not in sys.modules:
    _SPEC = importlib.util.spec_from_file_location("benchgrid", ROOT / "perfbench" / "benchgrid.py")
    sys.modules["benchgrid"] = importlib.util.module_from_spec(_SPEC)
    _SPEC.loader.exec_module(sys.modules["benchgrid"])
benchgrid = sys.modules["benchgrid"]

SCALES = (0.05, 0.1, 0.5, 1.0)
SEEDS = (0, 1)
EXAMPLES = sorted((ROOT / "examples").glob("*.asm"))


def program_digest(program) -> str:
    """sha256 over the sections, symbols and entry of ``program``."""
    digest = hashlib.sha256()
    digest.update(f"entry {program.entry:#x}\n".encode())
    for section in program.sections:
        digest.update(f"{section.name} {section.address:#x} {len(section.data)}\n".encode())
        digest.update(section.data)
    for name, value in sorted(program.symbols.items()):
        digest.update(f"{name}={value}\n".encode())
    return digest.hexdigest()


def seeded_builds():
    """Every distinct ``(program, scale)`` a perfbench workload assembles."""
    return sorted({(program, workload.scale)
                   for workload in benchgrid.WORKLOADS.values()
                   for program in workload.programs})


#: Recorded at the parent of the assemble-once rework, before any edit
#: to ``repro.guest.assembler``.
DIGESTS = {
    "164.gzip@0.05":
        "d4a8fbf1fb95b5f5ed16bc9fa34b9327add5193f2e972fa5b70c0283a56562a2",
    "175.vpr@0.05":
        "e9eda8bda971eaa58ab2b76bed6321fdddee9d547aff84689ce0087b95c3ca3c",
    "176.gcc@0.05":
        "775d5f3ceec2cfc4373d60b4ee4ca9a2778c412b53faf75a26c15bf38ac88588",
    "181.mcf@0.05":
        "bc34328fbb712ca6431a6fae16cbfd907e17c13c55c3cb0f36038d2cebb8d63b",
    "186.crafty@0.05":
        "970bcb9f02879282663155a7c7de951d43f0c0d9af2502ebf0c9b08b171f0b53",
    "197.parser@0.05":
        "5ba8b3965ac5c9b73c4df0c2b60e0952e6f98e2d0cebbe35c268609a9adf9ba2",
    "253.perlbmk@0.05":
        "94507549d3d13f73113e622b6262326ce1e1c4256fbf1bbf6be1bced78aa0c92",
    "254.gap@0.05":
        "662568c32280383cea0bf2e5e23c2813b1240881a7e64fc3acf10ed94bbc13c9",
    "255.vortex@0.05":
        "fcd9987acaf0fb6c11a55b41902bb7b89dba6dfd43d3344b4cc091283373ea4e",
    "256.bzip2@0.05":
        "8899cd1a8856c34ef77462e3cd123e6bc9962647fe1091b616d6e330cbb0c10b",
    "300.twolf@0.05":
        "29ff0891961712cc0d700d19df81db3d350751e7d34bdbfcdad6a6f81e01e67d",
    "164.gzip@0.1":
        "d4a8fbf1fb95b5f5ed16bc9fa34b9327add5193f2e972fa5b70c0283a56562a2",
    "175.vpr@0.1":
        "e9eda8bda971eaa58ab2b76bed6321fdddee9d547aff84689ce0087b95c3ca3c",
    "176.gcc@0.1":
        "775d5f3ceec2cfc4373d60b4ee4ca9a2778c412b53faf75a26c15bf38ac88588",
    "181.mcf@0.1":
        "0fae7f2bfe7fc276388cdbc75216523f02699d82eedf34243056f015489ae571",
    "186.crafty@0.1":
        "970bcb9f02879282663155a7c7de951d43f0c0d9af2502ebf0c9b08b171f0b53",
    "197.parser@0.1":
        "5ba8b3965ac5c9b73c4df0c2b60e0952e6f98e2d0cebbe35c268609a9adf9ba2",
    "253.perlbmk@0.1":
        "94507549d3d13f73113e622b6262326ce1e1c4256fbf1bbf6be1bced78aa0c92",
    "254.gap@0.1":
        "662568c32280383cea0bf2e5e23c2813b1240881a7e64fc3acf10ed94bbc13c9",
    "255.vortex@0.1":
        "fcd9987acaf0fb6c11a55b41902bb7b89dba6dfd43d3344b4cc091283373ea4e",
    "256.bzip2@0.1":
        "8899cd1a8856c34ef77462e3cd123e6bc9962647fe1091b616d6e330cbb0c10b",
    "300.twolf@0.1":
        "29ff0891961712cc0d700d19df81db3d350751e7d34bdbfcdad6a6f81e01e67d",
    "164.gzip@0.5":
        "4c2b5b81569a4182278431545ea5e147be75cf821360b363838e608e89ee6b7b",
    "175.vpr@0.5":
        "d4fdd27062b15f1778d2adbb3a9c4039832309689124ab2f708d2f02b83f1ae0",
    "176.gcc@0.5":
        "775d5f3ceec2cfc4373d60b4ee4ca9a2778c412b53faf75a26c15bf38ac88588",
    "181.mcf@0.5":
        "56a797a0feba0bbbd8d4b5ee899e9d80a9b52b4f7a878b7c0e66d9b09958ea08",
    "186.crafty@0.5":
        "014348b22aa079f95ec588a35138dd6ee689d3aabcadebb6a60dff0cd3337059",
    "197.parser@0.5":
        "806fb2cceab73e8d362687725103faf799e4a6db71332a8a622a2f9f9ec5eea0",
    "253.perlbmk@0.5":
        "803a47e2f79a2ba0c5f4baf75edebde18796f06cfb3d2409bef307f04dae3ee4",
    "254.gap@0.5":
        "04a74c4510b5dd3095257d9342c22a31d1e0e311d868ef07276adbc3b64d0c5d",
    "255.vortex@0.5":
        "a38762cbf317afe86c18f895c00f69b01ead51f7aef8a91621f2e9cf9bb98c33",
    "256.bzip2@0.5":
        "c7064b5d322cbc16587fd33babc1068d541e85d8d77614cd65cad8d44a3535a4",
    "300.twolf@0.5":
        "fa2a3fc7769c1bb7a03d0b43ba9441019aca28a331f21157fa0d244c52cb79e9",
    "164.gzip@1.0":
        "cfe1e0b6e97eef9d8c230952e56fed07f6e1bdced9b56ab008aa58205ad1f649",
    "175.vpr@1.0":
        "1af6de168b9462acbb2be952ccb3e23fdf7453c7b46542809efd0e133b92749f",
    "176.gcc@1.0":
        "cda5f267660e789af8221d7cb49ef799c2b751388858196750c1c7ad250e9bcb",
    "181.mcf@1.0":
        "263cc0347e3c478d4988db3e59179f6788e865d7cca93c2c07450b9795ee1428",
    "186.crafty@1.0":
        "025f2c18836231d935dcb1a125f68d665c30ec60c7dfe8fea93beb70b74bd032",
    "197.parser@1.0":
        "7b3a5f9b38a655b2c1444ec655c1ccc56ae3651d36d105b91572c23cda09a112",
    "253.perlbmk@1.0":
        "f8e35bba6f5f9e990fc7c63ddeee63f014c3f3f801ef1bd1ea2649f103b7d17b",
    "254.gap@1.0":
        "4fa02f03f3b186b225f619032136f562c4761c90362a11f00c9b1c1f19e10af3",
    "255.vortex@1.0":
        "64d4ce94d356fbdb7920a1aeee2b4044130e1f3771b378e44c13f066eb7f3239",
    "256.bzip2@1.0":
        "acc6cc117ff19e716f8dbad5e78782e662e298b6b67826649b4ed37a6d35c35a",
    "300.twolf@1.0":
        "fca7caa640e982457249a1cffdc5ea6587a1a0d0eba2e8a33d9571dbc94696ba",
    "164.gzip@0.5/seed0":
        "4c2b5b81569a4182278431545ea5e147be75cf821360b363838e608e89ee6b7b",
    "175.vpr@0.5/seed0":
        "d4fdd27062b15f1778d2adbb3a9c4039832309689124ab2f708d2f02b83f1ae0",
    "176.gcc@1.0/seed0":
        "cda5f267660e789af8221d7cb49ef799c2b751388858196750c1c7ad250e9bcb",
    "181.mcf@0.5/seed0":
        "56a797a0feba0bbbd8d4b5ee899e9d80a9b52b4f7a878b7c0e66d9b09958ea08",
    "197.parser@0.5/seed0":
        "806fb2cceab73e8d362687725103faf799e4a6db71332a8a622a2f9f9ec5eea0",
    "254.gap@0.5/seed0":
        "04a74c4510b5dd3095257d9342c22a31d1e0e311d868ef07276adbc3b64d0c5d",
    "255.vortex@1.0/seed0":
        "64d4ce94d356fbdb7920a1aeee2b4044130e1f3771b378e44c13f066eb7f3239",
    "256.bzip2@0.5/seed0":
        "c7064b5d322cbc16587fd33babc1068d541e85d8d77614cd65cad8d44a3535a4",
    "164.gzip@0.5/seed1":
        "68dcfdb1ec762a4bf011739e17a1f91440c7ef341d07952d36597eddf775bb3d",
    "175.vpr@0.5/seed1":
        "e5f1e3e1c401bd5e75973076bd5d09c0eb75d8a6ebdf42bde719304198f4224a",
    "176.gcc@1.0/seed1":
        "696539660c080d1642af91cf01408b70fdb6322ef98ac9ce7be4bd11a8b38c9f",
    "181.mcf@0.5/seed1":
        "99abebf564ad44c77a045553e15f7dc8b75dd351a2968627551dffeaf008d1a4",
    "197.parser@0.5/seed1":
        "706e24b92a970355a4a5952c664c301c04631576aedddad87828158e2371faf3",
    "254.gap@0.5/seed1":
        "111069d0ce0574131889af33bde51691d799963e06bd5df24978730ac31d9241",
    "255.vortex@1.0/seed1":
        "126645070e1cb06225597f174cde31a20a8de0f828954d5c9c390fbd3503225f",
    "256.bzip2@0.5/seed1":
        "2b96cc56b227c92bef9b3bec97327f368d9376bc8db3b6b12396c74521342102",
    "examples/checksum.asm":
        "2c4f21fa4932955e3d560b6037867e9a8b95b1d2781d050edeedd58c22153f4c",
    "examples/gcd.asm":
        "ae10c67970801cbd5542678370b3ab0ec4a62fe565e5410737f393843183f373",
}


@pytest.mark.parametrize("scale", SCALES)
def test_workload_digests(scale):
    got = {f"{name}@{scale}": program_digest(build_workload(name, scale))
           for name in SPECINT_NAMES}
    assert got == {key: DIGESTS[key] for key in got}


@pytest.mark.parametrize("seed", SEEDS)
def test_perfbench_seeded_digests(seed):
    got = {f"{program}@{scale}/seed{seed}":
           program_digest(benchgrid.build_program(program, scale, seed))
           for program, scale in seeded_builds()}
    assert got == {key: DIGESTS[key] for key in got}


def test_example_digests():
    got = {f"examples/{path.name}": program_digest(assemble(path.read_text(), name=path.stem))
           for path in EXAMPLES}
    assert got == {key: DIGESTS[key] for key in got}
