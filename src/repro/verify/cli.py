"""Command line front door: ``python -m repro.verify [command] ...``.

Subcommands (the bare legacy form ``python -m repro.verify <program>``
still runs lint + checked sweep, unchanged):

* ``lint`` — guest-binary static analysis only;
* ``sweep`` — checked translation sweep: IR verified after the
  frontend and every optimizer pass, host code after codegen and
  scheduling;
* ``equiv`` — symbolic translation validation: prove every reachable
  block's guest ≡ IR ≡ host equivalence (``--jobs`` fans out across
  processes);
* ``jit`` — symbolic closure validation: prove guest ≡ JIT-closure for
  every JIT-eligible block (same sweep harness and flags as ``equiv``);
* ``lint-src`` — determinism/soundness AST lint over the simulator's
  own Python sources;
* ``model`` — explicit-state model checking of the simulator's
  protocols (SMC invalidation, the morph FSM, the concurrent disk
  cache): exhaustive BFS over small-scope models with
  counterexample traces; ``--planted`` additionally proves each model
  catches its planted-bug variants;
* ``conform`` — trace conformance: replay raw event streams (from
  ``python -m repro.obs trace --raw`` exports, or live runs of the
  named workloads with the JIT on and off) against the same protocol
  invariants;
* ``all`` — the whole ladder in one invocation (lint, lint-src, sweep,
  equiv, jit, model) with a single JSON summary.

Every command exits non-zero iff it produced a finding of ERROR
severity (warnings and INFO notes never fail the run), so CI can gate
on any of them uniformly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.verify.findings import Severity, VerificationError
from repro.verify.guestlint import lint_program
from repro.verify.pipeline import checked_translate_program
from repro.workloads.suite import SPECINT_NAMES

_COMMANDS = (
    "lint", "sweep", "equiv", "jit", "lint-src", "model", "conform", "all",
)

#: Preset used when ``conform`` runs workloads live: it morphs eagerly,
#: so the traces exercise every checked category.
CONFORM_CONFIG = "morph_threshold_5"


def _load(name: str, scale: float):
    from repro.harness.equivsweep import load_program

    try:
        return load_program(name, scale)
    except ValueError as err:
        raise SystemExit(f"error: {err}") from err


def _lint_one(name: str, args: argparse.Namespace) -> bool:
    program = _load(name, args.scale)
    print(f"== {name} ==")
    report = lint_program(program)
    print(
        f"guestlint: {report.reachable_instructions} reachable instructions, "
        f"{report.reachable_bytes}/{report.text_bytes} text bytes covered, "
        f"{len(report.findings)} findings"
    )
    shown = [
        f for f in report.findings
        if args.verbose or f.severity >= Severity.WARNING
    ]
    limit = len(shown) if args.verbose else args.max_findings
    for finding in shown[:limit]:
        print(f"  {finding}")
    if len(shown) > limit:
        print(f"  ... and {len(shown) - limit} more (use -v to see all)")
    return not report.errors


def _sweep_one(name: str, args: argparse.Namespace) -> bool:
    program = _load(name, args.scale)
    try:
        sweep = checked_translate_program(program)
    except VerificationError as err:
        print(f"{name}: checked translation FAILED:\n{err}")
        return False
    print(
        f"{name}: checked translation: {sweep.block_count} blocks, "
        f"{sweep.guest_instructions} guest -> {sweep.host_instructions} host "
        "instructions, all verifier-clean"
    )
    if sweep.faults:
        print(f"  ({len(sweep.faults)} statically undecodable block starts skipped)")
    return True


def _run_equiv(names: List[str], args: argparse.Namespace, mode: str) -> bool:
    from repro.harness.equivsweep import run_sweep

    rows = run_sweep(
        names, scale=args.scale, vectors=args.vectors, seed=args.seed,
        jobs=args.jobs, mode=mode,
    )
    clean = True
    for row in rows:
        print(row)
        if args.verbose:
            for warning in row.warnings:
                print(f"  {warning}")
        clean = clean and row.ok
    print(
        "total: {blocks} blocks, {proved} proved, {validated} assumed, "
        "{refuted} refuted, {skipped} skipped".format(
            blocks=sum(row.blocks for row in rows),
            proved=sum(row.proved for row in rows),
            validated=sum(row.validated for row in rows),
            refuted=sum(row.refuted for row in rows),
            skipped=sum(row.skipped for row in rows),
        )
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([row.as_dict() for row in rows], fh, indent=2)
        print(f"wrote {args.json}")
    return clean


def _run_lint_src(args: argparse.Namespace) -> bool:
    from repro.verify.lintsrc import lint_tree

    findings = lint_tree(allowlist=args.allowlist)
    errors = 0
    for finding in findings:
        print(finding)
        if finding.severity >= Severity.ERROR:
            errors += 1
    print(f"lint-src: {len(findings)} findings, {errors} errors")
    return errors == 0


def _run_model(args: argparse.Namespace) -> bool:
    from repro.verify.protocol import MODELS, PLANTED_BUGS, check_model
    from repro.verify.protocol.mc import DEFAULT_MAX_STATES

    max_states = args.max_states if args.max_states else DEFAULT_MAX_STATES
    names = list(args.models) or list(MODELS)
    for name in names:
        if name not in MODELS:
            raise SystemExit(
                f"error: unknown model {name!r} (choose from {', '.join(MODELS)})"
            )
    clean = True
    results = []
    for name in names:
        result = check_model(MODELS[name](), max_states=max_states)
        print(result)
        for violation in result.violations:
            print(f"  {violation}")
        if result.truncated:
            print(f"  TRUNCATED at {max_states} states — bound too small")
        results.append(result.as_dict())
        clean = clean and result.ok

    planted = []
    if args.planted:
        print("-- planted bugs --")
        for variant in sorted(PLANTED_BUGS):
            model_name, kwargs, expected = PLANTED_BUGS[variant]
            if model_name not in names:
                continue
            result = check_model(MODELS[model_name](**kwargs), max_states=max_states)
            caught = [v for v in result.violations if v.invariant == expected]
            status = "caught" if caught else "MISSED"
            print(f"{variant}: {status} (expected {expected})")
            if caught and args.verbose:
                print(f"  {caught[0]}")
            planted.append({
                "variant": variant,
                "model": model_name,
                "expected": expected,
                "caught": bool(caught),
                "trace": list(caught[0].trace) if caught else None,
            })
            clean = clean and bool(caught)

    print(
        "total: {states} states, {transitions} transitions, "
        "{checks} invariant checks across {models} models".format(
            states=sum(r["states"] for r in results),
            transitions=sum(r["transitions"] for r in results),
            checks=sum(r["invariant_checks"] for r in results),
            models=len(results),
        )
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"models": results, "planted": planted}, fh, indent=2)
        print(f"wrote {args.json}")
    return clean


def _conform_live(name: str, jit: bool, args: argparse.Namespace):
    from repro.obs.events import Tracer
    from repro.vm.timing import TimingVM

    from repro.morph.config import PRESETS
    from repro.verify.protocol import conform_vm

    if args.config not in PRESETS:
        raise SystemExit(
            f"error: unknown config {args.config!r} "
            f"(choose from {', '.join(sorted(PRESETS))})"
        )
    program = _load(name, args.scale)
    tracer = Tracer(args.capacity) if args.capacity else Tracer()
    vm = TimingVM(program, PRESETS[args.config], tracer=tracer, jit=jit)
    vm.run()
    return conform_vm(vm)


def _run_conform(args: argparse.Namespace) -> bool:
    from repro.verify.protocol import conform_events

    targets = list(args.targets) or list(SPECINT_NAMES)
    jit_modes = {"on": [True], "off": [False], "both": [False, True]}[args.jit]
    clean = True
    rows = []
    for target in targets:
        if target.endswith(".json"):
            try:
                with open(target) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as err:
                raise SystemExit(f"error: {target}: {err}") from err
            if not isinstance(doc, dict) or "events" not in doc:
                raise SystemExit(
                    f"error: {target}: not a raw trace (expected the "
                    "`python -m repro.obs trace --raw` schema with an 'events' list)"
                )
            reports = [(target, conform_events(doc["events"], dropped=doc.get("dropped", 0)))]
        else:
            reports = [
                (f"{target} [jit={'on' if jit else 'off'}]", _conform_live(target, jit, args))
                for jit in jit_modes
            ]
        for label, report in reports:
            print(f"{label}: {report}")
            shown = report.findings if args.verbose else [
                f for f in report.findings if f.severity >= Severity.ERROR
            ]
            limit = len(shown) if args.verbose else args.max_findings
            for finding in shown[:limit]:
                print(f"  {finding}")
            if len(shown) > limit:
                print(f"  ... and {len(shown) - limit} more (use -v to see all)")
            rows.append({"target": label, **report.as_dict()})
            clean = clean and report.ok
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json}")
    return clean


def _run_all(args: argparse.Namespace) -> bool:
    """Every verification tier in sequence, one summary at the end."""
    names = list(args.programs) or list(SPECINT_NAMES)
    sub = dict(vars(args))
    sub["json"] = None  # sections must not clobber the summary path
    sub["models"] = []  # model section always checks all four models
    sub["planted"] = True
    section_args = argparse.Namespace(**sub)

    def _lint_section() -> bool:
        return all([_lint_one(name, section_args) for name in names])

    def _sweep_section() -> bool:
        return all([_sweep_one(name, section_args) for name in names])

    sections = (
        ("lint", _lint_section),
        ("lint-src", lambda: _run_lint_src(section_args)),
        ("sweep", _sweep_section),
        ("equiv", lambda: _run_equiv(names, section_args, mode="equiv")),
        ("jit", lambda: _run_equiv(names, section_args, mode="jit")),
        ("model", lambda: _run_model(section_args)),
    )
    summary = {}
    clean = True
    for title, run in sections:
        print(f"==== {title} ====")
        ok = run()
        summary[title] = {"ok": ok}
        clean = clean and ok
        print()

    print("==== summary ====")
    for title, row in summary.items():
        print(f"{title}: {'ok' if row['ok'] else 'FAIL'}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"sections": summary, "ok": clean}, fh, indent=2)
        print(f"wrote {args.json}")
    return clean


def _common_arguments(parser: argparse.ArgumentParser, equiv: bool = False) -> None:
    parser.add_argument(
        "programs", nargs="*",
        help="workload names and/or VX86 .asm files (default: all workloads)",
    )
    parser.add_argument("--list", action="store_true", help="list built-in workloads and exit")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="workload scale factor (default 0.1; code size is scale-invariant)")
    parser.add_argument("--max-findings", type=int, default=10,
                        help="findings shown per program (default 10)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="show INFO findings / skip warnings without truncation")
    if equiv:
        parser.add_argument("--vectors", type=int, default=8,
                            help="random vectors per unproved obligation (default 8)")
        parser.add_argument("--seed", type=int, default=0x5EED,
                            help="base seed for the refutation vectors")
        parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the sweep (default 1)")
        parser.add_argument("--json", metavar="PATH", default=None,
                            help="write per-program obligation counts as JSON")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    command = "check"
    if argv and argv[0] in _COMMANDS:
        command, argv = argv[0], argv[1:]

    descriptions = {
        "check": "Static verification of guest programs and their translations.",
        "lint": "Guest-binary static analysis (CFG recovery, decode and flag lint).",
        "sweep": "Checked translation sweep with the static IR/host verifiers.",
        "equiv": "Symbolic translation validation: prove guest = IR = host per block.",
        "jit": "Symbolic closure validation: prove guest = JIT-closure per block.",
        "lint-src": "Determinism/soundness AST lint over the simulator sources.",
        "model": "Explicit-state model checking of the simulator's protocols.",
        "conform": "Trace conformance: replay event streams against the protocol models.",
        "all": "Run every verification tier and print one summary.",
    }
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.verify{'' if command == 'check' else ' ' + command}",
        description=descriptions[command],
    )
    if command == "lint-src":
        parser.add_argument("--allowlist", default=None,
                            help="allowlist file (default: lint-src-allowlist.txt "
                                 "at the repository root, if present)")
        args = parser.parse_args(argv)
        clean = _run_lint_src(args)
        if not clean:
            print("FAIL: errors found", file=sys.stderr)
        return 0 if clean else 1

    if command == "model":
        parser.add_argument(
            "models", nargs="*",
            help="models to check: smc, morph, diskcache (default: all)",
        )
        parser.add_argument("--max-states", type=int, default=None,
                            help="BFS state bound (default 200000)")
        parser.add_argument("--planted", action="store_true",
                            help="also check every planted-bug variant and require "
                                 "the expected counterexample")
        parser.add_argument("--json", metavar="PATH", default=None,
                            help="write results (and planted-bug verdicts) as JSON")
        parser.add_argument("-v", "--verbose", action="store_true",
                            help="show counterexample traces for planted bugs too")
        args = parser.parse_args(argv)
        clean = _run_model(args)
        if not clean:
            print("FAIL: errors found", file=sys.stderr)
        return 0 if clean else 1

    if command == "conform":
        parser.add_argument(
            "targets", nargs="*",
            help="raw-trace .json files (from `python -m repro.obs trace --raw`) "
                 "and/or workload names to run live (default: all workloads)",
        )
        parser.add_argument("--scale", type=float, default=0.1,
                            help="workload scale for live runs (default 0.1)")
        parser.add_argument("--config", default=CONFORM_CONFIG,
                            help=f"virtual-arch preset for live runs (default {CONFORM_CONFIG})")
        parser.add_argument("--jit", choices=("on", "off", "both"), default="both",
                            help="JIT modes for live runs (default both)")
        parser.add_argument("--capacity", type=int, default=None,
                            help="trace ring-buffer capacity for live runs "
                                 "(default: the tracer default)")
        parser.add_argument("--max-findings", type=int, default=10,
                            help="violations shown per target (default 10)")
        parser.add_argument("--json", metavar="PATH", default=None,
                            help="write per-target conformance reports as JSON")
        parser.add_argument("-v", "--verbose", action="store_true",
                            help="show warnings and all findings without truncation")
        args = parser.parse_args(argv)
        clean = _run_conform(args)
        if not clean:
            print("FAIL: errors found", file=sys.stderr)
        return 0 if clean else 1

    if command == "all":
        _common_arguments(parser, equiv=True)
        parser.set_defaults(scale=0.05)
        parser.add_argument("--allowlist", default=None,
                            help="lint-src allowlist file (default: repo root)")
        parser.add_argument("--max-states", type=int, default=None,
                            help="model-checker BFS state bound (default 200000)")
        args = parser.parse_args(argv)
        if args.list:
            print("\n".join(SPECINT_NAMES))
            return 0
        clean = _run_all(args)
        if not clean:
            print("FAIL: errors found", file=sys.stderr)
        return 0 if clean else 1

    _common_arguments(parser, equiv=command in ("equiv", "jit"))
    if command == "check":
        parser.add_argument("--no-translate", action="store_true",
                            help="guest lint only; skip the checked translation sweep")
    args = parser.parse_args(argv)

    if args.list:
        print("\n".join(SPECINT_NAMES))
        return 0

    names = list(args.programs) or list(SPECINT_NAMES)
    if command in ("equiv", "jit"):
        clean = _run_equiv(names, args, mode=command)
    else:
        clean = True
        for name in names:
            if command in ("check", "lint") and not _lint_one(name, args):
                clean = False
            if command == "sweep" or (command == "check" and not args.no_translate):
                if not _sweep_one(name, args):
                    clean = False
    if not clean:
        print("FAIL: errors found", file=sys.stderr)
    return 0 if clean else 1
