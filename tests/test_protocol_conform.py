"""Trace conformance: synthetic streams, live runs, checked mode.

The synthetic half feeds hand-built event streams (raw dicts, the same
shape ``python -m repro.obs trace --raw`` exports) through
:func:`conform_events` and checks that each protocol rule fires on
exactly the stream that breaks it.  The live half runs real workloads
— including a self-modifying one — and requires zero violations, plus
the ``TimingVM(checked="protocol")`` wiring end to end.
"""

import json

import pytest

from repro.guest.assembler import assemble
from repro.morph.config import PRESETS
from repro.obs.events import Tracer
from repro.verify.findings import Severity, VerificationError
from repro.verify.protocol import conform_events, conform_vm
from repro.vm.timing import TimingVM

from tests.test_self_modifying_code import SMC_PROGRAM


def _codes(report):
    return [f.code for f in report.findings if f.severity is Severity.ERROR]


def _ev(cycle, category, name, tile="execution", **args):
    doc = {"cycle": cycle, "category": category, "name": name, "tile": tile}
    if args:
        doc["args"] = args
    return doc


class TestSpecq:
    def test_balanced_queue(self):
        report = conform_events([
            _ev(10, "specq", "enqueue", qlen=1),
            _ev(20, "specq", "enqueue", qlen=2),
            _ev(30, "specq", "dequeue", "slave0", qlen=1),
            _ev(40, "specq", "dequeue", "slave1", qlen=0),
        ])
        assert report.ok
        assert report.counts == {"specq": 4}

    def test_qlen_mismatch(self):
        report = conform_events([
            _ev(10, "specq", "enqueue", qlen=1),
            _ev(20, "specq", "dequeue", qlen=5),
        ])
        assert _codes(report) == ["specq-qlen-mismatch"]

    def test_windowed_adopts_first_observation(self):
        # dropped > 0: the stream starts mid-run at qlen 7
        report = conform_events([
            _ev(10, "specq", "dequeue", qlen=7),
            _ev(20, "specq", "dequeue", qlen=6),
        ], dropped=3)
        assert report.ok
        assert report.dropped == 3

    def test_bad_qlen_type(self):
        report = conform_events([_ev(10, "specq", "enqueue", qlen="many")])
        assert _codes(report) == ["specq-bad-qlen"]


class TestTranslate:
    def test_paired_per_tile(self):
        report = conform_events([
            _ev(10, "translate", "start", "slave0", pc=0x1000),
            _ev(11, "translate", "start", "slave1", pc=0x2000),
            _ev(50, "translate", "end", "slave0", pc=0x1000),
            _ev(60, "translate", "end", "slave1", pc=0x2000),
        ])
        assert report.ok

    def test_overlapping_start(self):
        report = conform_events([
            _ev(10, "translate", "start", "slave0", pc=0x1000),
            _ev(20, "translate", "start", "slave0", pc=0x2000),
        ])
        assert "translate-overlapping-start" in _codes(report)

    def test_unpaired_end_strict(self):
        report = conform_events([_ev(10, "translate", "end", "slave0", pc=0x1000)])
        assert _codes(report) == ["translate-unpaired-end"]

    def test_leading_end_forgiven_when_windowed(self):
        report = conform_events(
            [_ev(10, "translate", "end", "slave0", pc=0x1000)], dropped=100
        )
        assert report.ok

    def test_pc_mismatch_and_negative_duration(self):
        report = conform_events([
            _ev(50, "translate", "start", "slave0", pc=0x1000),
            _ev(10, "translate", "end", "slave0", pc=0x3000),
        ])
        assert set(_codes(report)) == {
            "translate-pc-mismatch", "translate-negative-duration",
        }


class TestMorph:
    def _flip(self, cycle, old, new, hysteresis=100):
        return _ev(cycle, "morph", "reconfig", "manager",
                   old=old, new=new, hysteresis=hysteresis)

    def test_alternating_flips(self):
        report = conform_events([
            self._flip(0, "(initial)", "trans"),
            self._flip(500, "trans", "mem"),
            self._flip(1000, "mem", "trans"),
        ])
        assert report.ok

    def test_noop_reconfig(self):
        report = conform_events([self._flip(500, "trans", "trans")])
        assert "morph-noop-reconfig" in _codes(report)

    def test_alternation_broken(self):
        report = conform_events([
            self._flip(0, "(initial)", "trans"),
            self._flip(500, "mem", "trans"),
        ])
        assert _codes(report) == ["morph-alternation-broken"]

    def test_initial_must_come_first(self):
        report = conform_events([
            self._flip(500, "trans", "mem"),
            self._flip(900, "(initial)", "trans"),
        ])
        assert "morph-initial-not-first" in _codes(report)

    def test_hysteresis_violated(self):
        report = conform_events([
            self._flip(0, "(initial)", "trans"),
            self._flip(500, "trans", "mem", hysteresis=100),
            self._flip(550, "mem", "trans", hysteresis=100),
        ])
        assert _codes(report) == ["morph-hysteresis-violated"]

    def test_time_regression(self):
        report = conform_events([
            self._flip(0, "(initial)", "trans"),
            self._flip(900, "trans", "mem"),
            self._flip(500, "mem", "trans"),
        ])
        assert "morph-time-regression" in _codes(report)


class TestSmc:
    def test_write_then_invalidate(self):
        report = conform_events([
            _ev(10, "smc", "write", gen=1, page=16),
            _ev(50, "smc", "invalidate", gen=1, page=16, victims=2),
        ])
        assert report.ok

    def test_invalidate_without_write_strict(self):
        report = conform_events([_ev(50, "smc", "invalidate", gen=1, page=16)])
        assert "smc-invalidate-without-write" in _codes(report)

    def test_invalidate_without_write_forgiven_windowed(self):
        report = conform_events(
            [_ev(50, "smc", "invalidate", gen=1, page=16)], dropped=9
        )
        assert report.ok

    def test_generation_regression(self):
        report = conform_events([
            _ev(10, "smc", "write", gen=5, page=16),
            _ev(20, "smc", "write", gen=3, page=17),
        ])
        assert "smc-gen-regression" in _codes(report)

    def test_invalidate_unwritten_page(self):
        report = conform_events([
            _ev(10, "smc", "write", gen=1, page=16),
            _ev(50, "smc", "invalidate", gen=1, page=99),
        ])
        assert "smc-invalidate-unwritten-page" in _codes(report)


class TestCodecache:
    def test_levels(self):
        report = conform_events([
            _ev(10, "codecache", "hit", level="l1"),
            _ev(20, "codecache", "miss", level="l1.5"),
            _ev(30, "codecache", "hit", level="l2"),
        ])
        assert report.ok

    def test_unknown_level(self):
        report = conform_events([_ev(10, "codecache", "hit", level="l9")])
        assert _codes(report) == ["codecache-unknown-level"]


class TestLiveRuns:
    def test_smc_workload_emits_and_conforms(self):
        program = assemble(SMC_PROGRAM)
        program.name = "smc"
        vm = TimingVM(program, PRESETS["default"], tracer=Tracer())
        vm.run()
        counts = vm.tracer.counts_by_category()
        assert counts.get("smc", 0) >= 2  # at least one write + invalidate
        names = {e.name for e in vm.tracer.events() if e.category == "smc"}
        assert names == {"write", "invalidate"}
        report = conform_vm(vm)
        assert report.ok, "\n".join(str(f) for f in report.findings)

    def test_raw_dict_round_trip(self):
        program = assemble(SMC_PROGRAM)
        program.name = "smc"
        vm = TimingVM(program, PRESETS["morph_threshold_5"], tracer=Tracer())
        vm.run()
        live = conform_vm(vm)
        raw = json.loads(json.dumps([e.as_dict() for e in vm.tracer.events()]))
        replayed = conform_events(raw, dropped=vm.tracer.dropped)
        assert replayed.ok == live.ok
        assert replayed.events == live.events
        assert replayed.checks == live.checks

    @pytest.mark.usefixtures("eager_jit")
    def test_workload_with_jit_conforms(self):
        from repro.workloads.suite import build_workload

        program = build_workload("164.gzip", scale=0.02)
        vm = TimingVM(program, PRESETS["morph_threshold_5"], tracer=Tracer(), jit=True)
        vm.run()
        report = conform_vm(vm)
        assert report.ok, "\n".join(str(f) for f in report.findings)
        assert vm.jit_metrics["compiles"] >= 1


class TestCheckedProtocolMode:
    def test_checked_run_passes_and_matches_unchecked(self):
        program = assemble(SMC_PROGRAM)
        program.name = "smc"
        checked_vm = TimingVM(program, PRESETS["default"], checked="protocol")
        checked = checked_vm.run()
        assert checked_vm.protocol_report is not None
        assert checked_vm.protocol_report.ok
        plain = TimingVM(assemble(SMC_PROGRAM), PRESETS["default"]).run()
        assert checked.exit_code == plain.exit_code
        assert checked.cycles == plain.cycles

    def test_checked_mode_installs_tracer(self):
        program = assemble(SMC_PROGRAM)
        vm = TimingVM(program, PRESETS["default"], checked="protocol")
        assert vm.tracer.enabled

    def test_unknown_checked_mode_rejected(self):
        with pytest.raises(ValueError):
            TimingVM(assemble(SMC_PROGRAM), PRESETS["default"], checked="equiv")

    def test_violation_raises(self, monkeypatch):
        program = assemble(SMC_PROGRAM)
        program.name = "smc"
        vm = TimingVM(program, PRESETS["default"], checked="protocol")
        # corrupt the stream after the run, before the conformance replay
        vm.tracer.emit(0, "smc", "invalidate", "execution", gen=-1, page=0)
        with pytest.raises(VerificationError) as err:
            vm.run()
        assert any(f.code == "smc-bad-generation" for f in err.value.findings)


class TestConformCli:
    def test_raw_trace_file(self, tmp_path, capsys):
        from repro.verify.cli import main

        program = assemble(SMC_PROGRAM)
        program.name = "smc"
        vm = TimingVM(program, PRESETS["default"], tracer=Tracer())
        vm.run()
        path = tmp_path / "raw.json"
        path.write_text(json.dumps({
            "schema": "repro.obs.rawtrace/1",
            "dropped": vm.tracer.dropped,
            "events": [e.as_dict() for e in vm.tracer.events()],
        }))
        out_json = tmp_path / "report.json"
        assert main(["conform", str(path), "--json", str(out_json)]) == 0
        rows = json.loads(out_json.read_text())
        assert rows[0]["ok"] is True
        assert rows[0]["events"] == len(vm.tracer.events())

    def test_rejects_non_trace_json(self, tmp_path):
        from repro.verify.cli import main

        path = tmp_path / "other.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(SystemExit):
            main(["conform", str(path)])

    def test_violating_trace_fails(self, tmp_path, capsys):
        from repro.verify.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dropped": 0,
            "events": [_ev(10, "specq", "enqueue", qlen=9)],
        }))
        assert main(["conform", str(path)]) == 1
        assert "specq-qlen-mismatch" in capsys.readouterr().out
