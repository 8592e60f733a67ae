"""Phase profiler: nesting, conservation, null-sink behaviour, merging,
and the determinism invariant (profiling never changes results)."""

import os

import pytest

from repro.guest.assembler import assemble
from repro.morph.config import PRESETS
from repro.obs import prof
from repro.obs.prof import (
    NULL_PROFILER,
    PhaseProfiler,
    collapsed_stacks,
    conservation_violations,
    merge_profiles,
    phase_totals,
    render_profile,
    self_times,
)
from repro.vm.timing import TimingVM


def _fake_clock(step=10):
    """A deterministic clock advancing ``step`` ns per read."""
    state = {"now": 0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


class TestPhaseProfiler:
    def test_nested_phases_record_path_keys(self):
        p = PhaseProfiler(clock=_fake_clock())
        with p.phase("run"):
            with p.phase("translate"):
                with p.phase("decode"):
                    pass
            with p.phase("translate"):
                pass
        paths = p.snapshot()["paths"]
        assert set(paths) == {"run", "run;translate", "run;translate;decode"}
        assert paths["run;translate"]["calls"] == 2
        assert paths["run"]["calls"] == 1

    def test_add_books_under_current_path(self):
        p = PhaseProfiler(clock=_fake_clock())
        with p.phase("run"):
            p.add("memsys", 500)
            p.add("memsys", 250)
        p.add("memsys", 1)  # outside any phase: a root entry
        paths = p.snapshot()["paths"]
        assert paths["run;memsys"] == {"ns": 750, "calls": 2}
        assert paths["memsys"] == {"ns": 1, "calls": 1}

    def test_enter_exit_match_with_statement(self):
        p = PhaseProfiler(clock=_fake_clock())
        p.enter("a")
        p.enter("b")
        p.exit()
        p.exit()
        assert set(p.snapshot()["paths"]) == {"a", "a;b"}

    def test_child_time_contained_in_parent(self):
        p = PhaseProfiler(clock=_fake_clock())
        with p.phase("outer"):
            with p.phase("inner"):
                pass
        paths = p.snapshot()["paths"]
        assert paths["outer"]["ns"] >= paths["outer;inner"]["ns"]
        assert conservation_violations(p.snapshot()) == []

    def test_clear_refuses_with_open_phases(self):
        p = PhaseProfiler(clock=_fake_clock())
        p.enter("open")
        with pytest.raises(RuntimeError):
            p.clear()
        p.exit()
        p.clear()
        assert p.snapshot()["paths"] == {}

    def test_snapshot_paths_sorted(self):
        p = PhaseProfiler(clock=_fake_clock())
        for name in ("zeta", "alpha", "mid"):
            with p.phase(name):
                pass
        assert list(p.snapshot()["paths"]) == ["alpha", "mid", "zeta"]


class TestNullProfiler:
    def test_disabled_and_inert(self):
        assert NULL_PROFILER.enabled is False
        with NULL_PROFILER.phase("anything"):
            NULL_PROFILER.add("x", 123)
        NULL_PROFILER.enter("y")
        NULL_PROFILER.exit()
        assert NULL_PROFILER.snapshot() == {}

    def test_phase_returns_shared_context(self):
        assert NULL_PROFILER.phase("a") is NULL_PROFILER.phase("b")

    def test_active_defaults_to_null_without_env(self, monkeypatch):
        monkeypatch.delenv(prof.ENABLE_ENV, raising=False)
        assert not prof.enabled_by_env()

    def test_set_profiler_roundtrip(self):
        installed = PhaseProfiler()
        previous = prof.set_profiler(installed)
        try:
            assert prof.active() is installed
        finally:
            prof.set_profiler(previous)
        assert prof.active() is previous


class TestSnapshotAlgebra:
    def _snap(self, pairs):
        return {
            "clock": "perf_counter_ns",
            "paths": {path: {"ns": ns, "calls": calls} for path, ns, calls in pairs},
        }

    def test_merge_sums_and_sorts(self):
        a = self._snap([("run", 100, 1), ("run;x", 40, 2)])
        b = self._snap([("run", 50, 1), ("run;y", 10, 1)])
        merged = merge_profiles([a, b])
        assert merged["paths"]["run"] == {"ns": 150, "calls": 2}
        assert list(merged["paths"]) == ["run", "run;x", "run;y"]

    def test_merge_order_independent(self):
        snaps = [
            self._snap([("run", 7, 1), ("run;a", 3, 1)]),
            self._snap([("run", 11, 2)]),
            self._snap([("run;a", 5, 4), ("other", 1, 1)]),
        ]
        forward = merge_profiles(snaps)
        backward = merge_profiles(list(reversed(snaps)))
        assert forward == backward

    def test_self_times_subtract_children(self):
        snap = self._snap([("run", 100, 1), ("run;a", 30, 1), ("run;b", 50, 1)])
        selfs = self_times(snap)
        assert selfs["run"] == 20
        assert selfs["run;a"] == 30

    def test_self_times_clamped_at_zero(self):
        snap = self._snap([("run", 10, 1), ("run;a", 30, 1)])
        assert self_times(snap)["run"] == 0

    def test_collapsed_stacks_format(self):
        snap = self._snap([("run", 5_000_000, 1), ("run;a", 2_000_000, 1)])
        lines = collapsed_stacks(snap).splitlines()
        assert "run 3000" in lines
        assert "run;a 2000" in lines

    def test_conservation_flags_overfull_parent(self):
        snap = self._snap([("run", 100, 1), ("run;a", 2_000_000, 1)])
        problems = conservation_violations(snap)
        assert problems and "run" in problems[0]

    def test_conservation_flags_orphans(self):
        snap = self._snap([("run;a", 10, 1)])
        problems = conservation_violations(snap)
        assert problems and "orphan" in problems[0]

    def test_phase_totals_fold_leaves_across_parents(self):
        snap = self._snap(
            [("run;interpreter;memsys", 10, 2), ("run;jit.run;memsys", 5, 1)]
        )
        totals = phase_totals(snap)
        assert totals["memsys"] == {"ns": 15, "calls": 3}

    def test_render_profile_empty(self):
        assert "no profile data" in render_profile({"paths": {}})


HOT_LOOP = """
_start:
    mov ecx, 120
loop:
    add ebx, ecx
    mov [scratch], ebx
    add ebx, [scratch]
    sub ecx, 1
    jnz loop
    mov eax, 1
    and ebx, 255
    int 0x80
.data
scratch: dd 0
"""


def _run_vm(jit):
    program = assemble(HOT_LOOP)
    return TimingVM(program, PRESETS["speculative_4"], jit=jit).run()


class TestProfiledRuns:
    """End-to-end: the instrumentation obeys the profiler's laws."""

    @pytest.mark.parametrize("jit", [False, True])
    def test_results_identical_with_profiling(self, jit):
        baseline = _run_vm(jit)
        previous = prof.set_profiler(PhaseProfiler())
        try:
            profiled = _run_vm(jit)
        finally:
            prof.set_profiler(previous)
        assert profiled == baseline

    def test_phase_time_conservation(self):
        profiler = PhaseProfiler()
        previous = prof.set_profiler(profiler)
        try:
            _run_vm(jit=True)
        finally:
            prof.set_profiler(previous)
        snapshot = profiler.snapshot()
        assert snapshot["paths"], "profiled run recorded nothing"
        assert conservation_violations(snapshot) == []

    def test_taxonomy_phases_present(self):
        profiler = PhaseProfiler()
        previous = prof.set_profiler(profiler)
        try:
            _run_vm(jit=True)
        finally:
            prof.set_profiler(previous)
        leaves = set(phase_totals(profiler.snapshot()))
        for expected in ("translate", "decode", "codegen", "memsys",
                         "jit.compile", "jit.run"):
            assert expected in leaves, f"no {expected} phase recorded"

    def test_fetch_and_speculation_phases_nest_the_translator(self):
        baseline = _run_vm(jit=True)
        profiler = PhaseProfiler()
        previous = prof.set_profiler(profiler)
        try:
            profiled = _run_vm(jit=True)
        finally:
            prof.set_profiler(previous)
        assert profiled == baseline
        snapshot = profiler.snapshot()
        assert {"vm.fetch", "vm.spec"} <= set(phase_totals(snapshot))
        assert conservation_violations(snapshot) == []
        # every translation runs inside the fetch that needed it (on
        # demand or by advancing the speculative slaves), so its time
        # is a child of vm.fetch and never counted beside it
        translate_paths = [p for p in snapshot["paths"] if p.endswith("translate")]
        assert translate_paths
        assert all(p.startswith("vm.fetch;") for p in translate_paths)
        assert "vm.fetch;vm.spec;translate" in translate_paths

    def test_env_enables_profiling(self, monkeypatch):
        monkeypatch.setenv(prof.ENABLE_ENV, "1")
        assert prof.enabled_by_env()
        monkeypatch.setenv(prof.ENABLE_ENV, "off")
        assert not prof.enabled_by_env()

    def test_null_profiler_costs_nothing_measurable(self):
        # the end-to-end cost is perfbench's to measure; this is the
        # structural half — with profiling off, instrumented
        # components hold the shared null object, and the null phase is
        # one shared context manager (no per-call allocation)
        if os.environ.get(prof.ENABLE_ENV):
            pytest.skip("REPRO_PROF set in this environment")
        program = assemble(HOT_LOOP)
        vm = TimingVM(program, PRESETS["speculative_4"], jit=True)
        assert vm._prof is NULL_PROFILER
        assert vm._prof.phase("interpreter") is vm._prof.phase("jit.run")
