"""Explicit-state model checking of the runtime protocols.

Two halves:

* the clean models (SMC invalidation, the morph FSM, the concurrent
  disk cache) explore to their small-scope bounds with zero
  violations — the protocols as implemented are safe;
* every planted-bug variant is caught with a shortest counterexample
  naming the expected invariant — the models are strong enough to see
  the bugs they were built to exclude.
"""

import json

import pytest

from repro.verify.protocol import (
    MODELS,
    PLANTED_BUGS,
    Model,
    check_model,
)
from repro.verify.protocol.mc import Violation


class _TinyCounter(Model):
    """0..3 counter; 'bad' jumps straight to the violating value."""

    name = "tiny"
    invariants = ("under-three",)

    def __init__(self, with_bug: bool = False):
        self.with_bug = with_bug

    def initial_states(self):
        return [0]

    def actions(self, state):
        out = []
        if state < 2:
            out.append(("inc", state + 1))
        if self.with_bug:
            out.append(("bad", 3))
        return out

    def violations(self, state):
        return ["under-three"] if state >= 3 else []

    def is_quiescent(self, state):
        return True


class _Deadlocker(Model):
    """One step into a state with no actions and no quiescence."""

    name = "deadlocker"
    invariants = ()
    deadlock_invariant = "stuck"

    def initial_states(self):
        return ["start"]

    def actions(self, state):
        return [("go", "stuck")] if state == "start" else []

    def violations(self, state):
        return []

    def is_quiescent(self, state):
        return state == "start"


class TestChecker:
    def test_clean_counter(self):
        result = check_model(_TinyCounter())
        assert result.ok
        assert result.states == 3
        assert result.violations == []

    def test_counterexample_is_shortest(self):
        result = check_model(_TinyCounter(with_bug=True))
        assert not result.ok
        (violation,) = result.violations
        assert violation.invariant == "under-three"
        # BFS: the one-step "bad" edge, not inc,inc,bad
        assert list(violation.trace) == ["bad"]

    def test_deadlock_detection(self):
        result = check_model(_Deadlocker())
        assert not result.ok
        (violation,) = result.violations
        assert violation.invariant == "stuck"
        assert list(violation.trace) == ["go"]

    def test_truncation_flagged(self):
        result = check_model(MODELS["smc"](), max_states=10)
        assert result.truncated
        assert not result.ok

    def test_result_serializes(self):
        result = check_model(_TinyCounter(with_bug=True))
        doc = json.loads(json.dumps(result.as_dict()))
        assert doc["model"] == "tiny"
        assert doc["violations"][0]["invariant"] == "under-three"
        assert str(result)  # summary line renders

    def test_violation_renders(self):
        violation = Violation(invariant="inv", state="s", trace=("a", "b"))
        assert "inv" in str(violation)
        assert "a -> b" in str(violation)


class TestCleanModels:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_model_is_safe(self, name):
        result = check_model(MODELS[name]())
        assert result.ok, f"{name}:\n" + "\n".join(str(v) for v in result.violations)
        assert not result.truncated
        assert result.states > 1
        assert result.invariant_checks == result.states * len(result.invariants)

    def test_expected_state_space_sizes(self):
        # pin the small-scope bounds: a silent collapse of a model's
        # state space (a bug in its actions) would pass test_model_is_safe
        sizes = {name: check_model(MODELS[name]()).states for name in MODELS}
        assert sizes["smc"] > 500
        assert sizes["morph"] > 300
        assert sizes["diskcache"] >= 10


class TestPlantedBugs:
    @pytest.mark.parametrize("variant", sorted(PLANTED_BUGS))
    def test_bug_is_caught(self, variant):
        model_name, kwargs, expected = PLANTED_BUGS[variant]
        result = check_model(MODELS[model_name](**kwargs))
        matching = [v for v in result.violations if v.invariant == expected]
        assert matching, (
            f"{variant}: expected a {expected} counterexample, got "
            f"{[v.invariant for v in result.violations]}"
        )
        # a counterexample is a real trace, not the initial state
        assert len(matching[0].trace) >= 1

    def test_boundary_keeping_closures_runs_a_stale_one(self):
        # the shared-space SMC defect: the block boundary handled the
        # write but left the adopted closure in the table
        model_name, kwargs, _ = PLANTED_BUGS["smc-boundary-keeps-closures"]
        (violation,) = check_model(MODELS[model_name](**kwargs)).violations
        assert violation.trace == (
            "jit-compile(p0)", "write-text", "boundary-invalidate", "exec-stale-jit(p0@g0)",
        )

    def test_every_model_has_a_planted_bug(self):
        covered = {model_name for model_name, _, _ in PLANTED_BUGS.values()}
        assert covered == set(MODELS)

    def test_every_invariant_name_is_declared(self):
        for variant, (model_name, _, expected) in PLANTED_BUGS.items():
            model = MODELS[model_name]()
            declared = set(model.invariants) | {model.deadlock_invariant}
            assert expected in declared, variant


class TestModelCli:
    def test_model_command_clean(self, capsys):
        from repro.verify.cli import main

        assert main(["model", "diskcache"]) == 0
        out = capsys.readouterr().out
        assert "diskcache" in out
        assert "[ok]" in out

    def test_model_command_planted_and_json(self, tmp_path, capsys):
        from repro.verify.cli import main

        path = tmp_path / "models.json"
        assert main(["model", "--planted", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert {row["model"] for row in doc["models"]} == set(MODELS)
        assert all(row["caught"] for row in doc["planted"])
        assert len(doc["planted"]) == len(PLANTED_BUGS)

    def test_model_command_rejects_unknown(self):
        from repro.verify.cli import main

        with pytest.raises(SystemExit):
            main(["model", "nonesuch"])
