"""Tests for the composable system registry (``repro.systems``)."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

import repro
import repro.obs
import repro.sim.config
import repro.systems
from repro.__main__ import main
from repro.sim.config import HTMConfig, table2_config
from repro.systems import (
    POLICIES,
    ForwardClass,
    SystemSpec,
    UnknownSystemError,
    get_spec,
    paper,
    paper_systems,
    register,
    registered_systems,
)
from repro.systems.conflict import (
    CHATS,
    BaselineRW,
    LEVCBEIdealized,
    NaiveRS,
    RequesterSpeculates,
    RequesterStalls,
    TimestampRS,
    make_policy,
)
from repro.systems.outcome import ABORT, PolicyOutcome
from repro.systems.priority import PowerPriority


class TestRegistry:
    def test_paper_systems_registered_in_order(self):
        names = [s.name for s in paper_systems()]
        assert names == [
            "baseline",
            "naive-rs",
            "chats",
            "power",
            "pchats",
            "levc-be-idealized",
        ]

    def test_extra_systems_registered(self):
        names = {s.name for s in registered_systems()}
        assert {"stall", "chats-ts"} <= names

    def test_get_spec_identity(self):
        assert get_spec("chats") is get_spec("chats")
        spec = get_spec("pchats")
        assert get_spec(spec) is spec  # pass-through

    def test_unknown_name_lists_registered_keys(self):
        with pytest.raises(UnknownSystemError) as exc:
            get_spec("bogus")
        text = str(exc.value)
        assert "unknown system 'bogus'" in text
        assert "baseline" in text and "chats" in text

    def test_register_rejects_conflicting_redefinition(self):
        spec = get_spec("baseline")
        assert register(spec) is spec  # identical re-registration is a no-op
        clash = dataclasses.replace(spec, retries=99)
        with pytest.raises(ValueError, match="already registered"):
            register(clash)

    def test_layer_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="policy"):
            SystemSpec(name="x", label="X", policy="requester-prays")
        # The retired layer fields are not accepted under any value.
        for field in ("conflict", "ordering", "validation"):
            with pytest.raises(TypeError):
                SystemSpec(name="x", label="X", **{field: "none"})

    def test_spec_repr_and_str(self):
        assert str(get_spec("chats")) == "chats"
        assert "chats" in repr(get_spec("chats"))


class TestCompatShim:
    """The enum-era compatibility layer is gone: each system, policy
    class and tracer has one import path, and the public surface names
    only what exists."""

    def test_system_kind_attributes_are_specs(self):
        """The ``paper`` module's attributes are the registry singletons."""
        assert paper.BASELINE is get_spec("baseline")
        assert paper.CHATS.forwards
        assert paper.POWER.powered
        assert not paper.BASELINE.forwards

    def test_round_trip_by_name_through_registry(self):
        for spec in registered_systems():
            assert table2_config(spec.name).system is get_spec(spec.name)

    def test_every_exported_name_resolves(self):
        for module in (repro, repro.systems, repro.sim.config, repro.obs):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_shim_modules_are_gone(self):
        for package, module in (
            ("systems", "compat"),
            ("core", "policies"),
            ("core", "forwarding"),
            ("systems", "ordering"),
            ("systems", "validation"),
            ("systems", "compose"),
        ):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.{package}.{module}")

    def test_enum_era_names_are_gone(self):
        # Compared case- and underscore-insensitively, so a respelling
        # of the retired enum or its iteration helper is caught too.
        retired = {"systemkind", "allsystemkinds"}
        for module in (repro, repro.systems):
            public = {name.lower().replace("_", "") for name in dir(module)}
            assert not retired & public, module.__name__
        assert not hasattr(SystemSpec, "value")


class TestConfigValidation:
    def test_every_registered_spec_builds_valid_config(self):
        for spec in registered_systems():
            cfg = table2_config(spec)
            assert isinstance(cfg, HTMConfig)
            assert cfg.system is spec
            assert hash(cfg) == hash(table2_config(spec))

    def test_every_registered_spec_builds_policy(self):
        for spec in registered_systems():
            policy = make_policy(table2_config(spec))
            assert hasattr(policy, "resolve")

    def test_baseline_policy_is_baseline_rw(self):
        assert isinstance(make_policy(table2_config("baseline")), BaselineRW)
        assert isinstance(
            make_policy(table2_config("chats")), RequesterSpeculates
        )
        assert isinstance(
            make_policy(table2_config("stall")), RequesterStalls
        )


#: The class each policy name builds.
POLICY_CLASS = {
    "requester-wins": BaselineRW,
    "requester-stalls": RequesterStalls,
    "speculates-naive": NaiveRS,
    "speculates-pic": CHATS,
    "speculates-timestamp": TimestampRS,
    "speculates-levc": LEVCBEIdealized,
}


class TestPolicyTable:
    """The closed policy set: each registered system runs the class its
    ``policy`` names, and the derived spec properties follow the name."""

    def test_policy_names_are_closed(self):
        assert set(POLICIES) == set(POLICY_CLASS)

    @pytest.mark.parametrize(
        "spec", registered_systems(), ids=lambda spec: spec.name
    )
    def test_registered_system_policy(self, spec):
        policy = make_policy(table2_config(spec))
        if spec.powered:
            assert type(policy) is PowerPriority
            policy = policy.base
        assert type(policy) is POLICY_CLASS[spec.policy]
        assert spec.forwards == (
            spec.policy
            in (
                "speculates-naive",
                "speculates-pic",
                "speculates-timestamp",
                "speculates-levc",
            )
        )
        assert spec.forwards == isinstance(policy, RequesterSpeculates)
        assert spec.uses_timestamps == (
            spec.name in ("stall", "chats-ts", "levc-be-idealized")
        )


class TestPolicyOutcome:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ABORT.resolution = None

    def test_slots(self):
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(
                PolicyOutcome(ABORT.resolution), "not_a_field", 1
            )


class TestUnknownSystemErrors:
    def test_cli_rejects_unknown_system(self):
        with pytest.raises(SystemExit, match="unknown system"):
            main(["run", "counter", "--system", "bogus"])

    def test_run_workload_rejects_unknown_system(self):
        with pytest.raises(UnknownSystemError, match="registered systems"):
            repro.run_workload("counter", system="bogus")


class TestNewSystemsEndToEnd:
    @pytest.mark.parametrize("system", ["stall", "chats-ts"])
    def test_runs_and_commits(self, system):
        result = repro.run_workload(
            "synth", system=system, threads=4, scale=0.1
        )
        s = result.summary()
        assert s["system"] == system
        assert s["commits"] > 0

    @pytest.mark.parametrize("system", ["stall", "chats-ts"])
    def test_deterministic(self, system):
        runs = [
            repro.run_workload(
                "counter", system=system, threads=4, seed=7, scale=0.1
            ).to_dict()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_stall_policy_nacks_younger_requesters(self):
        # chats-ts forwards speculatively; stall never does.
        result = repro.run_workload(
            "counter", system="stall", threads=4, scale=0.2
        )
        assert result.stats.spec_forwards == 0


class TestCustomRegistration:
    def test_register_and_run_without_core_edits(self):
        # A brand-new system from an existing policy: naive
        # requester-speculates restricted to write-forwarding.
        spec = register(
            SystemSpec(
                name="test-naive-w",
                label="Naive W (test)",
                policy="speculates-naive",
                retries=8,
                forward_class=ForwardClass.W,
                vsb_size=2,
                validation_interval=25,
            )
        )
        assert get_spec("test-naive-w") is spec
        result = repro.run_workload(
            "counter", system="test-naive-w", threads=4, scale=0.1
        )
        assert result.summary()["commits"] > 0
        assert result.system == "test-naive-w"

    def test_registered_spec_appears_in_cli_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "stall" in out
        assert "chats-ts" in out
        assert "policy=speculates-timestamp" in out  # policy printed
