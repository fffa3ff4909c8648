"""Unit tests for the statistics layer."""

from repro.htm.stats import AbortReason, AttemptOutcome, AttemptRecord, HTMStats


class TestAbortReason:
    def test_conflict_induced_classification(self):
        # These feed the retry / power-elevation thresholds...
        for reason in (
            AbortReason.CONFLICT,
            AbortReason.VALIDATION,
            AbortReason.CYCLE,
            AbortReason.NAIVE_LIMIT,
            AbortReason.POWER,
            AbortReason.LOCK,
        ):
            assert reason.conflict_induced
        # ...while capacity and explicit aborts do not.
        assert not AbortReason.CAPACITY.conflict_induced
        assert not AbortReason.EXPLICIT.conflict_induced

    def test_conflict_induced_is_a_plain_bool_on_every_member(self):
        # Read on every abort, so it is set once at import rather than
        # computed by a property.
        assert not isinstance(
            vars(AbortReason).get("conflict_induced"), property
        )
        assert {r.value: r.conflict_induced for r in AbortReason} == {
            "conflict": True,
            "validation": True,
            "cycle": True,
            "capacity": False,
            "lock": True,
            "naive-limit": True,
            "explicit": False,
            "power": True,
            "hybrid-slowpath": True,
        }
        for reason in AbortReason:
            assert type(reason.__dict__["conflict_induced"]) is bool


class TestAttemptRecording:
    def test_conflicted_committed(self):
        stats = HTMStats()
        record = AttemptRecord(conflicted=True, outcome=AttemptOutcome.COMMITTED)
        stats.record_attempt(record)
        assert stats.conflicted_committed == 1
        assert stats.conflicted_aborted == 0

    def test_forwarder_and_consumer_roles(self):
        stats = HTMStats()
        stats.record_attempt(
            AttemptRecord(
                conflicted=True,
                forwarded=True,
                consumed=True,
                outcome=AttemptOutcome.ABORTED,
            )
        )
        assert stats.conflicted_aborted == 1
        assert stats.forwarder_aborted == 1
        assert stats.consumer_aborted == 1

    def test_unconflicted_attempts_not_counted(self):
        stats = HTMStats()
        stats.record_attempt(AttemptRecord(outcome=AttemptOutcome.COMMITTED))
        assert stats.conflicted_committed == 0


class TestAggregation:
    def test_total_aborts(self):
        stats = HTMStats()
        stats.aborts[AbortReason.CONFLICT] += 3
        stats.aborts[AbortReason.CYCLE] += 2
        assert stats.total_aborts == 5

    def test_breakdown_covers_all_reasons(self):
        stats = HTMStats()
        stats.aborts[AbortReason.VALIDATION] += 1
        breakdown = stats.abort_breakdown()
        assert breakdown["validation"] == 1
        assert set(breakdown) == {r.value for r in AbortReason}

