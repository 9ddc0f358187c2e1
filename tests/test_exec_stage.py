"""Stage vocabulary: StageResult, severity ordering, error-budget counts."""

import pytest

from repro.exec.stage import (
    ANALYSIS_STAGES,
    FINISHED_STATUSES,
    STATUSES,
    StageResult,
    status_counts,
    worst_status,
)


class TestStageResult:
    def test_defaults_are_ok(self):
        result = StageResult(stage="links")
        assert result.status == "ok"
        assert result.finished
        assert not result.degraded
        assert not result.from_checkpoint

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            StageResult(stage="links", status="exploded")

    def test_finished_statuses(self):
        assert FINISHED_STATUSES == ("ok", "degraded")
        for status in STATUSES:
            result = StageResult(stage="x", status=status)
            assert result.finished == (status in FINISHED_STATUSES)

    def test_degraded_means_any_not_ok(self):
        for status in STATUSES:
            result = StageResult(stage="x", status=status)
            assert result.degraded == (status != "ok")

    def test_as_dict_omits_empty_strings(self):
        data = StageResult(stage="links", seconds=0.5, items=3).as_dict()
        assert data == {
            "stage": "links",
            "status": "ok",
            "seconds": 0.5,
            "items": 3,
            "attempts": 1,
        }

    def test_as_dict_keeps_populated_fields(self):
        result = StageResult(
            stage="pathways",
            status="degraded",
            detail="truncated",
            degradation="max-depth-3",
            from_checkpoint=True,
        )
        data = result.as_dict()
        assert data["detail"] == "truncated"
        assert data["degradation"] == "max-depth-3"
        assert data["from_checkpoint"] is True

    def test_roundtrip_via_dict(self):
        original = StageResult(
            stage="reachability",
            status="failed",
            seconds=1.25,
            items=7,
            attempts=2,
            error="ValueError: boom",
            degradation="max-atoms-256",
        )
        rebuilt = StageResult.from_dict(original.as_dict())
        assert rebuilt == original

    def test_data_payload_roundtrips(self):
        original = StageResult(
            stage="sweep1.router-r1",
            status="ok",
            items=4,
            data={"lost_pairs": 4, "partitioned_instances": [1, 3]},
        )
        rebuilt = StageResult.from_dict(original.as_dict())
        assert rebuilt.data == original.data
        assert rebuilt == original

    def test_empty_data_not_serialized(self):
        assert "data" not in StageResult(stage="links").as_dict()


class TestWorstStatus:
    def test_empty_is_none(self):
        assert worst_status([]) is None

    def test_ordering(self):
        assert worst_status(["ok", "ok"]) == "ok"
        assert worst_status(["ok", "degraded"]) == "degraded"
        assert worst_status(["degraded", "skipped"]) == "skipped"
        assert worst_status(["skipped", "timeout"]) == "timeout"
        assert worst_status(["timeout", "failed", "ok"]) == "failed"

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            worst_status(["ok", "melted"])


class TestStatusCounts:
    def test_counts_every_status_key(self):
        results = [
            StageResult(stage="a"),
            StageResult(stage="b", status="timeout"),
            StageResult(stage="c", status="timeout"),
        ]
        counts = status_counts(results)
        assert counts["ok"] == 1
        assert counts["timeout"] == 2
        assert counts["failed"] == 0
        assert set(counts) == set(STATUSES)


def test_analysis_stages_cover_the_papers_passes():
    assert ANALYSIS_STAGES == (
        "links",
        "process_graph",
        "instances",
        "pathways",
        "address_space",
        "consistency",
        "reachability",
        "survivability",
    )
