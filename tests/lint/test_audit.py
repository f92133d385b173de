"""Transformation-safety audit: new violations are attributed to the
stage that introduced them, and the pipeline validates at entry/exit."""

import pytest

from repro.core import pipeline as _pipeline
from repro.core.pipeline import OptimizationPipeline
from repro.lint import TransformationAudit
from repro.sdfg.validation import SDFGValidationError

from tests.lint.graph_defects import (
    chained_sdfg,
    fuse_chained_illegally,
    producer_consumer_sdfg,
)


def test_audit_attributes_new_findings_to_stage():
    sdfg = chained_sdfg()
    audit = TransformationAudit()
    assert audit.start([sdfg]) == []
    fuse_chained_illegally(sdfg)
    new = audit.check([sdfg], "evil-fusion")
    assert [f.rule for f in new] == ["S202", "S202"]
    assert list(audit.by_stage) == ["evil-fusion"]
    assert audit.by_stage["evil-fusion"] == new


def test_audit_reports_each_finding_once():
    sdfg = chained_sdfg()
    audit = TransformationAudit()
    audit.start([sdfg])
    fuse_chained_illegally(sdfg)
    assert len(audit.check([sdfg], "first")) == 2
    assert audit.check([sdfg], "second") == []
    assert "second" not in audit.by_stage


def test_audit_baseline_findings_not_charged_to_any_stage():
    sdfg = chained_sdfg()
    fuse_chained_illegally(sdfg)  # broken before the audit starts
    audit = TransformationAudit()
    baseline = audit.start([sdfg])
    assert [f.rule for f in baseline] == ["S202", "S202"]
    assert audit.check([sdfg], "stage") == []
    assert audit.summary() == "transformation audit: no new findings"


def test_audit_summary_names_stage_and_rule():
    sdfg = chained_sdfg()
    audit = TransformationAudit()
    audit.start([sdfg])
    fuse_chained_illegally(sdfg)
    audit.check([sdfg], "bad-stage")
    text = audit.summary()
    assert "bad-stage" in text and "S202" in text


def _plant_in_region_pruning(monkeypatch, rewrite):
    """Make the region-pruning stage apply ``rewrite`` instead."""
    monkeypatch.setattr(_pipeline, "prune_inactive_regions", rewrite)


def test_pipeline_attributes_findings_to_hook_stage(monkeypatch):
    sdfg = chained_sdfg()
    _plant_in_region_pruning(monkeypatch, fuse_chained_illegally)
    pipeline = OptimizationPipeline()
    stages = pipeline.run([sdfg])
    by_name = {s.name: s for s in stages}
    planted = by_name["Region pruning"]
    assert [f.rule for f in planted.lint_findings] == ["S202", "S202"]
    # every stage before the planted rewrite stayed clean
    for name in (
        "GT4Py + DaCe (Default)",
        "Stencil schedule heuristics",
        "Local caching",
        "Lagrangian contrib. reschedule",
    ):
        assert by_name[name].lint_findings == []
    assert list(pipeline.audit.by_stage) == ["Region pruning"]


def test_pipeline_validates_at_entry():
    sdfg = producer_consumer_sdfg()
    del sdfg.arrays["out"]
    with pytest.raises(SDFGValidationError, match="unknown container"):
        OptimizationPipeline().run([sdfg])


def test_pipeline_validates_after_final_stage(monkeypatch):
    sdfg = producer_consumer_sdfg()

    def corrupt(sd):
        sd.arrays["out"].shape = (10, 8, 2)  # K now too small

    _plant_in_region_pruning(monkeypatch, corrupt)
    pipeline = OptimizationPipeline()
    with pytest.raises(SDFGValidationError, match="exceeds container"):
        pipeline.run([sdfg])
    # the stages up to the corruption were still recorded
    assert any(s.name == "Region pruning" for s in pipeline.stages)
