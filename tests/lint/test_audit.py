"""Transformation-safety audit: new violations are attributed to the
stage that introduced them, and the pipeline validates at entry/exit."""

import pytest

from repro.core.pipeline import OptimizationPipeline, PipelineOptions
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


def test_pipeline_attributes_findings_to_hook_stage():
    sdfg = chained_sdfg()
    pipeline = OptimizationPipeline(
        PipelineOptions(fine_tune_hooks=[fuse_chained_illegally])
    )
    stages = pipeline.run([sdfg])
    by_name = {s.name: s for s in stages}
    hook_stage = by_name["Lagrangian contrib. reschedule"]
    assert [f.rule for f in hook_stage.lint_findings] == ["S202", "S202"]
    # every stage before the hook stayed clean
    for name in (
        "GT4Py + DaCe (Default)",
        "Stencil schedule heuristics",
        "Local caching",
    ):
        assert by_name[name].lint_findings == []
    assert pipeline.audit is not None
    assert list(pipeline.audit.by_stage) == ["Lagrangian contrib. reschedule"]


def test_pipeline_audit_can_be_disabled():
    sdfg = chained_sdfg()
    pipeline = OptimizationPipeline(
        PipelineOptions(
            lint_audit=False, fine_tune_hooks=[fuse_chained_illegally]
        )
    )
    stages = pipeline.run([sdfg])
    assert pipeline.audit is None
    assert all(s.lint_findings == [] for s in stages)


def test_pipeline_validates_at_entry():
    sdfg = producer_consumer_sdfg()
    del sdfg.arrays["out"]
    with pytest.raises(SDFGValidationError, match="unknown container"):
        OptimizationPipeline().run([sdfg])


def test_pipeline_validates_after_final_stage():
    sdfg = producer_consumer_sdfg()

    def corrupt(sd):
        sd.arrays["out"].shape = (10, 8, 2)  # K now too small

    pipeline = OptimizationPipeline(PipelineOptions(fine_tune_hooks=[corrupt]))
    with pytest.raises(SDFGValidationError, match="exceeds container"):
        pipeline.run([sdfg])
    # the stages up to the corruption were still recorded
    assert any(s.name == "Region pruning" for s in pipeline.stages)
