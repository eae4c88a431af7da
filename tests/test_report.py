import dataclasses
import time

import pytest

from k3cert import quartic
from k3cert.report import (DISCREPANCY, FAIL, PASS, SKIPPED, Report,
                           ReportItem, run_suite, timed_item)


def test_crash_is_one_fail_item_naming_type_and_frame(monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(quartic, "orbit_of_anchor", boom)
    suite = (("lemma-3.13", "Lemma 3.13", quartic.check_lemma313),
             ("lemma-3.11", "Lemma 3.11", quartic.check_lemma311))
    report = run_suite(suite, quartic.build_context())
    crash, other = report.items
    assert (crash.id, crash.status) == ("lemma-3.13", FAIL)
    assert "RuntimeError" in crash.details and "boom" in crash.details
    assert "quartic.py:check_lemma313" in crash.details
    assert (other.id, other.status) == ("lemma-3.11", PASS)


def test_elapsed_ms_to_the_microsecond():
    # a check of a fraction of a millisecond no longer reads 0
    def quick():
        time.sleep(0.0002)
        return PASS, "quick"
    item = timed_item("quick", "", quick)
    assert 0.2 <= item.elapsed_ms < 1000
    assert item.elapsed_ms == round(item.elapsed_ms, 3)
    assert item.to_json()["elapsed_ms"] == item.elapsed_ms


def test_report_counts_cannot_go_stale():
    items = [ReportItem("b", PASS, ""), ReportItem("a", DISCREPANCY, "")]
    report = Report(items)
    items.append(ReportItem("c", FAIL, ""))
    assert isinstance(report.items, tuple) and len(report.items) == 2
    assert report.ok
    assert report.summary == {PASS: 1, FAIL: 0, DISCREPANCY: 1, SKIPPED: 0}
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.items = report.items + (ReportItem("c", FAIL, ""),)
    assert report.render_text().splitlines() == [
        "[DISCREPANCY] a ", "[PASS] b ", "1 pass, 0 fail, 1 discrepancy, 0 skipped"]
