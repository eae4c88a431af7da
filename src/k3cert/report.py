"""Verification report containers and deterministic JSON output."""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field

ARTIFACT_VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"
SKIPPED = "skipped"

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class ReportItem:
    id: str
    status: str
    details: str
    paper_ref: str = ""
    elapsed_ms: float = 0.0     # milliseconds, to the microsecond

    def to_json(self):
        return {"id": self.id, "status": self.status, "details": self.details,
                "paper_ref": self.paper_ref, "elapsed_ms": self.elapsed_ms}


@dataclass
class Report:
    items: list = field(default_factory=list)
    artifact_version: str = ARTIFACT_VERSION

    def extend(self, items):
        self.items.extend(items)

    def summary(self):
        counts = {PASS: 0, FAIL: 0, DISCREPANCY: 0, SKIPPED: 0}
        for it in self.items:
            counts[it.status] = counts.get(it.status, 0) + 1
        return counts

    @property
    def ok(self):
        """Exit-code contract: only "fail" fails the build."""
        return all(it.status != FAIL for it in self.items)

    def sorted_items(self):
        return sorted(self.items, key=lambda it: it.id)

    def to_json(self):
        return {
            "artifact_version": self.artifact_version,
            "items": [it.to_json() for it in self.sorted_items()],
            "summary": self.summary(),
        }

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, indent=2)

    def render_text(self):
        lines = []
        for it in self.sorted_items():
            lines.append("[%s] %s %s" % (it.status.upper(), it.id, it.details))
        c = self.summary()
        lines.append("%d pass, %d fail, %d discrepancy, %d skipped"
                     % (c[PASS], c[FAIL], c[DISCREPANCY], c[SKIPPED]))
        return "\n".join(lines)


def verdict(problems, summary):
    """A check's (status, details): the summary when nothing went wrong,
    else every problem found."""
    if problems:
        return FAIL, "; ".join(problems)
    return PASS, summary


def _crash_site(exc):
    """file:function of the innermost traceback frame inside k3cert; the
    traceback starts in timed_item, so there always is one."""
    frame = [f for f in traceback.extract_tb(exc.__traceback__)
             if os.path.dirname(os.path.abspath(f.filename)) == _PACKAGE_DIR][-1]
    return "%s:%s" % (os.path.basename(frame.filename), frame.name)


def timed_item(id, paper_ref, fn):
    """Run fn() -> (status, details) and wrap it with its time in
    milliseconds, rounded to the microsecond."""
    t0 = time.perf_counter_ns()
    try:
        status, details = fn()
    except Exception as exc:  # defensive: a crash is a failure, not an abort
        status, details = FAIL, "exception %s at %s: %s" % (
            type(exc).__name__, _crash_site(exc), exc)
    ms = round((time.perf_counter_ns() - t0) / 1e6, 3)
    return ReportItem(id=id, status=status, details=details,
                      paper_ref=paper_ref, elapsed_ms=ms)


def run_suite(suite, *args, tag=""):
    """Run a registry of (id, paper_ref, check) entries, each check called
    as check(*args) and returning (status, details); ids get the tag."""
    return Report([timed_item(id + tag, paper_ref, lambda fn=fn: fn(*args))
                   for id, paper_ref, fn in suite])
