import time

from k3cert import quartic
from k3cert.report import FAIL, PASS, run_suite, timed_item


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
