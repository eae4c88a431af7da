from k3cert import quartic
from k3cert.report import FAIL, PASS, run_suite


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
