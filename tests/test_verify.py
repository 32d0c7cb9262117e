import json
from pathlib import Path

import pytest

from hilbcomp import picard
from hilbcomp.verify import run_battery


@pytest.fixture(scope="module")
def report():
    return run_battery(n_min=3, n_max=3, seed=2)


def test_battery_passes_and_is_large_enough(report):
    assert report.summary["fail"] == 0
    assert report.summary["total"] >= 25
    assert report.exit_code() == 0


def test_check_ids_are_unique_and_ordered(report):
    ids = [c.id for c in report.checks]
    assert len(ids) == len(set(ids))


def test_rank3_checks_skip_below_their_range(report):
    skipped = {c.id for c in report.checks if c.status == "skipped"}
    assert "cone.chambers.wn.n3" in skipped


def test_json_shape(report):
    payload = report.to_json()
    assert payload["schema"] == 1
    assert payload["summary"]["pass"] + payload["summary"]["skipped"] == payload["summary"]["total"]
    assert all(set(c) >= {"id", "description", "expected", "computed", "status"}
               for c in payload["checks"])
    assert all("runtime_ms" not in c for c in payload["checks"])
    timed = report.to_json(timings=True)
    assert all("runtime_ms" in c for c in timed["checks"])
    json.dumps(payload)  # serializable


def test_text_rendering(report):
    text = report.to_text()
    assert "passed" in text.splitlines()[-1]
    assert any(line.startswith("PASS") for line in text.splitlines())


def test_fault_injection_reports_failure(monkeypatch):
    # a wrong stated pairing fails the relations check and the derived
    # entries, which read the same table, and nothing else
    monkeypatch.setitem(picard.HN_STATED, ("B3", "N"), 5)
    faulted = run_battery(n_min=3, n_max=3, seed=2)
    assert faulted.exit_code() == 1
    bad = [c for c in faulted.checks if c.status == "fail"]
    assert [c.id for c in bad] == ["lattice.relations.hn", "lattice.derived_entries"]


def test_range_validation():
    with pytest.raises(ValueError):
        run_battery(n_min=2, n_max=3)
    with pytest.raises(ValueError):
        run_battery(n_min=4, n_max=3)
    with pytest.raises(ValueError):
        run_battery(n_min=3, n_max=9)


def test_failures_are_recorded_not_raised(monkeypatch):
    # even a crashing check must come back as data
    monkeypatch.setitem(picard.WN_STATED, ("B5", "N'"), 3)
    report = run_battery(n_min=3, n_max=3, seed=2)
    assert report.summary["fail"] >= 1
    assert report.exit_code() == 1


def test_every_check_family_runs_at_n7():
    # each family runs for every n in [n_min, n_max], with or without --deep
    families = ("hilbert.double_structure.", "limit.", "tangent.explicit_elements.",
                "classify.normal_forms.", "tangent.type_")
    report = run_battery(n_min=7, n_max=7, seed=2)
    checks = [c for c in report.checks if c.id.startswith(families)]
    assert len(checks) == 13 and all(c.status == "pass" for c in checks)
    assert report.exit_code() == 0


def test_report_is_byte_identical_to_the_golden_files():
    # the golden files are `hilbcomp verify --n-min 3 --n-max 4 --seed 7`
    # (text, then --format json) as generated before the one-element
    # linkage; a fixed seed must keep giving exactly these bytes, so they
    # are never regenerated to make a change pass
    data = Path(__file__).parent / "data"
    report = run_battery(n_min=3, n_max=4, seed=7)
    text = report.to_text() + "\n"
    rendered = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    assert text.encode() == (data / "verify_n3_4_seed7.txt").read_bytes()
    assert rendered.encode() == (data / "verify_n3_4_seed7.json").read_bytes()


def test_explicit_elements_share_one_syzygy_module(monkeypatch):
    # the 8n - 12 explicit elements of one n are checked against one module
    from hilbcomp import tangent, verify

    calls = []
    real = tangent.syzygies
    monkeypatch.setattr(tangent, "syzygies", lambda gens: calls.append(1) or real(gens))
    expected, computed, ok = verify._check_explicit_elements(4)
    assert ok and computed == expected == {"satisfy_constraints": True, "count": 20}
    assert len(calls) == 1


@pytest.mark.parametrize("which", ["trivial", "versal"])
def test_a_duplicated_explicit_element_fails_the_count(monkeypatch, which):
    # the lists keep their lengths, 3n - 3 and 5(n - 2) + 1, but one element
    # repeats another of its list, so their rank drops by one
    from hilbcomp import fixtures, verify

    real = getattr(fixtures, f"tangent_{which}_elements")

    def elements(n):
        row = real(n)
        return row[:-1] + row[:1]

    monkeypatch.setattr(fixtures, f"tangent_{which}_elements", elements)
    expected, computed, ok = verify._check_explicit_elements(4)
    assert computed == {"satisfy_constraints": True, "count": 19}
    assert expected["count"] == 20 and not ok
