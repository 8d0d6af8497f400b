import json

from torusdirac import checks


def test_window_record_carries_both_bounds():
    rep = checks.RunReport("records")
    checks.Check("inside", 10, lambda: 4.0, (3.8, 4.2), "window").record(rep)
    checks.Check("outside", 10, lambda: 5.0, (3.8, 4.2), "window").record(rep)
    checks.Check("below", 10, lambda: 0.5, 1.0).record(rep)
    lines = rep.to_text().splitlines()
    assert lines[1].startswith("PASS inside")
    assert lines[1].endswith("value=4.000000e+00 window=(3.8, 4.2)")
    assert lines[2].startswith("FAIL outside")
    assert lines[2].endswith("value=5.000000e+00 window=(3.8, 4.2)")
    # a one-sided record keeps its single bound
    assert lines[3].endswith("value=5.000000e-01 tol=1")
    tolerances = [r["tolerance"] for r in json.loads(rep.to_json())["records"]]
    assert tolerances == [[3.8, 4.2], [3.8, 4.2], 1.0]
