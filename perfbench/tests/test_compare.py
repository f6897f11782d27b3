from compare import quartiles, verdict


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_verdict_against_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [10.5, 10.4, 10.6], "lower", 0.1) == "ok"
    assert verdict(base, [12.0, 12.1, 11.9], "lower", 0.1) == "REGRESSION"
    assert verdict(base, [8.0, 8.1, 7.9], "higher", 0.1) == "REGRESSION"
    assert verdict(base, [12.0], "lower", None) == "-"
    wide = [5.0, 10.0, 15.0, 20.0]
    assert verdict(wide, [13.0], "lower", 0.1) == "unresolved"
    assert verdict(wide, [1.0, 2.0], "lower", 0.1) == "better"
