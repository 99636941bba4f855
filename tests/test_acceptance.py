"""The acceptance battery, one test per criterion, at the full contract
ranges.  Each test prints its pass/fail line."""

from rsl import acceptance


def _run(fn, **kwargs):
    report = fn(**kwargs)
    status = "PASS" if report["passed"] else "FAIL"
    print(
        f"{status} criterion {report['criterion']:2d} [{report['name']}] "
        f"({report['seconds']}s)"
    )
    assert report["passed"], report["detail"]
    return report


def test_criterion_01_initial_segment_vanishing():
    _run(acceptance.criterion_1)


def test_criterion_02_positivity_without_rank_one():
    _run(acceptance.criterion_2)


def test_criterion_03_theorem22_positivity():
    _run(acceptance.criterion_3)


def test_criterion_04_vanishing_predicates():
    _run(acceptance.criterion_4)


def test_criterion_05_stability():
    _run(acceptance.criterion_5)


def test_criterion_06_partitioning_verified():
    _run(acceptance.criterion_6)


def test_criterion_07_h_agreement():
    _run(acceptance.criterion_7)


def test_criterion_08_descent_characterization():
    _run(acceptance.criterion_8)


def test_criterion_09_hook_multiplicities():
    _run(acceptance.criterion_9)


def test_criterion_10_witness_chains():
    _run(acceptance.criterion_10)


def test_criterion_11_worked_facets():
    _run(acceptance.criterion_11)


def test_criterion_12_oracle_checks():
    _run(acceptance.criterion_12)


def test_criterion_13_lengthening_condition():
    _run(acceptance.criterion_13)


def test_criterion_14_one_support_tables():
    report = _run(acceptance.criterion_14)
    assert report["detail"].startswith("64 sets"), report["detail"]  # every S inside {1..6}


def test_criterion_15_every_shape_of_twelve():
    report = _run(acceptance.criterion_15)
    assert report["detail"].startswith("77 shapes"), report["detail"]


def test_run_all_builds_the_partitionings_once(monkeypatch):
    """Criteria 6-8 read one list of partitionings per ``run_all``; a second
    run builds it again, so nothing outlives a run."""
    builds = []
    build = acceptance._schemes

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(acceptance, "_schemes", counted)
    monkeypatch.setattr(
        acceptance,
        "CRITERIA",
        [acceptance.criterion_6, acceptance.criterion_7, acceptance.criterion_8],
    )
    for run in (1, 2):
        reports = acceptance.run_all()
        assert [r["passed"] for r in reports] == [True] * 3, reports
        assert len(builds) == run
