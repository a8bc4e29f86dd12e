"""Tests for the per-stage recorder behind the manifests' `stages`."""

import pytest

from decg.record import count, recording, stage


def test_counts_go_to_the_open_stage():
    with recording() as stages:
        count("dropped")  # no stage is open
        with stage("first"):
            count("a", 2)
            count("a")
        count("dropped")
        with stage("second"):
            count("b")
            count("b", 4)
    assert [(s["name"], s["counters"]) for s in stages] == [
        ("first", {"a": 3}),
        ("second", {"b": 5}),
    ]
    assert all(s["wall_s"] >= 0 for s in stages)


def test_nothing_is_recorded_outside_a_recording():
    with stage("unseen"):
        count("unseen")
    with recording() as stages:
        pass
    assert stages == []
    with stage("after"):
        count("after")
    assert stages == []


def test_an_error_ends_the_stage():
    with recording() as stages:
        with pytest.raises(KeyError):
            with stage("failing"):
                raise KeyError("x")
        count("after")  # the failed stage is closed: nothing is open
    assert [(s["name"], s["counters"]) for s in stages] == [("failing", {})]


def test_an_inner_stage_hands_counting_back_to_the_outer_one():
    with recording() as stages:
        with stage("outer"):
            count("a")
            with stage("inner"):
                count("b")
            count("a")
        count("dropped")  # both stages are closed
    assert [(s["name"], s["counters"]) for s in stages] == [
        ("outer", {"a": 2}),
        ("inner", {"b": 1}),
    ]
