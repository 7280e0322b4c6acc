"""The outside-in tracer: self-time accounting and clean removal."""

import importlib
import pkgutil
import time
import types

import blstate
from tracer import Tracer, traceable


def _toy_module():
    toy = types.ModuleType("toypkg.toy")

    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def leaf(n):
        spin(0.002 * n)
        return n

    def inner(n):
        spin(0.003)
        return toy.leaf(n) + toy.leaf(n + 1)

    def outer():
        spin(0.001)
        return toy.inner(1) + toy.leaf(2) + toy.inner(3)

    for fn in (leaf, inner, outer):
        fn.__module__ = toy.__name__
        setattr(toy, fn.__name__, fn)
    return toy


def test_self_times_sum_to_wall_time_on_nested_call():
    toy = _toy_module()
    tracer = Tracer()
    assert tracer.install([toy], package="toypkg") == 3
    start = time.perf_counter()
    try:
        assert toy.outer() == 1 + 2 + 2 + 3 + 4
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - start
    summary = tracer.summary()
    assert {name: s["calls"] for name, s in summary.items()} == {
        "toy.outer": 1,
        "toy.inner": 2,
        "toy.leaf": 5,
    }
    root = [s for s in tracer.spans if s[1] == 0]
    assert len(root) == 1 and root[0][2] == "toy.outer"
    root_duration = root[0][4] - root[0][3]
    total_self = sum(s["self_s"] for s in summary.values())
    assert abs(total_self - root_duration) < 1e-9
    assert root_duration <= wall
    assert summary["toy.outer"]["incl_s"] == root_duration
    # every child span lies inside its parent and points at it
    by_id = {s[0]: s for s in tracer.spans}
    for span_id, parent, _, begin, end in tracer.spans:
        if parent:
            assert by_id[parent][3] <= begin <= end <= by_id[parent][4]


def test_distinct_ratio_hashes_arguments():
    toy = _toy_module()
    tracer = Tracer()
    tracer.install([toy], package="toypkg")
    try:
        for n in (1, 1, 2, 1):
            toy.leaf(n)
    finally:
        tracer.uninstall()
    assert tracer.summary()["toy.leaf"]["distinct_ratio"] == 2 / 4


def test_wrappers_cover_rebound_names_and_are_removed():
    modules = [blstate] + [
        importlib.import_module(f"blstate.{m.name}") for m in pkgutil.iter_modules(blstate.__path__)
    ]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = Tracer()
    wrapped = tracer.install(modules)
    try:
        assert wrapped > 50
        suite, states, filters = blstate.suite, blstate.states, blstate.filters
        # one wrapper serves the defining module and every re-binding
        assert suite.check_state is states.check_state is blstate.check_state
        assert states.check_state is not before[("blstate.states", "check_state")]
        assert filters.all_filters.__wrapped__ is before[("blstate.filters", "all_filters")]
        assert not traceable(blstate.algebra.FiniteBLAlgebra, "blstate")
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
