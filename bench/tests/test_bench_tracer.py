"""Tests for the benchmark's span tracer."""

import sys
import time
from fractions import Fraction as F

import pytest

import discsemi
import tracer as tracer_mod
from tracer import LAYERS, Tracer


def _bindings():
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if module is not None and (name == "discsemi" or name.startswith("discsemi."))
        for attr, value in vars(module).items()
    }


def _originals():
    return [
        getattr(sys.modules[f"discsemi.{layer}"], fn)
        for layer, fns in LAYERS.items()
        for fn in fns
    ]


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    originals = _originals()
    original_moments = discsemi.moments
    tracer = Tracer()
    tracer.install()
    try:
        # wrapped where defined, where re-exported and where imported by name
        assert discsemi.moments is not original_moments
        assert discsemi.functional.moments is discsemi.moments
        assert discsemi.transforms.moments is discsemi.moments
        assert discsemi.orthopoly.moments is discsemi.moments
        assert discsemi.moments.__wrapped__ is original_moments
        for module_name, module in sys.modules.items():
            if module_name.startswith("discsemi"):
                for value in vars(module).values():
                    assert not any(value is fn for fn in originals), module_name
    finally:
        tracer.uninstall()
    assert _bindings() == before


def test_install_twice_is_refused():
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.start("root")  # 0 .. 10
    child = tracer.start("child")  # 1 .. 7
    leaf = tracer.start("leaf")  # 3 .. 4
    tracer.finish(leaf)
    tracer.finish(child)
    tracer.finish(root)
    assert tracer.self_times() == {"root": 4.0, "child": 5.0, "leaf": 1.0}
    assert tracer.root_time() == 10.0


def test_self_times_sum_to_traced_wall_time():
    spec = discsemi.apply_truncation(
        discsemi.FunctionalSpec(a=[F(1, 3)], b=[F(2, 5)], z=F(1, 2)), 20
    )
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        root = tracer.start(tracer_mod.PASS_SPAN)
        eq = discsemi.derive_equation(spec)
        discsemi.verify_equation(spec, eq)
        discsemi.compose_check(spec, F(-1, 2), F(1, 3))
        tracer.finish(root)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    self_times = tracer.self_times()
    assert len(tracer.spans) > 10
    assert sum(self_times.values()) == pytest.approx(tracer.root_time(), abs=1e-9)
    assert tracer.root_time() <= wall
    assert tracer.root_time() == pytest.approx(wall, rel=0.05)


def test_counters_and_errors():
    tracer = Tracer()
    tracer.install()
    try:
        spec = discsemi.apply_truncation(
            discsemi.FunctionalSpec(a=[F(1, 3)], b=[], z=F(1, 2)), 10
        )
        discsemi.moments(spec, 3)
        discsemi.moments(spec, 3)
        with pytest.raises(discsemi.InputError):
            discsemi.moments(spec, -1)
    finally:
        tracer.uninstall()
    assert tracer.counters["functional.moments.calls"] == 3
    assert tracer.counters["functional.errors"] == 1
    assert tracer.counters["functional.moments.values"] == 8
    assert len(tracer.moment_keys) == 1
    # two calls; nu_0..nu_3 on {0..10} sum partial series of 10, 9, 8, 7 terms
    assert tracer.counters["hyper.finite_terms"] == 2 * (10 + 9 + 8 + 7)
    assert tracer.counters["functional.moments.out_bits"] > 0
    assert not tracer._stack
