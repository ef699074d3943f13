"""The participation scan split across forked workers: bit-identical peaks,
the serial scan's errors, the in-process rescan of any chunk a worker did
not deliver, and no child left behind.

Every test runs at most one worker per usable CPU, as the scan itself
decides; none raises the worker count.
"""

from __future__ import annotations

import errno
import os
import threading

import pytest

from socsir import scenarios
from socsir.core import ModelKind, StateMB, split_share
from socsir.errors import NegativeStateError, RangeError
from socsir.integrator import observables_for, peak_of, simulate
from socsir.scenarios import (
    SCAN_DT,
    SCAN_T1,
    covid_mitigation_presets,
    participation_scan,
    preset_params,
)

GRID99 = [i / 100 for i in range(1, 100)]
MASKS = covid_mitigation_presets()[0]
WORKERS = min(scenarios._usable_cpus(), len(GRID99))
needs_two_cpus = pytest.mark.skipif(WORKERS < 2, reason="one usable CPU: no fork")


def _hexes(values):
    return [v.hex() for v in values]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def masks_peaks():
    return _hexes(participation_scan(MASKS, 80.0, GRID99).peak_I)


@pytest.mark.parametrize("preset", covid_mitigation_presets(), ids=lambda p: p.name)
def test_peaks_equal_simulate_on_the_full_grid(preset):
    scan = participation_scan(preset, 80.0, GRID99)
    p = preset_params(preset)
    obs_i = observables_for(ModelKind.MB)["I"]
    expected = []
    for q in GRID99:
        s2, s1 = split_share(p.N - 1.0, q)
        init = StateMB(S1=s1, S2=s2, A1=0.0, A2=0.0, Is=1.0, R=0.0)
        traj = simulate(ModelKind.MB, p, init, 0.0, SCAN_T1, SCAN_DT)
        expected.append(peak_of(traj, obs_i)[1])
    assert _hexes(scan.peak_I) == _hexes(expected)
    _assert_no_child_left()


def _no_fork():
    raise OSError(errno.EAGAIN, "fork refused")


def _one_cpu(pid):
    return {0}


def _serial_setups(monkeypatch, setup):
    if setup == "fork-fails":
        monkeypatch.setattr(os, "fork", _no_fork)
    elif setup == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif setup == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", _one_cpu)
    elif setup == "child-dies":
        parent, real = os.getpid(), scenarios._scan_peaks

        def dies_in_child(p, qs, t1, dt):
            if os.getpid() != parent:
                os._exit(7)
            return real(p, qs, t1, dt)

        monkeypatch.setattr(scenarios, "_scan_peaks", dies_in_child)
    elif setup == "child-raises":
        parent, real = os.getpid(), scenarios._scan_peaks

        def raises_in_child(p, qs, t1, dt):
            if os.getpid() != parent:
                raise NegativeStateError("child only", time=1.0)
            return real(p, qs, t1, dt)

        monkeypatch.setattr(scenarios, "_scan_peaks", raises_in_child)


@pytest.mark.parametrize(
    "setup", ["fork-fails", "no-fork", "one-cpu", "child-dies", "child-raises"]
)
def test_in_process_fallbacks_give_the_same_peaks(monkeypatch, masks_peaks, setup):
    _serial_setups(monkeypatch, setup)
    assert _hexes(participation_scan(MASKS, 80.0, GRID99).peak_I) == masks_peaks
    _assert_no_child_left()


def test_no_fork_while_another_thread_runs(monkeypatch, masks_peaks):
    forks = _counting_fork(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(20.0,))
    waiter.start()
    try:
        peaks = participation_scan(MASKS, 80.0, GRID99).peak_I
    finally:
        release.set()
        waiter.join(20.0)
    assert not waiter.is_alive()
    assert forks == []
    assert _hexes(peaks) == masks_peaks


def test_first_failing_grid_point_sets_the_error(monkeypatch):
    # dt = 1000 fails at every point; q = 0.01 fails in the step from
    # t = 2000, later points already in the step from t = 1000, so the
    # error must come from the first grid point, not the earliest time
    with pytest.raises(NegativeStateError) as scan_err:
        participation_scan(MASKS, 80.0, GRID99, t1=1e5, dt=1000.0)
    assert scan_err.value.time == 2000.0
    with pytest.raises(NegativeStateError) as last_err:
        participation_scan(MASKS, 80.0, GRID99[-1:], t1=1e5, dt=1000.0)
    assert last_err.value.time == 1000.0
    _assert_no_child_left()

    monkeypatch.setattr(os, "fork", _no_fork)
    with pytest.raises(NegativeStateError) as serial_err:
        participation_scan(MASKS, 80.0, GRID99, t1=1e5, dt=1000.0)
    assert str(scan_err.value) == str(serial_err.value)


@needs_two_cpus
def test_an_error_raised_in_a_child_arrives_intact(monkeypatch):
    # the first child's chunk starts right after the parent's; it fails in
    # whichever process scans it, as a real error does, so the child exits
    # non-zero and the parent's rescan raises the same error
    first_child_q = GRID99[len(GRID99) // WORKERS]
    scanned_by, real = [], scenarios._scan_peaks

    def chunk_fails(p, qs, t1, dt):
        scanned_by.append(os.getpid())
        if qs[0] == first_child_q:
            raise NegativeStateError(f"failed from q = {qs[0]}", time=123.5)
        return real(p, qs, t1, dt)

    monkeypatch.setattr(scenarios, "_scan_peaks", chunk_fails)
    with pytest.raises(NegativeStateError) as err:
        participation_scan(MASKS, 80.0, GRID99)
    assert str(err.value) == f"failed from q = {first_child_q}"
    assert err.value.time == 123.5
    # chunk 0 and then the rescan ran here; no other chunk did
    assert scanned_by == [os.getpid(), os.getpid()]
    _assert_no_child_left()


@needs_two_cpus
def test_an_interrupted_parent_kills_and_reaps_its_children(monkeypatch):
    parent, real = os.getpid(), scenarios._scan_peaks

    def interrupted_in_parent(p, qs, t1, dt):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(p, qs, t1, dt)

    monkeypatch.setattr(scenarios, "_scan_peaks", interrupted_in_parent)
    with pytest.raises(KeyboardInterrupt):
        participation_scan(MASKS, 80.0, GRID99)
    _assert_no_child_left()


def _counting_fork(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("size", [1, 2, 99])
def test_at_most_one_child_per_extra_cpu(monkeypatch, size):
    forks = _counting_fork(monkeypatch)
    participation_scan(MASKS, 80.0, GRID99[:size], t1=20.0)
    assert len(forks) == min(WORKERS, size) - 1


def test_bad_arguments_raise_before_any_fork(monkeypatch):
    forks = _counting_fork(monkeypatch)
    for kwargs in [{"dt": 0.0}, {"t1": float("inf")}, {"t1": 1e9, "dt": 1.0}]:
        with pytest.raises(RangeError):
            participation_scan(MASKS, 80.0, GRID99, **kwargs)
    with pytest.raises(RangeError):
        participation_scan(MASKS, 80.0, GRID99, n_total=-5.0)
    # N in (0, 1) passed validation and failed in the run, asking for a
    # smaller dt
    with pytest.raises(RangeError, match="at least 1"):
        participation_scan(MASKS, 80.0, GRID99, n_total=0.5)
    with pytest.raises(RangeError):
        participation_scan(MASKS, 80.0, GRID99[::-1])
    assert forks == []
