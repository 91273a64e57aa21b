"""Guard: attaching a metrics registry must not perturb the simulation.

The observability contract is "observe, never steer": a run with a
registry attached must produce *identical* simulated results — same
bandwidth, same event count, same virtual clock — as the same run
without one.  This is what lets golden metric snapshots stand in for
protocol behaviour: if metrics could shift timing, the snapshots would
pin the instrumentation instead of the protocols.

The contract is checked on a single RC bandwidth run and on whole
quick-grid MPI figures, whose traffic drives the link, Longbow and RC
pumps through window stalls and eager/rendezvous flips.
"""

import pytest

from repro.core import wan_pair
from repro.core.registry import run_experiment
from repro.obs import MetricsRegistry, use_registry
from repro.sim import core as sim_core
from repro.verbs import perftest

DELAY_US = 1000.0
SIZE = 65536
ITERS = 32


def _run(attach_metrics):
    if attach_metrics:
        registry = MetricsRegistry()
        with use_registry(registry):
            s = wan_pair(DELAY_US)
            bw = perftest.run_send_bw(s.sim, s.a, s.b, SIZE, iters=ITERS,
                                      transport="rc")
    else:
        s = wan_pair(DELAY_US)
        bw = perftest.run_send_bw(s.sim, s.a, s.b, SIZE, iters=ITERS,
                                  transport="rc")
        assert s.sim.metrics is None
    s.sim.run()  # drain so the comparison covers the whole run
    return bw, s.sim.event_count, s.sim.now


def test_registry_attachment_does_not_change_results():
    plain = _run(attach_metrics=False)
    observed = _run(attach_metrics=True)
    assert observed[0] == plain[0], "bandwidth changed under observation"
    assert observed[1] == plain[1], "event count changed under observation"
    assert observed[2] == plain[2], "virtual clock changed under observation"


def _run_figure(exp_id, attach_metrics, monkeypatch):
    """Regenerate ``exp_id`` on the quick grid; return its result bytes,
    the summed event count of every simulator it built, and their final
    clocks in construction order."""
    sims = []
    init = sim_core.Simulator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    with monkeypatch.context() as m:
        m.setattr(sim_core.Simulator, "__init__", recording_init)
        if attach_metrics:
            with use_registry(MetricsRegistry()):
                result = run_experiment(exp_id, quick=True)
        else:
            result = run_experiment(exp_id, quick=True)
    assert sims, f"{exp_id} built no simulator"
    return (result.to_json(), sum(s.event_count for s in sims),
            [s.now for s in sims])


@pytest.mark.parametrize("exp_id", ["fig09a", "fig09b", "opt_adaptive"])
def test_registry_attachment_does_not_change_figures(exp_id, monkeypatch):
    plain = _run_figure(exp_id, False, monkeypatch)
    observed = _run_figure(exp_id, True, monkeypatch)
    assert observed[0] == plain[0], "result bytes changed under observation"
    assert observed[1] == plain[1], "event count changed under observation"
    assert observed[2] == plain[2], "virtual clocks changed under observation"


def test_detached_components_hold_no_metric_handles():
    s = wan_pair(0.0)
    bw = perftest.run_send_bw(s.sim, s.a, s.b, 4096, iters=4)
    assert bw > 0
    assert s.sim.metrics is None
    assert s.sim._m_events is None


def test_default_registry_restored_even_on_exception():
    from repro.obs import get_default_registry
    assert get_default_registry() is None
    with pytest.raises(RuntimeError):
        with use_registry(MetricsRegistry()) as reg:
            assert get_default_registry() is reg
            raise RuntimeError("escape")
    assert get_default_registry() is None
