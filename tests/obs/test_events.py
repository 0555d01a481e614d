"""Event bus: pub/sub, ring buffer, trace mirroring, injector publishing."""

import numpy as np
import pytest

from repro import obs
from repro.comm.errors import RetransmitExhausted
from repro.faults import FaultInjector, FaultPlan
from repro.obs.events import Event, EventBus, get_event_bus, publish, subscribe, unsubscribe


def test_publish_noop_while_disabled():
    assert publish("fault.kill", rank=1) is None
    assert get_event_bus().events() == []


def test_publish_records_and_fans_out():
    bus = EventBus(enabled=True)
    seen = []
    bus.subscribe(seen.append)
    ev = bus.publish("fault.kill", rank=2, iteration=7)
    assert isinstance(ev, Event)
    assert ev.kind == "fault.kill"
    assert ev.fields == {"rank": 2, "iteration": 7}
    assert seen == [ev]
    assert bus.events() == [ev]


def test_kind_prefix_filter():
    bus = EventBus(enabled=True)
    bus.publish("fault.kill")
    bus.publish("fault.message_loss")
    bus.publish("faulty")  # prefix match must be on dotted segments
    bus.publish("checkpoint.save")
    assert {e.kind for e in bus.events("fault")} == {"fault.kill", "fault.message_loss"}
    assert [e.kind for e in bus.events("checkpoint.save")] == ["checkpoint.save"]


def test_ring_buffer_bounded():
    bus = EventBus(enabled=True, maxlen=5)
    for i in range(20):
        bus.publish("tick", i=i)
    evs = bus.events()
    assert len(evs) == 5
    assert [e.fields["i"] for e in evs] == [15, 16, 17, 18, 19]


def test_unsubscribe_stops_delivery():
    bus = EventBus(enabled=True)
    seen = []
    bus.subscribe(seen.append)
    bus.unsubscribe(seen.append)
    bus.publish("tick")
    assert seen == []
    bus.unsubscribe(seen.append)  # double-unsubscribe is harmless


def test_global_subscribe_roundtrip():
    bus = get_event_bus()
    bus.enabled = True
    seen = []
    subscribe(seen.append)
    try:
        publish("detector.verdict", verdict="dead")
    finally:
        unsubscribe(seen.append)
        bus.enabled = False
    assert [e.kind for e in seen] == ["detector.verdict"]


def test_events_mirror_into_trace_as_instants():
    obs.enable()
    publish("fault.straggle", extra_seconds=0.5)
    tracer = obs.get_tracer()
    (mark,) = tracer.instants
    assert mark.name == "fault.straggle"
    assert mark.attrs == {"extra_seconds": 0.5}


def test_no_trace_mirror_when_tracing_off():
    obs.enable(tracing=False)
    publish("fault.straggle", extra_seconds=0.5)
    assert obs.get_tracer().instants == []
    assert [e.kind for e in obs.get_event_bus().events()] == ["fault.straggle"]


def test_injector_publishes_message_loss_and_counts_retransmits():
    obs.enable()
    # High loss rate, generous retransmit budget: the seeded draw recovers
    # some messages after >= 1 lost frame, each publishing a loss event.
    from repro.comm.reliable import RetransmitPolicy

    plan = FaultPlan(seed=0, drop_prob=0.5,
                     retransmit=RetransmitPolicy(max_retries=50))
    injector = FaultInjector(plan)
    for _ in range(30):
        injector.decide_send(0, 1, 0)
    losses = obs.get_event_bus().events("fault.message_loss")
    assert losses, "seeded 50% loss over 30 messages must lose at least one"
    ev = losses[0]
    assert ev.fields["src"] == 0 and ev.fields["dst"] == 1
    assert ev.fields["dropped"] + ev.fields["corrupted"] >= 1
    assert ev.fields["retransmit_delay_s"] > 0
    retrans = obs.get_registry().counter("faults.retransmits").value
    assert retrans == sum(
        e.fields["dropped"] + e.fields["corrupted"] for e in losses
    )


def test_injector_publishes_link_down_on_exhaustion():
    obs.enable()
    from repro.comm.reliable import RetransmitPolicy

    # 0.9 loss with a tiny budget: exhaustion is near-certain and, with a
    # fixed seed, deterministic.
    plan = FaultPlan(seed=0, drop_prob=0.9,
                     retransmit=RetransmitPolicy(max_retries=1))
    injector = FaultInjector(plan)
    saw_exhaustion = False
    for _ in range(20):
        try:
            injector.decide_send(0, 1, 0)
        except RetransmitExhausted:
            saw_exhaustion = True
            break
    assert saw_exhaustion
    downs = obs.get_event_bus().events("fault.link_down")
    assert len(downs) == 1
    assert downs[0].fields["src"] == 0 and downs[0].fields["dst"] == 1
    # the link gives up after the original frame and its one retransmit
    assert downs[0].fields["retries"] == 1
    assert downs[0].fields["lost"] == 2


def test_injector_publishes_kill_once():
    obs.enable()
    injector = FaultInjector(FaultPlan(seed=0, kills={1: 3}))
    assert not injector.should_kill(1, 2)
    assert injector.should_kill(1, 3)
    assert not injector.should_kill(1, 4)  # fires exactly once
    kills = obs.get_event_bus().events("fault.kill")
    assert len(kills) == 1
    assert kills[0].fields == {"rank": 1, "iteration": 3}
    assert obs.get_registry().counter("faults.kills").value == 1


def test_injector_publishes_straggle():
    obs.enable()
    injector = FaultInjector(FaultPlan(seed=0, stragglers={2: 2.0}))
    assert injector.compute_multiplier(2) == 2.0
    injector.record_straggle(0.125)
    (ev,) = obs.get_event_bus().events("fault.straggle")
    assert ev.fields == {"extra_seconds": 0.125}


def test_fabric_message_counters():
    from repro.comm.fabric import SimulatedFabric

    obs.enable()
    fabric = SimulatedFabric(2)
    fabric.send(0, 1, np.zeros(4), tag=0)
    fabric.isend(1, 0, np.zeros(2), tag=0)
    reg = obs.get_registry()
    assert reg.counter("comm.messages", kind="send").value == 1
    assert reg.counter("comm.messages", kind="isend").value == 1
    assert reg.counter("comm.bytes", kind="send").value == 32
    assert reg.counter("comm.bytes", kind="isend").value == 16
