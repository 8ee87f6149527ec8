"""``NetworkSwitch`` over busy-flag links against the ``Resource``-port model.

Sizes and latencies are chosen so that transmission times are exact binary
fractions (1 024 B/s, wire sizes in multiples of 256 bytes), which makes
equal-time calendar entries the common case: releases, deliveries, a
handler answering at the instant it is called, and foreign events scheduled
at the same instants.  The two rigs must pop the same entries in the same
order, so the delivery log -- ``(now, what)`` in execution order, foreign
events included -- and the engine's event count must agree exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.resource_link import ResourceLink, ResourceSwitch
from repro.network.link import NetworkLink
from repro.network.message import MESSAGE_HEADER_BYTES, Message
from repro.network.switch import NetworkSwitch
from repro.simulation.engine import Simulator

BANDWIDTH = 1024.0
ENDPOINTS = ("a", "b", "c", "d")
SILENT = "d"  # attached without a handler: its arrivals are discarded

#: Mostly whole quarters of a second on the wire, sometimes anything.
payload_bytes = st.one_of(
    st.sampled_from([256 * k - MESSAGE_HEADER_BYTES for k in (1, 2, 3, 4)]),
    st.integers(0, 2_000),
)
instants = st.integers(0, 12).map(lambda quarters: quarters / 4)
sends = st.tuples(
    instants,
    st.sampled_from(ENDPOINTS),
    st.sampled_from(ENDPOINTS),
    payload_bytes,
    st.booleans(),  # the destination's handler answers at once
)
schedules = st.lists(sends, min_size=1, max_size=40)
foreign = st.lists(instants, max_size=10)
latencies = st.sampled_from([0.0, 0.5, 1.0, 0.3])


def _replay(switch_class, latency, schedule, foreign_instants):
    sim = Simulator()
    switch = switch_class(sim, latency, BANDWIDTH)
    log = []

    def handler_for(endpoint):
        def handler(message):
            log.append((sim.now, endpoint, message.payload))
            tag, answer = message.payload
            if answer:
                switch.send(Message(endpoint, message.source, (f"re:{tag}", False), 100))
        return handler

    for endpoint in ENDPOINTS:
        switch.attach(endpoint, None if endpoint == SILENT else handler_for(endpoint))
    for tag, (at, source, destination, size, answer) in enumerate(schedule):
        message = Message(source, destination, (tag, answer), size)
        sim.schedule(at, switch.send, message)
    for index, at in enumerate(foreign_instants):
        sim.schedule(at, lambda index=index: log.append((sim.now, "foreign", index)))
    sim.run()
    return log, sim.events_processed


@settings(max_examples=300, deadline=None)
@given(latencies, schedules, foreign)
def test_switch_matches_resource_port_model(latency, schedule, foreign_instants):
    expected = _replay(ResourceSwitch, latency, schedule, foreign_instants)
    assert _replay(NetworkSwitch, latency, schedule, foreign_instants) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(instants, payload_bytes, st.booleans()), min_size=1, max_size=30),
       latencies)
def test_link_matches_resource_port_model(schedule, latency):
    """One link on its own, hooked and unhooked sends interleaved."""

    def replay(link_class):
        sim = Simulator()
        link = link_class(sim, latency, BANDWIDTH)
        log = []
        for tag, (at, size, hooked) in enumerate(schedule):
            hook = (lambda message: log.append((sim.now, message.payload))) if hooked else None
            sim.schedule(at, link.send, Message("a", "b", tag, size), hook)
            sim.schedule(at, lambda tag=tag: log.append((sim.now, "foreign", tag)))
        sim.run()
        return log, sim.events_processed, link.messages_sent, link.bytes_sent

    assert replay(NetworkLink) == replay(ResourceLink)
