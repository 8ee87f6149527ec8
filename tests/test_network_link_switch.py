"""Tests for messages, links and the switch fabric."""

from __future__ import annotations

import pytest

from repro.network.link import DEFAULT_LINK_LATENCY, GIGABIT_BANDWIDTH, NetworkLink
from repro.network.message import MESSAGE_HEADER_BYTES, Message
from repro.network.switch import NetworkSwitch
from repro.simulation.engine import Simulator


def make_message(source="a", destination="b", payload_bytes=100):
    return Message(source=source, destination=destination, payload="p", payload_bytes=payload_bytes)


class TestMessage:
    def test_wire_bytes_include_header(self):
        message = make_message(payload_bytes=100)
        assert message.wire_bytes == 100 + MESSAGE_HEADER_BYTES

    def test_message_ids_are_unique(self):
        assert make_message().message_id != make_message().message_id

    def test_reply_reverses_direction_and_links_to_request(self):
        request = make_message(source="client", destination="server")
        response = request.reply("result", payload_bytes=10, created_at=1.5)
        assert response.source == "server"
        assert response.destination == "client"
        assert response.reply_to == request.message_id
        assert response.created_at == 1.5


class TestNetworkLink:
    def test_cost_model(self, sim):
        link = NetworkLink(sim, latency=1e-3, bandwidth=1e6)
        assert link.transmission_time(1000) == pytest.approx(1e-3)
        assert link.total_time(1000) == pytest.approx(2e-3)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            NetworkLink(sim, latency=-1.0)
        with pytest.raises(ValueError):
            NetworkLink(sim, bandwidth=0.0)
        with pytest.raises(TypeError):
            NetworkLink()  # the substrate is simulated or it is not built

    def test_simulated_delivery_takes_total_time(self, sim):
        link = NetworkLink(sim, latency=1e-3, bandwidth=1e6)
        message = make_message(payload_bytes=1000 - MESSAGE_HEADER_BYTES)
        delivered = []
        assert link.send(message, on_delivery=lambda m: delivered.append((sim.now, m))) is None
        assert delivered == []
        sim.run()
        assert delivered == [(pytest.approx(2e-3), message)]
        assert delivered[0][1] is message
        assert link.messages_sent == 1
        assert link.bytes_sent == message.wire_bytes

    def test_messages_serialise_on_the_port(self, sim):
        link = NetworkLink(sim, latency=0.0, bandwidth=1e6)
        arrivals = []
        for _ in range(3):
            message = make_message(payload_bytes=1000 - MESSAGE_HEADER_BYTES)
            link.send(message, on_delivery=lambda _m: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(1e-3), pytest.approx(2e-3), pytest.approx(3e-3)]

    def test_propagation_overlaps_next_transmission(self, sim):
        # With a large latency but tiny transmission time, back-to-back
        # messages arrive ~transmission_time apart, not latency apart.
        link = NetworkLink(sim, latency=10e-3, bandwidth=1e9)
        arrivals = []
        for _ in range(2):
            link.send(make_message(payload_bytes=922), on_delivery=lambda _m: arrivals.append(sim.now))
        sim.run()
        assert arrivals[1] - arrivals[0] == pytest.approx(1e-6, abs=1e-7)

    def test_stats(self, sim):
        link = NetworkLink(sim)
        link.send(make_message())
        stats = link.stats()
        assert stats["messages"] == 1 and stats["bytes"] > 0


class TestNetworkSwitch:
    def test_attach_and_duplicate_rejected(self, sim):
        switch = NetworkSwitch(sim)
        switch.attach("host-a")
        with pytest.raises(ValueError):
            switch.attach("host-a")
        assert switch.endpoints() == ["host-a"]
        assert switch.is_attached("host-a")

    def test_send_requires_attached_endpoints(self, sim):
        switch = NetworkSwitch(sim)
        switch.attach("a")
        with pytest.raises(KeyError):
            switch.send(make_message("a", "unknown"))
        with pytest.raises(KeyError):
            switch.send(make_message("unknown", "a"))

    def test_delivery_invokes_destination_handler(self, sim):
        switch = NetworkSwitch(sim, latency=100e-6, bandwidth=GIGABIT_BANDWIDTH)
        received = []
        switch.attach("a")
        switch.attach("b", handler=lambda m: received.append((sim.now, m.payload)))
        switch.send(make_message("a", "b"))
        sim.run()
        assert len(received) == 1
        # End-to-end takes two half-latency hops plus two serialisations.
        assert received[0][0] >= 100e-6

    def test_set_handler_requires_attachment(self, sim):
        switch = NetworkSwitch(sim)
        with pytest.raises(KeyError):
            switch.set_handler("ghost", lambda m: None)

    def test_stats_track_both_directions(self, sim):
        switch = NetworkSwitch(sim)
        switch.attach("a")
        switch.attach("b", handler=lambda m: None)
        switch.send(make_message("a", "b"))
        sim.run()
        stats = switch.stats()
        assert stats["a"]["sent_messages"] == 1
        assert stats["b"]["received_messages"] == 1
        assert switch.total_bytes() > 0

    def test_concurrent_destinations_do_not_serialise_each_other(self, sim):
        switch = NetworkSwitch(sim, latency=0.0, bandwidth=1e6)
        arrivals = {}
        switch.attach("src")
        for name in ("dst1", "dst2"):
            switch.attach(name, handler=lambda m, n=name: arrivals.setdefault(n, sim.now))
        switch.send(make_message("src", "dst1", payload_bytes=1000 - MESSAGE_HEADER_BYTES))
        switch.send(make_message("src", "dst2", payload_bytes=1000 - MESSAGE_HEADER_BYTES))
        sim.run()
        # Uplink serialises (1ms each) but downlinks are parallel, so the
        # second arrival is ~1ms after the first, not 2ms after.
        assert arrivals["dst2"] - arrivals["dst1"] == pytest.approx(1e-3, rel=0.01)
