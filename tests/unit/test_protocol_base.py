"""Unit tests for the protocol base classes and the output mixin."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.protocols.base import SynchronizationProtocol, SynchronizedOutputMixin, draw_one_to
from repro.protocols.registry import PROTOCOL_FACTORIES, protocol_factory
from repro.radio.actions import RadioAction, listen
from repro.radio.messages import LeaderMessage, Message
from repro.types import Role


class MixinProtocol(SynchronizedOutputMixin, SynchronizationProtocol):
    def choose_action(self) -> RadioAction:
        return listen(1)

    def on_reception(self, message: Message) -> None:
        pass


class ConstantRole:
    @property
    def role(self) -> Role:
        return Role.CONTENDER


def role_read_peak(protocol) -> int:
    """Peak traced bytes while reading ``protocol.role`` 1000 times."""
    tracemalloc.start()
    try:
        for _ in range(1000):
            protocol.role
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def activated(name: str, context):
    protocol = protocol_factory(name)(context)
    protocol.on_activate()
    protocol.choose_action()
    return protocol


class TestSynchronizedOutputMixin:
    def test_output_is_bottom_before_adoption(self, make_context):
        protocol = MixinProtocol(make_context())
        assert protocol.current_output() is None
        assert not protocol.synchronized

    def test_adoption_anchors_to_current_round(self, make_context):
        context = make_context(local_round=5)
        protocol = MixinProtocol(context)
        protocol.adopt_round_number(100)
        assert protocol.current_output() == 100
        context.local_round = 8
        assert protocol.current_output() == 103

    def test_readoption_is_ignored(self, make_context):
        context = make_context(local_round=2)
        protocol = MixinProtocol(context)
        protocol.adopt_round_number(10)
        protocol.adopt_round_number(999)
        assert protocol.current_output() == 10

    def test_synchronized_flag_follows_output(self, make_context):
        protocol = MixinProtocol(make_context())
        protocol.adopt_round_number(1)
        assert protocol.synchronized

    def test_default_role_is_contender(self, make_context):
        protocol = MixinProtocol(make_context())
        assert protocol.role is Role.CONTENDER
        assert not protocol.is_leader


class TestRoleRead:
    """The simulator reads ``role`` once per node per round."""

    @pytest.mark.parametrize("name", sorted(PROTOCOL_FACTORIES))
    def test_role_read_allocates_no_more_than_a_constant(self, name, make_context):
        protocol = activated(name, make_context())
        # tracemalloc sees every thread: the least of three reads ignores a
        # stray allocation elsewhere in the process.
        peak = min(role_read_peak(protocol) for _ in range(3))
        assert peak <= role_read_peak(ConstantRole())

    @pytest.mark.parametrize(
        "name",
        [
            "trapdoor",
            "good-samaritan",
            "uniform-wakeup",
            "decay-wakeup",
            "single-channel",
            "round-robin",
        ],
    )
    def test_state_name_is_role_value(self, name, make_context):
        protocol = activated(name, make_context())
        assert protocol.state_name == protocol.role.value == "contender"
        leader = LeaderMessage(leader_uid=99, round_number=40)
        protocol.on_reception(leader)
        assert protocol.state_name == protocol.role.value == "synchronized"


#: Every width up to 300 (each power of two among them), plus one wide power
#: of two and one wide odd width.
DRAW_WIDTHS = (*range(1, 301), 2**20, 3**13)


class TestDrawOneTo:
    """The per-round frequency draw replays ``Random.randint(1, width)``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_same_values_and_state_as_randint(self, seed):
        ours, reference = random.Random(seed), random.Random(seed)
        for width in DRAW_WIDTHS:
            drawn = [draw_one_to(ours, width) for _ in range(4)]
            assert drawn == [reference.randint(1, width) for _ in range(4)], width
            assert ours.getstate() == reference.getstate(), width

    @pytest.mark.parametrize("width", [0, -1, -8])
    def test_empty_range_raises_without_drawing(self, width):
        ours = random.Random(3)
        state = ours.getstate()
        with pytest.raises(ValueError):
            random.Random(3).randint(1, width)
        with pytest.raises(ValueError):
            draw_one_to(ours, width)
        assert ours.getstate() == state
