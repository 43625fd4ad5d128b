"""CallPayload and misc chain plumbing."""

from __future__ import annotations

from repro.chain import CallPayload


class TestCallPayload:
    def test_kwargs_round_trip(self) -> None:
        payload = CallPayload.of("register", label="gold", duration=5)
        assert payload.method == "register"
        assert payload.kwargs() == {"label": "gold", "duration": 5}

    def test_argument_order_canonical(self) -> None:
        first = CallPayload.of("m", b=2, a=1)
        second = CallPayload.of("m", a=1, b=2)
        assert first == second
        assert first.encode() == second.encode()

    def test_encode_distinguishes_methods(self) -> None:
        assert CallPayload.of("renew", x=1).encode() != CallPayload.of(
            "register", x=1
        ).encode()

    def test_hashable(self) -> None:
        assert len({CallPayload.of("m", a=1), CallPayload.of("m", a=1)}) == 1


class TestChainQueries:
    def test_logs_of_filters_by_event(self, chain, ens, alice) -> None:
        ens.register(alice, "filters", 365 * 86_400)
        ens.renew(alice, "filters", 365 * 86_400)
        controller = ens.controller.address
        registered = chain.logs_of(controller, "NameRegistered")
        renewed = chain.logs_of(controller, "NameRenewed")
        everything = chain.logs_of(controller)
        assert len(registered) == 1
        assert len(renewed) == 1
        assert len(everything) >= 3  # + commitment event
