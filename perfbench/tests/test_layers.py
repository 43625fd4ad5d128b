"""Self time is a span's duration minus its children's, per layer."""

from dataclasses import dataclass, field

import pytest

import layers


@dataclass
class FakeSpan:
    name: str
    duration: float
    children: list = field(default_factory=list)


def _tree():
    keccak = FakeSpan("keccak", 0.5)
    invoke = FakeSpan("ens.contract", 1.25, [keccak])
    call = FakeSpan("chain.call", 2.0, [invoke])
    register = FakeSpan("ens.register", 3.0, [call])
    loop = FakeSpan("scenario.event_loop", 5.0, [register])
    crawl = FakeSpan("crawl", 1.5, [FakeSpan("explorer.txlist", 0.75)])
    return [FakeSpan("unit", 8.0, [FakeSpan("scenario", 5.5, [loop]), crawl])]


def test_self_time_is_parent_minus_children():
    by_layer, by_name = layers.self_times(_tree())
    assert by_name["keccak"] == pytest.approx(0.5)
    assert by_name["ens.contract"] == pytest.approx(0.75)
    assert by_name["chain.call"] == pytest.approx(0.75)
    assert by_name["ens.register"] == pytest.approx(1.0)
    assert by_name["scenario.event_loop"] == pytest.approx(2.0)
    assert by_name["unit"] == pytest.approx(1.0)
    assert by_layer["ens"] == pytest.approx(1.75)
    assert by_layer["simulation"] == pytest.approx(2.5)
    assert by_layer["crawler"] == pytest.approx(0.75)
    assert by_layer["untraced"] == pytest.approx(1.0)


def test_self_times_sum_to_the_root_duration():
    by_layer, _ = layers.self_times(_tree())
    assert sum(by_layer.values()) == pytest.approx(8.0)


@pytest.mark.parametrize(
    "name, layer",
    [
        ("scenario.setup", "simulation"), ("crawl.3_transactions", "crawler"),
        ("analyze.typosquat", "core"), ("columnar.load", "datasets"),
        ("delta.apply", "incremental"), ("serve.warmup", "serve"),
        ("indexer._on_log", "indexer"), ("marketplace.contract", "marketplace"),
        ("mystery", "other"),
    ],
)
def test_layer_of(name, layer):
    assert layers.layer_of(name) == layer
