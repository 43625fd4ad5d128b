"""EIP-137 namehash/labelhash against published vectors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.errors import InvalidName
from repro.ens import ETH_NODE, ROOT_NODE, labelhash, namehash
from repro.ens.namehash import child_node, child_nodes, labelhashes

# Vectors straight from EIP-137.
EIP137_VECTORS = {
    "": "0x0000000000000000000000000000000000000000000000000000000000000000",
    "eth": "0x93cdeb708b7545dc668eb9280176169d1c33cfd8ed6f04690a0bcc88a93fc4ae",
    "foo.eth": "0xde9b09fd7c5f901e23a3f19fecc54828e9c848539801e86591bd9801b019f84f",
}


@pytest.mark.parametrize("name,expected", sorted(EIP137_VECTORS.items()))
def test_eip137_vectors(name: str, expected: str) -> None:
    assert namehash(name).hex == expected


@pytest.mark.parametrize("name", sorted(name for name in EIP137_VECTORS if name))
def test_child_node_derives_each_vector_from_its_parent(name: str) -> None:
    label, _, parent = name.partition(".")
    assert child_node(namehash(parent), labelhash(label)).hex == EIP137_VECTORS[name]


@pytest.mark.parametrize("name", sorted(name for name in EIP137_VECTORS if name))
def test_batch_derives_each_vector_from_its_parent(name: str) -> None:
    # empty memos, so the lane-sliced keccak computes the label and the node
    labelhash.cache_clear()
    child_node.cache_clear()
    label, _, parent = name.partition(".")
    node = child_nodes(namehash(parent), labelhashes([label]))[0]
    assert node.hex == EIP137_VECTORS[name]


def test_batch_fills_the_memos_and_hashes_each_miss_once() -> None:
    from repro.ens.namehash import _handoff
    from repro.obs import global_registry

    def digests() -> float:
        return global_registry().value("keccak_digests_total")

    labelhash.cache_clear()
    child_node.cache_clear()
    labelhash("gold")  # already memoized: the batch must not hash it again
    labels = ["gold", "silver", "bronze", "copper", "silver"]
    before = digests()
    nodes = child_nodes(ETH_NODE, labelhashes(labels))
    assert digests() - before == 3 + 4  # new labels + distinct nodes
    assert _handoff.digests == {}
    assert nodes == [namehash(f"{label}.eth") for label in labels]
    before = digests()
    assert child_nodes(ETH_NODE, labelhashes(labels)) == nodes
    assert digests() == before


def test_a_running_batch_is_invisible_to_other_threads() -> None:
    import threading

    from repro.chain.crypto.keccak import keccak_256
    from repro.ens.namehash import _PENDING, _handoff

    labelhash.cache_clear()
    # this thread is mid-batch on "gold": its memo probe would raise
    _handoff.digests[b"gold"] = _PENDING
    results = []
    try:
        worker = threading.Thread(target=lambda: results.append(labelhash("gold")))
        worker.start()
        worker.join()
    finally:
        _handoff.digests.clear()
    assert [h.raw for h in results] == [keccak_256(b"gold")]


def test_child_node_addr_reverse() -> None:
    node = child_node(namehash("reverse"), labelhash("addr"))
    assert node == namehash("addr.reverse")
    assert node.hex == (
        "0x91d1777781884d03a6757a803996e38de2a42967fb37eeaca72729271025a9e2"
    )


def test_eth_node_constant() -> None:
    assert ETH_NODE == namehash("eth")
    assert ROOT_NODE == namehash("")


def test_namehash_case_insensitive() -> None:
    assert namehash("GOLD.eth") == namehash("gold.eth")


def test_labelhash_is_keccak_of_label() -> None:
    from repro.chain import keccak_256

    assert labelhash("gold").raw == keccak_256(b"gold")


def test_namehash_recursive_structure() -> None:
    from repro.chain import Hash32, keccak_256

    parent = namehash("eth")
    child = Hash32(keccak_256(parent.raw + labelhash("gold").raw))
    assert namehash("gold.eth") == child


def test_subdomain_hashes_differ_from_parent() -> None:
    assert namehash("pay.gold.eth") != namehash("gold.eth")


def test_invalid_name_rejected() -> None:
    with pytest.raises(InvalidName):
        namehash("has space.eth")


@pytest.mark.parametrize("bad", ["has space.eth", "gold..eth", "xn--bad.eth"])
def test_memo_never_caches_a_rejection(bad: str) -> None:
    for _ in range(3):
        with pytest.raises(InvalidName):
            namehash(bad)


LABEL_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


@given(st.text(alphabet=LABEL_ALPHABET, min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_namehash_deterministic_and_injective_on_labels(label: str) -> None:
    assert namehash(f"{label}.eth") == namehash(f"{label}.eth")
    if label != "other":
        assert namehash(f"{label}.eth") != namehash("other.eth")


@given(st.text(alphabet=LABEL_ALPHABET, min_size=1, max_size=16))
@settings(max_examples=50, deadline=None)
def test_child_node_of_eth_is_namehash(label: str) -> None:
    assert child_node(ETH_NODE, labelhash(label)) == namehash(f"{label}.eth")
