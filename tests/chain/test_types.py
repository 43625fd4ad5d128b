"""Value types: addresses, hashes, transactions, call contexts, wei conversion."""

from __future__ import annotations

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import (
    WEI_PER_ETHER,
    ZERO_ADDRESS,
    Address,
    CallPayload,
    Hash32,
    ether,
)
from repro.chain.contract import CallContext
from repro.chain.transaction import Transaction


class TestAddress:
    def test_requires_twenty_bytes(self) -> None:
        with pytest.raises(ValueError):
            Address(b"\x01" * 19)
        with pytest.raises(ValueError):
            Address(b"\x01" * 21)

    def test_hex_round_trip(self) -> None:
        address = Address.derive("round-trip")
        assert Address.from_hex(address.hex) == address

    def test_from_hex_accepts_bare_digits(self) -> None:
        bare = "ab" * 20
        assert Address.from_hex(bare) == Address.from_hex("0x" + bare)

    def test_from_hex_rejects_wrong_length(self) -> None:
        with pytest.raises(ValueError):
            Address.from_hex("0x1234")

    def test_derive_is_deterministic_and_distinct(self) -> None:
        assert Address.derive("alice") == Address.derive("alice")
        assert Address.derive("alice") != Address.derive("bob")

    def test_checksum_known_vector(self) -> None:
        # EIP-55 reference vector.
        plain = "0x5aaeb6053f3e94c9b9a09f33669435e7ef1beaed"
        assert Address.from_hex(plain).checksum == (
            "0x5aAeb6053F3E94C9b9A09f33669435E7Ef1BeAed"
        )

    def test_ordering_and_hashing(self) -> None:
        a = Address(b"\x01" + b"\x00" * 19)
        b = Address(b"\x02" + b"\x00" * 19)
        assert a < b
        assert len({a, b, Address(a.raw)}) == 2

    def test_zero_address(self) -> None:
        assert ZERO_ADDRESS.hex == "0x" + "00" * 20


class TestHash32:
    def test_requires_thirty_two_bytes(self) -> None:
        with pytest.raises(ValueError):
            Hash32(b"\x00" * 31)

    def test_of_hashes_with_keccak(self) -> None:
        assert Hash32.of(b"eth").hex == (
            "0x4f5b812789fc606be1b3b16908db13fc7a9adf7ca72641f84d75b47069d3d7f0"
        )

    def test_hex_round_trip(self) -> None:
        value = Hash32.of(b"anything")
        assert Hash32.from_hex(value.hex) == value


class TestEther:
    def test_int_ether(self) -> None:
        assert ether(3) == 3 * WEI_PER_ETHER

    def test_string_ether_is_exact(self) -> None:
        assert ether("0.000000000000000001") == 1
        assert ether("1.5") == WEI_PER_ETHER + WEI_PER_ETHER // 2

    def test_float_ether_rounds(self) -> None:
        assert ether(0.5) == WEI_PER_ETHER // 2


# The hot-path value types are tuples: each value below with the plain
# tuple of its fields. Hashes, reprs and the transaction id are the
# values the frozen dataclasses these types replaced produced.
_ALICE = Address(bytes(range(20)))
_BOB = Address.derive("bob")
_NODE = Hash32(bytes(32))
_PAYLOAD = CallPayload.of("setOwner", owner=_BOB, node=_NODE)
_TX = Transaction(_ALICE, _BOB, 5, 7, _PAYLOAD, 3)
_CTX = CallContext(_ALICE, 1, 2, 3)

VALUES = [
    pytest.param(_ALICE, (_ALICE.raw,), id="Address"),
    pytest.param(_NODE, (_NODE.raw,), id="Hash32"),
    pytest.param(_TX, (_ALICE, _BOB, 5, 7, _PAYLOAD, 3), id="Transaction"),
    pytest.param(_CTX, (_ALICE, 1, 2, 3), id="CallContext"),
]


class TestValueContract:
    @pytest.mark.parametrize("value, fields", VALUES)
    def test_pickle_round_trip(self, value, fields) -> None:
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(value, protocol=protocol))
            assert restored == value
            assert type(restored) is type(value)

    @pytest.mark.parametrize("value, fields", VALUES)
    def test_deepcopy_round_trip(self, value, fields) -> None:
        for clone in (copy.deepcopy(value), copy.copy(value)):
            assert clone == value
            assert type(clone) is type(value)

    @pytest.mark.parametrize("value, fields", VALUES)
    def test_hash_is_the_field_tuple_hash(self, value, fields) -> None:
        # set and dict orders, and so the report goldens, rest on this
        assert hash(value) == hash(fields)

    @pytest.mark.parametrize("value, fields", VALUES)
    def test_equals_the_field_tuple(self, value, fields) -> None:
        assert value == fields
        assert value == type(value)(*fields)

    @pytest.mark.parametrize(
        "value, field",
        [(_ALICE, "raw"), (_NODE, "raw"), (_TX, "value"), (_CTX, "sender")],
    )
    def test_fields_are_read_only(self, value, field) -> None:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))

    @pytest.mark.parametrize("value, fields", VALUES)
    def test_json_refuses_the_value(self, value, fields) -> None:
        # a tuple would otherwise be written as a JSON array
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            json.dumps({"value": value}, indent=1)

    @pytest.mark.parametrize("cls", [Address, Hash32])
    def test_wrong_length_raises(self, cls) -> None:
        for size in (0, cls.LENGTH - 1, cls.LENGTH + 1):
            with pytest.raises(ValueError):
                cls(b"\x01" * size)
        with pytest.raises(ValueError):
            cls("ab" * cls.LENGTH)  # hex text, not bytes

    @pytest.mark.parametrize("cls", [Address, Hash32])
    def test_not_iterable(self, cls) -> None:
        with pytest.raises(TypeError):
            iter(cls(bytes(cls.LENGTH)))

    @given(st.lists(st.binary(min_size=20, max_size=20), max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_sorting_sorts_by_raw_bytes(self, raws) -> None:
        addresses = [Address(raw) for raw in raws]
        assert [a.raw for a in sorted(addresses)] == sorted(raws)

    def test_reprs_are_unchanged(self) -> None:
        alice = "Address(0x000102030405060708090a0b0c0d0e0f10111213)"
        bob = "Address(0xf699e0ecf80980842933cb856961456362d2345e)"
        node = "Hash32(0x" + "00" * 32 + ")"
        assert repr(_ALICE) == alice
        assert str(_ALICE) == _ALICE.hex
        assert repr(_NODE) == node
        assert repr(_CTX) == (
            f"CallContext(sender={alice}, value=1, timestamp=2, block_number=3)"
        )
        payload = (
            f"CallPayload(method='setOwner',"
            f" args=(('node', {node}), ('owner', {bob})))"
        )
        assert repr(_TX) == (
            f"Transaction(from_address={alice}, to_address={bob}, value=5,"
            f" nonce=7, payload={payload}, fee=3)"
        )

    def test_transaction_id_is_unchanged(self) -> None:
        # CallPayload.encode feeds the reprs into the id the crawled
        # dataset stores as a transaction's ``hash``
        assert _PAYLOAD.encode() == (
            f"('setOwner', (('node', {_NODE!r}), ('owner', {_BOB!r})))"
        ).encode()
        assert _TX.hash(11, 2).hex == (
            "0x662bfba8c0590dcad6259b0d4f1c0308332bdd0a64343f552a2f12816085f1de"
        )
