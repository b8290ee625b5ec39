"""Network model and payload sizing."""

import enum
import pickle
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi.network import NetworkModel, payload_nbytes


class TestNetworkModel:
    def test_delivery_time_formula(self):
        net = NetworkModel(latency=1e-3, bandwidth=1e6)
        assert net.delivery_time(0) == pytest.approx(1e-3)
        assert net.delivery_time(1_000_000) == pytest.approx(1.001)

    def test_eager_threshold(self):
        net = NetworkModel(eager_threshold=1000)
        assert net.is_eager(1000)
        assert not net.is_eager(1001)

    def test_frozen(self):
        net = NetworkModel()
        with pytest.raises(AttributeError):
            net.latency = 5.0


class TestPayloadNbytes:
    def test_none(self):
        assert payload_nbytes(None) == 0

    def test_bytes(self):
        assert payload_nbytes(b"12345") == 5

    def test_str_utf8(self):
        assert payload_nbytes("abc") == 3
        assert payload_nbytes("é") == 2

    def test_numbers(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(3.14) == 8
        assert payload_nbytes(True) == 1

    def test_numpy(self):
        assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40

    def test_containers_recursive(self):
        assert payload_nbytes([b"ab", b"cd"]) == 16 + 4
        assert payload_nbytes({"k": b"abc"}) == 16 + 1 + 3
        assert payload_nbytes((1, 2.0)) == 16 + 16

    def test_custom_hook_wins(self):
        class Thing:
            def payload_nbytes(self):
                return 1234

        assert payload_nbytes(Thing()) == 1234

    def test_plain_object_via_dict(self):
        class Rec:
            def __init__(self):
                self.a = b"xyzt"
                self.b = 1

        assert payload_nbytes(Rec()) == 16 + 4 + 8

    def test_slots_object(self):
        class S:
            __slots__ = ("x",)

            def __init__(self):
                self.x = b"abcd"

        assert payload_nbytes(S()) == 16 + 4

    @given(st.binary(max_size=500))
    @settings(max_examples=30)
    def test_bytes_exact(self, b):
        assert payload_nbytes(b) == len(b)

    @given(st.lists(st.binary(max_size=50), max_size=10))
    @settings(max_examples=30)
    def test_list_at_least_content(self, items):
        assert payload_nbytes(items) >= sum(len(i) for i in items)


# ----------------------------------------------------------------------
# the sizer against its recursive predecessor
# ----------------------------------------------------------------------
def _oracle_nbytes(obj: object) -> int:
    """``payload_nbytes`` as it stood before it sized a payload in one
    entry: one recursive call per element through the ``isinstance``
    chain.  Kept verbatim (but for the name) as the reference — every
    virtual time in the repo is a function of these integers."""
    if obj is None:
        return 0
    meth = getattr(obj, "payload_nbytes", None)
    if callable(meth):
        return int(meth())
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", "surrogateescape"))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 16 + sum(_oracle_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(
            _oracle_nbytes(k) + _oracle_nbytes(v) for k, v in obj.items()
        )
    # dataclasses and similar plain records
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return 16 + sum(_oracle_nbytes(v) for v in d.values())
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        return 16 + sum(_oracle_nbytes(getattr(obj, s)) for s in slots)
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


class Pair(NamedTuple):
    left: Any
    right: Any


class Sized(tuple):
    """A tuple that names its own wire size: the hook must win."""

    def payload_nbytes(self):
        return 7 + 3 * len(self)


@dataclass
class Rec:
    a: Any
    b: Any


class Slotted:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


#: what only pickle can size: no hook, no ``__dict__``, no ``__slots__``
_pickled = st.one_of(
    st.complex_numbers(allow_nan=False), st.builds(range, st.integers(0, 9))
)
_text = st.one_of(
    st.text(st.characters(max_codepoint=127), max_size=12),  # ASCII
    st.text(max_size=12),  # any code point but the surrogates
    # lone surrogates, the ones ``surrogateescape`` can put on the wire
    st.text(st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF),
            max_size=4),
)
_hashable = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from(Colour),
    st.floats(), _text, st.binary(max_size=12), _pickled,
)
_leaves = st.one_of(
    _hashable,
    st.binary(max_size=12).map(bytearray),
    st.binary(max_size=12).map(memoryview),
    st.lists(st.integers(0, 255), max_size=6).map(
        lambda v: np.array(v, dtype=np.int32)
    ),
    st.sets(_hashable, max_size=4),
    st.frozensets(_hashable, max_size=4),
)
_payloads = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(kids, max_size=4).map(Sized),
        st.dictionaries(_hashable, kids, max_size=4),
        st.builds(Pair, kids, kids),
        st.builds(Rec, kids, kids),
        st.builds(Slotted, kids, kids),
    ),
    max_leaves=25,
)


class TestSameIntegersAsTheRecursiveSizer:
    @given(_payloads)
    @settings(max_examples=300, deadline=None)
    def test_nested_payloads(self, obj):
        assert payload_nbytes(obj) == _oracle_nbytes(obj)

    def test_control_traffic_shapes(self):
        # a pull-RPC request, its reply, a ping (repro.parallel.pullrpc)
        for obj in ((3, 17, "work", None), (17, ("wait", 0.1)), 5):
            assert payload_nbytes(obj) == _oracle_nbytes(obj)
        assert payload_nbytes((3, 17, "work", None)) == 16 + 8 + 8 + 4

    def test_subclasses_take_the_general_chain(self):
        assert payload_nbytes(Colour.BLUE) == 8
        assert payload_nbytes(Pair(1, b"ab")) == 16 + 8 + 2
        assert payload_nbytes(Sized((1, 2))) == 13
        assert payload_nbytes([Sized((1, 2)), True]) == 16 + 13 + 1

    def test_a_payload_is_one_entry(self, monkeypatch):
        """No per-leaf recursion: the sizer never calls itself."""
        import repro.simmpi.network as network

        calls = []
        inner = network.payload_nbytes

        def counting(obj):
            calls.append(obj)
            return inner(obj)

        monkeypatch.setattr(network, "payload_nbytes", counting)
        nested = (1, [2.0, ("x", {"k": (None, b"v")})], Rec(1, Slotted(2, 3)))
        assert network.payload_nbytes(nested) == _oracle_nbytes(nested)
        assert len(calls) == 1
