import hashlib
import json
import re
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mapsim import ledger as ledger_mod
from mapsim.config import SimConfig
from mapsim.engine import run_simulation
from mapsim.ledger import (
    GENESIS_HASH,
    Block,
    Ledger,
    block_digest,
    canonical_payload,
    chain_break,
    decode_json,
    indented,
    verify_chain,
)


def test_digest_formula_oracle():
    # derived by hand: LE u64 index, LE u64 round, BE u32 length, payload, prev
    got = block_digest(0, 0, b"{}", bytes(32))
    assert got.hex() == "0cf115858d4bc4e6e88ab0c2436f62d34f955aa1aa38ad988721b04323852a24"


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.binary(max_size=300))
@example(7, 3, canonical_payload({"round": 3, "elected": [5, 1]}))
def test_digest_matches_independent_reconstruction(index, round_index, payload):
    prev = bytes(range(32))
    expected = hashlib.sha256(
        struct.pack("<Q", index)
        + struct.pack("<Q", round_index)
        + struct.pack(">I", len(payload))
        + payload
        + prev
    ).digest()
    assert block_digest(index, round_index, payload, prev) == expected


def test_canonical_payload_sorts_keys():
    assert canonical_payload({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_empty_chain_verifies():
    assert Ledger().verify()
    assert verify_chain([])


def test_append_links_blocks():
    led = Ledger()
    b0 = led.append(0, {"elected": [1]})
    b1 = led.append(1, {"elected": [2]})
    assert b0.prev_hash == GENESIS_HASH
    assert b1.prev_hash == b0.digest
    assert b0.index == 0 and b1.index == 1
    assert led.verify()


def test_rounds_must_increase():
    led = Ledger()
    led.append(5, {})
    with pytest.raises(ValueError):
        led.append(5, {})
    with pytest.raises(ValueError):
        led.append(4, {})
    led.append(6, {})
    assert led.verify()


@pytest.mark.parametrize(
    "round_index, accepted",
    [(0, True), (3, True), (2**64 - 1, True), (2**64, False), (-1, False),
     (True, False), (False, False), (1.5, False), ("0", False), (np.uint64(3), False)],
)
def test_append_takes_a_round_only_as_from_json_reads_it(tmp_path, round_index, accepted):
    led = Ledger()
    if not accepted:
        with pytest.raises(ValueError, match=re.escape(f"round {round_index!r} ")):
            led.append(round_index, {})
        assert len(led) == 0
        return
    led.append(round_index, {"round": round_index})
    path = tmp_path / "ledger.json"
    led.to_json(path)
    again = Ledger.from_json(path)
    assert again.blocks == led.blocks and again.verify()


def _chain(n=5):
    led = Ledger()
    for r in range(n):
        led.append(r, {"round": r, "elected": [r, r + 1]})
    return led


def test_tampered_payload_detected():
    led = _chain()
    led.blocks[2] = replace(led.blocks[2], payload=canonical_payload({"elected": [99]}))
    assert not led.verify()


def test_tampered_prev_hash_detected():
    led = _chain()
    led.blocks[3] = replace(led.blocks[3], prev_hash=bytes(32))
    assert not led.verify()


def test_tampered_digest_detected():
    led = _chain()
    bad = bytearray(led.blocks[4].digest)
    bad[0] ^= 0xFF
    led.blocks[4] = replace(led.blocks[4], digest=bytes(bad))
    assert not led.verify()


def test_reordered_blocks_detected():
    led = _chain()
    led.blocks[1], led.blocks[2] = led.blocks[2], led.blocks[1]
    assert not led.verify()


def test_dropped_block_detected():
    led = _chain()
    del led.blocks[1]
    assert not led.verify()


def test_genesis_must_be_zero():
    led = _chain(2)
    led.blocks[0] = replace(led.blocks[0], prev_hash=b"\x01" + bytes(31))
    assert not led.verify()


def _sealed(rounds):
    """A chain of properly linked and sealed blocks over the given rounds."""
    blocks, prev = [], GENESIS_HASH
    for i, r in enumerate(rounds):
        payload = canonical_payload({"round": r})
        blocks.append(Block(i, r, payload, prev, block_digest(i, r, payload, prev)))
        prev = blocks[-1].digest
    return blocks


def _with_payload(blocks, i):
    blocks[i] = replace(blocks[i], payload=canonical_payload({"elected": [99]}))


def _with_index(blocks, i):
    blocks[i] = replace(blocks[i], index=7)


def _with_prev_hash(blocks, i):
    blocks[i] = replace(blocks[i], prev_hash=b"\x01" + bytes(31))


def _dropped(blocks, i):
    del blocks[i]


@pytest.mark.parametrize(
    "tamper, at, check",
    [
        (_with_index, 2, "index"),
        (_dropped, 1, "index"),
        (_with_prev_hash, 3, "prev_hash"),
        (_with_prev_hash, 0, "prev_hash"),
        (_with_payload, 2, "digest"),
        (_with_payload, 4, "digest"),
    ],
)
def test_chain_break_names_block_and_check(tamper, at, check):
    blocks = list(_chain().blocks)
    tamper(blocks, at)
    assert chain_break(blocks) == (at, check)
    assert not verify_chain(blocks)


def test_chain_break_names_round_order():
    # linked and sealed, but round 1 is logged twice
    blocks = _sealed([0, 1, 1, 2])
    assert chain_break(blocks) == (2, "round_order")
    assert chain_break(_sealed([0, 1, 5, 9])) is None


def test_chain_break_reports_the_first_break():
    blocks = list(_chain(6).blocks)
    _with_payload(blocks, 4)
    _with_payload(blocks, 1)
    assert chain_break(blocks) == (1, "digest")


def test_sound_chains_have_no_break():
    assert chain_break([]) is None
    assert chain_break(_chain().blocks) is None


def test_json_round_trip(tmp_path):
    led = _chain(7)
    path = tmp_path / "ledger.json"
    led.to_json(path)
    again = Ledger.from_json(path)
    assert again.blocks == led.blocks
    assert again.verify()
    raw = json.loads(path.read_text())
    assert [r["index"] for r in raw] == list(range(7))
    for row in raw:
        assert row["digest"] == row["digest"].lower()
        assert len(row["prev_hash"]) == 64


@given(
    st.lists(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(-1000, 1000), st.text(max_size=8), st.booleans()),
            max_size=4,
        ),
        max_size=8,
    )
)
def test_arbitrary_payloads_chain(payloads):
    led = Ledger()
    for r, payload in enumerate(payloads):
        led.append(r, payload)
    assert led.verify()
    assert chain_break(led.blocks) is None
    assert len(led) == len(payloads)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)


@given(JSON_VALUES)
@example(float("nan"))
@example([float("inf"), -float("inf"), -0.0, 0.0])
@example({"big": 2**70, "neg": -(2**70), "ints": [2**64, -1]})
@example({"é\u2028": "\U0001f600", "q\"\\\n\x00": "tab\there\x7f"})
@example({"": [], "e": {}, "n": [[], {"x": [{}, [None, True]]}]})
def test_canonical_payload_equals_json_dumps(value):
    assert canonical_payload(value) == json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def test_canonical_payload_rejects_cycles_and_sets():
    cyclic = {"round": 1}
    cyclic["self"] = [cyclic]
    # no cycle markers, so a cycle ends at the recursion limit rather than json's ValueError
    with pytest.raises(RecursionError):
        canonical_payload(cyclic)
    with pytest.raises(TypeError, match="set"):
        canonical_payload({"elected": {1, 2}})
    with pytest.raises(RecursionError):
        Ledger().append(0, cyclic)


def _stdlib_to_json(ledger, path):
    """The ledger.json writer as it was: the stdlib encoder's indent path."""
    rows = [
        {
            "index": b.index,
            "round": b.round_index,
            "payload": b.payload_obj(),
            "prev_hash": b.prev_hash.hex(),
            "digest": b.digest.hex(),
        }
        for b in ledger.blocks
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, sort_keys=True, indent=2)
        fh.write("\n")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.integers(1, 2**40), JSON_VALUES), max_size=5))
@example([])
@example([(1, [-0.0, 1e300, float("nan"), float("inf"), -float("inf")])])
@example([(1, {"big": 2**80, "neg": -(2**70), "flags": [True, False, None], "ints": [3, -1, 0]})])
@example([(1, {"": [], "é\u2028": {}, "q\"\\\n\x00": [[], {}, [{}]], "\U0001f600": "tab\there"})])
@example([(2**40, {"elected": [0, 13], "excluded": [], "input_digest": "ab" * 32, "round": 5})])
@example([(1, {"b": True, "i": -(2**70), "l": [True, False], "m": [1, True], "n": [2**65, -0, 7], "z": 0})])
@example([(1, [[1, 2], [3.0, 4], [None, 5], {"x": [False]}])])
# one example per value indented writes in place, in a dict and in a list
@example([(1, {"d": {}, "l": [], "in_list": [[], {}]})])
@example([(1, {"ints": [2**70, -1, 0], "in_list": [[3], [-(2**65), 4]]})])
@example([(1, {"bools": [True], "mixed": [1, True, 2], "in_list": [[True, 1]]})])
@example([(1, {"é": "\u2028é\U0001f600", "esc": "q\"\\\n\x00\t", "in_list": ["\x7f", "ü"]})])
@example([(1, {"outer": {"inner": {"round": 1}, "n": 2}, "in_list": [{"a": {"b": 3}}]})])
def test_to_json_bytes_equal_the_stdlib_encoder(tmp_path, steps):
    led = Ledger()
    round_index = 0
    for gap, payload in steps:
        round_index += gap
        led.append(round_index, payload)
    ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
    led.to_json(ours)
    _stdlib_to_json(led, theirs)
    assert ours.read_bytes() == theirs.read_bytes()
    assert Ledger.from_json(ours).blocks == led.blocks
    # payload_obj() keys arrive sorted; the raw payloads' need not
    for _, value in steps:
        assert indented(value, "") == json.dumps(value, sort_keys=True, indent=2)


@given(
    JSON_VALUES,
    st.sampled_from([None, 0, 2]),
    st.sampled_from(["", " ", "\n\t\r "]),
    st.sampled_from(["", " ", " \n"]),
)
def test_decode_json_equals_json_loads(value, indent, lead, trail):
    separators = (",", ":") if indent is None else None
    text = lead + json.dumps(value, indent=indent, separators=separators) + trail
    # repr tells nan, -0.0, 1.0 from 1 and True from 1, and shows key order
    assert repr(decode_json(text)) == repr(json.loads(text))


def test_decode_json_takes_no_json_loads_call_on_a_whole_value(monkeypatch):
    payload = canonical_payload({"elected": [0, 13], "round": 5, "x": [None, 1.5, "s"]})

    def refuse(text):
        raise AssertionError(f"json.loads({text!r})")

    monkeypatch.setattr(json, "loads", refuse)
    assert decode_json(payload.decode("utf-8")) == {"elected": [0, 13], "round": 5, "x": [None, 1.5, "s"]}


def _raised(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "payload", [b"[1", b"1 2", b"", b" ", b"\xff", b"{\"a\":1}x", b"\xef\xbb\xbf1", b"[1,]", b"nul"]
)
def test_malformed_payload_raises_as_json_loads(payload):
    block = Block(0, 0, payload, GENESIS_HASH, bytes(32))
    raised = _raised(block.payload_obj)
    assert raised is not None
    assert raised == _raised(lambda: json.loads(payload.decode("utf-8")))


def _bad_row(key, value):
    def edit(rows):
        rows[1][key] = value
    return edit


def _drop(key):
    def edit(rows):
        del rows[1][key]
    return edit


def _both(*edits):
    def edit(rows):
        for e in edits:
            e(rows)
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[0], "ledger is not a JSON array of blocks"),
        (lambda rows: {"blocks": rows}, "ledger is not a JSON array of blocks"),
        (lambda rows: rows.__setitem__(1, "block"), "row 1 is not an object"),
        (lambda rows: rows.__setitem__(1, [0, 1]), "row 1 is not an object"),
        (_drop("index"), "row 1 has no 'index'"),
        (_drop("round"), "row 1 has no 'round'"),
        (_drop("payload"), "row 1 has no 'payload'"),
        (_drop("prev_hash"), "row 1 has no 'prev_hash'"),
        (_drop("digest"), "row 1 has no 'digest'"),
        (_bad_row("index", "1"), "row 1 'index' is not an unsigned 64-bit integer"),
        (_bad_row("index", 1.0), "row 1 'index' is not an unsigned 64-bit integer"),
        (_bad_row("index", True), "row 1 'index' is not an unsigned 64-bit integer"),
        (_bad_row("round", None), "row 1 'round' is not an unsigned 64-bit integer"),
        (_bad_row("round", -1), "row 1 'round' is not an unsigned 64-bit integer"),
        (_bad_row("round", 2**64), "row 1 'round' is not an unsigned 64-bit integer"),
        (_bad_row("index", 2**64), "row 1 'index' is not an unsigned 64-bit integer"),
        (_bad_row("prev_hash", "zz" * 32), "row 1 'prev_hash' is not 64 lowercase hex digits"),
        (_bad_row("digest", 7), "row 1 'digest' is not 64 lowercase hex digits"),
        (_bad_row("digest", None), "row 1 'digest' is not 64 lowercase hex digits"),
        (_bad_row("digest", "abc"), "row 1 'digest' is not 64 lowercase hex digits"),
        (_bad_row("prev_hash", ""), "row 1 'prev_hash' is not 64 lowercase hex digits"),
        (_bad_row("prev_hash", "00"), "row 1 'prev_hash' is not 64 lowercase hex digits"),
        (_bad_row("digest", "0A"), "row 1 'digest' is not 64 lowercase hex digits"),
        (_bad_row("digest", "ab cd"), "row 1 'digest' is not 64 lowercase hex digits"),
        (_bad_row("digest", "ff" * 33), "row 1 'digest' is not 64 lowercase hex digits"),
        (_bad_row("prev_hash", "AB" * 32), "row 1 'prev_hash' is not 64 lowercase hex digits"),
        (_bad_row("digest", "ab cd" + "00" * 30), "row 1 'digest' is not 64 lowercase hex digits"),
        (_both(_bad_row("index", "1"), _bad_row("prev_hash", "zz")), "row 1 'index' is not an unsigned 64-bit integer"),
        (_both(_bad_row("round", -1), _drop("digest")), "row 1 has no 'digest'"),
        (_both(_bad_row("prev_hash", 7), _bad_row("digest", "x")), "row 1 'prev_hash' is not 64 lowercase hex digits"),
        (
            _both(_bad_row("digest", 7), lambda rows: rows.__setitem__(2, "block")),
            "row 1 'digest' is not 64 lowercase hex digits",
        ),
    ],
)
def test_from_json_names_the_bad_row_and_field(tmp_path, edit, message):
    path = tmp_path / "ledger.json"
    _chain(3).to_json(path)
    rows = json.loads(path.read_text())
    edited = edit(rows)
    path.write_text(json.dumps(rows if edited is None else edited))
    with pytest.raises(ValueError) as info:
        Ledger.from_json(path)
    assert str(info.value) == message


def _ordered_row_block(i, row):
    """The ledger.json row reader as it was: every field check, in order."""
    if type(row) is not dict:
        raise ValueError(f"row {i} is not an object")
    for key in ("index", "round", "payload", "prev_hash", "digest"):
        if key not in row:
            raise ValueError(f"row {i} has no {key!r}")
    for key in ("index", "round"):
        if type(row[key]) is not int or not 0 <= row[key] < 1 << 64:
            raise ValueError(f"row {i} {key!r} is not an unsigned 64-bit integer")
    hashes = []
    for key in ("prev_hash", "digest"):
        try:
            hashes.append(bytes.fromhex(row[key]))
        except (TypeError, ValueError):
            hashes.append(b"")
        if len(hashes[-1]) != 32 or hashes[-1].hex() != row[key]:
            raise ValueError(f"row {i} {key!r} is not 64 lowercase hex digits")
    return Block(row["index"], row["round"], canonical_payload(row["payload"]), *hashes)


FIELD_VALUES = {
    "index": st.sampled_from([0, 1, 2**64 - 1, 2**64, -1, True, 1.0, "1", None]),
    "round": st.sampled_from([0, 3, 2**64 - 1, 2**64, -1, False, 2.5, "0", []]),
    "payload": JSON_VALUES,
    # "AB" * 32 and the spaced digest decode to 32 bytes but are not the lowercase text to_json writes
    "prev_hash": st.sampled_from(
        ["00" * 32, "ab" * 32, "AB" * 32, "", "00", "0A", "ab cd", "abc", "zz", 7, None, ["00"]]
    ),
    "digest": st.sampled_from(
        ["ff" * 32, "ff" * 33, "AB" * 32, "ab cd" + "00" * 30, "", "00", "0A", "ab cd", "g0", 0, None, {}]
    ),
}


@st.composite
def edited_rows(draw):
    """A sound row with up to three fields replaced or dropped."""
    row = {"index": 0, "round": 0, "payload": {}, "prev_hash": "00" * 32, "digest": "ff" * 32}
    for key in draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)), max_size=3)):
        if draw(st.booleans()):
            row[key] = draw(FIELD_VALUES[key])
        else:
            row.pop(key, None)
    return row


ROWS = st.lists(edited_rows() | st.sampled_from(["block", 0, None, [], [1, 2], 1.5]), max_size=4)


@given(ROWS)
@example([{"index": 0, "round": 0, "payload": {}, "prev_hash": "00" * 32, "digest": "11" * 32}])
@example([{"index": 0, "round": 0, "payload": {}, "prev_hash": "00", "digest": "11"}])
@example([{"index": "0", "round": 0, "payload": {}, "prev_hash": "zz", "digest": "11" * 32}])
@example([{"index": 0, "round": -1, "payload": {}, "prev_hash": "00"}])
def test_from_json_rows_read_as_the_ordered_checks(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rows") / "ledger.json"
    path.write_text(json.dumps(rows))
    ours = _raised(lambda: Ledger.from_json(path))
    theirs = _raised(lambda: [_ordered_row_block(i, row) for i, row in enumerate(rows)])
    assert ours == theirs
    if ours is None:
        assert Ledger.from_json(path).blocks == [_ordered_row_block(i, row) for i, row in enumerate(rows)]


def _reference_from_json(path):
    """The ledger.json reader as it was: json.loads of the file's text, the array check, then every row in order."""
    rows = json.loads(path.read_text(encoding="utf-8"))
    if type(rows) is not list:
        raise ValueError("ledger is not a JSON array of blocks")
    return [_ordered_row_block(i, row) for i, row in enumerate(rows)]


@st.composite
def ledger_texts(draw):
    """ROWS as json.dumps writes them, with whitespace, line ends, a BOM, junk or a cut drawn in."""
    text = json.dumps(draw(ROWS), indent=draw(st.sampled_from([None, 0, 2, "\t"])))
    text = draw(st.sampled_from(["", " ", "\n\t\r "])) + text + draw(st.sampled_from(["", "\n", " \r\n "]))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    edit = draw(st.sampled_from(["none", "bom", "junk", "cut"]))
    if edit == "bom":
        text = "\ufeff" + text
    elif edit == "junk":
        text += draw(st.sampled_from(["x", "]", ",", "[]", "0", " {}]", "\x00"]))
    elif edit == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    return text.encode("utf-8")


_SOUND_ROW = {"digest": "ff" * 32, "index": 0, "payload": {"elected": [3]}, "prev_hash": "00" * 32, "round": 0}
_ROW_TEXT = json.dumps(_SOUND_ROW).encode()


def _written(n):
    """The bytes to_json writes for _chain(n)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.json"
        _chain(n).to_json(path)
        return path.read_bytes()


_WRITTEN = _written(3)
# a sound row on one line, with a "\n  }" in the whitespace of its payload
_COMPACT_ROW = _ROW_TEXT.replace(b"[3]}", b"[3]\n  }")


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(ledger_texts())
# a bad row, then a later syntax error: json.load raises the syntax error first
@example(b'["block", tru]')
@example(b'[{"index": 0}, [1,]]')
@example(b"[]")
@example(b"[ ]")
@example(b"[]\n")
@example(b"[] 0]")
@example(b"{}")
@example(b"5")
@example(b'""')
@example(b"")
@example(b"[" + _ROW_TEXT + b", ]")
@example(b"[0, ]")
@example(b"\xff[]")
@example(b"[" + _ROW_TEXT + b"]\xff")
@example(json.dumps([{**_SOUND_ROW, "payload": [float("nan"), float("inf"), -float("inf")]}]).encode())
# the first row's closing brace is the last character of the first chunk
@example(b" " * (ledger_mod.READ_CHUNK - 1 - len(_ROW_TEXT)) + b"[" + _ROW_TEXT + b",\n" + _ROW_TEXT + b"]")
# to_json's layout with one edit at an edge of the run reader
@example(_WRITTEN[:-3] + b",\n\n]\n")
@example(b"[\n\n]\n")
@example(b"\n]\n")
@example(_WRITTEN + b"x")
@example(_WRITTEN + _WRITTEN)
@example(_WRITTEN.replace(b"\n  },\n", b"\n   },\n", 1))
@example(_WRITTEN.replace(b"\n  },\n", b"\n },\n", 1))
@example(_WRITTEN.replace(b"\n  }\n]", b"\n   }\n]"))
@example(_WRITTEN.replace(b"\n  },\n", b"\n  },\n  " + _COMPACT_ROW + b",\n", 1))
@example(_WRITTEN.replace(b"\n  },\n", b"\n  } \n", 1))
@example(b"\xef\xbb\xbf" + _WRITTEN)
def test_from_json_reads_as_json_load_then_the_ordered_checks(tmp_path, monkeypatch, raw):
    path = tmp_path / "ledger.json"
    path.write_bytes(raw)
    theirs = _raised(lambda: _reference_from_json(path))
    for chunk in (1, 2, 3, 7, ledger_mod.READ_CHUNK):
        monkeypatch.setattr(ledger_mod, "READ_CHUNK", chunk)
        ours = _raised(lambda: Ledger.from_json(path))
        assert ours == theirs, chunk
        if ours is None:
            assert Ledger.from_json(path).blocks == _reference_from_json(path)


@pytest.fixture(scope="module")
def long_ledger(tmp_path_factory):
    """3,000 blocks of the default run's payloads, cycled, and their ledger.json."""
    payloads = [b.payload_obj() for b in run_simulation(SimConfig()).ledger.blocks]
    led = Ledger()
    for r in range(3000):
        led.append(r, payloads[r % len(payloads)])
    path = tmp_path_factory.mktemp("long") / "ledger.json"
    led.to_json(path)
    return led, path


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_to_json_holds_one_row_at_a_time(long_ledger, tmp_path):
    led, _ = long_ledger
    # about 0.02 MB; joining every row first peaked near three times the file
    assert _traced_peak(lambda: led.to_json(tmp_path / "ledger.json")) < 1 << 20


def test_from_json_holds_less_than_the_file(long_ledger):
    _, path = long_ledger
    # the blocks themselves are about half the file; json.load's row tree was over twice it
    assert _traced_peak(lambda: Ledger.from_json(path)) < path.stat().st_size


def test_from_json_scans_runs_of_rows_not_rows(long_ledger, monkeypatch):
    led, path = long_ledger
    calls = []
    scan = ledger_mod._scan_once

    def counted(text, idx):
        calls.append(idx)
        return scan(text, idx)

    monkeypatch.setattr(ledger_mod, "_scan_once", counted)
    assert Ledger.from_json(path).blocks == led.blocks
    # one call per read; a call per row would be 3,000
    assert len(calls) <= len(path.read_text(encoding="utf-8")) // ledger_mod.READ_CHUNK + 2


def test_from_json_takes_no_json_loads_call_on_a_written_ledger(long_ledger, monkeypatch):
    led, path = long_ledger

    def refuse(text, *args, **kwargs):
        raise AssertionError("json.loads over ledger.json")

    monkeypatch.setattr(json, "loads", refuse)
    assert Ledger.from_json(path).blocks == led.blocks


def test_from_json_reads_another_layout_once_before_json_load(long_ledger, tmp_path, monkeypatch):
    led, path = long_ledger
    copy = tmp_path / "ledger.json"
    copy.write_text(json.dumps(json.loads(path.read_text(encoding="utf-8")), indent=4) + "\n", encoding="utf-8")
    reads = []
    read_blocks = ledger_mod._read_blocks

    class Counted:
        def __init__(self, fh):
            self.read = lambda size: reads.append(size) or fh.read(size)

    monkeypatch.setattr(ledger_mod, "_read_blocks", lambda fh: read_blocks(Counted(fh)))
    assert Ledger.from_json(copy).blocks == led.blocks
    # "[\n    {" is not how to_json opens a ledger, so the first read settles it
    assert reads == [ledger_mod.READ_CHUNK]
