"""tools/park_census.py: the tables it prints from its counts.

The census itself runs a benchmark workload's timed region and is not
run here (CI runs it as its own tier-1 step); a canned record stands in.
"""

import importlib.util
import pathlib
import sys

_PATH = (
    pathlib.Path(__file__).resolve().parents[1] / "tools" / "park_census.py"
)
_spec = importlib.util.spec_from_file_location("park_census", _PATH)
park_census = importlib.util.module_from_spec(_spec)
sys.modules["park_census"] = park_census  # dataclasses look the module up
_spec.loader.exec_module(park_census)

CENSUS = park_census.Census(
    parks={"sleep": 900, "recv_timeout": 300, "xfs:transfer": 4},
    handed={"sleep": 800, "recv_timeout": 290},
    handoffs=125_000,
    messages=400,
    by_kind={
        ("groupmaster.GRP_REQ", "work"): 180,
        ("groupmaster.GRP_REPLY", "wait"): 170,
        ("groupmaster.GRP_PING", ""): 40,
    },
    sizing_calls=520,
    host_s=2.5,
)


def test_parks_table_orders_by_count_and_splits_hand_offs():
    lines = park_census.report(CENSUS, pingpong_us=4.0).splitlines()
    assert lines[0].split() == ["parker", "parks", "handed", "off", "stayed"]
    assert [ln.split() for ln in lines[1:5]] == [
        ["sleep", "900", "800", "100"],
        ["recv_timeout", "300", "290", "10"],
        ["xfs:transfer", "4", "0", "4"],
        ["total", "1204", "1090", "114"],
    ]


def test_messages_table_accounts_for_every_message():
    lines = park_census.report(CENSUS, pingpong_us=4.0).splitlines()
    start = lines.index("") + 1
    assert lines[start].split() == ["tag", "kind", "messages"]
    assert [ln.split() for ln in lines[start + 1:start + 6]] == [
        ["groupmaster.GRP_REQ", "work", "180"],
        ["groupmaster.GRP_REPLY", "wait", "170"],
        ["groupmaster.GRP_PING", "-", "40"],
        ["(send", "/", "collectives)", "-", "10"],
        ["total", "400"],
    ]


def test_sizing_and_hand_off_floor_lines():
    lines = park_census.report(CENSUS, pingpong_us=4.0).splitlines()
    assert lines[-2] == (
        "payload_nbytes entries: 520 for 400 messages (1.30 per message)"
    )
    assert lines[-1] == (
        "baton hand-offs: 125000 x 4.00 us lock ping-pong = 0.50 s of "
        "2.50 s host (under the wrappers)"
    )


def test_gates_compare_what_the_tables_total():
    assert CENSUS.total_parks == 1204
    empty = park_census.Census()
    assert empty.total_parks == 0
    assert "0 for 0 messages (0.00 per message)" in park_census.report(
        empty, pingpong_us=3.5
    )
