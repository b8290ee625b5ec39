"""tools/docs_check.py: what it takes for a citation, and what it lets
pass.  Canned text stands in for the docs; ``make docs-check`` runs it
on the real ones."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "docs_check.py"
_spec = importlib.util.spec_from_file_location("docs_check", _PATH)
docs_check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(docs_check)

CANNED = """\
Run `make perf-smoke` or `make no-such-target`; the sweep writes
`BENCH_pr10.json` (it used to be `BENCH_pr8.json`, see `FAULTS.md` and
`GONE.md`), and `python -m repro.obs.compare BENCH_pr10_quick.json
/tmp/now.json --threshold 0` diffs it.  Not citations: make it so,
BENCH_pr7.json outside backticks, the run name `hier/np256`, the
columns `p50/p95/p99`, a bare `engine.py`, `chrome://tracing`.

```bash
python -m repro simulate pioblast --nprocs 8   # a subcommand
python -m repro frobnicate                     # not one
python3 -m repro.obs.nothing --quick
pytest tests/test_faults.py::TestParse tests/test_gone.py
ls parallel/pioblast.py parallel/gone.py benchmarks/results/ bench/out/x.json
```
"""


def test_citations_found_in_canned_text():
    found = {(kind, name)
             for _line, kind, name in docs_check.citations(CANNED)}
    assert found == {
        ("make target", "perf-smoke"), ("make target", "no-such-target"),
        ("bench file", "BENCH_pr10.json"), ("bench file", "BENCH_pr8.json"),
        ("bench file", "BENCH_pr10_quick.json"),
        ("path", "FAULTS.md"), ("path", "GONE.md"),
        ("path", "/tmp/now.json"),
        ("module", "repro.obs.compare"), ("module", "repro.obs.nothing"),
        ("subcommand", "simulate"), ("subcommand", "frobnicate"),
        ("path", "tests/test_faults.py"), ("path", "tests/test_gone.py"),
        ("path", "parallel/pioblast.py"), ("path", "parallel/gone.py"),
        ("path", "benchmarks/results/"), ("path", "bench/out/x.json"),
    }


def test_line_numbers_follow_wrapped_spans_and_fences():
    lines = {name: line for line, _k, name in docs_check.citations(CANNED)}
    assert lines["no-such-target"] == 1
    assert lines["BENCH_pr10_quick.json"] == 3  # span opened on line 3
    assert lines["/tmp/now.json"] == 4          # ... and wrapped
    assert lines["frobnicate"] == 10


def test_only_the_dangling_ones_fail():
    targets, commands = docs_check.make_targets(), docs_check.subcommands()
    dangling = sorted(
        name for _line, kind, name in docs_check.citations(CANNED)
        if not docs_check.exists(kind, name, targets, commands)
    )
    assert dangling == [
        "BENCH_pr8.json", "GONE.md", "frobnicate", "no-such-target",
        "parallel/gone.py", "repro.obs.nothing", "tests/test_gone.py",
    ]


def test_roadmap_item_numbers_are_rejected_even_when_wrapped():
    text = ("the fix is a refit (ROADMAP\nitem 12), see ROADMAP 4(a) and\n"
            "ROADMAP 8a; ROADMAP.md and the ROADMAP's items are fine.")
    assert list(docs_check.roadmap_items(text)) == [
        (1, "ROADMAP item 12"), (2, "ROADMAP 4(a)"), (3, "ROADMAP 8a"),
    ]


def test_the_real_docs_are_clean():
    assert docs_check.main() == 0
