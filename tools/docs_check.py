#!/usr/bin/env python3
"""Fail when a user-facing doc cites something that does not exist.

    python3 tools/docs_check.py            # make docs-check

Reads README.md, DESIGN.md, EXPERIMENTS.md, FAULTS.md, OBSERVABILITY.md
and PERFORMANCE.md (not the history/plan files CHANGES.md, ISSUE.md,
ROADMAP.md, and nothing under ``bench/``) and checks what they cite in
backticks — inline spans and fenced blocks:

* a repo-relative path (``tests/test_faults.py``, ``benchmarks/results/``,
  also relative to ``src/`` or ``src/repro/``: ``parallel/pioblast.py``)
  or an all-caps root document (``FAULTS.md``);
* a ``BENCH_*.json`` file (a ``*`` in the name must match something);
* a ``make <target>``;
* a ``python -m repro <subcommand>`` or ``python -m repro.<module>``.

It also rejects, anywhere in the text, a ROADMAP item number ("ROADMAP
item 4(a)", "ROADMAP 8a", wrapped over a line break or not): the items
are renumbered at every re-anchor, so a doc names the mechanism instead.

Prints ``FILE:LINE: what`` per dangling citation and exits 1 if any.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "FAULTS.md",
        "OBSERVABILITY.md", "PERFORMANCE.md")
#: where a doc's relative path may be rooted
BASES = ("", "src", "src/repro")
#: run products a fresh checkout does not have (see .gitignore)
GENERATED = ("bench/out/",)

#: fenced blocks, and inline spans (which may wrap, not cross a blank line)
_CODE = re.compile(r"```.*?```|`(?:[^`\n]|\n(?!\n))+`", re.S)
_TOKEN = re.compile(r"[\w.*/-]+")
_PATHLIKE = re.compile(r".*(/|\.(py|md|json|yml|toml|txt))$")
_ROADMAP_ITEM = re.compile(r"\bROADMAP\s+(?:items?\s+)?\d\w*(?:\(\w\))?")


def citations(text: str):
    """``(line, kind, name)`` for everything checkable ``text`` cites."""
    for m in _CODE.finditer(text):
        span = m.group()
        line = text.count("\n", 0, m.start()) + 1
        for off, row in enumerate(span.splitlines()):
            for cmd in re.finditer(r"\bmake ([a-z][\w-]*)", row):
                yield line + off, "make target", cmd.group(1)
            for cmd in re.finditer(
                r"\bpython3? -m (repro[\w.]*)( [a-z][\w-]*)?", row
            ):
                if cmd.group(1) != "repro":
                    yield line + off, "module", cmd.group(1)
                elif cmd.group(2):
                    yield line + off, "subcommand", cmd.group(2).strip()
            for tok in _TOKEN.findall(row):
                tok = tok.rstrip(".")
                if re.fullmatch(r"BENCH_[\w*.-]*\.json", tok):
                    yield line + off, "bench file", tok
                elif re.fullmatch(r"[A-Z][A-Z_]+\.md", tok):
                    yield line + off, "path", tok
                elif "/" in tok.rstrip("/") and _PATHLIKE.match(tok):
                    yield line + off, "path", tok


def roadmap_items(text: str):
    """``(line, citation)`` for each ROADMAP item number ``text`` cites."""
    for m in _ROADMAP_ITEM.finditer(text):
        yield text.count("\n", 0, m.start()) + 1, " ".join(m.group().split())


def make_targets() -> set[str]:
    return set(re.findall(r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(),
                          re.M))


def subcommands() -> set[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import build_parser

    return set(build_parser()._subparsers._group_actions[0].choices)


def exists(kind: str, name: str, targets: set[str],
           commands: set[str]) -> bool:
    if kind == "make target":
        return name in targets
    if kind == "subcommand":
        return name in commands
    if kind == "module":
        stem = ROOT / "src" / name.replace(".", "/")
        return stem.with_suffix(".py").is_file() or stem.is_dir()
    if kind == "bench file":
        return any(ROOT.glob(name))
    if name.startswith(("/",) + GENERATED):
        return True  # not repo-relative, or a run product
    first = name.split("/")[0]
    rooted = [b for b in BASES if (ROOT / b / first).exists()]
    if not rooted:
        # a first component that names nothing in the tree is prose
        # (`hier/np256`, `p50/p95/p99`); a bare NAME.md is a root doc
        return "/" in name
    return any(any((ROOT / b).glob(name.rstrip("/"))) for b in rooted)


def main() -> int:
    targets, commands = make_targets(), subcommands()
    dangling = 0
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        for line, kind, name in citations(text):
            if not exists(kind, name, targets, commands):
                print(f"{doc}:{line}: {kind} `{name}` does not exist")
                dangling += 1
        for line, cite in roadmap_items(text):
            print(f"{doc}:{line}: `{cite}` cites a ROADMAP item number; "
                  "name the mechanism")
            dangling += 1
    if dangling:
        print(f"{dangling} dangling citation(s)")
    return 1 if dangling else 0


if __name__ == "__main__":
    raise SystemExit(main())
