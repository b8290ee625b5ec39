"""The four run commands (``simulate`` / ``service`` / ``hier`` /
``hier-service``) at their CLI surface.

``golden/cli_stdout.json`` and ``golden/cli_options.json`` were captured
on the commit *before* the four ``_cmd_*`` bodies and their flag
declarations were folded into one run path (PR 19): stdout is compared
byte for byte with host seconds masked, and every subparser's options
(strings, defaults, help text, types, choices) must be exactly the set
each command had then.  The exit-code tests pin the one-line / exit 2
contract for arguments that only the driver can reject.
"""

import json
import pathlib
import re

import pytest

from repro.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: The CI-sized workload of .github/workflows/ci.yml (< 1 s a command).
WORKLOAD = ["--db-sequences", "90", "--mean-length", "140",
            "--query-bytes", "1800"]
COMMANDS = {
    "simulate": ["simulate", "pioblast", "--nprocs", "6"],
    "service": ["service", "--nprocs", "6", "--rate", "0.5"],
    "hier": ["hier", "--nprocs", "13", "--groups", "3"],
    "hier-service": ["hier-service", "--nprocs", "17", "--groups", "3",
                     "--rate", "0.5"],
}
VARIANTS = {
    "plain": [],
    "faults": ["--faults", "seed=7,ioerr=results@0n2,slowdisk=2x5@0"],
    "oracle": ["--verify-oracle"],
    "obs": ["--trace", "trace.json", "--metrics-json", "metrics.json"],
}
#: Branches the grid above does not reach: the other two programs, the
#: promoted-master line, shard placement, join/drain regroups, admission
#: shedding (the "report degraded" oracle line) and an arrival trace.
EXTRA = {
    "simulate-mpiblast-blade": [
        "simulate", "mpiblast", "--nprocs", "6", "--platform", "blade"],
    "simulate-queryseg": ["simulate", "queryseg", "--nprocs", "6"],
    "simulate-master-kill": [
        "simulate", "pioblast", "--nprocs", "6",
        "--faults", "seed=7,kill=0@0.1", "--checkpoint-interval", "0.05"],
    "hier-shard": ["hier", "--nprocs", "13", "--groups", "3", "--shard",
                   "--batch-queries", "2", "--verify-oracle"],
    "hier-service-elastic": [
        "hier-service", "--nprocs", "17", "--groups", "3", "--shard",
        "--rate", "0.5", "--join", "4@5", "--drain", "0@20",
        "--verify-oracle"],
    "hier-service-shed": [
        "hier-service", "--nprocs", "17", "--groups", "3", "--rate", "5",
        "--shed-threshold", "2", "--no-priority", "--verify-oracle"],
    "service-arrivals": ["service", "--nprocs", "6", "--no-priority",
                         "--arrivals", "arrivals.txt"],
}
ARRIVALS = "0.0 0\n0.5 1 scan\n4.0 2\n"

#: The flat service does not retry I/O; a worker kill is cheap there.
SERVICE_FAULTS = ["--faults", "seed=7,kill=2@5,slowdisk=2x5@0"]


def _cases():
    cases = dict(EXTRA)
    for cmd, argv in COMMANDS.items():
        for variant, extra in VARIANTS.items():
            if (cmd, variant) == ("simulate", "oracle"):
                continue  # simulate has no --verify-oracle
            if (cmd, variant) == ("service", "faults"):
                extra = SERVICE_FAULTS
            cases[f"{cmd}-{variant}"] = argv + extra
    return cases


CASES = _cases()


def run_case(argv, tmp_path, monkeypatch, capsys):
    """Run one case from ``tmp_path``; ``(exit code, masked stdout)``."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "arrivals.txt").write_text(ARRIVALS)
    rc = main(argv + WORKLOAD)
    out = capsys.readouterr().out
    return rc, re.sub(r"host [0-9.]+ s\)", "host # s)", out)


def option_dump():
    """Every subcommand's options as JSON-comparable rows."""
    subparsers = build_parser()._subparsers._group_actions[0].choices
    return {
        name: {
            "options": sorted(
                [
                    list(a.option_strings), a.dest, a.default, a.help,
                    getattr(a.type, "__name__", None),
                    list(a.choices) if a.choices else None,
                    a.metavar, type(a).__name__,
                ]
                for a in sub._actions
            ),
            "exclusive": sorted(
                sorted(a.dest for a in g._group_actions)
                for g in sub._mutually_exclusive_groups
            ),
        }
        for name, sub in subparsers.items()
    }


class TestStdoutGoldens:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_stdout_is_the_parent_commits(self, case, tmp_path, monkeypatch,
                                          capsys):
        golden = json.loads((GOLDEN / "cli_stdout.json").read_text())
        rc, out = run_case(CASES[case], tmp_path, monkeypatch, capsys)
        assert rc == 0
        assert out == golden[case]
        if "--trace" in CASES[case]:
            assert json.loads((tmp_path / "trace.json").read_text())[
                "traceEvents"]
            assert json.loads((tmp_path / "metrics.json").read_text())[
                "makespan"] > 0


class TestOptionSurface:
    def test_every_subparser_keeps_its_options(self):
        golden = json.loads((GOLDEN / "cli_options.json").read_text())
        # through JSON, so tuples and lists compare alike
        assert json.loads(json.dumps(option_dump())) == golden


class TestExitCodes:
    @staticmethod
    def _one_line_exit_2(argv, capsys):
        assert main(argv + WORKLOAD) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1, captured.err

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_bad_faults_spec(self, cmd, capsys):
        self._one_line_exit_2(COMMANDS[cmd] + ["--faults", "kill=oops"],
                              capsys)

    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    @pytest.mark.parametrize("flag", ["--trace", "--metrics-json"])
    def test_missing_output_directory(self, cmd, flag, tmp_path, capsys):
        self._one_line_exit_2(
            COMMANDS[cmd] + [flag, str(tmp_path / "no-such-dir" / "x.json")],
            capsys,
        )

    @pytest.mark.parametrize("argv", [
        ["simulate", "pioblast", "--nprocs", "1"],
        ["simulate", "queryseg", "--nprocs", "4", "--faults", "kill=1@0.1"],
        ["service", "--nprocs", "1"],
        ["hier", "--nprocs", "3", "--groups", "4"],
        ["hier-service", "--nprocs", "3", "--groups", "4"],
    ], ids=["simulate-nprocs-1", "queryseg-faults", "service-nprocs-1",
            "hier-too-few-ranks", "hier-service-too-few-ranks"])
    def test_run_the_driver_rejects(self, argv, capsys):
        self._one_line_exit_2(argv, capsys)

    @pytest.mark.parametrize("cmd", ["service", "hier-service"])
    def test_unreadable_arrivals_file(self, cmd, tmp_path, capsys):
        self._one_line_exit_2(
            COMMANDS[cmd] + ["--arrivals", str(tmp_path / "missing.txt")],
            capsys,
        )

    @pytest.mark.parametrize("spec", ["--join", "--drain"])
    def test_bad_join_drain_spec(self, spec, capsys):
        self._one_line_exit_2(COMMANDS["hier-service"] + [spec, "4at5"],
                              capsys)

    @pytest.mark.parametrize("cmd", ["service", "hier", "hier-service"])
    def test_host_budget_exceeded(self, cmd, capsys):
        assert main(COMMANDS[cmd] + WORKLOAD + ["--host-budget", "0"]) == 3
        assert "host budget exceeded" in capsys.readouterr().err
