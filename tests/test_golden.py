"""Byte-exact outputs of convert, the three analyses and the DOT export.

The files under tests/golden/ hold stdout and stderr of
``python -m oced_forge`` for each command below.  ``convert`` reads the test
fixture log and tests/golden/hostile.xes (with hostile.config.json); the
other commands read the converted fixture log and tests/golden/hostile.ttl.
The analyses also read tests/golden/times.ttl, whose events carry every
time form the read side accepts or drops.
Refresh them with
``PYTHONPATH=src python tests/test_golden.py`` only when an output change
is intended.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BPIC_STYLE_XES, cli_env

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "convert": ["convert"],
    "event-objects.csv": ["analyze", "--analysis", "event-objects"],
    "event-objects.jsonl": ["analyze", "--analysis", "event-objects", "--format", "jsonl"],
    "export-dot": ["export-dot"],
    "ping-pong.csv": ["analyze", "--analysis", "ping-pong"],
    "teams.csv": ["analyze", "--analysis", "teams"],
}
ANALYSES = [name for name, command in COMMANDS.items() if command[0] == "analyze"]
CASES = [(source, name) for source in ("fixture", "hostile") for name in COMMANDS]
CASES += [("times", name) for name in ANALYSES]


def _cli(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "oced_forge", *argv],
        input=stdin,
        env=cli_env(),
        capture_output=True,
    )


def _input_path(source: str, workdir: Path) -> Path:
    if source != "fixture":
        return GOLDEN / f"{source}.ttl"
    path = workdir / "fixture.ttl"
    if not path.exists():
        result = _cli("convert", "-", "--quiet", "-o", str(path), stdin=BPIC_STYLE_XES.encode())
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    return path


def _run(source: str, name: str, workdir: Path):
    if name == "convert":
        if source == "hostile":
            return _cli("convert", str(GOLDEN / "hostile.xes"), "--config", str(GOLDEN / "hostile.config.json"))
        return _cli("convert", "-", stdin=BPIC_STYLE_XES.encode())
    command = COMMANDS[name]
    return _cli(command[0], str(_input_path(source, workdir)), *command[1:])


@pytest.mark.parametrize("source, name", CASES, ids=[f"{s}-{n}" for s, n in CASES])
def test_output_matches_golden(source, name, tmp_path):
    result = _run(source, name, tmp_path)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert result.stdout == (GOLDEN / f"{source}.{name}.stdout").read_bytes()
    assert result.stderr == (GOLDEN / f"{source}.{name}.stderr").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for source, name in CASES:
            result = _run(source, name, Path(tmp))
            assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
            (GOLDEN / f"{source}.{name}.stdout").write_bytes(result.stdout)
            (GOLDEN / f"{source}.{name}.stderr").write_bytes(result.stderr)
