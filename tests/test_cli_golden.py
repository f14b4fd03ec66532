"""CLI output pinned across commits.

`cli_golden.json` maps each argv to the sha256 of its stdout.  The first
argument after the command names a shipped document and is resolved with
`models.data_path`.  After a deliberate output change, regenerate with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from flowcnn.cli import main
from flowcnn.models import data_path

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
DOCS = ["running_example.json", "sweep_conv.json", "sweep_separable.json"]
FORMATS = ["text", "json", "csv"]
SWEEP_RATES = "8,4,2,1,1/2,1/4,1/8,1/16,1/32"


def cases() -> list[list[str]]:
    out = []
    for doc in DOCS:
        for fmt in FORMATS:
            fa = ["--format", fmt]
            out.append(["analyze", doc] + fa)
            out.append(["plan", doc] + fa)
            out.append(["plan", doc, "--parallel"] + fa)
            for scope in ("table6", "table7", "table9", "parallel"):
                out.append(["cost", doc, "--scope", scope] + fa)
    for doc in ("sweep_conv.json", "sweep_separable.json"):
        for fmt in FORMATS:
            out.append(["sweep", doc, "--layer", "0", "--rates", SWEEP_RATES,
                        "--format", fmt])
    rex = "running_example.json"
    for fmt in ("text", "json"):
        out.append(["simulate", rex, "--maps", "3", "--trace", "C2",
                    "--format", fmt])
    out.append(["compare", rex, "--trials", "3"])
    for fmt in ("text", "json"):
        out.append(["trace", rex, "--layer", "C1", "--zero", "--format", fmt])
        out.append(["trace", rex, "--layer", "F1", "--format", fmt])
    return out


def stdout_sha256(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([argv[0], data_path(argv[1])] + argv[2:])
    assert code == 0, argv
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _load() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_unchanged(argv):
    assert stdout_sha256(argv) == _load()[" ".join(argv)]


def test_golden_table_covers_cases():
    assert sorted(_load()) == sorted(" ".join(a) for a in cases())


if __name__ == "__main__":
    table = {" ".join(a): stdout_sha256(a) for a in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
