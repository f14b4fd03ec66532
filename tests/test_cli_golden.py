"""CLI output pinned across commits.

`cli_golden.json` maps each argv to the sha256 of its stdout.  The first
argument after the command names a shipped document and is resolved with
`models.data_path`.  After a deliberate output change, regenerate with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import csv
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
    # a conv swept as a separable pair, and a conv of a network swept at
    # rates around its own
    for fmt in ("text", "json"):
        out.append(["sweep", "sweep_conv.json", "--layer", "0", "--separable",
                    "--rates", "8,4,2,1,1/2,1/4", "--format", fmt])
        out.append(["sweep", "running_example.json", "--layer", "C2",
                    "--rates", "8,4,2,1,1/2", "--format", fmt])
    rex = "running_example.json"
    for fmt in ("text", "json"):
        out.append(["simulate", rex, "--maps", "3", "--trace", "C2",
                    "--format", fmt])
    # signal events of every unit kind: pools and a plain FCU, pre-truncation
    # values, an aggregated FCU in a network, and depthwise streams emitting
    # in one cycle ahead of a per-pixel pointwise layer
    out.append(["simulate", rex, "--maps", "2", "--trace", "P1,P2,F1"])
    out.append(["simulate", rex, "--truncate", "--trace", "C2"])
    out.append(["simulate", rex, "--truncate", "--maps", "2", "--trace",
                "P2,F1", "--format", "json"])
    out.append(["simulate", rex, "--min-h", "10", "--maps", "2",
                "--trace", "F1"])
    out.append(["simulate", "sweep_separable.json", "--trace", "sweep",
                "--format", "json"])
    out.append(["compare", rex, "--trials", "3"])
    out.append(["compare", rex, "--trials", "3", "--format", "json"])
    for fmt in FORMATS:
        out.append(["trace", rex, "--layer", "C1", "--zero", "--format", fmt])
        out.append(["trace", rex, "--layer", "F1", "--format", fmt])
    for fmt in ("text", "json"):
        out.append(["trace", rex, "--layer", "F1", "--min-h", "10",
                    "--format", fmt])
        # stream positions decoded across map seams
        out.append(["trace", rex, "--layer", "C1", "--maps", "2",
                    "--format", fmt])
    out.append(["trace", rex, "--layer", "C2", "--maps", "3", "--zero"])
    out.append(["trace", "sweep_separable.json", "--layer", "0", "--maps",
                "2"])
    return out


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([argv[0], data_path(argv[1])] + argv[2:])
    assert code == 0, argv
    return buf.getvalue()


def stdout_sha256(argv: list[str]) -> str:
    return hashlib.sha256(stdout_of(argv).encode()).hexdigest()


def _load() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_unchanged(argv):
    assert stdout_sha256(argv) == _load()[" ".join(argv)]


@pytest.mark.parametrize(
    "argv", [a for a in cases() if a[-2:] == ["--format", "csv"]], ids=" ".join)
def test_csv_rows_as_wide_as_header(argv):
    rows = list(csv.reader(io.StringIO(stdout_of(argv))))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)


def test_golden_table_covers_cases():
    assert sorted(_load()) == sorted(" ".join(a) for a in cases())


if __name__ == "__main__":
    table = {" ".join(a): stdout_sha256(a) for a in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
