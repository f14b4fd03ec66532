"""The input contract of the network document, fuzzed over the parser's own
field table: a valid document either runs (and compares bit-exact) or is
refused with exit code 2 and one `error:` line; a near miss of a valid
document is always refused that way.  No run exits 1 or raises.

`--hypothesis-profile=long` runs the property at a larger budget."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, strategies as st

from flowcnn.cli import main
from flowcnn.netspec import (DOCUMENT_FIELDS, FIXED, INPUT_FIELDS,
                             LAYER_FIELDS, QUANT_FIELDS)

COMMANDS = [["analyze"], ["plan"], ["cost"], ["compare", "--trials", "1"]]
# the fields every layer row takes besides its kind's table
ROW_FIELDS = {"kind": None, "name": "", "f": "f"}
# every field name of the document, and typos of some
NAMES = ({"qaunt", "rte", "weight_bit", "stride"} | DOCUMENT_FIELDS.keys()
         | INPUT_FIELDS.keys() | QUANT_FIELDS.keys() | ROW_FIELDS.keys()
         | {key for fields in LAYER_FIELDS.values() for key in fields})
# values of the wrong JSON type for a field of each type
WRONG_TYPE = {int: ["1", 1.5, True, None, [1]],
              str: [1, 1.5, False, None, ["conv"]],
              bool: [1, "true", None],
              dict: [1, "x", [], None],
              list: [{}, "x", 1, None]}
# a rate is a string or an integer
WRONG_RATE = [1.5, True, None, ["1/2"]]


@st.composite
def _row(draw, kind, f, d_in, idx):
    """One layer row of `kind` on an f x f x d_in map: every table field
    either left to its default or drawn in range, a fixed one at its
    value."""
    row = {"kind": kind.value}
    if draw(st.booleans()):
        row["f"] = f
    k = draw(st.integers(1, max(1, min(f, 5))))
    drawn = {"k": k, "s": draw(st.integers(1, k)),
             "p": draw(st.integers(0, (k - 1) // 2)),
             "d_out": draw(st.integers(1, 16)),
             "residual_source": draw(st.integers(0, max(0, idx - 1))),
             "internal_input": draw(st.booleans())}
    for key, default in LAYER_FIELDS[kind].items():
        if key in FIXED.get(kind, ()):
            value = d_in if default == "d_in" else default
        else:
            value = drawn[key]
        if default is None or draw(st.booleans()):
            row[key] = value
    if draw(st.booleans()):
        row["name"] = f"N{idx}"
    return row


@st.composite
def documents(draw):
    """A document the schema takes: f and channels up to 16, at most 4
    layers, a rate whose denominator is at most 16."""
    f, d = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    doc = {"input": {"height": f, "width": f, "channels": d}, "layers": []}
    if draw(st.booleans()):
        den = draw(st.integers(1, 16))
        doc["input"]["rate"] = str(Fraction(draw(st.integers(1, d * den)),
                                            den))
    if draw(st.booleans()):
        doc["quant"] = {key: draw(st.integers(1, 16)) for key in QUANT_FIELDS
                        if draw(st.booleans())}
    for idx in range(draw(st.integers(1, 4))):
        if f < 1:
            break
        kind = draw(st.sampled_from(list(LAYER_FIELDS)))
        row = draw(_row(kind, f, d, idx))
        doc["layers"].append(row)
        if kind.value == "fc":
            f, d = 1, row["d_out"]
            continue
        k = row.get("k", 1)
        s = row.get("s", k if "pool" in kind.value else 1)
        f = (f - k + 2 * row.get("p", 0)) // s + 1
        d = row.get("d_out", d)
    return doc


@st.composite
def near_misses(draw):
    """A valid document with one mistake: a required key dropped, a key its
    object does not take, a wrong JSON type, a fixed field at another value,
    or an integer below its minimum or at or above 2**63."""
    doc = draw(documents())
    objects = [(doc, DOCUMENT_FIELDS), (doc["input"], INPUT_FIELDS)]
    if "quant" in doc:
        objects.append((doc["quant"], QUANT_FIELDS))
    objects += [(row, ROW_FIELDS | LAYER_FIELDS[row["kind"]])
                for row in doc["layers"]]
    places = {
        "drop": [(obj, key) for obj, fields in objects for key in obj
                 if fields.get(key, 0) is None],
        "unknown": [(obj, key) for obj, fields in objects
                    for key in sorted(NAMES - fields.keys())],
        "type": [(obj, key) for obj, _ in objects for key in obj],
        "fixed": [(obj, key) for obj, _ in objects
                  for key in FIXED.get(obj.get("kind"), ()) if key in obj],
        "below": [(obj, key) for obj, _ in objects
                  for key, value in obj.items() if type(value) is int],
    }
    places["above"] = places["below"]
    # uniform choices: sampled_from leans to its first elements, which would
    # leave the later mistakes and places nearly untried
    rnd = draw(st.randoms(use_true_random=False))
    mistake = rnd.choice([m for m in places if places[m]])
    obj, key = rnd.choice(places[mistake])
    if mistake == "drop":
        del obj[key]
    elif mistake == "unknown":
        obj[key] = 1
    elif mistake == "type":
        obj[key] = rnd.choice(
            WRONG_RATE if key == "rate" else WRONG_TYPE[type(obj[key])])
    elif mistake == "fixed":
        obj[key] += rnd.randint(1, 3)
    elif mistake == "below":
        obj[key] = rnd.randint(-3, -1 if key in ("p", "residual_source") else 0)
    else:
        obj[key] = rnd.randint(2 ** 63, 2 ** 64)
    return doc


def _run(path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], path, *argv[1:]])
    return code, err.getvalue()


@given(st.data())
def test_every_document_runs_or_is_refused(data):
    # a near miss stops at parse, a third of the cost of a valid run, so it
    # is offered twice as often
    near_miss = data.draw(st.sampled_from([False, True, True]))
    doc = data.draw(near_misses() if near_miss else documents())
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        for argv in COMMANDS:
            code, err = _run(path, argv)
            # compare exits 0 only when every trial is bit-exact
            assert code in ((2,) if near_miss else (0, 2)), (argv, err)
            if code == 2:
                assert len(err.splitlines()) == 1, (argv, err)
                assert err.startswith("error: "), (argv, err)
    finally:
        os.unlink(path)
