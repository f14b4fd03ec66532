import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowcnn.cli import main
from flowcnn.models import data_path, mobilenet_v1, running_example
from flowcnn.netspec import parse_network, serialize_network
from flowcnn.oracle import gen_network_weights, gen_random, ref_network, \
    save_tensor, weights_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_running_example(capsys, rex_file):
    code, out, _ = run(capsys, "analyze", rex_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:4] == ["layer", "kind", "f", "k"]
    assert len([l for l in lines if l and not l.startswith("!")]) == 6
    assert "4/9" in out and "0.02" in out


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/net.json")
    assert code == 2
    assert "error" in err


def test_runs_as_a_module(capsys, rex_file):
    """`python -m flowcnn` from a checkout, with src/ on the path only."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "flowcnn", "plan", rex_file],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    code, out, _ = run(capsys, "plan", rex_file)
    assert proc.returncode == code == 0
    assert out and proc.stdout == out


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_ends_quietly(rex_file, unbuffered):
    """A reader that has gone (`flowcnn plan ... | head -3`) leaves no
    traceback: the pipe's read end is closed before the command starts.
    Unbuffered, the first print fails; buffered, the last flush does."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    # an empty PYTHONUNBUFFERED leaves standard output buffered
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flowcnn", "plan", rex_file],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120, env=env)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


@pytest.mark.parametrize("command, column", [("analyze", -2), ("plan", -1)],
                         ids=["analyze", "plan"])
def test_slow_rates_print_exact_not_zero(capsys, tmp_path, rex_file,
                                         command, column):
    # at 1/1000 the rates from P1 on are below 0.005; two decimals printed
    # each of them as 0.00
    doc = json.loads(Path(rex_file).read_text())
    doc["input"]["rate"] = "1/1000"
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, command, str(path))
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:6]]
    assert [row[column] for row in rows] == \
        ["0.01", "1/500", "1/250", "1/2250", "1/57600"]
    assert "0.00" not in out


def test_analyze_json_format(capsys, rex_file):
    code, out, _ = run(capsys, "analyze", rex_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["layers"][2]["configs"] == 4


def test_cost_scopes(capsys, rex_file):
    code, out, _ = run(capsys, "cost", rex_file, "--scope", "table6")
    assert code == 0
    assert "1024" in out and "1008" in out and "8.1k" in out
    code, out, _ = run(capsys, "cost", rex_file, "--scope", "parallel")
    assert code == 0
    assert "6.0k" in out


def test_sweep_matches_reference(capsys, sweep_geometry_file):
    code, out, _ = run(capsys, "sweep", sweep_geometry_file, "--layer", "0",
                       "--rates", "8,4,2,1,1/2,1/4,1/8,1/16,1/32")
    assert code == 0
    rows = [l.split() for l in out.splitlines()[1:]]
    assert rows[0][:2] == ["8", "6272"]
    assert rows[-1][-1] == "*"          # stalled row marked


@pytest.mark.parametrize("doc, argv, message", [
    ("rex_file", ["--layer", "C1", "--rates", "8"],
     "C1: input rate 8 is above one pixel per cycle (d_in = 1)"),
    ("rex_file", ["--layer", "C2", "--rates", "8,16"],
     "C2: input rate 16 is above one pixel per cycle (d_in = 8)"),
    ("sweep_geometry_file", ["--layer", "0", "--separable", "--rates", "9"],
     "sweep: input rate 9 is above one pixel per cycle (d_in = 8)"),
], ids=["C1", "C2", "separable"])
def test_sweep_refuses_window_rates_above_one_pixel_per_cycle(
        capsys, request, doc, argv, message):
    # the engine streams at most one stream position per cycle, so a window
    # layer's rate stops at d_in; at 8 the C1 sweep priced 64 KPUs at exit 0
    code, out, err = run(capsys, "sweep", request.getfixturevalue(doc), *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_plan_parallel(capsys, rex_file, tmp_path, residual_doc):
    code, out, _ = run(capsys, "plan", rex_file, "--parallel")
    assert code == 0
    assert "KPU 136" in out and "FCU 10" in out
    merged = tmp_path / "residual.json"
    merged.write_text(json.dumps(residual_doc))
    code, out, _ = run(capsys, "plan", str(merged), "--parallel")
    assert code == 0
    # the merge row has no unit
    assert out.splitlines()[3].split() == [
        "L2", "residual_add", "-", "1", "37", "4"]
    assert "KPU 32  FCU 0  PPU 0" in out


def test_simulate_and_compare(capsys, rex_file):
    code, out, _ = run(capsys, "simulate", rex_file, "--seed", "4")
    assert code == 0
    assert "cycles:" in out
    code, out, _ = run(capsys, "compare", rex_file, "--seed", "4",
                       "--trials", "3")
    assert code == 0
    assert out.splitlines()[:3] == [f"trial {t}: ok" for t in range(3)]
    assert "all 3 trials bit-exact" in out


def test_simulate_with_files(capsys, tmp_path, rex_file):
    spec = running_example()
    weights = gen_network_weights(spec, 9)
    wpath = tmp_path / "w.json"
    wpath.write_text(weights_to_json(weights))
    x = gen_random((24, 24, 1), 10, 8)
    xpath = tmp_path / "x.cft"
    save_tensor(str(xpath), x)
    code, out, _ = run(capsys, "simulate", rex_file,
                       "--weights", str(wpath), "--input", str(xpath))
    assert code == 0
    ref = ref_network(spec, weights, x).reshape(-1).tolist()
    got = json.loads(out.splitlines()[0].split(":", 1)[1])
    assert got == ref


def test_avgpool_needs_no_weights(capsys, tmp_path, avgpool_file):
    # a weights file without the average pool's entry is complete
    spec = parse_network(_avgpool_doc())
    weights = gen_network_weights(spec, 3)
    assert set(weights) == {"L0"}
    code, out, _ = run(capsys, "simulate", avgpool_file, "--seed", "3",
                       "--weights", _write(tmp_path, weights_to_json(weights)),
                       "--format", "json")
    assert code == 0
    x = gen_random((4, 4, 1), 3, 8)
    assert json.loads(out)["outputs"] == \
        ref_network(spec, weights, x).reshape(-1).tolist()


def test_plan_text_lists_stall_warnings(capsys, mbv1_file):
    code, out, _ = run(capsys, "plan", mbv1_file)
    assert code == 0
    warnings = [l for l in out.splitlines() if l.startswith("! ")]
    assert warnings and all("stalls the layer" in l for l in warnings)
    assert any(l.startswith("! avgpool: ") for l in warnings)


def test_corrupt_weights_exit_code(capsys, tmp_path, rex_file):
    bad = tmp_path / "w.json"
    bad.write_text("{broken")
    code, _, err = run(capsys, "simulate", rex_file, "--weights", str(bad))
    assert code == 2
    assert "corrupt" in err


def test_simulate_trace_filter(capsys, rex_file):
    code, out, _ = run(capsys, "simulate", rex_file, "--trace", "F1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["events"]
    assert all("F1" in e["signal"] for e in doc["events"])


def test_simulate_trace_drops_empty_parts(capsys, rex_file):
    # an empty part would match every signal and print every layer's events
    _, alone, _ = run(capsys, "simulate", rex_file, "--trace", "C2")
    code, out, _ = run(capsys, "simulate", rex_file, "--trace", "C2,")
    assert code == 0 and out == alone


@pytest.mark.parametrize("trace, n_events", [("C1.y[0,0]", 1),
                                             ("C1.y[0,0],F1", 11)])
def test_simulate_trace_takes_printed_signal_names(capsys, rex_file, trace,
                                                   n_events):
    # a signal name's comma, inside its brackets, does not split the list
    code, out, _ = run(capsys, "simulate", rex_file, "--trace", trace,
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["events"]) == n_events


def test_trace_command_fc(capsys, rex_file):
    code, out, _ = run(capsys, "trace", rex_file, "--layer", "F1", "--zero")
    assert code == 0
    assert out.splitlines()[0].lstrip().startswith("t")


def test_trace_command_kpu_table(capsys, tmp_path):
    doc = {
        "input": {"height": 5, "width": 5, "channels": 1},
        "layers": [{"kind": "conv", "k": 3, "s": 1, "p": 0, "d_out": 1}],
    }
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "trace", str(path), "--layer", "0", "--zero")
    assert code == 0
    # the y column becomes valid at t = 12 with y_0
    row12 = [l for l in out.splitlines() if l.strip().startswith("12 ")]
    assert row12 and "y_0" in row12[0]


def test_byte_determinism(capsys, rex_file):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "simulate", rex_file, "--seed", "21",
                           "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_compare_detects_divergence(capsys, tmp_path, rex_file, monkeypatch):
    # corrupt the simulator output path to prove compare actually compares
    import flowcnn.cli as cli
    original = cli.simulate_network

    def broken(plan, weights, x, **kw):
        res = original(plan, weights, x, **kw)
        res.outputs[0] = res.outputs[0] + 1
        return res

    monkeypatch.setattr(cli, "simulate_network", broken)
    code, out, _ = run(capsys, "compare", rex_file, "--trials", "2")
    assert code == 1
    assert "MISMATCH" in out
    code, out, _ = run(capsys, "compare", rex_file, "--trials", "2",
                       "--format", "json")
    assert code == 1
    assert json.loads(out) == {"trials": 2, "mismatched": [0, 1]}


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_most_negative_activation_fits(capsys, tmp_path, command):
    # a k=1 max pool passes the 8-bit inputs through, -128 among them; in
    # two's complement -128 fits a signed 8-bit register
    path = tmp_path / "pool.json"
    path.write_text(json.dumps({
        "input": {"height": 8, "width": 8, "channels": 12},
        "layers": [{"kind": "maxpool", "k": 1}]}))
    code, out, err = run(capsys, command, str(path))
    assert (code, err) == (0, "")
    if command == "compare":
        assert "all 10 trials bit-exact" in out
    else:
        assert "-128" in out


@pytest.mark.parametrize("bits", [63, 64])
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_truncate_at_the_widest_activations(capsys, tmp_path, rex_file,
                                            command, bits):
    # 64 bits is the document's limit; truncation must not overflow there
    doc = json.loads(Path(rex_file).read_text())
    doc["quant"]["activation_bits"] = bits
    code, out, err = run(capsys, command, _doc_file(tmp_path, doc),
                         "--truncate")
    assert (code, err) == (0, "")
    assert ("all 10 trials bit-exact" if command == "compare"
            else "cycles:") in out


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_notes_only_commands_offer_no_csv(capsys, rex_file, command):
    with pytest.raises(SystemExit) as exc:
        main([command, rex_file, "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["plan", "--parallel"],
                                  ["cost", "--scope", "parallel"]])
def test_parallel_point_ignores_min_h(capsys, rex_file, argv):
    """The fully parallel point has one neuron per FCU whatever the
    pipeline depth asked of the pipelined plan."""
    code, out, _ = run(capsys, argv[0], rex_file, *argv[1:])
    assert code == 0
    assert run(capsys, argv[0], rex_file, *argv[1:], "--min-h", "4") == \
        (0, out, "")


@pytest.fixture()
def mbv1_file(tmp_path):
    path = tmp_path / "mobilenet025.json"
    path.write_text(json.dumps(serialize_network(mobilenet_v1(0.25))))
    return str(path)


def test_parallel_point_ignores_shared_pointwise(capsys, mbv1_file):
    code, out, _ = run(capsys, "plan", mbv1_file, "--parallel")
    assert code == 0
    assert run(capsys, "plan", mbv1_file, "--parallel",
               "--shared-pointwise") == (0, out, "")


def test_analyze_scaled_model_row_count(capsys, mbv1_file):
    code, out, _ = run(capsys, "analyze", mbv1_file)
    assert code == 0
    rows = [l for l in out.splitlines()[1:] if l and not l.startswith("!")]
    assert len(rows) == 29
    # the low-rate depthwise stages stall and analyze says so
    assert any(l.startswith("!") and "stalls" in l for l in out.splitlines())


def _write(tmp_path, text):
    path = tmp_path / "weights.json"
    path.write_text(text)
    return str(path)


def _weights_file(tmp_path, layer, cut):
    """Running-example weights with one layer's kernels cut to a wrong
    shape, as a weights file."""
    weights = gen_network_weights(running_example(), 0)
    weights[layer]["w"] = cut(weights[layer]["w"])
    return _write(tmp_path, weights_to_json(weights))


@pytest.fixture()
def c1_kernels_3x3(tmp_path):
    # the 5x5 layer C1 given 3x3 kernels
    return _weights_file(tmp_path, "C1", lambda w: w[:, :, :3, :3])


@pytest.fixture()
def c2_kernels_4_out(tmp_path):
    # C2 given 4 output channels' kernels instead of 16
    return _weights_file(tmp_path, "C2", lambda w: w[:4])


@pytest.fixture()
def p1_kernel(tmp_path):
    # the max pool P1 given a kernel, which would run it as a convolution
    weights = gen_network_weights(running_example(), 0)
    doc = json.loads(weights_to_json(weights))
    doc["P1"] = {"w": [[[[1, 1], [1, 1]]] * 8] * 8, "b": None}   # (8, 8, 2, 2)
    return _write(tmp_path, json.dumps(doc))


@pytest.fixture()
def c1_float_kernel(tmp_path):
    return _coerced_c1(tmp_path, 1.5)


@pytest.fixture()
def c1_string_kernel(tmp_path):
    return _coerced_c1(tmp_path, "1")


@pytest.fixture()
def c1_bool_kernel(tmp_path):
    return _coerced_c1(tmp_path, True)


@pytest.fixture()
def c1_bool_among_ints(tmp_path):
    # numpy reads [1, true] as int64: a dtype check alone would pass it
    weights = json.loads(weights_to_json(gen_network_weights(
        running_example(), 0)))
    weights["C1"]["w"][0][0][0][0] = True
    return _write(tmp_path, json.dumps(weights))


def _c1_weight_file(tmp_path, value):
    """Running-example weights with C1's first weight set to value."""
    weights = gen_network_weights(running_example(), 0)
    weights["C1"]["w"][0, 0, 0, 0] = value
    return _write(tmp_path, weights_to_json(weights))


@pytest.fixture()
def c1_weight_128(tmp_path):
    # one step past the declared 8-bit weight_bits; the datapath widths
    # still hold it, so only the file check refuses it
    return _c1_weight_file(tmp_path, 128)


def _coerced_c1(tmp_path, value):
    """Running-example weights whose C1 kernel holds a value that is no
    JSON integer, which int64 conversion would coerce (1.5 to 1)."""
    weights = json.loads(weights_to_json(gen_network_weights(
        running_example(), 0)))
    weights["C1"]["w"] = [[[[value] * 5] * 5]] * 8
    return _write(tmp_path, json.dumps(weights))


def _doc_file(tmp_path, doc):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _avgpool_doc(**extra):
    """conv then a 2x2 average pool A1 on 4x4; extra keys go on A1's row."""
    return {"input": {"height": 4, "width": 4, "channels": 1},
            "layers": [{"kind": "conv", "k": 3, "p": 1, "d_out": 2},
                       dict({"kind": "avgpool", "k": 2, "name": "A1"},
                            **extra)]}


@pytest.fixture()
def avgpool_file(tmp_path):
    return _doc_file(tmp_path, _avgpool_doc())


@pytest.fixture()
def a1_kernel(tmp_path):
    # the average pool A1 given a kernel of 3s, which would triple its output
    spec = parse_network(_avgpool_doc())
    doc = json.loads(weights_to_json(gen_network_weights(spec, 0)))
    doc["A1"] = {"w": [[[3, 3], [3, 3]]] * 2, "b": None}
    return _write(tmp_path, json.dumps(doc))


def _dw_row_file(tmp_path, **markers):
    """A 4x4x2 depthwise layer carrying the kernel and divisor markers that
    lowered average pools were once written back with."""
    return _doc_file(tmp_path, {
        "input": {"height": 4, "width": 4, "channels": 2},
        "layers": [dict({"kind": "dw_conv", "k": 3, "p": 1}, **markers)]})


@pytest.fixture()
def dw_divisor_4(tmp_path):
    return _dw_row_file(tmp_path, post_divisor=4)


@pytest.fixture()
def dw_divisor_text(tmp_path):
    return _dw_row_file(tmp_path, post_divisor="x")


@pytest.fixture()
def dw_constant_divisor_0(tmp_path):
    return _dw_row_file(tmp_path, constant_weights=True, post_divisor=0)


@pytest.fixture()
def dw_constant(tmp_path):
    return _dw_row_file(tmp_path, constant_weights=True)


@pytest.fixture()
def residual_file(tmp_path, residual_doc):
    return _doc_file(tmp_path, residual_doc)


@pytest.fixture()
def ragged_weights(tmp_path):
    return _write(tmp_path, '{"C1": {"w": [[1], [1, 2]], "b": null}}')


@pytest.fixture()
def non_numeric_weights(tmp_path):
    return _write(tmp_path, '{"C1": {"w": "abc"}}')


def _rex_edited(tmp_path, edit):
    """The running-example document after `edit` changed it in place."""
    with open(data_path("running_example.json")) as fh:
        doc = json.load(fh)
    edit(doc)
    return _doc_file(tmp_path, doc)


@pytest.fixture()
def name_list(tmp_path):
    return _rex_edited(tmp_path, lambda d: d["layers"][0].update(name=[1]))


@pytest.fixture()
def name_int(tmp_path):
    return _rex_edited(tmp_path, lambda d: d["layers"][0].update(name=5))


@pytest.fixture()
def name_twice(tmp_path):
    # P1 renamed C1: one weights entry would serve both layers
    return _rex_edited(tmp_path, lambda d: d["layers"][1].update(name="C1"))


@pytest.fixture()
def name_of_default(tmp_path):
    # C1 renamed L1, the default name of the unnamed layer 1
    def edit(doc):
        doc["layers"][0]["name"] = "L1"
        del doc["layers"][1]["name"]
    return _rex_edited(tmp_path, edit)


@pytest.fixture()
def rate_true(tmp_path):
    return _rex_edited(tmp_path, lambda d: d["input"].update(rate=True))


@pytest.fixture()
def rate_float(tmp_path):
    # a float rate would be read as 3602879701896397/2**55; without F1 the
    # plan would go through on it
    def edit(doc):
        doc["input"]["rate"] = 0.1
        doc["layers"].pop()
    return _rex_edited(tmp_path, edit)


@pytest.fixture()
def rate_text(tmp_path):
    return _rex_edited(tmp_path, lambda d: d["input"].update(rate="x"))


@pytest.fixture()
def doc_list(tmp_path):
    return _doc_file(tmp_path, [])


@pytest.fixture()
def layer_row_int(tmp_path):
    return _rex_edited(tmp_path, lambda d: d["layers"].insert(1, 1))


@pytest.fixture()
def input_not_square(tmp_path):
    return _rex_edited(tmp_path, lambda d: d["input"].update(width=23))


@pytest.fixture()
def json_truncated(tmp_path):
    with open(data_path("running_example.json")) as fh:
        return _write(tmp_path, fh.read()[:40])


@pytest.fixture()
def missing_file(tmp_path):
    return str(tmp_path / "missing")


def _tensor_file(tmp_path, shape, first=None):
    """A seeded 8-bit fixture; `first` replaces its first value."""
    path = str(tmp_path / "x.bin")
    x = gen_random(shape, 0, 8)
    if first is not None:
        x[0, 0, 0] = first
    save_tensor(path, x)
    return path


@pytest.fixture()
def input_23x24(tmp_path):
    return _tensor_file(tmp_path, (23, 24, 1))


@pytest.fixture()
def input_two_channels(tmp_path):
    return _tensor_file(tmp_path, (24, 24, 2))


@pytest.fixture()
def input_value_128(tmp_path):
    # one step past the declared 8-bit activation_bits
    return _tensor_file(tmp_path, (24, 24, 1), first=128)


@pytest.fixture()
def internal_input_text(tmp_path):
    return _rex_edited(tmp_path, lambda d: d["layers"].insert(1, {
        "kind": "pw_conv", "d_out": 8, "internal_input": "no"}))


@pytest.fixture()
def internal_input_on_conv(tmp_path):
    # only a pw_conv row may read an internal input; C1 would drop the flag
    return _rex_edited(tmp_path,
                       lambda d: d["layers"][0].update(internal_input=True))


@pytest.fixture()
def f_true(tmp_path):
    # true == 1, the side of the map the fully connected layer reads
    return _doc_file(tmp_path, {
        "input": {"height": 1, "width": 1, "channels": 4},
        "layers": [{"kind": "fc", "f": True, "d_out": 2}]})


def _oversized_window_doc(first):
    """A 2x2 map whose `first` layer's window does not fit, then fc."""
    return {"input": {"height": 2, "width": 2, "channels": 1},
            "layers": [first, {"kind": "fc", "d_out": 4}]}


@pytest.fixture()
def pool_beyond_map(tmp_path):
    # the pool's f_out is 0: the fc layer would be lowered with k = s = 0
    return _doc_file(tmp_path, _oversized_window_doc({"kind": "maxpool",
                                                      "k": 3}))


@pytest.fixture()
def conv_beyond_map(tmp_path):
    return _doc_file(tmp_path, _oversized_window_doc({"kind": "conv", "k": 3,
                                                      "d_out": 2}))


def _slow_conv_doc(rate):
    """A 5x5 conv on a 24x24x1 map fed at `rate`."""
    return {"input": {"height": 24, "width": 24, "channels": 1,
                      "rate": rate},
            "layers": [{"kind": "conv", "k": 5, "p": 2, "d_out": 8}]}


@pytest.fixture()
def input_stamps_wrap(tmp_path):
    # 575 * 10**17 input cycles: int64 wrapped them to a wrong cycle count
    return _doc_file(tmp_path, _slow_conv_doc("1/100000000000000000"))


@pytest.fixture()
def input_rate_beyond_int64(tmp_path):
    # a rate denominator above int64: an OverflowError traceback
    return _doc_file(tmp_path, _slow_conv_doc("1/10000000000000000000"))


@pytest.fixture()
def pace_stamps_wrap(tmp_path):
    # the input stamps fit, but 676 positions at pace 15 * 10**15 do not
    return _doc_file(tmp_path, _slow_conv_doc("1/15000000000000000"))


@pytest.fixture()
def weight_bits_65(tmp_path):
    return _rex_edited(tmp_path, lambda d: d["quant"].update(weight_bits=65))


@pytest.fixture()
def activation_bits_65(tmp_path):
    return _rex_edited(tmp_path,
                       lambda d: d["quant"].update(activation_bits=65))


def _bad(*argv, doc="rex_file", on=None):
    """A bad command line; `on` names the document fixture in the id."""
    name = " ".join(argv)
    return pytest.param(doc, list(argv),
                        id=name if on is None else f"{name} on {on}")


@pytest.mark.parametrize("doc,argv", [
    _bad("trace", "--layer", "99"),
    _bad("trace", "--layer", "-1"),
    _bad("sweep", "--layer", "C1", "--rates", "0"),
    _bad("sweep", "--layer", "C1", "--rates", "-1"),
    _bad("sweep", "--layer", "C2", "--rates", ","),
    _bad("sweep", "--layer", "C2", "--rates", "abc"),
    _bad("sweep", "--layer", "nosuch", "--rates", "1"),
    _bad("simulate", "--trace", ","),
    # only a conv or a depthwise stage with its pointwise partner sweeps:
    # not a pool, a fully connected layer or an unpaired depthwise layer
    _bad("sweep", "--layer", "P1", "--rates", "8"),
    _bad("sweep", "--layer", "F1", "--rates", "1"),
    _bad("sweep", "--layer", "avgpool", "--rates", "1", doc="mbv1_file"),
    _bad("simulate", "--maps", "0"),
    _bad("compare", "--trials", "0"),
    # random generators take non-negative seeds; an FCU at least one stage
    _bad("simulate", "--seed", "-1"),
    _bad("compare", "--trials", "2", "--seed", "-1"),
    _bad("trace", "--layer", "C1", "--seed", "-1"),
    _bad("plan", "--min-h", "0"),
    _bad("cost", "--min-h", "-3"),
    # "@name" stands for the file the fixture `name` writes
    _bad("simulate", "--weights", "@c1_kernels_3x3"),
    _bad("simulate", "--weights", "@c2_kernels_4_out"),
    _bad("simulate", "--weights", "@p1_kernel"),
    _bad("simulate", "--weights", "@ragged_weights"),
    _bad("simulate", "--weights", "@non_numeric_weights"),
    # weights files take JSON integers only
    _bad("simulate", "--weights", "@c1_float_kernel"),
    _bad("simulate", "--weights", "@c1_string_kernel"),
    _bad("simulate", "--weights", "@c1_bool_kernel"),
    _bad("simulate", "--weights", "@c1_bool_among_ints"),
    _bad("simulate", "--weights", "@missing_file"),
    _bad("simulate", "--weights", "@c1_weight_128"),
    # input fixtures that cannot be read or do not match the 24x24x1 input
    _bad("simulate", "--input", "@missing_file"),
    _bad("simulate", "--input", "@input_23x24"),
    _bad("simulate", "--input", "@input_two_channels"),
    _bad("simulate", "--input", "@input_value_128"),
    # an average pool takes no parameters
    _bad("simulate", "--weights", "@a1_kernel", doc="avgpool_file"),
    # a depthwise row carrying the lowering's kernel or divisor
    _bad("compare", "--trials", "2", doc="dw_divisor_4", on="post_divisor 4"),
    _bad("simulate", doc="dw_divisor_text", on="post_divisor x"),
    _bad("compare", "--trials", "2", doc="dw_constant_divisor_0",
         on="constant_weights, post_divisor 0"),
    _bad("compare", "--trials", "2", doc="dw_constant",
         on="constant_weights"),
    # the engine runs straight-line networks only; a pool has no KPU trace
    _bad("simulate", doc="residual_file", on="a residual merge"),
    _bad("compare", doc="residual_file", on="a residual merge"),
    _bad("trace", "--layer", "P1"),
    # network document fields of the wrong type or out of range
    _bad("plan", doc="name_list", on='"name": [1]'),
    _bad("plan", doc="name_int", on='"name": 5'),
    _bad("plan", doc="name_twice", on="two layers named C1"),
    _bad("plan", doc="name_of_default", on="a name equal to a default"),
    _bad("analyze", doc="rate_true", on='"rate": true'),
    _bad("analyze", doc="rate_float", on='"rate": 0.1'),
    _bad("analyze", doc="rate_text", on='"rate": "x"'),
    _bad("plan", doc="doc_list", on="a document that is []"),
    _bad("plan", doc="layer_row_int", on="a layer row that is 1"),
    _bad("plan", doc="input_not_square", on="a 24x23 input"),
    _bad("plan", doc="json_truncated", on="truncated JSON"),
    _bad("plan", doc="internal_input_text", on='"internal_input": "no"'),
    _bad("plan", doc="internal_input_on_conv",
         on='"internal_input": true on a conv'),
    _bad("plan", doc="f_true", on='"f": true'),
    # a window larger than its map, followed by a fully connected layer
    _bad("plan", doc="pool_beyond_map", on="maxpool k=3 on 2x2, then fc"),
    _bad("plan", doc="conv_beyond_map", on="conv k=3 on 2x2, then fc"),
    # cycle stamps that would wrap in int64
    _bad("simulate", doc="input_stamps_wrap", on="input rate 1/10**17"),
    _bad("simulate", doc="input_rate_beyond_int64", on="input rate 1/10**19"),
    _bad("simulate", doc="pace_stamps_wrap", on="input rate 1/(15*10**15)"),
    _bad("simulate", doc="weight_bits_65", on="weight_bits 65"),
    _bad("simulate", doc="activation_bits_65", on="activation_bits 65"),
])
def test_bad_input_exits_2(capsys, request, doc, argv):
    path = request.getfixturevalue(doc)
    args = [request.getfixturevalue(a[1:]) if a.startswith("@") else a
            for a in argv[1:]]
    code, out, err = run(capsys, argv[0], path, *args)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("value", [-129, -128, 127, 128])
@pytest.mark.parametrize("flag", ["--weights", "--input"])
def test_file_values_must_fit_their_declared_width(capsys, tmp_path,
                                                    rex_file, flag, value):
    # [-128, 128) for the running example's 8-bit weights and activations;
    # the refusal names the file, and for weights the layer
    if flag == "--weights":
        path = _c1_weight_file(tmp_path, value)
        blame = f"{path}: layer 'C1' holds {value}, outside [-128, 128) " \
                f"of weight_bits 8"
    else:
        path = _tensor_file(tmp_path, (24, 24, 1), first=value)
        blame = f"{path} holds {value}, outside [-128, 128) of " \
                f"activation_bits 8"
    code, out, err = run(capsys, "simulate", rex_file, flag, path)
    if -128 <= value < 128:
        assert code == 0 and err == ""
    else:
        assert (code, out, err) == (2, "", f"error: {blame}\n")


# Running-example edits that ran at exit 0 although a field was dropped,
# unchecked or unbounded, and the field that the error names
DOCUMENT_MISTAKES = {
    # the stride was dropped: the pointwise layer ran at stride 1
    "pw_conv s=2": ("layers[1].s", lambda d: d["layers"].insert(
        1, {"kind": "pw_conv", "s": 2, "d_out": 8})),
    "fc k=3": ("layers[4].k", lambda d: d["layers"][-1].update(k=3)),
    "conv residual_source": ("layers[0].residual_source",
                             lambda d: d["layers"][0].update(
                                 residual_source=0)),
    # the merge was planned on 7 channels of an 8-channel map
    "residual_add d_out=7": ("layers[1].d_out", lambda d: d["layers"].insert(
        1, {"kind": "residual_add", "residual_source": 0, "d_out": 7})),
    "input typo": ("input.rte", lambda d: d["input"].update(rte="1/2")),
    "quant typo": ("quant.weight_bit",
                   lambda d: d["quant"].update(weight_bit=4)),
    "top-level typo": ("$.qaunt", lambda d: d.update(qaunt={})),
    # planned at 5 * 10**20 KPUs; compare died in numpy with exit 1
    "d_out=10**20": ("layers[0].d_out",
                     lambda d: d["layers"][0].update(d_out=10 ** 20)),
}


@pytest.mark.parametrize("argv", [["plan"], ["compare", "--trials", "1"]],
                         ids=["plan", "compare"])
@pytest.mark.parametrize("field, edit", DOCUMENT_MISTAKES.values(),
                         ids=DOCUMENT_MISTAKES.keys())
def test_document_mistakes_exit_2(capsys, tmp_path, field, edit, argv):
    code, out, err = run(capsys, argv[0], _rex_edited(tmp_path, edit),
                         *argv[1:])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f": {field}: " in err
