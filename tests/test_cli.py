import json

import pytest

from flowcnn.cli import main
from flowcnn.models import mobilenet_v1, running_example
from flowcnn.netspec import serialize_network
from flowcnn.oracle import gen_network_weights, gen_random, save_tensor, \
    weights_to_json


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
    from flowcnn.oracle import ref_network
    ref = ref_network(spec, weights, x).reshape(-1).tolist()
    got = json.loads(out.splitlines()[0].split(":", 1)[1])
    assert got == ref


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


@pytest.fixture()
def mbv1_file(tmp_path):
    path = tmp_path / "mobilenet025.json"
    path.write_text(json.dumps(serialize_network(mobilenet_v1(0.25))))
    return str(path)


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
def ragged_weights(tmp_path):
    return _write(tmp_path, '{"C1": {"w": [[1], [1, 2]], "b": null}}')


@pytest.fixture()
def non_numeric_weights(tmp_path):
    return _write(tmp_path, '{"C1": {"w": "abc"}}')


def _bad(*argv, doc="rex_file"):
    return pytest.param(doc, list(argv), id=" ".join(argv))


@pytest.mark.parametrize("doc,argv", [
    _bad("trace", "--layer", "99"),
    _bad("trace", "--layer", "-1"),
    _bad("sweep", "--layer", "C1", "--rates", "0"),
    _bad("sweep", "--layer", "C1", "--rates", "-1"),
    # only a conv or a depthwise stage with its pointwise partner sweeps:
    # not a pool, a fully connected layer or an unpaired depthwise layer
    _bad("sweep", "--layer", "P1", "--rates", "8"),
    _bad("sweep", "--layer", "F1", "--rates", "1"),
    _bad("sweep", "--layer", "avgpool", "--rates", "1", doc="mbv1_file"),
    _bad("simulate", "--maps", "0"),
    _bad("compare", "--trials", "0"),
    # "@name" stands for the file the fixture `name` writes
    _bad("simulate", "--weights", "@c1_kernels_3x3"),
    _bad("simulate", "--weights", "@c2_kernels_4_out"),
    _bad("simulate", "--weights", "@p1_kernel"),
    _bad("simulate", "--weights", "@ragged_weights"),
    _bad("simulate", "--weights", "@non_numeric_weights"),
])
def test_bad_input_exits_2(capsys, request, doc, argv):
    path = request.getfixturevalue(doc)
    args = [request.getfixturevalue(a[1:]) if a.startswith("@") else a
            for a in argv[1:]]
    code, out, err = run(capsys, argv[0], path, *args)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
