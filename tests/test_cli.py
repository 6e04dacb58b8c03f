import json

import pytest

from olnum.cli import main
from olnum.field import ComplexQuad, RealQuad
from olnum.presets import Preset


@pytest.fixture()
def golden_streams(tmp_path):
    a = tmp_path / "a.ds"
    b = tmp_path / "b.ds"
    a.write_text("0 . 1\n")
    b.write_text("0 . 1\n")
    return str(a), str(b)


def test_mul_golden(capsys, golden_streams):
    a, b = golden_streams
    rc = main(["mul", "--preset", "golden-square", "--digits", "20", a, b])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    tokens = out.split()
    assert tokens[0] == "0" and tokens[1] == "."
    assert len(tokens) == 22
    # X = Y = beta^-5, product digit lands at position 10
    assert tokens[2 + 9] == "1"


def test_div_golden(capsys, tmp_path):
    n = tmp_path / "n.ds"
    d = tmp_path / "d.ds"
    n.write_text("0 . 1\n")
    d.write_text("0 . 0 1\n")  # divisor needs a point shift
    rc = main(["div", "--preset", "golden-square", "--digits", "15", str(n), str(d)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "divisor-shift 1" in captured.err


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.ds"
    bad.write_text("0 , 1\n")
    rc = main(["eval", "--preset", "golden-square", str(bad)])
    assert rc == 1


def test_domain_error_exit_code(capsys, tmp_path):
    n = tmp_path / "n.ds"
    d = tmp_path / "d.ds"
    n.write_text("0 . 1\n")
    d.write_text("0 . 0 0 0 0 0 0 0 0 0 0 0 0 1\n")
    # tiny divisor: below the certified minimum once preprocessed? point shift
    # fixes it, so force --no-preprocess to hit the leading-zero check
    rc = main(["div", "--preset", "golden-square", "--no-preprocess", "--digits", "5", str(n), str(d)])
    assert rc == 2


def test_div_accepts_divisor_prefix_inside_dmin_enclosure(capsys, tmp_path):
    # the prefixes of 0.1(-1)(-1)... fall to golden-square's d_min = 1/beta^2
    # from above; D_18 lies below the enclosure's upper end, not below d_min
    n = tmp_path / "n.ds"
    d = tmp_path / "d.ds"
    n.write_text("0 . 1\n")
    d.write_text("0 . 1" + " -1" * 24 + "\n")
    outs = []
    for flags in ([], ["--no-check"]):
        assert main(["div", "--preset", "golden-square", "--digits", "30", *flags, str(n), str(d)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flags", [[], ["--no-check"]])
@pytest.mark.parametrize("kind", ["mul", "div"])
def test_int_window_bound_enforced(capsys, monkeypatch, golden_streams, kind, flags):
    monkeypatch.setattr(Preset, "max_int_mult" if kind == "mul" else "max_int_div", lambda self: 0)
    a, b = golden_streams
    assert main([kind, "--preset", "golden-square", "--digits", "8", *flags, a, b]) == 2
    assert "window integer part exceeds the preset bound" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["mul", "div"])
def test_negative_digit_count_refused(capsys, golden_streams, kind):
    a, b = golden_streams
    assert main([kind, "--preset", "golden-square", "--digits", "-1", a, b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "digit count must be non-negative" in captured.err


def test_div_rejects_zero_valued_divisor(capsys, tmp_path):
    # golden mean: 0.1(-1)(-1) = beta^-1 - beta^-2 - beta^-3 = 0 with a
    # nonzero first digit, so only the whole divisor shows it
    n = tmp_path / "n.ds"
    d = tmp_path / "d.ds"
    n.write_text("0 . 1\n")
    d.write_text("0 . 1 -1 -1\n")
    rc = main(["div", "--preset", "golden-mean", "--no-preprocess", "--no-check", "--digits", "5", str(n), str(d)])
    assert rc == 2
    assert "divisor evaluates to zero" in capsys.readouterr().err


def test_params_table(capsys):
    rc = main(["params", "--preset", "knuth", "--mode", "div"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "11" in out and "knuth" in out


def test_params_table_golden_shows_override_and_generic(capsys):
    rc = main(["params", "--preset", "golden-square", "--mode", "div"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "preset" in out and "derived" in out


def test_params_eisenstein_frontier(capsys):
    rc = main(["params", "--preset", "eisenstein"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "frontier" in out


# `olnum params` stdout, byte for byte, for every bundled preset and three
# integer presets (one on a non-negative alphabet, one without division)
PARAMS_STDOUT = {
    ("golden-square", None): (
        "system         mode  delta  L  alpha                     d_min                       source\n"
        "golden-square  mult  4      3  -                         -                           preset\n"
        "golden-square  mult  4      4  -                         -                           derived\n"
        "golden-square  div   6      9  1347750661/1000000000000  [0.145898029, 0.145898074]  preset\n"
        "golden-square  div   7      7  1347750661/1000000000000  [0.145898029, 0.145898074]  derived\n"
    ),
    ("golden-square", "mult"): (
        "system         mode  delta  L  alpha  d_min  source\n"
        "golden-square  mult  4      3  -      -      preset\n"
        "golden-square  mult  4      4  -      -      derived\n"
    ),
    ("golden-square", "div"): (
        "system         mode  delta  L  alpha                     d_min                       source\n"
        "golden-square  div   6      9  1347750661/1000000000000  [0.145898029, 0.145898074]  preset\n"
        "golden-square  div   7      7  1347750661/1000000000000  [0.145898029, 0.145898074]  derived\n"
    ),
    ("golden-mean", None): (
        "system       mode  delta  L   alpha                    d_min                         source\n"
        "golden-mean  mult  7      6   -                        -                             derived\n"
        "golden-mean  div   12     13  2082388679/500000000000  [0.0901699141, 0.0901699513]  derived\n"
    ),
    ("golden-mean", "mult"): (
        "system       mode  delta  L  alpha  d_min  source\n"
        "golden-mean  mult  7      6  -      -      derived\n"
    ),
    ("golden-mean", "div"): (
        "system       mode  delta  L   alpha                    d_min                         source\n"
        "golden-mean  div   12     13  2082388679/500000000000  [0.0901699141, 0.0901699513]  derived\n"
    ),
    ("knuth", None): (
        "system  mode  delta  L   alpha                   d_min                       source\n"
        "knuth   mult  9      7   -                       -                           derived\n"
        "knuth   div   11     11  541469639/500000000000  [0.166666667, 0.166666667]  derived\n"
    ),
    ("knuth", "mult"): (
        "system  mode  delta  L  alpha  d_min  source\n"
        "knuth   mult  9      7  -      -      derived\n"
    ),
    ("knuth", "div"): (
        "system  mode  delta  L   alpha                   d_min                       source\n"
        "knuth   div   11     11  541469639/500000000000  [0.166666667, 0.166666667]  derived\n"
    ),
    ("eisenstein", None): (
        "system      mode  delta  L   alpha                     d_min                       source\n"
        "eisenstein  mult  5      7   -                         -                           frontier mu=0.0594038 nu=0.178211\n"
        "eisenstein  mult  6      6   -                         -                           frontier mu=0.10289 nu=0.10289\n"
        "eisenstein  div   7      11  9900626531/1000000000000  [0.322762727, 0.322762734]  frontier mu=0.0468028 nu=0.205006\n"
        "eisenstein  div   8      10  9900626531/1000000000000  [0.322762727, 0.322762734]  frontier mu=0.0810649 nu=0.119736\n"
        "eisenstein  div   10     9   9900626531/1000000000000  [0.322762727, 0.322762734]  frontier mu=0.140409 nu=0.0407065\n"
    ),
    ("eisenstein", "mult"): (
        "system      mode  delta  L  alpha  d_min  source\n"
        "eisenstein  mult  5      7  -      -      frontier mu=0.0594038 nu=0.178211\n"
        "eisenstein  mult  6      6  -      -      frontier mu=0.10289 nu=0.10289\n"
    ),
    ("eisenstein", "div"): (
        "system      mode  delta  L   alpha                     d_min                       source\n"
        "eisenstein  div   7      11  9900626531/1000000000000  [0.322762727, 0.322762734]  frontier mu=0.0468028 nu=0.205006\n"
        "eisenstein  div   8      10  9900626531/1000000000000  [0.322762727, 0.322762734]  frontier mu=0.0810649 nu=0.119736\n"
        "eisenstein  div   10     9   9900626531/1000000000000  [0.322762727, 0.322762734]  frontier mu=0.140409 nu=0.0407065\n"
    ),
    ("base4", None): (
        "system          mode  delta  L  alpha                   d_min                         source\n"
        "integer:4:-2:2  mult  3      2  -                       -                             derived\n"
        "integer:4:-2:2  div   6      5  520833333/500000000000  [0.0833333333, 0.0833333333]  derived\n"
    ),
    ("base4", "mult"): (
        "system          mode  delta  L  alpha  d_min  source\n"
        "integer:4:-2:2  mult  3      2  -      -      derived\n"
    ),
    ("base4", "div"): (
        "system          mode  delta  L  alpha                   d_min                         source\n"
        "integer:4:-2:2  div   6      5  520833333/500000000000  [0.0833333333, 0.0833333333]  derived\n"
    ),
    ("integer:2:-1:1", None): (
        "system          mode  delta  L  alpha                    d_min         source\n"
        "integer:2:-1:1  mult  5      4  -                        -             derived\n"
        "integer:2:-1:1  div   8      8  3645833333/500000000000  [0.25, 0.25]  derived\n"
    ),
    ("integer:2:-1:1", "mult"): (
        "system          mode  delta  L  alpha  d_min  source\n"
        "integer:2:-1:1  mult  5      4  -      -      derived\n"
    ),
    ("integer:2:-1:1", "div"): (
        "system          mode  delta  L  alpha                    d_min         source\n"
        "integer:2:-1:1  div   8      8  3645833333/500000000000  [0.25, 0.25]  derived\n"
    ),
    ("integer:-3:-3:3", None): (
        "system           mode  delta  L  alpha  d_min  source\n"
        "integer:-3:-3:3  mult  4      2  -      -      derived\n"
        "integer:-3:-3:3  div   -      -  -      -      unavailable\n"
    ),
    ("integer:-3:-3:3", "mult"): (
        "system           mode  delta  L  alpha  d_min  source\n"
        "integer:-3:-3:3  mult  4      2  -      -      derived\n"
    ),
    ("integer:-3:-3:3", "div"): (
        "system           mode  delta  L  alpha  d_min  source\n"
        "integer:-3:-3:3  div   -      -  -      -      unavailable\n"
    ),
    ("integer:3:0:3", None): (
        "system         mode  delta  L  alpha                     d_min                       source\n"
        "integer:3:0:3  mult  5      3  -                         -                           derived\n"
        "integer:3:0:3  div   7      7  1736111111/1000000000000  [0.166666667, 0.166666667]  derived\n"
    ),
    ("integer:3:0:3", "mult"): (
        "system         mode  delta  L  alpha  d_min  source\n"
        "integer:3:0:3  mult  5      3  -      -      derived\n"
    ),
    ("integer:3:0:3", "div"): (
        "system         mode  delta  L  alpha                     d_min                       source\n"
        "integer:3:0:3  div   7      7  1736111111/1000000000000  [0.166666667, 0.166666667]  derived\n"
    ),
}


@pytest.mark.parametrize("name,mode", list(PARAMS_STDOUT))
def test_params_stdout_pinned(capsys, name, mode):
    rc = main(["params", "--preset", name] + (["--mode", mode] if mode else []))
    assert rc == 0
    assert capsys.readouterr().out == PARAMS_STDOUT[name, mode]


def test_encode_eval_roundtrip(capsys, tmp_path):
    rc = main(["encode", "--preset", "golden-square", "--value", "2/5", "--digits", "8"])
    assert rc == 0
    stream = capsys.readouterr().out.strip()
    f = tmp_path / "v.ds"
    f.write_text(stream + "\n")
    rc = main(["eval", "--preset", "golden-square", str(f)])
    assert rc == 0
    out = capsys.readouterr().out
    approx = float(out.strip().splitlines()[-1].split()[1])
    assert abs(approx - 0.4) < 1e-3


@pytest.mark.parametrize("value_args", [["--value", "-5/3"], ["--value=-5/3"]])
def test_encode_negative_rational(capsys, value_args):
    rc = main(["encode", "--preset", "golden-square", *value_args, "--digits", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "0 . -1 1 0 0 -1"
    assert captured.err.strip() == "shift 2"


def test_preprocess_chain(capsys, tmp_path):
    f = tmp_path / "d.ds"
    f.write_text("0 . 1 -1 -1 -1 0 -1 1 0 0 1\n")
    rc = main(["preprocess", "--preset", "integer:2:-1:1", str(f)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip() == "0 . 1 0 -1 1 0 0 1"
    assert "shift 3" in captured.err


def test_check_ol_preset(capsys):
    rc = main(["check-ol", "--preset", "knuth"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "pass"


def test_check_ol_custom_failure(capsys, tmp_path):
    sys_file = tmp_path / "sys.json"
    cert_file = tmp_path / "cert.json"
    knuth_sys = {
        "d": 1,
        "base": {"re": 0, "im": 2},
        "alphabet": [0, 1, -1, 2, -2],
        "symbols": ["0", "1", "-1", "2", "-2"],
    }
    sys_file.write_text(json.dumps(knuth_sys))
    cert = {
        "vertices": [
            {"re": {"a": 5, "q": 9}, "im": {"a": -11, "q": 9}},
            {"re": {"a": 5, "q": 9}, "im": {"a": 11, "q": 9}},
            {"re": {"a": -5, "q": 9}, "im": {"a": 11, "q": 9}},
            {"re": {"a": -5, "q": 9}, "im": {"a": -11, "q": 9}},
        ],
        "epsilon": {"a": 1, "q": 2},
        "variant": "single_epsilon",
    }
    cert_file.write_text(json.dumps(cert))
    rc = main(["check-ol", "--system", str(sys_file), "--region", str(cert_file)])
    out = capsys.readouterr().out
    assert rc == 3
    assert out.startswith("fail")


def test_check_ol_custom_pass(capsys, tmp_path):
    sys_file = tmp_path / "sys.json"
    cert_file = tmp_path / "cert.json"
    knuth_sys = {
        "d": 1,
        "base": {"re": 0, "im": 2},
        "alphabet": [0, 1, -1, 2, -2],
        "symbols": ["0", "1", "-1", "2", "-2"],
    }
    sys_file.write_text(json.dumps(knuth_sys))
    cert = {
        "vertices": [
            {"re": {"a": 5, "q": 9}, "im": {"a": -11, "q": 9}},
            {"re": {"a": 5, "q": 9}, "im": {"a": 11, "q": 9}},
            {"re": {"a": -5, "q": 9}, "im": {"a": 11, "q": 9}},
            {"re": {"a": -5, "q": 9}, "im": {"a": -11, "q": 9}},
        ],
        "epsilon": {"a": 1, "q": 18},
        "variant": "single_epsilon",
    }
    cert_file.write_text(json.dumps(cert))
    rc = main(["check-ol", "--system", str(sys_file), "--region", str(cert_file)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "pass"


@pytest.mark.parametrize("case, stdout", [
    ("knuth-eps-1/2", "fail witness=(37/18)+(29/18)i uncovered point in the fattened region\n"),
    ("mu-nu-over-budget", "fail budget |beta|*mu + nu exceeds the covering radius\n"),
    ("mu-nu-small-hexagon",
     "fail witness=((63+1*sqrt(3))/100)+((-1+19*sqrt(3))/100)i uncovered point in the fattened region\n"),
])
def test_check_ol_failure_stdout_pinned(capsys, tmp_path, case, stdout):
    # recorded when the covering check clipped each piece twice per half-plane
    from olnum.presets import load_preset

    preset = load_preset("knuth" if case.startswith("knuth") else "eisenstein")
    cert = preset.cert.to_dict()
    if case == "knuth-eps-1/2":
        cert["epsilon"] = {"a": 1, "q": 2}
    elif case == "mu-nu-over-budget":
        cert.update(mu={"a": 1, "q": 4}, nu={"a": 1, "q": 4})
    else:
        shrunk = preset.cert.region.scale(ComplexQuad(RealQuad(4, 0, 5)))
        cert.update(vertices=shrunk.to_list(), mu={"a": 1, "q": 100}, nu={"a": 1, "q": 100})
    sys_file, cert_file = tmp_path / "sys.json", tmp_path / "cert.json"
    sys_file.write_text(json.dumps(preset.sys.to_dict()))
    cert_file.write_text(json.dumps(cert))
    assert main(["check-ol", "--system", str(sys_file), "--region", str(cert_file)]) == 3
    assert capsys.readouterr().out == stdout


def test_check_ol_rejects_variant_disagreeing_with_mu_nu(capsys, tmp_path):
    from olnum.presets import load_preset

    knuth = load_preset("knuth")
    cert = knuth.cert.to_dict()  # passes check-ol as it stands
    cert.update(variant="single_epsilon", mu={"a": 1, "q": 100}, nu={"a": 1, "q": 100})
    sys_file = tmp_path / "sys.json"
    cert_file = tmp_path / "cert.json"
    sys_file.write_text(json.dumps(knuth.sys.to_dict()))
    cert_file.write_text(json.dumps(cert))
    rc = main(["check-ol", "--system", str(sys_file), "--region", str(cert_file)])
    assert rc == 3
    assert "disagrees" in capsys.readouterr().err


def test_table_golden(capsys):
    rc = main(["table", "--preset", "golden-square"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 243
    assert all("->" in line for line in lines)


def test_mul_trace(capsys, tmp_path, golden_streams):
    a, b = golden_streams
    trace = tmp_path / "trace.csv"
    rc = main(["mul", "--preset", "golden-square", "--digits", "6", "--trace", str(trace), a, b])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "k,digit,w,window,d_window"
    assert len(lines) == 7


def test_custom_system_mul(capsys, tmp_path):
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps({
        "d": 0,
        "base": 2,
        "alphabet": [0, 1, -1],
        "symbols": ["0", "1", "-1"],
    }))
    a = tmp_path / "a.ds"
    a.write_text("0 . 1\n")
    rc = main(["mul", "--system", str(sys_file), "--digits", "14", str(a), str(a)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("0 .")


NONNEG_SYSTEM = {"d": 0, "base": 3, "alphabet": [0, 1, 2, 3], "symbols": ["0", "1", "2", "3"]}


@pytest.fixture()
def nonneg_streams(tmp_path):
    sys_file = tmp_path / "sys.json"
    sys_file.write_text(json.dumps(NONNEG_SYSTEM))
    a = tmp_path / "a.ds"
    b = tmp_path / "b.ds"
    a.write_text("0 . 2 3 1 2\n")
    b.write_text("0 . 1 0 3 3\n")
    return str(sys_file), str(a), str(b)


def test_custom_nonneg_system_mul_matches_preset(capsys, nonneg_streams):
    # base 3 with digits 0..3 multiplies through the certificate's growth
    # phase whether it arrives as a preset or as --system
    sys_file, a, b = nonneg_streams
    assert main(["mul", "--preset", "integer:3:0:3", "--digits", "20", a, b]) == 0
    preset_out = capsys.readouterr().out
    assert main(["mul", "--system", sys_file, "--digits", "20", a, b]) == 0
    assert capsys.readouterr().out == preset_out
    assert preset_out.split()[-8:] != ["0"] * 8


@pytest.mark.parametrize("source", ["preset", "system"])
def test_nonneg_div_refused(capsys, nonneg_streams, source):
    sys_file, a, b = nonneg_streams
    where = ["--preset", "integer:3:0:3"] if source == "preset" else ["--system", sys_file]
    rc = main(["div", *where, "--digits", "12", a, b])
    assert rc == 2
    assert "no growth phase" in capsys.readouterr().err


def test_unknown_preset(capsys):
    rc = main(["params", "--preset", "nope"])
    assert rc == 1
