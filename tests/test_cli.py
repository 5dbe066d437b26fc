import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hdts import io
from hdts.cli import DEFAULT_CONFIG, main
from hdts.errors import ValidationError
from hdts.gboot import simultaneous_ci
from hdts.longrun import plan_blocks, sigma_tilde
from hdts.model import Panel, ProcessSpec, simulate
from hdts.rng import RngContract
from hdts.util import sha256_file

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(path, extra=""):
    path.write_text(DEFAULT_CONFIG + extra)
    return str(path)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_binary_round_trip(tmp_path):
    gen = RngContract(1).derive("io").generator()
    arr = gen.standard_normal((17, 4))
    path = tmp_path / "x.bin"
    io.write_array_binary(path, arr)
    assert np.array_equal(io.read_array_binary(path), arr)
    with open(path, "rb") as f:
        assert f.read(5) == b"HDTS1"


# signed zeros, subnormals and the largest finite doubles, besides any finite draw
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.225073858507201e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_FINITE_ARRAYS = st.tuples(st.integers(1, 20), st.integers(1, 6)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))))


def _same_bits(got, want):
    """Bitwise equality, so that -0.0 and 0.0 differ."""
    return got.shape == want.shape and np.array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(arr=_FINITE_ARRAYS)
@example(arr=RngContract(2).derive("io").generator().standard_normal((9, 3)) * 1e-7)
def test_panel_csv_round_trip(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("panel") / "x.csv"
    io.write_panel_csv(path, arr)
    assert path.read_text().splitlines()[0] == \
        "t," + ",".join(f"x{j + 1}" for j in range(arr.shape[1]))
    assert _same_bits(io.read_panel_any(path), arr)  # %.17g round-trips


@settings(max_examples=60, deadline=None)
@given(arr=_FINITE_ARRAYS)
@example(arr=np.array([[1.0, -2.5], [3.0, 4.125]]))
def test_matrix_csv_round_trip(tmp_path_factory, arr):
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    io.write_matrix_csv(path, arr)
    assert _same_bits(io.read_matrix_csv(path), arr)


def test_binary_trailing_bytes_rejected(tmp_path, capsys):
    path = tmp_path / "x.bin"
    io.write_array_binary(path, np.ones((20, 2)))
    with open(path, "ab") as f:
        f.write(b"junk")
    with pytest.raises(ValidationError, match="4 trailing bytes"):
        io.read_array_binary(path)
    assert main(["ci", "--panel", str(path), "--out", str(tmp_path / "c")]) == 2
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


@pytest.mark.parametrize("shape", [(2 ** 62, 0), (0, 2 ** 63), (2 ** 64 - 1, 0)])
def test_binary_shape_beyond_numpy_limits_exits_2(tmp_path, capsys, shape):
    # an empty payload matches any shape with a zero side, however large the other
    path = tmp_path / "x.bin"
    path.write_bytes(io.MAGIC + struct.pack("<QQ", *shape))
    with pytest.raises(ValidationError, match="exceeds numpy's limits"):
        io.read_array_binary(path)
    assert main(["estimate", "--panel", str(path), "--out", str(tmp_path / "e")]) == 2
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


def test_read_panel_any_opens_the_file_once(tmp_path, capsys, monkeypatch):
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open, raising=False)
    arr = np.array([[0.5, -1.0], [2.0, 3.25], [-0.125, 1e-300]])
    csv_path = tmp_path / "x.csv"
    io.write_panel_csv(csv_path, arr)
    crlf_path = tmp_path / "crlf.csv"
    crlf_path.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n"))
    bin_path = tmp_path / "x.bin"
    io.write_array_binary(bin_path, arr)
    for path in (csv_path, crlf_path, bin_path):
        opened.clear()
        assert _same_bits(io.read_panel_any(path), arr)
        assert opened == [path]
    assert csv_path.read_bytes()[:5] != io.MAGIC
    # an HDTS1 file cut in its header or in its payload exits 2
    full = bin_path.read_bytes()
    for cut, what in ((12, "truncated header"), (len(full) - 3, "truncated payload")):
        bad = tmp_path / f"cut{cut}.bin"
        bad.write_bytes(full[:cut])
        with pytest.raises(ValidationError, match=what):
            io.read_panel_any(bad)
        assert main(["ci", "--panel", str(bad), "--out", str(tmp_path / "c")]) == 2
        body = json.loads(capsys.readouterr().err)
        assert body["type"] == "validation" and what in body["error"]


def _per_cell_csv(header, columns):
    """The per-cell CSV formatter the columnar one replaced: %.17g for each
    float cell, str for any other; a non-list column repeats on every row."""
    n = next(len(col) for col in columns if isinstance(col, list))
    cols = [col if isinstance(col, list) else [col] * n for col in columns]
    lines = [",".join(header) + "\n"]
    for row in zip(*cols):
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return "".join(lines)


_FLOAT_CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                     -2.2250738585072e-308, np.float64(-0.0)]))
_OTHER_CELLS = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.integers(2 ** 53, 2 ** 64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans(),
    st.text(st.sampled_from("ab{}:.!0x"), max_size=6),
    st.sampled_from(["{", "}", "{}", "{0}", "{:.17g}", "}{"]))
_ANY_CELL = st.one_of(_FLOAT_CELLS, _OTHER_CELLS)


def _csv_columns(n):
    column = st.one_of(st.lists(_FLOAT_CELLS, min_size=n, max_size=n),
                       st.lists(_OTHER_CELLS, min_size=n, max_size=n),
                       st.lists(_ANY_CELL, min_size=n, max_size=n),
                       _ANY_CELL)
    return st.tuples(st.lists(_ANY_CELL, min_size=n, max_size=n),
                     st.lists(column, max_size=6)).map(lambda t: [t[0], *t[1]])


@settings(max_examples=200, deadline=None)
@given(columns=st.integers(0, 8).flatmap(_csv_columns), first=st.integers(0, 6))
@example(columns=[[1.5, 2.0], "x{0}}", 2 ** 60, [np.float64(-0.0), 7]], first=1)
def test_columnar_csv_equals_per_cell_formatter(tmp_path_factory, columns, first):
    # the list column may sit anywhere, after scalar columns too
    columns.insert(min(first, len(columns)), columns.pop(0))
    names = [f"c{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    io.write_rows_csv(path, dict(zip(names, columns)))
    assert path.read_text() == _per_cell_csv(names, columns)


def test_array_csv_spanning_several_write_blocks(tmp_path):
    # 1500 rows of 101 cells are formatted in three blocks of rows
    data = RngContract(3).derive("io").generator().standard_normal((1500, 100))
    data[::7, 3] = -0.0
    io.write_panel_csv(tmp_path / "p.csv", data)
    names = ["t"] + [f"x{j + 1}" for j in range(100)]
    # compared as lists of lines, which pytest reports without a long text diff
    assert (tmp_path / "p.csv").read_text().splitlines() == \
        _per_cell_csv(names, [list(range(1, 1501)), *data.T.tolist()]).splitlines()
    io.write_matrix_csv(tmp_path / "m.csv", data)
    assert (tmp_path / "m.csv").read_text().splitlines() == \
        _per_cell_csv(["x"], data.T.tolist()).splitlines()[1:]


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------

def test_print_defaults(capsys):
    assert main(["--print-defaults"]) == 0
    out = capsys.readouterr().out
    assert "[process]" in out and "family = linear" in out


def _run_fresh(argv, cwd):
    """`hdts argv` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "hdts.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _output_bytes(base, suffix):
    """Bytes of a run's CSV and sidecar, and its manifest without the time."""
    man = json.loads(Path(f"{base}.manifest.json").read_text())
    man.pop("created_utc")
    return (Path(f"{base}.{suffix}.csv").read_bytes(),
            Path(f"{base}.{suffix}.json").read_bytes(), man)


def test_cached_parser_carries_no_state_between_calls(tmp_path):
    panel = tmp_path / "panel.bin"
    spec = ProcessSpec("linear", p=3, alpha=1.0, K=10, h=1, rho=0.3)
    io.write_array_binary(panel, simulate(spec, 120, RngContract(6)).data)
    null = tmp_path / "null.csv"
    io.write_matrix_csv(null, np.eye(3))
    seeded = ["--seed", "5", "--threads", "2"]
    # each second call leaves out the flags, global and own, of the one before
    calls = [(seeded, "covtest", ["--null", str(null)]), ([], "covtest", []),
             (seeded, "ci", ["--M", "5"]), ([], "ci", [])]
    for i, (global_flags, command, flags) in enumerate(calls):
        argv = [*global_flags, command, "--panel", str(panel), "--B", "1000", *flags]
        # the same base name in two directories keeps the manifests comparable
        assert main(argv + ["--out", str(tmp_path / "in" / str(i) / "r")]) == 0
        fresh = _run_fresh(argv + ["--out", str(tmp_path / "fresh" / str(i) / "r")], tmp_path)
        assert fresh.returncode == 0, fresh.stderr
        assert _output_bytes(tmp_path / "in" / str(i) / "r", command) == \
            _output_bytes(tmp_path / "fresh" / str(i) / "r", command)


def test_simulate_matches_library_bit_exactly(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini")
    out = tmp_path / "runs" / "panel"
    assert main(["--seed", "9", "simulate", "--config", cfg,
                 "--out", str(out)]) == 0
    spec = ProcessSpec("linear", p=5, alpha=1.0, K=200, h=0, rho=0.0)
    want = simulate(spec, 1000, RngContract(9)).data
    assert np.array_equal(io.read_array_binary(out.with_suffix(".bin")), want)
    assert np.array_equal(io.read_panel_any(out.with_suffix(".csv")), want)
    manifest = json.loads((out.parent / "panel.manifest.json").read_text())
    assert set(manifest["outputs"]) == {"panel.csv", "panel.bin"}


def test_simulate_dotted_out_keeps_each_runs_files(tmp_path):
    # --out is a base path: a dot in it is kept, not replaced by .csv/.bin
    cfg = write_config(tmp_path / "cfg.ini")
    out = tmp_path / "out"
    for seed, name in (("1", "run.v1"), ("2", "run.v2")):
        assert main(["--seed", seed, "simulate", "--config", cfg,
                     "--out", str(out / name)]) == 0
    data = sorted(p.name for p in out.iterdir() if not p.name.endswith(".manifest.json"))
    assert data == ["run.v1.bin", "run.v1.csv", "run.v2.bin", "run.v2.csv"]
    for name in ("run.v1", "run.v2"):
        man = json.loads((out / f"{name}.manifest.json").read_text())
        assert man["outputs"] == {f: sha256_file(out / f)
                                  for f in (f"{name}.csv", f"{name}.bin")}


def test_simulate_rerun_reproduces_digests(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name / "panel"
        assert main(["--seed", "4", "simulate", "--config", cfg,
                     "--out", str(out)]) == 0
        man = json.loads((out.parent / "panel.manifest.json").read_text())
        outs.append(man["outputs"])
    assert outs[0] == outs[1]


def test_estimate_and_ci_match_library(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini")
    out = tmp_path / "panel"
    main(["--seed", "3", "simulate", "--config", cfg, "--out", str(out)])
    assert main(["estimate", "--panel", str(out.with_suffix(".bin")),
                 "--M", "8", "--out", str(tmp_path / "est")]) == 0
    data = io.read_array_binary(out.with_suffix(".bin"))
    want = sigma_tilde(Panel.from_data(data), plan_blocks(1000, 8)).sigma
    got = io.read_array_binary(tmp_path / "est.sigma.bin")
    assert np.array_equal(got, want)

    assert main(["--seed", "11", "ci", "--panel", str(out.with_suffix(".csv")),
                 "--theta", "0.9", "--B", "2000",
                 "--out", str(tmp_path / "ci")]) == 0
    side = json.loads((tmp_path / "ci.ci.json").read_text())
    rep = simultaneous_ci(Panel.from_data(data), 0.9, None, 2000, RngContract(11))
    assert side["chi"] == rep.chi
    rows = (tmp_path / "ci.ci.csv").read_text().splitlines()
    assert rows[0] == "j,mu_hat,lo,hi,sigma_tilde_jj"
    first = rows[1].split(",")
    assert float(first[1]) == rep.mu_hat[0]


def test_covtest_cli(tmp_path):
    cfg = write_config(tmp_path / "cfg.ini")
    out = tmp_path / "panel"
    main(["--seed", "3", "simulate", "--config", cfg, "--out", str(out)])
    assert main(["--seed", "2", "covtest", "--panel", str(out.with_suffix(".bin")),
                 "--out", str(tmp_path / "ct")]) == 0
    lines = (tmp_path / "ct.covtest.csv").read_text().splitlines()
    assert lines[0] == "j,k,gamma_hat,stat,threshold,flag"
    assert len(lines) == 1 + 15


def test_validation_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(DEFAULT_CONFIG.replace("theta1 = 0.3", "theta1 = 1.5")
                   .replace("family = linear", "family = threshold-ar"))
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    body = json.loads(err)
    assert body["type"] == "validation" and "theta1" in body["error"]

    rc = main(["ci", "--panel", str(tmp_path / "missing.csv")])
    assert rc == 2

    cfg = write_config(tmp_path / "cfg.ini")
    out = tmp_path / "panel"
    main(["--seed", "3", "simulate", "--config", cfg, "--out", str(out)])
    rc = main(["estimate", "--panel", str(out.with_suffix(".bin")), "--M", "5000"])
    assert rc == 2
    rc = main(["ci", "--panel", str(out.with_suffix(".bin")), "--theta", "1.5"])
    assert rc == 2


def test_unallocatable_size_exit_code(tmp_path, capsys):
    # (n + K) x p innovations at this n need about 4 TiB, which numpy refuses
    cfg = tmp_path / "huge.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("n = 1000", "n = 99999999999"))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    body = json.loads(capsys.readouterr().err)
    assert rc == 2 and body["type"] == "validation"
    assert "allocate" in body["error"]
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("family,key,value", [
    ("threshold-ar", "theta1", "nan"), ("threshold-ar", "theta2", "nan"),
    ("linear", "alpha", "nan"), ("linear", "alpha", "inf"),
])
def test_non_finite_process_parameter_exit_code(tmp_path, capsys, family, key, value):
    cfg = tmp_path / "cfg.ini"
    text = DEFAULT_CONFIG.replace("family = linear", f"family = {family}")
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    body = json.loads(capsys.readouterr().err)
    assert rc == 2 and body["type"] == "validation"
    assert key in body["error"]
    assert not list(tmp_path.glob("x*"))


def _bad_csv_exit(tmp_path, capsys, argv, where):
    rc = main(argv + ["--out", str(tmp_path / "o")])
    body = json.loads(capsys.readouterr().err)
    assert rc == 2 and body["type"] == "validation"
    assert where in body["error"]


def test_ragged_panel_csv_exit_code(tmp_path, capsys):
    bad = tmp_path / "ragged.csv"
    bad.write_text("t,x1,x2\n1,0.5,1.0\n2,0.25\n3,1.0,2.0\n")
    _bad_csv_exit(tmp_path, capsys, ["ci", "--panel", str(bad)],
                  f"{bad}, line 3")


def test_non_numeric_panel_csv_exit_code(tmp_path, capsys):
    bad = tmp_path / "text.csv"
    bad.write_text("t,x1,x2\n1,0.5,1.0\n2,0.25,abc\n")
    _bad_csv_exit(tmp_path, capsys, ["estimate", "--panel", str(bad)],
                  f"{bad}, line 3")


def test_null_csv_with_header_exit_code(tmp_path, capsys):
    panel = tmp_path / "panel.bin"
    io.write_array_binary(
        panel, RngContract(4).derive("null").generator().standard_normal((200, 2)))
    null = tmp_path / "null.csv"
    null.write_text("x1,x2\n1,0\n0,1\n")
    _bad_csv_exit(tmp_path, capsys,
                  ["covtest", "--panel", str(panel), "--null", str(null)],
                  f"{null}, line 1")


def test_null_csv_with_non_finite_entries_exit_code(tmp_path, capsys):
    panel = tmp_path / "panel.bin"
    io.write_array_binary(
        panel, RngContract(4).derive("null").generator().standard_normal((300, 2)))
    null = tmp_path / "null.csv"
    null.write_text("1,nan\nnan,1\n")
    _bad_csv_exit(tmp_path, capsys,
                  ["covtest", "--panel", str(panel), "--null", str(null)],
                  "non-finite")
    assert not (tmp_path / "o.covtest.json").exists()


def test_asymmetric_null_exit_code(tmp_path, capsys):
    panel = tmp_path / "panel.bin"
    io.write_array_binary(
        panel, RngContract(4).derive("null").generator().standard_normal((300, 2)))
    null = tmp_path / "null.csv"
    null.write_text("1,0\n5,1\n")
    _bad_csv_exit(tmp_path, capsys,
                  ["covtest", "--panel", str(panel), "--null", str(null)],
                  "not symmetric")
    assert not (tmp_path / "o.covtest.json").exists()


def test_panel_without_rows_or_columns_exit_code(tmp_path, capsys):
    io.write_array_binary(tmp_path / "no_cols.bin", np.zeros((10, 0)))
    io.write_array_binary(tmp_path / "no_rows.bin", np.zeros((0, 3)))
    (tmp_path / "no_cols.csv").write_text("t\n1\n2\n3\n")
    (tmp_path / "no_rows.csv").write_text("t,x1,x2\n")
    for name in ("no_cols.bin", "no_rows.bin", "no_cols.csv", "no_rows.csv"):
        for command in ("estimate", "ci", "covtest"):
            rc = main([command, "--panel", str(tmp_path / name),
                       "--out", str(tmp_path / "o")])
            body = json.loads(capsys.readouterr().err)
            assert (rc, body["type"]) == (2, "validation"), (name, command)


def test_numerical_exit_code(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("t,x1\n1,nan\n2,1.0\n")
    rc = main(["estimate", "--panel", str(bad)])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["type"] == "numerical"


@pytest.mark.parametrize("first", [
    [1e308, 1e308, -1e308, -1e308] * 2,    # the block sums overflow
    [1e160, 1e160, -1e160, -1e160] * 2,    # sigma overflows, the block sums do not
], ids=["block-sums", "sigma"])
def test_non_finite_estimate_exit_code(tmp_path, capsys, first):
    panel = tmp_path / "panel.csv"
    io.write_panel_csv(panel, np.column_stack([first, np.arange(1.0, 9.0)]))
    rc = main(["estimate", "--panel", str(panel), "--M", "2", "--out", str(tmp_path / "est")])
    body = json.loads(capsys.readouterr().err)
    assert (rc, body["type"]) == (3, "numerical")
    assert not list(tmp_path.glob("est.sigma.*"))
    # a panel is checked in one order: a finite estimate, then theta and B
    for command in ("ci", "covtest"):
        for bad in ([], ["--theta", "1.5"], ["--B", "10"]):
            rc = main([command, "--panel", str(panel), "--M", "2", *bad,
                       "--out", str(tmp_path / command)])
            body = json.loads(capsys.readouterr().err)
            assert (rc, body["type"]) == (3, "numerical"), (command, bad)


def test_degenerate_columns_are_named_as_pairs_by_covtest_and_columns_by_ci(
        tmp_path, capsys):
    data = RngContract(3).derive("flat").generator().standard_normal((200, 3))
    data[:, 1] = 2.5                   # column 2, so pair (2, 2), is constant
    panel = tmp_path / "panel.csv"
    io.write_panel_csv(panel, data)
    prefix = "degenerate coordinate in the long-run estimate: the requirement " \
        "min_j sigma_jj >= c fails for "
    suffix = ", whose block sums are at rounding level"
    for command, names in (("covtest", "pair(s) [(2, 2)]"), ("ci", "column(s) [2]")):
        rc = main([command, "--panel", str(panel), "--out", str(tmp_path / command)])
        body = json.loads(capsys.readouterr().err)
        assert (rc, body["type"]) == (2, "validation")
        assert body["error"] == prefix + names + suffix


@pytest.mark.parametrize("first", [[1e308] * 8, [1e308, 1e308, -1e308, -1e308] * 2],
                         ids=["plus", "plus-minus"])
@pytest.mark.parametrize("command", ["estimate", "ci", "covtest"])
def test_overflow_stderr_is_one_json_body(tmp_path, command, first):
    # numpy must not warn before the error body: stderr is exactly one JSON line
    panel = tmp_path / "panel.bin"
    io.write_array_binary(panel, np.column_stack([first, np.arange(1.0, 9.0)]))
    out = _run_fresh([command, "--panel", str(panel), "--M", "2",
                      "--out", str(tmp_path / "o")], tmp_path)
    assert out.returncode == 3
    assert out.stderr.count("\n") == 1
    assert json.loads(out.stderr)["type"] == "numerical"


@pytest.mark.parametrize("kind, key", [
    ("student-t", "df"), ("symmetric-pareto", "tail_index"), ("symmetric-pareto", "u0"),
])
def test_non_finite_innovation_parameter_exit_code(tmp_path, capsys, kind, key):
    cfg = tmp_path / "cfg.ini"
    text = DEFAULT_CONFIG.replace("kind = standard-gaussian", f"kind = {kind}")
    cfg.write_text(re.sub(rf"^{key} = .*$", f"{key} = inf", text, count=1, flags=re.M))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    body = json.loads(capsys.readouterr().err)
    assert rc == 2 and body["type"] == "validation"
    assert not list(tmp_path.glob("x*"))


def test_symmetric_pareto_huge_u0_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("kind = standard-gaussian", "kind = symmetric-pareto")
                                 .replace("u0 = 7.38905609893065", "u0 = 1e200"))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    err = json.loads(capsys.readouterr().err)
    assert (rc, err["type"]) == (2, "validation") and "u0" in err["error"]
    assert not list(tmp_path.glob("x*"))


@pytest.mark.parametrize("text", [b"[process]\nfamily = li%near\n",
                                  b"[process]\nfamily = li\xffnear\n"],
                         ids=["percent-sign", "not-utf8"])
def test_config_with_a_percent_sign_or_not_utf8_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.ini"
    cfg.write_bytes(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("n_perm = 0", "n_perm = 0\nn_gird = 5"))
    rc = main(["experiment", "--config", str(cfg),
               "--out-dir", str(tmp_path / "d")])
    assert rc == 2
    assert "n_gird" in json.loads(capsys.readouterr().err)["error"]


# kind -> (tiny config over the defaults, number of cells)
_TINY_EXPERIMENTS = {
    "coverage": ("[process]\np = 4\nK = 20\n[experiment]\nkind = coverage\nR = 200\n"
                 "B = 1000\nn = 100\np = 4\nM = 0,2\ntheta = 0.9,0.95\n", 4),
    "ga": ("[process]\nfamily = iid\np = 4\n[experiment]\nkind = ga\nR = 150\n"
           "n = 100\nn_perm = 50\n", 1),
    "rate": ("[process]\np = 4\nK = 20\nh = 1\n[experiment]\nkind = rate\nR = 6\n"
             "n_grid = 64,128,256\n", 3),
    "mdep": ("[process]\np = 4\nK = 20\n[experiment]\nkind = mdep\nR = 6\nn = 128\n"
             "m_grid = 2,4,8\n", 1),
    "counterexample": ("[experiment]\nkind = counterexample\nR = 20\nn = 64\n"
                       "p_grid = 4,16\n", 2),
}


@pytest.mark.parametrize("kind", sorted(_TINY_EXPERIMENTS))
def test_experiment_cli_reproducible_across_threads(tmp_path, kind):
    body, n_cells = _TINY_EXPERIMENTS[kind]
    cfg = tmp_path / "exp.ini"
    cfg.write_text(body)
    outs = []
    for threads in ("1", "8"):
        out_dir = tmp_path / f"d{threads}"
        assert main(["--seed", "21", "--threads", threads, "experiment",
                     "--config", str(cfg), "--out-dir", str(out_dir),
                     "--dump-ecdf"]) == 0
        meta = json.loads((out_dir / "report.meta.json").read_text())
        runtimes = meta["cell_runtimes_sec"]
        assert len(runtimes) == n_cells
        assert all(math.isfinite(t) and t >= 0.0 for t in runtimes)
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()
                 if p.name == "report.csv" or p.name.endswith(".ecdf.csv")}
        outs.append((files, meta["meta"]))
    assert outs[0] == outs[1]
    ecdfs = [name for name in outs[0][0] if name.endswith(".ecdf.csv")]
    assert len(ecdfs) == {"ga": 1, "counterexample": 2}.get(kind, 0)


def test_experiment_unknown_kind(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("kind = coverage", "kind = frobnicate"))
    rc = main(["experiment", "--config", str(cfg),
               "--out-dir", str(tmp_path / "d")])
    assert rc == 2
    assert "frobnicate" in json.loads(capsys.readouterr().err)["error"]


def test_check_conditions_cli(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini")
    rc = main(["check-conditions", "--config", cfg, "--q", "8", "--alpha", "1.5",
               "--n", "4096", "--out", str(tmp_path / "report.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["regime"] == "weaker"
    assert {"L1", "L2", "W1", "W2", "N1", "N2"} <= set(rep)
    # boundary alpha errors out
    rc = main(["check-conditions", "--config", cfg, "--q", "8",
               "--alpha", str(0.5 - 1.0 / 8.0), "--n", "4096"])
    assert rc == 2
    capsys.readouterr()
    # sub-exponential without nu errors out
    rc = main(["check-conditions", "--config", cfg, "--n", "4096",
               "--sub-exponential"])
    assert rc == 2


def test_check_conditions_out_writes_a_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.ini")
    argv = ["check-conditions", "--config", cfg, "--n", "4096"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "sub" / "report.json"
    assert main(["--seed", "5"] + argv + ["--out", str(out)]) == 0
    assert out.read_text() == stdout
    man = json.loads((tmp_path / "sub" / "report.json.manifest.json").read_text())
    assert man["command"] == "check-conditions" and man["base_seed"] == 5
    assert man["outputs"] == {"report.json": sha256_file(out)}
    assert man["config_digest"] == sha256_file(cfg)


_PROCESS_TAIL = "theta1 = 0.3\ntheta2 = 0.3\nburn_in = 1024\n\n[innovation]\n"


def test_spec_config_round_trip(tmp_path):
    from hdts.cli import build_spec, _load_config
    from hdts.model import InnovationLaw
    iid = "[process]\nfamily = iid\np = 3\nalpha = 1.0\nK = 0\nh = 0\nrho = 0.0\n"
    cases = [
        ("[process]\nfamily = linear\np = 7\nalpha = 1.5\nK = 33\nh = 2\nrho = 0.4\n"
         + _PROCESS_TAIL + "kind = standard-gaussian\n\n[simulate]\nn = 12\n",
         ProcessSpec("linear", p=7, alpha=1.5, K=33, h=2, rho=0.4)),
        ("[process]\nfamily = threshold-ar\np = 2\nalpha = 1.0\nK = 200\nh = 0\n"
         "rho = 0.0\ntheta1 = -0.4\ntheta2 = 0.7\nburn_in = 64\n\n[innovation]\n"
         "kind = standard-gaussian\n\n[simulate]\nn = 12\n",
         ProcessSpec("threshold-ar", p=2, theta1=-0.4, theta2=0.7, burn_in=64)),
        (iid + _PROCESS_TAIL + "kind = symmetric-pareto\ntail_index = 4.5\n"
         "u0 = 7.3890560989306495\nbody = shell\n\n[simulate]\nn = 12\n",
         ProcessSpec("iid", p=3,
                     innovation=InnovationLaw.symmetric_pareto(4.5, body="shell"))),
        (iid + _PROCESS_TAIL + "kind = student-t\ndf = 6.5\n\n[simulate]\nn = 12\n",
         ProcessSpec("iid", p=3, innovation=InnovationLaw.student_t(6.5))),
    ]
    for i, (text, spec) in enumerate(cases):
        path = tmp_path / f"s{i}.ini"
        path.write_text(text)
        assert build_spec(_load_config(path)) == spec


def test_minimal_iid_config_and_zero_panel(tmp_path):
    cfg = tmp_path / "iid.ini"
    cfg.write_text("[process]\nfamily = iid\np = 3\n\n[simulate]\nn = 6\n")
    out = tmp_path / "panel"
    assert main(["--seed", "1", "simulate", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3" and len(lines) == 7

    zero = tmp_path / "zero.csv"
    io.write_panel_csv(zero, np.zeros((12, 2)))
    assert main(["estimate", "--panel", str(zero),
                 "--out", str(tmp_path / "zest")]) == 0
    got = io.read_array_binary(tmp_path / "zest.sigma.bin")
    assert np.all(got == 0.0)


def test_experiment_smoke_config_under_60s(tmp_path):
    import time
    body = DEFAULT_CONFIG.replace("family = linear", "family = iid") \
                         .replace("n = 500", "n = 200") \
                         .replace("p = 20", "p = 8")
    cfg = tmp_path / "smoke.ini"
    cfg.write_text(body)
    t0 = time.perf_counter()
    assert main(["--seed", "3", "experiment", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert time.perf_counter() - t0 < 60.0
    lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert len(lines) == 2  # one cell
    meta = json.loads((tmp_path / "out" / "report.meta.json").read_text())
    assert len(meta["cell_runtimes_sec"]) == 1


def test_counterexample_cli_with_ecdf_dump(tmp_path):
    body = DEFAULT_CONFIG.replace("kind = coverage", "kind = counterexample") \
                         .replace("R = 200", "R = 120") \
                         .replace("n = 500", "n = 32") \
                         .replace("p_grid = 64,512,4096", "p_grid = 8,32")
    cfg = tmp_path / "ce.ini"
    cfg.write_text(body)
    assert main(["--seed", "5", "experiment", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out"), "--dump-ecdf"]) == 0
    report = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert report[0].startswith("p,n,R,tail_index,body,ks")
    assert (tmp_path / "out" / "ctrex_p8.ecdf.csv").exists()
    ecdf = (tmp_path / "out" / "ctrex_p8.ecdf.csv").read_text().splitlines()
    assert ecdf[0] == "u,ecdf_sample,ecdf_gauss"


def test_check_conditions_profile_round_trip(tmp_path):
    from hdts.depmeasure import closed_form_profile
    prof = closed_form_profile(ProcessSpec("linear", p=4, alpha=1.5, K=30),
                               8.0, 1.5)
    io.write_json(tmp_path / "prof.json", prof.to_json_dict())
    rc = main(["check-conditions", "--profile", str(tmp_path / "prof.json"),
               "--n", "2048", "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["p"] == 4.0 and rep["q"] == 8.0


def test_estimate_rejects_negative_block_length(tmp_path, capsys):
    panel = tmp_path / "x.bin"
    io.write_array_binary(panel, np.ones((30, 2)))
    rc = main(["estimate", "--panel", str(panel), "--M", "-3",
               "--out", str(tmp_path / "est")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["type"] == "validation"
    assert not (tmp_path / "est.sigma.csv").exists()


def test_experiment_unknown_kind_creates_no_out_dir(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("kind = coverage", "kind = frobnicate"))
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "d").exists()


def test_check_conditions_requires_nu_before_building_profile(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("profile built before --nu was checked")
    monkeypatch.setattr("hdts.cli.closed_form_profile", fail)
    cfg = write_config(tmp_path / "cfg.ini")
    rc = main(["check-conditions", "--config", cfg, "--n", "4096", "--sub-exponential"])
    assert rc == 2
    assert "--nu" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("kind", ["rate", "mdep"])
def test_experiment_cli_matches_library(tmp_path, kind):
    from hdts.cli import _load_config, build_spec
    from hdts.experiments import mdep_rate_check, rate_experiment
    body = DEFAULT_CONFIG.replace("kind = coverage", f"kind = {kind}") \
                         .replace("K = 200", "K = 20") \
                         .replace("R = 200", "R = 6") \
                         .replace("n = 500", "n = 128") \
                         .replace("n_grid = 512,1024,2048,4096", "n_grid = 64,128,256") \
                         .replace("m_grid = 16,32,64,128,256", "m_grid = 2,4,8")
    cfg = tmp_path / f"{kind}.ini"
    cfg.write_text(body)
    assert main(["--seed", "17", "--threads", "2", "experiment", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    spec = build_spec(_load_config(cfg))
    if kind == "rate":
        res = rate_experiment(spec, [64, 128, 256], 6, RngContract(17), q=8.0)
    else:
        res = mdep_rate_check(spec, 8.0, spec.alpha, [2, 4, 8], 6, RngContract(17), n=128)
    io.write_rows_csv(tmp_path / "lib.csv", io.rows_to_columns(res.rows))
    assert (tmp_path / "out" / "report.csv").read_bytes() == \
        (tmp_path / "lib.csv").read_bytes()


def test_ga_experiment_on_threshold_ar_uses_the_approximate_sigma(tmp_path, monkeypatch):
    import hdts.cli as cli
    real = cli.mc_long_run_sigma

    def short_path(spec, rng=None):
        return real(spec, length=20_000, rng=rng)
    monkeypatch.setattr(cli, "mc_long_run_sigma", short_path)
    cfg = tmp_path / "ga.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("family = linear", "family = threshold-ar")
                                 .replace("kind = coverage", "kind = ga")
                                 .replace("R = 200", "R = 30")
                                 .replace("n = 500", "n = 100"))
    assert main(["--threads", "1", "experiment", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "report.meta.json").read_text())["meta"]
    assert meta["family"] == "threshold-ar"
    assert meta["sigma_oracle"] == "approximate-batched-mean"


def test_every_default_config_key_is_read(tmp_path, monkeypatch):
    import hdts.cli as cli
    get, read = cli._get, set()

    def recording_get(cfg, section, key, conv, what):
        read.add((section, key.lower()))
        return get(cfg, section, key, conv, what)

    monkeypatch.setattr(cli, "_get", recording_get)
    tiny = DEFAULT_CONFIG.replace("family = linear", "family = iid") \
                         .replace("p = 5", "p = 2").replace("n = 1000", "n = 20") \
                         .replace("B = 2000", "B = 1000").replace("n = 500", "n = 50") \
                         .replace("p = 20", "p = 2") \
                         .replace("n_grid = 512,1024,2048,4096", "n_grid = 64,128,256") \
                         .replace("m_grid = 16,32,64,128,256", "m_grid = 2,4,8") \
                         .replace("p_grid = 64,512,4096", "p_grid = 2,4")
    runs = [("simulate", tiny.replace("standard-gaussian", law))
            for law in ("standard-gaussian", "student-t", "symmetric-pareto")]
    runs += [("experiment", tiny.replace("kind = coverage", f"kind = {kind}"))
             for kind in cli._EXPERIMENTS]
    for i, (command, body) in enumerate(runs):
        cfg = tmp_path / f"{i}.ini"
        cfg.write_text(body)
        out = ["--out", str(tmp_path / f"s{i}")] if command == "simulate" else \
            ["--out-dir", str(tmp_path / f"x{i}")]
        assert main(["--threads", "1", command, "--config", str(cfg)] + out) == 0
    known = {(section, key) for section, keys in cli._known_keys().items()
             for key in keys}
    assert read == known


@pytest.mark.parametrize("text_of, where", [
    (lambda good: "{not json", "prof.json"),
    (lambda good: "[1, 2, 3]", "JSON object"),
    (lambda good: '{"q": 8.0}', "alpha"),
    (lambda good: json.dumps({**good, "frobnicate": 1.0}), "frobnicate"),
    (lambda good: json.dumps({**good, "aux": {**good["aux"], "psi_9_0": 1.0}}), "psi_9_0"),
    (lambda good: json.dumps({**good, "Psi_q_alpha": "large"}), "Psi_q_alpha"),
], ids=["not-json", "not-object", "missing-key", "unknown-key", "unknown-aux-key",
        "non-numeric"])
def test_check_conditions_rejects_malformed_profile(tmp_path, capsys, text_of, where):
    from hdts.depmeasure import closed_form_profile
    good = closed_form_profile(ProcessSpec("linear", p=4, alpha=1.5, K=30),
                               8.0, 1.5).to_json_dict()
    path = tmp_path / "prof.json"
    path.write_text(text_of(good))
    rc = main(["check-conditions", "--profile", str(path), "--n", "2048"])
    assert rc == 2
    body = json.loads(capsys.readouterr().err)
    assert body["type"] == "validation" and where in body["error"]


@pytest.mark.parametrize("argv", [
    ["--q", "0"], ["--q", "nan"], ["--q", "-2"], ["--alpha", "inf"], ["--p", "inf"],
], ids=["q=0", "q=nan", "q=-2", "alpha=inf", "p=inf"])
def test_check_conditions_rejects_out_of_range_numbers(tmp_path, capsys, argv):
    cfg = write_config(tmp_path / "cfg.ini")
    rc = main(["check-conditions", "--config", cfg, "--n", "4096"] + argv)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


@pytest.mark.parametrize("kind, runner", [
    ("ga", "ga_distance"), ("mdep", "mdep_rate_check"),
    ("counterexample", "counterexample_demo"),
])
def test_single_n_kinds_reject_an_n_list(tmp_path, monkeypatch, capsys, kind, runner):
    def fail(*args, **kwargs):
        raise AssertionError("replications ran with a list-valued n")
    monkeypatch.setattr(f"hdts.cli.{runner}", fail)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("kind = coverage", f"kind = {kind}")
                                 .replace("n = 500", "n = 100,200"))
    rc = main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    body = json.loads(capsys.readouterr().err)
    assert "[experiment] n" in body["error"] and "not a valid integer" in body["error"]


@pytest.mark.parametrize("kind, old, new", [
    ("rate", "R = 200", "R = 0"), ("rate", "R = 200", "R = -5"),
    ("mdep", "R = 200", "R = 0"), ("mdep", "R = 200", "R = 1"),
    ("mdep", "n = 500", "n = 0"), ("mdep", "m_grid = 16", "m_grid = -1"),
    ("mdep", "m_grid = 16,32,64,128,256", "m_grid = 0,16,32"),
    ("ga", "n_perm = 0", "n_perm = -5"),
    ("mdep", "q = 8.0", "q = 0"), ("mdep", "q = 8.0", "q = -1"),
    ("mdep", "q = 8.0", "q = nan"), ("mdep", "q = 8.0", "q = inf"),
    ("counterexample", "tail_index = 4.0", "tail_index = inf"),
    ("ga", "R = 200", "R = 0"), ("counterexample", "R = 200", "R = 0"),
    ("rate", "n_grid = 512,1024,2048,4096", "n_grid = 512,512,1024"),
    ("mdep", "m_grid = 16,32,64,128,256", "m_grid = 16,16,16"),
], ids=["rate-R=0", "rate-R=-5", "mdep-R=0", "mdep-R=1", "mdep-n=0", "mdep-m=-1",
        "mdep-m=0", "ga-n_perm=-5", "mdep-q=0", "mdep-q=-1", "mdep-q=nan", "mdep-q=inf",
        "counterexample-tail_index=inf", "ga-R=0", "counterexample-R=0",
        "rate-repeated-n", "mdep-repeated-m"])
def test_experiment_rejects_unusable_sizes_before_replicating(tmp_path, monkeypatch, capsys,
                                                               kind, old, new):
    def fail(*args, **kwargs):
        raise AssertionError("replications ran with an unusable size")
    monkeypatch.setattr("hdts.experiments.run_indexed", fail)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("kind = coverage", f"kind = {kind}")
                                 .replace(old, new))
    rc = main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["type"] == "validation"


_NOT_UTF8 = b"t,x1\n1,\xff\xfe0.5\n"


@pytest.mark.parametrize("command", ["estimate", "ci", "covtest", "covtest --null"])
@pytest.mark.parametrize("where", ["row", "header"])
def test_csv_that_is_not_utf8_exits_2(tmp_path, capsys, command, where):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(_NOT_UTF8 if where == "row" else b"t,x\xff1\n1,0.5\n")
    good = tmp_path / "good.bin"
    io.write_array_binary(good, np.arange(40.0).reshape(20, 2) % 7)
    if command == "covtest --null":
        bad.write_bytes(b"1,0,0\n0,\xff1,0\n0,0,1\n" if where == "row" else b"\xfe\n")
        argv = ["covtest", "--panel", str(good), "--null", str(bad)]
    else:
        argv = [command, "--panel", str(bad)]
    rc = main(argv + ["--out", str(tmp_path / "o")])
    body = json.loads(capsys.readouterr().err)
    assert (rc, body["type"]) == (2, "validation") and "UTF-8" in body["error"]
    assert not list(tmp_path.glob("o*"))


# the base profile of the degenerate and extreme check-conditions cases
_PROFILE = {"q": 8.0, "alpha": 1.5, "p": 5, "Psi_q_alpha": 1.0, "Upsilon_q_alpha": 1.0,
            "Linf_norm_q_alpha": 1.0, "Theta_q_alpha": 1.0,
            "aux": {"psi_2_0": 1.0, "psi_2_a": 1.0, "psi_3_0": 1.0, "psi_4_0": 1.0}}
_HUGE_AUX = {k: 1e308 for k in _PROFILE["aux"]}
_SUB_EXP = ["--sub-exponential", "--nu"]
_PROFILE_CASES = {
    "Theta=0": ({"Theta_q_alpha": 0.0}, [], 2),
    "psi_2=0": ({"aux": {**_PROFILE["aux"], "psi_2_0": 0.0, "psi_2_a": 0.0}}, [], 2),
    "Psi<0": ({"Psi_q_alpha": -1.0}, [], 2),
    "Theta<0": ({"Theta_q_alpha": -1.0}, [], 2),
    "Theta=1e308": ({"Theta_q_alpha": 1e308}, [], 3),
    "aux=1e308": ({"aux": _HUGE_AUX}, [], 3),
    "alpha=1e-300": ({"alpha": 1e-300}, [], 3),
    "q=1e308": ({"q": 1e308}, [], 3),
    "Phi_0=0": ({"Phi_psinu_alpha": 1.0, "Phi_psinu_0": 0.0}, _SUB_EXP + ["0.5"], 2),
    "nu<0": ({"Phi_psinu_alpha": 1.0, "Phi_psinu_0": 1.0}, _SUB_EXP + ["-0.5"], 2),
    "nu=1e308": ({"Phi_psinu_alpha": 1.0, "Phi_psinu_0": 1.0}, _SUB_EXP + ["1e308"], 3),
}


@pytest.mark.parametrize("change, flags, code", _PROFILE_CASES.values(), ids=_PROFILE_CASES)
def test_check_conditions_on_degenerate_or_extreme_profiles_exits_cleanly(
        tmp_path, capsys, change, flags, code):
    # norms that are not finite and > 0 and a nu < 0 exit 2; arithmetic
    # that leaves the float range exits 3
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({**_PROFILE, **change}))
    rc = main(["check-conditions", "--profile", str(path), "--n", "2048"] + flags)
    body = json.loads(capsys.readouterr().err)
    assert (rc, body["type"]) == (code, {2: "validation", 3: "numerical"}[code])


@pytest.mark.parametrize("q", ["400", "1000"])
def test_check_conditions_past_the_direct_upsilon_overflow_exits_3(tmp_path, capsys, q):
    # (sum_j c_j^q)^(1/q) overflows here although Upsilon is about 17 or 27:
    # the profile is now finite, and the condition terms overflow
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[process]\nfamily = iid\np = 5\n")
    rc = main(["check-conditions", "--config", str(cfg), "--q", q, "--n", "1000"])
    body = json.loads(capsys.readouterr().err)
    assert (rc, body["type"]) == (3, "numerical")
    assert "condition arithmetic" in body["error"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_1_exit_2(tmp_path, capsys, threads):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[process]\nfamily = iid\np = 2\n[simulate]\nn = 10\n")
    rc = main(["--threads", threads, "simulate", "--config", str(cfg),
               "--out", str(tmp_path / "panel")])
    body = json.loads(capsys.readouterr().err)
    assert (rc, body["type"]) == (2, "validation")
    assert "--threads" in body["error"]
    assert not list(tmp_path.glob("panel*"))


def test_check_conditions_at_a_high_moment_order_exits_0(tmp_path, capsys):
    # the Gaussian max-moment root at p = 5 once overflowed from q = 89 on
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[process]\nfamily = iid\np = 5\n")
    rc = main(["check-conditions", "--config", str(cfg), "--q", "90", "--n", "1000"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert json.loads(out)["q"] == 90.0


@pytest.mark.parametrize("h, q, code", [("0", "1e308", 3), ("1", "200", 3), ("1", "1e308", 2)])
def test_check_conditions_overflow_in_the_closed_form_profile_exits_cleanly(
        tmp_path, capsys, h, q, code):
    # at h = 0 the Gaussian max-moment quadrature raises OverflowError
    # (exit 3); at h = 1 and q = 1e308 the aggregate norms overflow to inf,
    # with no numpy warning, and the checker rejects them (exit 2); at q = 200
    # the profile is finite and the condition arithmetic overflows (exit 3)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(DEFAULT_CONFIG.replace("h = 0", f"h = {h}").replace("rho = 0.0", "rho = 0.5"))
    rc = main(["check-conditions", "--config", str(cfg), "--n", "4096", "--q", q])
    body = json.loads(capsys.readouterr().err)
    assert (rc, body["type"]) == (code, {2: "validation", 3: "numerical"}[code])


# ---------------------------------------------------------------------------
# fuzz: every subcommand in process
# ---------------------------------------------------------------------------

def _pick(draw, choices: dict) -> dict:
    """A value for every key of choices, {key: (usual values, odd values)},
    with at most two keys given an odd one."""
    odd = draw(st.sets(st.sampled_from(list(choices)), max_size=2))
    return {key: draw(st.sampled_from(values[key in odd])) for key, values in choices.items()}


# every key is set, so that no default size (n = 1000, K = 200, p_grid up
# to 4096) slows an example down
_FUZZ_CONFIG = {
    ("process", "family"): (["iid", "linear", "threshold-ar"], ["garch", "li%near"]),
    ("process", "p"): ([1, 2, 3], [0, -1, "x"]),
    ("process", "alpha"): ([1.0, 0.0, 1.5], [-1, "inf", "nan"]),
    ("process", "K"): ([0, 3, 20], [-1]),
    ("process", "h"): ([0, 1, 3], [-1]),
    ("process", "rho"): ([0.0, 0.5, 0.95], [1.0, -0.1, "nan"]),
    ("process", "theta1"): ([0.3, 0.0, -0.5, 0.99], [1.0, "nan"]),
    ("process", "theta2"): ([0.3, -0.5], ["inf"]),
    ("process", "burn_in"): ([0, 10, 100], [-1]),
    ("innovation", "kind"): (["standard-gaussian", "student-t", "symmetric-pareto"],
                             ["cauchy"]),
    ("innovation", "df"): ([8.0, 3.0], [2.0, "inf", "nan"]),
    ("innovation", "tail_index"): ([4.0, 2.5], [2.0, 1e308, "nan"]),
    ("innovation", "u0"): ([7.38905609893065, 20.0], [1.0, 1e200, "nan"]),
    ("innovation", "body"): (["uniform", "shell"], ["x"]),
    ("simulate", "n"): ([1, 5, 60], [0, -2]),
    ("experiment", "kind"): (["coverage", "ga", "rate", "mdep", "counterexample"], ["bogus"]),
    ("experiment", "R"): ([200, 6, 2], [1, 0, -1]),
    ("experiment", "B"): ([1000], [10, 0]),
    ("experiment", "n"): ([8, 30, 60], [0, -1]),
    ("experiment", "p"): ([1, 2, 3], [0]),
    ("experiment", "M"): (["0", "1", "0,2"], ["-1", "100"]),
    ("experiment", "theta"): (["0.95", "0.9,0.95"], ["1.0", "0", "nan"]),
    ("experiment", "n_grid"): (["8,16,32", "16,32,48,60"], ["16,32", "0,8,16", "8,8,8"]),
    ("experiment", "m_grid"): (["1,2,3", "2,4,8"], ["0,1,2", "1,1,1"]),
    ("experiment", "p_grid"): (["2,3", "1,2"], ["0,2", "2"]),
    ("experiment", "q"): ([8.0, 2.0], [3.0, 0, "nan"]),
    ("experiment", "tail_index"): ([4.0, 2.5], [2.0, "inf"]),
    ("experiment", "body"): (["shell", "uniform"], ["x"]),
    ("experiment", "n_perm"): ([0, 5], [-1]),
}


@st.composite
def _config_bytes(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=60))
    text, section = "", None
    for (where, key), value in _pick(draw, _FUZZ_CONFIG).items():
        text += f"[{where}]\n" * (where != section) + f"{key} = {value}\n"
        section = where
    return text.encode()


_ODD_CELLS = [float("nan"), float("inf"), -1e308, 1e308, 5e-324, -0.0]


@st.composite
def _panel_bytes(draw):
    rows, cols = draw(st.integers(0, 60)), draw(st.integers(0, 3))
    cells = draw(st.lists(st.floats(-10, 10), min_size=rows * cols, max_size=rows * cols))
    if cells and draw(st.booleans()):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_ODD_CELLS))
    form = draw(st.sampled_from(["csv", "binary", "bytes"]))
    if form == "csv":
        lines = ["t," + ",".join(f"x{j + 1}" for j in range(cols))]
        lines += [",".join([str(i + 1)] + [repr(v) for v in cells[i * cols:(i + 1) * cols]])
                  for i in range(rows)]
        return "\n".join(lines).encode() + draw(st.sampled_from([b"\n", b"", b"\n1,x\n"]))
    if form == "binary":
        shape = draw(st.sampled_from([(rows, cols), (rows, cols), (rows + 1, cols),
                                      (2 ** 62, 0), (0, 2 ** 63), (2 ** 64 - 1, 0)]))
        return io.MAGIC + struct.pack("<QQ", *shape) + struct.pack(f"<{len(cells)}d", *cells)
    return draw(st.binary(max_size=80))


_ODD_NORMS = [0.0, -1.0, 1e308, 1e-300, float("nan"), None]
_FUZZ_PROFILE = {**{key: ([value], _ODD_NORMS + [2.0, 0.375])
                    for key, value in _PROFILE.items() if key != "aux"},
                 **{("aux", key): ([value], _ODD_NORMS) for key, value in _PROFILE["aux"].items()},
                 "Phi_psinu_alpha": ([1.0, None], [0.0, 1e308]),
                 "Phi_psinu_0": ([1.0, None], [0.0, 1e308])}


@st.composite
def _profile_json(draw):
    prof = {"aux": {}}
    for key, value in _pick(draw, _FUZZ_PROFILE).items():
        if isinstance(key, tuple):
            prof["aux"][key[1]] = value
        else:
            prof[key] = value
    return json.dumps(prof).encode()


_FUZZ_FLAGS = {
    "--M": ([0, 1, 3], [-1, 100]), "--theta": ([0.95, 0.5], [0.0, 1.0, "nan"]),
    "--B": ([1000], [10, 0, -1]), "--n": ([2048, 50], [1, 2]),
    "--q": ([8.0, 4.0], [2.0, 0, 200, 1e308]),
    "--alpha": ([1.5, 0.2], [0.375, 1e-300, 1e308, "nan"]),
    "--nu": ([0.5, 1.0], [0.0, -0.5, 1e308, "nan"]),
}


def _flags(draw, *names) -> list[str]:
    picked = _pick(draw, {name: _FUZZ_FLAGS[name] for name in names})
    return [str(v) for name, value in picked.items() for v in (name, value)]


@st.composite
def _invocation(draw):
    """(files, argv) of one CLI call; argv names the files by {key}."""
    command = draw(st.sampled_from(["simulate", "estimate", "ci", "covtest", "experiment",
                                    "check-conditions"]))
    if command in ("simulate", "experiment"):
        out = ["--out", "{d}/o"] if command == "simulate" else ["--out-dir", "{d}/o"]
        return {"cfg": draw(_config_bytes())}, [command, "--config", "{cfg}"] + out
    if command == "check-conditions":
        nu = ["--nu"] if draw(st.booleans()) else []
        flags = _flags(draw, "--n", *nu) + ["--sub-exponential"] * bool(nu)
        if draw(st.booleans()):
            return {"prof": draw(_profile_json())}, [command, "--profile", "{prof}"] + flags
        return ({"cfg": draw(_config_bytes())},
                [command, "--config", "{cfg}"] + flags + _flags(draw, "--q", "--alpha"))
    files = {"panel": draw(_panel_bytes())}
    argv = [command, "--panel", "{panel}", "--out", "{d}/o"]
    argv += _flags(draw, "--M", *(["--theta", "--B"] if command != "estimate" else []))
    if command == "covtest" and draw(st.booleans()):
        files["null"] = draw(st.sampled_from(
            [b"1,0\n0,1\n", b"1\n", b"1,0.5\n0,1\n", b"nan,0\n0,1\n", b"1,0,0\n0,1,0\n0,0,1\n"]))
        argv += ["--null", "{null}"]
    return files, argv


def _profile_invocation(change, flags):
    return ({"prof": json.dumps({**_PROFILE, **change}).encode()},
            ["check-conditions", "--profile", "{prof}", "--n", "2048"] + flags)


@settings(max_examples=800, deadline=None)
@given(call=_invocation())
@example(call=_profile_invocation(*_PROFILE_CASES["Theta=0"][:2]))
@example(call=_profile_invocation(*_PROFILE_CASES["alpha=1e-300"][:2]))
@example(call=_profile_invocation(*_PROFILE_CASES["nu=1e308"][:2]))
def test_fuzz_every_subcommand_exits_0_2_or_3_with_one_json_error(call):
    # ga on threshold-AR draws its sigma from a 20 000-step path, not 10^6
    import contextlib
    import io as stdio
    import tempfile
    from unittest import mock
    import hdts.cli as cli
    files, argv = call
    real_sigma = cli.mc_long_run_sigma
    with tempfile.TemporaryDirectory() as d, mock.patch.object(
            cli, "mc_long_run_sigma", lambda spec, rng=None: real_sigma(spec, 20_000, rng)):
        names = {"d": d}
        for key, data in files.items():
            names[key] = f"{d}/{key}"
            Path(names[key]).write_bytes(data)
        err = stdio.StringIO()
        with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["--threads", "1"] + [a.format(**names) for a in argv])
    assert rc in (0, 2, 3), (rc, err.getvalue())
    if rc:
        body = json.loads(err.getvalue())
        assert set(body) == {"error", "type"}
        assert body["type"] == {2: "validation", 3: "numerical"}[rc]
