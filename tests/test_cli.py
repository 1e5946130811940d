"""CLI verbs, exit codes, atomic output, and JSON/CSV contracts."""

import json
import subprocess
import sys

import numpy as np
import pytest

from kubomeans import cli
from kubomeans.harness import SuiteReport
from kubomeans.measures import measure_from_json
from kubomeans.spd import load_matrix, random_spd, save_matrix


@pytest.fixture
def pair_files(tmp_path):
    a = random_spd(3, 50.0, 61)
    b = random_spd(3, 50.0, 62)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_matrix(pa, a)
    save_matrix(pb, b)
    return str(pa), str(pb), a.entries, b.entries


def _one_by_one(tmp_path, name, value):
    path = tmp_path / name
    path.write_text(f"{value!r}\n")
    return str(path)


def test_eval_scalar_harmonic(tmp_path, capsys):
    pa = _one_by_one(tmp_path, "one.csv", 1.0)
    pb = _one_by_one(tmp_path, "three.csv", 3.0)
    code = cli.main(["eval", "--mean", "harmonic:0.5", "--A", pa, "--B", pb])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "1.5\n"
    meta = json.loads(captured.err)
    assert meta["compressed"] == 0
    assert meta["nodes_used"] == 1


def test_eval_writes_out_atomically(tmp_path, capsys, pair_files):
    pa, pb, a, b = pair_files
    out = tmp_path / "result.csv"
    code = cli.main(
        ["eval", "--mean", "arithmetic:0.5", "--A", pa, "--B", pb, "--out", str(out)]
    )
    assert code == 0
    meta = json.loads(capsys.readouterr().out)  # metadata moves to stdout
    assert meta["error_estimate"] == 0.0
    got = load_matrix(out).entries
    np.testing.assert_array_equal(got, 0.5 * a + 0.5 * b)
    assert not list(tmp_path.glob("*.tmp"))  # temp file cleaned up


def test_eval_atomic_id_equals_arithmetic(pair_files, capsys):
    pa, pb, _, _ = pair_files
    assert cli.main(["eval", "--mean", "atomic:0.5@0,0.5@1", "--A", pa, "--B", pb]) == 0
    first = capsys.readouterr().out
    assert cli.main(["eval", "--mean", "arithmetic:0.5", "--A", pa, "--B", pb]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_eval_verify_passes_on_catalog(pair_files, capsys):
    pa, pb, _, _ = pair_files
    code = cli.main(["eval", "--mean", "dual_log", "--A", pa, "--B", pb, "--verify"])
    captured = capsys.readouterr()
    assert code == 0
    meta = json.loads(captured.err)
    assert meta["verify"]["passed"] is True
    assert meta["verify"]["rel_diff"] <= 1e-6


def test_eval_verify_mismatch_exits_one(pair_files, capsys, monkeypatch):
    pa, pb, a, _ = pair_files
    from kubomeans.spd import SpdMatrix

    monkeypatch.setattr(cli, "closed_form_eval", lambda ident, x, y: SpdMatrix(2.0 * a))
    code = cli.main(["eval", "--mean", "geometric:0.5", "--A", pa, "--B", pb, "--verify"])
    assert code == 1
    meta = json.loads(capsys.readouterr().err)
    assert meta["verify"]["passed"] is False


def test_eval_verify_takes_a_pair_singular_on_both_sides(tmp_path, capsys):
    # A + B is PD, but A and B are each singular on it: the closed form
    # takes the pair too, and both give the limit from above
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_matrix(pa, np.diag([1.0, 0.0]))
    save_matrix(pb, np.diag([0.0, 2.0]))
    args = ["eval", "--mean", "geometric:0.5", "--A", str(pa), "--B", str(pb)]
    assert cli.main(args) == 0
    plain = capsys.readouterr().out
    assert cli.main(args + ["--verify"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    verify = json.loads(captured.err)["verify"]
    assert verify["passed"] is True and verify["rel_diff"] == 0.0


def test_eval_exit_codes(tmp_path, pair_files, capsys):
    pa, pb, _, _ = pair_files
    # unknown id -> usage
    assert cli.main(["eval", "--mean", "nosuch", "--A", pa, "--B", pb]) == 2
    # missing file -> usage
    assert cli.main(["eval", "--mean", "log_mean", "--A", str(tmp_path / "no.csv"), "--B", pb]) == 2
    # indefinite input -> PSD violation
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n2.0,1.0\n")
    assert cli.main(["eval", "--mean", "log_mean", "--A", str(bad), "--B", pb]) == 3
    # shape mismatch -> usage
    one = _one_by_one(tmp_path, "one.csv", 1.0)
    assert cli.main(["eval", "--mean", "log_mean", "--A", one, "--B", pb]) == 2
    capsys.readouterr()


def test_singular_geometric_returns_the_limit(tmp_path, capsys):
    # a shared null vector (A + B singular) plus one more null direction of A:
    # evaluation and the closed form both compress onto range(A + B)
    first, proj = np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])
    a = first @ random_spd(3, 10.0, 63).entries @ first
    b = proj @ random_spd(3, 10.0, 64).entries @ proj
    pa, pb = tmp_path / "sa.csv", tmp_path / "sb.csv"
    save_matrix(pa, a)
    save_matrix(pb, b)
    args = ["eval", "--mean", "geometric:0.5", "--A", str(pa), "--B", str(pb)]
    code = cli.main(args + ["--verify"])
    captured = capsys.readouterr()
    assert code == 0
    meta = json.loads(captured.err)
    assert meta["compressed"] == 1 and meta["verify"]["passed"]
    got = np.array([[float(v) for v in row.split(",")] for row in captured.out.split()])
    # with A = x x^T of rank one, A # B = x x^T / (x^T B^-1 x)^1/2 on the
    # range; here x = a11^1/2 e1, so the value is (a11 / (B_2^-1)_11)^1/2 e1 e1^T
    want = np.zeros((3, 3))
    want[0, 0] = np.sqrt(a[0, 0] / np.linalg.inv(b[:2, :2])[0, 0])
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_ifs_budget_exits_four(capsys):
    code = cli.main(["f", "--mean", "cantor", "--x", "2", "--ifs-depth", "25"])
    captured = capsys.readouterr()
    assert code == 4
    assert "quadrature did not converge" in captured.err


def test_eval_parts_name_the_self_similar_rule(pair_files, capsys):
    pa, pb, _, _ = pair_files
    args = ["eval", "--mean", "cantor", "--A", pa, "--B", pb]
    assert cli.main(args) == 0
    (label, nodes, err), = json.loads(capsys.readouterr().err)["parts"]
    assert label.startswith("ifs_adaptive:") and int(label.split(":")[1]) >= 1
    assert nodes > 0 and err >= 0.0
    assert cli.main(args + ["--ifs-depth", "8"]) == 0
    (label, nodes, _err), = json.loads(capsys.readouterr().err)["parts"]
    assert (label, nodes) == ("ifs_recursion:8", 2**8 + 2**6)


def test_f_values_and_closed_form_column(capsys):
    assert cli.main(["f", "--mean", "geometric:0.5", "--x", "4", "--closed-form"]) == 0
    line = capsys.readouterr().out.strip()
    x, fx, closed = (float(s) for s in line.split(","))
    assert (x, closed) == (4.0, 2.0)
    assert fx == pytest.approx(2.0, abs=1e-8)


def test_f_grid_rows(capsys):
    assert cli.main(["f", "--mean", "arithmetic:0.3", "--grid", "0:2:5"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(0.7)
    assert float(rows[-1][1]) == pytest.approx(1.3)


def test_f_usage_errors(capsys):
    assert cli.main(["f", "--mean", "log_mean", "--x", "-1"]) == 2
    assert cli.main(["f", "--mean", "log_mean", "--grid", "0:1"]) == 2
    assert cli.main(["f", "--mean", "log_mean", "--grid", "0:1:0"]) == 2
    assert cli.main(["f", "--mean", "log_mean"]) == 2  # neither --x nor --grid
    assert cli.main(["f", "--mean", "log_mean", "--x", "1", "--grid", "0:1:2"]) == 2
    assert cli.main(["f", "--mean", "cantor", "--x", "1", "--closed-form"]) == 2
    capsys.readouterr()


def test_f_cantor_depth_convergence(capsys):
    assert cli.main(["f", "--mean", "cantor", "--x", "2", "--ifs-depth", "16"]) == 0
    v16 = float(capsys.readouterr().out.split(",")[1])
    assert cli.main(["f", "--mean", "cantor", "--x", "2", "--ifs-depth", "20"]) == 0
    v20 = float(capsys.readouterr().out.split(",")[1])
    assert abs(v16 - v20) <= 1e-6


def test_measure_parallel_sum_contract(capsys):
    assert cli.main(["measure", "--mean", "parallel_sum"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["atoms"] == [[0.5, 0.5]]
    assert obj["mass"] == 0.5
    assert obj["mean"] is False
    assert obj["symmetric"] is True


def test_measure_moments_and_density(capsys):
    assert cli.main(["measure", "--mean", "log_mean", "--moments", "1", "--density-grid", "5"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["moments"][0] == pytest.approx(0.5, abs=1e-9)
    assert len(obj["density"]) == 5
    xs = [x for x, _ in obj["density"]]
    assert xs == sorted(xs) and all(0.0 < x < 1.0 for x in xs)


def test_measure_json_reparses(capsys):
    assert cli.main(["measure", "--mean", "geometric:0.3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    from kubomeans.catalog import entry_from_id

    assert measure_from_json(obj) == entry_from_id("geometric:0.3").connection.measure


def test_decompose_mixed_measure(capsys):
    text = json.dumps(
        {"atoms": [[0.5, 0.3]], "ac": {"id": "lebesgue", "w": 0.5}, "sc": {"id": "cantor", "w": 0.2}}
    )
    assert cli.main(["decompose", "--measure", text]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["k"] == [0.5, 0.2, 0.3]
    assert obj["parts"]["sd"]["atoms"] == [[0.5, 0.3]]


def test_decompose_catalog_ids(capsys):
    assert cli.main(["decompose", "--mean", "geometric:0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == [1.0, 0.0, 0.0]
    assert cli.main(["decompose", "--mean", "arithmetic:0.25"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["k"] == [0.0, 0.0, 1.0]
    assert obj["parts"]["sd"]["atoms"] == [[0.0, 0.75], [1.0, 0.25]]


def test_decompose_non_mean_has_no_k(capsys):
    assert cli.main(["decompose", "--mean", "sum"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "k" not in obj
    assert obj["masses"]["sd"] == 2.0


def test_decompose_malformed_json(capsys):
    assert cli.main(["decompose", "--measure", "{broken"]) == 2
    assert "malformed" in capsys.readouterr().err


def test_decompose_rejects_a_nan_weight(capsys):
    # json parses NaN, so a non-finite weight can arrive from the command line
    measure = '{"atoms": [[0.5, 1.0]], "sc": {"id": "cantor", "w": NaN}}'
    assert cli.main(["decompose", "--measure", measure]) == 2
    assert "sc weight nan" in capsys.readouterr().err


@pytest.mark.parametrize("measure", ["[1]", "5", "null", '"cantor"'])
def test_decompose_rejects_json_that_is_not_an_object(measure, capsys):
    assert cli.main(["decompose", "--measure", measure]) == 2
    assert "measure JSON must be an object" in capsys.readouterr().err


def test_decompose_rejects_a_density_id_missing_its_parameter(capsys):
    measure = json.dumps({"ac": {"id": "geometric"}})
    assert cli.main(["decompose", "--measure", measure]) == 2
    assert "'geometric'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "measure, named",
    [
        ('{"ac": {"w": 1}}', "missing entry 'id'"),
        ('{"ac": {"terms": [{"w": 1}]}}', "missing entry 'id'"),
        ('{"sc": {"maps": [[0.5, 0], [0.5, 0.5]]}}', "missing entry 'probs'"),
        ('{"ac": {"id": 5}}', "entry 'id' must be a string"),
    ],
)
def test_decompose_names_a_missing_or_mistyped_key(measure, named, capsys):
    assert cli.main(["decompose", "--measure", measure]) == 2
    assert named in capsys.readouterr().err


def _ci_pair(tmp_path):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_text("2.0,0.5\n0.5,1.0\n")
    pb.write_text("1.0,0.2\n0.2,3.0\n")
    return str(pa), str(pb)


@pytest.mark.parametrize(
    "flags, nodes", [([], 5119), (["--tol", "1e-4"], 1023), (["--tol", "1e-12"], 38271)]
)
def test_eval_tol_sets_both_quadrature_tolerances(tmp_path, capsys, flags, nodes):
    pa, pb = _ci_pair(tmp_path)
    assert cli.main(["eval", "--mean", "cantor", "--A", pa, "--B", pb, *flags]) == 0
    assert json.loads(capsys.readouterr().err)["nodes_used"] == nodes


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_eval_tol_must_be_positive_and_finite(tmp_path, capsys, tol):
    pa, pb = _ci_pair(tmp_path)
    assert cli.main(["eval", "--mean", "cantor", "--A", pa, "--B", pb, f"--tol={tol}"]) == 2
    assert "is not a positive finite number" in capsys.readouterr().err


def test_catalog_listing(capsys):
    assert cli.main(["catalog"]) == 0
    rows = json.loads(capsys.readouterr().out)
    ids = [r["id"] for r in rows]
    assert "log_mean" in ids and "cantor_mean" in ids
    cantor = next(r for r in rows if r["id"] == "cantor_mean")
    assert cantor["closed_form_matrix"] is False
    assert cantor["mean"] is True
    # every catalog mass is structural: no quadrature flag changes the listing
    assert cli.main(["catalog", "--tol", "1e-3"]) == 2
    assert cli.main(["catalog", "--ifs-depth", "3"]) == 2


def test_nodes_table_csv(tmp_path, capsys):
    out = tmp_path / "nodes.csv"
    assert cli.main(["nodes", "--mean", "geometric:0.3", "--n", "8", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    assert len(rows) == 8
    assert all(r[0] == "gauss_jacobi" for r in rows)
    total = sum(float(r[2]) for r in rows)
    assert total == pytest.approx(1.0, rel=1e-8)
    # node tables read the IFS depth and no tolerance
    assert cli.main(["nodes", "--mean", "cantor", "--ifs-depth", "4", "--out", str(out)]) == 0
    assert {line.split(",")[0] for line in out.read_text().splitlines()} == {"ifs_recursion:4"}
    assert cli.main(["nodes", "--mean", "log_mean", "--tol", "1e-3"]) == 2


def test_check_exit_codes(capsys, monkeypatch):
    assert cli.main(["check", "--suite", "norm_bound", "--profile", "quick", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 11
    assert all(row["passed"] for row in payload)
    assert all("wall_time" in row for row in payload)

    failing = SuiteReport(
        suite="norm_bound", target="x", trials=1, dim=2, cond=1.0, seed=0,
        tol=1e-8, failures=((0, 1.0),), wall_time=0.0,
    )
    monkeypatch.setattr(cli, "run_all", lambda **kw: [failing])
    assert cli.main(["check", "--suite", "all"]) == 1
    capsys.readouterr()


def test_check_rejects_out_of_range_seeds_with_one_message(capsys):
    for seed in ("-1", str(2**110)):
        messages = set()
        for suite in ("norm_bound", "representation_agreement"):
            assert cli.main(["check", "--suite", suite, "--seed", seed]) == 2
            messages.add(capsys.readouterr().err)
        assert messages == {f"error: seed {seed} is out of range: it must be a "
                            "nonnegative integer whose trial keys stay below 2**128\n"}


def test_check_rejects_unknown_suite(capsys):
    assert cli.main(["check", "--suite", "nosuch"]) == 2
    capsys.readouterr()


def test_help_and_missing_verb():
    assert cli.main(["--help"]) == 0
    assert cli.main([]) == 2
    assert cli.main(["eval"]) == 2  # missing required options


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kubomeans.cli", "f", "--mean", "log_mean", "--x", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.0,1.0\n"


def test_import_loads_numpy_only():
    # NumPy is the only runtime dependency: importing the package (and the
    # CLI) must not pull in scipy
    code = (
        "import sys, kubomeans, kubomeans.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
