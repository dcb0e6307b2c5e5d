import hashlib
import json
import time
from pathlib import Path

from orbitpoisson.cli import EXIT_CONFIG, EXIT_OK, EXIT_WITNESS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_solve_kks_json(capsys):
    code, out = run_cli(capsys, "solve", "A", "2", "--mode", "kks", "--lambda", "1,2")
    assert code == EXIT_OK
    report = json.loads(out)
    values = {row["label"]: row["value"] for row in report["result"]["coefficients"]}
    assert values == {"a1": "1", "a2": "1/2", "a1+a2": "1/3"}
    ver = report["result"]["verification"]
    assert ver["square_pairs_ok"] and ver["square_multivector_ok"]


def test_solve_compatible_example(capsys):
    code, out = run_cli(
        capsys, "solve", "A", "2", "--mode", "compatible",
        "--lambda", "1,1", "--K", "1", "--sign", "+", "--seed-c", "0",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    values = {row["label"]: row["value"] for row in report["result"]["coefficients"]}
    assert values == {"a1": "0", "a2": "2", "a1+a2": "1/2"}


def test_solve_recursion_gaussian(capsys):
    code, out = run_cli(
        capsys, "solve", "A", "2", "--mode", "recursion", "--seeds", "1,1", "--K", "i",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["result"]["verification"]["square_pairs_ok"]


def test_solve_witness_exit_code(capsys):
    code, out = run_cli(
        capsys, "solve", "B", "2", "--mode", "compatible", "--lambda", "1,1", "--K", "1",
    )
    assert code == EXIT_WITNESS
    report = json.loads(out)
    assert report["result"]["witness"]["quasiroot"] == [1, 1]


def test_classify_good_and_not(capsys):
    code, out = run_cli(capsys, "classify", "A", "4", "--gamma", "2,3")
    assert code == EXIT_OK and json.loads(out)["result"]["good"]
    code, out = run_cli(capsys, "classify", "D", "4", "--gamma", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert not report["result"]["good"]
    assert report["result"]["witness"]["quasiroot"] == [1, 1, 1]


def test_classify_sweep(capsys):
    code, out = run_cli(capsys, "classify", "B", "2", "--all-gamma")
    assert code == EXIT_OK
    sweep = json.loads(out)["result"]["sweep"]
    verdicts = {tuple(e["gamma"]): e["good"] for e in sweep}
    assert verdicts == {(): False, (1,): False, (2,): True, (1, 2): True}


def test_cohomology_report(capsys):
    code, out = run_cli(
        capsys, "cohomology", "A", "2", "--mode", "kks", "--lambda", "1,2",
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["betti"] == [1, 0, 2, 0, 2, 0, 1]
    assert result["match"] is True
    assert result["euler_characteristic"] == 6


def test_cohomology_a1(capsys):
    code, out = run_cli(capsys, "cohomology", "A", "1", "--mode", "kks", "--lambda", "1")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["betti"] == [1, 0, 1]


def test_determinism_byte_identical(capsys):
    _, first = run_cli(capsys, "classify", "D", "4", "--gamma", "1,2")
    _, second = run_cli(capsys, "classify", "D", "4", "--gamma", "1,2")
    assert first == second


def test_bad_inputs_exit_config(capsys):
    assert main(["solve", "A", "2", "--mode", "kks"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["solve", "A", "2", "--mode", "kks", "--lambda", "1,x"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["solve", "E", "5", "--mode", "kks", "--lambda", "1"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main(["solve", "A", "2", "--mode", "kks", "--lambda", "1,-1"]) == EXIT_CONFIG
    capsys.readouterr()
    for argv in (
        ["solve", "A", "2", "--mode", "recursion", "--seeds", "1,1", "--K", "foo"],
        ["solve", "A", "2", "--mode", "compatible", "--lambda", "1,1", "--K", "foo"],
        ["solve", "A", "2", "--mode", "compatible", "--lambda", "1,1", "--K", "1",
         "--seed-c", "x"],
        ["classify", "B", "2", "--all-gamma", "--lambda", "1,1"],
        ["classify", "A", "2", "--gamma", "1", "--all-gamma"],
        ["classify", "A", "11", "--all-gamma"],
        ["classify", "B", "2", "--lambda", "1,x"],
        ["--config=", "solve", "A", "2", "--mode", "kks"],
        ["solve", "A", "2", "--mode", "kks", "--lambda", "1/0,1"],
        ["solve", "A", "3", "--mode", "compatible", "--lambda", "1,2,3", "--K", "0"],
        ["solve", "A", "3", "--mode", "recursion", "--seeds", "1,2"],
        ["cohomology", "A", "3", "--mode", "recursion", "--seeds", "1,2"],
    ):
        assert main(argv) == EXIT_CONFIG, argv
        assert capsys.readouterr().out == ""
    # refused by the oracle's coset bound before the complex is built
    argv = ["cohomology", "E", "7", "--mode", "kks", "--lambda", "1,1,1,1,1,1,1"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "2903040 cosets" in captured.err
    # refused by the weight-zero monomial count before the complex is built:
    # 56 cosets pass the oracle, but the subset-sum table outgrows the limit
    started = time.perf_counter()
    argv = ["cohomology", "E", "7", "--gamma", "1,2,3,4,5,6", "--mode", "kks", "--lambda", "1"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "more than 30000 weight-zero monomials" in captured.err
    assert time.perf_counter() - started < 5
    # the exact count when the table stays within the limit; A2 has 10 in all
    argv = ["cohomology", "A", "2", "--mode", "kks", "--lambda", "1,2", "--max-monomials", "9"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and "10 weight-zero monomials exceed 9" in captured.err
    argv[-1] = "10"
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["match"] is True


def test_mistyped_rank_fails_fast(capsys):
    # refused from the root count before the rank^2 Cartan matrix is built
    started = time.perf_counter()
    assert main(["classify", "A", "99999999"]) == EXIT_CONFIG
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: A99999999 has 9999999900000000 roots, more than the limit of 1000\n"
    )
    # D23 (1012 roots) is the smallest D over the limit; E8 stays within it
    assert main(["solve", "D", "23", "--mode", "kks"]) == EXIT_CONFIG
    assert "1012 roots" in capsys.readouterr().err
    # an --all-gamma sweep of A11 has 2^11 orbits, over the limit of 1024
    assert main(["classify", "A", "11", "--all-gamma"]) == EXIT_CONFIG
    assert "sweeps 2048 orbits" in capsys.readouterr().err
    assert main(["classify", "E", "8", "--gamma", "1,2,3,4,5,6,7"]) == EXIT_OK


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "command = solve\ntype = A\nrank = 2\nmode = kks\nlambda = 1,2\n"
    )
    code, out = run_cli(capsys, "--config", str(cfg))
    assert code == EXIT_OK
    code2, out2 = run_cli(capsys, "solve", "A", "2", "--mode", "kks", "--lambda", "1,2")
    assert out == out2
    code3, out3 = run_cli(capsys, f"--config={cfg}")
    assert code3 == EXIT_OK and out3 == out
    # an explicit flag wins over the file, in the --flag value and --flag=value forms
    (tmp_path / "lam.cfg").write_text("lambda = 3,4\n")
    # and in the abbreviated form argparse accepts as a prefix
    for explicit in (["--lambda", "1,2"], ["--lambda=1,2"], ["--lam", "1,2"]):
        argv = ["solve", "A", "2", "--mode", "kks", *explicit, "--config", str(tmp_path / "lam.cfg")]
        code5, out5 = run_cli(capsys, *argv)
        assert code5 == EXIT_OK and out5 == out2, explicit
    # a file value that starts with "-" parses as it does in --lambda=-1,2
    (tmp_path / "neg.cfg").write_text("lambda = -1,2\n")
    code6, out6 = run_cli(capsys, "solve", "A", "2", "--mode", "kks", "--config", str(tmp_path / "neg.cfg"))
    code7, out7 = run_cli(capsys, "solve", "A", "2", "--mode", "kks", "--lambda=-1,2")
    assert code6 == code7 == EXIT_OK and out6 == out7
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00")
    code4 = main(["--config", str(binary)])
    captured = capsys.readouterr()
    assert code4 == EXIT_CONFIG and captured.out == ""
    assert captured.err.startswith("error: ")


def test_point_orbit_empty_lambda(capsys):
    # every node in Gamma: the form has no values, and the orbit is a point
    code, out = run_cli(capsys, "solve", "A", "2", "--gamma", "1,2", "--mode", "kks", "--lambda", "")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["coefficients"] == []
    code, out = run_cli(
        capsys, "cohomology", "A", "2", "--gamma", "1,2", "--mode", "kks", "--lambda", ""
    )
    assert code == EXIT_OK
    result = json.loads(out)["result"]
    assert result["betti"] == result["de_rham"] == [1]
    # an empty form on an orbit with free nodes is still a length error
    assert main(["solve", "A", "2", "--mode", "kks", "--lambda", ""]) == EXIT_CONFIG
    assert capsys.readouterr().out == ""


def test_text_format(capsys):
    code, out = run_cli(
        capsys, "solve", "A", "2", "--mode", "kks", "--lambda", "1,2",
        "--format", "text",
    )
    assert code == EXIT_OK
    assert "a1+a2" in out and "1/3" in out


def test_output_digests(capsys):
    """stdout and exit code of a fixed argv list, byte for byte, against the
    SHA-256 digests recorded in cli_digests.json."""
    recorded = json.loads((Path(__file__).parent / "cli_digests.json").read_text())
    for row in recorded:
        code, out = run_cli(capsys, *row["argv"])
        assert code == row["exit"], row["argv"]
        assert hashlib.sha256(out.encode()).hexdigest() == row["stdout_sha256"], row["argv"]
