import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ctensor import presets
from ctensor.cli import dispatch
from ctensor.diag_root import DiagRootSpec
from ctensor.io import as_tensor, tensor_from_dict, tensor_to_dict


def run_cli(argv, capsys):
    rc = dispatch(argv)
    out = capsys.readouterr().out
    return rc, out


@pytest.fixture
def example1_path(tmp_path):
    p = tmp_path / "ex1.json"
    p.write_text(json.dumps(tensor_to_dict(presets.by_name("example1"))))
    return str(p)


@pytest.fixture
def diag_path(tmp_path):
    p = tmp_path / "diag.json"
    p.write_text(json.dumps({"kind": "diag_root", "order": 4, "c": [1.0, 1.0]}))
    return str(p)


class TestTensorFormat:
    def test_circulant_roundtrip(self):
        a = presets.by_name("example1")
        doc = tensor_to_dict(a)
        b = tensor_from_dict(doc)
        assert np.array_equal(b.root.array, a.root.array)

    def test_dense_roundtrip(self, rng):
        from ctensor.core import DenseTensor

        t = DenseTensor(rng.normal(size=(2, 2, 2)))
        doc = tensor_to_dict(t)
        assert doc["kind"] == "dense" and len(doc["entries"]) == 8
        back = tensor_from_dict(doc)
        assert np.array_equal(back.array, t.array)

    def test_diag_root_kind(self):
        spec = tensor_from_dict({"kind": "diag_root", "order": 4, "c": [1, -2.5]})
        assert isinstance(spec, DiagRootSpec)
        expanded = as_tensor(spec)
        assert expanded.order == 4 and expanded.dim == 2

    def test_decimal_strings_accepted(self):
        doc = {"kind": "diag_root", "order": 4, "c": ["0.1", "-0.30000000000000004"]}
        spec = tensor_from_dict(doc)
        assert spec.c[0] == 0.1
        assert spec.c[1] == -0.30000000000000004

    def test_wrong_entry_count(self):
        with pytest.raises(ValueError):
            tensor_from_dict({"kind": "circulant", "order": 3, "dim": 2, "root": [1.0]})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            tensor_from_dict({"kind": "sparse"})

    @pytest.mark.parametrize("doc", [[1, 2, 3], 5, "circulant"], ids=["list", "number", "string"])
    def test_non_object_rejected(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            tensor_from_dict(doc)

    @pytest.mark.parametrize("kind, field", [("circulant", "root"), ("dense", "entries")])
    def test_huge_order_rejected_before_its_power(self, kind, field):
        # 2 ** (10**30 - 1) cannot be stored: the declared shape is compared
        # with the entry count by bit lengths first
        doc = {"kind": kind, "order": 10**30, "dim": 2, field: [1.0, 2.0]}
        with pytest.raises(ValueError, match=r"needs 2\*\*\d+ entries, got 2"):
            tensor_from_dict(doc)

    def test_unit_dimension_rejected_before_its_shape(self):
        # one entry matches 1 ** (10**30 - 1): the dimension fails before a
        # shape tuple of that length is built
        doc = {"kind": "circulant", "order": 10**30, "dim": 1, "root": [1.0]}
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            tensor_from_dict(doc)


class TestDispatch:
    def test_eig_values(self, example1_path, capsys):
        rc, out = run_cli(["eig", example1_path], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert abs(doc["lambdas"][0]["re"] - 39.1013) <= 1e-3
        assert doc["extreme"]["kind"] == "largest"
        assert doc["gershgorin"]["center"] == pytest.approx(5.91395)

    def test_eig_byte_identical(self, example1_path, capsys):
        rc1, out1 = run_cli(["eig", example1_path], capsys)
        rc2, out2 = run_cli(["eig", example1_path], capsys)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_psd_and_classify_byte_identical(self, diag_path, capsys):
        for argv in (["psd", diag_path], ["classify", diag_path]):
            _, out1 = run_cli(argv, capsys)
            _, out2 = run_cli(argv, capsys)
            assert out1 == out2

    def test_classify(self, example1_path, capsys):
        rc, out = run_cli(["classify", example1_path], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["sign"] == "nonnegative"
        assert doc["toeplitz"] is True
        assert doc["doubly_circulant"] is False

    def test_psd_diag_route(self, diag_path, capsys):
        rc, out = run_cli(["psd", diag_path], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["decision"] == "psd"
        assert doc["certificate"] == "diag_dominance"

    def test_psd_numeric_flag(self, tmp_path, capsys):
        p = tmp_path / "t.json"
        p.write_text(
            json.dumps({"kind": "diag_root", "order": 4, "c": [1.0, 2.0, -2.0, 0.0]})
        )
        rc, out = run_cli(["psd", str(p), "--numeric", "--seed", "1"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["decision"] in ("psd", "not_psd", "inconclusive")
        if doc["decision"] == "not_psd":
            assert doc["witness"] is not None

    def test_minimize_benchmark(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(tensor_to_dict(presets.by_name("example5"))))
        rc, out = run_cli(
            ["minimize", str(p), "--restarts", "20", "--seed", "0", "--reference", "-6.39448"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out)
        assert abs(doc["best_value"] - (-6.39448)) <= 1e-4
        assert doc["success_rate"] >= 0.9
        assert doc["best_converged"] is True
        assert doc["converged_share"] == 1.0
        # on a short iteration budget 4 of 8 restarts converge at the first
        # penalty, and the best is one of them: the others end at 16 times
        # the penalty, above the minimum; on a shorter budget none converges
        from ctensor import cli
        from ctensor.admm import AdmmParams

        for max_iters, share, best in ((27, 0.5, True), (20, 0.0, False)):
            short = functools.partial(AdmmParams, max_iters=max_iters)
            monkeypatch.setattr(cli, "AdmmParams", short)
            rc, out = run_cli(["minimize", str(p), "--restarts", "8", "--seed", "0"], capsys)
            assert rc == 0
            doc = json.loads(out)
            assert doc["converged_share"] == share
            assert doc["best_converged"] is best

    def test_minimize_csv_reports_convergence(self, tmp_path, capsys):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(tensor_to_dict(presets.by_name("example5"))))
        rc, out = run_cli(
            ["minimize", str(p), "--restarts", "8", "--seed", "0", "--format", "csv"], capsys
        )
        assert rc == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[-2:] == ["best_converged", "converged_share"]
        assert row.split(",")[-2:] == ["true", "1"]

    @pytest.mark.parametrize(
        "flag,value", [("--beta", "nan"), ("--beta", "inf"), ("--eps", "inf"), ("--eps", "nan")]
    )
    def test_minimize_nonfinite_params_exit2(self, flag, value, tmp_path, capsys):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(tensor_to_dict(presets.by_name("example5"))))
        rc = dispatch(["minimize", str(p), "--restarts", "2", flag, value])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert "finite" in err

    def test_hypergraph_command(self, tmp_path, capsys):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 6, "m": 4, "directed": True, "generators": [[1, 2, 4, 5]]}))
        rc, out = run_cli(["hypergraph", str(p), "--tensor", "laplacian"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "circulant" and doc["order"] == 4 and doc["dim"] == 6
        lap = tensor_from_dict(doc)
        from ctensor.spectral import first_native

        assert abs(first_native(lap)) <= 1e-12

    def test_moments_command(self, tmp_path, capsys):
        rows = ["1,-1", "1,1", "-1,1", "-1,-1"]
        p = tmp_path / "s.csv"
        p.write_text("\n".join(rows) + "\n")
        rc, out = run_cli(
            ["moments", str(p), "--order", "2", "--period", "2"], capsys
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "dense"
        arr = np.array(doc["entries"]).reshape(2, 2)
        assert np.allclose(arr, [[1.0, 0.0], [0.0, 1.0]])

    def test_moments_high_order_and_budget(self, tmp_path, capsys, monkeypatch):
        (p := tmp_path / "s.csv").write_text("1,2,3,4\n-1,0.5,2,1\n")
        rc, out = run_cli(["moments", str(p), "--order", "9", "--period", "2"], capsys)
        assert rc == 0 and len(json.loads(out)["entries"]) == 2**9
        monkeypatch.setenv("CTENSOR_BUDGET", "100")
        assert run_cli(["moments", str(p), "--order", "4", "--period", "4"], capsys) == (3, "")

    def test_hypergraph_output_feeds_psd(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(
            json.dumps({"n": 6, "m": 4, "directed": True, "generators": [[1, 2, 4, 5]]})
        )
        rc, out = run_cli(["hypergraph", str(g), "--tensor", "signless"], capsys)
        assert rc == 0
        t = tmp_path / "q.json"
        t.write_text(out)
        rc, out = run_cli(["psd", str(t)], capsys)
        assert rc == 0
        assert json.loads(out)["decision"] in ("psd", "psd_strict")

    def test_missing_file_exit2(self, capsys):
        rc, _ = run_cli(["psd", "/nonexistent/t.json"], capsys)
        assert rc == 2

    def test_unknown_subcommand_exit2(self, capsys):
        rc = dispatch(["frobnicate"])
        assert rc == 2

    @pytest.mark.parametrize("command", ["eig", "psd", "hypergraph"])
    def test_non_object_document_exit2(self, command, tmp_path, capsys):
        p = tmp_path / "list.json"
        p.write_text("[1, 2, 3]")
        rc = dispatch([command, str(p)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("ctensor: ") and "JSON object" in err

    def test_huge_order_exit2(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"kind": "circulant", "order": 10**30, "dim": 2, "root": [1.0]}))
        rc = dispatch(["eig", str(p)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("ctensor: root needs 2**") and err.count("\n") == 1

    def test_malformed_json_exit2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        rc, _ = run_cli(["eig", str(p)], capsys)
        assert rc == 2

    @pytest.mark.parametrize("command", ["eig", "classify", "psd"])
    def test_sum_beyond_float_range_exit2(self, command, tmp_path, capsys):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"kind": "circulant", "order": 4, "dim": 2, "root": [1e308] * 8}))
        rc = dispatch([command, str(p)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == "ctensor: the exact sum lies beyond the float range\n"

    def test_eig_finite_spectrum_near_float_range(self, tmp_path, capsys):
        # sum|root| = 2e308 lies beyond the float range, but the spectrum
        # (0 and 1.5e308 -+ 8.66e307i) and the disc do not
        p = tmp_path / "near.json"
        p.write_text(json.dumps({"kind": "circulant", "order": 3, "dim": 3,
                                 "root": [1e308, -1e308] + [0.0] * 7}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out = run_cli(["eig", str(p)], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert [lam["re"] for lam in doc["lambdas"]] == [0.0, 1.5e308, 1.5e308]
        assert doc["gershgorin"] == {"center": 1e308, "radius": 1e308}

    @pytest.mark.parametrize(
        "kind, doc",
        [
            ("hypergraph", {"n": 6, "directed": "false", "generators": [[1, 2, 4]]}),
            ("hypergraph", {"n": 6.9, "generators": [[1, 2, 4]]}),
            ("hypergraph", {"n": 6, "generators": [[1, 2, 4.5]]}),
            ("hypergraph", {"n": 6, "generators": [[True, 2, 4]]}),
            ("hypergraph", {"n": 6, "m": 3, "generators": [[1, 2, 4, 5]]}),
            ("eig", {"kind": "circulant", "order": 3.7, "dim": 2, "root": [1, 2, 3, 4]}),
            ("eig", {"kind": "circulant", "order": 3, "dim": 2.0, "root": [1, 2, 3, 4]}),
            ("eig", {"kind": "diag_root", "order": 4.0, "c": [1, 2]}),
            ("psd", {"kind": "dense", "order": 2, "dim": 2, "entries": [1.0, 2.0, 3.0, 1.0]}),
        ],
        ids=["directed-string", "n-float", "vertex-float", "vertex-bool", "m-mismatch",
             "order-float", "dim-float", "diag-order-float", "dense-not-circulant"],
    )
    def test_field_types_not_coerced_exit2(self, kind, doc, tmp_path, capsys):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        rc = dispatch([kind, str(p)])
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err.startswith("ctensor: ") and err.count("\n") == 1

    def test_verdict_does_not_change_exit(self, tmp_path, capsys):
        p = tmp_path / "neg.json"
        p.write_text(json.dumps({"kind": "diag_root", "order": 4, "c": [-1.0, 0.0]}))
        rc, out = run_cli(["psd", str(p)], capsys)
        assert rc == 0
        assert json.loads(out)["decision"] == "not_psd"


GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
PRESETS = ("example1", "example2", "example3", "example4_case1", "example4_case2",
           "example5", "example6")


@pytest.mark.parametrize("command", ["eig", "classify", "psd"])
@pytest.mark.parametrize("name", PRESETS)
def test_output_matches_golden(name, command, tmp_path, capsys):
    # tests/data/cli_golden.json holds the exit status and the exact output
    # of each command on each preset; any change to a printed bit fails here
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(tensor_to_dict(presets.by_name(name))))
    rc = dispatch([command, str(p)])
    out, err = capsys.readouterr()
    expected = json.loads(GOLDEN.read_text())[f"{name} {command}"]
    assert {"exit": rc, "stdout": out, "stderr": err} == expected


class TestReproduce:
    @pytest.mark.parametrize("target", ["example1", "example2", "example3", "example4"])
    def test_targets_pass(self, target, capsys):
        rc, out = run_cli(["reproduce", target], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"], doc

    def test_table1_small(self, capsys):
        rc, out = run_cli(["reproduce", "table1", "--restarts", "20", "--seed", "0"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["passed"], doc
        assert len(doc["rows"]) == 2
        for row in doc["rows"]:
            assert list(row)[-1] == "converged_share"
            assert row["converged_share"] == 1.0

    def test_table1_csv(self, capsys):
        rc, out = run_cli(
            ["reproduce", "table1", "--restarts", "5", "--seed", "0", "--format", "csv"],
            capsys,
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("target,")
        assert lines[0].endswith(",success_rate,converged_share")
        assert len(lines) == 3

    def test_unknown_target_exit2(self, capsys):
        rc = dispatch(["reproduce", "example9"])
        assert rc == 2


class TestModuleEntry:
    """``python -m ctensor.cli`` runs the same dispatch as the script."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "ctensor.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)

    def test_missing_file_exit2(self, tmp_path):
        out = self.run_module("psd", str(tmp_path / "absent.json"))
        assert out.returncode == 2
        assert out.stdout == "" and out.stderr.startswith("ctensor: ")

    def test_eig_beyond_float_range_prints_only_the_message(self, tmp_path):
        # the spectrum's bound is decided before the FFT runs, so numpy
        # never warns
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"kind": "circulant", "order": 3, "dim": 2,
                                 "root": [1e308, 1e308, 0, 0]}))
        out = self.run_module("eig", str(p))
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "ctensor: the exact sum lies beyond the float range\n"

    def test_psd_refutes_near_float_range(self, tmp_path):
        # lambda_0 = -1e308: the witness is scaled into range before its
        # value is taken, so nothing overflows and numpy never warns
        p = tmp_path / "near.json"
        p.write_text(json.dumps({"kind": "circulant", "order": 4, "dim": 2,
                                 "root": [0, -1e308] + [0] * 6}))
        out = self.run_module("psd", str(p))
        assert (out.returncode, out.stderr) == (0, "")
        assert json.loads(out.stdout)["decision"] == "not_psd"

    def test_moments_empty_csv_prints_only_the_message(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        out = self.run_module("moments", str(p), "--order", "2", "--period", "2")
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == "ctensor: need a (trajectories, period) array\n"

    def test_eig_matches_dispatch(self, example1_path, capsys):
        rc, expected = run_cli(["eig", example1_path], capsys)
        out = self.run_module("eig", example1_path)
        assert rc == out.returncode == 0
        assert out.stdout == expected
