"""End-to-end runs of the command-line interface, in process."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lightcone
from lightcone.cli import main
from lightcone.curves import read_curves_csv
from lightcone.factor_graph import graph_to_json, standard_graph


@pytest.fixture()
def chain9(tmp_path):
    path = tmp_path / "chain9.json"
    path.write_text(graph_to_json(standard_graph("chain", 9)))
    return str(path)


@pytest.fixture()
def terms4(tmp_path):
    payload = {
        "kind": "pauli",
        "n": 4,
        "terms": [
            {"string": "XXII", "coupling": 0.9, "factor": [0, 1]},
            {"string": "IZZI", "coupling": -0.4, "factor": [1, 2]},
            {"string": "IIXX", "coupling": 0.7, "factor": [2, 3]},
        ],
    }
    path = tmp_path / "terms4.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def triangle_spec_file(tmp_path):
    payload = {
        "kind": "pauli",
        "n": 3,
        "law": "rademacher",
        "entries": [
            {"nodes": [0, 1], "string": "XXI", "jsq": 0.09},
            {"nodes": [1, 2], "string": "IXX", "jsq": 0.09},
            {"nodes": [0, 2], "string": "XIX", "jsq": 0.09},
        ],
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _wide_rows(path):
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            if header is None:
                header = line.strip().split(",")
            else:
                rows.append([float(x) for x in line.strip().split(",")])
    return header, rows


class TestBoundCommand:
    def test_ordering_rowwise(self, chain9, tmp_path):
        out = str(tmp_path / "b.csv")
        rc = main(
            ["bound", "--graph", chain9, "--i", "1", "--j", "7", "--tmax", "2",
             "--steps", "5", "--bound", "all", "--out", out]
        )
        assert rc == 0
        curves, config = read_curves_csv(out)
        by_label = {c.label: c for c in curves}
        assert set(by_label) == {"thm3", "cor6", "lr"}
        assert config["graph"] == chain9
        for a, b, c in zip(
            by_label["thm3"].values, by_label["cor6"].values, by_label["lr"].values
        ):
            assert a <= b + 1e-12
            assert b <= c + 1e-9

    def test_rerun_bit_identical(self, chain9, tmp_path):
        args = ["bound", "--graph", chain9, "--i", "0", "--j", "6", "--tmax",
                "1.5", "--steps", "7"]
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_single_bound_with_alpha(self, chain9, tmp_path):
        out = str(tmp_path / "lr.csv")
        rc = main(
            ["bound", "--graph", chain9, "--i", "0", "--j", "8", "--tmax", "1",
             "--steps", "3", "--bound", "lr", "--alpha", "2.5", "--out", out]
        )
        assert rc == 0
        curves, _ = read_curves_csv(out)
        assert [c.label for c in curves] == ["lr"]

    def test_bad_steps_is_config_error(self, chain9, capsys):
        assert main(["bound", "--graph", chain9, "--i", "0", "--j", "1",
                     "--tmax", "1", "--steps", "1"]) == 2
        assert "steps" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["bound", "--graph", str(tmp_path / "nope.json"), "--i",
                     "0", "--j", "1", "--tmax", "1", "--steps", "2"]) == 4
        capsys.readouterr()

    def test_bad_alpha_is_config_error(self, chain9):
        assert main(["bound", "--graph", chain9, "--i", "0", "--j", "1",
                     "--tmax", "1", "--steps", "2", "--bound", "lr",
                     "--alpha", "fast"]) == 2


class TestGraphCommand:
    def test_json_info(self, chain9, capsys):
        rc = main(["graph", "--graph", chain9, "--i", "2", "--j", "6",
                   "--format", "json"])
        assert rc == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_nodes"] == 9
        assert info["n_factors"] == 8
        assert info["genus"] == 0
        assert info["distance"] == 8
        assert info["d_tilde"] == 4.0


class TestSimulateCommand:
    def test_methods_agree(self, terms4, tmp_path):
        base = ["simulate", "--terms", terms4, "--i", "0", "--j", "3",
                "--tmax", "1.2", "--steps", "4"]
        d_out = str(tmp_path / "d.csv")
        k_out = str(tmp_path / "k.csv")
        assert main(base + ["--method", "dense", "--out", d_out]) == 0
        assert main(base + ["--method", "krylov", "--out", k_out]) == 0
        (dense,), _ = read_curves_csv(d_out)
        (krylov,), _ = read_curves_csv(k_out)
        assert dense.label == "c_exact"
        for dv, kv in zip(dense.values, krylov.values):
            assert dv == pytest.approx(kv, abs=1e-8)

    def test_graph_membership_validated(self, terms4, tmp_path):
        # terms live on a 4-site chain; a 2-site graph lacks those factors
        gpath = tmp_path / "tiny.json"
        gpath.write_text(graph_to_json(standard_graph("chain", 2)))
        assert main(["simulate", "--terms", terms4, "--graph", str(gpath),
                     "--i", "0", "--j", "1", "--tmax", "1", "--steps", "2"]) == 2

    def test_majorana_terms(self, tmp_path):
        payload = {
            "kind": "majorana",
            "n": 6,
            "terms": [
                {"string": [1, 2, 3, 4], "coupling": 0.8},
                {"string": [3, 4, 5, 6], "coupling": -0.5},
            ],
        }
        path = tmp_path / "maj.json"
        path.write_text(json.dumps(payload))
        out = str(tmp_path / "m.csv")
        rc = main(["simulate", "--terms", str(path), "--i", "1", "--j", "6",
                   "--tmax", "0.8", "--steps", "3", "--out", out])
        assert rc == 0
        (curve,), _ = read_curves_csv(out)
        assert all(0.0 <= v <= 1.0 for v in curve.values)


class TestEnsembleCommand:
    def test_seeded_and_bounded(self, triangle_spec_file, tmp_path):
        args = ["ensemble", "--spec", triangle_spec_file, "--i", "0", "--j",
                "2", "--tmax", "1", "--steps", "4", "--samples", "25",
                "--seed", "3"]
        out1, out2 = str(tmp_path / "e1.csv"), str(tmp_path / "e2.csv")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        curves, config = read_curves_csv(out1)
        by_label = {c.label: c for c in curves}
        assert set(by_label) == {"mc_mean", "mc_stderr"}
        assert all(0.0 <= v <= 1.0 for v in by_label["mc_mean"].values)
        assert config["seed"] == 3

    def test_builder_spec(self, tmp_path, capsys):
        spec = tmp_path / "syk.json"
        spec.write_text(json.dumps({"builder": "syk", "n_majorana": 8, "q": 4}))
        rc = main(["ensemble", "--spec", str(spec), "--i", "1", "--j", "8",
                   "--tmax", "0.2", "--steps", "2", "--samples", "3",
                   "--seed", "5", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {c["label"] for c in payload["curves"]} == {"mc_mean", "mc_stderr"}

    def test_unknown_builder(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"builder": "ising"}))
        assert main(["ensemble", "--spec", str(spec), "--i", "0", "--j", "1",
                     "--tmax", "1", "--steps", "2", "--samples", "2",
                     "--seed", "0"]) == 2


class TestMalformedInput:
    """Malformed JSON entries end in an exit code, not a traceback."""

    @staticmethod
    def _run(tmp_path, command, flag, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        extra = ["--samples", "2", "--seed", "0"] if command == "ensemble" else []
        return main([command, flag, str(path), "--i", "0", "--j", "1",
                     "--tmax", "1", "--steps", "2"] + extra)

    @pytest.mark.parametrize("payload", [
        {"N": 3, "factors": [{"flavor": 0}]},
        {"N": 3, "factors": [{"nodes": 5}]},
        {"N": "x", "factors": [{"nodes": [0, 1]}]},
        {"N": 2.5, "factors": [{"nodes": [0, 1]}]},
        {"N": 3, "factors": 5},
        {"N": 3, "factors": [{"nodes": [0, 1], "weight": "heavy"}]},
    ])
    def test_graph_is_io_error(self, tmp_path, capsys, payload):
        assert self._run(tmp_path, "bound", "--graph", payload) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"string": "XX"},
        {"coupling": 0.5},
        {"string": "XQ", "coupling": 0.5},
        "XX",
    ])
    def test_terms_are_config_error(self, tmp_path, capsys, entry):
        payload = {"kind": "pauli", "n": 2, "terms": [entry]}
        assert self._run(tmp_path, "simulate", "--terms", payload) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"string": "XX", "jsq": 0.1},
        {"nodes": [0, 1], "jsq": 0.1},
        {"nodes": [0, 1], "string": "XX"},
        {"nodes": 1, "string": "XX", "jsq": 0.1},
    ])
    def test_spec_is_config_error(self, tmp_path, capsys, entry):
        payload = {"kind": "pauli", "n": 2, "entries": [entry]}
        assert self._run(tmp_path, "ensemble", "--spec", payload) == 2
        assert "error:" in capsys.readouterr().err


class TestFiguresCommand:
    def test_lr_columns(self, tmp_path):
        out = str(tmp_path / "lr.csv")
        assert main(["figures", "lr", "--out", out]) == 0
        header, rows = _wide_rows(out)
        assert header == ["t", "thm3", "cor6", "lr_alpha"]
        assert len(rows) == 20
        t0 = rows[0]
        # at the earliest time the path sum and its exponential completion
        # agree closely, and both sit under the velocity envelope
        assert t0[1] <= t0[2] <= t0[3]
        assert t0[1] == pytest.approx(t0[2], rel=0.05)
        for row in rows:
            assert row[1] <= row[2] + 1e-15

    def test_syk_columns(self, tmp_path):
        out = str(tmp_path / "syk.csv")
        assert main(["figures", "syk", "--out", out]) == 0
        header, rows = _wide_rows(out)
        assert header == ["q", "rate_ratio_bound", "rate_ratio_largeq_exact"]
        assert rows[0][0] == 2.0
        assert rows[0][1] == pytest.approx(math.sqrt(0.5))
        assert all(row[2] == 1.0 for row in rows)
        ratios = [row[1] for row in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] < 1.0


class TestCheckCommand:
    def test_all_pass(self, capsys):
        assert main(["check", "all"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("ok ") >= 8

    def test_single_group(self, capsys):
        assert main(["check", "bounds"]) == 0
        out = capsys.readouterr().out
        assert all(line.startswith("ok bounds:") for line in out.strip().splitlines())


class TestThreadCap:
    def test_invalid_cap_rejected(self, monkeypatch):
        monkeypatch.setenv("LIGHTCONE_THREADS", "many")
        assert main(["check", "combinatorics"]) == 2

    def test_cap_exports(self, monkeypatch, capsys):
        monkeypatch.setenv("LIGHTCONE_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["check", "combinatorics"]) == 0
        import os

        assert os.environ["OMP_NUM_THREADS"] == "1"
        capsys.readouterr()


# reads the live OpenBLAS pool size the way perfbench/worker.py does
_LIVE_BLAS_THREADS = """
import ctypes
import lightcone
import numpy
counts = []
with open("/proc/self/maps") as fh:
    libs = {l.split()[-1] for l in fh if "openblas" in l and l.rstrip().endswith(".so")}
for path in sorted(libs):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            counts.append(fn())
            break
print(max(counts) if counts else -1)
"""


def test_thread_cap_reaches_openblas():
    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in pools}
    env["LIGHTCONE_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(lightcone.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _LIVE_BLAS_THREADS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    live = int(out.stdout)
    if live < 0:
        pytest.skip("no OpenBLAS thread-count symbol in this process")
    assert live == 1


def test_suite_runs_one_blas_thread():
    # tests/conftest.py sets the pool variables to 1 before numpy loads,
    # unless a pool size was set explicitly
    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    if any(os.environ.get(var, "1") != "1" for var in (*pools, "LIGHTCONE_THREADS")):
        pytest.skip("pool size set explicitly for this run")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_LIVE_BLAS_THREADS, {})
    live = int(out.getvalue())
    if live < 0:
        pytest.skip("no OpenBLAS thread-count symbol in this process")
    assert live == 1


def test_invalid_thread_cap_does_not_break_import():
    env = dict(os.environ, LIGHTCONE_THREADS="many")
    env["PYTHONPATH"] = str(Path(lightcone.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", "import lightcone"], env=env, check=True)
