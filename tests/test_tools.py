"""The tools under tools/: the stage benchmark run end to end as a user runs
it, and compare_fits's comparison of dumps on small synthetic ones."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _bench_cli(tmp_path, *args):
    return subprocess.run(
        [sys.executable, "tools/bench_cli.py", "--n", "300", "--seeds", "1", "--repeat", "1",
         "--out", str(tmp_path / "bench.json"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_bench_cli_times_the_stages_of_one_command(tmp_path):
    proc = _bench_cli(tmp_path, "--kind", "rc", "ic1", "--tree", "head=src")
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "bench.json").read_text())
    assert report["stages"] == {
        "rc": ["import", "load", "km_fit", "pseudo_map", "output", "other", "cli", "regress"],
        "ic1": ["import", "load", "prepare", "fit", "pseudo_map", "output", "other", "cli"],
    }
    assert [run["kind"] for run in report["runs"]] == ["rc", "ic1"]
    for run in report["runs"]:
        seconds = run["seconds"]
        assert list(seconds) == report["stages"][run["kind"]]
        # the stages are disjoint parts of the one timed command
        assert seconds["other"] >= 0
        assert 0 <= run["python_share"] < 0.1
        assert all(value > 0 for stage, value in seconds.items() if stage != "other")
        # the process peak so far after each stage but `other`
        peaks = run["peak_rss_mb"]
        assert list(peaks) == [stage for stage in seconds if stage != "other"]
        assert min(peaks.values()) > 0
        assert peaks["import"] <= peaks["cli"]
        if run["kind"] == "rc":
            assert run["output_sha256"] and run["regress_sha256"]
        else:
            assert seconds["prepare"] <= seconds["fit"]


def test_bench_cli_alternates_the_tree_order(tmp_path):
    proc = _bench_cli(tmp_path, "--kind", "rc", "--seeds", "1", "2",
                      "--tree", "a=src", "--tree", "b=src")
    assert proc.returncode == 0, proc.stderr
    runs = json.loads((tmp_path / "bench.json").read_text())["runs"]
    assert [(run["tree"], run["seed"]) for run in runs] == [("a", 1), ("b", 1), ("b", 2), ("a", 2)]


def test_bench_cli_shows_a_failing_worker_error(tmp_path):
    broken = tmp_path / "broken" / "pseudosurv"
    broken.mkdir(parents=True)
    (broken / "__init__.py").write_text('raise RuntimeError("broken tree")\n')
    proc = _bench_cli(tmp_path, "--kind", "rc", "--tree", f"broken={broken.parent}")
    assert proc.returncode != 0
    assert "RuntimeError: broken tree" in proc.stderr


def test_bench_cli_times_prepare_of_the_full_sample_only(tmp_path):
    """From 2^17 records fit_pch also prepares its pilot's likelihood; that
    call counts in `fit` alone, so `prepare` still runs once per command."""
    proc = _bench_cli(tmp_path, "--kind", "ic1", "--n", "131072", "--tree", "head=src")
    assert proc.returncode == 0, proc.stderr
    (run,) = json.loads((tmp_path / "bench.json").read_text())["runs"]
    assert 0 < run["seconds"]["prepare"] <= run["seconds"]["fit"]


def _compare_fits():
    path = ROOT / "tools" / "compare_fits.py"
    spec = importlib.util.spec_from_file_location("compare_fits", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dumps(tmp_path, **trees):
    """One .npz dump per tree, as the compare_fits workers write them."""
    paths = {}
    for label, fields in trees.items():
        paths[label] = tmp_path / f"{label}.npz"
        np.savez(paths[label], **fields)
    return paths


def test_compare_fits_lists_only_the_cases_that_differ(tmp_path, capsys):
    compare_fits = _compare_fits()
    rates = np.array([0.1, 0.2, 0.3])
    fit = {"0/iterations": np.array(5), "0/rates": rates, "0/fast": np.linspace(1, 2, 7),
           "1/error": np.array("NonIdentifiable: rate of piece 1 collapsed")}
    cases = [{"name": "ic1 n=200 seed=1 rep=0"}, {"name": "ic2 n=300 seed=7 rep=3"}]

    same = _dumps(tmp_path, a=fit, b=dict(fit))
    assert compare_fits._compare(cases, same) == []
    assert capsys.readouterr().out == ""

    nudged = dict(fit, **{"0/rates": rates.copy()})
    nudged["0/rates"][1] = np.nextafter(rates[1], 1.0)
    retyped = dict(fit, **{"1/error": np.array("DidNotConverge: no convergence in 200 iterations")})
    changed = _dumps(tmp_path, a=fit, b=nudged, c=retyped)
    assert compare_fits._compare(cases, changed) == [cases[0]["name"], cases[1]["name"]]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"{cases[0]['name']}: a -> b: rates: 1 of 3 differ, by up to")
    assert out[1] == (f"{cases[1]['name']}: a -> c: error NonIdentifiable: rate of piece 1"
                      " collapsed -> DidNotConverge: no convergence in 200 iterations")
    gap = nudged["0/rates"][1] - rates[1]
    assert out[2:] == [
        f"a -> b: rates: 1 cases, 1 values, largest gap {gap:.3e} absolute,"
        f" {gap / nudged['0/rates'][1]:.3e} relative",
        "a -> c: error: 1 cases, 1 values",
    ]


def test_compare_fits_describes_a_field_change_in_short():
    describe = _compare_fits()._describe
    a = np.array([1.0, 2.0, np.nan, 4.0])
    b = np.array([1.0, 2.5, 3.0, 4.0])
    assert describe("fast", a, b) == "fast: 2 of 4 differ, by up to 5.000e-01"
    assert describe("fast", a, np.array([1.0, 2.0, np.inf, 4.0])) == "fast: 1 of 4 differ"
    flags = np.array([False, True, False, True])
    assert describe("flagged", np.zeros(4, dtype=bool), flags) == "flagged [] -> [1, 3]"
    assert describe("iterations", np.array(5), np.array(6)) == "iterations 5 -> 6"
    assert describe("jackknife", None, b) == "jackknife - -> 4 values"
