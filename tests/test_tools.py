"""The benchmark tools under tools/, run end to end as a user runs them."""

import json
import subprocess
import sys
from pathlib import Path

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
        "rc": ["load", "km_fit", "pseudo_map", "output", "other", "cli", "regress"],
        "ic1": ["load", "prepare", "fit", "pseudo_map", "output", "other", "cli"],
    }
    assert [run["kind"] for run in report["runs"]] == ["rc", "ic1"]
    for run in report["runs"]:
        seconds = run["seconds"]
        assert list(seconds) == report["stages"][run["kind"]]
        # the stages are disjoint parts of the one timed command
        assert seconds["other"] >= 0
        assert 0 <= run["python_share"] < 0.1
        assert all(value > 0 for stage, value in seconds.items() if stage != "other")
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
