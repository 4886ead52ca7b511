"""The "same answers" script: two copies of this tree give identical files
on a two-run list, and a moved CSV cell or dump entry shows in its report
and table with its absolute and relative change."""

import importlib.util
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "same_answers.py"
CSV = """# hdgcd convergence v1: n,h,err_l2
# config: study=convergence n=2,4
2,7.071067811865e-01,4.000000000000e-02
4,3.535533905933e-01,1.000000000000e-02
"""


def load_script():
    spec = importlib.util.spec_from_file_location("same_answers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_script_imports_no_hdgcd_module():
    tree = SCRIPT.read_text()
    assert "import hdgcd" not in tree and "from hdgcd" not in tree


def test_two_copies_of_this_tree_give_identical_files(tmp_path):
    same = load_script()
    for side in ("a", "b"):
        shutil.copytree(ROOT / "src", tmp_path / side / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    runs = ("--n 2,4", "--study layer --epsilon 1e-6 --n 4")
    report = same.compare(tmp_path / "a", tmp_path / "b", runs, tmp_path / "work")
    assert list(report) == list(runs)
    assert all(record["differing"] == {} for record in report.values()), report
    # the CSV, the streams and exit code, and the layer row's three dumps
    assert report[runs[0]]["identical"] == ["exit_code.txt", "run.csv", "stderr.txt", "stdout.txt"]
    assert sum(name.endswith(".npy") for name in report[runs[1]]["identical"]) == 3
    assert (tmp_path / "work" / "change" / "run01" / "exit_code.txt").read_text() == "0\n"
    assert same.table(report).splitlines()[0].endswith("4 identical, 0 differing")


def test_a_moved_cell_and_dump_entry_are_reported(tmp_path):
    same = load_script()
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        side.mkdir()
        (side / "exit_code.txt").write_text("0\n")
        np.save(side / "run_uh_n4.npy", np.array([[0.0, 0.0, 2.0], [1.0, 0.0, -4.0]]))
    (a / "run.csv").write_text(CSV)
    (b / "run.csv").write_text(CSV.replace("1.000000000000e-02", "1.000000000100e-02"))
    np.save(b / "run_uh_n4.npy", np.array([[0.0, 0.0, 2.0], [1.0, 0.0, -4.0 + 2e-12]]))
    (b / "extra.txt").write_text("")
    record = same.compare_run(a, b)
    assert record["identical"] == ["exit_code.txt"]
    csv = record["differing"]["run.csv"]
    assert csv["comments_identical"] and list(csv["columns"]) == ["err_l2"]
    assert np.isclose(csv["columns"]["err_l2"]["abs"], 1e-12, rtol=1e-3)
    assert np.isclose(csv["columns"]["err_l2"]["rel"], 1e-10, rtol=1e-3)
    dump = record["differing"]["run_uh_n4.npy"]
    assert np.isclose(dump["abs"], 2e-12, rtol=1e-3) and np.isclose(dump["rel"], 5e-13, rtol=1e-3)
    assert record["differing"]["extra.txt"] == {"only_in": "change"}
    text = same.table({"--n 2,4": record})
    assert "run.csv: err_l2 1.0e-10 (abs 1.0e-12)" in text
    assert "run_uh_n4.npy: 5.0e-13 of max |value| (abs 2.0e-12)" in text
    assert "extra.txt: only in change" in text
    # a changed comment line and a dropped row are named too
    dropped = same.compare_csv(CSV, "\n".join(CSV.replace("n=2,4", "n=2").splitlines()[:-1]))
    assert not dropped["comments_identical"]
    assert dropped["columns"] == {"(rows)": {"abs": np.inf, "rel": np.inf}}
