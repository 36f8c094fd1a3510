"""The CLI in a fresh interpreter: numpy is imported on first use, and
outputs do not depend on the locale's encoding."""

import json
import os
import subprocess
import sys

import pytest

from ladrating import _numpy, serialize_dataset
from ladrating.cli import EXIT_IO, EXIT_OK, main
from ladrating.synthetic import clustered_dataset

from conftest import REPO_ROOT, TREE_DIR

#: Runs `main(argv)` with stdout captured; prints whether numpy's core was
#: loaded before and after, and the exit code.
PROBE = """
import contextlib, io, json, sys
from ladrating.cli import main
before = "numpy._core" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([before, "numpy._core" in sys.modules, code]))
"""

#: An environment whose locale encodes ASCII only.
C_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}

UNRATED_CSV = "country,year,G,U\nX,2015,60000,80\nCôte,2015,900,12\nZ,2015,,\n"


def run_fresh(args, extra_env=None):
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


def probe(argv):
    """(numpy loaded before main, numpy loaded after, exit code) of `argv`
    run in a fresh interpreter."""
    proc = run_fresh(["-c", PROBE, json.dumps(argv)])
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def test_np_is_numpy_once_numpy_is_imported():
    assert _numpy.np is sys.modules["numpy"]


def test_import_does_not_load_numpy():
    proc = run_fresh(["-c", "import ladrating, sys; assert 'numpy._core' not in sys.modules"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", [
    "classify-data", "classify-noisy-tree", "classify-values", "suggest", "import-tree",
    "export-tree", "report-keyvars",
])
def test_command_does_not_load_numpy(command, tmp_path, noisy_tree):
    data = tmp_path / "unrated.csv"
    data.write_text(UNRATED_CSV, encoding="utf-8")
    tree = ["--model", str(TREE_DIR / "tree_2015.txt"), "--lenient"]
    argv = {
        "classify-data": ["classify", *tree, "--data", str(data)],
        # A trained tree with many literals per code, rated through ranks.
        "classify-noisy-tree": ["classify", "--model", str(noisy_tree[0]), "--data", str(noisy_tree[1])],
        "classify-values": ["classify", *tree, "--country-values", "U=80,G=60000"],
        "suggest": ["suggest", *tree, "--data", str(data)],
        "import-tree": ["import-tree", "--file", str(TREE_DIR / "tree_2012.txt"), "--year", "2012",
                        "--lenient", "--out", str(tmp_path / "m")],
        "export-tree": ["export-tree", *tree],
        "report-keyvars": ["report-keyvars", *tree],
    }[command]
    assert probe(argv) == (False, False, EXIT_OK)


def test_train_and_evaluate_match_in_process_bytes(tmp_path, capsys):
    # Relaxation off: some stages ship partial, so .train.log has notes.
    data = tmp_path / "train.csv"
    data.write_text(serialize_dataset(clustered_dataset(seed=2, n_records=48)))
    outputs = {}
    for side in ("fresh", "inproc"):
        train = ["train", "--data", str(data), "--year", "2012", "--relaxation", "",
                 "--split-fraction", "0.6", "--seed", "3", "--out", str(tmp_path / side)]
        evaluate = ["evaluate", "--model", str(tmp_path / side) + ".tree.txt", "--data", str(data),
                    "--split-fraction", "0.6", "--seed", "3", "--out", str(tmp_path / (side + "-eval"))]
        for argv in (train, evaluate):
            if side == "fresh":
                assert probe(argv) == (False, True, EXIT_OK)
            else:
                assert main(argv) == EXIT_OK
        outputs[side] = [
            (tmp_path / (side + suffix)).read_bytes()
            for suffix in (".tree.txt", ".provenance.json", ".train.log",
                           "-eval.report.txt", "-eval.report.json")
        ]
    capsys.readouterr()
    assert outputs["fresh"][2], "expected notes in .train.log"
    assert outputs["fresh"] == outputs["inproc"]


@pytest.mark.parametrize("to_file", [False, True])
def test_classify_under_an_ascii_locale(to_file, tmp_path):
    data = tmp_path / "unrated.csv"
    data.write_text(UNRATED_CSV, encoding="utf-8")
    out = tmp_path / "rated.csv"
    argv = ["-m", "ladrating.cli", "classify", "--model", str(TREE_DIR / "tree_2015.txt"),
            "--lenient", "--data", str(data)] + (["--out", str(out)] if to_file else [])
    proc = run_fresh(argv, C_LOCALE)
    if to_file:
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert "Côte,2015,classified," in out.read_bytes().decode("utf-8")
    else:
        assert proc.returncode == EXIT_IO
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("i/o error: stdout (ascii) cannot encode") and line.endswith("use --out")


def test_train_log_is_utf8_under_an_ascii_locale(tmp_path):
    # Between adjacent floats the AAA record stays uncovered: the log names it.
    data = tmp_path / "adjacent.csv"
    data.write_text("country,year,rating,G\nCôte,2012,AAA,1\nY,2012,BM,1.0000000000000002\n",
                    encoding="utf-8")
    out = tmp_path / "m"
    proc = run_fresh(["-m", "ladrating.cli", "train", "--data", str(data), "--year", "2012",
                      "--out", str(out)], C_LOCALE)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    log = (tmp_path / "m.train.log").read_bytes().decode("utf-8")
    assert "uncovered positives Côte:2012" in log
