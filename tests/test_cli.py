import json

import pytest

from ladrating import serialize_dataset
from ladrating.cli import (
    EXIT_CONTRADICTION,
    EXIT_COVERAGE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from ladrating.synthetic import clustered_dataset, nested_dataset

from conftest import TREE_DIR


@pytest.fixture
def train_csv(tmp_path):
    path = tmp_path / "train.csv"
    path.write_text(serialize_dataset(nested_dataset(seed=1, n_records=64)))
    return path


def test_import_then_classify_inline_record(tmp_path, capsys):
    out = tmp_path / "m2012"
    assert main([
        "import-tree", "--file", str(TREE_DIR / "tree_2012.txt"),
        "--year", "2012", "--lenient", "--out", str(out),
    ]) == EXIT_OK
    capsys.readouterr()
    assert main([
        "classify", "--model", str(out) + ".tree.txt",
        "--country-values", "U=80,G=60000",
    ]) == EXIT_OK
    assert "AAA" in capsys.readouterr().out


def test_strict_import_of_published_table_fails(tmp_path):
    code = main([
        "import-tree", "--file", str(TREE_DIR / "tree_2012.txt"),
        "--year", "2012", "--out", str(tmp_path / "m"),
    ])
    assert code == EXIT_PARSE


def test_train_writes_bundle(train_csv, tmp_path):
    out = tmp_path / "model"
    code = main([
        "train", "--data", str(train_csv), "--year", "2012", "--out", str(out),
        "--degree", "3", "--prevalence", "0.70", "--homogeneity", "1.0",
    ])
    assert code == EXIT_OK
    assert (tmp_path / "model.tree.txt").exists()
    prov = json.loads((tmp_path / "model.provenance.json").read_text())
    assert prov["config"]["max_degree"] == 3
    assert prov["year"] == 2012


def test_train_outputs_are_byte_identical_across_runs(train_csv, tmp_path):
    args = ["train", "--data", str(train_csv), "--year", "2012",
            "--split-fraction", "0.6", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
    for suffix in (".tree.txt", ".provenance.json", ".train.log"):
        assert (tmp_path / ("a" + suffix)).read_bytes() == (
            tmp_path / ("b" + suffix)
        ).read_bytes()


def test_train_contradiction_exit_code(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_text("country,year,rating,G\nX,2012,AAA,1\nY,2012,BM,1\n")
    code = main([
        "train", "--data", str(data), "--year", "2012",
        "--out", str(tmp_path / "m"),
    ])
    assert code == EXIT_CONTRADICTION
    assert "stage 1 (AAA)" in capsys.readouterr().err


def test_train_coverage_failure_exit_code(tmp_path):
    # two separated positive islands, relaxation disabled, full coverage demanded
    data = tmp_path / "thin.csv"
    ds = clustered_dataset(seed=2, n_records=48)
    data.write_text(serialize_dataset(ds))
    code = main([
        "train", "--data", str(data), "--year", "2012",
        "--out", str(tmp_path / "m"),
        "--relaxation", "", "--require-full-coverage",
    ])
    assert code == EXIT_COVERAGE


def test_evaluate_without_labels_fails(train_csv, tmp_path, capsys):
    out = tmp_path / "model"
    assert main([
        "train", "--data", str(train_csv), "--year", "2012", "--out", str(out),
    ]) == EXIT_OK
    empty = tmp_path / "empty.csv"
    empty.write_text("country,year,rating,G\n")
    code = main([
        "evaluate", "--model", str(out) + ".tree.txt", "--data", str(empty),
    ])
    assert code == EXIT_PARSE
    assert "no labeled records" in capsys.readouterr().err


def test_evaluate_reports_both_formats(train_csv, tmp_path):
    model = tmp_path / "model"
    assert main([
        "train", "--data", str(train_csv), "--year", "2012", "--out", str(model),
    ]) == EXIT_OK
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--model", str(model) + ".tree.txt",
        "--data", str(train_csv), "--out", str(out),
    ])
    assert code == EXIT_OK
    assert (tmp_path / "eval.report.txt").exists()
    report = json.loads((tmp_path / "eval.report.json").read_text())
    assert report["match_ratio_overall"] == 1.0


def test_export_tree_round_trip(tmp_path, capsys):
    out = tmp_path / "m"
    assert main([
        "import-tree", "--file", str(TREE_DIR / "tree_2013.txt"),
        "--year", "2013", "--lenient", "--out", str(out),
    ]) == EXIT_OK
    capsys.readouterr()
    assert main(["export-tree", "--model", str(out) + ".tree.txt"]) == EXIT_OK
    exported = capsys.readouterr().out
    assert exported == (tmp_path / "m.tree.txt").read_text()


def test_report_keyvars(tmp_path, capsys):
    out = tmp_path / "m"
    assert main([
        "import-tree", "--file", str(TREE_DIR / "tree_2012.txt"),
        "--year", "2012", "--lenient", "--out", str(out),
    ]) == EXIT_OK
    capsys.readouterr()
    assert main(["report-keyvars", "--model", str(out) + ".tree.txt"]) == EXIT_OK
    output = capsys.readouterr().out
    assert "AAA\tG\t" in output


def test_help_lists_published_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "0.7" in text and "default 3" in text


def test_suggest_flags_output(tmp_path, capsys):
    out = tmp_path / "m"
    assert main([
        "import-tree", "--file", str(TREE_DIR / "tree_2012.txt"),
        "--year", "2012", "--lenient", "--out", str(out),
    ]) == EXIT_OK
    capsys.readouterr()
    assert main([
        "suggest", "--model", str(out) + ".tree.txt",
        "--country-values", "U=80,G=60000",
    ]) == EXIT_OK
    assert "suggested,AAA" in capsys.readouterr().out


def test_explicit_fallback_overrides_bundle_policy(tmp_path, capsys):
    data = tmp_path / "train.csv"
    data.write_text(serialize_dataset(nested_dataset(seed=1, n_records=48)))
    out = tmp_path / "m"
    assert main([
        "train", "--data", str(data), "--year", "2012", "--out", str(out),
    ]) == EXIT_OK
    classify = ["classify", "--model", str(out) + ".tree.txt", "--country-values", "EX=1"]
    capsys.readouterr()
    assert main(classify) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith(",BM")
    assert main(classify + ["--fallback", "unclassified"]) == EXIT_OK
    assert capsys.readouterr().out.strip().endswith(",UNCLASSIFIED")


BAD_INPUTS = {
    "nan-cell": ("country,year,rating,G\nX,2012,AAA,nan\nY,2012,BM,2\n", None, None, EXIT_PARSE),
    "inf-cell": ("country,year,rating,G\nX,2012,AAA,1\nY,2012,BM,-inf\n", None, None, EXIT_PARSE),
    "short-row": ("country,year,rating,G\nX,2012,AAA,1\nY\n", None, None, EXIT_PARSE),
    "bad-inline-value": (None, "G=abc", None, EXIT_PARSE),
    "missing-config": (None, "G=1", "absent.json", EXIT_IO),
    "malformed-config": (None, "G=1", "{not json", EXIT_PARSE),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_without_traceback(case, tmp_path, monkeypatch, capsys):
    csv_text, inline, config, expected = BAD_INPUTS[case]
    if config is not None:
        path = tmp_path / "config.json"
        if config != "absent.json":
            path.write_text(config)
        monkeypatch.setenv("LADRATING_CONFIG", str(path))
    if csv_text is not None:
        data = tmp_path / "bad.csv"
        data.write_text(csv_text)
        argv = ["train", "--data", str(data), "--year", "2012", "--out", str(tmp_path / "m")]
    else:
        argv = ["classify", "--model", str(TREE_DIR / "tree_2012.txt"), "--lenient",
                "--country-values", inline]
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
