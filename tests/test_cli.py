import csv
import io
import json
import random
import tomllib

import pytest

import ladrating
from ladrating import (
    DEFAULT_SCALE,
    CountryRecord,
    Dataset,
    RatingScale,
    classify,
    import_decision_tree,
    load_dataset,
    serialize_dataset,
)
from ladrating.cli import (
    EXIT_CONTRADICTION,
    EXIT_COVERAGE,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from ladrating import cascade
from ladrating.cascade import TOOL_VERSION
from ladrating.synthetic import clustered_dataset, nested_dataset

from conftest import REPO_ROOT, TREE_DIR, TREE_YEARS, tree_text


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
    assert prov["tool_version"] == TOOL_VERSION


def test_one_version_string():
    # Bundles are stamped with TOOL_VERSION: it must follow a version bump.
    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["version"] == TOOL_VERSION
    assert ladrating.__version__ is TOOL_VERSION


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
    err = capsys.readouterr().err
    assert "stage 1 (AAA)" in err
    assert "X:2012 vs Y:2012" in err
    assert len(err.strip().splitlines()) == 1


def test_train_separates_values_whose_sum_overflows(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text(
        "country,year,rating,G\n"
        "A,2012,AAA,1.7e308\nB,2012,AAA,1.6e308\nC,2012,BM,1.0e308\nD,2012,BM,0.9e308\n"
    )
    out = tmp_path / "m"
    assert main(["train", "--data", str(data), "--year", "2012", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    model = import_decision_tree((tmp_path / "m.tree.txt").read_text(), DEFAULT_SCALE, 2012)
    (pattern,) = model.stages[0].patterns
    (literal,) = pattern.literals
    assert literal.indicator == "G" and literal.direction == ">="
    assert 1.0e308 < literal.threshold < 1.6e308


@pytest.mark.parametrize(
    "low, high",
    [
        ("1", "1.0000000000000002"),  # their midpoint rounds down onto 1
        ("1.0000000000000002", "1.0000000000000004"),  # and up onto the higher one
    ],
)
@pytest.mark.parametrize("low_rating, high_rating", [("AAA", "BM"), ("BM", "AAA")])
def test_train_separates_adjacent_floats(tmp_path, capsys, low, high, low_rating, high_rating):
    data = tmp_path / "adjacent.csv"
    data.write_text(
        f"country,year,rating,G\nX,2012,{low_rating},{low}\nY,2012,{high_rating},{high}\n"
    )
    out = tmp_path / "m"
    assert main(["train", "--data", str(data), "--year", "2012", "--out", str(out)]) == EXIT_OK
    model = import_decision_tree((tmp_path / "m.tree.txt").read_text(), DEFAULT_SCALE, 2012)
    x = CountryRecord("X", 2012, {"G": float(low)})
    y = CountryRecord("Y", 2012, {"G": float(high)})
    # The cut point is the higher value: `G >= high` separates the two, but
    # `G <= high` holds for both, so a lower positive stays uncovered.
    assert classify(model, y) == high_rating
    log = (tmp_path / "m.train.log").read_text()
    if low_rating == "AAA":
        assert "stage 1 (AAA): uncovered positives X:2012" in log
        assert classify(model, x) == "BM"  # the fallback
    else:
        assert "uncovered" not in log
        assert classify(model, x) == low_rating


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


@pytest.mark.parametrize("command", ["classify", "suggest"])
@pytest.mark.parametrize("given", ["neither", "both"])
def test_records_need_exactly_one_source(command, given, train_csv, capsys):
    argv = [command, "--model", str(TREE_DIR / "tree_2012.txt"), "--lenient"]
    if given == "both":
        argv += ["--data", str(train_csv), "--country-values", "U=80,G=60000"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "--data" in captured.err and "--country-values" in captured.err


def test_data_row_without_values_is_rated(tmp_path, capsys):
    # An inline record needs a CODE=value pair; a CSV row may hold none.
    data = tmp_path / "rows.csv"
    data.write_text("country,year,G,U\nX,2012,60000,80\nZ,2012,,\n")
    argv = ["classify", "--model", str(TREE_DIR / "tree_2012.txt"), "--lenient", "--data", str(data)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "X,2012,classified,AAA\nZ,2012,classified,BM\n"


@pytest.mark.parametrize("command", ["classify", "suggest"])
def test_output_is_csv_for_quoted_ids(command, tmp_path, capsys):
    # World Bank names carry commas: an id with a comma or a quote is written quoted.
    data = tmp_path / "rows.csv"
    data.write_text('country,year,G,U\n"Korea, Rep.",2012,60000,80\n"Cote d""Ivoire",2012,,\nX,2012,,\n')
    argv = [command, "--model", str(TREE_DIR / "tree_2012.txt"), "--lenient", "--data", str(data)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    kind = "suggested" if command == "suggest" else "classified"
    assert list(csv.reader(io.StringIO(out))) == [
        ["Korea, Rep.", "2012", kind, "AAA"],
        ['Cote d"Ivoire', "2012", kind, "BM"],
        ["X", "2012", kind, "BM"],
    ]
    assert out.splitlines()[-1] == f"X,2012,{kind},BM"  # a plain id is written as before


@pytest.mark.parametrize("command", ["classify", "suggest"])
def test_data_without_rows_prints_nothing(command, tmp_path, capsys):
    data = tmp_path / "rows.csv"
    data.write_text("country,year,G,U\n")
    argv = [command, "--model", str(TREE_DIR / "tree_2012.txt"), "--lenient", "--data", str(data)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == ""


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


GOOD_CSV = "country,year,rating,G\nX,2012,AAA,1\nY,2012,BM,2\n"

BAD_INPUTS = {
    "nan-cell": ("country,year,rating,G\nX,2012,AAA,nan\nY,2012,BM,2\n", None, None, EXIT_PARSE),
    "inf-cell": ("country,year,rating,G\nX,2012,AAA,1\nY,2012,BM,-inf\n", None, None, EXIT_PARSE),
    "short-row": ("country,year,rating,G\nX,2012,AAA,1\nY\n", None, None, EXIT_PARSE),
    "bad-inline-value": (None, "G=abc", None, EXIT_PARSE),
    "nan-inline-value": (None, "U=nan,G=nan", None, EXIT_PARSE),
    "inf-inline-value": (None, "U=80,G=-inf", None, EXIT_PARSE),
    "missing-config": (None, "G=1", "absent.json", EXIT_IO),
    "malformed-config": (None, "G=1", "{not json", EXIT_PARSE),
    "relaxation-not-number": (GOOD_CSV, None, None, EXIT_PARSE),
    "relaxation-config-not-string": (GOOD_CSV, None, '{"relaxation": 5}', EXIT_PARSE),
    "degree-config-not-int": (GOOD_CSV, None, '{"degree": 2.5}', EXIT_PARSE),
    "homogeneity-config-null": (GOOD_CSV, None, '{"homogeneity": null}', EXIT_PARSE),
    "prevalence-config-string": (GOOD_CSV, None, '{"prevalence": "abc"}', EXIT_PARSE),
    "repeated-header-column": (
        "country,year,rating,G,G\nX,2012,AAA,1,1\nY,2012,BM,2,2\n", None, None, EXIT_PARSE
    ),
    "year-before-range": ("country,year,rating,G\nX,1899,AAA,1\nY,2012,BM,2\n", None, None, EXIT_PARSE),
    "year-after-range": ("country,year,rating,G\nX,2012,AAA,1\nY,2101,BM,2\n", None, None, EXIT_PARSE),
    "no-indicator-columns": (
        "country,year,rating,gdp\nX,2012,AAA,1\nY,2012,BM,2\n", None, None, EXIT_PARSE
    ),
    "empty-inline-code": (None, "=1", None, EXIT_PARSE),
    "empty-inline-record": (None, "", None, EXIT_PARSE),
    "inline-record-without-pairs": (None, ",", None, EXIT_PARSE),
    "repeated-inline-code": (None, "U=80,G=1,G=60000", None, EXIT_PARSE),
    "unknown-inline-code": (None, "U=80,GDP=60000", None, EXIT_PARSE),
    "overflowing-threshold": (None, None, None, EXIT_PARSE),
    "overflowing-threshold-lenient": (None, None, None, EXIT_PARSE),
}
EXTRA_FLAGS = {
    "relaxation-not-number": ["--relaxation", "abc"],
    "overflowing-threshold-lenient": ["--lenient"],
}
#: Cases run through `import-tree` on this tree text.
TREE_TEXT = {
    "overflowing-threshold": "AAA\t(G >= 1e999)\n",
    "overflowing-threshold-lenient": "AAA\t(G >= 1e999)\n",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_without_traceback(case, tmp_path, monkeypatch, capsys):
    csv_text, inline, config, expected = BAD_INPUTS[case]
    if config is not None:
        path = tmp_path / "config.json"
        if config != "absent.json":
            path.write_text(config)
        monkeypatch.setenv("LADRATING_CONFIG", str(path))
    if case in TREE_TEXT:
        tree = tmp_path / "bad.txt"
        tree.write_text(TREE_TEXT[case])
        argv = ["import-tree", "--file", str(tree), "--year", "2012", "--out", str(tmp_path / "m")]
        argv += EXTRA_FLAGS.get(case, [])
    elif csv_text is not None:
        data = tmp_path / "bad.csv"
        data.write_text(csv_text)
        argv = ["train", "--data", str(data), "--year", "2012", "--out", str(tmp_path / "m")]
        argv += EXTRA_FLAGS.get(case, [])
    else:
        argv = ["classify", "--model", str(TREE_DIR / "tree_2012.txt"), "--lenient",
                "--country-values", inline]
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_unknown_data_column_warns_one_line(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    plain.write_text(GOOD_CSV)
    extra = tmp_path / "extra.csv"
    extra.write_text("country,year,rating,G,gdp\nX,2012,AAA,1,5\nY,2012,BM,2,6\n")
    assert main(["train", "--data", str(plain), "--year", "2012", "--out", str(tmp_path / "a")]) == EXIT_OK
    capsys.readouterr()
    runs = [
        ["train", "--data", str(extra), "--year", "2012", "--out", str(tmp_path / "b")],
        ["evaluate", "--model", str(tmp_path / "b.tree.txt"), "--data", str(extra)],
        ["classify", "--model", str(tmp_path / "b.tree.txt"), "--data", str(extra)],
    ]
    for argv in runs:
        assert main(argv) == EXIT_OK
        err = capsys.readouterr().err
        assert err == "warning: ignoring unknown column 'gdp'\n", argv
    for suffix in (".tree.txt", ".provenance.json", ".train.log"):
        assert (tmp_path / ("b" + suffix)).read_bytes() == (tmp_path / ("a" + suffix)).read_bytes()


def test_non_utf8_data_names_path_and_byte_offset(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(GOOD_CSV.replace("X,", "Curaçao,").encode("latin-1"))
    offset = GOOD_CSV.index("X,") + len("Cura")
    code = main(["train", "--data", str(data), "--year", "2012", "--out", str(tmp_path / "m")])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: not UTF-8 text at byte offset {offset} ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_byte_order_mark_before_header_trains(tmp_path, capsys):
    data = tmp_path / "bom.csv"
    data.write_text(GOOD_CSV, encoding="utf-8-sig")
    out = tmp_path / "m"
    assert main(["train", "--data", str(data), "--year", "2012", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert "AAA\t(G <= 1.5)\n" in (tmp_path / "m.tree.txt").read_text()


@pytest.mark.parametrize("sidecar_text", ["{bad", "[]"])
def test_malformed_provenance_sidecar_exits_parse(sidecar_text, tmp_path, capsys):
    out = tmp_path / "m2012"
    assert main([
        "import-tree", "--file", str(TREE_DIR / "tree_2012.txt"),
        "--year", "2012", "--lenient", "--out", str(out),
    ]) == EXIT_OK
    sidecar = tmp_path / "m2012.provenance.json"
    sidecar.write_text(sidecar_text)
    capsys.readouterr()
    assert main([
        "classify", "--model", str(out) + ".tree.txt", "--lenient",
        "--country-values", "U=80,G=60000",
    ]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and str(sidecar) in err


def test_wrong_typed_config_value_names_the_key(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"prevalence": "abc"}')
    monkeypatch.setenv("LADRATING_CONFIG", str(config))
    data = tmp_path / "good.csv"
    data.write_text(GOOD_CSV)
    argv = ["train", "--data", str(data), "--year", "2012", "--out", str(tmp_path / "m")]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: $LADRATING_CONFIG file {config}: 'prevalence' must be a number, got 'abc'\n"
    )


def _probe_records(n=300, seed=0):
    """Unrated records on, between and missing the published trees' thresholds."""
    cuts: dict[str, set] = {}
    for year in TREE_YEARS:
        model = import_decision_tree(tree_text(year), DEFAULT_SCALE, year, strict=False)
        dnfs = model.stages + ((model.tail,) if model.tail else ())
        for lit in (lit for d in dnfs for p in d.patterns for lit in p.literals):
            cuts.setdefault(lit.indicator, set()).add(lit.threshold)
    rng = random.Random(seed)
    records = []
    for i in range(n):
        values = {}
        for code, thresholds in sorted(cuts.items()):
            if rng.random() < 0.1:
                continue  # missing
            values[code] = rng.choice(sorted(thresholds)) + rng.choice((-0.5, 0.0, 0.0, 0.5))
        records.append(CountryRecord(f"probe{i:03d}", 2012, values))
    return records


@pytest.mark.parametrize("fallback", [None, "unclassified"])
@pytest.mark.parametrize("command", ["classify", "suggest"])
@pytest.mark.parametrize("year", TREE_YEARS)
def test_data_output_matches_per_record_classify(year, command, fallback, tmp_path, capsys):
    data = tmp_path / "probes.csv"
    data.write_text(serialize_dataset(Dataset(records=tuple(_probe_records()))))
    argv = [command, "--model", str(TREE_DIR / f"tree_{year}.txt"), "--lenient",
            "--data", str(data)]
    argv += ["--fallback", fallback] if fallback else []
    assert main(argv) == EXIT_OK
    scale = RatingScale(DEFAULT_SCALE.classes, fallback_policy=fallback or "fallback-to-last")
    model = import_decision_tree(tree_text(year), scale, 0, strict=False)
    kind = "suggested" if command == "suggest" else "classified"
    expected = "".join(
        f"{r.country_id},{r.year},{kind},{classify(model, r) or 'UNCLASSIFIED'}\n"
        for r in load_dataset(data.read_text()).records
    )
    assert capsys.readouterr().out == expected


def test_data_output_on_a_trained_noisy_tree_matches_library_classify(noisy_tree, monkeypatch, capsys):
    # The exported tree of a model trained on weak-signal data has many
    # literals per code, so the CLI rates it through the rank kernel and
    # compiles nothing.
    tree, data, model = noisy_tree
    monkeypatch.setattr(cascade, "_compile_first_match", None)
    assert main(["classify", "--model", str(tree), "--data", str(data)]) == EXIT_OK
    expected = "".join(
        f"{r.country_id},{r.year},classified,{classify(model, r) or 'UNCLASSIFIED'}\n"
        for r in load_dataset(data.read_text()).records
    )
    assert capsys.readouterr().out == expected


def test_suggest_rejects_a_rated_record_and_writes_nothing(tmp_path, capsys):
    records = _probe_records(n=20)
    records[7] = CountryRecord(records[7].country_id, 2012, records[7].values, "AA")
    data = tmp_path / "probes.csv"
    data.write_text(serialize_dataset(Dataset(records=tuple(records))))
    out = tmp_path / "suggested.csv"
    assert main([
        "suggest", "--model", str(TREE_DIR / "tree_2012.txt"), "--lenient",
        "--data", str(data), "--out", str(out),
    ]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: probe007:2012 already carries rating 'AA'\n"
    assert not out.exists()


@pytest.mark.parametrize("lenient", [[], ["--lenient"]])
@pytest.mark.parametrize("text", ["", "# note\n\n"])
def test_tree_without_a_stage_line_exits_parse_and_writes_nothing(text, lenient, tmp_path, capsys):
    tree = tmp_path / "empty.txt"
    tree.write_text(text)
    classify = ["classify", "--model", str(tree), "--country-values", "G=1"]
    assert main(classify + lenient) == EXIT_PARSE
    imported = ["import-tree", "--file", str(tree), "--year", "2012", "--out", str(tmp_path / "m")]
    assert main(imported + lenient) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tree text holds no stage line\n" * 2
    assert list(tmp_path.iterdir()) == [tree]


def test_dotted_bundle_prefixes_keep_their_own_files(tmp_path, capsys):
    # Each suffix is appended to the prefix: `fitch.2012` and `fitch.2013`
    # are two bundles, and each classify reads its own sidecar's policy.
    for year, fallback in ((2012, "fallback-to-last"), (2013, "unclassified")):
        assert main([
            "import-tree", "--file", str(TREE_DIR / f"tree_{year}.txt"), "--year", str(year),
            "--lenient", "--fallback", fallback, "--out", str(tmp_path / f"fitch.{year}"),
        ]) == EXIT_OK
        assert capsys.readouterr().out == f"wrote {tmp_path / f'fitch.{year}.tree.txt'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fitch.2012.provenance.json", "fitch.2012.tree.txt",
        "fitch.2013.provenance.json", "fitch.2013.tree.txt",
    ]
    for year, rating in ((2012, "BM"), (2013, "UNCLASSIFIED")):
        prov = json.loads((tmp_path / f"fitch.{year}.provenance.json").read_text())
        assert prov["year"] == year
        assert main([
            "classify", "--model", str(tmp_path / f"fitch.{year}.tree.txt"), "--lenient",
            "--country-values", "EX=1",
        ]) == EXIT_OK
        assert capsys.readouterr().out == f"cli,0,classified,{rating}\n"
