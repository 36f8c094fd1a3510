import random

import pytest

from ladrating import (
    CountryRecord,
    DEFAULT_SCALE,
    BUILTIN_INDICATORS,
    DecisionTreeParseError,
    classify,
    export_decision_tree,
    import_decision_tree,
)
from ladrating.treetext import parse_literal

from conftest import TREE_YEARS, tree_text


def probe_records(seed, n=200, year=2012):
    rng = random.Random(seed)
    codes = [i.code for i in BUILTIN_INDICATORS]
    records = []
    for i in range(n):
        values = {
            c: rng.uniform(-20.0, 60000.0) for c in codes if rng.random() < 0.8
        }
        records.append(CountryRecord(f"probe{i}", year, values))
    return records


class TestImport:
    def test_tree_2012_classifies_aaa(self, tree_2012_model):
        rec = CountryRecord("probe", 2012, {"U": 80.0, "G": 60000.0})
        assert classify(tree_2012_model, rec) == "AAA"

    def test_no_case_stage_matches_nothing(self):
        model = import_decision_tree(tree_text(2013), DEFAULT_SCALE, 2013, strict=False)
        bb_stage = model.stages[11]  # BB, "No case" in the 2013 tree
        assert bb_stage.patterns == ()
        assert not any(bb_stage.matches(r) for r in probe_records(0, n=20))

    def test_unknown_code_is_a_parse_error(self):
        with pytest.raises(DecisionTreeParseError, match="QQ"):
            import_decision_tree("AAA\t(QQ >= 1.0)", DEFAULT_SCALE, 2012)

    def test_unknown_label_is_a_parse_error(self):
        with pytest.raises(DecisionTreeParseError, match="AAAA"):
            import_decision_tree("AAAA\t(G >= 1.0)", DEFAULT_SCALE, 2012)

    def test_strict_rejects_print_artifacts_with_position(self):
        with pytest.raises(DecisionTreeParseError, match="line"):
            import_decision_tree(tree_text(2012), DEFAULT_SCALE, 2012, strict=True)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("AAA\t(U >= 7x3, G >= 1)", "malformed number '7x3' (line 1, col 6)"),
            ("AAA (U >= 1), OR (QQ >= 2)", "unknown indicator code 'QQ' (line 1, col 19)"),
            ("# note\n  AA\t( G >= 1 ,U <= 2 x)", "malformed number '2 x' (line 2, col 16)"),
            ("AAA\t(G >= 1) OR (G 1)", "malformed literal 'G 1' (line 1, col 18)"),
            ("AAA\t(G >= 1e999)", "non-finite threshold '1e999' (line 1, col 6)"),
            # No threshold reads the same before a comma as at a pattern's end.
            ("AAA\t(EX >= , G >= 1)", "malformed literal 'EX >=' (line 1, col 6)"),
            ("AAA\t(G >= 1, EX >=)", "malformed literal 'EX >=' (line 1, col 14)"),
            ("AAA\t(G >= 1)\n\t AAAA (G >= 1)", "unknown rating label 'AAAA' (line 2, col 3)"),
            ("AAA\t(G >= 1)\n  AAA (G >= 1)", "duplicate stage for 'AAA' (line 2, col 3)"),
            ("  AA\t( , ) OR ()", "stage body contains no patterns (line 1, col 6)"),
        ],
    )
    def test_error_names_its_line_column(self, text, message, strict):
        with pytest.raises(DecisionTreeParseError) as exc:
            import_decision_tree(text, DEFAULT_SCALE, 2012, strict=strict)
        assert str(exc.value) == message

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("text", ["", "# note\n\n"])
    def test_text_without_a_stage_line_is_rejected(self, text, strict):
        with pytest.raises(DecisionTreeParseError) as exc:
            import_decision_tree(text, DEFAULT_SCALE, 2012, strict=strict)
        assert str(exc.value) == "tree text holds no stage line"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("AAA\t(G >= 1, PPP6 >= 2)", "unknown indicator code 'PPP6' (line 1, col 14)"),
            ("AAA\t(G >= 26.17.5)", "malformed number '26.17.5' (line 1, col 6)"),
            ("AAA\t(G >= 0/685)", "malformed number '0/685' (line 1, col 6)"),
        ],
    )
    def test_strict_rejects_what_lenient_repairs(self, text, message):
        with pytest.raises(DecisionTreeParseError) as exc:
            import_decision_tree(text, DEFAULT_SCALE, 2012, strict=True)
        assert str(exc.value) == message
        model = import_decision_tree(text, DEFAULT_SCALE, 2012, strict=False)
        assert len(model.notes) == 1 and model.stages[0].patterns

    def test_lenient_repairs_are_logged(self):
        model = import_decision_tree(tree_text(2012), DEFAULT_SCALE, 2012, strict=False)
        assert any("26.17.5" in note for note in model.notes)
        assert any("PPP6" in note for note in model.notes)

    def test_whitespace_insensitive(self):
        a = import_decision_tree("AAA\t(G>=1.0,U<=5.0)", DEFAULT_SCALE, 2012)
        b = import_decision_tree("AAA   ( G >= 1.0 ,  U <= 5.0 )", DEFAULT_SCALE, 2012)
        assert a.stages[0] == b.stages[0]

    def test_missing_rows_become_empty_stages(self):
        model = import_decision_tree("AAA\t(G >= 1.0)", DEFAULT_SCALE, 2012)
        assert model.stages[0].patterns
        assert all(not s.patterns for s in model.stages[1:])


class TestLiteralRepairs:
    def test_double_dot(self):
        repairs = []
        lit = parse_literal("GS>=26.17.5", repairs=repairs)
        assert lit.threshold == 26.175
        assert repairs

    def test_slash_for_dot(self):
        lit = parse_literal("PPP>=0/685", repairs=[])
        assert lit.threshold == 0.685

    def test_trailing_digit_code(self):
        lit = parse_literal("I5<= 5.66", repairs=[])
        assert lit.indicator == "I"

    def test_unrepairable_number(self):
        with pytest.raises(DecisionTreeParseError):
            parse_literal("G >= 1.2.3.4x", repairs=[])


class TestExport:
    def test_empty_stage_renders_no_case(self):
        model = import_decision_tree("AAA\t(G >= 1.0)", DEFAULT_SCALE, 2012)
        text = export_decision_tree(model)
        assert "AAP\tNo case" in text

    def test_single_literal_model_round_trips(self):
        model = import_decision_tree("AAA\t(G >= 1.5)", DEFAULT_SCALE, 2012)
        text = export_decision_tree(model)
        again = import_decision_tree(text, DEFAULT_SCALE, 2012)
        assert again.stages == model.stages

    @pytest.mark.parametrize("year", TREE_YEARS)
    def test_published_tables_round_trip_semantically(self, year):
        first = import_decision_tree(tree_text(year), DEFAULT_SCALE, year, strict=False)
        text = export_decision_tree(first)
        second = import_decision_tree(text, DEFAULT_SCALE, year, strict=True)
        for rec in probe_records(year, n=50):
            assert classify(first, rec) == classify(second, rec)
