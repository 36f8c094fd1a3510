"""Command-line front end.

Subcommands: train, classify, suggest, evaluate, import-tree, export-tree,
report-keyvars. Defaults mirror the published parameterization (degree 3,
prevalence 0.70, homogeneity 1.0). A JSON file named by $LADRATING_CONFIG
can override the defaults; explicit flags win over both. A model's fallback
policy comes from --fallback if given, else from the bundle's
.provenance.json, else from the configured default.

Exit codes: 0 ok, 2 usage, 3 parse/data error, 4 contradiction,
5 coverage failure, 6 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .cascade import (
    TOOL_VERSION,
    CascadeModel,
    classify,
    export_decision_tree,
    import_decision_tree,
    key_variables,
    train_cascade,
)
from .data import (
    DEFAULT_REGISTRY,
    DEFAULT_SCALE,
    FALLBACK_TO_LAST,
    UNCLASSIFIED_POLICY,
    CountryRecord,
    Dataset,
    RatingScale,
    load_dataset,
    split_dataset,
)
from .errors import (
    ContradictionError,
    CoverageError,
    DataFormatError,
    DecisionTreeParseError,
    LadError,
)
from .evaluate import evaluate, render_report
from .patterns import MiningConfig

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_CONTRADICTION = 4
EXIT_COVERAGE = 5
EXIT_IO = 6

CONFIG_ENV = "LADRATING_CONFIG"


def _read_text(path) -> str:
    """The UTF-8 text of the file at `path`; bytes that do not decode are a
    data error naming the path and the offset of the first of them."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not UTF-8 text at byte offset {exc.start} ({exc.reason})"
        ) from None


def _read_json_object(path: Path, what: str) -> dict:
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise DataFormatError(f"{what} {path}: expected a JSON object")
    return obj


#: The JSON types each $LADRATING_CONFIG key takes. argparse converts only
#: string defaults, so a string where a number belongs must stop here, or it
#: would be reported against a flag the user never passed.
_CONFIG_TYPES = {
    "degree": ((int,), "an integer"),
    "prevalence": ((int, float), "a number"),
    "homogeneity": ((int, float), "a number"),
    "coverage_target": ((int, float), "a number"),
    "relaxation": ((str,), "a string"),
    "fallback": ((str,), "a string"),
}


def _env_defaults() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    config = _read_json_object(Path(path), f"${CONFIG_ENV} file")
    for key, (types, expected) in _CONFIG_TYPES.items():
        if key not in config:
            continue
        value = config[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise DataFormatError(
                f"${CONFIG_ENV} file {path}: {key!r} must be {expected}, got {value!r}"
            )
    return config


def _scale(fallback: str) -> RatingScale:
    return RatingScale(DEFAULT_SCALE.classes, fallback_policy=fallback)


def _mining_config(args) -> MiningConfig:
    try:
        schedule = tuple(
            float(x) for x in args.relaxation.split(",") if x.strip() != ""
        )
    except ValueError:
        raise DataFormatError(
            f"relaxation {args.relaxation!r}: expected comma-separated numbers"
        ) from None
    return MiningConfig(
        max_degree=args.degree,
        min_prevalence=args.prevalence,
        min_homogeneity=args.homogeneity,
        dnf_coverage_target=args.coverage_target,
        relaxation_schedule=schedule,
    )


def _write(path: Path, content: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")  # whatever the locale


def _emit(out, content: str):
    """Write `content` to the file `out`, or to stdout when `out` is unset;
    text that stdout's encoding cannot hold is an I/O error."""
    if out:
        _write(Path(out), content)
        return
    try:
        sys.stdout.write(content)
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise OSError(f"stdout ({exc.encoding}) cannot encode {bad!r}; use --out") from None


def _bundle_file(out, suffix: str) -> Path:
    """The file `suffix` names for the bundle prefix `out`: appended, so a
    prefix with a dot (`fitch.2012`) keeps it."""
    out = Path(out)
    return out.with_name(out.name + suffix)


def _write_bundle(out, model: CascadeModel, fallback: str):
    _write(_bundle_file(out, ".tree.txt"), export_decision_tree(model))
    prov = {
        "tool_version": TOOL_VERSION,
        "year": model.year,
        "fallback_policy": fallback,
    }
    if model.provenance is not None:
        prov["dataset_fingerprint"] = model.provenance.dataset_fingerprint
        prov["config"] = asdict(model.provenance.config)
    else:
        prov["external"] = True
    _write(_bundle_file(out, ".provenance.json"), json.dumps(prov, sort_keys=True, indent=2) + "\n")


def _load_model(args) -> CascadeModel:
    path = Path(args.model)
    text = _read_text(path)
    prov = {}
    sidecar = path.with_suffix("").with_suffix(".provenance.json")
    if path.name.endswith(".tree.txt") and sidecar.exists():
        prov = _read_json_object(sidecar, "provenance sidecar")
    fallback = (
        getattr(args, "fallback", None)
        or prov.get("fallback_policy")
        or _env_defaults().get("fallback", FALLBACK_TO_LAST)
    )
    return import_decision_tree(
        text, _scale(fallback), prov.get("year", 0), strict=not args.lenient
    )


def _parse_country_values(spec: str) -> CountryRecord:
    """The record of an inline `CODE=value,...` list. It needs at least one
    pair; each code must be an indicator of the registry and appear once;
    each value must be finite."""
    values = {}
    for part in spec.split(","):
        if not part.strip():
            continue
        code, eq, raw = part.partition("=")
        code = code.strip()
        if not eq or not code:
            raise DataFormatError(f"bad CODE=value pair {part!r}")
        if code not in DEFAULT_REGISTRY:
            raise DataFormatError(f"unknown indicator code {code!r} in CODE=value pair {part!r}")
        if code in values:
            raise DataFormatError(f"indicator code {code!r} given twice in CODE=value pairs")
        try:
            value = float(raw)
        except ValueError:
            raise DataFormatError(f"bad CODE=value pair {part!r}") from None
        if not math.isfinite(value):
            raise DataFormatError(f"non-finite value in CODE=value pair {part!r}")
        values[code] = value
    if not values:
        raise DataFormatError(f"no CODE=value pair in {spec!r}")
    return CountryRecord("cli", 0, values)


def _load_data(args, scale: RatingScale) -> Dataset:
    """The dataset in the file `--data` names. Its warnings (columns that
    name no indicator) go to `args.warnings`, which `main` prints once the
    command has succeeded, so that a rejection stays one stderr line."""
    return load_dataset(_read_text(args.data), scale, warnings=args.warnings)


def _records_to_classify(args, scale: RatingScale):
    if args.data is None:
        return [_parse_country_values(args.country_values)]
    return _load_data(args, scale).records


def cmd_train(args) -> int:
    config = _mining_config(args)
    scale = _scale(args.fallback)
    dataset = _load_data(args, scale)
    if args.split_fraction is not None:
        dataset = split_dataset(dataset, args.split_fraction, args.seed)
    model = train_cascade(dataset, config, year=args.year)
    if args.require_full_coverage and any(s.uncovered for s in model.stages):
        raise CoverageError(
            "some stages ship partial" + "".join("\n  " + n for n in model.notes)
        )
    _write_bundle(args.out, model, args.fallback)
    _write(_bundle_file(args.out, ".train.log"), "".join(n + "\n" for n in model.notes))
    print(f"wrote {_bundle_file(args.out, '.tree.txt')}")
    return EXIT_OK


def _require_unrated(record: CountryRecord) -> None:
    """A suggestion is for an unrated record only."""
    if record.observed_rating is not None:
        raise DataFormatError(
            f"{record.record_id} already carries rating {record.observed_rating!r}"
        )


def cmd_classify(args) -> int:
    """Serves both classify and suggest; suggest takes unrated records only."""
    model = _load_model(args)
    records = _records_to_classify(args, model.scale)
    suggest = args.command == "suggest"
    if suggest:
        for rec in records:
            _require_unrated(rec)
    kind = "suggested" if suggest else "classified"
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        (rec.country_id, rec.year, kind, classify(model, rec) or "UNCLASSIFIED") for rec in records
    )
    _emit(args.out, out.getvalue())
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = _load_model(args)
    dataset = _load_data(args, model.scale)
    if args.split_fraction is not None:
        dataset = split_dataset(dataset, args.split_fraction, args.seed)
    report = evaluate(model, dataset)
    text = render_report(report)
    machine = json.dumps(
        {
            "match_ratio_overall": report.match_ratio_overall,
            "match_ratio_train": report.match_ratio_train,
            "match_ratio_test": report.match_ratio_test,
            "model_better_share": report.model_better_share,
            "model_worse_share": report.model_worse_share,
            "unclassified_count": report.unclassified_count,
            "mismatches": [
                dict(zip(("country", "model", "observed", "signed_distance", "direction"), m))
                for m in report.mismatches
            ],
        },
        sort_keys=True,
        indent=2,
    )
    if args.out:
        _write(_bundle_file(args.out, ".report.txt"), text)
        _write(_bundle_file(args.out, ".report.json"), machine + "\n")
        print(f"wrote {_bundle_file(args.out, '.report.txt')}")
    else:
        _emit(None, text)
    return EXIT_OK


def cmd_import_tree(args) -> int:
    text = _read_text(args.file)
    model = import_decision_tree(
        text, _scale(args.fallback), args.year, strict=not args.lenient
    )
    for note in model.notes:
        print("repair: " + note, file=sys.stderr)
    _write_bundle(args.out, model, args.fallback)
    print(f"wrote {_bundle_file(args.out, '.tree.txt')}")
    return EXIT_OK


def cmd_export_tree(args) -> int:
    _emit(args.out, export_decision_tree(_load_model(args)))
    return EXIT_OK


def cmd_report_keyvars(args) -> int:
    model = _load_model(args)
    report = key_variables(model)
    lines = ["group\tindicator\tcount\tshare"]
    for group, usage in report.groups.items():
        for code, (count, share) in usage.items():
            lines.append(f"{group}\t{code}\t{count}\t{share:.3f}")
    _emit(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    env = _env_defaults()
    parser = argparse.ArgumentParser(
        prog="ladrating",
        description="Rule-based sovereign rating models: train, apply, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mining_flags(p):
        p.add_argument("--degree", type=int, default=env.get("degree", 3),
                       help="max literals per pattern (default 3)")
        p.add_argument("--prevalence", type=float, default=env.get("prevalence", 0.70),
                       help="per-pattern positive coverage floor (default 0.70)")
        p.add_argument("--homogeneity", type=float, default=env.get("homogeneity", 1.0),
                       help="purity floor for patterns (default 1.0)")
        p.add_argument("--coverage-target", type=float,
                       default=env.get("coverage_target", 1.0),
                       help="positive coverage a DNF must reach (default 1.0)")
        p.add_argument("--relaxation", default=env.get("relaxation", "0.40,0.20,0"),
                       help="prevalence fallbacks, comma separated (default 0.40,0.20,0)")

    def add_split_flags(p):
        p.add_argument("--split-fraction", type=float, default=None,
                       help="train fraction; omit to train on all labeled records")
        p.add_argument("--seed", type=int, default=0, help="split RNG seed (default 0)")

    def add_fallback_flag(p, *, reads_bundle: bool):
        # A command that reads a bundle must tell an explicit flag from a
        # default, so that only the flag overrides the bundle's policy.
        p.add_argument("--fallback", choices=[FALLBACK_TO_LAST, UNCLASSIFIED_POLICY],
                       default=None if reads_bundle else env.get("fallback", FALLBACK_TO_LAST),
                       help="what a record matching no stage becomes (default "
                            + ("the bundle's policy, else " if reads_bundle else "")
                            + "fallback-to-last)")

    def add_model_flags(p, out_help="output path (default stdout)"):
        p.add_argument("--model", required=True, help="decision-tree text file")
        p.add_argument("--lenient", action="store_true",
                       help="repair known print artifacts while parsing the model")
        p.add_argument("--out", help=out_help)

    p = sub.add_parser("train", help="fit a cascade on labeled data")
    p.add_argument("--data", required=True, help="CSV of country-year rows")
    p.add_argument("--year", type=int, required=True, help="model vintage (metadata)")
    p.add_argument("--out", required=True, help="bundle path prefix")
    p.add_argument("--require-full-coverage", action="store_true",
                   help="fail instead of shipping partially covered stages")
    add_mining_flags(p)
    add_split_flags(p)
    add_fallback_flag(p, reads_bundle=False)
    p.set_defaults(func=cmd_train)

    for name, helptext in (
        ("classify", "rate records with a model"),
        ("suggest", "suggest ratings for unrated records"),
    ):
        p = sub.add_parser(name, help=helptext)
        add_model_flags(p)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--data", help="CSV of records to rate")
        source.add_argument("--country-values", help='inline record, e.g. "U=80,G=60000"')
        add_fallback_flag(p, reads_bundle=True)
        p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="score a model against labeled data")
    add_model_flags(p, out_help="report path prefix (default stdout)")
    p.add_argument("--data", required=True)
    add_split_flags(p)
    add_fallback_flag(p, reads_bundle=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("import-tree", help="parse published tree text into a bundle")
    p.add_argument("--file", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--out", required=True, help="bundle path prefix")
    p.add_argument("--lenient", action="store_true",
                   help="repair known print artifacts instead of rejecting them")
    add_fallback_flag(p, reads_bundle=False)
    p.set_defaults(func=cmd_import_tree)

    p = sub.add_parser("export-tree", help="re-emit a model in canonical text form")
    add_model_flags(p)
    p.set_defaults(func=cmd_export_tree)

    p = sub.add_parser("report-keyvars", help="indicator frequency per stage group")
    add_model_flags(p)
    p.set_defaults(func=cmd_report_keyvars)

    return parser


def _with_stage(exc: LadError) -> str:
    """The error's message, after the training stage that raised it, if any."""
    return f"{exc.stage}: {exc}" if exc.stage else str(exc)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.warnings = []
        code = args.func(args)
        for warning in args.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        return code
    except (DecisionTreeParseError, DataFormatError) as exc:
        print(f"error: {_with_stage(exc)}", file=sys.stderr)
        return EXIT_PARSE
    except ContradictionError as exc:
        print(f"contradiction: {_with_stage(exc)}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except CoverageError as exc:
        print(f"coverage failure: {_with_stage(exc)}", file=sys.stderr)
        return EXIT_COVERAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
