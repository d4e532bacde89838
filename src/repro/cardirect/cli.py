"""Command-line front end for CARDIRECT.

Usage (also available as ``python -m repro.cardirect``)::

    cardirect validate  config.xml
    cardirect relations config.xml [--percentages] [--primary ID] [--reference ID]
    cardirect query     config.xml "color(a) = red and a {N, NW:N} b"
    cardirect demo      out.xml      # write the Fig. 11 scenario

``relations``, ``query`` and ``report`` accept a shared ``--engine NAME``
option selecting the compute backend from the engine registry
(:mod:`repro.core.engine`) and ``--stats`` to print the engine's
telemetry (call counts, wall-clock, ladder paths) to stderr.

Every command additionally accepts the global observability options
(before or after the subcommand name)::

    cardirect --trace out.jsonl relations config.xml
    cardirect relations config.xml --metrics out.prom
    cardirect relations config.xml --profile out.folded --events ev.jsonl
    cardirect profile out.jsonl          # span tree + hot paths + quantiles
    cardirect profile --sample out.folded  # hottest functions

``--trace FILE`` installs a :class:`repro.obs.Tracer` for the run and
writes the collected span tree as JSON Lines; ``--metrics FILE``
installs a metrics registry and writes Prometheus text (or JSON when
the file name ends in ``.json``); ``--profile FILE`` runs the sampling
profiler (:mod:`repro.obs.profiler`) and writes flamegraph-ready
collapsed stacks; ``--events FILE`` writes the run's moments — a
``slow_op`` warning per span over its ``REPRO_SLOW_OP_BUDGET`` budget,
a ``batch.worker_lost`` warning per lost pool dispatch — as JSON Lines,
read off the trace (:func:`repro.obs.event_records`), so it installs a
tracer too.  ``profile`` renders a previously recorded trace (or, with
``--sample``, a collapsed-stack profile).

The GUI of the original tool (drawing polygons over a map with a mouse)
is out of scope for a library; everything computational — relation
computation, XML persistence, querying — is available here.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.parser import parse_query
from repro.cardirect.store import RelationStore
from repro.cardirect.xmlio import load_configuration, save_configuration
from repro.core.engine import available_engines


def _parse_workers(text: str) -> int:
    """``--workers`` values: a positive integer, or ``auto`` / ``0``
    resolving to one worker per available CPU."""
    if text.strip().lower() == "auto":
        return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, 0 or 'auto', got {text!r}"
        ) from None
    if value == 0:
        return os.cpu_count() or 1
    return value


def _add_engine_options(command: argparse.ArgumentParser) -> None:
    """The shared compute-backend options (engine registry + telemetry)."""
    command.add_argument(
        "--engine",
        default="exact",
        metavar="NAME",
        help="compute engine: one of "
        f"{', '.join(available_engines())} (default: exact); "
        "third-party registrations are accepted by name",
    )
    command.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's telemetry (call counts, timings, "
        "ladder paths) to stderr when done",
    )


def _add_obs_options(
    parser: argparse.ArgumentParser, *, subcommand: bool
) -> None:
    """The global ``--trace`` / ``--metrics`` / ``--profile`` /
    ``--events`` observability options.

    They are defined on the main parser (so ``cardirect --trace f ...``
    works) *and* on every subcommand (so the natural ``cardirect
    relations ... --trace f`` works too).  The subcommand copies default
    to ``argparse.SUPPRESS``: a subparser runs after the main parser and
    would otherwise overwrite an already-parsed global value with its
    own default.
    """
    kwargs = {"default": argparse.SUPPRESS} if subcommand else {}
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record a span trace of the run and write it to FILE "
        "as JSON Lines (render it later with the profile command)",
        **kwargs,
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="collect metrics during the run and write them to FILE "
        "as Prometheus text (JSON when FILE ends in .json)",
        **kwargs,
    )
    parser.add_argument(
        "--profile",
        metavar="FILE",
        help="run the sampling profiler (REPRO_PROFILE_HZ overrides "
        "the rate) and write collapsed stacks to FILE — flamegraph-"
        "ready, or render with 'profile --sample FILE'",
        **kwargs,
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        help="record the run's events (incl. slow-op warnings; "
        "see REPRO_SLOW_OP_BUDGET) and write them to FILE as JSON Lines",
        **kwargs,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardirect",
        description="Compute and query cardinal direction relations "
        "between annotated regions (EDBT 2004).",
    )
    _add_obs_options(parser, subcommand=False)
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check a configuration file")
    validate.add_argument("path", help="CARDIRECT XML file")
    validate.add_argument(
        "--strict",
        action="store_true",
        help="also run the O(n²) geometric checks (polygon simplicity, "
        "disjoint interiors, cross-region overlaps)",
    )
    validate.add_argument(
        "--repair",
        action="store_true",
        help="ingest degenerate geometry through the repair pipeline "
        "and print what was fixed instead of rejecting it",
    )
    validate.add_argument(
        "--output",
        help="with --repair: write the repaired configuration to this "
        "CARDIRECT XML file",
    )

    relations = commands.add_parser(
        "relations", help="print pairwise cardinal direction relations"
    )
    relations.add_argument("path", help="CARDIRECT XML file")
    relations.add_argument(
        "--percentages", action="store_true",
        help="print percentage matrices instead of qualitative relations",
    )
    relations.add_argument("--primary", help="restrict to this primary region id")
    relations.add_argument("--reference", help="restrict to this reference region id")
    relations.add_argument(
        "--isolate-errors",
        action="store_true",
        help="compute each pair independently (repairing degenerate "
        "regions where possible) and report per-pair failures instead "
        "of aborting; exits 4 when any pair failed",
    )
    relations.add_argument(
        "--workers",
        type=_parse_workers,
        metavar="N",
        help="fan the sweep out over N worker processes (implies the "
        "fault-isolated batch pipeline, like --isolate-errors); "
        "'auto' or 0 mean one worker per available CPU; per-worker "
        "engine telemetry is merged into --stats",
    )
    relations.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for the whole sweep (implies the "
        "fault-isolated batch pipeline); pairs past the budget are "
        "reported as past-deadline instead of hanging, and the exit "
        "code is 5 when the budget ran out",
    )
    relations.add_argument(
        "--retries",
        type=int,
        metavar="N",
        help="attempts per pair and per worker chunk before a "
        "transient failure becomes permanent in the fault-isolated "
        "pipeline (default: 2)",
    )
    relations.add_argument(
        "--chunk-timeout",
        type=float,
        metavar="SECONDS",
        help="with --workers: declare a worker chunk lost after this "
        "many seconds and re-dispatch it (hung-worker recovery)",
    )
    _add_engine_options(relations)

    query = commands.add_parser("query", help="run a conjunctive query")
    query.add_argument("path", help="CARDIRECT XML file")
    query.add_argument("text", help='query text, e.g. "color(a) = red and a N b"')
    query.add_argument(
        "--allow-repeats", action="store_true",
        help="let different variables bind the same region",
    )
    query.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for evaluation; on expiry the rows "
        "found so far are printed as a labelled partial answer and "
        "the exit code is 5",
    )
    query.add_argument(
        "--no-index",
        action="store_true",
        help="disable the spatial index and evaluate direction clauses "
        "by scanning every candidate pair (slower; results are "
        "identical)",
    )
    _add_engine_options(query)

    demo = commands.add_parser(
        "demo", help="write the paper's Fig. 11 Peloponnesian-war scenario"
    )
    demo.add_argument("path", help="output XML file")

    show = commands.add_parser("show", help="render a configuration as ASCII")
    show.add_argument("path", help="CARDIRECT XML file")
    show.add_argument("--width", type=int, default=60, help="raster width")

    diff = commands.add_parser(
        "diff", help="compare two configurations (regions + relations)"
    )
    diff.add_argument("old", help="old CARDIRECT XML file")
    diff.add_argument("new", help="new CARDIRECT XML file")

    report = commands.add_parser(
        "report", help="print a Fig. 12-style report of a configuration"
    )
    report.add_argument("path", help="CARDIRECT XML file")
    report.add_argument(
        "--pair",
        nargs=2,
        metavar=("PRIMARY", "REFERENCE"),
        help="detailed report for one ordered pair of region ids",
    )
    _add_engine_options(report)

    reason = commands.add_parser(
        "reason",
        help="check a cardinal-direction constraint network "
        "(one '<name> <relation> <name>' constraint per line)",
    )
    reason.add_argument("path", help="constraint network file")
    reason.add_argument(
        "--witness-xml",
        help="write the witness regions of a satisfiable network "
        "to this CARDIRECT XML file",
    )
    reason.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget for the consistency search; on expiry "
        "the verdict is a labelled partial result (unknown, exit 2) "
        "instead of an open-ended solve",
    )

    analyze = commands.add_parser(
        "analyze",
        help="run the project-native static analysis: domain linter, "
        "D* algebra verifier, strict typing gate",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed "
        "repro package sources plus the repository's tests/ and "
        "benchmarks/ trees under a relaxed rule subset)",
    )
    analyze.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format on stdout (default: text)",
    )
    analyze.add_argument(
        "--sarif",
        metavar="FILE",
        help="additionally write a SARIF 2.1.0 report to FILE (the "
        "code-scanning CI artifact), whatever --format says",
    )
    analyze.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated lint rule ids to run (default: all)",
    )
    analyze.add_argument(
        "--algebra",
        action="store_true",
        help="also verify the D* inverse/composition tables "
        "(involution, identity, closure and coherence over the 511 "
        "basic relations; adds ~10s)",
    )
    analyze.add_argument(
        "--inverse-table",
        metavar="FILE",
        help="with --algebra: verify a stored inverse table "
        "(repro.reasoning.tables text format) instead of the live "
        "inverse operator",
    )
    analyze.add_argument(
        "--no-mypy",
        action="store_true",
        help="skip the strict typing gate even when mypy is installed",
    )
    analyze.add_argument(
        "--report",
        metavar="FILE",
        help="additionally write the full JSON report to FILE "
        "(the CI artifact)",
    )
    analyze.add_argument(
        "--strict",
        action="store_true",
        help="gate mode: exit 5 on error-severity lint findings, 6 on "
        "algebra violations, 7 on typing-gate failure "
        "(warnings and skips stay green)",
    )

    profile = commands.add_parser(
        "profile",
        help="render a --trace JSONL file as a span tree with "
        "hot-path percentages and duration quantiles, or (with "
        "--sample) a --profile collapsed-stack file as a "
        "top-functions table",
    )
    profile.add_argument(
        "trace_file",
        help="JSON Lines trace file (or a .folded collapsed-stack "
        "profile with --sample)",
    )
    profile.add_argument(
        "--sample",
        action="store_true",
        help="treat the input as a collapsed-stack (.folded) sampling "
        "profile written by --profile and rank its hottest functions",
    )
    profile.add_argument(
        "--min-percent",
        type=float,
        default=0.0,
        metavar="P",
        help="hide span groups below P%% of total traced time",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="number of hot paths to list (default: 10)",
    )

    for command in commands.choices.values():
        _add_obs_options(command, subcommand=True)
    return parser


def _cmd_validate(
    path: str, strict: bool, repair: bool = False, output: Optional[str] = None
) -> int:
    if output and not repair:
        print("error: --output requires --repair", file=sys.stderr)
        return 2
    repairs = {}
    configuration, stored = load_configuration(
        path, mode="repair" if repair else "strict", repairs=repairs
    )
    for report in repairs.values():
        print(report.summary())
    if strict or repair:
        from repro.core.validate import ERROR, validate_configuration

        issues = validate_configuration(configuration)
        for issue in issues:
            print(issue)
        if any(issue.severity == ERROR for issue in issues):
            return 1
    if repair and output:
        save_configuration(configuration, output, include_relations=False)
        print(f"repaired configuration written to {output}")
    print(
        f"OK: {len(configuration)} regions, "
        f"{sum(len(r.region) for r in configuration)} polygons, "
        f"{len(stored)} stored relations"
        + (f", {len(repairs)} region(s) repaired" if repairs else "")
    )
    return 0


def _selected_pairs(store: RelationStore, primary: Optional[str], reference: Optional[str]):
    ids = store.configuration.region_ids
    for primary_id in [primary] if primary else ids:
        for reference_id in [reference] if reference else ids:
            if primary_id != reference_id:
                yield primary_id, reference_id


def _print_engine_stats(store: RelationStore) -> None:
    """The --stats output: one telemetry line on stderr."""
    print(
        f"engine {store.engine.name!r}: {store.engine_stats.summary()}",
        file=sys.stderr,
    )


def _cmd_relations(
    path: str,
    percentages: bool,
    primary: Optional[str],
    reference: Optional[str],
    isolate_errors: bool = False,
    engine: str = "exact",
    stats: bool = False,
    workers: Optional[int] = None,
    deadline: Optional[float] = None,
    retries: Optional[int] = None,
    chunk_timeout: Optional[float] = None,
) -> int:
    if workers is not None and workers < 1:
        print("error: --workers must be a positive integer", file=sys.stderr)
        return 2
    if deadline is not None and deadline < 0:
        print("error: --deadline must be non-negative", file=sys.stderr)
        return 2
    if retries is not None and retries < 1:
        print("error: --retries must be a positive integer", file=sys.stderr)
        return 2
    if chunk_timeout is not None and chunk_timeout <= 0:
        print("error: --chunk-timeout must be positive", file=sys.stderr)
        return 2
    resilient = (
        deadline is not None or retries is not None or chunk_timeout is not None
    )
    if isolate_errors or workers is not None or resilient:
        return _cmd_relations_isolated(
            path,
            percentages,
            engine,
            stats,
            workers,
            deadline=deadline,
            retries=retries,
            chunk_timeout=chunk_timeout,
            primary=primary,
            reference=reference,
        )
    configuration, _ = load_configuration(path)
    store = RelationStore(configuration, engine=engine)
    for primary_id, reference_id in _selected_pairs(store, primary, reference):
        if percentages:
            matrix = store.percentages(primary_id, reference_id)
            print(f"{primary_id} vs {reference_id}:")
            print(matrix.render())
        else:
            relation = store.relation(primary_id, reference_id)
            print(f"{primary_id} {relation} {reference_id}")
    if stats:
        _print_engine_stats(store)
    return 0


def _cmd_relations_isolated(
    path: str,
    percentages: bool,
    engine: str = "exact",
    stats: bool = False,
    workers: Optional[int] = None,
    deadline: Optional[float] = None,
    retries: Optional[int] = None,
    chunk_timeout: Optional[float] = None,
    primary: Optional[str] = None,
    reference: Optional[str] = None,
) -> int:
    """Fault-isolated sweep: every answerable pair answered, per-pair
    error lines for the rest, exit code 4 when any pair failed and 5
    when the run was cut short by ``--deadline`` (errors win the tie).

    ``workers`` fans the sweep out over a process pool (see
    :func:`repro.core.batch.batch_relations`); the merged per-worker
    telemetry — including the sweep engine's prune/broadcast path
    counts — lands in the ``--stats`` line.  ``primary`` / ``reference``
    restrict the sweep to that row / column, as on the plain path."""
    ingestion_repairs = {}
    configuration, _ = load_configuration(
        path, mode="lenient", repairs=ingestion_repairs
    )
    primaries = [configuration.get(primary).id] if primary else None
    references = [configuration.get(reference).id] if reference else None
    store = RelationStore(configuration, engine=engine)
    retry_policy = None
    if retries is not None:
        from repro.resilience.retry import RetryPolicy

        retry_policy = RetryPolicy(
            max_attempts=retries, base_delay=0.0, jitter=0.0
        )
    report = store.batch_relations(
        percentages=percentages,
        workers=workers,
        deadline=deadline,
        retry_policy=retry_policy,
        chunk_timeout=chunk_timeout,
        primaries=primaries,
        references=references,
    )
    for repair_report in ingestion_repairs.values():
        print(repair_report.summary())
    for repair_report in report.repairs.values():
        print(repair_report.summary())
    for outcome in report.outcomes:
        if not outcome.ok:
            print(str(outcome), file=sys.stderr)
        elif percentages:
            print(f"{outcome.primary_id} vs {outcome.reference_id}:")
            print(outcome.percentages.render())
        else:
            print(str(outcome))
    print(report.summary())
    if stats and report.engine_stats is not None:
        print(
            f"engine {report.engine!r}: {report.engine_stats.summary()}",
            file=sys.stderr,
        )
    if report.error_outcomes():
        return 4
    return 5 if report.deadline_hit else 0


def _cmd_query(
    path: str,
    text: str,
    allow_repeats: bool,
    engine: str = "exact",
    stats: bool = False,
    deadline: Optional[float] = None,
    no_index: bool = False,
) -> int:
    if deadline is not None and deadline < 0:
        print("error: --deadline must be non-negative", file=sys.stderr)
        return 2
    from repro.errors import DeadlineExceeded
    from repro.resilience.deadline import deadline_scope

    configuration, _ = load_configuration(path)
    store = RelationStore(configuration, engine=engine, use_index=not no_index)
    query = parse_query(text, allow_repeats=allow_repeats)
    complete = True
    try:
        with deadline_scope(deadline):
            results = query.evaluate(store, use_index=not no_index)
    except DeadlineExceeded as error:
        results = list(error.partial_results or ())
        complete = False
    print(f"variables: ({', '.join(query.variables)})")
    if stats:
        _print_engine_stats(store)
    if not results:
        print("no results" if complete else "no results before the deadline")
        return 0 if complete else 5
    for row in results:
        names = ", ".join(
            configuration.get(region_id).name or region_id for region_id in row
        )
        print(f"({names})")
    if not complete:
        print(
            f"deadline exceeded: the {len(results)} row(s) above are a "
            "partial answer",
            file=sys.stderr,
        )
        return 5
    return 0


def _cmd_demo(path: str) -> int:
    from repro.workloads.scenarios import peloponnesian_war

    configuration = Configuration(image_name="Ancient Greece", image_file="greece.png")
    for entry in peloponnesian_war():
        configuration.add(
            AnnotatedRegion(
                id=entry.id, name=entry.name, color=entry.color, region=entry.region
            )
        )
    save_configuration(configuration, path)
    print(f"wrote {len(configuration)} regions to {path}")
    return 0


def _cmd_show(path: str, width: int) -> int:
    from repro.cardirect.render import render_configuration

    configuration, _ = load_configuration(path)
    print(render_configuration(configuration, width=width))
    return 0


def _cmd_diff(old_path: str, new_path: str) -> int:
    from repro.cardirect.diff import diff_configurations

    old_configuration, _ = load_configuration(old_path)
    new_configuration, _ = load_configuration(new_path)
    result = diff_configurations(old_configuration, new_configuration)
    print(result.summary())
    return 0 if result.is_empty else 3


def _cmd_report(
    path: str,
    pair: Optional[List[str]],
    engine: str = "exact",
    stats: bool = False,
) -> int:
    from repro.cardirect.report import full_report, pair_report

    configuration, _ = load_configuration(path)
    store = RelationStore(configuration, engine=engine)
    if pair:
        print(pair_report(store, pair[0], pair[1]))
    else:
        print(full_report(store))
    if stats:
        _print_engine_stats(store)
    return 0


def _cmd_reason(
    path: str,
    witness_xml: Optional[str],
    deadline: Optional[float] = None,
) -> int:
    from repro.reasoning.netio import load_network, witness_to_configuration

    if deadline is not None and deadline < 0:
        print("error: --deadline must be non-negative", file=sys.stderr)
        return 2
    network = load_network(path)
    # Snapshot before solving: algebraic closure prunes the stored
    # constraints in place, but explanations are about the user's input.
    original_constraints = network.constraints()
    report = network.solve(deadline=deadline)
    if report.solution is None:
        if report.deadline_exceeded:
            print(
                "unknown: deadline exceeded after examining "
                f"{report.examined} candidate refinement(s); unexamined "
                "refinements might still admit a solution"
            )
            return 2
        if report.max_candidates_exceeded:
            print(
                "unknown: search cut short after checking "
                f"{report.examined - 1} candidate refinement(s); unexamined "
                "refinements might still admit a solution"
            )
            return 2
        if report.unverified_candidates:
            print(
                "unknown: no candidate refinement could be verified "
                f"({report.unverified_candidates} left undecided)"
            )
            return 2
        print("inconsistent: the network has no solution")
        _print_core_if_basic(original_constraints)
        return 1
    print("consistent; one solution:")
    for (primary, reference), relation in sorted(report.solution.assignment.items()):
        print(f"  {primary} {relation} {reference}")
    if witness_xml:
        configuration = witness_to_configuration(report.solution.witness)
        save_configuration(configuration, witness_xml)
        print(f"witness written to {witness_xml}")
    return 0


def _print_core_if_basic(stored) -> None:
    """For fully-basic networks, also print a minimal inconsistent core."""
    constraints = {}
    for key, relation in stored.items():
        if len(relation) != 1:
            return  # genuinely disjunctive: no single core to show
        constraints[key] = next(iter(relation.relations))
    if not constraints:
        return
    from repro.reasoning.consistency import ConsistencyStatus, check_consistency
    from repro.reasoning.explain import explain_inconsistency

    if check_consistency(constraints).status is ConsistencyStatus.INCONSISTENT:
        print(explain_inconsistency(constraints))


#: Rules applied to ``tests/`` and ``benchmarks/`` when the default
#: discovery lints them: the path-safety invariants travel (a lock live
#: at a pool spawn hangs a benchmark all the same), the source-tree
#: style rules (annotations, telemetry names, engine contracts) do not.
_RELAXED_TEST_RULES = ("RA004", "RA009", "RA010")


def _repo_root() -> Optional[Path]:
    """The checkout root when running from the src layout, else None.

    ``src/repro/__init__.py`` → parents[2] is the repository root; an
    installed wheel has no ``tests``/``benchmarks`` siblings there, so
    the default discovery quietly skips them.
    """
    import repro

    root = Path(repro.__file__).resolve().parents[2]
    if (root / "tests").is_dir() or (root / "benchmarks").is_dir():
        return root
    return None


def _cmd_analyze(
    paths: List[str],
    output_format: str,
    select: Optional[str],
    algebra: bool,
    inverse_table: Optional[str],
    no_mypy: bool,
    report_path: Optional[str],
    strict: bool,
    sarif_path: Optional[str] = None,
) -> int:
    """The static-analysis front end: lint + algebra + typing gate.

    Exit codes in ``--strict`` mode: 5 for error-severity lint
    findings, 6 for algebra violations, 7 for a typing-gate
    *failure* (a skip — mypy not installed — stays green but is
    reported).  Warnings are reported but never gate.  Without
    ``--strict`` everything is reported and the exit code stays 0, so
    exploratory runs never break pipelines that only wanted the report.
    """
    import json as json_module

    from repro import analysis, obs

    rule_selection = (
        [rule_id.strip().upper() for rule_id in select.split(",") if rule_id.strip()]
        if select
        else None
    )

    root = _repo_root()
    relaxed_paths: List[str] = []
    if not paths:
        import repro

        paths = [str(Path(repro.__file__).parent)]
        if root is not None:
            relaxed_paths = [
                str(root / tree)
                for tree in ("tests", "benchmarks")
                if (root / tree).is_dir()
            ]

    linter = analysis.Linter(select=rule_selection)
    with obs.span(
        "analysis.lint", paths=len(paths) + len(relaxed_paths)
    ):
        lint_result = linter.lint_paths(paths)
        if relaxed_paths:
            relaxed_selection = [
                rule_id
                for rule_id in _RELAXED_TEST_RULES
                if rule_selection is None or rule_id in rule_selection
            ]
            if relaxed_selection:
                relaxed_result = analysis.Linter(
                    select=relaxed_selection
                ).lint_paths(relaxed_paths)
                lint_result.findings.extend(relaxed_result.findings)
                lint_result.findings.sort(
                    key=lambda f: (f.path, f.line, f.column, f.rule_id)
                )
                lint_result.files_checked += relaxed_result.files_checked
                lint_result.suppressed += relaxed_result.suppressed
    registry = obs.current_metrics()
    if registry is not None and lint_result.findings:
        counter = registry.counter(
            "repro_analysis_findings_total", "Domain-lint findings by rule."
        )
        for finding in lint_result.findings:
            counter.inc(rule=finding.rule_id)

    algebra_report = None
    if algebra:
        inverse_of = None
        if inverse_table:
            from repro.reasoning.tables import load_inverse_table

            table = load_inverse_table(inverse_table)
            inverse_of = table.__getitem__
        algebra_report = analysis.verify_algebra(inverse_of=inverse_of)

    typing_report = None
    if not no_mypy:
        typing_report = analysis.run_typing_gate()

    payload = {
        "lint": analysis.result_as_dict(lint_result),
        "algebra": algebra_report.as_dict() if algebra_report else None,
        "typing": typing_report.as_dict() if typing_report else None,
    }
    if report_path:
        Path(report_path).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if sarif_path or output_format == "sarif":
        sarif_text = analysis.render_sarif(
            lint_result, rules=linter.rules, root=root or Path.cwd()
        )
        if sarif_path:
            Path(sarif_path).write_text(sarif_text + "\n", encoding="utf-8")
            print(f"SARIF report written to {sarif_path}", file=sys.stderr)
    if output_format == "json":
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    elif output_format == "sarif":
        print(sarif_text)
    else:
        for finding in lint_result.findings:
            print(finding)
        print(f"lint: {lint_result.summary()}")
        if algebra_report is not None:
            print(algebra_report.render())
        if typing_report is not None:
            print(typing_report.summary())
            if typing_report.status == "failed":
                print(typing_report.output)
    if report_path:
        print(f"JSON report written to {report_path}", file=sys.stderr)
    if strict:
        if any(finding.severity == "error" for finding in lint_result.findings):
            return 5
        if algebra_report is not None and not algebra_report.ok:
            return 6
        if typing_report is not None and not typing_report.ok:
            return 7
    return 0


def _cmd_profile(
    trace_file: str, min_percent: float, top: int, sample: bool = False
) -> int:
    """Render a trace (span tree + hot paths + duration quantiles) or,
    with ``--sample``, a collapsed-stack profile (top functions).

    A missing, empty or corrupt input is one clean error line and exit
    code 2 — these files come from other runs (often other machines),
    and a malformed artifact is a usage-grade problem, not a crash.
    """
    from repro import obs

    if sample:
        try:
            with open(trace_file, "r", encoding="utf-8") as handle:
                counts = obs.parse_folded(handle.read())
        except OSError as error:
            print(f"error: {trace_file}: {error.strerror or error}", file=sys.stderr)
            return 2
        except ValueError as error:
            print(
                f"error: {trace_file}: not a collapsed-stack profile "
                f"({error})",
                file=sys.stderr,
            )
            return 2
        if not counts:
            print(f"error: {trace_file}: no samples recorded", file=sys.stderr)
            return 2
        total = sum(counts.values())
        print(f"profile: {trace_file} ({total} samples, {len(counts)} stacks)")
        print()
        print(obs.render_folded_top(counts, top=top))
        return 0

    try:
        spans = obs.load_jsonl(trace_file)
    except OSError as error:
        print(f"error: {trace_file}: {error.strerror or error}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as error:
        print(
            f"error: {trace_file}: not a JSONL span trace ({error})",
            file=sys.stderr,
        )
        return 2
    if not spans:
        print(f"error: {trace_file}: no spans recorded", file=sys.stderr)
        return 2
    print(f"trace: {trace_file} ({len(spans)} spans)")
    print()
    print(obs.render_span_tree(spans, min_percent=min_percent))
    print()
    print(obs.render_hot_paths(spans, top=top))
    print()
    print(obs.render_span_quantiles(spans, top=top))
    return 0


#: Conventional exit code for a SIGINT death (128 + signal 2).
EXIT_INTERRUPTED = 130


def main(argv: Optional[List[str]] = None) -> int:
    arguments = _build_parser().parse_args(argv)
    paths = {
        sink: getattr(arguments, sink, None)
        for sink in ("trace", "metrics", "profile", "events")
    }
    if not any(paths.values()):
        try:
            return _dispatch(arguments)
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED

    from repro import obs

    # The events file is read off the trace, so it needs a tracer too.
    sinks = obs.fresh_sinks(
        {"trace" if sink == "events" else sink for sink, path in paths.items() if path}
    )
    status = EXIT_INTERRUPTED
    try:
        with sinks, obs.span(f"cli.{arguments.command}") as root:
            status = _dispatch(arguments)
            root.set(status=status)
    except KeyboardInterrupt:
        # Ctrl-C mid-run: one clean line, the conventional exit code,
        # and whatever trace/metrics were collected still land on disk
        # (partial observability is most valuable for the runs that
        # never finished).
        print("interrupted", file=sys.stderr)
        status = EXIT_INTERRUPTED
    finally:
        _flush_observability(sinks, paths)
    return status


def _flush_observability(sinks, paths) -> None:
    """Write the collected spans/metrics/profile/events to their
    ``paths``; never raise (runs on Ctrl-C too)."""
    import json

    from repro import obs

    try:
        if paths["trace"]:
            sinks.tracer.export_jsonl(paths["trace"])
            print(
                f"trace: {len(sinks.tracer.spans)} spans written to {paths['trace']}",
                file=sys.stderr,
            )
        if sinks.metrics is not None:
            if paths["metrics"].endswith(".json"):
                sinks.metrics.export_json(paths["metrics"])
            else:
                sinks.metrics.export_prometheus(paths["metrics"])
            print(f"metrics written to {paths['metrics']}", file=sys.stderr)
        if sinks.profiler is not None:
            sinks.profiler.export_folded(paths["profile"])
            print(
                f"profile: {sinks.profiler.samples} samples written to "
                f"{paths['profile']}",
                file=sys.stderr,
            )
        if paths["events"]:
            records = list(obs.event_records(sinks.tracer.spans))
            with open(paths["events"], "w", encoding="utf-8") as handle:
                handle.writelines(
                    json.dumps(record, sort_keys=True) + "\n" for record in records
                )
            print(
                f"events: {len(records)} written to {paths['events']}",
                file=sys.stderr,
            )
    except OSError as error:
        print(f"error: observability flush failed: {error}", file=sys.stderr)


def _dispatch(arguments: argparse.Namespace) -> int:
    try:
        if arguments.command == "validate":
            return _cmd_validate(
                arguments.path,
                arguments.strict,
                arguments.repair,
                arguments.output,
            )
        if arguments.command == "relations":
            return _cmd_relations(
                arguments.path,
                arguments.percentages,
                arguments.primary,
                arguments.reference,
                arguments.isolate_errors,
                arguments.engine,
                arguments.stats,
                arguments.workers,
                arguments.deadline,
                arguments.retries,
                arguments.chunk_timeout,
            )
        if arguments.command == "query":
            return _cmd_query(
                arguments.path,
                arguments.text,
                arguments.allow_repeats,
                arguments.engine,
                arguments.stats,
                arguments.deadline,
                arguments.no_index,
            )
        if arguments.command == "demo":
            return _cmd_demo(arguments.path)
        if arguments.command == "show":
            return _cmd_show(arguments.path, arguments.width)
        if arguments.command == "diff":
            return _cmd_diff(arguments.old, arguments.new)
        if arguments.command == "report":
            return _cmd_report(
                arguments.path,
                arguments.pair,
                arguments.engine,
                arguments.stats,
            )
        if arguments.command == "reason":
            return _cmd_reason(
                arguments.path, arguments.witness_xml, arguments.deadline
            )
        if arguments.command == "analyze":
            return _cmd_analyze(
                arguments.paths,
                arguments.format,
                arguments.select,
                arguments.algebra,
                arguments.inverse_table,
                arguments.no_mypy,
                arguments.report,
                arguments.strict,
                arguments.sarif,
            )
        if arguments.command == "profile":
            return _cmd_profile(
                arguments.trace_file,
                arguments.min_percent,
                arguments.top,
                arguments.sample,
            )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        # e.g. an unregistered --engine name
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
