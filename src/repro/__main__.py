"""Command-line entry point: ``python -m repro``.

Subcommands::

    python -m repro list                 # all registered experiments
    python -m repro run T4 F1            # run specific artifacts
    python -m repro all                  # run everything (the evaluation)
    python -m repro modules              # the module catalog
    python -m repro quiz                 # the Figure 1 example question
    python -m repro trace kmeans         # profile a module workload
    python -m repro trace kmeans --export-json t.json   # open in Perfetto
    python -m repro faults ring --plan drills.toml      # fault drill
    python -m repro faults resilient --plan drills.toml --expect degraded
    python -m repro recover kmeans --plan crash.toml     # recovery drill
    python -m repro recover sort --plan crash.toml --expect recovered
    python -m repro sanitize sort                # correctness sanitizer
    python -m repro sanitize --pitfall wildcard-race
    python -m repro sanitize --pitfalls          # sweep the bug corpus

Exit status is non-zero when any requested experiment's checks fail, so
the CLI doubles as a smoke-test in CI.  Bad input (an unknown experiment
or workload, a bad parameter) prints one ``error: ...`` line and exits
with the usage code: 3 for ``sanitize``, 2 for every other subcommand.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(_args) -> int:
    from repro.harness import EXPERIMENTS

    width = max(len(e.title) for e in EXPERIMENTS.values())
    for eid, exp in EXPERIMENTS.items():
        print(f"{eid:>3}  {exp.title.ljust(width)}  {exp.paper_claim}")
    return 0


def _run_ids(ids, as_json: bool = False) -> int:
    import json

    from repro.harness import run_experiment

    failed = 0
    results = []
    for eid in ids:
        report = run_experiment(eid)
        if as_json:
            results.append(
                {
                    "id": report.experiment_id,
                    "title": report.title,
                    "passed": bool(report.passed),
                    # numpy comparisons yield np.bool_, which json rejects
                    "checks": {k: bool(v) for k, v in report.checks.items()},
                }
            )
        else:
            print(report.text)
            print()
            print(report.summary_line())
            print()
        if not report.passed:
            failed += 1
    if as_json:
        print(json.dumps({"experiments": results, "failed": failed}, indent=2))
    elif failed:
        print(f"{failed} experiment(s) FAILED", file=sys.stderr)
    return 1 if failed else 0


def _cmd_run(args) -> int:
    return _run_ids(args.ids, as_json=args.json)


def _cmd_all(args) -> int:
    from repro.harness import EXPERIMENTS

    return _run_ids(list(EXPERIMENTS), as_json=args.json)


def _cmd_modules(_args) -> int:
    from repro.modules import MODULES, extension_modules

    for mod in MODULES + extension_modules():
        print(f"Module {mod.number}: {mod.title}")
        print(f"  {mod.application_motivation}")
        for activity in mod.activities:
            print(f"    {activity.number}. {activity.title} — {activity.summary}")
        print()
    return 0


def _cmd_quiz(_args) -> int:
    from repro.edu import example_question_module4, figure1_speedup_curves
    from repro.edu.figures import render_figure1

    curves = figure1_speedup_curves()
    print(render_figure1(curves))
    question = example_question_module4(curves)
    print()
    print(question.prompt)
    for i, option in enumerate(question.options, start=1):
        print(f"  ({i}) {option}")
    print()
    print(f"Answer: ({question.correct_option + 1}) "
          f"{question.options[question.correct_option]}")
    print(question.explanation)
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs import (
        analyze_wait_states,
        critical_path,
        export_chrome_trace,
        load_imbalance,
        render_critical_path,
        render_imbalance,
        render_rank_summary,
        render_wait_states,
        run_workload,
        WORKLOADS,
    )
    from repro.smpi.timeline import render_timeline

    if args.list:
        width = max(len(name) for name in WORKLOADS)
        for name, w in sorted(WORKLOADS.items()):
            print(
                f"{name.ljust(width)}  {w.module:>7}  "
                f"(default nprocs {w.default_nprocs})  {w.description}"
            )
        return 0
    if args.workload is None:
        print("trace: a WORKLOAD name is required (or --list)", file=sys.stderr)
        return 2
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not _:
            print(f"trace: bad -p {item!r}; expected key=value", file=sys.stderr)
            return 2
        try:
            params[key] = json.loads(value)  # numbers, booleans, lists, ...
        except json.JSONDecodeError:
            params[key] = value  # bare strings (e.g. -p method=weighted)
    result = run_workload(args.workload, nprocs=args.nprocs, **params)
    tracer = result.tracer
    print(
        f"workload {args.workload!r} on {result.world.nprocs} ranks: "
        f"virtual makespan {result.elapsed:.6g} s, "
        f"{len(tracer.events)} trace events"
    )
    print()
    print(render_timeline(tracer, width=args.width))
    print()
    print(render_rank_summary(tracer))
    print()
    print(render_wait_states(analyze_wait_states(tracer)))
    print()
    print(render_critical_path(critical_path(tracer)))
    print(render_imbalance(load_imbalance(tracer)))
    if args.metrics:
        print()
        print(result.metrics.render_table())
    if args.export_json:
        path = export_chrome_trace(result, args.export_json)
        print(f"\nChrome trace written to {path} "
              f"(open in https://ui.perfetto.dev or chrome://tracing)")
    return 0


def _parse_params(items) -> dict:
    import json

    params = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"bad -p {item!r}; expected key=value")
        try:
            params[key] = json.loads(value)  # numbers, booleans, lists, ...
        except json.JSONDecodeError:
            params[key] = value  # bare strings (e.g. -p method=weighted)
    return params


def _cmd_faults(args) -> int:
    from repro.faults import FaultPlan
    from repro.faults.runner import OUTCOMES, run_under_faults
    from repro.obs import WORKLOADS, analyze_wait_states, render_wait_states
    from repro.smpi.timeline import render_timeline

    if args.list:
        width = max(len(name) for name in WORKLOADS)
        for name, w in sorted(WORKLOADS.items()):
            print(
                f"{name.ljust(width)}  {w.module:>7}  "
                f"(default nprocs {w.default_nprocs})  {w.description}"
            )
        return 0
    if args.workload is None:
        print("faults: a WORKLOAD name is required (or --list)", file=sys.stderr)
        return 2
    if args.expect is not None and args.expect not in OUTCOMES:
        print(
            f"faults: --expect must be one of {', '.join(OUTCOMES)}",
            file=sys.stderr,
        )
        return 2
    try:
        params = _parse_params(args.param)
    except ValueError as exc:
        print(f"faults: {exc}", file=sys.stderr)
        return 2
    plan = FaultPlan.from_toml(args.plan) if args.plan else FaultPlan()
    if args.seed is not None:
        import dataclasses

        plan = dataclasses.replace(plan, seed=args.seed)
    print(plan.describe())
    print()
    report = run_under_faults(args.workload, plan, nprocs=args.nprocs, **params)
    for line in report.lines():
        print(line)
    if args.waits and report.outcome != "aborted":
        from repro.obs.workloads import run_workload  # rerun is cheap & deterministic

        out = run_workload(
            args.workload, nprocs=args.nprocs, faults=plan, check=False, **params
        )
        print()
        print(render_timeline(out.tracer, width=args.width))
        print()
        print(render_wait_states(analyze_wait_states(out.tracer)))
    if args.expect is not None and report.outcome != args.expect:
        print(
            f"\nFAIL: expected outcome {args.expect!r}, got {report.outcome!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_recover(args) -> int:
    from repro.faults import FaultPlan
    from repro.obs import analyze_wait_states, render_wait_states
    from repro.recovery import RECOVERABLE, RECOVERY_OUTCOMES, run_recoverable
    from repro.smpi.timeline import render_timeline

    if args.list:
        width = max(len(name) for name in RECOVERABLE)
        for name, w in sorted(RECOVERABLE.items()):
            print(
                f"{name.ljust(width)}  {w.module:>7}  "
                f"(default nprocs {w.default_nprocs})  {w.description}"
            )
        return 0
    if args.workload is None:
        print("recover: a WORKLOAD name is required (or --list)", file=sys.stderr)
        return 2
    if args.expect is not None and args.expect not in RECOVERY_OUTCOMES:
        print(
            f"recover: --expect must be one of {', '.join(RECOVERY_OUTCOMES)}",
            file=sys.stderr,
        )
        return 2
    try:
        params = _parse_params(args.param)
    except ValueError as exc:
        print(f"recover: {exc}", file=sys.stderr)
        return 2
    plan = FaultPlan.from_toml(args.plan) if args.plan else FaultPlan()
    if args.seed is not None:
        import dataclasses

        plan = dataclasses.replace(plan, seed=args.seed)
    print(plan.describe())
    print()
    run = run_recoverable(
        args.workload, plan, nprocs=args.nprocs,
        max_recoveries=args.max_recoveries, **params,
    )
    report = run.report
    for line in report.lines():
        print(line)
    if args.waits and report.outcome != "aborted":
        tracer = run.run.tracer  # no rerun needed: the world is attached
        print()
        print(render_timeline(tracer, width=args.width))
        print()
        print(render_wait_states(analyze_wait_states(tracer)))
    if args.expect is not None and report.outcome != args.expect:
        print(
            f"\nFAIL: expected outcome {args.expect!r}, got {report.outcome!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_sanitize(args) -> int:
    from repro.modules.pitfalls import PITFALLS
    from repro.obs import WORKLOADS
    from repro.sanitize import (
        sanitize_corpus,
        sanitize_pitfall,
        sanitize_workload,
    )

    if args.list:
        width = max(len(name) for name in WORKLOADS)
        for name, w in sorted(WORKLOADS.items()):
            print(
                f"{name.ljust(width)}  {w.module:>7}  "
                f"(default nprocs {w.default_nprocs})  {w.description}"
            )
        print()
        width = max(len(p.name) for p in PITFALLS)
        for p in PITFALLS:
            print(f"{p.name.ljust(width)}  pitfall  ({p.sanitize_code})")
        return 0
    if args.pitfalls:
        entries = sanitize_corpus()
        width = max(len(e.name) for e in entries)
        bad = 0
        for e in entries:
            mark = "ok " if e.ok else "BAD"
            if not e.ok:
                bad += 1
            print(
                f"{mark} {e.name.ljust(width)}  expected {e.expected}, "
                f"got {', '.join(e.got) or '(clean)'}"
            )
        print(
            f"\n{len(entries)} pitfalls swept, "
            f"{len(entries) - bad} diagnosed as documented"
            + (f", {bad} MISSED" if bad else "")
        )
        return 2 if bad else 0
    if args.pitfall is not None:
        report = sanitize_pitfall(args.pitfall, replay=not args.no_replay)
        print(report.render())
        return report.exit_code
    if args.workload is None:
        print(
            "sanitize: a WORKLOAD name is required "
            "(or --list / --pitfall NAME / --pitfalls)",
            file=sys.stderr,
        )
        return 3
    try:
        params = _parse_params(args.param)
    except ValueError as exc:
        print(f"sanitize: {exc}", file=sys.stderr)
        return 3
    faults = None
    if args.plan:
        from repro.faults import FaultPlan

        faults = FaultPlan.from_toml(args.plan)
        if args.seed is not None:
            import dataclasses

            faults = dataclasses.replace(faults, seed=args.seed)
    report = sanitize_workload(
        args.workload, nprocs=args.nprocs,
        replay=not args.no_replay, faults=faults, **params,
    )
    print(report.render())
    return report.exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the data-intensive PDC teaching modules "
        "(Gowanlock & Gallet, IPDPSW 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the registered experiments").set_defaults(
        fn=_cmd_list
    )
    run_parser = sub.add_parser("run", help="run specific experiments")
    run_parser.add_argument("ids", nargs="+", metavar="ID", help="e.g. T4 F1 E3")
    run_parser.add_argument(
        "--json", action="store_true", help="machine-readable check results"
    )
    run_parser.set_defaults(fn=_cmd_run)
    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument(
        "--json", action="store_true", help="machine-readable check results"
    )
    all_parser.set_defaults(fn=_cmd_all)
    sub.add_parser("modules", help="print the module catalog").set_defaults(
        fn=_cmd_modules
    )
    sub.add_parser("quiz", help="show the Figure 1 quiz question").set_defaults(
        fn=_cmd_quiz
    )
    trace_parser = sub.add_parser(
        "trace", help="profile a module workload (timeline, waits, critical path)"
    )
    trace_parser.add_argument(
        "workload", nargs="?", metavar="WORKLOAD",
        help="workload name (see --list), e.g. kmeans, ring, stencil",
    )
    trace_parser.add_argument(
        "--list", action="store_true", help="list the available workloads"
    )
    trace_parser.add_argument(
        "-n", "--nprocs", type=int, default=None, help="number of simulated ranks"
    )
    trace_parser.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="workload parameter override (repeatable), e.g. -p k=32",
    )
    trace_parser.add_argument(
        "--width", type=int, default=72, help="timeline width in columns"
    )
    trace_parser.add_argument(
        "--metrics", action="store_true", help="also print the full metrics registry"
    )
    trace_parser.add_argument(
        "--export-json", metavar="FILE",
        help="write a Chrome trace-event JSON file (Perfetto / chrome://tracing)",
    )
    trace_parser.set_defaults(fn=_cmd_trace)
    faults_parser = sub.add_parser(
        "faults",
        help="run a workload under a fault plan; report survived/degraded/aborted",
    )
    faults_parser.add_argument(
        "workload", nargs="?", metavar="WORKLOAD",
        help="workload name (see --list), e.g. ring, resilient",
    )
    faults_parser.add_argument(
        "--list", action="store_true", help="list the available workloads"
    )
    faults_parser.add_argument(
        "--plan", metavar="FILE", default=None,
        help="fault plan TOML (omit for an empty plan)",
    )
    faults_parser.add_argument(
        "--seed", type=int, default=None, help="override the plan's seed"
    )
    faults_parser.add_argument(
        "-n", "--nprocs", type=int, default=None, help="number of simulated ranks"
    )
    faults_parser.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="workload parameter override (repeatable)",
    )
    faults_parser.add_argument(
        "--expect", metavar="OUTCOME", default=None,
        help="exit non-zero unless the outcome matches (survived/degraded/aborted)",
    )
    faults_parser.add_argument(
        "--waits", action="store_true",
        help="also print the timeline and fault-attributed wait states",
    )
    faults_parser.add_argument(
        "--width", type=int, default=72, help="timeline width in columns"
    )
    faults_parser.set_defaults(fn=_cmd_faults)
    recover_parser = sub.add_parser(
        "recover",
        help="run a recoverable workload under a crash plan; report "
        "survived/recovered/degraded/aborted plus rollback cost",
    )
    recover_parser.add_argument(
        "workload", nargs="?", metavar="WORKLOAD",
        help="recoverable workload name (see --list), e.g. kmeans, sort",
    )
    recover_parser.add_argument(
        "--list", action="store_true", help="list the recoverable workloads"
    )
    recover_parser.add_argument(
        "--plan", metavar="FILE", default=None,
        help="fault plan TOML (omit for an empty plan)",
    )
    recover_parser.add_argument(
        "--seed", type=int, default=None, help="override the plan's seed"
    )
    recover_parser.add_argument(
        "-n", "--nprocs", type=int, default=None, help="number of simulated ranks"
    )
    recover_parser.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="workload parameter override (repeatable)",
    )
    recover_parser.add_argument(
        "--max-recoveries", type=int, default=2,
        help="failure budget: shrink-and-retry at most this many times",
    )
    recover_parser.add_argument(
        "--expect", metavar="OUTCOME", default=None,
        help="exit non-zero unless the outcome matches "
        "(survived/recovered/degraded/aborted)",
    )
    recover_parser.add_argument(
        "--waits", action="store_true",
        help="also print the timeline and recovery-attributed wait states",
    )
    recover_parser.add_argument(
        "--width", type=int, default=72, help="timeline width in columns"
    )
    recover_parser.set_defaults(fn=_cmd_recover)
    sanitize_parser = sub.add_parser(
        "sanitize",
        help="run the MPI correctness sanitizer: message races (replay-"
        "confirmed), collective mismatches, leaks; exit 0 clean / "
        "1 warnings / 2 errors",
    )
    sanitize_parser.add_argument(
        "workload", nargs="?", metavar="WORKLOAD",
        help="workload name (see --list), e.g. sort, kmeans",
    )
    sanitize_parser.add_argument(
        "--list", action="store_true",
        help="list the available workloads and pitfalls",
    )
    sanitize_parser.add_argument(
        "--pitfall", metavar="NAME", default=None,
        help="sanitize one entry of the pitfalls corpus instead",
    )
    sanitize_parser.add_argument(
        "--pitfalls", action="store_true",
        help="sweep the whole pitfalls corpus; exit non-zero unless every "
        "entry surfaces its documented diagnostic",
    )
    sanitize_parser.add_argument(
        "-n", "--nprocs", type=int, default=None, help="number of simulated ranks"
    )
    sanitize_parser.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="workload parameter override (repeatable)",
    )
    sanitize_parser.add_argument(
        "--plan", metavar="FILE", default=None,
        help="also inject a fault plan TOML (sanitize under faults)",
    )
    sanitize_parser.add_argument(
        "--seed", type=int, default=None, help="override the plan's seed"
    )
    sanitize_parser.add_argument(
        "--no-replay", action="store_true",
        help="skip the schedule-perturbation replay; race candidates "
        "degrade from verdicts to warnings",
    )
    sanitize_parser.set_defaults(fn=_cmd_sanitize)
    args = parser.parse_args(argv)
    from repro.errors import ReproError

    try:
        return args.fn(args)
    except ReproError as exc:
        # Bad input (an unknown experiment or workload, a bad parameter)
        # is a usage error: one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.command == "sanitize" else 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    import contextlib
    import signal

    # Die quietly when piped into `head` etc.
    with contextlib.suppress(AttributeError, ValueError):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
