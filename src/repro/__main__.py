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

#: the most ranks ``-n/--nprocs`` may ask for, checked before any world
#: is built.  Each rank is an OS thread with its own baton and queues, so
#: a huge ``-n`` would build for as long as memory lasts and then try to
#: start that many threads; 1,024 is far above the 64 ranks the tests,
#: docs and benchmarks use.
MAX_NPROCS = 1024


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


def _list_workloads(registry) -> int:
    """Print one line per workload of ``registry`` (``--list``)."""
    width = max(len(name) for name in registry)
    for name, w in sorted(registry.items()):
        print(
            f"{name.ljust(width)}  {w.module:>7}  "
            f"(default nprocs {w.default_nprocs})  {w.description}"
        )
    return 0


#: the JSON value types a ``-p`` value may take, by the type of the
#: parameter's default (a parameter defaulting to None takes any value)
_PARAM_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def _workload_params(args, registry, body=lambda w: w.runner) -> dict:
    """Require ``WORKLOAD``; return its ``-p KEY=VALUE`` items as keyword
    arguments.

    Values parse as JSON (numbers, booleans, lists, ...), falling back to
    bare strings.  When ``registry`` knows the workload (an unknown name
    is left for the runner to report), each key must be one of the
    keyword-only parameters of ``body(workload)`` and each value must
    have the type of that parameter's default.  Bad input raises
    :class:`~repro.errors.ValidationError`.
    """
    import inspect
    import json

    from repro.errors import ValidationError

    name = args.workload
    if name is None:
        raise ValidationError("a WORKLOAD name is required (see --list)")
    workload = registry.get(name)
    accepted = {} if workload is None else {
        p.name: p.default
        for p in inspect.signature(body(workload)).parameters.values()
        if p.kind is p.KEYWORD_ONLY
    }
    params = {}
    for item in args.param or []:
        key, sep, text = item.partition("=")
        if not sep:
            raise ValidationError(f"bad -p {item!r}; expected key=value")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text  # bare strings (e.g. -p method=weighted)
        if workload is not None:
            if key not in accepted:
                takes = ", ".join(accepted) or "none"
                raise ValidationError(
                    f"workload {name!r} has no parameter {key!r} (takes: {takes})"
                )
            types = _PARAM_TYPES.get(type(accepted[key]))
            if types and type(value) not in types:
                raise ValidationError(
                    f"parameter {key!r} of workload {name!r} must be "
                    f"{type(accepted[key]).__name__}, got {text!r}"
                )
        params[key] = value
    return params


def _plan(args):
    """The ``--plan`` file, or an empty plan, with ``--seed`` applied."""
    import dataclasses

    from repro.faults import FaultPlan

    plan = FaultPlan.from_toml(args.plan) if args.plan else FaultPlan()
    if args.seed is not None:
        plan = dataclasses.replace(plan, seed=args.seed)
    return plan


def _check_expect(args, outcomes) -> None:
    """Reject an ``--expect`` that names none of ``outcomes``."""
    from repro.errors import ValidationError

    if args.expect is not None and args.expect not in outcomes:
        raise ValidationError(f"--expect must be one of {', '.join(outcomes)}")


def _finish_drill(args, outcome: str, tracer) -> int:
    """Print the ``--waits`` timeline and wait states of the run that was
    classified ``outcome``; give the ``--expect`` verdict as exit code."""
    from repro.obs import analyze_wait_states, render_wait_states
    from repro.smpi.timeline import render_timeline

    if args.waits and outcome != "aborted":
        print()
        print(render_timeline(tracer, width=args.width))
        print()
        print(render_wait_states(analyze_wait_states(tracer)))
    if args.expect is not None and outcome != args.expect:
        print(
            f"\nFAIL: expected outcome {args.expect!r}, got {outcome!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args) -> int:
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
        return _list_workloads(WORKLOADS)
    params = _workload_params(args, WORKLOADS)
    if args.export_json:
        # Checked before the run, which the missing directory would waste.
        from pathlib import Path

        from repro.errors import ValidationError

        folder = Path(args.export_json).parent
        if not folder.is_dir():
            raise ValidationError(f"--export-json: no such directory {str(folder)!r}")
    result = run_workload(args.workload, nprocs=args.nprocs, **params)
    tracer = result.tracer
    print(
        f"workload {args.workload!r} on {result.world.nprocs} ranks: "
        f"virtual makespan {result.elapsed:.6g} s, "
        f"{len(tracer)} trace events"
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


def _cmd_faults(args) -> int:
    from repro.faults.runner import OUTCOMES, fault_report
    from repro.obs import WORKLOADS, run_workload

    if args.list:
        return _list_workloads(WORKLOADS)
    _check_expect(args, OUTCOMES)
    params = _workload_params(args, WORKLOADS)
    plan = _plan(args)
    print(plan.describe())
    print()
    out = run_workload(
        args.workload, nprocs=args.nprocs, faults=plan, check=False, **params
    )
    report = fault_report(args.workload, out)
    for line in report.lines():
        print(line)
    return _finish_drill(args, report.outcome, out.tracer)


def _cmd_recover(args) -> int:
    from repro.recovery import RECOVERABLE, RECOVERY_OUTCOMES, run_recoverable

    if args.list:
        return _list_workloads(RECOVERABLE)
    _check_expect(args, RECOVERY_OUTCOMES)
    params = _workload_params(args, RECOVERABLE, lambda w: w.body())
    plan = _plan(args)
    print(plan.describe())
    print()
    run = run_recoverable(
        args.workload, plan, nprocs=args.nprocs,
        max_recoveries=args.max_recoveries, **params,
    )
    for line in run.report.lines():
        print(line)
    return _finish_drill(args, run.report.outcome, run.run.tracer)


def _cmd_sanitize(args) -> int:
    from repro.modules.pitfalls import PITFALLS
    from repro.obs import WORKLOADS
    from repro.sanitize import (
        sanitize_corpus,
        sanitize_pitfall,
        sanitize_workload,
    )

    if args.list:
        _list_workloads(WORKLOADS)
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
    params = _workload_params(args, WORKLOADS)
    report = sanitize_workload(
        args.workload, nprocs=args.nprocs,
        replay=not args.no_replay, faults=_plan(args), **params,
    )
    print(report.render())
    return report.exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of the data-intensive PDC teaching modules "
        "(Gowanlock & Gallet, IPDPSW 2021).",
    )
    # Option sets shared by several subcommands, each declared once.
    json_opts = argparse.ArgumentParser(add_help=False)
    json_opts.add_argument(
        "--json", action="store_true", help="machine-readable check results"
    )
    workload_opts = argparse.ArgumentParser(add_help=False)
    workload_opts.add_argument(
        "workload", nargs="?", metavar="WORKLOAD",
        help="workload name (see --list)",
    )
    workload_opts.add_argument(
        "--list", action="store_true", help="list the available workloads"
    )
    workload_opts.add_argument(
        "-n", "--nprocs", type=int, default=None,
        help=f"number of simulated ranks (at most {MAX_NPROCS})",
    )
    workload_opts.add_argument(
        "-p", "--param", action="append", metavar="KEY=VALUE",
        help="workload parameter override (repeatable), e.g. -p k=32",
    )
    plan_opts = argparse.ArgumentParser(add_help=False)
    plan_opts.add_argument(
        "--plan", metavar="FILE", default=None,
        help="fault plan TOML (omit for an empty plan)",
    )
    plan_opts.add_argument(
        "--seed", type=int, default=None, help="override the plan's seed"
    )
    width_opts = argparse.ArgumentParser(add_help=False)
    width_opts.add_argument(
        "--width", type=int, default=72, help="timeline width in columns"
    )
    drill_opts = argparse.ArgumentParser(add_help=False, parents=[width_opts])
    drill_opts.add_argument(
        "--expect", metavar="OUTCOME", default=None,
        help="exit 1 unless the run's outcome is OUTCOME",
    )
    drill_opts.add_argument(
        "--waits", action="store_true",
        help="also print the run's timeline and wait states",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the registered experiments").set_defaults(
        fn=_cmd_list
    )
    run_parser = sub.add_parser(
        "run", help="run specific experiments", parents=[json_opts]
    )
    run_parser.add_argument("ids", nargs="+", metavar="ID", help="e.g. T4 F1 E3")
    run_parser.set_defaults(fn=_cmd_run)
    sub.add_parser(
        "all", help="run every experiment", parents=[json_opts]
    ).set_defaults(fn=_cmd_all)
    sub.add_parser("modules", help="print the module catalog").set_defaults(
        fn=_cmd_modules
    )
    sub.add_parser("quiz", help="show the Figure 1 quiz question").set_defaults(
        fn=_cmd_quiz
    )
    trace_parser = sub.add_parser(
        "trace", parents=[workload_opts, width_opts],
        help="profile a module workload (timeline, waits, critical path)",
    )
    trace_parser.add_argument(
        "--metrics", action="store_true", help="also print the full metrics registry"
    )
    trace_parser.add_argument(
        "--export-json", metavar="FILE",
        help="write a Chrome trace-event JSON file (Perfetto / chrome://tracing)",
    )
    trace_parser.set_defaults(fn=_cmd_trace)
    sub.add_parser(
        "faults", parents=[workload_opts, plan_opts, drill_opts],
        help="run a workload under a fault plan; report survived/degraded/aborted",
    ).set_defaults(fn=_cmd_faults)
    recover_parser = sub.add_parser(
        "recover", parents=[workload_opts, plan_opts, drill_opts],
        help="run a recoverable workload under a crash plan; report "
        "survived/recovered/degraded/aborted plus rollback cost",
    )
    recover_parser.add_argument(
        "--max-recoveries", type=int, default=2,
        help="failure budget: shrink-and-retry at most this many times",
    )
    recover_parser.set_defaults(fn=_cmd_recover)
    sanitize_parser = sub.add_parser(
        "sanitize", parents=[workload_opts, plan_opts],
        help="run the MPI correctness sanitizer: message races (replay-"
        "confirmed), collective mismatches, leaks; exit 0 clean / "
        "1 warnings / 2 errors",
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
        "--no-replay", action="store_true",
        help="skip the schedule-perturbation replay; race candidates "
        "degrade from verdicts to warnings",
    )
    sanitize_parser.set_defaults(fn=_cmd_sanitize)
    args = parser.parse_args(argv)
    from repro.errors import ReproError, ValidationError

    try:
        if (getattr(args, "nprocs", None) or 0) > MAX_NPROCS:
            raise ValidationError(f"-n/--nprocs must be at most {MAX_NPROCS}, got {args.nprocs}")
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
