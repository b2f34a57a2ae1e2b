"""Command line front end: prove, check, simulate.

Exit codes: 0 for YES (or a completed simulation), 1 for MAYBE, 2 for
errors. The first stdout line of prove and check is always the verdict.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .boxsolver import any_digits
from .certtext import CertParseError
from .interpretations import CertificateInvalid
from .multidist import MultiDistribution
from .prover import ProverConfig, Verdict, check_only, format_verdict, prove, verdict_json
from .rules import FAMILY_NAMES
from .smt import in_process_limit, parse_shape
from .terms import Signature, TermError, check_term
from .wst import WstError, load_system

# prove's defaults, stated once, in ProverConfig
DEFAULTS = ProverConfig._field_defaults
# the longest a solver child can be waited for: `Popen.communicate` polls
# with a timeout that is a C int of milliseconds
MAX_SMT_TIMEOUT = 2_147_483.647


class CliError(Exception):
    pass


# the config keys each command reads
CONFIG_KEYS = {"prove": ("solver", "shapes", "coeff-bound", "smt-timeout"), "check": (), "simulate": ()}


def load_config(path: str, command: str | None = None) -> dict[str, str]:
    """key = value lines; blank lines and # comments are skipped. With a
    command, a key it does not read is an error naming the line."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if command is not None and key.replace("_", "-") not in CONFIG_KEYS[command]:
                reads = ", ".join(CONFIG_KEYS[command]) or "none"
                raise CliError(f"{path}:{lineno}: {command} does not read config key {key!r} (keys it reads: {reads})")
            out[key.replace("_", "-")] = value.strip()
    return out


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="key = value defaults file")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("-v", "--verbose", action="store_true", help="progress notes on stderr")
    parser.add_argument("--no-color", action="store_true", help="plain verdicts even on a tty")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptrs",
        description="Termination prover and exact semantics engine for "
        "probabilistic term rewrite systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prove_p = sub.add_parser("prove", help="search for a ranking interpretation")
    prove_p.add_argument("file", help="rewrite system in .wst format")
    prove_p.add_argument("--solver", help=f"solver command (default: {DEFAULTS['solver']})")
    prove_p.add_argument("--shapes", help="comma-separated shape list, e.g. poly-linear,matrix-2")
    prove_p.add_argument("--coeff-bound", type=int, help=f"coefficient box 0..B (default {DEFAULTS['coeff_bound']})")
    prove_p.add_argument("--smt-timeout", type=float,
                         help=f"seconds per solver call (default {DEFAULTS['timeout']:g}, at most {MAX_SMT_TIMEOUT})")
    prove_p.add_argument("--parallel", action="store_true", help="run the shapes concurrently (in order in process)")
    prove_p.add_argument("--emit-smt", metavar="DIR", help="write one .smt2 script per shape")
    _common_flags(prove_p)

    check_p = sub.add_parser("check", help="validate a certificate exactly")
    check_p.add_argument("file", help="rewrite system in .wst format")
    check_p.add_argument("--certificate", required=True, metavar="FILE")
    _common_flags(check_p)

    sim_p = sub.add_parser("simulate", help="unroll the multidistribution semantics")
    sim_p.add_argument("file", nargs="?", help="rewrite system in .wst format")
    sim_p.add_argument("--family", choices=FAMILY_NAMES, help="built-in system instead of a file")
    sim_p.add_argument("--p", metavar="FRAC", help="probability parameter for --family rw")
    sim_p.add_argument("--start", required=True, help="start object, e.g. a term or s(s(0))")
    sim_p.add_argument("--steps", type=int, default=10)
    sim_p.add_argument("--mode", choices=("outermost", "innermost", "exhaustive"), default="outermost")
    sim_p.add_argument("--cert", metavar="FILE", help="report the certificate's edl bound")
    sim_p.add_argument("--trace", action="store_true", help="print the states, not just masses")
    sim_p.add_argument("--collapse", action="store_true", help="merge equal objects after each step")
    sim_p.add_argument("--truncate", type=int, help="cutoff for the rw and payout families")
    sim_p.add_argument("--node-budget", type=int, default=10**6)
    _common_flags(sim_p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first `main` call; parsing
    leaves no state in it, and help is formatted afresh (reading COLUMNS)
    on every call."""
    return build_parser()


def _pick(args, config: dict[str, str], key: str, default, convert=str):
    """The flag for `key`, else the config value, else `default`."""
    flag = getattr(args, key.replace("-", "_"))
    if flag is not None:
        return flag
    if key not in config:
        return default
    try:
        return convert(config[key])
    except ValueError:
        raise CliError(f"--{key} in {args.config}: invalid {convert.__name__} value: {config[key]!r}") from None


def _colorize(text: str, enabled: bool) -> str:
    if not enabled:
        return text
    colors = {"YES": "32", "MAYBE": "33", "ERROR": "31"}
    head, _, rest = text.partition("\n")
    code = colors.get(head)
    if code is None:
        return text
    return f"\x1b[{code}m{head}\x1b[0m\n{rest}"


def _out(text: str) -> None:
    """Write report text to stdout. Text the locale's encoding cannot hold
    (a non-ASCII symbol under LC_ALL=C) goes out in UTF-8, the encoding
    inputs are read in, so the locale cannot fail a report."""
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _json_out(payload: dict) -> None:
    import json

    print(json.dumps(payload, indent=2, sort_keys=True))


def _mu_json(mu: MultiDistribution) -> list[list[str]]:
    return [[p, str(obj)] for p, obj in mu.rendered()]


def _run_prove(args, config: dict[str, str], color: bool) -> int:
    system = load_system(args.file)
    solver = args.solver
    if solver is None:
        # an empty PTRS_SOLVER counts as unset
        solver = os.environ.get("PTRS_SOLVER") or config.get("solver", DEFAULTS["solver"])
    if not solver.strip():
        raise CliError(f"--solver names no command: {solver!r}")
    shapes_text = _pick(args, config, "shapes", None)
    shapes = (
        tuple(parse_shape(s.strip()) for s in shapes_text.split(",") if s.strip())
        if shapes_text is not None
        else DEFAULTS["shapes"]
    )
    if not shapes:
        raise CliError(f"--shapes names no shape: {shapes_text!r}")
    timeout = _pick(args, config, "smt-timeout", DEFAULTS["timeout"], float)
    if not 0 < timeout <= MAX_SMT_TIMEOUT:
        raise CliError(f"--smt-timeout must be positive and at most {MAX_SMT_TIMEOUT} seconds, got {timeout}")
    coeff_bound = _pick(args, config, "coeff-bound", DEFAULTS["coeff_bound"], int)
    if coeff_bound < 0:
        raise CliError(f"--coeff-bound must be at least 0, got {coeff_bound}")
    prover_config = ProverConfig(
        shapes=shapes,
        solver=solver,
        timeout=timeout,
        coeff_bound=coeff_bound,
        parallel=args.parallel,
        emit_smt=args.emit_smt,
    )
    if args.verbose:
        where = " (in process)" if in_process_limit(solver) is not None else ""
        print(f"solver: {solver}{where}", file=sys.stderr)
        print(f"shapes: {', '.join(str(s) for s in prover_config.shapes)}", file=sys.stderr)
    return _report(prove(system, prover_config, _box_cap_note if args.verbose else None), system, args, color)


def _report(verdict: Verdict, system, args, color: bool) -> int:
    """Write the verdict of `args.command`, prove or check, and return its exit code."""
    if args.json:
        payload = verdict_json(verdict, system)
        payload["command"] = args.command
        payload["file"] = args.file
        _json_out(payload)
    else:
        _out(_colorize(format_verdict(verdict, system), color))
    return {"YES": 0, "MAYBE": 1}.get(verdict.kind, 2)


def _box_cap_note(shape, floor: int, limit: int) -> None:
    sys.stderr.write(
        f"{shape}: at least {floor} box points, over the in-process budget of {limit}; not encoded\n"
    )


def _run_check(args, config: dict[str, str], color: bool) -> int:
    system = load_system(args.file)
    with open(args.certificate, encoding="utf-8-sig") as handle:
        text = handle.read()
    return _report(check_only(system, text), system, args, color)


def _memo_full_note(limit: int) -> None:
    print(f"note: redex memo full at {limit} nodes; it starts afresh", file=sys.stderr)


def _table_full_note(limit: int) -> None:
    print(
        f"note: step table full at {limit} objects; the run starts it afresh from the live objects",
        file=sys.stderr,
    )


def _simulate_pars(args):
    from .rewriting import TermPars, make_family

    if (args.file is None) == (args.family is None):
        raise CliError("simulate needs exactly one of FILE or --family")
    if args.p is not None and args.family != "rw":
        raise CliError("--p only applies to --family rw")
    if args.truncate is not None and args.family not in ("rw", "payout"):
        raise CliError("--truncate only applies to the rw and payout families")
    if args.truncate is not None and args.truncate < 0:
        raise CliError(f"--truncate must be at least 0, got {args.truncate}")
    if args.file is not None:
        return TermPars(load_system(args.file), _memo_full_note if args.verbose else None)
    return make_family(args.family, _probability(args.p) if args.p else None, args.truncate)


def _probability(text: str) -> Fraction:
    try:
        p = Fraction(text)
        if 0 <= p <= 1:
            return p
    except (ValueError, ZeroDivisionError):
        pass
    raise CliError(f"--p must be a fraction in [0, 1] such as 3/4, got {text!r}")


def _start_text(text: str) -> str:
    """--start, with the bytes the locale could not decode (UTF-8 under
    LC_ALL=C), which it left as surrogate escapes, read as UTF-8."""
    if text.isascii() or not any("\udc80" <= ch <= "\udcff" for ch in text):
        return text
    try:
        return text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeError:
        raise CliError(f"--start is not UTF-8 text: {text!r}") from None


def _run_simulate(args, config: dict[str, str], color: bool) -> int:
    # the rewriting engine and the simulator load only when simulate runs,
    # so a prove or check process never compiles them
    from .rewriting import NodeBudgetExceeded
    from .simulator import RunConfig, estimate_edh, run

    args.start = _start_text(args.start)
    if args.steps < 0:
        raise CliError(f"--steps must be at least 0, got {args.steps}")
    if args.node_budget < 1:
        raise CliError(f"--node-budget must be at least 1, got {args.node_budget}")
    pars = _simulate_pars(args)
    start = pars.parse_object(args.start)
    cert = None
    if args.cert is not None:
        from .certtext import load_interpretation
        from .interpretations import check_certificate

        system = getattr(pars, "system", None)
        if system is None and args.family == "rw":
            from .rewriting import random_walk_ptrs

            system = random_walk_ptrs(pars.p)
        if system is None:
            raise CliError("--cert needs a term-rewriting view of the system")
        cert = check_certificate(load_interpretation(args.cert), system)
        try:
            check_term(pars.term_view(start), Signature(cert.interpretation.arities))
        except TermError as exc:
            raise CliError(f"the certificate does not interpret the start term: {exc}") from None
    run_config = RunConfig(
        pars=pars,
        start=start,
        steps=args.steps,
        mode=args.mode,
        collapse=args.collapse,
        node_budget=args.node_budget,
        keep_trace=args.trace,
        on_table_full=_table_full_note if args.verbose else None,
    )
    try:
        report = run(run_config)
    except NodeBudgetExceeded as exc:
        raise CliError(str(exc)) from None
    estimate = estimate_edh(pars, cert, start, report) if cert is not None else None
    if args.json:
        payload = {
            "command": "simulate",
            "start": str(start),
            "steps": args.steps,
            "mode": report.mode,
            "masses": [str(m) for m in report.masses] if report.masses is not None else None,
            "edl": [str(e) for e in report.edl] if report.edl is not None else None,
            "mass_min": [str(m) for m in report.mass_min],
            "mass_max": [str(m) for m in report.mass_max],
            "edl_min": [str(e) for e in report.edl_min],
            "edl_max": [str(e) for e in report.edl_max],
            "outcomes": [_mu_json(mu) for mu in report.outcomes],
            "trace": _trace_json(report),
            "truncation_hit": report.truncation_hit,
            "nodes": report.nodes,
            "certificate": None
            if estimate is None
            else {
                "epsilon": str(cert.epsilon),
                "bound": str(estimate.bound),
                "holds": estimate.holds,
                "final_edl": str(estimate.final_edl),
            },
        }
        _json_out(payload)
    else:
        _print_simulation(args, report, cert, estimate)
    return 0


def _trace_json(report):
    if report.trace is None:
        return None
    if report.mode == "exhaustive":
        return [[_mu_json(mu) for mu in level] for level in report.trace]
    return [[_mu_json(mu)] for mu in report.trace]


def _print_simulation(args, report, cert, estimate) -> None:
    _out(f"start {args.start}, steps {args.steps}, mode {report.mode}\n")
    if report.masses is not None:
        for depth, (mass, edl) in enumerate(zip(report.masses, report.edl)):
            line = f"step {depth}: mass {mass}, edl {edl}"
            if args.trace:
                line += f", state {report.trace[depth]}"
            _out(line + "\n")
        _out(f"outcome: {report.outcomes[0]}\n")
    else:
        for depth in range(len(report.mass_min)):
            _out(
                f"step {depth}: mass {report.mass_min[depth]} .. {report.mass_max[depth]}, "
                f"edl {report.edl_min[depth]} .. {report.edl_max[depth]}\n"
            )
            if args.trace:
                for mu in report.trace[depth]:
                    _out(f"  state {mu}\n")
        _out(f"outcomes ({len(report.outcomes)}):\n")
        for mu in report.outcomes:
            _out(f"  {mu}\n")
    if report.truncation_hit:
        _out("note: the cutoff truncated some branches; masses are lower bounds\n")
    if estimate is not None:
        _out(f"certificate epsilon = {cert.epsilon}\n")
        _out(f"edl bound from certificate: {estimate.bound}\n")
        _out(f"bound respected: {'yes' if estimate.holds else 'NO'}\n")


@any_digits()
def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    color = sys.stdout.isatty() and not args.no_color
    try:
        config = load_config(args.config, args.command) if args.config else {}
        command = {"prove": _run_prove, "check": _run_check, "simulate": _run_simulate}[args.command]
        code = command(args, config, color)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of stdout went away: the run is cut off, which is not
        # an error to report. Python flushes sys.stdout again at exit, so
        # the real stdout is pointed at /dev/null to keep that quiet too.
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2
    except (
        CliError,
        WstError,
        CertParseError,
        CertificateInvalid,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Last resort: exit 1 would read as MAYBE, so no failure may leave
        # main uncaught.
        if args.verbose:
            import traceback

            traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
