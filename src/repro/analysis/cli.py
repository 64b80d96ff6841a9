"""Command-line front end for reprolint.

Invoked as ``python -m repro.analysis`` or ``repro-experiments lint``.

Exit codes: 0 when the tree lints clean, 1 when any rule reports a
finding, 2 when the analyzer itself fails (bad path, unparseable file,
unknown rule) — so CI can tell "the gate fired" from "the gate broke".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .framework import AnalysisError, LintReport, all_rules, run_lint

__all__ = ["build_parser", "main"]


def _default_target() -> Path:
    """Lint the installed ``repro`` package when no paths are given."""
    import repro

    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description=(
            "reprolint: static checks for the project invariants (lock "
            "discipline, hot-path allocation, "
            "cache-key purity)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the report to this file (same format as stdout)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _render(report: LintReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_json(), indent=2, sort_keys=True)
    lines = [finding.format() for finding in report.findings]
    if report.clean:
        lines.append(
            f"reprolint: clean — {report.files} file(s) checked against "
            f"{len(report.rules)} rule(s)"
        )
    else:
        lines.append(
            f"reprolint: {len(report.findings)} finding(s) in {report.files} "
            f"file(s)"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}: {rule.description}")
        return 0
    paths = args.paths or [_default_target()]
    rule_names = (
        [name.strip() for name in args.rules.split(",") if name.strip()]
        if args.rules
        else None
    )
    try:
        report = run_lint(paths, rule_names)
    except AnalysisError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    rendered = _render(report, args.format)
    print(rendered)
    if args.output is not None:
        try:
            args.output.write_text(rendered + "\n", encoding="utf8")
        except OSError as exc:
            print(f"reprolint: error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    return 0 if report.clean else 1
