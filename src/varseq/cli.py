"""Command line interface: norm, maximal, czd, verify, corpus.

Exit codes: 0 on success, 1 when verification reports failures or an
internal invariant breaks, 2 for usage, config, or input errors, including
a config or VARSEQ_THREADS value of the wrong type. Config files are strict
JSON (unknown keys rejected); explicit flags override config values.
VARSEQ_THREADS sets default parallelism for verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .czd import cz_decompose
from .exponent import ExponentFunction
from .harness import (
    CorpusSpec,
    SUITE_CHECKS,
    generate_corpus,
    run_verification_suite,
)
from .lattice import Sequence, ZInterval, dilate
from .maximal import m_alpha_profile
from .norm import luxemburg_norm
from .reports import render_csv, render_json, write_text

__all__ = ["RunConfig", "parse_config", "run", "main", "ConfigError"]

DEFAULT_CORPUS = {
    "seed": 20260814,
    "count": 24,
    "window_width": 48,
    "value_law": "uniform01",
    "exponent_law": "lh-decay",
    "alpha_list": [0.0, 0.25, 0.5],
}

_CORPUS_KEYS = {
    "seed",
    "count",
    "window_width",
    "value_law",
    "exponent_law",
    "alpha_list",
    "p_lo",
    "p_hi",
}

_ALLOWED_KEYS = {
    "norm": {"command", "input", "exponent", "rel_tol", "out", "format"},
    "maximal": {"command", "input", "alpha", "window", "out", "format"},
    "czd": {"command", "input", "alpha", "t", "out", "format"},
    "verify": {"command", "corpus", "checks", "t", "inject_fault", "threads", "out", "format"},
    "corpus": {"command", "corpus", "out", "format"},
}


class ConfigError(ValueError):
    """Invalid config file, flag combination, or input file."""


@dataclass
class RunConfig:
    """Fully resolved invocation of one CLI command."""

    command: str
    input: str | None = None
    exponent: str | None = None
    alpha: float = 0.0
    t: float = 0.05
    rel_tol: float = 1e-12
    window: ZInterval | None = None
    corpus: CorpusSpec | None = None
    checks: list[str] | None = None
    threads: int = 1
    inject_fault: bool = False
    out: str | None = None
    format: str = "json"


def parse_config(path: str) -> dict:
    """Load and syntactically validate a strict JSON config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _validate_keys(command: str, data: dict) -> None:
    allowed = _ALLOWED_KEYS[command]
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    if "command" in data and data["command"] != command:
        raise ConfigError(
            f"config is for command {data['command']!r}, invoked as {command!r}"
        )
    if "corpus" in data:
        if not isinstance(data["corpus"], dict):
            raise ConfigError("corpus must be an object")
        bad = sorted(set(data["corpus"]) - _CORPUS_KEYS)
        if bad:
            raise ConfigError(f"unknown corpus keys: {', '.join(bad)}")


def _corpus_spec(entries: dict) -> CorpusSpec:
    merged = dict(DEFAULT_CORPUS)
    merged.update({k: v for k, v in entries.items() if v is not None})
    try:
        return CorpusSpec(
            seed=int(merged["seed"]),
            count=int(merged["count"]),
            window_width=int(merged["window_width"]),
            value_law=str(merged["value_law"]),
            exponent_law=str(merged["exponent_law"]),
            alpha_list=tuple(float(a) for a in merged["alpha_list"]),
            p_lo=None if merged.get("p_lo") is None else float(merged["p_lo"]),
            p_hi=None if merged.get("p_hi") is None else float(merged["p_hi"]),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid corpus spec: {e}") from e


def load_sequence(path: str) -> Sequence:
    """Sequence from JSON {"offset", "values"} or text "index value" lines."""
    try:
        if path.endswith(".json"):
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict) or set(data) != {"offset", "values"}:
                raise ConfigError(
                    f"{path}: sequence JSON must have exactly offset and values"
                )
            return Sequence(int(data["offset"]), np.asarray(data["values"], dtype=float))
        pairs = []
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ConfigError(f"{path}:{line_no}: expected 'index value'")
                pairs.append((int(parts[0]), float(parts[1])))
        return Sequence.from_pairs(pairs)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"cannot load sequence {path}: {e}") from e


def load_exponent(path: str) -> ExponentFunction:
    """Exponent from JSON {"window_lo", "values", "p_inf"}."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or set(data) != {"window_lo", "values", "p_inf"}:
            raise ConfigError(
                f"{path}: exponent JSON must have exactly window_lo, values, p_inf"
            )
        return ExponentFunction(
            int(data["window_lo"]),
            np.asarray(data["values"], dtype=float),
            float(data["p_inf"]),
        )
    except (OSError, ValueError, json.JSONDecodeError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"cannot load exponent {path}: {e}") from e


def _sequence_dict(a: Sequence) -> dict:
    return {"offset": a.offset, "values": a.values}


def _exponent_dict(p: ExponentFunction) -> dict:
    return {"window_lo": p.window_lo, "values": p.values, "p_inf": p.p_inf}


def _run_norm(cfg: RunConfig) -> int:
    if cfg.input is None or cfg.exponent is None:
        raise ConfigError("norm requires --input and --exponent")
    a = load_sequence(cfg.input)
    p = load_exponent(cfg.exponent)
    nv = luxemburg_norm(a, p, cfg.rel_tol)
    if cfg.format != "json":
        raise ConfigError("norm supports only json output")
    write_text(
        cfg.out,
        render_json(
            {
                "command": "norm",
                "norm": nv.value,
                "achieved_modular": nv.achieved_modular,
                "tolerance": nv.tolerance,
                "iterations": nv.iterations,
            }
        ),
    )
    return 0


def _run_maximal(cfg: RunConfig) -> int:
    if cfg.input is None:
        raise ConfigError("maximal requires --input")
    a = load_sequence(cfg.input)
    window = cfg.window
    if window is None:
        hull = a.support_hull()
        if hull is None:
            raise ConfigError("zero sequence needs an explicit --window")
        window = dilate(hull, 3)
    prof = m_alpha_profile(a, cfg.alpha, window)
    if cfg.format == "csv":
        rows = [
            [n, float(v)]
            for n, v in zip(range(window.lo, window.hi + 1), prof.values)
        ]
        write_text(cfg.out, render_csv(["n", "value"], rows))
        return 0
    write_text(
        cfg.out,
        render_json(
            {
                "command": "maximal",
                "alpha": prof.alpha,
                "window_lo": window.lo,
                "window_hi": window.hi,
                "values": prof.values,
            }
        ),
    )
    return 0


def _run_czd(cfg: RunConfig) -> int:
    if cfg.input is None:
        raise ConfigError("czd requires --input")
    a = load_sequence(cfg.input)
    d = cz_decompose(a, cfg.alpha, cfg.t)
    if cfg.format != "json":
        raise ConfigError("czd supports only json output")
    write_text(
        cfg.out,
        render_json(
            {
                "command": "czd",
                "t": d.t,
                "alpha": d.alpha,
                "n_t": d.n_t,
                "intervals": d.intervals,
                "averages": d.averages,
            }
        ),
    )
    return 0


def _run_verify(cfg: RunConfig) -> int:
    reports = run_verification_suite(
        cfg.corpus,
        t=cfg.t,
        checks=cfg.checks,
        threads=cfg.threads,
        inject_fault=cfg.inject_fault,
    )
    failures = sum(r.failures for r in reports)
    if cfg.format == "csv":
        rows = [
            [r.check_name, r.cases, r.failures, "" if r.empirical_constant is None else r.empirical_constant]
            for r in reports
        ]
        write_text(cfg.out, render_csv(["check_name", "cases", "failures", "empirical_constant"], rows))
    else:
        write_text(
            cfg.out,
            render_json(
                {
                    "command": "verify",
                    "failures_total": failures,
                    "reports": [r.to_dict() for r in reports],
                }
            ),
        )
    return 1 if failures else 0


def _run_corpus(cfg: RunConfig) -> int:
    if cfg.format != "json":
        raise ConfigError("corpus supports only json output")
    items = generate_corpus(cfg.corpus)
    write_text(
        cfg.out,
        render_json(
            {
                "command": "corpus",
                "spec": {
                    "seed": cfg.corpus.seed,
                    "count": cfg.corpus.count,
                    "window_width": cfg.corpus.window_width,
                    "value_law": cfg.corpus.value_law,
                    "exponent_law": cfg.corpus.exponent_law,
                    "alpha_list": list(cfg.corpus.alpha_list),
                    "p_lo": cfg.corpus.p_lo,
                    "p_hi": cfg.corpus.p_hi,
                },
                "items": [
                    {
                        "index": it.index,
                        "sequence": _sequence_dict(it.a),
                        "exponent": _exponent_dict(it.p),
                    }
                    for it in items
                ],
            }
        ),
    )
    return 0


_RUNNERS = {
    "norm": _run_norm,
    "maximal": _run_maximal,
    "czd": _run_czd,
    "verify": _run_verify,
    "corpus": _run_corpus,
}


def run(cfg: RunConfig) -> int:
    """Execute a resolved command; returns the process exit code."""
    try:
        return _RUNNERS[cfg.command](cfg)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from e
    except RuntimeError as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_window(text: str) -> ZInterval:
    try:
        lo, hi = text.split(":")
        return ZInterval(int(lo), int(hi))
    except ValueError as e:
        raise ConfigError(f"bad window {text!r}, expected LO:HI") from e


def _parse_alphas(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"bad alpha list {text!r}") from e


def _build_parser() -> _Parser:
    top = _Parser(prog="varseq", description=__doc__)
    top.add_argument("--version", action="version", version=f"varseq {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out", help="output path (atomic write); default stdout")
        sp.add_argument("--format", choices=["json", "csv"], help="output format")

    sp = sub.add_parser("norm", help="Luxemburg norm of a sequence")
    common(sp)
    sp.add_argument("--input", help="sequence file (json or 'index value' text)")
    sp.add_argument("--exponent", help="exponent file (json)")
    sp.add_argument("--rel-tol", type=float, dest="rel_tol")

    sp = sub.add_parser("maximal", help="fractional maximal profile")
    common(sp)
    sp.add_argument("--input")
    sp.add_argument("--alpha", type=float)
    sp.add_argument(
        "--window",
        help="evaluation window LO:HI (write --window=-4:4 for negative LO)",
    )

    sp = sub.add_parser("czd", help="stopping-time decomposition")
    common(sp)
    sp.add_argument("--input")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--t", type=float)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.add_argument("--checks", help="comma-separated check names")
    sp.add_argument("--t", type=float)
    sp.add_argument("--threads", type=int)
    sp.add_argument("--inject-fault", action="store_true", default=None, dest="inject_fault")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--count", type=int)
    sp.add_argument("--width", type=int)
    sp.add_argument("--value-law", dest="value_law")
    sp.add_argument("--exponent-law", dest="exponent_law")
    sp.add_argument("--alphas", help="comma-separated alpha list")

    sp = sub.add_parser("corpus", help="emit a reproducible corpus")
    common(sp)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--count", type=int)
    sp.add_argument("--width", type=int)
    sp.add_argument("--value-law", dest="value_law")
    sp.add_argument("--exponent-law", dest="exponent_law")
    sp.add_argument("--alphas", help="comma-separated alpha list")
    sp.add_argument("--p-lo", type=float, dest="p_lo")
    sp.add_argument("--p-hi", type=float, dest="p_hi")
    return top


def _convert(kind: type, name: str, value):
    """kind(value), or a ConfigError naming the setting."""
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {name} {value!r}: expected {kind.__name__}") from e


def _resolve(args: argparse.Namespace) -> RunConfig:
    command = args.command
    file_cfg: dict = {}
    if getattr(args, "config", None):
        file_cfg = parse_config(args.config)
        _validate_keys(command, file_cfg)

    def pick(name, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_cfg and file_cfg[name] is not None:
            return file_cfg[name]
        return default

    cfg = RunConfig(command=command)
    cfg.out = pick("out", None)
    cfg.format = str(pick("format", "json"))
    if command in ("norm",):
        cfg.input = pick("input", None)
        cfg.exponent = pick("exponent", None)
        cfg.rel_tol = _convert(float, "rel_tol", pick("rel_tol", 1e-12))
    if command in ("maximal", "czd"):
        cfg.input = pick("input", None)
        cfg.alpha = _convert(float, "alpha", pick("alpha", 0.0))
    if command == "maximal":
        win = pick("window", None)
        cfg.window = _parse_window(win) if isinstance(win, str) else win
    if command == "czd":
        t = pick("t", None)
        if t is None:
            raise ConfigError("czd requires --t")
        cfg.t = _convert(float, "t", t)
    if command == "verify":
        cfg.t = _convert(float, "t", pick("t", 0.05))
        env_threads = os.environ.get("VARSEQ_THREADS")
        default_threads = _convert(int, "VARSEQ_THREADS", env_threads) if env_threads else 1
        cfg.threads = _convert(int, "threads", pick("threads", default_threads))
        if cfg.threads < 1:
            raise ConfigError("threads must be >= 1")
        cfg.inject_fault = bool(pick("inject_fault", False))
        checks = pick("checks", None)
        if isinstance(checks, str):
            checks = [c.strip() for c in checks.split(",") if c.strip()]
        if checks is not None:
            unknown = sorted(set(checks) - set(SUITE_CHECKS))
            if unknown:
                raise ConfigError(f"unknown checks: {', '.join(unknown)}")
        cfg.checks = checks
    if command in ("verify", "corpus"):
        entries = dict(file_cfg.get("corpus", {}))
        overrides = {
            "seed": getattr(args, "seed", None),
            "count": getattr(args, "count", None),
            "window_width": getattr(args, "width", None),
            "value_law": getattr(args, "value_law", None),
            "exponent_law": getattr(args, "exponent_law", None),
            "p_lo": getattr(args, "p_lo", None),
            "p_hi": getattr(args, "p_hi", None),
        }
        alphas = getattr(args, "alphas", None)
        if alphas is not None:
            overrides["alpha_list"] = _parse_alphas(alphas)
        entries.update({k: v for k, v in overrides.items() if v is not None})
        cfg.corpus = _corpus_spec(entries)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve(args)
        return run(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
