"""Command line interface: norm, maximal, czd, verify, corpus.

Every setting is one entry of `_SETTINGS`: its parser, its default, the
commands that take it, its flag, and whether a config file holds it at the
top level or inside "corpus". A value comes from the flag, else the config
file, else the default; no setting is read from the environment. Flags
reach argparse as plain text, and the setting's one parser reads that text
or the config's JSON value alike: a config value is valid exactly when it
has the setting's JSON type or is text the flag would accept. verify runs
its checks serially: they hold the GIL, so threads only made them slower.

Each command returns its record; run() alone renders it as JSON or CSV,
writes it to --out (atomically) or stdout, and maps errors to exit codes:
0 on success, 1 when verification reports failures or an internal
invariant breaks, 2 for usage, config, input or write errors, including a
flag or config value that the setting's parser rejects.
Config files are strict JSON (unknown keys rejected).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import __version__
from .czd import cz_decompose
from .exponent import ExponentFunction
from .harness import CorpusSpec, generate_corpus, run_verification_suite
from .lattice import Sequence, ZInterval, cardinality, dilate
from .maximal import MaximalEvaluator
from .norm import luxemburg_norm, modular
from .reports import render_csv, render_json, write_text

__all__ = ["parse_config", "run", "main", "ConfigError"]

# Most points a maximal profile window may hold: rendering its record peaks
# near 300 bytes a point.
MAXIMAL_WINDOW_LIMIT = 2**20


class ConfigError(ValueError):
    """Invalid config file, flag combination, or input file."""


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


@dataclass(frozen=True)
class _Kind:
    """Reads a setting from flag text or from a config file's JSON value."""

    expected: str  # what an invalid value is told it should have been
    text: Callable[[str], Any] | None  # flag text -> value; None: no text form
    json: tuple[type, ...] = ()  # non-string JSON types taken (bool is no int)
    value: Callable[[Any], Any] = lambda v: v

    def parse(self, v: Any) -> Any:
        """The typed value; TypeError or ValueError when v is not of this kind."""
        if isinstance(v, str) and self.text is not None:
            return self.text(v)
        if type(v) not in self.json:
            raise TypeError(f"expected {self.expected}")
        return self.value(v)


def _items(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(text)
    return text


def _window(text: str) -> ZInterval:
    lo, hi = text.split(":")
    return ZInterval(int(lo), int(hi))


_TEXT = _Kind("a string", str)
_INT = _Kind("an integer", int, (int,))
_FLOAT = _Kind("a number", float, (int, float), float)
_BOOL = _Kind("true or false", None, (bool,))
_FORMAT = _Kind("json or csv", _format)
_WINDOW = _Kind("LO:HI", _window)
_FLOATS = _Kind(
    "a list of numbers",
    lambda s: tuple(float(x) for x in _items(s)),
    (list,),
    lambda v: tuple(_FLOAT.parse(x) for x in v),
)
_NAMES = _Kind("a list of names", _items, (list,), lambda v: [_TEXT.parse(x) for x in v])


def _json_field(path: str, data: dict, key: str, kind: _Kind) -> Any:
    """data[key] if it has one of the kind's JSON types: an input file has no
    text form, so a string is no number."""
    v = data[key]
    if type(v) not in kind.json:
        raise ConfigError(f"{path}: {key} must be {kind.expected}, got {json.dumps(v)}")
    return kind.value(v)


def _json_floats(path: str, data: dict, key: str) -> np.ndarray:
    """data[key] as a float array if it is a list of JSON numbers."""
    v = data[key]
    bad = [x for x in v if type(x) not in _FLOAT.json] if isinstance(v, list) else [v]
    if bad:
        raise ConfigError(f"{path}: {key} must be numbers, got {json.dumps(bad[0])}")
    return np.asarray(v, dtype=float)


def _load(path: str, what: str, parse: Callable[[str], Any]) -> Any:
    """parse(path), with any read or parse error as one ConfigError."""
    try:
        return parse(path)
    except ConfigError:
        raise
    except (OSError, ValueError, OverflowError) as e:
        raise ConfigError(f"cannot load {what} {path}: {e}") from e


def _read_sequence(path: str) -> Sequence:
    """Sequence from JSON {"offset", "values"} or text "index value" lines."""
    if path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or set(data) != {"offset", "values"}:
            raise ConfigError(f"{path}: sequence JSON must have exactly offset and values")
        return Sequence(_json_field(path, data, "offset", _INT), _json_floats(path, data, "values"))
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


def _read_exponent(path: str) -> ExponentFunction:
    """Exponent from JSON {"window_lo", "values", "p_inf"}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or set(data) != {"window_lo", "values", "p_inf"}:
        raise ConfigError(f"{path}: exponent JSON must have exactly window_lo, values, p_inf")
    return ExponentFunction(
        _json_field(path, data, "window_lo", _INT),
        _json_floats(path, data, "values"),
        _json_field(path, data, "p_inf", _FLOAT),
    )


def _run_norm(cfg: argparse.Namespace) -> dict:
    a = _load(cfg.input, "sequence", _read_sequence)
    p = _load(cfg.exponent, "exponent", _read_exponent)
    nv = luxemburg_norm(a, p, cfg.rel_tol)
    return {
        "command": "norm",
        "norm": nv.value,
        "achieved_modular": modular(a, p, nv.value) if nv.value > 0 else 0.0,
        "tolerance": nv.tolerance,
        "iterations": nv.iterations,
    }


def _run_maximal(cfg: argparse.Namespace) -> dict:
    a = _load(cfg.input, "sequence", _read_sequence)
    window = cfg.window
    if window is None:
        hull = a.support_hull()
        if hull is None:
            raise ConfigError("zero sequence needs an explicit --window")
        window = dilate(hull, 3)
    if cardinality(window) > MAXIMAL_WINDOW_LIMIT:
        raise ConfigError(f"maximal window has {cardinality(window)} points, more than 2**20")
    ev = MaximalEvaluator(a, cfg.alpha)
    return {
        "command": "maximal",
        "alpha": ev.alpha,
        "window_lo": window.lo,
        "window_hi": window.hi,
        "values": ev.profile(window),
    }


def _maximal_rows(rec: dict) -> tuple[list[str], list[list]]:
    ns = range(rec["window_lo"], rec["window_hi"] + 1)
    return ["n", "value"], [[n, float(v)] for n, v in zip(ns, rec["values"])]


def _run_czd(cfg: argparse.Namespace) -> dict:
    d = cz_decompose(_load(cfg.input, "sequence", _read_sequence), cfg.alpha, cfg.t)
    return {
        "command": "czd",
        "t": d.t,
        "alpha": d.alpha,
        "n_t": d.n_t,
        "intervals": d.intervals,
        "averages": d.averages,
    }


def _run_verify(cfg: argparse.Namespace) -> dict:
    reports = run_verification_suite(
        cfg.corpus,
        t=cfg.t,
        checks=cfg.checks,
        inject_fault=cfg.inject_fault,
    )
    return {
        "command": "verify",
        "failures_total": sum(r.failures for r in reports),
        "reports": reports,
    }


def _verify_rows(rec: dict) -> tuple[list[str], list[list]]:
    rows = [
        [r.check_name, r.cases, r.failures, "" if r.empirical_constant is None else r.empirical_constant]
        for r in rec["reports"]
    ]
    return ["check_name", "cases", "failures", "empirical_constant"], rows


def _run_corpus(cfg: argparse.Namespace) -> dict:
    items = generate_corpus(cfg.corpus)
    return {
        "command": "corpus",
        "spec": cfg.corpus,
        "items": [{"index": it.index, "sequence": it.a, "exponent": it.p} for it in items],
    }


# command -> (record builder, CSV header and rows of a record or None: json only, help)
_COMMANDS = {
    "norm": (_run_norm, None, "Luxemburg norm of a sequence"),
    "maximal": (_run_maximal, _maximal_rows, "fractional maximal profile"),
    "czd": (_run_czd, None, "stopping-time decomposition"),
    "verify": (_run_verify, _verify_rows, "run the verification suite"),
    "corpus": (_run_corpus, None, "emit a reproducible corpus"),
}


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def run(cfg: argparse.Namespace) -> int:
    """Execute a resolved command, render and write its record; returns the
    process exit code."""
    build, rows, _ = _COMMANDS[cfg.command]
    if cfg.format == "csv" and rows is None:
        return _fail(2, f"error: {cfg.command} supports only json output")
    try:
        record = build(cfg)
        text = render_csv(*rows(record)) if cfg.format == "csv" else render_json(record)
    except ValueError as e:
        return _fail(2, f"error: {e}")
    except RuntimeError as e:
        return _fail(1, f"invariant failure: {e}")
    try:
        write_text(cfg.out, text)
    except OSError as e:
        return _fail(2, f"error: cannot write {cfg.out or 'stdout'}: {e.strerror or e}")
    return 1 if record.get("failures_total") else 0


@dataclass(frozen=True)
class _Setting:
    """One CLI setting; its name is a field of _resolve's Namespace or of CorpusSpec."""

    kind: _Kind
    default: Any
    commands: tuple[str, ...]
    flag: str
    section: str | None = None  # config object holding the key; None: top level
    flag_commands: tuple[str, ...] | None = None  # with the flag; None: all
    required: tuple[str, ...] = ()  # commands that fail without a value


_ALL = tuple(_COMMANDS)
_CORPUS = ("verify", "corpus")
_INPUT = ("norm", "maximal", "czd")

_SETTINGS = {
    "out": _Setting(_TEXT, None, _ALL, "--out"),
    "format": _Setting(_FORMAT, "json", _ALL, "--format"),
    "input": _Setting(_TEXT, None, _INPUT, "--input", required=_INPUT),
    "exponent": _Setting(_TEXT, None, ("norm",), "--exponent", required=("norm",)),
    "rel_tol": _Setting(_FLOAT, 1e-12, ("norm",), "--rel-tol"),
    "alpha": _Setting(_FLOAT, 0.0, ("maximal", "czd"), "--alpha"),
    "window": _Setting(_WINDOW, None, ("maximal",), "--window"),
    "t": _Setting(_FLOAT, 0.05, ("czd", "verify"), "--t", required=("czd",)),
    "checks": _Setting(_NAMES, None, ("verify",), "--checks"),
    "inject_fault": _Setting(_BOOL, False, ("verify",), "--inject-fault"),
    "seed": _Setting(_INT, 20260814, _CORPUS, "--seed", "corpus"),
    "count": _Setting(_INT, 24, _CORPUS, "--count", "corpus"),
    "window_width": _Setting(_INT, 48, _CORPUS, "--width", "corpus"),
    "value_law": _Setting(_TEXT, "uniform01", _CORPUS, "--value-law", "corpus"),
    "exponent_law": _Setting(_TEXT, "lh-decay", _CORPUS, "--exponent-law", "corpus"),
    "alpha_list": _Setting(_FLOATS, (0.0, 0.25, 0.5), _CORPUS, "--alphas", "corpus"),
    "p_lo": _Setting(_FLOAT, None, _CORPUS, "--p-lo", "corpus", flag_commands=("corpus",)),
    "p_hi": _Setting(_FLOAT, None, _CORPUS, "--p-hi", "corpus", flag_commands=("corpus",)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    top = _Parser(prog="varseq", description=__doc__)
    top.add_argument("--version", action="version", version=f"varseq {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (_, _, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="JSON config file")
        for name, s in _SETTINGS.items():
            if command not in (s.flag_commands or s.commands):
                continue
            key = f"{s.section}.{name}" if s.section else name
            default = "" if s.default is None else f", default {s.default}"
            text = f"{s.kind.expected}; config key {key}{default}"
            if s.kind is _BOOL:
                sp.add_argument(s.flag, dest=name, action="store_true", default=None, help=text)
            else:
                sp.add_argument(s.flag, dest=name, help=text)
    return top


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """command, corpus (a CorpusSpec, or None for a command without one) and
    every other setting of _SETTINGS, each from flag, config or default."""
    command = args.command
    settings = {n: s for n, s in _SETTINGS.items() if command in s.commands}
    in_corpus = {n for n, s in settings.items() if s.section}
    data = parse_config(args.config) if args.config else {}
    allowed = {"command", *(settings.keys() - in_corpus)} | ({"corpus"} if in_corpus else set())
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    if "command" in data and data["command"] != command:
        raise ConfigError(
            f"config is for command {data['command']!r}, invoked as {command!r}"
        )
    corpus = data.get("corpus", {})
    if not isinstance(corpus, dict):
        raise ConfigError("corpus must be an object")
    bad = sorted(set(corpus) - in_corpus)
    if bad:
        raise ConfigError(f"unknown corpus keys: {', '.join(bad)}")

    values = {name: s.default for name, s in _SETTINGS.items()}
    for name, s in settings.items():
        config = corpus if s.section else data
        raw = getattr(args, name, None)
        if raw is None:
            raw = config.get(name)
        if raw is None:
            if command in s.required:
                raise ConfigError(f"{command} requires {s.flag}")
            continue
        try:
            values[name] = s.kind.parse(raw)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid {name} {raw!r}: expected {s.kind.expected}") from e

    corpus_values = {n: values.pop(n) for n, s in _SETTINGS.items() if s.section}
    spec = CorpusSpec(**corpus_values) if in_corpus else None
    return argparse.Namespace(command=command, corpus=spec, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = _resolve(_build_parser().parse_args(argv))
    except ConfigError as e:
        return _fail(2, f"error: {e}")
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
