"""
cli.py

Command line front end for the experiment harness:

    almprec-bench spectral [--config FILE] [--seed N] [--out PATH]
                           [--format csv|table]
    almprec-bench linsys   ...
    almprec-bench solve    ...

Config files hold ``key = value`` lines (``#`` comments allowed); list
values are comma separated.  Harness runs that complete exit 0 even when
individual rows report "n/c"; bad input and an unwritable --out exit 2.
"""

import argparse
import sys
import typing
from dataclasses import replace

from .alm import AlmConfig
from .bench import (ExperimentConfig, csv_to_table, rows_to_csv,
                    run_experiment)

def _tuple_of(parse):
    return lambda raw: tuple(parse(v.strip()) for v in raw.split(",")
                             if v.strip())


_FIELDS = {key: hint for key, hint
           in typing.get_type_hints(ExperimentConfig).items()
           if key not in ("kind", "alm")}
_ALM_FIELDS = typing.get_type_hints(AlmConfig)
# alm.* settings that every experiment overrides, and the key that sets
# each: the grid axes of `solve`, and `aux_kind` for every kind.
_ALM_SET_BY = {"inner_solver": "solvers", "hessian_mode": "hessian_modes",
               "precond_policy": "policies", "aux_kind": "aux_kind"}
# Field type -> parser for the fields a config line can set.
_PARSERS = {int: int, float: float, str: str,
            typing.Tuple[float, ...]: _tuple_of(float),
            typing.Tuple[str, ...]: _tuple_of(str)}


class ConfigError(ValueError):
    pass


class ConfigPairs(dict):
    """{key: raw value}; `where[key]` is the "source:line" that set it."""

    def __init__(self):
        super().__init__()
        self.where = {}


def parse_config_text(text, source="<config>"):
    """Parse key=value lines into a {key: raw-string} dict."""
    out = ConfigPairs()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value" % (source, lineno))
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
        out.where[key.strip()] = "%s:%d" % (source, lineno)
    return out


def _convert(key, raw):
    if key not in _FIELDS:
        raise ConfigError("unknown config key %r" % key)
    return _PARSERS[_FIELDS[key]](raw)


def build_experiment_config(kind, pairs):
    """ExperimentConfig from {key: raw value} pairs, applied one at a
    time.  A ConfigError names the key and, for `parse_config_text`
    pairs, its line: every check reads one field, so a rejection is the
    fault of the key just applied."""
    where = getattr(pairs, "where", {})

    def error_at(key, message):
        return ConfigError(where[key] + ": " + message if key in where
                           else message)

    cfg = ExperimentConfig(kind=kind)
    for key, raw in pairs.items():
        try:
            if key.startswith("alm."):
                sub = key[len("alm."):]
                if sub not in _ALM_FIELDS:
                    raise ConfigError("unknown config key %r" % key)
                if sub in _ALM_SET_BY:
                    raise ValueError("the experiment overrides it; set %r "
                                     "instead" % _ALM_SET_BY[sub])
                value = _PARSERS[_ALM_FIELDS[sub]](raw)
                cfg = replace(cfg, alm=replace(cfg.alm, **{sub: value}))
            else:
                cfg = replace(cfg, **{key: _convert(key, raw)})
        except ConfigError as exc:
            raise error_at(key, str(exc))
        except (TypeError, ValueError) as exc:
            raise error_at(key, "bad value for %r: %s" % (key, exc))
    return cfg


def _parser():
    top = argparse.ArgumentParser(
        prog="almprec-bench",
        description="Preconditioner and solver experiment harness.")
    sub = top.add_subparsers(dest="kind", required=True)
    for kind, doc in (("spectral", "condition numbers and spectra"),
                      ("linsys", "CG vs preconditioned CG iteration counts"),
                      ("solve", "full solver runs over the problem library")):
        p = sub.add_parser(kind, help=doc)
        p.add_argument("--config", default=None,
                       help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the instance seed")
        p.add_argument("--out", default=None,
                       help="write output here instead of stdout")
        p.add_argument("--format", choices=("csv", "table"), default="csv")
    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        pairs = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError("cannot read %s: %s" % (args.config, exc))
            pairs = parse_config_text(text, source=args.config)
        cfg = build_experiment_config(args.kind, pairs)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        rows = run_experiment(cfg)
    except (ConfigError, OSError, KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    csv_text = rows_to_csv(rows)
    output = csv_text if args.format == "csv" else csv_to_table(csv_text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print("error: cannot write %s: %s" % (args.out, exc),
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
