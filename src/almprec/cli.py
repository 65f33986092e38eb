"""
cli.py

Command line front end for the experiment harness:

    almprec-bench spectral [--config FILE] [--seed N] [--out PATH]
                           [--format csv|table]
    almprec-bench linsys   ...
    almprec-bench solve    ...

Config files hold ``key = value`` lines (``#`` comments allowed); list
values are comma separated.  Harness runs that complete exit 0 even when
individual rows report "n/c"; configuration or input errors exit nonzero.
"""

import argparse
import sys
import typing
from dataclasses import replace

from .alm import AlmConfig
from .bench import (ExperimentConfig, csv_to_table, rows_to_csv,
                    run_experiment)

_INT_KEYS = {"n", "m", "seed"}
_FLOAT_KEYS = {"density", "tol"}
_STR_KEYS = {"matrix", "aux_kind"}
_TUPLE_FLOAT_KEYS = {"rho_list", "drop_tol_list"}
_TUPLE_STR_KEYS = {"problems", "solvers", "hessian_modes", "policies"}
_ALM_FIELDS = typing.get_type_hints(AlmConfig)
# Field type -> parser for the AlmConfig fields a config line can set.
_ALM_SCALARS = {int: int, float: float, typing.Optional[float]: float,
                str: str}


class ConfigError(ValueError):
    pass


def parse_config_text(text, source="<config>"):
    """Parse key=value lines into a {key: raw-string} dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s:%d: expected key = value" % (source, lineno))
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _convert(key, raw):
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key in _STR_KEYS:
        return raw
    if key in _TUPLE_FLOAT_KEYS:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    if key in _TUPLE_STR_KEYS:
        return tuple(v.strip() for v in raw.split(",") if v.strip())
    raise ConfigError("unknown config key %r" % key)


def _convert_alm(key, raw):
    parse = _ALM_SCALARS.get(_ALM_FIELDS[key])
    if parse is None:
        raise ConfigError("alm.%s is not a scalar setting and cannot be set "
                          "from a config file" % key)
    return parse(raw)


def build_experiment_config(kind, pairs):
    cfg = ExperimentConfig(kind=kind)
    alm_over = {}
    for key, raw in pairs.items():
        try:
            if key.startswith("alm."):
                sub = key[len("alm."):]
                if sub not in _ALM_FIELDS:
                    raise ConfigError("unknown config key %r" % key)
                alm_over[sub] = _convert_alm(sub, raw)
            else:
                cfg = replace(cfg, **{key: _convert(key, raw)})
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError("bad value for %r: %s" % (key, exc))
    if alm_over:
        cfg = replace(cfg, alm=replace(cfg.alm, **alm_over))
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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
