"""Command-line interface: serve, submit, match, workload, bench.

No command writes or reads key material. `serve` generates the master
keys and server secrets in memory from `--seed`, redrawing any whose
condition number exceeds 1e6 and keeping the inverse each check computed.
Clients receive their key sets by registering; a registration inverts
nothing, and checks a user's key shares only for invertibility, by LU.

`serve` has one flag per `ServiceConfig` field, and `match` and `bench`
one per `protocol.Params` field; each defaults to the field's default.
`Params` refuses, by one rule, the values no client can encode. `serve`
flushes each line it prints, so a log file keeps them however the server
stops. The workload-shape flags of `workload` and `bench` default to the
fields of `sim.ExperimentConfig`. `submit` registers its driver and
rider and registers again whenever their tokens run out, so a workload
of any size is submitted whole. A `bench` sweep is the list of
`ExperimentConfig`s that `cmd_bench` states and runs in order, one CSV
row per config.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from .bloom import sizing
from .client import ServerError, ServiceClient, SocketTransport, TokenError
from .protocol import Params, ProtocolError
from .service import RideService, ServiceConfig, SocketServer
from .sim import (
    SCHEMES,
    ExperimentConfig,
    ServicePool,
    ccrs_size_model,
    load_workload,
    run_experiment,
    save_workload,
    submit_offers,
    submit_requests,
    write_metrics_csv,
)


# The fields of a config class that a command has flags for.
_SERVICE_ARGS = tuple(f.name for f in fields(ServiceConfig))
_CRYPTO_ARGS = tuple(f.name for f in fields(Params))
_SHAPE_ARGS = ("rows", "cols", "n_offers", "n_requests", "hit_rate", "transfer_rate")
_WORKLOAD_ARGS = (*_SHAPE_ARGS, "capacity", "preference", "time_slots")
_FLAGS = {"n_offers": "--offers", "n_requests": "--requests"}


def _add_config_args(p: argparse.ArgumentParser, config_class, names) -> None:
    """One flag per named field of `config_class`, defaulting to the field's default."""
    for name in names:
        default = getattr(config_class, name)
        flag = _FLAGS.get(name, "--" + name.replace("_", "-"))
        p.add_argument(flag, dest=name, type=type(default), default=default)


def _args(args, names) -> dict:
    return {name: getattr(args, name) for name in names}


def cmd_serve(args) -> int:
    config = ServiceConfig(**_args(args, _SERVICE_ARGS))
    service = RideService(config, seed=args.seed)
    server = SocketServer(service, host=args.host)
    host, port = server.server_address
    print(f"listening on {host}:{port} (epoch {service.server.epoch})", flush=True)
    if config.match_threshold:
        print(f"matching runs automatically at {config.match_threshold} pending requests", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


def cmd_submit(args) -> int:
    wl = load_workload(args.workload)
    with SocketTransport(args.host, args.port) as dt, SocketTransport(args.host, args.port) as rt:
        driver = ServiceClient(dt, rng=args.seed)
        rider = ServiceClient(rt, rng=args.seed + 1)
        offer_ids = submit_offers(wl, args.scheme, driver)
        request_ids = submit_requests(wl, args.scheme, rider)
        print(f"submitted {len(offer_ids)} offers, {len(request_ids)} requests")
        if args.poll:
            notes = rider.poll(request_ids) + driver.poll(offer_ids)
            for note in notes:
                print(note)
    return 0


def cmd_match(args) -> int:
    """One-shot local pipeline: load workload, submit in process, match, report."""
    wl = load_workload(args.workload)
    config = ExperimentConfig(
        scheme=args.scheme, rows=wl.city.rows, cols=wl.city.cols,
        n_offers=len(wl.offers), n_requests=len(wl.requests), seed=args.seed,
        **_args(args, _CRYPTO_ARGS),
    )
    _emit([run_experiment(config, workload=wl)], args.csv)
    return 0


def cmd_workload(args) -> int:
    wl = ExperimentConfig(
        **_args(args, _WORKLOAD_ARGS), route_len_range=(args.min_route, args.max_route),
        seed=args.seed,
    ).workload()
    save_workload(args.out, wl)
    print(f"wrote {len(wl.offers)} offers / {len(wl.requests)} requests to {args.out}")
    return 0


def _emit(reports, path: str | None) -> None:
    stream = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        write_metrics_csv(stream, reports)
    finally:
        if path:
            stream.close()


def _square_side(count: int) -> int:
    side = int(round(count ** 0.5))
    if side * side != count:
        raise ValueError(f"cell_count {count} is not a square grid")
    return side


def cmd_bench(args) -> int:
    # A sweep is the list of configs below, run in order through one pool;
    # each run generates its own seeded workload. A workload depends on
    # neither `scheme` nor `time_bits`, and requests are drawn after every
    # offer, so `n_requests=k` gives the first k requests of any larger run.
    # Runs with an equal service config and seed share one cached service
    # only while they are consecutive, so the seed is the outer loop
    # wherever the swept value leaves the service unchanged.
    base = ExperimentConfig(**_args(args, _SHAPE_ARGS), **_args(args, _CRYPTO_ARGS))
    seeds = [int(seed) for seed in args.seeds.split(",")]
    values = [float(v) if args.sweep == "fpp" else int(v) for v in args.values.split(",")]
    if args.sweep == "requests":
        configs = [
            replace(base, scheme=args.scheme, seed=seed, n_requests=count)
            for seed in seeds
            for count in values
        ]
    elif args.sweep == "offers":
        configs = [
            replace(base, scheme=scheme, n_offers=count, seed=seed)
            for seed in seeds
            for count in values
            for scheme in SCHEMES
        ]
    elif args.sweep == "cells":
        sides = [_square_side(count) for count in values]
        configs = [
            replace(base, scheme="direct", rows=side, cols=side, seed=seed)
            for seed in seeds
            for side in sides
        ]
        for count in values:
            print(f"# ccrs_size_model({count}) = {ccrs_size_model(count)} bytes", file=sys.stderr)
    elif args.sweep == "time-bits":
        configs = [
            replace(base, scheme="transfer", seed=seed, time_bits=bits)
            for seed in seeds
            for bits in values
        ]
    elif args.sweep == "fpp":
        configs = [
            replace(base, scheme="direct", filter_bits=bits, n_hashes=hashes, seed=seed)
            for bits, hashes in (sizing(args.max_items, fpp) for fpp in values)
            for seed in seeds
        ]
    else:
        raise ValueError(f"unknown sweep {args.sweep!r}")
    pool = ServicePool()
    _emit([run_experiment(config, pool=pool) for config in configs], args.csv)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ridecloak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the matching server over TCP")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--seed", type=int, default=None)
    _add_config_args(p, ServiceConfig, _SERVICE_ARGS)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a workload file to a running server")
    p.add_argument("--workload", required=True)
    p.add_argument("--scheme", choices=("direct", "transfer"), default="direct")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=ServiceConfig.port)
    p.add_argument("--poll", action="store_true", help="poll for notifications after submitting")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("match", help="run a workload through a local in-process service")
    p.add_argument("--workload", required=True)
    p.add_argument("--scheme", choices=("direct", "transfer"), default="direct")
    p.add_argument("--csv", help="write the metrics row here instead of stdout")
    p.add_argument("--seed", type=int, default=0)
    _add_config_args(p, ServiceConfig, _CRYPTO_ARGS)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("workload", help="generate a synthetic workload file")
    p.add_argument("--out", required=True)
    _add_config_args(p, ExperimentConfig, _WORKLOAD_ARGS)
    low, high = ExperimentConfig.route_len_range
    p.add_argument("--min-route", type=int, default=low)
    p.add_argument("--max-route", type=int, default=high)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser("bench", help="run a metric sweep and emit CSV")
    p.add_argument("sweep", choices=("requests", "offers", "cells", "time-bits", "fpp"))
    p.add_argument("--values", default="10,30,50",
                   help="comma-separated sweep values (counts, cell counts, bits, or fpp)")
    p.add_argument("--scheme", choices=("direct", "transfer"), default="transfer")
    _add_config_args(p, ExperimentConfig, _SHAPE_ARGS)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--csv", help="write CSV here instead of stdout")
    _add_config_args(p, ServiceConfig, _CRYPTO_ARGS)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ProtocolError, ServerError, TokenError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
