"""Command-line driver for the whole framework.

A state directory carries the gateway across invocations in three files:

- ``gateway.key``: the database key, as hex;
- ``db.enc``: the encrypted user database, rewritten by every call except
  ``login``, which changes none of its tables;
- ``state.json``: the gateway runtime state, rewritten by every call. It
  holds no DORS tree: each DORS user's entry keeps its params, chain, link
  key and the roots of the trees built ahead, and a login builds the tree
  it needs from the gateway's master secret (see ``persist``). It holds no
  session key either: a session is its id, owner and grant minute.

A missing, unreadable or damaged file fails the call with ``StateCorrupt``
naming it, and a state directory that cannot be created (its path is a
file, or lies under one) fails it with ``StateCorrupt`` naming the
directory. Benchmarks, attacks, and reports are stateless and fully
determined by their seed; only those commands import the scenario, network
and attack harness.

Each command is declared once, in ``COMMANDS``: its help line, the function
that adds its arguments, and its handler. A call builds only the parser of
the command it names; the full parser, with every command, is built only to
print the top-level usage or help, or to report an unknown command or
argument.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .. import persist
from ..context_engine import (
    IP_HOME,
    IP_KNOWN,
    IP_UNKNOWN,
    ORIGIN_INTERNET,
    ORIGIN_LOCAL,
    ContextSnapshot,
    load_calendar,
)
from ..errors import AuthenticatedDecryptionFailed, SshafError, StateCorrupt
from ..gateway import CAPABILITIES, OWNER_UID, Gateway, atomic_write, load_db
from ..primitives import Key256, RandomSource

STATE_FILE = "state.json"
DB_FILE = "db.enc"
KEY_FILE = "gateway.key"
PROG = "sshaf"
DEFAULT_SEED = b"\x42" * 32


# --- state directory ---------------------------------------------------------

def _boot(state_dir: Path, seed: bytes | None) -> None:
    state_dir.mkdir(parents=True, exist_ok=True)
    if seed is None:
        seed, db_key_bytes = secrets.token_bytes(32), secrets.token_bytes(32)
    else:
        db_key_bytes = bytes(b ^ 0x5A for b in seed)
    (state_dir / KEY_FILE).write_text(db_key_bytes.hex() + "\n")
    gw = Gateway(RandomSource.seeded(seed).fork("boot"), Key256(db_key_bytes))
    _save(state_dir, gw, seed, invocation=0)


def _save(state_dir: Path, gw: Gateway, rng_seed: bytes, invocation: int, db_changed: bool = True) -> None:
    """Write the call's state. ``db_changed=False`` leaves db.enc as it is,
    for a call that changed no table of the user database."""
    state = {
        "rng_seed": rng_seed.hex(),
        "invocation": invocation,
        "gateway": persist.gateway_state_to_dict(gw, with_forests=False),
    }
    atomic_write(state_dir / STATE_FILE, persist.dumps(state))
    if db_changed:
        gw.save_database(state_dir / DB_FILE)


def _state_corrupt(path: Path, exc: Exception) -> StateCorrupt:
    return StateCorrupt(f"{path}: {type(exc).__name__}: {exc}")


def _load(state_dir: Path, seed: bytes | None) -> tuple[Gateway, bytes, int]:
    state_path = state_dir / STATE_FILE
    if not state_path.exists():
        try:
            _boot(state_dir, seed)
        except OSError as exc:
            raise _state_corrupt(state_dir, exc) from exc
    key_path = state_dir / KEY_FILE
    try:
        db_key = Key256.from_hex(key_path.read_text().strip())
    except (OSError, ValueError) as exc:
        raise _state_corrupt(key_path, exc) from exc
    try:
        state = json.loads(state_path.read_bytes())
        rng_seed = bytes.fromhex(state["rng_seed"])
        invocation = persist._count(state["invocation"]) + 1
        gw = Gateway(RandomSource.seeded(rng_seed).fork("boot"), db_key)
        persist.restore_gateway_state(gw, state["gateway"])
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise _state_corrupt(state_path, exc) from exc
    db_path = state_dir / DB_FILE
    try:
        gw.db = load_db(db_path, db_key)
    except (OSError, AuthenticatedDecryptionFailed) as exc:
        raise _state_corrupt(db_path, exc) from exc
    gw.src = RandomSource.seeded(rng_seed).fork(f"invocation:{invocation}")
    return gw, rng_seed, invocation


def _snapshot_from_args(args, uid: str) -> ContextSnapshot:
    return ContextSnapshot(
        uid=uid,
        origin=args.origin,
        ip_class=args.ip_class,
        bluetooth_present=args.bluetooth,
        timestamp=args.time,
    )


# --- commands -------------------------------------------------------------------

def cmd_register(args) -> int:
    # Read the calendar first, so a bad file fails the call before any
    # state file is touched.
    calendar = []
    if args.calendar:
        calendar = load_calendar(args.calendar).get(args.uid, [])
    gw, seed, inv = _load(Path(args.state), args.seed)
    profile = gw.register_user(
        args.uid, args.name, args.age, args.role, args.password,
        calendar=calendar, capabilities=args.capabilities,
    )
    _save(Path(args.state), gw, seed, inv)
    print(f"registered {profile.uid}: status={profile.status} role={profile.role}")
    return 0


def cmd_verify(args) -> int:
    gw, seed, inv = _load(Path(args.state), args.seed)
    profile = gw.owner_verify(args.owner, args.uid, args.decision)
    _save(Path(args.state), gw, seed, inv)
    print(f"{profile.uid}: status={profile.status}")
    return 0


def cmd_login(args) -> int:
    gw, seed, inv = _load(Path(args.state), args.seed)
    if args.time > gw.sim_minutes:
        gw.advance_time(args.time - gw.sim_minutes)
    result = gw.login(
        args.uid, args.password, _snapshot_from_args(args, args.uid),
        retry_token=args.retry_token,
    )
    _save(Path(args.state), gw, seed, inv, db_changed=False)
    if result.status == "grant":
        session = result.session
        print(
            f"granted: session={session.session_id} scheme={session.scheme} "
            f"confidence={result.confidence:.3f}"
        )
        return 0
    if result.status == "step_up":
        print(f"step-up required: retry once with --retry-token {result.retry_token}")
        return 3
    print(f"denied: {result.reason}")
    return 4


def cmd_access(args) -> int:
    gw, seed, inv = _load(Path(args.state), args.seed)
    session = gw.sessions.get(args.session)
    if session is None:
        print(f"no such session {args.session!r}", file=sys.stderr)
        return 2
    if args.time > gw.sim_minutes:
        gw.advance_time(args.time - gw.sim_minutes)
    decision = gw.authorize_device_access(
        session, args.device, _snapshot_from_args(args, session.uid)
    )
    _save(Path(args.state), gw, seed, inv)
    print(f"{args.device}: {decision}")
    return 0 if decision == "grant" else 4


def _print_cost_table(table, fmt: str) -> None:
    if fmt == "csv":
        from .scenarios import cost_table_to_csv

        print(cost_table_to_csv(table), end="")
    elif fmt == "json":
        rows = [
            {
                "parameter": row["parameter"],
                "internet_access_ms": row["internet_access_ms"],
                "local_access_ms": row["local_access_ms"],
                "internet_counters": _counters(row["internet_report"]),
                "local_counters": _counters(row["local_report"]),
            }
            for row in table
        ]
        print(json.dumps(rows, indent=2))
    else:
        width = max(len(row["parameter"]) for row in table)
        print(f"{'Utilized parameter':<{width}}  internet_ms  local_ms")
        for row in table:
            print(
                f"{row['parameter']:<{width}}  {row['internet_access_ms']:>11}  "
                f"{row['local_access_ms']:>8}"
            )


def _counters(report) -> dict:
    return {
        "hash_count": report.hash_count,
        "mac_count": report.mac_count,
        "wire_bytes": report.wire_bytes,
        "messages": report.messages,
        "storage_bits": report.storage_bits,
    }


def _attack_matrix_rows(seed: bytes) -> list[dict]:
    from . import attacks

    matrix = attacks.run_attack_matrix(seed)
    return [
        {
            "attack": kind,
            "scheme": scheme,
            "resisted": not outcome.succeeded,
            "detail": outcome.detail,
        }
        for (kind, scheme), outcome in sorted(matrix.items())
    ]


def cmd_bench(args) -> int:
    seed = args.seed
    if args.table in ("1", "2"):
        from .scenarios import TABLE1_ROWS, TABLE2_ROWS, build_cost_table
        from .simnet import SimConfig

        rows = TABLE1_ROWS if args.table == "1" else TABLE2_ROWS
        table = build_cost_table(rows, SimConfig(seed=seed))
        _print_cost_table(table, args.format)
        return 0
    rows = _attack_matrix_rows(seed)
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "csv":
        print("attack,scheme,resisted")
        for row in rows:
            print(f"{row['attack']},{row['scheme']},{str(row['resisted']).lower()}")
    else:
        print(f"{'attack':<12} {'scheme':<6} result")
        for row in rows:
            print(f"{row['attack']:<12} {row['scheme']:<6} {'resisted' if row['resisted'] else 'VULNERABLE'}")
    return 0 if all(row["resisted"] for row in rows) else 1


def cmd_attack(args) -> int:
    from . import attacks

    seed = args.seed
    schemes = attacks.SCHEMES if args.scheme == "all" else (args.scheme,)
    any_success = False
    for scheme in schemes:
        outcome = attacks.ATTACKS[args.kind](scheme, seed)
        any_success |= outcome.succeeded
        status = "VULNERABLE" if outcome.succeeded else "resisted"
        print(f"{args.kind}/{scheme}: {status} -- {outcome.detail}")
    if args.kind == "impersonate" and (args.scheme in ("all", "dors")):
        report = attacks.forgery_experiment(seed=seed)
        print(
            f"dors forgery experiment (t=16,k=4,{report.trials} trials): "
            f"rate={report.rate:.5f} bound={report.bound:.5f} "
            f"{'within bound' if report.within_bound else 'OVER BOUND'}"
        )
        any_success |= not report.within_bound
    return 1 if any_success else 0


def cmd_report(args) -> int:
    from . import attacks
    from .scenarios import TABLE1_ROWS, TABLE2_ROWS, build_cost_table, metrics_to_csv
    from .simnet import SimConfig

    seed = args.seed
    config = SimConfig(seed=seed)
    table1 = build_cost_table(TABLE1_ROWS, config)
    table2 = build_cost_table(TABLE2_ROWS, config)
    matrix = _attack_matrix_rows(seed)
    forgery = attacks.forgery_experiment(seed=seed)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "individual_factors": [
                        {k: row[k] for k in ("parameter", "internet_access_ms", "local_access_ms")}
                        for row in table1
                    ],
                    "integrated_factors": [
                        {k: row[k] for k in ("parameter", "internet_access_ms", "local_access_ms")}
                        for row in table2
                    ],
                    "security_matrix": matrix,
                    "forgery_experiment": {
                        "trials": forgery.trials,
                        "rate": forgery.rate,
                        "bound": forgery.bound,
                        "within_bound": forgery.within_bound,
                    },
                },
                indent=2,
            )
        )
    elif args.format == "csv":
        reports = [row["internet_report"] for row in table1 + table2]
        reports += [row["local_report"] for row in table1 + table2]
        print(metrics_to_csv(reports), end="")
    else:
        print("== individual factor costs ==")
        _print_cost_table(table1, "text")
        print("\n== integrated factor costs ==")
        _print_cost_table(table2, "text")
        print("\n== security matrix ==")
        for row in matrix:
            print(f"{row['attack']:<12} {row['scheme']:<6} {'resisted' if row['resisted'] else 'VULNERABLE'}")
        print(
            f"\nforgery experiment: rate={forgery.rate:.5f} bound={forgery.bound:.5f} "
            f"({'within bound' if forgery.within_bound else 'OVER BOUND'})"
        )
    ok = all(row["resisted"] for row in matrix) and forgery.within_bound
    return 0 if ok else 1


# --- command table -------------------------------------------------------------------

def _seed(text: str) -> bytes:
    """The argparse type of every --seed: 32 bytes as hex, checked before any
    file is touched."""
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        seed = b""
    if len(seed) != 32:
        raise argparse.ArgumentTypeError(f"expected 64 hex digits (32 bytes), got {text!r}")
    return seed


def _capabilities(text: str) -> tuple[str, ...]:
    """The argparse type of --capabilities: a comma list of known
    capabilities, each at most once, checked before any file is touched."""
    caps = tuple(c for c in text.split(",") if c)
    for i, cap in enumerate(caps):
        if cap not in CAPABILITIES:
            raise argparse.ArgumentTypeError(
                f"unknown capability {cap!r}, expected a comma list of {', '.join(CAPABILITIES)}"
            )
        if cap in caps[:i]:
            raise argparse.ArgumentTypeError(f"repeated capability {cap!r}")
    return caps


def _add_state(p) -> None:
    p.add_argument("--state", default="sshaf_state", help="state directory")
    p.add_argument("--seed", type=_seed, help="32-byte hex seed (first boot only)")


def _add_context(p) -> None:
    p.add_argument("--origin", choices=[ORIGIN_LOCAL, ORIGIN_INTERNET], default=ORIGIN_LOCAL)
    p.add_argument(
        "--ip-class", choices=[IP_HOME, IP_KNOWN, IP_UNKNOWN], default=IP_HOME
    )
    p.add_argument("--bluetooth", action="store_true")
    p.add_argument("--time", type=int, default=0, help="simulated minutes")


def _add_stateless_seed(p) -> None:
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="32-byte hex seed")


def _register_arguments(p) -> None:
    _add_state(p)
    p.add_argument("--uid", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--age", type=int, default=0)
    p.add_argument("--role", choices=["owner", "resident", "guest"], default="resident")
    p.add_argument("--password", required=True)
    p.add_argument("--capabilities", type=_capabilities, default=(), help="comma list: dors,card")
    p.add_argument("--calendar", help="JSONL calendar file")


def _verify_arguments(p) -> None:
    _add_state(p)
    p.add_argument("--owner", default=OWNER_UID)
    p.add_argument("--uid", required=True)
    p.add_argument("--decision", choices=["activate", "reject"], required=True)


def _login_arguments(p) -> None:
    _add_state(p)
    _add_context(p)
    p.add_argument("--uid", required=True)
    p.add_argument("--password", required=True)
    p.add_argument("--retry-token", help="token from a step-up response")


def _access_arguments(p) -> None:
    _add_state(p)
    _add_context(p)
    p.add_argument("--session", required=True)
    p.add_argument("--device", required=True)


def _bench_arguments(p) -> None:
    p.add_argument("--table", choices=["1", "2", "3"], required=True)
    _add_stateless_seed(p)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")


def _attack_arguments(p) -> None:
    p.add_argument(
        "--kind", choices=["replay", "impersonate", "skd", "stolen"], required=True
    )
    p.add_argument("--scheme", choices=["mht", "dors", "dhs", "all"], default="all")
    _add_stateless_seed(p)


def _report_arguments(p) -> None:
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    _add_stateless_seed(p)


class Command(NamedTuple):
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


# Every command once, in the order the top-level usage lists them.
COMMANDS = {
    "register": Command("create a pending user account", _register_arguments, cmd_register),
    "verify": Command("owner activates or rejects a pending account", _verify_arguments, cmd_verify),
    "login": Command("authenticate and open a session", _login_arguments, cmd_login),
    "access": Command("request a device under a session", _access_arguments, cmd_access),
    "bench": Command("cost tables and the security matrix", _bench_arguments, cmd_bench),
    "attack": Command("run one attack kind", _attack_arguments, cmd_attack),
    "report": Command("full evaluation report", _report_arguments, cmd_report),
}


# --- parsers -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The whole command line: the top-level usage and help, every command."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Smart-home authentication framework: lifecycle, benchmarks, attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command.add_arguments(sub.add_parser(name, help=command.help))
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser, the same as its subparser in build_parser()."""
    parser = argparse.ArgumentParser(prog=f"{PROG} {name}")
    COMMANDS[name].add_arguments(parser)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    if name in COMMANDS:
        args, extra = _command_parser(name).parse_known_args(argv[1:])
    if name not in COMMANDS or extra:
        # No command, help, an unknown command, or arguments the command does
        # not take: the full parser prints the usage, help or error and exits.
        args = build_parser().parse_args(argv)
        name = args.command
    if getattr(args, "bluetooth", False) and args.origin == ORIGIN_INTERNET:
        # A context no request can show is a usage error, before any file is touched.
        _command_parser(name).error("argument --bluetooth: not allowed with --origin internet")
    try:
        return COMMANDS[name].run(args)
    except SshafError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
