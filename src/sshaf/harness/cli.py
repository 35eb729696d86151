"""Command-line driver for the whole framework.

A state directory carries the gateway across invocations: an encrypted
user database (db.enc), the gateway runtime state (state.json), and the
database key (gateway.key). Benchmarks, attacks, and reports are stateless
and fully determined by their seed.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path

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
from ..errors import SshafError, StateCorrupt
from ..gateway import Gateway, atomic_write, load_db
from ..primitives import Key256, RandomSource
from . import attacks
from .scenarios import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    build_cost_table,
    cost_table_to_csv,
    metrics_to_csv,
)
from .simnet import SimConfig

STATE_FILE = "state.json"
DB_FILE = "db.enc"
KEY_FILE = "gateway.key"


# --- state directory ---------------------------------------------------------

def _boot(state_dir: Path, seed_hex: str | None) -> None:
    state_dir.mkdir(parents=True, exist_ok=True)
    seed = bytes.fromhex(seed_hex) if seed_hex else secrets.token_bytes(32)
    if len(seed) != 32:
        raise SystemExit("--seed must be 32 bytes of hex")
    db_key_bytes = secrets.token_bytes(32) if seed_hex is None else bytes(
        b ^ 0x5A for b in seed
    )
    (state_dir / KEY_FILE).write_text(db_key_bytes.hex() + "\n")
    gw = Gateway(RandomSource.seeded(seed).fork("boot"), Key256(db_key_bytes))
    _save(state_dir, gw, seed, invocation=0)


def _save(state_dir: Path, gw: Gateway, rng_seed: bytes, invocation: int) -> None:
    state = {
        "rng_seed": rng_seed.hex(),
        "invocation": invocation,
        "gateway": persist.gateway_state_to_dict(gw),
    }
    atomic_write(state_dir / STATE_FILE, persist.dumps(state))
    gw.save_database(state_dir / DB_FILE)


def _load(state_dir: Path, seed_hex: str | None) -> tuple[Gateway, bytes, int]:
    state_path = state_dir / STATE_FILE
    if not state_path.exists():
        _boot(state_dir, seed_hex)
    db_key = Key256.from_hex((state_dir / KEY_FILE).read_text().strip())
    try:
        state = json.loads(state_path.read_text())
        rng_seed = bytes.fromhex(state["rng_seed"])
        invocation = state["invocation"] + 1
        gw = Gateway(RandomSource.seeded(rng_seed).fork("boot"), db_key)
        persist.restore_gateway_state(gw, state["gateway"])
    except (ValueError, KeyError, TypeError) as exc:
        raise StateCorrupt(f"{state_path}: {type(exc).__name__}: {exc}") from exc
    gw.db = load_db(state_dir / DB_FILE, db_key)
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


def _seed_from_args(args) -> bytes:
    return bytes.fromhex(args.seed) if args.seed else b"\x42" * 32


# --- commands -------------------------------------------------------------------

def cmd_register(args) -> int:
    gw, seed, inv = _load(Path(args.state), args.seed)
    calendar = []
    if args.calendar:
        calendar = load_calendar(args.calendar).get(args.uid, [])
    caps = tuple(c for c in (args.capabilities or "").split(",") if c)
    profile = gw.register_user(
        args.uid, args.name, args.age, args.role, args.password,
        calendar=calendar, capabilities=caps,
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
    _save(Path(args.state), gw, seed, inv)
    if result.status == "grant":
        session = result.session
        print(
            f"granted: session={session.session_id} scheme={session.scheme} "
            f"confidence={session.confidence:.3f}"
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
    seed = _seed_from_args(args)
    if args.table in ("1", "2"):
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
    seed = _seed_from_args(args)
    schemes = attacks.SCHEMES if args.scheme == "all" else (args.scheme,)
    runners = {
        "replay": lambda s: attacks.attack_replay(s, seed),
        "impersonate": lambda s: attacks.attack_impersonate(s, seed),
        "skd": lambda s: attacks.attack_session_key_disclosure(s, seed=seed),
        "stolen": lambda s: attacks.attack_stolen_device(s, seed=seed),
    }
    any_success = False
    for scheme in schemes:
        outcome = runners[args.kind](scheme)
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
    seed = _seed_from_args(args)
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


# --- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sshaf",
        description="Smart-home authentication framework: lifecycle, benchmarks, attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p):
        p.add_argument("--state", default="sshaf_state", help="state directory")
        p.add_argument("--seed", help="32-byte hex seed (first boot only)")

    def add_context(p):
        p.add_argument("--origin", choices=[ORIGIN_LOCAL, ORIGIN_INTERNET], default=ORIGIN_LOCAL)
        p.add_argument(
            "--ip-class", choices=[IP_HOME, IP_KNOWN, IP_UNKNOWN], default=IP_HOME
        )
        p.add_argument("--bluetooth", action="store_true")
        p.add_argument("--time", type=int, default=0, help="simulated minutes")

    p = sub.add_parser("register", help="create a pending user account")
    add_state(p)
    p.add_argument("--uid", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--age", type=int, default=0)
    p.add_argument("--role", choices=["owner", "resident", "guest"], default="resident")
    p.add_argument("--password", required=True)
    p.add_argument("--capabilities", help="comma list: dors,card")
    p.add_argument("--calendar", help="JSONL calendar file")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("verify", help="owner activates or rejects a pending account")
    add_state(p)
    p.add_argument("--owner", default="owner")
    p.add_argument("--uid", required=True)
    p.add_argument("--decision", choices=["activate", "reject"], required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("login", help="authenticate and open a session")
    add_state(p)
    add_context(p)
    p.add_argument("--uid", required=True)
    p.add_argument("--password", required=True)
    p.add_argument("--retry-token", help="token from a step-up response")
    p.set_defaults(func=cmd_login)

    p = sub.add_parser("access", help="request a device under a session")
    add_state(p)
    add_context(p)
    p.add_argument("--session", required=True)
    p.add_argument("--device", required=True)
    p.set_defaults(func=cmd_access)

    p = sub.add_parser("bench", help="cost tables and the security matrix")
    p.add_argument("--table", choices=["1", "2", "3"], required=True)
    p.add_argument("--seed", help="32-byte hex seed")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attack", help="run one attack kind")
    p.add_argument(
        "--kind", choices=["replay", "impersonate", "skd", "stolen"], required=True
    )
    p.add_argument("--scheme", choices=["mht", "dors", "dhs", "all"], default="all")
    p.add_argument("--seed", help="32-byte hex seed")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("report", help="full evaluation report")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--seed", help="32-byte hex seed")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SshafError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
