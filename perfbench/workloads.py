"""The benchmark's workloads.

Each workload is a closed loop with one client. Its inputs come from the
workload seed alone. A workload runs as a fixed cycle of operations that is
replayed from the same starting state, so the operation mix (history
lengths, the DORS re-key share, the size of the persisted state) is the same
however fast the program runs, and every replay of a cycle must give the
same decision digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import shutil
from pathlib import Path

from sshaf import gateway as gw_mod
from sshaf import persist
from sshaf.context_engine import (
    GRANT,
    IP_HOME,
    IP_KNOWN,
    IP_UNKNOWN,
    LABEL_ANOMALOUS,
    LABEL_LEGIT,
    ORIGIN_INTERNET,
    ORIGIN_LOCAL,
    AccessRecord,
    CalendarInterval,
    ContextSnapshot,
    train_classifier,
)
from sshaf.harness import attacks as attacks_mod
from sshaf.harness import cli as cli_mod
from sshaf.harness import scenarios as scenarios_mod
from sshaf.harness import simnet as simnet_mod
from sshaf.primitives import Key256, Nonce128, RandomSource

DECISIONS = frozenset({"grant", "step_up", "deny"})
DEVICES = ("front-lock", "thermostat", "porch-camera")
MINUTES_PER_DAY = 1440


class CheckFailed(Exception):
    """An operation returned something the program must never return."""


def seeded_source(*labels) -> RandomSource:
    return RandomSource.seeded(hashlib.sha256(":".join(map(str, labels)).encode()).digest())


def training_corpus(rng: random.Random, n: int = 400) -> list[AccessRecord]:
    """Separable access records: legitimate ones from the home subnet by
    day, anomalous ones from unknown addresses by night."""
    records = []
    for i in range(n):
        legit = i % 2 == 0
        records.append(
            AccessRecord(
                uid=f"user{rng.randrange(8)}",
                hour_bucket=rng.choice([2, 3, 4] if legit else [0, 1, 5]),
                weekday=rng.randrange(7),
                ip_class=IP_HOME if legit else IP_UNKNOWN,
                device_id=rng.choice(DEVICES if legit else DEVICES[::2]),
                label=LABEL_LEGIT if legit else LABEL_ANOMALOUS,
            )
        )
    rng.shuffle(records)
    return records


def day_calendar(rng: random.Random, start_hour: int, end_hour: int) -> list[CalendarInterval]:
    """Every weekday, from about ``start_hour`` to about ``end_hour``."""
    return [
        CalendarInterval(day, start_hour * 60 - rng.randrange(60), end_hour * 60 + rng.randrange(60))
        for day in range(7)
    ]


class Workload:
    """One benchmark workload: set-up, a fixed cycle, reset, and checks."""

    name = ""
    tail_pct = 99
    setup_repeats = 9  # setup_s is the median of this many set-ups

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the starting state from nothing; repeatable."""
        self.rng = random.Random(f"{self.name}:{self.seed}")
        self._setup()

    def _setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> list:
        """The operations of one cycle, made by set-up; the same every call."""
        return self._cycle

    def reset(self) -> None:
        """Put the starting state back before a cycle."""
        raise NotImplementedError

    def prepare(self, op):
        """Whatever ``run`` needs for ``op``, worked out before timing."""
        return op

    def run(self, op):
        """Execute one prepared operation; this is the timed part."""
        raise NotImplementedError

    def check(self, op, result) -> str:
        """Validate one result and return its token for the cycle digest."""
        raise NotImplementedError

    def state(self) -> dict:
        """Persisted sizes of the current state."""
        raise NotImplementedError

    def info(self) -> dict:
        """Workload parameters worth recording next to the results."""
        return {}


# --- in-process gateway workloads ------------------------------------------------------

class _GatewayWorkload(Workload):
    """Drives ``Gateway`` in-process. The starting state is kept as the
    persisted gateway state plus the encrypted database, and restored from
    them before each cycle."""

    users: tuple[str, ...] = ()

    def _boot(self) -> gw_mod.Gateway:
        db_key = Key256(seeded_source(self.name, self.seed, "db-key").read(32))
        return gw_mod.Gateway(seeded_source(self.name, self.seed, "boot"), db_key)

    def _enroll(self, gw, uid, capabilities, calendar):
        gw.register_user(uid, uid.upper(), 30, gw_mod.ROLE_RESIDENT, self.password(uid),
                         calendar=calendar, capabilities=capabilities)
        gw.owner_verify("owner", uid, "activate")

    @staticmethod
    def password(uid: str) -> str:
        return f"pw-{uid}"

    def _setup(self) -> None:
        gw = self._boot()
        self.model = train_classifier(training_corpus(random.Random(f"{self.name}:{self.seed}:corpus")))
        gw.set_classifier(self.model)
        self._populate(gw)
        self._snapshot = persist.gateway_state_to_dict(gw)
        self._db_key = gw.db_key
        self._db_blob = gw_mod.encrypt_db(gw.db, gw.db_key, Nonce128(bytes(16)))

    def _populate(self, gw) -> None:
        raise NotImplementedError

    def _local_logins(self, gw, uid: str, count: int) -> None:
        """Granted local logins, one simulated minute apart."""
        for _ in range(count):
            gw.advance_time(1)
            snapshot = self._snapshot_for(uid, ORIGIN_LOCAL, gw.sim_minutes)
            if gw.login(uid, self.password(uid), snapshot).status != GRANT:
                raise CheckFailed(f"set-up login of {uid} was not granted")

    def reset(self) -> None:
        gw = self._boot()
        persist.restore_gateway_state(gw, self._snapshot)
        gw.db = gw_mod.decrypt_db(self._db_blob, self._db_key)
        gw.set_classifier(self.model)
        gw.src = seeded_source(self.name, self.seed, "cycle")
        self.gw = gw

    def _snapshot_for(self, uid, origin, minutes) -> ContextSnapshot:
        local = origin == ORIGIN_LOCAL
        return ContextSnapshot(
            uid=uid,
            origin=origin,
            ip_class=IP_HOME if local else IP_KNOWN,
            bluetooth_present=local,
            timestamp=minutes,
        )

    def _visit(self, uid, origin, minutes):
        """Log in, then request every device under the new session."""
        gw = self.gw
        if minutes > gw.sim_minutes:
            gw.advance_time(minutes - gw.sim_minutes)
        snapshot = self._snapshot_for(uid, origin, minutes)
        result = gw.login(uid, self.password(uid), snapshot)
        if result.status != GRANT:
            return result, ()
        return result, tuple(gw.authorize_device_access(result.session, d, snapshot) for d in DEVICES)

    @staticmethod
    def _visit_token(result, decisions) -> str:
        if not isinstance(result, gw_mod.LoginResult) or result.status not in DECISIONS:
            raise CheckFailed(f"login returned {result!r}")
        bad = [d for d in decisions if d not in DECISIONS]
        if bad:
            raise CheckFailed(f"device access returned {bad}")
        scheme = result.session.scheme if result.session else "-"
        return f"{result.status}/{scheme}/{','.join(decisions)}"

    def state(self) -> dict:
        gateway_state = persist.gateway_state_to_dict(self.gw)
        state_json = persist.dumps(gateway_state)
        db_blob = gw_mod.encrypt_db(self.gw.db, self.gw.db_key, Nonce128(bytes(16)))
        return {
            "state_bytes": len(state_json) + len(db_blob),
            "state_json_bytes": len(state_json),
            "db_bytes": len(db_blob),
            "usage_rows": len(self.gw.db.usage_patterns),
            "mht_history_leaves": 0,
            "mht_state_bytes": _mean_entry_bytes(gateway_state, "mht_registry", self.users),
            "dors_state_bytes": _mean_entry_bytes(gateway_state, "dors_registry", self.users),
        }


def _mean_entry_bytes(gateway_state: dict, section: str, uids) -> float:
    """Mean serialized size of the given users' entries in one section of
    the persisted gateway state; 0 when they have none."""
    entries = [gateway_state.get(section, {}).get(uid) for uid in uids]
    sizes = [len(persist.dumps(e)) for e in entries if e is not None]
    return sum(sizes) / len(sizes) if sizes else 0.0


class LocalMhtLongHistory(_GatewayWorkload):
    """MHT-only residents with long histories log in locally, then use
    every device."""

    name = "local_mht_long_history"
    tail_pct = 90
    setup_repeats = 7  # one set-up runs about 1400 logins
    users = ("r0", "r1", "r2", "r3")
    HISTORY = (200, 300, 400, 500)  # leaves per user when timing starts
    VISITS_PER_USER = 25

    def _populate(self, gw) -> None:
        for uid in self.users:
            self._enroll(gw, uid, (), day_calendar(self.rng, 7, 10) + day_calendar(self.rng, 18, 21))
        # Leaves are the genesis leaf plus one per completed handshake.
        for uid, leaves in zip(self.users, self.HISTORY):
            self._local_logins(gw, uid, leaves - 1)
        self.start_minutes = gw.sim_minutes
        self._cycle = self._make_cycle()

    def _make_cycle(self) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:cycle")
        ops, minutes = [], self.start_minutes
        for _ in range(self.VISITS_PER_USER):
            for uid in self.users:
                minutes += rng.randrange(20, 400)
                ops.append(("visit", uid, ORIGIN_LOCAL, minutes))
        return ops

    def run(self, op):
        _, uid, origin, minutes = op
        return self._visit(uid, origin, minutes)

    def check(self, op, result) -> str:
        return f"{op[1]}:{self._visit_token(*result)}"

    def _leaves(self, gateway_state: dict) -> list[int]:
        return [len(gateway_state["mht_registry"][uid]["leaves"]) for uid in self.users]

    def state(self) -> dict:
        out = super().state()
        # Mean leaves per user at handshake time over one cycle: the tree
        # grows from its size at the start to its size at the end, and each
        # handshake runs before its own leaf is appended.
        start = self._leaves(self._snapshot)
        end = self._leaves(persist.gateway_state_to_dict(self.gw))
        out["mht_history_leaves"] = (sum(start) + sum(end) - len(self.users)) / (2 * len(self.users))
        return out

    def info(self) -> dict:
        return {
            "mht_history_leaves_at_start": self._leaves(self._snapshot),
            "visits_per_user_per_cycle": self.VISITS_PER_USER,
        }


class MixedDhsDors(_GatewayWorkload):
    """Residents provisioned with ``dors,card`` alternate an internet
    visit, which runs DHS, with a local visit, which runs DORS because they
    never run MHT."""

    name = "mixed_dhs_dors"
    tail_pct = 99
    users = ("m0", "m1", "m2", "m3")
    SIGNATURES = 64  # default DORS forest: 8 trees x 8 signatures
    # Signatures each user has spent when timing starts. A cycle runs
    # SIGNATURES local logins per user, so each user re-keys exactly once per
    # cycle, at staggered points.
    SPENT = (8, 24, 40, 56)

    def _populate(self, gw) -> None:
        for uid in self.users:
            self._enroll(gw, uid, ("dors", "card"), day_calendar(self.rng, 8, 20))
        for uid, spent in zip(self.users, self.SPENT):
            self._local_logins(gw, uid, spent)
        self.start_minutes = gw.sim_minutes
        self._cycle = self._make_cycle()

    def _make_cycle(self) -> list:
        """One operation is a round: an internet visit in the user's
        calendar hours, then a local visit at any hour."""
        rng = random.Random(f"{self.name}:{self.seed}:cycle")
        ops, minutes = [], self.start_minutes
        for _ in range(self.SIGNATURES):
            for uid in self.users:
                day = minutes // MINUTES_PER_DAY + 1
                internet = day * MINUTES_PER_DAY + rng.randrange(9 * 60, 19 * 60)
                local = internet + rng.randrange(30, 600)
                ops.append(("round", uid, internet, local))
                minutes = local
        return ops

    def run(self, op):
        _, uid, internet, local = op
        return self._visit(uid, ORIGIN_INTERNET, internet), self._visit(uid, ORIGIN_LOCAL, local)

    def check(self, op, result) -> str:
        remote, home = result
        return f"{op[1]}:{self._visit_token(*remote)}|{self._visit_token(*home)}"

    def info(self) -> dict:
        return {
            "dors_signatures_spent_at_start": list(self.SPENT),
            "rekey_share_of_rounds": 1 / self.SIGNATURES,
            "rounds_per_cycle": self.SIGNATURES * len(self.users),
        }


# --- the command-line household -----------------------------------------------------

class CliHousehold(Workload):
    """``sshaf.harness.cli.main`` called in-process against a state
    directory: both residents log in and request two devices each, then a
    new resident registers and is verified. Two residents and 250 usage
    rows keep a call near 20 ms: the fastest of a few tens of replays is
    steady on a shared machine only for short calls."""

    name = "cli_household"
    tail_pct = 90
    users = ("h0", "h1")
    ENROLLEE = "visitor"
    USAGE_ROWS = 250

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.state_dir = workdir / "state"
        self.pristine = workdir / "pristine"
        self.sessions: dict[str, str] = {}

    def _cli(self, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_mod.main([*argv, "--state", str(self.state_dir)])
        return code, out.getvalue(), err.getvalue()

    def _setup_call(self, *argv):
        code, out, err = self._cli(*argv)
        if code != 0:
            raise CheckFailed(f"set-up call {argv[0]} exited {code}: {out}{err}")

    def _setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        boot_seed = hashlib.sha256(f"{self.name}:{self.seed}:boot".encode()).hexdigest()
        for i, uid in enumerate(self.users):
            seed = ("--seed", boot_seed) if i == 0 else ()
            self._setup_call("register", "--uid", uid, "--name", uid.upper(), "--age", "30",
                             "--password", f"pw-{uid}", "--capabilities", "dors", *seed)
            self._setup_call("verify", "--uid", uid, "--decision", "activate")
        self._add_usage_log()
        shutil.copytree(self.state_dir, self.pristine)
        self._cycle = self._make_cycle()

    def _add_usage_log(self) -> None:
        """Append a generated usage log to the encrypted database."""
        key = Key256.from_hex((self.state_dir / cli_mod.KEY_FILE).read_text().strip())
        db_path = self.state_dir / cli_mod.DB_FILE
        db = gw_mod.load_db(db_path, key)
        for i in range(self.USAGE_ROWS):
            minutes = i * 7
            db.usage_patterns.append(
                gw_mod.UsageRecord(
                    uid=self.rng.choice(self.users),
                    device_id=self.rng.choice(DEVICES),
                    sim_minutes=minutes,
                    hour_bucket=(minutes // 60) % 24 // 4,
                    weekday=(minutes // MINUTES_PER_DAY) % 7,
                    ip_class=IP_HOME,
                    decision=self.rng.choice(sorted(DECISIONS)),
                )
            )
        gw_mod.store_db(db, key, db_path, seeded_source(self.name, self.seed, "usage"))
        self.start_minutes = self.USAGE_ROWS * 7

    def _make_cycle(self) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:cycle")
        ops, minutes = [], self.start_minutes
        for uid in self.users:
            minutes += rng.randrange(10, 240)
            ops.append(("login", uid, minutes))
            for device in rng.sample(DEVICES, 2):
                ops.append(("access", uid, minutes, device))
        ops.append(("register", self.ENROLLEE))
        ops.append(("verify", self.ENROLLEE))
        return ops

    def reset(self) -> None:
        for path in self.pristine.iterdir():
            shutil.copyfile(path, self.state_dir / path.name)
        self.sessions.clear()

    def prepare(self, op) -> list[str]:
        kind = op[0]
        if kind == "login":
            _, uid, minutes = op
            return ["login", "--uid", uid, "--password", f"pw-{uid}", "--bluetooth",
                    "--time", str(minutes)]
        if kind == "access":
            _, uid, minutes, device = op
            return ["access", "--session", self.sessions.get(uid, "none"), "--device", device,
                    "--bluetooth", "--time", str(minutes)]
        if kind == "register":
            return ["register", "--uid", op[1], "--name", "Visitor", "--age", "30",
                    "--password", f"pw-{op[1]}", "--capabilities", "dors"]
        return ["verify", "--uid", op[1], "--decision", "activate"]

    def run(self, argv):
        return self._cli(*argv)

    def check(self, op, result) -> str:
        code, out, err = result
        if code not in (0, 3, 4):
            raise CheckFailed(f"{op[0]} exited {code}: {out}{err}")
        if op[0] == "login" and code == 0:
            match = re.search(r"session=(\w+)", out)
            if match is None:
                raise CheckFailed(f"granted login printed no session: {out!r}")
            self.sessions[op[1]] = match.group(1)
        return f"{op[0]}:{code}:{out.strip()}"

    def state(self) -> dict:
        state_json = (self.state_dir / cli_mod.STATE_FILE).read_bytes()
        db_bytes = (self.state_dir / cli_mod.DB_FILE).stat().st_size
        gateway_state = json.loads(state_json).get("gateway", {})
        key = Key256.from_hex((self.state_dir / cli_mod.KEY_FILE).read_text().strip())
        db = gw_mod.load_db(self.state_dir / cli_mod.DB_FILE, key)
        return {
            "state_bytes": len(state_json) + db_bytes,
            "state_json_bytes": len(state_json),
            "db_bytes": db_bytes,
            "usage_rows": len(db.usage_patterns),
            "mht_history_leaves": 0,
            "mht_state_bytes": _mean_entry_bytes(gateway_state, "mht_registry", self.users),
            "dors_state_bytes": _mean_entry_bytes(gateway_state, "dors_registry", self.users),
        }

    def info(self) -> dict:
        return {"usage_rows_at_start": self.USAGE_ROWS, "calls_per_cycle": len(self._cycle)}


# --- the paper's evaluation -----------------------------------------------------------

class PaperReport(Workload):
    """The paper's evaluation through the public functions of
    ``sshaf.harness`` that ``sshaf report`` calls, one row or one attack per
    operation: each row of cost Tables 1 and 2, each of the 12 cells of the
    attack matrix, and the DORS forgery experiment. Short operations get many
    replays each."""

    name = "paper_report"
    tail_pct = 75
    TABLE_ROWS = {"1": scenarios_mod.TABLE1_ROWS, "2": scenarios_mod.TABLE2_ROWS}

    def _setup(self) -> None:
        seed = hashlib.sha256(f"{self.name}:{self.seed}:report".encode()).digest()
        self._cycle = [
            ("cost_row", seed, table, index)
            for table, rows in self.TABLE_ROWS.items() for index in range(len(rows))
        ]
        self._cycle += [
            ("attack", seed, kind, scheme)
            for scheme in attacks_mod.SCHEMES for kind in attacks_mod.ATTACK_KINDS
        ]
        self._cycle.append(("forgery", seed))
        shape = ([len(rows) for rows in self.TABLE_ROWS.values()],
                 sum(op[0] == "attack" for op in self._cycle))
        if shape != ([5, 4], 12):
            raise CheckFailed(f"tables of {shape[0]} rows and a matrix of {shape[1]} cells")
        # Nothing persists between operations; set-up is one first pass.
        for op in self._cycle:
            self.run(op)
        self._state_bytes = {}

    def reset(self) -> None:
        pass

    def run(self, op):
        kind, seed = op[:2]
        if kind == "cost_row":
            row = self.TABLE_ROWS[op[2]][op[3]]
            return scenarios_mod.build_cost_table([row], simnet_mod.SimConfig(seed=seed))
        if kind == "attack":
            _, _, attack, scheme = op
            if attack == attacks_mod.ATTACK_REPLAY:
                return attacks_mod.attack_replay(scheme, seed)
            if attack == attacks_mod.ATTACK_IMPERSONATE:
                return attacks_mod.attack_impersonate(scheme, seed)
            if attack == attacks_mod.ATTACK_SKD:
                return attacks_mod.attack_session_key_disclosure(scheme, seed=seed)
            return attacks_mod.attack_stolen_device(scheme, seed=seed)
        return attacks_mod.forgery_experiment(seed=seed)

    def check(self, op, result) -> str:
        kind = op[0]
        if kind == "cost_row":
            label, factors = self.TABLE_ROWS[op[2]][op[3]]
            if len(result) != 1 or result[0]["parameter"] != label:
                raise CheckFailed(f"cost row {op[2:]} came back as {result!r}")
            reports = (result[0]["internet_report"], result[0]["local_report"])
            for report in reports:
                if report.outcome != "completed" or tuple(report.factors) != tuple(factors):
                    raise CheckFailed(f"cost row {label!r}: {report!r}")
            # Persisted bytes of each scenario's authentication state.
            self._state_bytes[op] = sum(report.storage_bits // 8 for report in reports)
            return json.dumps([report.as_row() for report in reports], default=list)
        if kind == "attack":
            if result.succeeded:
                raise CheckFailed(f"attack {op[2]}/{op[3]} succeeded: {result.detail}")
            return result.detail
        if not result.within_bound:
            raise CheckFailed(f"forgery experiment over its bound: rate={result.rate} "
                              f"bound={result.bound} trials={result.trials}")
        return f"{result.trials}:{result.successes}"

    def state(self) -> dict:
        return {
            "state_bytes": sum(self._state_bytes.values()),
            "state_json_bytes": 0,
            "db_bytes": 0,
            "usage_rows": 0,
            "mht_history_leaves": 0,
            "mht_state_bytes": 0,
            "dors_state_bytes": 0,
        }

    def info(self) -> dict:
        return {"operations_per_cycle": len(self._cycle)}


WORKLOADS = {
    cls.name: cls for cls in (LocalMhtLongHistory, MixedDhsDors, CliHousehold, PaperReport)
}
