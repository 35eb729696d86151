"""End-to-end CLI flows, run in-process through main(argv)."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sshaf import gateway as gw_mod
from sshaf import persist
from sshaf.context_engine import IP_HOME, ORIGIN_LOCAL, ContextSnapshot
from sshaf.dors_auth import DorsParams
from sshaf.harness import cli
from sshaf.harness.cli import main
from sshaf.primitives import Key256, Nonce128

SEED = "11" * 32


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def bootstrap_user(capsys, state, caps="dors,card"):
    code, _ = run(
        capsys,
        "register", "--state", state, "--seed", SEED,
        "--uid", "alice", "--name", "Alice", "--age", "30",
        "--role", "resident", "--password", "pw-alice",
        "--capabilities", caps,
    )
    assert code == 0
    code, _ = run(capsys, "verify", "--state", state, "--uid", "alice", "--decision", "activate")
    assert code == 0


def state_files(state) -> list[str]:
    return sorted(p.name for p in Path(state).iterdir())


# The files of a state directory, whoever is registered.
STATE_FILES = ["db.enc", "gateway.key", "state.json"]


def login(capsys, state, minutes: int) -> tuple[int, str]:
    return run(
        capsys,
        "login", "--state", state, "--uid", "alice", "--password", "pw-alice",
        "--bluetooth", "--time", str(minutes),
    )


def test_lifecycle_register_verify_login_access(tmp_path, capsys):
    state = str(tmp_path / "state")
    bootstrap_user(capsys, state)
    code, out = run(
        capsys,
        "login", "--state", state, "--uid", "alice", "--password", "pw-alice",
        "--bluetooth", "--time", "600",
    )
    assert code == 0
    assert "granted" in out
    session = out.split("session=")[1].split()[0]
    code, out = run(
        capsys,
        "access", "--state", state, "--session", session, "--device", "porch-camera",
        "--bluetooth", "--time", "610",
    )
    assert code == 0
    assert "grant" in out
    # Each call replaced its state files whole, leaving no temporary file;
    # alice's DORS trees are stored nowhere.
    assert state_files(state) == STATE_FILES


@pytest.mark.parametrize(
    "content, where",
    [
        ('{"uid": "bob", "weekday": 1, "start_minute": 540, "end_minute": 1020}\n{"uid": "bob"\n', ":2: not JSON"),
        (None, ": cannot open: No such file or directory"),
    ],
    ids=["malformed", "missing"],
)
def test_register_with_malformed_calendar_reports_the_line(tmp_path, capsys, content, where):
    calendar = tmp_path / "calendar.jsonl"
    if content is not None:
        calendar.write_text(content)
    code = main(
        ["register", "--state", str(tmp_path / "state"), "--seed", SEED,
         "--uid", "bob", "--name", "Bob", "--password", "pw", "--calendar", str(calendar)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: MalformedRecord: {calendar}{where}")
    assert not (tmp_path / "state").exists()  # the calendar is read before any state file


def test_login_before_verification_fails(tmp_path, capsys):
    state = str(tmp_path / "state")
    code, _ = run(
        capsys,
        "register", "--state", state, "--seed", SEED,
        "--uid", "bob", "--name", "Bob", "--password", "pw",
    )
    assert code == 0
    code = main(
        ["login", "--state", state, "--uid", "bob", "--password", "pw"]
    )
    assert code == 1  # NotVerified surfaces as a framework error


def test_denied_login_exit_code(tmp_path, capsys):
    state = str(tmp_path / "state")
    bootstrap_user(capsys, state, caps="")
    code, out = run(
        capsys,
        "login", "--state", state, "--uid", "alice", "--password", "wrong-pw",
        "--ip-class", "unknown",
    )
    assert code == 4
    assert "denied" in out


def test_wrong_password_login_opens_no_session(tmp_path, capsys):
    # Bluetooth, the home subnet, the calendar and a neutral history reach
    # 0.55, above the thermostat's 0.5: context alone would grant.
    state = str(tmp_path / "state")
    calendar = tmp_path / "calendar.jsonl"
    calendar.write_text('{"uid": "alice", "weekday": 0, "start_minute": 0, "end_minute": 1440}\n')
    code, _ = run(capsys, "register", "--state", state, "--seed", SEED, "--uid", "alice",
                  "--name", "Alice", "--password", "pw-alice", "--calendar", str(calendar))
    assert code == 0
    code, _ = run(capsys, "verify", "--state", state, "--uid", "alice", "--decision", "activate")
    assert code == 0
    wrong = ["login", "--state", state, "--uid", "alice", "--password", "WRONG",
             "--bluetooth", "--time", "600"]
    code, out = run(capsys, *wrong)
    assert code == 3 and "session=" not in out
    token = out.split("--retry-token ")[1].split()[0]
    code, out = run(capsys, *wrong, "--retry-token", token)
    assert code == 4 and "session=" not in out
    code, out = run(capsys, "login", "--state", state, "--uid", "alice", "--password", "pw-alice",
                    "--bluetooth", "--time", "600")
    assert code == 0 and "session=" in out


def test_session_expiry_over_cli(tmp_path, capsys):
    state = str(tmp_path / "state")
    bootstrap_user(capsys, state)
    code, out = run(
        capsys,
        "login", "--state", state, "--uid", "alice", "--password", "pw-alice",
        "--bluetooth", "--time", "600",
    )
    session = out.split("session=")[1].split()[0]
    code = main(
        ["access", "--state", state, "--session", session, "--device", "thermostat",
         "--time", "700"]
    )
    assert code == 1  # SessionExpired


def test_access_on_session_purged_by_later_login(tmp_path, capsys):
    state = str(tmp_path / "state")
    bootstrap_user(capsys, state)
    login = ["login", "--state", state, "--uid", "alice", "--password", "pw-alice", "--bluetooth"]
    code, out = run(capsys, *login, "--time", "600")
    session = out.split("session=")[1].split()[0]
    code, _ = run(capsys, *login, "--time", "700")
    assert code == 0
    code = main(
        ["access", "--state", state, "--session", session, "--device", "thermostat",
         "--time", "700"]
    )
    assert code == 2  # the login dropped it: no such session


def _truncate(state: dict, text: str) -> str:
    return text[: len(text) // 2]


def _drop_gateway(state: dict, text: str) -> str:
    del state["gateway"]
    return json.dumps(state)


def _section_as_array(section: str):
    """A section restore reads as a JSON object, written as an array."""

    def damage(state: dict, text: str) -> str:
        state["gateway"][section] = list(state["gateway"][section].values())
        return json.dumps(state)

    damage.__name__ = f"_{section}_as_array"
    return damage


# The DORS params every CLI user is provisioned with.
DORS_PARAMS = persist.dors_params_to_dict(DorsParams())


def _dors_entry(name: str, **fields):
    """Damage ``name``: set ``fields`` in alice's DORS entry."""
    def damage(state: dict, text: str) -> str:
        state["gateway"]["dors_registry"]["alice"].update(fields)
        return json.dumps(state)

    damage.__name__ = name
    return damage


def _gateway_field(name: str, section: str, **fields):
    """Damage ``name``: set ``fields`` in alice's entry of ``section``, one of
    ``mht_registry``, ``wallets.mht``, ``wallets.card``, ``wallets.dors`` and
    ``edge.db``, or in the gateway dict itself."""
    def damage(state: dict, text: str) -> str:
        gateway = state["gateway"]
        entry = {
            "gateway": gateway,
            "mht_registry": gateway["mht_registry"].get("alice"),
            "wallets.mht": gateway["wallets"]["alice"]["mht"],
            "wallets.card": gateway["wallets"]["alice"]["card"],
            "wallets.dors": gateway["wallets"]["alice"]["dors"],
            "edge.db": gateway["edge"]["db"]["alice"],
        }[section]
        entry.update(fields)
        return json.dumps(state)

    damage.__name__ = name
    return damage


def _dors_counter(field: str, value):
    """Damage: set the DORS counter ``field`` to ``value``.
    ``signature_count`` sits in alice's gateway entry's chain, and
    ``dors_epochs`` is her epoch count."""
    def damage(state: dict, text: str) -> str:
        gateway = state["gateway"]
        entry = {
            "signature_count": gateway["dors_registry"]["alice"]["chain"],
            "dors_epochs": gateway["dors_epochs"],
        }[field]
        entry["alice" if field == "dors_epochs" else field] = value
        return json.dumps(state)

    damage.__name__ = f"_{field}_as_{value!r}"
    return damage


def _user_leaves(count: int):
    """Damage: alice's MHT user entry in its old form, with ``count``
    leaves where her ``txn_counter`` makes one."""
    def damage(state: dict, text: str) -> str:
        entry = state["gateway"]["wallets"]["alice"]["mht"]
        entry["leaves"] = entry.pop("range") * count
        return json.dumps(state)

    damage.__name__ = f"_user_with_{count}_leaves"
    return damage


def _set(name: str, path: tuple, value):
    """Damage ``name``: set the node of state.json at ``path`` to ``value``."""
    def damage(state: dict, text: str) -> str:
        *parents, last = path
        node = state
        for key in parents:
            node = node[key]
        node[last] = value
        return json.dumps(state)

    damage.__name__ = name
    return damage


def _session(session_id: str, uid) -> dict:
    """A persisted session of ``uid`` under ``session_id``."""
    return {"session_id": session_id, "uid": uid, "established_minutes": 0}


@pytest.mark.parametrize(
    "damage",
    [
        _truncate,
        _drop_gateway,
        *map(_section_as_array, ["mht_registry", "dors_registry", "wallets", "sessions",
                                 "step_up_tokens", "pending_cards"]),
        _dors_entry("_dors_next_roots_as_string", next_roots="ab"),
        _dors_entry("_dors_next_roots_past_f", next_roots=["00" * 32] * 9),
        _dors_entry("_dors_params_t_3", params=dict(DORS_PARAMS, t=3)),
        _gateway_field("_dors_user_params_k_0", "wallets.dors", params=dict(DORS_PARAMS, k=0)),
        _dors_entry("_dors_params_r_1000", params=dict(DORS_PARAMS, r=1000)),
        _gateway_field("_mht_gateway_counter_as_string", "mht_registry", txn_counter="0"),
        _gateway_field("_mht_user_counter_as_string", "wallets.mht", txn_counter="0"),
        _gateway_field("_mht_user_counter_negative", "wallets.mht", txn_counter=-1),
        _gateway_field("_mht_user_counter_as_bool", "wallets.mht", txn_counter=False),
        _gateway_field("_mht_user_counter_past_its_range", "wallets.mht", txn_counter=1),
        _gateway_field("_mht_user_range_as_string", "wallets.mht", range="00" * 32),
        _gateway_field("_mht_user_range_not_hex", "wallets.mht", range=["zz" * 32]),
        _gateway_field("_mht_gateway_leaves_past_counter", "mht_registry", leaves=["00" * 32] * 2),
        _user_leaves(2),
        _gateway_field("_sim_minutes_as_string", "gateway", sim_minutes="600"),
        _gateway_field("_sim_minutes_negative", "gateway", sim_minutes=-1),
        _gateway_field("_card_failed_attempts_as_string", "wallets.card", failed_attempts="0"),
        _gateway_field("_card_failed_attempts_negative", "wallets.card", failed_attempts=-1),
        _gateway_field("_card_iid_as_bool", "wallets.card", current_iid=True),
        _gateway_field("_card_iid_with_whitespace", "wallets.card", current_iid="0011223344 5566 "),
        _gateway_field("_edge_iid_as_bool", "edge.db", current_iid=True),
        _gateway_field("_edge_iid_too_short", "edge.db", current_iid="00" * 7),
        *(
            _dors_counter(field, value)
            for field in ("signature_count", "dors_epochs")
            for value in ("0", -1, True)
        ),
        *(
            _set(f"_session_uid_as_{value!r}", ("gateway", "sessions"), {"s1": _session("s1", value)})
            for value in ("zz", 7, True, [], {})
        ),
        *(
            _set(f"_step_up_token_uid_as_{value!r}", ("gateway", "step_up_tokens"), {"t1": [value, 0]})
            for value in ("zz", 7, True)
        ),
        _set("_session_id_not_its_key", ("gateway", "sessions"), {"s1": _session("s2", "alice")}),
        _set("_mht_gateway_uid_as_integer", ("gateway", "mht_registry", "alice", "uid"), 7),
        _set("_mht_user_uid_of_another_user", ("gateway", "wallets", "alice", "mht", "uid"), "owner"),
        _set("_dors_gateway_uid_as_integer", ("gateway", "dors_registry", "alice", "uid"), 7),
        _set("_dors_user_uid_as_integer", ("gateway", "wallets", "alice", "dors", "uid"), 7),
        _set("_card_uid_as_integer", ("gateway", "wallets", "alice", "card", "uid"), 7),
        _dors_entry("_dors_params_k_1.5", params=dict(DORS_PARAMS, k=1.5)),
        _gateway_field("_dors_user_params_r_true", "wallets.dors", params=dict(DORS_PARAMS, r=True)),
        *(
            _set(f"_wallet_{part}_as_{value!r}", ("gateway", "wallets", "alice", part), value)
            for part, value in (("card", []), ("card", False), ("dors", 0), ("dors", ""))
        ),
        _set("_invocation_as_true", ("invocation",), True),
        _set("_invocation_as_1.5", ("invocation",), 1.5),
        *(
            _set(f"_{'_'.join(path)}_emptied", ("gateway", *path), {})
            for path in (("dors_registry",), ("dors_epochs",), ("edge", "db"), ("edge", "bindings"))
        ),
    ],
)
def test_damaged_state_file_exits_with_state_corrupt(tmp_path, capsys, damage):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    path = state / "state.json"
    text = path.read_text()
    path.write_text(damage(json.loads(text), text))
    code = main(["login", "--state", str(state), "--uid", "alice", "--password", "pw-alice"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: StateCorrupt: {path}: ")


# --- the damaged-state invariant ----------------------------------------------------

# A value of each JSON type, and the edge values of the numbers; each node of
# state.json is replaced by each of these whose type differs from its own.
SUBSTITUTES = ["zz", 7, -1, True, False, None, [], {}, 1.5, 0, ""]


def _accepted_on_purpose(path: tuple, value) -> bool:
    """A substitute the reader accepts by design, with its reason."""
    # A DHS interface identifier as written before it was 16 hex digits: a
    # non-negative JSON integer still loads, as that identifier.
    return path[-1] == "current_iid" and type(value) is int and value >= 0


def _cli(state: Path, command: str, *argv: str) -> tuple[int, str, str]:
    """One call on ``state``: its exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--state", str(state), *argv])
    return code, out.getvalue(), err.getvalue()


def _household(state: Path) -> list[tuple[str, ...]]:
    """Build in ``state`` an MHT-only user who has logged in (mo), a
    ``dors,card`` user with a live session and an open step-up token (alice)
    and a ``card`` user awaiting activation (carol). Returns the calls that
    follow: a retry, a local and an internet login, a local and an internet
    request, carol's activation and her first login."""
    def ok(*argv: str) -> str:
        code, out, err = _cli(state, *argv)
        assert code in (0, 3), (argv, out, err)
        return out

    for uid, caps in (("mo", ""), ("alice", "dors,card"), ("carol", "card")):
        ok("register", "--seed", SEED, "--uid", uid, "--name", uid.title(),
           "--password", f"pw-{uid}", "--capabilities", caps)
    for uid in ("mo", "alice"):
        ok("verify", "--uid", uid, "--decision", "activate")
    ok("login", "--uid", "mo", "--password", "pw-mo", "--bluetooth", "--time", "600")
    out = ok("login", "--uid", "alice", "--password", "pw-alice", "--bluetooth", "--time", "600")
    session = out.split("session=")[1].split()[0]
    out = ok("login", "--uid", "alice", "--password", "WRONG", "--bluetooth", "--time", "600")
    token = out.split("--retry-token ")[1].split()[0]
    internet = ("--origin", "internet", "--ip-class", "known-external")
    return [
        ("login", "--uid", "alice", "--password", "WRONG", "--bluetooth", "--retry-token", token, "--time", "601"),
        ("login", "--uid", "mo", "--password", "pw-mo", "--bluetooth", "--time", "602"),
        ("login", "--uid", "alice", "--password", "pw-alice", *internet, "--time", "603"),
        ("access", "--session", session, "--device", "front-lock", "--bluetooth", "--time", "604"),
        ("access", "--session", session, "--device", "thermostat", *internet, "--time", "605"),
        ("verify", "--uid", "carol", "--decision", "activate"),
        ("login", "--uid", "carol", "--password", "pw-carol", *internet, "--time", "606"),
    ]


def _nodes(node, path: tuple):
    """The path of ``node`` and of every node below it."""
    yield path
    children = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in children:
        yield from _nodes(child, (*path, key))


def test_every_damaged_node_prints_the_clean_output_or_exits_state_corrupt(tmp_path):
    # Each node under "gateway", and "invocation", takes each substitute of
    # another JSON type. Every later call must then print what it prints on
    # the clean directory, or exit StateCorrupt; a raw exception fails. A
    # call that exits StateCorrupt writes nothing, so every later one would
    # fail alike and the case stops there.
    clean, damaged = tmp_path / "clean", tmp_path / "damaged"
    calls = _household(clean)
    files = {path.name: path.read_bytes() for path in clean.iterdir()}
    text = files["state.json"].decode()
    expected = [_cli(clean, *argv) for argv in calls]
    doc = json.loads(text)
    cases = []
    for path in [("invocation",), *_nodes(doc["gateway"], ("gateway",))]:
        node = doc
        for key in path:
            node = node[key]
        cases += [
            (path, value) for value in SUBSTITUTES
            if type(value) is not type(node) and not _accepted_on_purpose(path, value)
        ]
    started, escapes = time.perf_counter(), []
    for path, value in cases:
        shutil.rmtree(damaged, ignore_errors=True)
        damaged.mkdir()
        for name, data in files.items():
            (damaged / name).write_bytes(data)
        (damaged / "state.json").write_text(_set("damage", path, value)(json.loads(text), text))
        for argv, want in zip(calls, expected):
            case = ("/".join(map(str, path)), value, argv[0])
            try:
                got = _cli(damaged, *argv)
            except Exception as exc:
                escapes.append((*case, repr(exc)))
                break
            if got != want:
                if not (got[0] == 1 and got[2].startswith("error: StateCorrupt: ")):
                    escapes.append((*case, got))
                break
    elapsed = time.perf_counter() - started
    assert not escapes, f"{len(escapes)} of {len(cases)} cases escape:\n" + "\n".join(map(repr, escapes))
    assert len(cases) > 900 and elapsed < 10, (len(cases), elapsed)


def _as_written_before_compact_histories(state_dir: Path) -> None:
    """Rewrite state.json as it was written before MHT user entries kept a
    compact range: each held the user's leaves, which are the gateway's."""
    path = state_dir / "state.json"
    state = json.loads(path.read_text())
    gateway = state["gateway"]
    for uid, wallet in gateway["wallets"].items():
        del wallet["mht"]["range"]
        wallet["mht"]["leaves"] = gateway["mht_registry"][uid]["leaves"]
    path.write_bytes(persist.dumps(state))


def test_state_with_user_leaves_logs_in_alike_and_saves_the_compact_form(tmp_path, capsys):
    compact, old = str(tmp_path / "compact"), tmp_path / "old"
    bootstrap_user(capsys, compact, caps="")
    login = ["login", "--uid", "alice", "--password", "pw-alice", "--bluetooth"]
    for minute in (600, 700, 800):
        assert run(capsys, *login, "--state", compact, "--time", str(minute))[0] == 0
    old.mkdir()
    for name in state_files(compact):
        (old / name).write_bytes((Path(compact) / name).read_bytes())
    _as_written_before_compact_histories(old)
    assert '"leaves"' in (old / "state.json").read_text().split('"wallets"')[1]
    outputs = [run(capsys, *login, "--state", state, "--time", "900") for state in (compact, str(old))]
    assert outputs[0] == outputs[1] and "scheme=mht" in outputs[0][1]
    assert (old / "state.json").read_bytes() == (Path(compact) / "state.json").read_bytes()


def _flip_middle_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "target, damage",
    [
        ("db.enc", Path.unlink),
        ("db.enc", _flip_middle_byte),
        ("db.enc", lambda path: path.write_bytes(path.read_bytes()[:20])),  # truncated
        ("db.enc", lambda path: path.write_bytes(b"XXXXXX" + path.read_bytes()[6:])),  # bad magic
        ("state.json", lambda path: (path.unlink(), path.mkdir())),  # unreadable
    ],
    ids=["db-missing", "db-flipped-byte", "db-truncated", "db-bad-magic", "state-unreadable"],
)
def test_missing_or_damaged_state_file_exits_with_state_corrupt(tmp_path, capsys, target, damage):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    path = state / target
    damage(path)
    code = main(["login", "--state", str(state), "--uid", "alice", "--password", "pw-alice"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: StateCorrupt: {path}: ")


@pytest.mark.parametrize(
    "under, error", [(False, "FileExistsError"), (True, "NotADirectoryError")], ids=["file", "under-file"]
)
def test_state_directory_that_cannot_be_created_exits_with_state_corrupt(tmp_path, capsys, under, error):
    blocker = tmp_path / "state"
    blocker.write_bytes(b"not a directory\n")
    state = blocker / "inner" if under else blocker
    code = main(["login", "--state", str(state), "--uid", "a", "--password", "b"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: StateCorrupt: {state}: {error}: ")
    assert blocker.read_bytes() == b"not a directory\n"


# The home's configuration as a state directory once carried it: in
# state.json, and as an access_policies table in db.enc.
OLD_CONFIGURATION = {
    "weights": {"credentials": 0.4, "bluetooth": 0.2, "ip_location": 0.15, "calendar": 0.15, "history": 0.1},
    "devices": {
        "front-lock": {"kind": "lock", "threshold": 0.9},
        "thermostat": {"kind": "thermostat", "threshold": 0.5},
        "porch-camera": {"kind": "camera", "threshold": 0.8},
    },
    "internet_allowlist": {"owner": ["camera", "lock", "thermostat"], "resident": ["camera", "thermostat"], "guest": []},
}
OLD_ACCESS_POLICIES = {
    device: {"threshold": row["threshold"], "step_up_margin": 0.2}
    for device, row in OLD_CONFIGURATION["devices"].items()
}


def test_state_directory_carrying_the_configuration_loads_and_sheds_it(tmp_path, capsys, monkeypatch):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    path = state / "state.json"
    doc = json.loads(path.read_text())
    doc["gateway"].update(OLD_CONFIGURATION)
    path.write_text(json.dumps(doc))
    key = Key256.from_hex((state / "gateway.key").read_text().strip())
    db = gw_mod.load_db(state / "db.enc", key)
    tables = {**json.loads(gw_mod.serialize_db(db)), "access_policies": OLD_ACCESS_POLICIES}
    with monkeypatch.context() as patch:
        patch.setattr(gw_mod, "serialize_db", lambda _: json.dumps(tables).encode())
        (state / "db.enc").write_bytes(gw_mod.encrypt_db(db, key, Nonce128(bytes(16))))
    assert gw_mod.load_db(state / "db.enc", key) == db

    code, out = login(capsys, str(state), 600)
    assert code == 0, out
    session = out.split("session=")[1].split()[0]
    code, out = run(capsys, "access", "--state", str(state), "--session", session,
                    "--device", "thermostat", "--bluetooth", "--time", "610")
    assert (code, out) == (0, "thermostat: grant\n")
    assert not set(OLD_CONFIGURATION) & set(json.loads(path.read_text())["gateway"])
    # db.enc now holds exactly the serialized tables: the policies are gone.
    db = gw_mod.load_db(state / "db.enc", key)
    assert len((state / "db.enc").read_bytes()) == len(gw_mod.DB_MAGIC) + 16 + len(gw_mod.serialize_db(db)) + 32


def _with_unread_keys(state_dir: Path) -> None:
    """Rewrite state.json as it was written while it still held keys no
    decision reads: the home server's registrations, each wallet's uid, the
    DORS signer's revealed leaves and each session's origin and grants."""
    path = state_dir / "state.json"
    state = json.loads(path.read_text())
    gateway = state["gateway"]
    gateway["home_registered"] = sorted(gateway["edge"]["db"])
    for uid, wallet in gateway["wallets"].items():
        wallet["uid"] = uid
    gateway["wallets"]["alice"]["dors"]["revealed"] = {"0": [3, 17, 40]}
    for session in gateway["sessions"].values():
        session.update(origin="local", device_grants=["thermostat"])
    path.write_bytes(persist.dumps(state))


def test_state_directory_carrying_unread_keys_loads_and_sheds_them(tmp_path, capsys):
    """Two directories built alike, one given the old keys after its first
    login: both print the same, and then both hold the same state.json."""
    current, old = tmp_path / "current", tmp_path / "old"
    outputs = []
    for state_dir in (current, old):
        state = str(state_dir)
        bootstrap_user(capsys, state)
        code, out = login(capsys, state, 600)
        assert code == 0, out
        if state_dir == old:
            _with_unread_keys(old)
        session = out.split("session=")[1].split()[0]
        outputs.append([
            run(capsys, "access", "--state", state, "--session", session,
                "--device", "thermostat", "--bluetooth", "--time", "610"),
            login(capsys, state, 700),
        ])
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == (0, "thermostat: grant\n") and outputs[0][1][0] == 0
    gateway = json.loads((old / "state.json").read_text())["gateway"]
    assert "home_registered" not in gateway
    assert all("uid" not in wallet for wallet in gateway["wallets"].values())
    assert "revealed" not in gateway["wallets"]["alice"]["dors"]
    assert gateway["sessions"] and not any(
        {"origin", "device_grants"} & set(session) for session in gateway["sessions"].values()
    )
    assert (old / "state.json").read_bytes() == (current / "state.json").read_bytes()


DEVICES = ("thermostat", "porch-camera", "front-lock")


def _scripted_household(state: Path, after_each) -> tuple[str, dict[int, int]]:
    """699 calls on ``state``: alice (``dors``) and bob (``dors,card``)
    register and are activated, then 139 rounds an hour apart. In each,
    alice logs in locally with DORS and requests a device; bob does the
    same, from the internet with DHS in every fifth round; and bob requests
    the front lock from the internet. Alice's 139 DORS logins cross two
    re-keys. Returns the SHA-256 of every call's argv, exit status and
    stdout, and the count of each exit status; ``after_each`` runs after
    every call."""
    sha, codes = hashlib.sha256(), {}

    def call(*argv: str) -> str:
        code, out, err = _cli(state, *argv)
        assert not err, (argv, err)
        sha.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
        codes[code] = codes.get(code, 0) + 1
        after_each()
        return out

    call("register", "--seed", SEED, "--uid", "alice", "--name", "Alice", "--password", "pw-alice",
         "--capabilities", "dors")
    call("register", "--uid", "bob", "--name", "Bob", "--password", "pw-bob", "--capabilities", "dors,card")
    for uid in ("alice", "bob"):
        call("verify", "--uid", uid, "--decision", "activate")
    internet = ("--origin", "internet", "--ip-class", "known-external")
    for i in range(139):
        minutes = str(600 + 60 * i)
        for uid, where in (("alice", ("--bluetooth",)), ("bob", internet if i % 5 == 4 else ("--bluetooth",))):
            out = call("login", "--uid", uid, "--password", f"pw-{uid}", *where, "--time", minutes)
            session = out.split("session=")[1].split()[0] if "session=" in out else "none"
            call("access", "--session", session, "--device", DEVICES[i % 3], *where, "--time", minutes)
        call("access", "--session", session, "--device", "front-lock", *internet, "--time", minutes)
    return sha.hexdigest(), codes


# `_scripted_household`'s hash, recorded while each DORS user's trees were
# stored in a file of their own beside state.json (commit b9fb283). Storing
# no tree must change no output.
SCRIPTED_HOUSEHOLD_SHA256 = "707abeafe98155dca75a5fcb2007a89d3a595863944528f7d24054b43bf4e734"


def test_scripted_household_prints_as_before_and_keeps_three_files(tmp_path):
    state = tmp_path / "state"

    def three_files():
        assert state_files(state) == STATE_FILES

    digest, codes = _scripted_household(state, three_files)
    assert (digest, codes) == (SCRIPTED_HOUSEHOLD_SHA256, {0: 459, 4: 240})


# A state directory as the CLI wrote it while each DORS user's trees sat in
# a forest file beside state.json (commit b9fb283): alice, registered with
# `--capabilities dors` at SEED, after 57 local logins an hour apart from
# minute 600. She signs with her last tree, and one tree of her next forest
# is built ahead. state.json names the forest file and carries the roots and
# the dropped count.
FOREST_FILE_STATE = Path(__file__).parent / "forest_file_state"

# What that CLI printed for her next nine logins: the rest of the last tree,
# the re-key and one more.
FOREST_FILE_LOGINS = [
    (0, f"granted: session={session} scheme=dors confidence=0.800\n")
    for session in (
        "ef93883456f4f835", "04441a7c9beb3668", "d99bc7ad32a9584c", "0bfa013e05680bba", "75834049ba3a3b0e",
        "7d18c7bce327bb79", "2763b035c995c11a", "0c9ddf8cac791ce3", "4dab1a6b54fd3b6c",
    )
]

# SHA-256 of the state.json that CLI wrote after them, less each DORS
# gateway entry's roots, each session's scheme and key, and the DORS
# signer's tree counters: the chains, link keys and wallets must agree.
FOREST_FILE_STATE_JSON_SHA256 = "af95cb7d2496b1342f685fae9a2da7ade4512e07f6dfd0cb4e59a5ecda80c330"


def test_directory_with_a_forest_file_loads_and_logs_in_as_before(tmp_path, capsys):
    state = tmp_path / "state"
    shutil.copytree(FOREST_FILE_STATE, state)
    (forest,) = state.glob("*.forest")
    entry = json.loads((state / "state.json").read_text())["gateway"]["dors_registry"]["alice"]
    assert (len(entry["roots"]), entry["dropped"], len(entry["next_roots"])) == (8, 7, 1)
    assert [login(capsys, str(state), 600 + 60 * i) for i in range(57, 66)] == FOREST_FILE_LOGINS
    assert hashlib.sha256((state / "state.json").read_bytes()).hexdigest() == FOREST_FILE_STATE_JSON_SHA256
    # Nothing reads the forest file any more, and nothing deletes it.
    assert state_files(state) == sorted([*STATE_FILES, forest.name])


def test_state_directory_without_trees_built_ahead_loads_and_rekeys(tmp_path, capsys, monkeypatch):
    """A state.json with nothing built ahead, as one was written before trees
    were built ahead, even six signatures into the last tree: it loads, and
    the re-key builds the trees the last two logins left unbuilt."""
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state), caps="dors")
    gw, seed, inv = cli._load(state, None)
    with monkeypatch.context() as patch:
        patch.setattr(gw_mod.Gateway, "_roll_dors_forest", lambda self, uid: None)
        for minutes in range(600, 600 + 62 * 60, 60):
            gw.advance_time(minutes - gw.sim_minutes)
            result = gw.login("alice", "pw-alice", ContextSnapshot(
                uid="alice", origin=ORIGIN_LOCAL, ip_class=IP_HOME, bluetooth_present=True,
                timestamp=minutes,
            ))
            assert (result.status, result.session.scheme) == ("grant", "dors")
        cli._save(state, gw, seed, inv)
    entry = json.loads((state / "state.json").read_text())["gateway"]["dors_registry"]["alice"]
    assert (entry["chain"]["signature_count"], "next_roots" in entry) == (62, False)
    for i in range(62, 66):  # two in the last tree, the re-key, one more
        code, out = login(capsys, str(state), 600 + 60 * i)
        assert (code, "scheme=dors" in out) == (0, True), out
        assert state_files(state) == STATE_FILES
    entry = json.loads((state / "state.json").read_text())["gateway"]["dors_registry"]["alice"]
    assert (entry["chain"]["signature_count"], "next_roots" in entry) == (2, False)


def test_state_json_holds_no_session_key_or_scheme(tmp_path, capsys, monkeypatch):
    """After a DORS and a DHS grant, state.json names both sessions but holds
    neither key nor any scheme."""
    granted, open_session = [], gw_mod.Gateway._open_session

    def recording(self, *args):
        granted.append(open_session(self, *args))
        return granted[-1]

    monkeypatch.setattr(gw_mod.Gateway, "_open_session", recording)
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    assert login(capsys, str(state), 600)[0] == 0
    code, _ = run(capsys, "login", "--state", str(state), "--uid", "alice", "--password", "pw-alice",
                  "--origin", "internet", "--ip-class", "known-external", "--time", "601")
    assert code == 0
    assert [session.scheme for session in granted] == ["dors", "dhs"]
    text = (state / "state.json").read_text()
    for session in granted:
        assert session.session_id in text and session.session_key.hex() not in text
    assert '"scheme"' not in text and '"session_key"' not in text


def test_save_then_load_restores_the_same_gateway_state(tmp_path, capsys):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    code, _ = login(capsys, str(state), 600)
    assert code == 0
    gw, seed, inv = cli._load(state, None)
    result = gw.login("alice", "pw-alice", ContextSnapshot(
        uid="alice", origin=ORIGIN_LOCAL, ip_class=IP_HOME, bluetooth_present=True, timestamp=700,
    ))
    assert result.status == "grant"
    before = persist.dumps(persist.gateway_state_to_dict(gw, with_forests=False))
    cli._save(state, gw, seed, inv)
    restored, *_ = cli._load(state, None)
    assert persist.dumps(persist.gateway_state_to_dict(restored, with_forests=False)) == before


def test_overlapping_calls_lose_an_update_but_leave_the_directory_whole(tmp_path, capsys, monkeypatch):
    """Call B (``register bob``) loads the state; call A, alice's 17th DORS
    login, then runs to the end; then B saves. While trees sat in forest
    files, A deleted the file B's state.json names, and every later call
    exited StateCorrupt. Now B's save loses A's update and nothing more:
    the next calls succeed, though A's session is gone."""
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state), caps="dors")
    for i in range(16):
        assert login(capsys, str(state), 600 + 60 * i)[0] == 0
    load, interleaved = cli._load, []

    def load_then_run_a(state_dir, seed):
        loaded = load(state_dir, seed)
        monkeypatch.setattr(cli, "_load", load)
        interleaved.append(login(capsys, str(state), 600 + 60 * 16))
        return loaded

    monkeypatch.setattr(cli, "_load", load_then_run_a)
    code, out = run(capsys, "register", "--state", str(state), "--uid", "bob", "--name", "Bob",
                    "--password", "pw-bob", "--capabilities", "dors")
    assert (code, out) == (0, "registered bob: status=pending role=resident\n")
    ((code, out),) = interleaved
    assert (code, "scheme=dors" in out) == (0, True), out
    assert state_files(state) == STATE_FILES
    code, out = run(capsys, "access", "--state", str(state), "--session", out.split("session=")[1].split()[0],
                    "--device", "thermostat", "--bluetooth", "--time", str(600 + 60 * 16))
    assert (code, out) == (2, "")  # A's session was lost with its update
    code, out = login(capsys, str(state), 600 + 60 * 17)
    assert (code, "scheme=dors" in out) == (0, True), out
    assert run(capsys, "verify", "--state", str(state), "--uid", "bob", "--decision", "activate")[0] == 0


def test_a_card_never_locks_at_the_cli(tmp_path, capsys):
    """A wrong internet password raises AuthFailed out of ``cmd_login``
    before ``_save`` runs, so the card's raised ``failed_attempts`` is never
    saved: four wrong passwords each fail the same way, and the right one
    then logs in. An in-process ``Gateway`` locks the card from the third.
    ROADMAP item 21 moves the count to a per-uid budget at the gateway and
    flips this test."""
    state = str(tmp_path / "state")
    bootstrap_user(capsys, state, caps="card")
    internet = ("--origin", "internet", "--ip-class", "known-external")
    for minutes in range(600, 604):
        code = main(["login", "--state", state, "--uid", "alice", "--password", "WRONG",
                     *internet, "--time", str(minutes)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            1, "", "error: AuthFailed: dhs handshake failed: password check failed\n"
        )
    code, out = run(capsys, "login", "--state", state, "--uid", "alice", "--password", "pw-alice",
                    *internet, "--time", "604")
    assert (code, "scheme=dhs" in out) == (0, True), out


@pytest.fixture
def writes(monkeypatch):
    """Names of the files each call writes through atomic_write."""
    written = []

    def recording(path, data):
        written.append(Path(path).name)
        original(path, data)

    original = gw_mod.atomic_write
    monkeypatch.setattr(gw_mod, "atomic_write", recording)
    monkeypatch.setattr(cli, "atomic_write", recording)
    return written


def test_a_login_writes_only_state_json_and_other_calls_the_database_too(tmp_path, capsys, writes):
    state = str(tmp_path / "state")
    bootstrap_user(capsys, state, caps="dors")
    writes.clear()
    code, out = login(capsys, state, 600)
    assert code == 0
    assert writes == ["state.json"]  # a login changes no table of the user database
    writes.clear()
    session = out.split("session=")[1].split()[0]
    code, _ = run(capsys, "access", "--state", state, "--session", session,
                  "--device", "porch-camera", "--bluetooth", "--time", "610")
    assert code == 0
    assert sorted(writes) == ["db.enc", "state.json"]
    writes.clear()
    code, _ = run(capsys, "register", "--state", state, "--uid", "bob", "--name", "Bob",
                  "--password", "pw-bob", "--capabilities", "dors")
    assert code == 0
    assert sorted(writes) == ["db.enc", "state.json"]
    writes.clear()
    code, _ = run(capsys, "verify", "--state", state, "--uid", "bob", "--decision", "activate")
    assert code == 0
    assert sorted(writes) == ["db.enc", "state.json"]  # provisioning bob's forest stores no tree
    assert state_files(state) == STATE_FILES


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["--password", "pw-alice", "--bluetooth"], 0),  # grant
        (["--password", "pw-alice", "--ip-class", "unknown"], 3),  # step-up
        (["--password", "WRONG", "--ip-class", "unknown"], 4),  # deny
    ],
    ids=["grant", "step-up", "deny"],
)
def test_login_leaves_the_user_database_file_as_it_was(tmp_path, capsys, argv, exit_code):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state), caps="")
    db_file, state_file = (state / "db.enc").read_bytes(), (state / "state.json").read_bytes()
    code, _ = run(capsys, "login", "--state", str(state), "--uid", "alice", *argv, "--time", "600")
    assert code == exit_code
    assert (state / "db.enc").read_bytes() == db_file
    assert (state / "state.json").read_bytes() != state_file


def test_stateful_import_leaves_the_harness_out():
    code = (
        "import sys, sshaf.harness.cli; "
        "print(sorted(m for m in ('sshaf.harness.attacks', 'sshaf.harness.scenarios', "
        "'sshaf.harness.simnet') if m in sys.modules))"
    )
    src = str(Path(cli.__file__).parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("key_text", ["abc\n", "", "ab" * 31 + "\n", None])
def test_damaged_key_file_exits_with_state_corrupt(tmp_path, capsys, key_text):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    path = state / "gateway.key"
    if key_text is None:
        path.unlink()
    else:
        path.write_text(key_text)
    code = main(["login", "--state", str(state), "--uid", "alice", "--password", "pw-alice"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: StateCorrupt: {path}: ")


def test_bench_table1_csv_layout(capsys):
    code, out = run(capsys, "bench", "--table", "1", "--format", "csv", "--seed", SEED)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "Utilized parameter",
        "Internet access time (ms)",
        "Local access time (ms)",
    ]
    assert len(rows) == 6
    values = {row[0]: (int(row[1]), int(row[2])) for row in rows[1:]}
    no_auth = values["No authentication"]
    assert all(no_auth[0] <= v[0] and no_auth[1] <= v[1] for v in values.values())


# SHA-256 of `sshaf bench --table N --format json --seed 11*32`. The
# output holds every row's modelled ms and its hash, mac, wire-byte,
# message and storage_bits counters, so any change to protocol work or to
# the persisted bytes shows here.
BENCH_JSON_SHA256 = {
    "1": "818aab953b35bf749811213795eb8fe141a1363aaed6ce3c5ad712353cfc258d",
    "2": "ead76cc5ed44f6643775956eb7e001965b261c549a614d5afb069cf3be032980",
}


@pytest.mark.parametrize("table", sorted(BENCH_JSON_SHA256))
def test_bench_json_tables_are_pinned(capsys, table):
    code, out = run(capsys, "bench", "--table", table, "--format", "json", "--seed", SEED)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BENCH_JSON_SHA256[table]


def test_bench_table3_all_resisted(capsys):
    code, out = run(capsys, "bench", "--table", "3", "--format", "csv", "--seed", SEED)
    assert code == 0
    assert "false" not in out
    assert out.count("true") == 12


def test_attack_command_exit_codes(capsys):
    for kind in ("replay", "impersonate", "skd", "stolen"):
        code, out = run(capsys, "attack", "--kind", kind, "--seed", SEED)
        assert code == 0, out
        assert "VULNERABLE" not in out


# Exit code and SHA-256 of the stdout of every stateless command at
# `--seed 11*32`: each cost table and the matrix in each format, each attack
# kind on every scheme, and the report in each format. Any change to a
# seeded transcript, counter, modelled time or the attack harness shows here.
STATELESS_OUTPUTS = [
    ("bench --table 1 --format text", 0, "09b65dd197fb53d1d0ab4fcf7540bb51fdc5ea8d319d5fcbf8e28e2f59e46a02"),
    ("bench --table 1 --format csv", 0, "778e68bfcec41378c055ba3ba9c5ce3780228558d8759dbeacbdf83dd9e44851"),
    ("bench --table 1 --format json", 0, "818aab953b35bf749811213795eb8fe141a1363aaed6ce3c5ad712353cfc258d"),
    ("bench --table 2 --format text", 0, "a4c21b174ca3849fe7ea0a3765d6b7558aa921048391e9b1ec86af0f00fc4556"),
    ("bench --table 2 --format csv", 0, "e941896dbaa84cda39acb727cbc448b1b8914785b3b6f67162f83350f9a9214c"),
    ("bench --table 2 --format json", 0, "ead76cc5ed44f6643775956eb7e001965b261c549a614d5afb069cf3be032980"),
    ("bench --table 3 --format text", 0, "cc8a101be29be610c4a700e611d2665b5a27b0f1de1e81fb30bc1aa84d1476dc"),
    ("bench --table 3 --format csv", 0, "cc2b5921f4369781ef59bc0ef6b761eb8cf9a60169fde97e24b3f1056db34660"),
    ("bench --table 3 --format json", 0, "f2424e62edb139f41b58b8bfbe9cd888277986d2e899e30d3b119e8155b3372d"),
    ("attack --kind replay", 0, "64016cc34da53f607e2e847d2fae477c8add675ffac61ce333db161ef3ff6c2d"),
    ("attack --kind impersonate", 0, "e764cd47098c5c1607b23b428b605b5e5072231a16ee79209250e6071f67e856"),
    ("attack --kind skd", 0, "ca6cc0f3b3adeefb8c1639b31b5ac65bbcb8c56db568b82554ac67f26483c35c"),
    ("attack --kind stolen", 0, "55c6d159ec7dc84b40c108c75fe08ea4905cde528c167e0fb8c7da269e3e0bb8"),
    ("report --format text", 0, "1c6d967be531e09568863b66f5af93b91873b002acd562e127b6c306b680ad72"),
    ("report --format csv", 0, "4f48bce4e30922cda0f81898a347eaf0ea7b0e9b2d846948bada138a045a040e"),
    ("report --format json", 0, "d0e52afeac6eef54d0eb3d847ed56ff9c0a8e263d52fa323089ae97d741d1c08"),
]


@pytest.mark.parametrize("command, exit_code, sha256", STATELESS_OUTPUTS, ids=[c[0] for c in STATELESS_OUTPUTS])
def test_stateless_outputs_are_pinned(capsys, command, exit_code, sha256):
    code, out = run(capsys, *command.split(), "--seed", SEED)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, sha256)


def test_report_json_shape(capsys):
    code, out = run(capsys, "report", "--format", "json", "--seed", SEED)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["individual_factors"]) == 5
    assert len(doc["integrated_factors"]) == 4
    assert len(doc["security_matrix"]) == 12
    assert all(row["resisted"] for row in doc["security_matrix"])
    assert doc["forgery_experiment"]["within_bound"] is True


def test_report_csv_has_metric_columns(capsys):
    code, out = run(capsys, "report", "--format", "csv", "--seed", SEED)
    assert code == 0
    header = out.splitlines()[0].split(",")
    for column in ("elapsed_ms", "hash_count", "mac_count", "wire_bytes", "storage_bits"):
        assert column in header


# Output and exit code of `sshaf` help, usage and parse errors, recorded
# with COLUMNS=80 from the single argparse parser that held every command.
# The command table must print the same bytes. argparse's wording changes
# between Python minor versions; these are from 3.11.
CLI_SURFACE = json.loads((Path(__file__).parent / "cli_surface_goldens.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="goldens recorded from Python 3.11 argparse")
@pytest.mark.parametrize("case", CLI_SURFACE, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_parser_surface_matches_goldens(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv",
    [
        ["register", "--seed", "zz"],
        ["register", "--seed", "abcd"],
        ["bench", "--table", "1", "--seed", "zz"],
        ["bench", "--table", "1", "--seed", "abcd"],
        ["attack", "--kind", "replay", "--seed", "0g"],
    ],
    ids=" ".join,
)
def test_bad_seed_is_a_usage_error_before_any_file(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "register":
        argv = [*argv, "--state", str(tmp_path / "state"), "--uid", "bob", "--name", "Bob", "--password", "pw"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    bad = argv[argv.index("--seed") + 1]
    assert f"error: argument --seed: expected 64 hex digits (32 bytes), got {bad!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["login", "--uid", "alice", "--password", "pw-alice"],
        ["access", "--session", "s", "--device", "porch-camera"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("order", [["--origin", "internet", "--bluetooth"], ["--bluetooth", "--origin", "internet"]])
def test_internet_origin_with_bluetooth_is_a_usage_error_before_any_file(
    tmp_path, capsys, monkeypatch, argv, order
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--state", str(tmp_path / "state"), *order])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"sshaf {argv[0]}: error: argument --bluetooth: not allowed with --origin internet" in err
    assert list(tmp_path.iterdir()) == []


def test_internet_origin_with_bluetooth_leaves_a_live_session_and_its_state_as_they_were(tmp_path, capsys):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    code, out = login(capsys, str(state), 600)
    assert code == 0
    session = out.split("session=")[1].split()[0]
    before = {name: (state / name).read_bytes() for name in state_files(state)}
    with pytest.raises(SystemExit) as exc:
        main(["access", "--state", str(state), "--session", session, "--device", "porch-camera",
              "--origin", "internet", "--bluetooth", "--time", "610"])
    assert exc.value.code == 2
    assert "error: argument --bluetooth: not allowed with --origin internet" in capsys.readouterr().err
    assert {name: (state / name).read_bytes() for name in state_files(state)} == before


@pytest.mark.parametrize(
    "caps, error",
    [
        ("dros", "unknown capability 'dros'"),
        ("dors,cards", "unknown capability 'cards'"),
        (",card,x", "unknown capability 'x'"),
        ("dors,card,dors", "repeated capability 'dors'"),
    ],
)
def test_unknown_capability_is_a_usage_error_before_any_file(tmp_path, capsys, monkeypatch, caps, error):
    monkeypatch.chdir(tmp_path)
    argv = ["register", "--state", str(tmp_path / "state"), "--uid", "bob", "--name", "Bob",
            "--password", "pw", "--capabilities", caps]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument --capabilities: {error}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _no_full_parser():
    raise AssertionError("a valid command call built the full parser")


def test_stateful_commands_build_only_their_own_parser(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_parser", _no_full_parser)
    state = str(tmp_path / "state")
    bootstrap_user(capsys, state)
    code, out = run(
        capsys,
        "login", "--state", state, "--uid", "alice", "--password", "pw-alice",
        "--bluetooth", "--time", "600",
    )
    assert code == 0
    session = out.split("session=")[1].split()[0]
    code, out = run(
        capsys,
        "access", "--state", state, "--session", session, "--device", "porch-camera",
        "--bluetooth", "--time", "610",
    )
    assert (code, out) == (0, "porch-camera: grant\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--table", "1", "--seed", SEED],
        ["attack", "--kind", "replay", "--scheme", "mht", "--seed", SEED],
        ["report", "--format", "json"],
    ],
    ids=lambda argv: argv[0],
)
def test_stateless_commands_build_only_their_own_parser(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "build_parser", _no_full_parser)
    code, out = run(capsys, *argv)
    assert code == 0
    assert out
