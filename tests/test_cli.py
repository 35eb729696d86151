"""End-to-end CLI flows, run in-process through main(argv)."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sshaf import gateway as gw_mod
from sshaf import persist
from sshaf.context_engine import IP_HOME, ORIGIN_LOCAL, ContextSnapshot
from sshaf.harness import cli
from sshaf.harness.cli import main

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


def forest_files(state) -> list[str]:
    """The forest file of every DORS user state.json names, sorted."""
    registry = json.loads((Path(state) / "state.json").read_text())["gateway"]["dors_registry"]
    return sorted(f"dors-{entry['roots'][0]}.forest" for entry in registry.values())


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
    # alice's DORS forest sits in a file of its own.
    assert state_files(state) == ["db.enc", *forest_files(state), "gateway.key", "state.json"]
    assert len(forest_files(state)) == 1


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


def _weights_past_one(state: dict, text: str) -> str:
    state["gateway"]["weights"]["credentials"] = 0.9
    return json.dumps(state)


@pytest.mark.parametrize("damage", [_truncate, _drop_gateway, _weights_past_one])
def test_damaged_state_file_exits_with_state_corrupt(tmp_path, capsys, damage):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    path = state / "state.json"
    text = path.read_text()
    path.write_text(damage(json.loads(text), text))
    code = main(["login", "--state", str(state), "--uid", "alice", "--password", "pw-alice"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: StateCorrupt: {path}: ")


def _three_leaf_tree(path: Path) -> None:
    path.write_bytes(b"\xab" * 32 * 3)


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
        ("forest", Path.unlink),
        ("forest", lambda path: path.write_bytes(path.read_bytes()[:-1])),  # one byte short
        ("forest", lambda path: path.write_bytes(path.read_bytes() + b"\0")),  # one byte long
        ("forest", _three_leaf_tree),
        ("state.json", lambda path: (path.unlink(), path.mkdir())),  # unreadable
    ],
    ids=["db-missing", "db-flipped-byte", "db-truncated", "db-bad-magic", "forest-missing",
         "forest-short", "forest-long", "forest-three-leaves", "state-unreadable"],
)
def test_missing_or_damaged_state_file_exits_with_state_corrupt(tmp_path, capsys, target, damage):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    path = state / (forest_files(state)[0] if target == "forest" else target)
    damage(path)
    code = main(["login", "--state", str(state), "--uid", "alice", "--password", "pw-alice"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: StateCorrupt: {path}: ")


def test_dors_rekey_over_cli_replaces_the_forest_file(tmp_path, capsys):
    state = str(tmp_path / "state")
    bootstrap_user(capsys, state, caps="dors")
    first = forest_files(state)
    db_file = (Path(state) / "db.enc").read_bytes()
    # A production forest signs 64 logins; the 65th re-keys.
    for i in range(64):
        code, out = login(capsys, state, 600 + 60 * i)
        assert (code, "scheme=dors" in out) == (0, True), out
    assert forest_files(state) == first
    code, out = login(capsys, state, 600 + 60 * 64)
    assert (code, "scheme=dors" in out) == (0, True), out
    second = forest_files(state)
    assert len(second) == 1 and second != first
    assert state_files(state) == ["db.enc", *second, "gateway.key", "state.json"]
    assert (Path(state) / "db.enc").read_bytes() == db_file  # a login changes no table
    code, out = login(capsys, state, 600 + 60 * 65)
    assert (code, "scheme=dors" in out) == (0, True), out


def test_save_then_load_restores_the_same_gateway_state(tmp_path, capsys):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    code, _ = login(capsys, str(state), 600)
    assert code == 0
    gw, seed, inv, forests = cli._load(state, None)
    result = gw.login("alice", "pw-alice", ContextSnapshot(
        uid="alice", origin=ORIGIN_LOCAL, ip_class=IP_HOME, bluetooth_present=True, timestamp=700,
    ))
    assert result.status == "grant"
    before = persist.dumps(persist.gateway_state_to_dict(gw))
    cli._save(state, gw, seed, inv, forests)
    restored, *_ = cli._load(state, None)
    assert persist.dumps(persist.gateway_state_to_dict(restored)) == before


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


def test_only_a_provisioning_call_writes_a_forest(tmp_path, capsys, writes):
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
    before = forest_files(state)
    code, _ = run(capsys, "verify", "--state", state, "--uid", "bob", "--decision", "activate")
    assert code == 0
    (bob,) = set(forest_files(state)) - set(before)
    assert sorted(writes) == ["db.enc", bob, "state.json"]
    assert state_files(state) == ["db.enc", *forest_files(state), "gateway.key", "state.json"]


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
    "1": "0e0137e9f443d30f9becb6485aee5515b3682ee0ec0c1c9d534de69c1f77374a",
    "2": "f158cc4bb830e2862e1cccacf16c70f1cdd4d56c47d05fd4bbdc31c0022a0061",
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


@pytest.mark.parametrize("caps, bad", [("dros", "dros"), ("dors,cards", "cards"), (",card,x", "x")])
def test_unknown_capability_is_a_usage_error_before_any_file(tmp_path, capsys, monkeypatch, caps, bad):
    monkeypatch.chdir(tmp_path)
    argv = ["register", "--state", str(tmp_path / "state"), "--uid", "bob", "--name", "Bob",
            "--password", "pw", "--capabilities", caps]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"error: argument --capabilities: unknown capability {bad!r}" in capsys.readouterr().err
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
