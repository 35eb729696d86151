"""End-to-end CLI flows, run in-process through main(argv)."""

import csv
import hashlib
import io
import json

import pytest

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
    # Each call replaced its state files whole, leaving no temporary file.
    assert sorted(p.name for p in (tmp_path / "state").iterdir()) == ["db.enc", "gateway.key", "state.json"]


def test_register_with_malformed_calendar_reports_the_line(tmp_path, capsys):
    calendar = tmp_path / "calendar.jsonl"
    calendar.write_text('{"uid": "bob", "weekday": 1, "start_minute": 540, "end_minute": 1020}\n{"uid": "bob"\n')
    code = main(
        ["register", "--state", str(tmp_path / "state"), "--seed", SEED,
         "--uid", "bob", "--name", "Bob", "--password", "pw", "--calendar", str(calendar)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: MalformedRecord: {calendar}:2: not JSON")


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


def _three_leaf_tree(state: dict, text: str) -> str:
    state["gateway"]["dors_registry"]["alice"]["leaf_digests"][0] = "ab" * 32 * 3
    return json.dumps(state)


@pytest.mark.parametrize("damage", [_truncate, _drop_gateway, _three_leaf_tree])
def test_damaged_state_file_exits_with_state_corrupt(tmp_path, capsys, damage):
    state = tmp_path / "state"
    bootstrap_user(capsys, str(state))
    path = state / "state.json"
    text = path.read_text()
    path.write_text(damage(json.loads(text), text))
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
