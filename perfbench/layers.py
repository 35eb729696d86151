"""Where spans go, which layer each belongs to, and the per-layer metrics
derived from a traced run."""

from __future__ import annotations

from collections import defaultdict


def _report_counts(result):
    _, report = result
    return report.hash_count, report.mac_count


# (module the caller looks the name up in, attribute, span name[, counts hook]).
# A function imported by name into another module is wrapped there too. Only
# calls that cross from one layer into another need a span; the harness calls
# protocol phases directly, so those are wrapped as well as the gateway's.
WRAPS = [
    ("sshaf.merkle_auth", "mht_register", "merkle_auth.mht_register"),
    ("sshaf.merkle_auth", "mht_auth_initiate", "merkle_auth.mht_auth_initiate"),
    ("sshaf.merkle_auth", "mht_auth_challenge", "merkle_auth.mht_auth_challenge"),
    ("sshaf.merkle_auth", "mht_auth_respond", "merkle_auth.mht_auth_respond"),
    ("sshaf.merkle_auth", "mht_auth_finalize", "merkle_auth.mht_auth_finalize"),
    ("sshaf.merkle_auth", "mht_confirm", "merkle_auth.mht_confirm"),
    ("sshaf.dors_auth", "dors_provision", "dors_auth.dors_provision"),
    ("sshaf.dors_auth", "dors_keygen", "dors_auth.dors_keygen"),
    ("sshaf.dors_auth", "dors_handshake", "dors_auth.dors_handshake"),
    ("sshaf.dors_auth", "dors_respond", "dors_auth.dors_respond"),
    ("sshaf.dors_auth", "dors_gateway_verify", "dors_auth.dors_gateway_verify"),
    ("sshaf.dhs_auth", "dhs_register", "dhs_auth.dhs_register"),
    ("sshaf.dhs_auth", "dhs_login", "dhs_auth.dhs_login"),
    ("sshaf.dhs_auth", "dhs_edge_verify", "dhs_auth.dhs_edge_verify"),
    ("sshaf.dhs_auth", "dhs_session_agree", "dhs_auth.dhs_session_agree"),
    ("sshaf.dhs_auth", "dhs_card_confirm", "dhs_auth.dhs_card_confirm"),
    ("sshaf.dhs_auth", "dhs_edge_complete", "dhs_auth.dhs_edge_complete"),
    ("sshaf.dhs_auth", "dhs_card_finish", "dhs_auth.dhs_card_finish"),
    ("sshaf.context_engine", "select_scheme", "context_engine.select_scheme"),
    ("sshaf.context_engine", "evaluate_factor", "context_engine.evaluate_factor"),
    ("sshaf.context_engine", "score_confidence", "context_engine.score_confidence"),
    ("sshaf.context_engine", "decide_access", "context_engine.decide_access"),
    ("sshaf.context_engine", "classify_access", "context_engine.classify_access"),
    ("sshaf.gateway", "calendar_claims_presence", "context_engine.calendar_claims_presence"),
    ("sshaf.gateway", "Gateway.login", "gateway.login"),
    ("sshaf.gateway", "Gateway.authorize_device_access", "gateway.authorize_device_access"),
    ("sshaf.gateway", "Gateway.register_user", "gateway.register_user"),
    ("sshaf.gateway", "Gateway.owner_verify", "gateway.owner_verify"),
    ("sshaf.gateway", "encrypt_db", "gateway.encrypt_db"),
    ("sshaf.gateway", "decrypt_db", "gateway.decrypt_db"),
    ("sshaf.harness.cli", "load_db", "gateway.load_db"),
    ("sshaf.gateway", "store_db", "gateway.store_db"),
    ("sshaf.persist", "gateway_state_to_dict", "persist.gateway_state_to_dict"),
    ("sshaf.persist", "restore_gateway_state", "persist.restore_gateway_state"),
    ("sshaf.persist", "dumps", "persist.dumps"),
    ("sshaf.harness.cli", "main", "cli.main"),
    ("sshaf.harness.scenarios", "build_cost_table", "scenarios.build_cost_table"),
    ("sshaf.harness.scenarios", "run_scenario", "scenarios.run_scenario", _report_counts),
    ("sshaf.harness.scenarios", "evaluate_factor", "context_engine.evaluate_factor"),
    ("sshaf.harness.scenarios", "score_confidence", "context_engine.score_confidence"),
    ("sshaf.harness.scenarios", "decide_access", "context_engine.decide_access"),
    ("sshaf.harness.simnet", "SimLink.send", "scenarios.simnet_send"),
    ("sshaf.harness.attacks", "attack_replay", "attacks.attack_replay"),
    ("sshaf.harness.attacks", "attack_impersonate", "attacks.attack_impersonate"),
    ("sshaf.harness.attacks", "attack_session_key_disclosure", "attacks.attack_session_key_disclosure"),
    ("sshaf.harness.attacks", "attack_stolen_device", "attacks.attack_stolen_device"),
    ("sshaf.harness.attacks", "forgery_experiment", "attacks.forgery_experiment"),
]

# Layers that have spans; primitives are counted, not spanned.
SPANNED_LAYERS = (
    "merkle_auth", "dors_auth", "dhs_auth", "context_engine", "gateway",
    "persist", "cli", "scenarios", "attacks",
)

MHT_PHASES = (
    "merkle_auth.mht_auth_initiate", "merkle_auth.mht_auth_challenge",
    "merkle_auth.mht_auth_respond", "merkle_auth.mht_auth_finalize",
    "merkle_auth.mht_confirm",
)
DECISION_SPANS = (
    "context_engine.select_scheme", "context_engine.evaluate_factor",
    "context_engine.score_confidence", "context_engine.decide_access",
)
DB_CRYPTO_SPANS = ("gateway.encrypt_db", "gateway.decrypt_db")
ATTACK_SPANS = (
    "attacks.attack_replay", "attacks.attack_impersonate",
    "attacks.attack_session_key_disclosure", "attacks.attack_stolen_device",
)
PROBE_METRICS = (
    "hash_us", "raw_hash_us", "mac_us", "raw_mac_us", "kdf_us", "raw_kdf_us",
    "xor32_us", "raw_xor32_us", "digest_wrap_us",
)

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("primitives.hash_count", "count"),
    ("primitives.mac_count", "count"),
    ("primitives.est_ms", "ms"),
    *((f"primitives.{name}", "us") for name in PROBE_METRICS),
    ("merkle_auth.self_ms", "ms"),
    ("merkle_auth.handshake_ms", "ms"),
    ("merkle_auth.hashes_per_handshake", "count"),
    ("merkle_auth.history_leaves", "count"),
    ("merkle_auth.state_bytes", "bytes"),
    ("dors_auth.self_ms", "ms"),
    ("dors_auth.handshake_ms", "ms"),
    ("dors_auth.provision_ms", "ms"),
    ("dors_auth.rekey_share", "ratio"),
    ("dors_auth.gateway_state_bytes", "bytes"),
    ("dhs_auth.self_ms", "ms"),
    ("dhs_auth.login_ms", "ms"),
    ("dhs_auth.edge_verify_ms", "ms"),
    ("dhs_auth.agree_ms", "ms"),
    ("context_engine.self_ms", "ms"),
    ("context_engine.decide_ms", "ms"),
    ("context_engine.classify_ms", "ms"),
    ("gateway.self_ms", "ms"),
    ("gateway.login_self_ms", "ms"),
    ("gateway.access_self_ms", "ms"),
    ("gateway.encrypt_db_ms", "ms"),
    ("gateway.decrypt_db_ms", "ms"),
    ("gateway.db_crypto_hashes", "count"),
    ("gateway.db_bytes", "bytes"),
    ("gateway.usage_rows", "count"),
    ("persist.self_ms", "ms"),
    ("persist.to_dict_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("persist.state_json_bytes", "bytes"),
    ("cli.self_ms", "ms"),
    ("scenarios.self_ms", "ms"),
    ("scenarios.cost_tables_ms", "ms"),
    ("scenarios.scenario_runs", "count"),
    ("attacks.self_ms", "ms"),
    ("attacks.matrix_ms", "ms"),
    ("attacks.forgery_ms", "ms"),
    *((f"{layer}.errors", "count") for layer in SPANNED_LAYERS),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
]


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class _ByName:
    """Count, total duration, total self time and counters per span name."""

    def __init__(self, spans, selfs):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_total = defaultdict(float)
        self.hashes = defaultdict(int)
        for span, own in zip(spans, selfs):
            self.count[span.name] += 1
            self.total[span.name] += span.end - span.start
            self.self_total[span.name] += own
            self.hashes[span.name] += span.hashes

    def mean_ms(self, name) -> float:
        return 1e3 * self.total[name] / self.count[name] if self.count[name] else 0.0

    def mean_self_ms(self, name) -> float:
        return 1e3 * self.self_total[name] / self.count[name] if self.count[name] else 0.0


def _ancestor(spans, index, name):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None


def _rekey_share(spans) -> float:
    """Share of DORS logins that re-provisioned a spent forest."""
    dors_logins, rekeys = set(), set()
    for index, span in enumerate(spans):
        if span.name in ("dors_auth.dors_handshake", "dors_auth.dors_provision"):
            login = _ancestor(spans, index, "gateway.login")
            if login is not None:
                (dors_logins if span.name.endswith("handshake") else rekeys).add(login)
    return len(rekeys) / len(dors_logins) if dors_logins else 0.0


def _errors_by_layer(spans) -> dict[str, int]:
    """SshafErrors that left a layer: raised out of a span whose parent
    belongs to another layer."""
    out = defaultdict(int)
    for span in spans:
        if not span.error:
            continue
        layer = layer_of(span.name)
        if span.parent is None or layer_of(spans[span.parent].name) != layer:
            out[layer] += 1
    return out


def layer_metrics(spans, selfs, probe: dict, state: dict, overhead_pct: float,
                  cycles: int) -> dict:
    """Per-layer metrics of one traced run of ``cycles`` whole cycles. Times
    and counts are per benchmark operation unless the name says per call,
    per handshake, or per table or matrix."""
    ops = sum(1 for span in spans if span.parent is None)
    per_op = 1.0 / ops if ops else 0.0
    by = _ByName(spans, selfs)
    self_by_layer = defaultdict(float)
    for span, own in zip(spans, selfs):
        self_by_layer[layer_of(span.name)] += own
    hashes = sum(span.hashes for span in spans)
    macs = sum(span.macs for span in spans)
    errors = _errors_by_layer(spans)
    decisions = by.count["gateway.login"] + by.count["gateway.authorize_device_access"]
    handshakes = by.count["merkle_auth.mht_auth_challenge"]
    db_calls = sum(by.count[n] for n in DB_CRYPTO_SPANS)

    values = {
        "primitives.hash_count": hashes * per_op,
        "primitives.mac_count": macs * per_op,
        "primitives.est_ms": (hashes * probe["hash_us"] + macs * probe["mac_us"]) * per_op / 1e3,
        **{f"primitives.{name}": probe[name] for name in PROBE_METRICS},
        **{f"{layer}.self_ms": 1e3 * self_by_layer[layer] * per_op for layer in SPANNED_LAYERS},
        "merkle_auth.handshake_ms": 1e3 * sum(by.total[n] for n in MHT_PHASES) / handshakes
        if handshakes else 0.0,
        "merkle_auth.hashes_per_handshake": sum(by.hashes[n] for n in MHT_PHASES) / handshakes
        if handshakes else 0.0,
        "merkle_auth.history_leaves": state["mht_history_leaves"],
        "merkle_auth.state_bytes": state["mht_state_bytes"],
        "dors_auth.handshake_ms": by.mean_ms("dors_auth.dors_handshake"),
        "dors_auth.provision_ms": by.mean_ms("dors_auth.dors_provision"),
        "dors_auth.rekey_share": _rekey_share(spans),
        "dors_auth.gateway_state_bytes": state["dors_state_bytes"],
        "dhs_auth.login_ms": by.mean_ms("dhs_auth.dhs_login"),
        "dhs_auth.edge_verify_ms": by.mean_ms("dhs_auth.dhs_edge_verify"),
        "dhs_auth.agree_ms": by.mean_ms("dhs_auth.dhs_session_agree"),
        "context_engine.decide_ms": 1e3 * sum(by.total[n] for n in DECISION_SPANS) / decisions
        if decisions else 0.0,
        "context_engine.classify_ms": by.mean_ms("context_engine.classify_access"),
        "gateway.login_self_ms": by.mean_self_ms("gateway.login"),
        "gateway.access_self_ms": by.mean_self_ms("gateway.authorize_device_access"),
        "gateway.encrypt_db_ms": by.mean_ms("gateway.encrypt_db"),
        "gateway.decrypt_db_ms": by.mean_ms("gateway.decrypt_db"),
        "gateway.db_crypto_hashes": sum(by.hashes[n] for n in DB_CRYPTO_SPANS) / db_calls
        if db_calls else 0.0,
        "gateway.db_bytes": state["db_bytes"],
        "gateway.usage_rows": state["usage_rows"],
        "persist.to_dict_ms": by.mean_ms("persist.gateway_state_to_dict"),
        "persist.restore_ms": by.mean_ms("persist.restore_gateway_state"),
        "persist.state_json_bytes": state["state_json_bytes"],
        # Tables 1 and 2, and the attack matrix, are built once per cycle.
        "scenarios.cost_tables_ms": 1e3 * by.total["scenarios.build_cost_table"] / cycles,
        "scenarios.scenario_runs": by.count["scenarios.run_scenario"] * per_op,
        "attacks.matrix_ms": 1e3 * sum(by.total[n] for n in ATTACK_SPANS) / cycles,
        "attacks.forgery_ms": by.mean_ms("attacks.forgery_experiment"),
        **{f"{layer}.errors": errors[layer] * per_op for layer in SPANNED_LAYERS},
        "trace.overhead_pct": overhead_pct,
        "trace.ops": ops,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
