"""Scenario execution and cost metering.

A scenario is a small JSON document: which link, which scheme, which
contextual factors get collected, how many sessions. Runs are fully
deterministic in the config seed; reports carry exact hash/mac/byte
counters plus the modelled elapsed milliseconds. The generated tables
reproduce the structural orderings of the evaluation (no-authentication
row minimal, integrated factor sets no costlier than the sum of their
parts) rather than any hardware-bound absolute numbers.
"""

from __future__ import annotations

import csv
import io

from .. import dhs_auth, dors_auth, merkle_auth, persist
from ..context_engine import (
    FACTORS,
    IP_HOME,
    IP_KNOWN,
    ORIGIN_INTERNET,
    ORIGIN_LOCAL,
    SCHEME_DHS,
    SCHEME_DORS,
    SCHEME_MHT,
    AccessPolicy,
    ContextSnapshot,
    FactorWeights,
    decide_access,
    evaluate_factor,
    score_confidence,
)
from ..errors import ScriptError
from ..primitives import METER, Key256, Nonce128, RandomSource
from .simnet import (
    LINK_INTERNET,
    LINK_LOCAL,
    MessageDropped,
    MetricsReport,
    SimClock,
    SimConfig,
    SimLink,
    Transcript,
    TranscriptEvent,
)

SCHEME_NONE = "none"
_SCHEMES = (SCHEME_MHT, SCHEME_DORS, SCHEME_DHS, SCHEME_NONE)

USER = "user"
GATEWAY = "gateway"

LOGIN_THRESHOLD = AccessPolicy(threshold=0.5)


# --- wire-level protocol runners --------------------------------------------
# Every message crosses the link as encoded bytes and is decoded on the far
# side, so the byte counters measure the real wire formats.

def run_mht_over_link(link, user_state, registry, src):
    m1 = merkle_auth.mht_auth_initiate(user_state, src)
    m1_wire = link.send(USER, GATEWAY, m1.encode())
    m2 = merkle_auth.mht_auth_challenge(registry, merkle_auth.MhtM1.decode(m1_wire), src)
    m2_wire = link.send(GATEWAY, USER, m2.encode())
    m3 = merkle_auth.mht_auth_respond(user_state, merkle_auth.MhtM2.decode(m2_wire))
    m3_wire = link.send(USER, GATEWAY, m3.encode())
    m4, gw_key = merkle_auth.mht_auth_finalize(
        registry, user_state.uid, merkle_auth.MhtM3.decode(m3_wire)
    )
    m4_wire = link.send(GATEWAY, USER, m4.encode())
    user_key = merkle_auth.mht_confirm(user_state, merkle_auth.MhtM4.decode(m4_wire))
    return user_key, gw_key


def run_dors_over_link(link, user_side, gateway_side, src):
    challenge = dors_auth.dors_challenge(src)
    challenge_wire = link.send(GATEWAY, USER, challenge.bytes)
    sig, user_key = dors_auth.dors_respond(user_side, Nonce128(challenge_wire))
    sig_wire = link.send(USER, GATEWAY, sig.encode())
    decoded = dors_auth.DorsSignature.decode(sig_wire, gateway_side.public_key.params)
    gw_key = dors_auth.dors_gateway_verify(gateway_side, challenge, decoded)
    return user_key, gw_key


def run_dhs_over_link(link, card, edge, password, src):
    request = dhs_auth.dhs_login(card, card.uid, password, src)
    request_wire = link.send(USER, GATEWAY, request.encode())
    challenge = dhs_auth.dhs_edge_verify(edge, request_wire, src)
    challenge_wire = link.send(GATEWAY, USER, challenge.encode())
    confirm, card_key = dhs_auth.dhs_card_confirm(card, dhs_auth.Challenge.decode(challenge_wire))
    confirm_wire = link.send(USER, GATEWAY, confirm.encode())
    ack, edge_key = dhs_auth.dhs_edge_complete(edge, dhs_auth.ConfirmMessage.decode(confirm_wire))
    ack_wire = link.send(GATEWAY, USER, ack.encode())
    dhs_auth.dhs_card_finish(
        card, dhs_auth.Challenge.decode(challenge_wire), dhs_auth.AckMessage.decode(ack_wire), card_key
    )
    return card_key, edge_key


# --- scenario world -----------------------------------------------------------

class ScenarioWorld:
    """One user provisioned for the scenario's scheme, built fresh per
    scenario from a forked seed.

    MHT and DHS are always provisioned, so the seeded stream is read the
    same way whatever the scheme. The DORS forest reads no randomness and
    is by far the costliest to expand, so only a DORS scenario builds it.
    """

    UID = "alice"
    PASSWORD = "scenario-pass"

    def __init__(self, src: RandomSource, scheme: str):
        self.src = src
        self.master = Key256(src.read(32))
        self.mht_registry: dict[str, merkle_auth.MhtGatewayState] = {}
        self.mht_user, _ = merkle_auth.mht_register(self.mht_registry, self.UID, self.master)
        if scheme == SCHEME_DORS:
            self.dors_user, self.dors_gateway = dors_auth.dors_provision(self.UID, self.master)
        self.home = dhs_auth.dhs_initialize(src)
        self.edge = dhs_auth.EdgeServer()
        self.card = dhs_auth.dhs_register(self.home, self.edge, self.UID, self.PASSWORD, src)

    def run_scheme(self, scheme: str, link) -> None:
        if scheme == SCHEME_MHT:
            run_mht_over_link(link, self.mht_user, self.mht_registry, self.src)
        elif scheme == SCHEME_DORS:
            run_dors_over_link(link, self.dors_user, self.dors_gateway, self.src)
        elif scheme == SCHEME_DHS:
            run_dhs_over_link(link, self.card, self.edge, self.PASSWORD, self.src)

    def persisted_state_bytes(self, scheme: str) -> bytes:
        """Gateway-side long-term state for the scheme, as persisted."""
        if scheme == SCHEME_MHT:
            return persist.dumps(persist.mht_state_to_dict(self.mht_registry[self.UID]))
        if scheme == SCHEME_DORS:
            return persist.dumps(persist.dors_gateway_to_dict(self.dors_gateway))
        if scheme == SCHEME_DHS:
            return persist.dumps(persist.edge_server_to_dict(self.edge))
        return b""


# --- scenario scripts -----------------------------------------------------------

def validate_script(script: dict) -> dict:
    if not isinstance(script, dict):
        raise ScriptError("script must be a JSON object")
    unknown = set(script) - {"name", "link", "scheme", "factors", "sessions"}
    if unknown:
        raise ScriptError(f"unknown script fields: {sorted(unknown)}")
    name = script.get("name")
    if not name or not isinstance(name, str):
        raise ScriptError("script needs a name")
    link = script.get("link", LINK_LOCAL)
    if link not in (LINK_LOCAL, LINK_INTERNET):
        raise ScriptError(f"bad link {link!r}")
    scheme = script.get("scheme", SCHEME_NONE)
    if scheme not in _SCHEMES:
        raise ScriptError(f"bad scheme {scheme!r}")
    factors = script.get("factors", [])
    if not isinstance(factors, list) or any(f not in FACTORS for f in factors):
        raise ScriptError(f"bad factors {factors!r}")
    sessions = script.get("sessions", 1)
    if not isinstance(sessions, int) or sessions < 1:
        raise ScriptError(f"sessions must be a positive integer, got {sessions!r}")
    return {"name": name, "link": link, "scheme": scheme, "factors": list(factors), "sessions": sessions}


def _scenario_snapshot(factors: list[str], link: str) -> ContextSnapshot:
    """The context the collected factors would report when satisfied."""
    remote = link == LINK_INTERNET
    return ContextSnapshot(
        uid=ScenarioWorld.UID,
        origin=ORIGIN_INTERNET if remote else ORIGIN_LOCAL,
        ip_class=IP_KNOWN if remote else IP_HOME,
        bluetooth_present="bluetooth" in factors and not remote,
        timestamp=10 * 60,
        calendar_claims_present="calendar" in factors,
        credentials_ok="credentials" in factors,
    )


def run_scenario(config: SimConfig, script: dict) -> tuple[Transcript, MetricsReport]:
    """Execute one scenario deterministically and meter it."""
    spec = validate_script(script)
    name, link_name, scheme, factors = spec["name"], spec["link"], spec["scheme"], spec["factors"]

    scenario_src = RandomSource.seeded(config.seed).fork(f"scenario:{name}:{link_name}")
    drop_stream = RandomSource.seeded(config.seed).fork(f"drops:{name}:{link_name}")
    world = ScenarioWorld(scenario_src.fork("world"), scheme)
    clock = SimClock()
    transcript = Transcript()
    link = SimLink(config, link_name, clock, transcript, drop_stream)

    METER.reset()
    outcome = "completed"
    try:
        for _ in range(spec["sessions"]):
            # Base service exchange: the request that authentication gates.
            link.send(USER, GATEWAY, b"service-request")
            for factor in factors:
                clock.advance(config.factor_cost_ms[factor])
                transcript.add(
                    TranscriptEvent(
                        clock.now_ms, GATEWAY, "context", f"collect:{factor}".encode(), "collected"
                    )
                )
            world.run_scheme(scheme, link)
            if scheme == SCHEME_NONE:
                decision = "grant"
            else:
                snapshot = _scenario_snapshot(factors, link_name)
                scores = {f: evaluate_factor(snapshot, f) for f in factors}
                confidence = score_confidence(scores, FactorWeights())
                decision = decide_access(confidence, LOGIN_THRESHOLD)
            link.send(GATEWAY, USER, f"service-reply:{decision}".encode())
    except MessageDropped:
        outcome = "aborted:drop"

    hashes, macs = METER.snapshot()
    report = MetricsReport(
        scenario=name,
        link=link_name,
        scheme=scheme,
        factors=tuple(factors),
        elapsed_ms=clock.now_ms,
        hash_count=hashes,
        mac_count=macs,
        wire_bytes=link.wire_bytes,
        messages=link.messages,
        storage_bits=len(world.persisted_state_bytes(scheme)) * 8,
        outcome=outcome,
    )
    return transcript, report


def measure_costs(scheme: str, factors: list[str], config: SimConfig, link: str | None = None) -> MetricsReport:
    """One table cell: a single session of `scheme` with `factors`."""
    link = link or config.link
    script = {
        "name": f"{scheme}-{'+'.join(factors) if factors else 'none'}",
        "link": link,
        "scheme": scheme,
        "factors": factors,
        "sessions": 1,
    }
    _, report = run_scenario(config, script)
    return report


# --- evaluation tables -------------------------------------------------------------

TABLE1_ROWS = [
    ("Proximity (Bluetooth-based location)", ["bluetooth"]),
    ("Access of Calendar", ["calendar"]),
    ("Network (IP address-based location)", ["ip_location"]),
    ("Username and password (knowledge-based credentials)", ["credentials"]),
    ("No authentication", []),
]

TABLE2_ROWS = [
    ("Bluetooth and IP Address-based location", ["bluetooth", "ip_location"]),
    (
        "Bluetooth and IP Address-based location with access of Calendar",
        ["bluetooth", "ip_location", "calendar"],
    ),
    (
        "Bluetooth and IP Address-based location with access of Calendar and "
        "knowledge-based credentials",
        ["bluetooth", "ip_location", "calendar", "credentials"],
    ),
    ("No authentication", []),
]


def _row_scheme(factors: list[str], link: str) -> str:
    if not factors:
        return SCHEME_NONE
    return SCHEME_DHS if link == LINK_INTERNET else SCHEME_MHT


def build_cost_table(rows, config: SimConfig) -> list[dict]:
    """Internet and local access columns for each factor row, in the
    two-column layout of the evaluation tables, plus the exact counters."""
    table = []
    for label, factors in rows:
        cells = {}
        for link in (LINK_INTERNET, LINK_LOCAL):
            report = measure_costs(_row_scheme(factors, link), factors, config, link)
            cells[link] = report
        table.append(
            {
                "parameter": label,
                "factors": list(factors),
                "internet_access_ms": cells[LINK_INTERNET].elapsed_ms,
                "local_access_ms": cells[LINK_LOCAL].elapsed_ms,
                "internet_report": cells[LINK_INTERNET],
                "local_report": cells[LINK_LOCAL],
            }
        )
    return table


def cost_table_to_csv(table: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["Utilized parameter", "Internet access time (ms)", "Local access time (ms)"])
    for row in table:
        writer.writerow([row["parameter"], row["internet_access_ms"], row["local_access_ms"]])
    return out.getvalue()


def metrics_to_csv(reports: list[MetricsReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(MetricsReport.COLUMNS)
    for report in reports:
        writer.writerow(report.as_row())
    return out.getvalue()
