"""JSON serialization of protocol and gateway state.

Used for two things: carrying gateway state across CLI invocations, and
producing the exact persisted bytes the stolen-device adversary captures.

The gateway's dict holds only what the gateway changes as it runs and
reads back: the master secret, the simulated clock, the MHT and DORS
registries and DORS epochs, the DHS edge table, the issued wallets by uid,
open sessions, step-up tokens and cards awaiting activation. A session
entry holds its id, uid and the minute it was granted: no session key or
scheme, which nothing reads after a restore. The user database has its own
encrypted file, and the home's configuration (devices, access policies,
factor weights, internet allow-list) is code in ``gateway``.
``restore_gateway_state`` reads only the keys it writes, so a key an older
file carries is ignored and is gone after the next save: the configuration
(``weights``, ``devices``, ``internet_allowlist``), ``home_registered``
(always the edge table's uids), a wallet's ``uid``, a DORS signer's
``revealed`` sets, ``active_tree`` and ``used_signatures`` (its chain's
count names its tree), a DORS gateway side's ``roots``, ``dropped`` and
``leaf_digests``, a card's ``locked`` (its ``failed_attempts`` say it), and
a session's ``origin``, ``device_grants``, ``scheme`` and ``session_key``.
Pending handshake material is ephemeral and never written: an MHT run in
flight, its ``n_u``, ``n_g`` and root, is in no entry.

An MHT gateway side writes its whole leaf log as ``leaves``, one hex string
per leaf: Tables 1/2 count that entry as the gateway's storage and the
benchmark reads its leaf count. A user side writes its compact history as
``range``: the latest leaf, then the siblings of that leaf's proof, O(log n)
digests where ``leaves`` took n. The split of ``range`` follows from the leaf
count, ``txn_counter`` + 1, since every completed handshake adds one leaf
and one count. A user side written before the compact form carries
``leaves`` and still loads, rebuilt once from them; the next save writes
``range``. Either side's leaf count must be ``txn_counter`` + 1.

The MHT ``txn_counter``, the DORS counters (``signature_count``,
``dors_epochs``), a DHS card's ``failed_attempts``, the clock
``sim_minutes`` and the minutes a session or step-up token was made load
only from non-negative JSON integers. An older session's ``confidence`` is
ignored. DORS ``params`` load only from JSON integers. Every wallet holds
its MHT part; only its DORS and card parts may be absent, and only JSON
null means absent. Across entries, restore checks that each entry keyed by
a uid or a session id holds that id; that the wallets' parts, the
registries, the DORS epochs and the edge table with its bindings name the
same uids; and that each session and step-up token belongs to a uid with a
wallet.

Fixed-width values are lowercase hex strings. A DHS interface identifier,
``current_iid`` on a card and in the edge table, is 16 hex digits, so its
persisted size does not depend on its value; an integer, the form written
before, still loads. Step-up tokens are written as ``token: [uid,
minted_minutes]``.

A DORS gateway side is written as its uid, params, chain and link key, and
``next_roots``, the roots of the next epoch's trees built ahead during the
last tree, when there are any. ``gateway_state_to_dict(gw)`` also writes its
``trees``: one string per tree of its forest, then one per next root, each
the tree's t leaf digests concatenated in leaf order in hex, the packed
form ``DorsPublicKey.leaf_digests`` holds in memory, or ``""`` for a tree
the side does not hold. The tree-less form, ``with_forests=False``, is what
the CLI's ``state.json`` holds, since the gateway derives every tree from
its own master secret. A side restored from either form holds each tree it
was not given as ``b""`` and, like a live side, no roots of its own
forest, and ``Gateway.run_scheme`` builds the tree a login needs just
before the handshake. Every other entry is the same in either form.
"""

from __future__ import annotations

import json

from . import dhs_auth, dors_auth, gateway as gw_mod, merkle_auth
from .primitives import DIGEST_LEN, Digest256, Key256, Nonce128


def _digests_to_hex(digests) -> list[str]:
    return [d.hex() for d in digests]


def _digests_from_hex(items) -> list[Digest256]:
    return [Digest256.from_hex(h) for h in items]


def _array(items, kind: type) -> list:
    """A JSON array of ``kind`` values; anything else, such as a string
    (whose items are its characters), raises ``ValueError``."""
    if type(items) is not list or not set(map(type, items)) <= {kind}:
        raise ValueError(f"expected an array of {kind.__name__}, got {items!r}")
    return items


def _count(value) -> int:
    """A JSON integer that counts something: not a bool, not negative;
    anything else raises ``ValueError``."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


# --- merkle_auth ------------------------------------------------------------

def mht_state_to_dict(state) -> dict:
    """A gateway side writes its leaf log as ``leaves``, a user side its
    compact history as ``range`` (see the module docstring). A run in
    flight is not written."""
    data = {
        "uid": state.uid,
        "shared_key": state.shared_key.hex(),
        "txn_counter": state.txn_counter,
    }
    if isinstance(state, merkle_auth.MhtGatewayState):
        data["leaves"] = _digests_to_hex(state.leaves)
    else:
        data["range"] = _digests_to_hex(state.history.compact_range())
    return data


def _leaf_log(data: dict) -> list[Digest256]:
    """An entry's ``leaves``, which must be one per completed handshake
    plus the genesis leaf; raises ``ValueError`` otherwise."""
    leaves = _digests_from_hex(_array(data["leaves"], str))
    if len(leaves) != _count(data["txn_counter"]) + 1:
        raise ValueError(f"{len(leaves)} leaves, but txn_counter is {data['txn_counter']}")
    return leaves


def mht_user_from_dict(data: dict) -> merkle_auth.MhtUserState:
    """Reads a ``range``, or the ``leaves`` a user side was written with
    before the compact form."""
    counter = _count(data["txn_counter"])
    if "range" in data:
        history = merkle_auth.MerkleHistory.from_range(
            counter + 1, _digests_from_hex(_array(data["range"], str))
        )
    else:
        history = merkle_auth.MerkleHistory.from_leaves(_leaf_log(data))
    return merkle_auth.MhtUserState(
        uid=data["uid"],
        shared_key=Key256.from_hex(data["shared_key"]),
        txn_counter=counter,
        history=history,
    )


def mht_gateway_from_dict(data: dict) -> merkle_auth.MhtGatewayState:
    leaves = _leaf_log(data)
    return merkle_auth.MhtGatewayState(
        uid=data["uid"],
        shared_key=Key256.from_hex(data["shared_key"]),
        txn_counter=data["txn_counter"],
        history=merkle_auth.MerkleHistory.from_leaves(leaves),
        leaves=leaves,
    )


# --- dors_auth ----------------------------------------------------------------

def dors_params_to_dict(params: dors_auth.DorsParams) -> dict:
    return {"t": params.t, "k": params.k, "f": params.f, "r": params.r}


def dors_params_from_dict(data: dict) -> dors_auth.DorsParams:
    return dors_auth.DorsParams(**data)


def chain_to_dict(chain: dors_auth.ChainState) -> dict:
    return {"value": chain.value.hex(), "signature_count": chain.signature_count}


def chain_from_dict(data: dict) -> dors_auth.ChainState:
    return dors_auth.ChainState(Digest256.from_hex(data["value"]), _count(data["signature_count"]))


def dors_user_to_dict(side: dors_auth.DorsUserSide) -> dict:
    sk = side.secret_key
    return {
        "uid": side.uid,
        "params": dors_params_to_dict(sk.params),
        "forest_seed": sk.forest_seed.hex(),
        "chain": chain_to_dict(side.chain),
        "link_key": side.link_key.hex(),
    }


def dors_user_from_dict(data: dict) -> dors_auth.DorsUserSide:
    return dors_auth.DorsUserSide(
        uid=data["uid"],
        secret_key=dors_auth.DorsSecretKey(
            params=dors_params_from_dict(data["params"]),
            forest_seed=Key256.from_hex(data["forest_seed"]),
        ),
        chain=chain_from_dict(data["chain"]),
        link_key=Key256.from_hex(data["link_key"]),
    )


def dors_gateway_to_dict(side: dors_auth.DorsGatewaySide, with_forest: bool = True) -> dict:
    """``next_roots`` is written only when trees were built ahead, and
    ``trees`` only ``with_forest`` (see the module docstring)."""
    data = {
        "uid": side.uid,
        "params": dors_params_to_dict(side.public_key.params),
        "chain": chain_to_dict(side.chain),
        "link_key": side.link_key.hex(),
    }
    if side.next_forest.roots:
        data["next_roots"] = _digests_to_hex(side.next_forest.roots)
    if with_forest:
        data["trees"] = [tree.hex() for tree in side.public_key.leaf_digests + side.next_forest.leaf_digests]
    return data


def dors_gateway_from_dict(data: dict) -> dors_auth.DorsGatewaySide:
    """Raises ``ValueError`` unless ``next_roots`` holds at most f roots and
    ``trees``, when given, holds f + len(``next_roots``) strings, each empty
    or t leaf digests in hex, so a damaged file fails at load, not as a
    rejected login. A tree not given restores as ``b""``."""
    params = dors_params_from_dict(data["params"])
    next_roots = _digests_from_hex(_array(data.get("next_roots", []), str))
    count, size = params.f + len(next_roots), params.t * DIGEST_LEN
    texts = _array(data.get("trees", [""] * count), str)
    trees = [bytes.fromhex(text) for text in texts]
    # bytes.fromhex skips whitespace, so the decoded length is checked too.
    if len(next_roots) > params.f or len(trees) != count or any(
        text and (len(text), len(tree)) != (2 * size, size) for text, tree in zip(texts, trees)
    ):
        raise ValueError(
            f"a DORS entry needs at most f={params.f} next_roots and {count} trees, "
            f"each empty or {2 * size} hex digits"
        )
    side = dors_auth.DorsGatewaySide(
        uid=data["uid"],
        public_key=dors_auth.DorsPublicKey(params, trees[: params.f], []),
        chain=chain_from_dict(data["chain"]),
        link_key=Key256.from_hex(data["link_key"]),
    )
    side.next_forest.leaf_digests = trees[params.f :]
    side.next_forest.roots = next_roots
    return side


# --- dhs_auth --------------------------------------------------------------------

def _iid_from_json(value) -> dhs_auth.InterfaceIdentifier:
    """A persisted identifier: 16 hex digits, or the JSON integer an older
    file holds; anything else raises ``ValueError``."""
    if type(value) is not str:
        return dhs_auth.InterfaceIdentifier(_count(value))
    # bytes.fromhex skips whitespace, so the decoded length is checked too.
    raw = bytes.fromhex(value)
    if len(value) != 16 or len(raw) != 8:
        raise ValueError(f"expected 16 hex digits, got {value!r}")
    return dhs_auth.InterfaceIdentifier.from_bytes(raw)


def card_to_dict(card: dhs_auth.SmartCardState) -> dict:
    return {
        "uid": card.uid,
        "pw_verifier": card.pw_verifier.hex(),
        "card_salt": card.card_salt.hex(),
        "card_secret": card.card_secret.hex(),
        "current_iid": f"{card.current_iid.iid:016x}",
        "failed_attempts": card.failed_attempts,
    }


def card_from_dict(data: dict) -> dhs_auth.SmartCardState:
    return dhs_auth.SmartCardState(
        uid=data["uid"],
        pw_verifier=Digest256.from_hex(data["pw_verifier"]),
        card_salt=Nonce128.from_hex(data["card_salt"]),
        card_secret=Key256.from_hex(data["card_secret"]),
        current_iid=_iid_from_json(data["current_iid"]),
        failed_attempts=_count(data["failed_attempts"]),
    )


def edge_db_to_dict(db: dict[str, dhs_auth.EdgeEntry]) -> dict:
    """The per-user table alone: exactly what a stolen-database capture sees."""
    return {
        uid: {"current_iid": f"{entry.current_iid.iid:016x}", "edge_share": entry.edge_share.hex()}
        for uid, entry in db.items()
    }


def edge_db_from_dict(data: dict) -> dict[str, dhs_auth.EdgeEntry]:
    return {
        uid: dhs_auth.EdgeEntry(
            current_iid=_iid_from_json(row["current_iid"]),
            edge_share=Key256.from_hex(row["edge_share"]),
        )
        for uid, row in data.items()
    }


def edge_server_to_dict(edge: dhs_auth.EdgeServer) -> dict:
    return {
        "db": edge_db_to_dict(edge.db),
        "bindings": {uid: b.hex() for uid, b in edge.bindings.items()},
    }


def edge_server_from_dict(data: dict) -> dhs_auth.EdgeServer:
    return dhs_auth.EdgeServer(
        db=edge_db_from_dict(data["db"]),
        bindings={uid: Digest256.from_hex(h) for uid, h in data["bindings"].items()},
    )


# --- gateway runtime state ------------------------------------------------------

def wallet_to_dict(wallet: gw_mod.UserWallet) -> dict:
    return {
        "mht": mht_state_to_dict(wallet.mht),
        "dors": dors_user_to_dict(wallet.dors) if wallet.dors else None,
        "card": card_to_dict(wallet.card) if wallet.card else None,
    }


def wallet_from_dict(data: dict) -> gw_mod.UserWallet:
    return gw_mod.UserWallet(
        mht=mht_user_from_dict(data["mht"]),
        dors=None if data["dors"] is None else dors_user_from_dict(data["dors"]),
        card=None if data["card"] is None else card_from_dict(data["card"]),
    )


def session_to_dict(session: gw_mod.GatewaySession) -> dict:
    return {
        "session_id": session.session_id,
        "uid": session.uid,
        "established_minutes": session.established_minutes,
    }


def session_from_dict(data: dict) -> gw_mod.GatewaySession:
    return gw_mod.GatewaySession(
        session_id=data["session_id"],
        uid=data["uid"],
        scheme=None,
        session_key=None,
        established_minutes=_count(data["established_minutes"]),
    )


def gateway_state_to_dict(gw: gw_mod.Gateway, with_forests: bool = True) -> dict:
    """Runtime state except the user database, which is stored separately
    in its encrypted file. ``with_forests=False`` writes every DORS gateway
    side in the tree-less form (see the module docstring)."""
    return {
        "master_secret": gw.master_secret.hex(),
        "sim_minutes": gw.sim_minutes,
        "mht_registry": {uid: mht_state_to_dict(s) for uid, s in gw.mht_registry.items()},
        "dors_registry": {
            uid: dors_gateway_to_dict(s, with_forests) for uid, s in gw.dors_registry.items()
        },
        "dors_epochs": dict(gw.dors_epochs),
        "edge": edge_server_to_dict(gw.edge),
        "wallets": {uid: wallet_to_dict(w) for uid, w in gw.wallets.items()},
        "sessions": {sid: session_to_dict(s) for sid, s in gw.sessions.items()},
        "step_up_tokens": {token: list(minted) for token, minted in gw._step_up_tokens.items()},
        "pending_cards": {uid: card_to_dict(c) for uid, c in gw._pending_cards.items()},
    }


def restore_gateway_state(gw: gw_mod.Gateway, data: dict) -> None:
    """Reads the dict in either form; raises ``ValueError`` unless the
    entries agree (see the module docstring)."""
    gw.master_secret = Key256.from_hex(data["master_secret"])
    gw.sim_minutes = _count(data["sim_minutes"])
    gw.mht_registry = {uid: mht_gateway_from_dict(s) for uid, s in data["mht_registry"].items()}
    gw.dors_registry = {uid: dors_gateway_from_dict(s) for uid, s in data["dors_registry"].items()}
    gw.dors_epochs = {uid: _count(n) for uid, n in data["dors_epochs"].items()}
    gw.edge = edge_server_from_dict(data["edge"])
    gw.wallets = {uid: wallet_from_dict(w) for uid, w in data["wallets"].items()}
    gw.sessions = {sid: session_from_dict(s) for sid, s in data["sessions"].items()}
    gw._step_up_tokens = {
        t: (uid, _count(minted)) for t, (uid, minted) in data["step_up_tokens"].items()
    }
    gw._pending_cards = {uid: card_from_dict(c) for uid, c in data["pending_cards"].items()}
    _check_consistent(gw)


def _check_consistent(gw: gw_mod.Gateway) -> None:
    """Raises ``ValueError`` unless a restored gateway's entries agree, as
    the module docstring lists."""
    parts = {
        name: {uid: getattr(w, name) for uid, w in gw.wallets.items() if getattr(w, name) is not None}
        for name in ("mht", "dors", "card")
    }
    keyed = [*gw.mht_registry.items(), *gw.dors_registry.items(), *gw._pending_cards.items()]
    keyed += [item for held in parts.values() for item in held.items()]
    owners = [s.uid for s in gw.sessions.values()] + [uid for uid, _ in gw._step_up_tokens.values()]
    if not (
        all(entry.uid == uid for uid, entry in keyed)
        and all(session.session_id == sid for sid, session in gw.sessions.items())
        and gw.wallets.keys() == gw.mht_registry.keys()
        and parts["dors"].keys() == gw.dors_registry.keys() == gw.dors_epochs.keys()
        and parts["card"].keys() | gw._pending_cards.keys() == gw.edge.db.keys() == gw.edge.bindings.keys()
        and all(type(uid) is str and uid in gw.wallets for uid in owners)
    ):
        raise ValueError("the entries disagree on uids or session ids")


def dumps(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
