"""JSON serialization of protocol and gateway state.

Used for two things: carrying gateway state across CLI invocations, and
producing the exact persisted bytes the stolen-device adversary captures.
Pending handshake material is ephemeral and excluded unless a capture
explicitly asks for it (that inclusion is the documented attack window).

Fixed-width values are lowercase hex strings. A DORS public forest is
written as one hex string per tree, its t leaf digests concatenated in
leaf order, which is the packed form ``DorsPublicKey.leaf_digests`` holds
in memory. Step-up tokens are written as ``token: [uid, minted_minutes]``.

The CLI's state directory keeps the forests out of ``state.json``: it
calls ``gateway_state_to_dict(gw, with_forests=False)``, which leaves out
each ``leaf_digests``, and stores every forest's f·t·32 digest bytes, tree
after tree, in a file of its own that is written once, when the forest is
provisioned. ``restore_gateway_state`` takes those bytes back by uid. Every
other field, and the whole dict form with the forests, is the same either
way.
"""

from __future__ import annotations

import json

from . import dhs_auth, dors_auth, gateway as gw_mod, merkle_auth
from .context_engine import FactorWeights
from .primitives import DIGEST_LEN, Digest256, Key256, Nonce128


def _digests_to_hex(digests) -> list[str]:
    return [d.hex() for d in digests]


def _digests_from_hex(items) -> list[Digest256]:
    return [Digest256.from_hex(h) for h in items]


# --- merkle_auth ------------------------------------------------------------

def mht_state_to_dict(state, include_pending: bool = False) -> dict:
    data = {
        "uid": state.uid,
        "shared_key": state.shared_key.hex(),
        "txn_counter": state.txn_counter,
        "leaves": _digests_to_hex(state.tree.leaves),
    }
    if include_pending and state.pending is not None:
        pend = {"n_u": state.pending.n_u.hex()}
        n_g = getattr(state.pending, "n_g", None)
        if n_g is not None:
            pend["n_g"] = n_g.hex()
        root = getattr(state.pending, "root", None)
        if root is not None:
            pend["root"] = root.hex()
        data["pending"] = pend
    return data


def mht_user_from_dict(data: dict) -> merkle_auth.MhtUserState:
    return merkle_auth.MhtUserState(
        uid=data["uid"],
        shared_key=Key256.from_hex(data["shared_key"]),
        txn_counter=data["txn_counter"],
        tree=merkle_auth.MerkleTree(_digests_from_hex(data["leaves"])),
    )


def mht_gateway_from_dict(data: dict) -> merkle_auth.MhtGatewayState:
    return merkle_auth.MhtGatewayState(
        uid=data["uid"],
        shared_key=Key256.from_hex(data["shared_key"]),
        txn_counter=data["txn_counter"],
        tree=merkle_auth.MerkleTree(_digests_from_hex(data["leaves"])),
    )


# --- dors_auth ----------------------------------------------------------------

def dors_params_to_dict(params: dors_auth.DorsParams) -> dict:
    return {"t": params.t, "k": params.k, "f": params.f, "r": params.r}


def dors_params_from_dict(data: dict) -> dors_auth.DorsParams:
    return dors_auth.DorsParams(**data)


def chain_to_dict(chain: dors_auth.ChainState) -> dict:
    return {"value": chain.value.hex(), "signature_count": chain.signature_count}


def chain_from_dict(data: dict) -> dors_auth.ChainState:
    return dors_auth.ChainState(Digest256.from_hex(data["value"]), data["signature_count"])


def dors_user_to_dict(side: dors_auth.DorsUserSide) -> dict:
    sk = side.secret_key
    return {
        "uid": side.uid,
        "params": dors_params_to_dict(sk.params),
        "forest_seed": sk.forest_seed.hex(),
        "active_tree": sk.active_tree,
        "used_signatures": sk.used_signatures,
        "revealed": {str(tree): sorted(leaves) for tree, leaves in sk.revealed.items()},
        "chain": chain_to_dict(side.chain),
        "link_key": side.link_key.hex(),
    }


def dors_user_from_dict(data: dict) -> dors_auth.DorsUserSide:
    sk = dors_auth.DorsSecretKey(
        params=dors_params_from_dict(data["params"]),
        forest_seed=Key256.from_hex(data["forest_seed"]),
        active_tree=data["active_tree"],
        used_signatures=data["used_signatures"],
        revealed={int(tree): set(leaves) for tree, leaves in data["revealed"].items()},
    )
    return dors_auth.DorsUserSide(
        uid=data["uid"],
        secret_key=sk,
        chain=chain_from_dict(data["chain"]),
        link_key=Key256.from_hex(data["link_key"]),
    )


def dors_gateway_to_dict(side: dors_auth.DorsGatewaySide, with_forest: bool = True) -> dict:
    """``with_forest=False`` leaves out ``leaf_digests``; the caller then
    keeps ``b"".join(side.public_key.leaf_digests)`` itself."""
    data = {
        "uid": side.uid,
        "params": dors_params_to_dict(side.public_key.params),
        "roots": _digests_to_hex(side.public_key.roots),
        "chain": chain_to_dict(side.chain),
        "link_key": side.link_key.hex(),
    }
    if with_forest:
        data["leaf_digests"] = [tree.hex() for tree in side.public_key.leaf_digests]
    return data


def dors_gateway_from_dict(data: dict, forest: bytes | None = None) -> dors_auth.DorsGatewaySide:
    """The forest comes from ``data["leaf_digests"]`` or, when given, from
    ``forest``: its f·t·32 digest bytes, tree after tree. Raises
    ``ValueError`` unless the forest has exactly f trees of t leaf digests
    and f roots, so a damaged file fails at load, not as a rejected login."""
    params = dors_params_from_dict(data["params"])
    roots = data["roots"]
    size = params.t * DIGEST_LEN
    if forest is None:
        # bytes.fromhex skips whitespace, so the decoded length is checked too.
        trees = [
            bytes.fromhex(tree) if isinstance(tree, str) and len(tree) == 2 * size else b""
            for tree in data["leaf_digests"]
        ]
    else:
        trees = [forest[i : i + size] for i in range(0, len(forest), size)]
    if len(trees) != params.f or len(roots) != params.f or any(len(tree) != size for tree in trees):
        raise ValueError(
            f"a DORS forest needs {params.f} roots and {params.f} trees of {params.t} "
            f"leaf digests, each {2 * size} hex digits or {size} bytes"
        )
    pk = dors_auth.DorsPublicKey(
        params=params,
        leaf_digests=trees,
        roots=_digests_from_hex(roots),
    )
    return dors_auth.DorsGatewaySide(
        uid=data["uid"],
        public_key=pk,
        chain=chain_from_dict(data["chain"]),
        link_key=Key256.from_hex(data["link_key"]),
    )


# --- dhs_auth --------------------------------------------------------------------

def card_to_dict(card: dhs_auth.SmartCardState) -> dict:
    return {
        "uid": card.uid,
        "pw_verifier": card.pw_verifier.hex(),
        "card_salt": card.card_salt.hex(),
        "card_secret": card.card_secret.hex(),
        "current_iid": card.current_iid.iid,
        "failed_attempts": card.failed_attempts,
        "locked": card.locked,
    }


def card_from_dict(data: dict) -> dhs_auth.SmartCardState:
    return dhs_auth.SmartCardState(
        uid=data["uid"],
        pw_verifier=Digest256.from_hex(data["pw_verifier"]),
        card_salt=Nonce128.from_hex(data["card_salt"]),
        card_secret=Key256.from_hex(data["card_secret"]),
        current_iid=dhs_auth.InterfaceIdentifier(data["current_iid"]),
        failed_attempts=data["failed_attempts"],
        locked=data["locked"],
    )


def edge_db_to_dict(db: dict[str, dhs_auth.EdgeEntry]) -> dict:
    """The per-user table alone: exactly what a stolen-database capture sees."""
    return {
        uid: {"current_iid": entry.current_iid.iid, "edge_share": entry.edge_share.hex()}
        for uid, entry in db.items()
    }


def edge_db_from_dict(data: dict) -> dict[str, dhs_auth.EdgeEntry]:
    return {
        uid: dhs_auth.EdgeEntry(
            current_iid=dhs_auth.InterfaceIdentifier(row["current_iid"]),
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
        "uid": wallet.uid,
        "mht": mht_state_to_dict(wallet.mht) if wallet.mht else None,
        "dors": dors_user_to_dict(wallet.dors) if wallet.dors else None,
        "card": card_to_dict(wallet.card) if wallet.card else None,
    }


def wallet_from_dict(data: dict) -> gw_mod.UserWallet:
    return gw_mod.UserWallet(
        uid=data["uid"],
        mht=mht_user_from_dict(data["mht"]) if data["mht"] else None,
        dors=dors_user_from_dict(data["dors"]) if data["dors"] else None,
        card=card_from_dict(data["card"]) if data["card"] else None,
    )


def session_to_dict(session: gw_mod.GatewaySession) -> dict:
    return {
        "session_id": session.session_id,
        "uid": session.uid,
        "scheme": session.scheme,
        "session_key": session.session_key.hex(),
        "confidence": session.confidence,
        "origin": session.origin,
        "established_minutes": session.established_minutes,
        "device_grants": sorted(session.device_grants),
    }


def session_from_dict(data: dict) -> gw_mod.GatewaySession:
    return gw_mod.GatewaySession(
        session_id=data["session_id"],
        uid=data["uid"],
        scheme=data["scheme"],
        session_key=Key256.from_hex(data["session_key"]),
        confidence=data["confidence"],
        origin=data["origin"],
        established_minutes=data["established_minutes"],
        device_grants=set(data["device_grants"]),
    )


def gateway_state_to_dict(gw: gw_mod.Gateway, with_forests: bool = True) -> dict:
    """Runtime state except the user database, which is stored separately
    in its encrypted file. ``with_forests=False`` leaves every DORS public
    forest out (see the module docstring)."""
    return {
        "master_secret": gw.master_secret.hex(),
        "sim_minutes": gw.sim_minutes,
        "weights": gw.weights.as_dict(),
        "devices": {d: {"kind": i.kind, "threshold": i.threshold} for d, i in gw.devices.items()},
        "internet_allowlist": {role: sorted(kinds) for role, kinds in gw.internet_allowlist.items()},
        "mht_registry": {uid: mht_state_to_dict(s) for uid, s in gw.mht_registry.items()},
        "dors_registry": {
            uid: dors_gateway_to_dict(s, with_forests) for uid, s in gw.dors_registry.items()
        },
        "dors_epochs": dict(gw.dors_epochs),
        "edge": edge_server_to_dict(gw.edge),
        "home_registered": sorted(gw.home.registered),
        "wallets": {uid: wallet_to_dict(w) for uid, w in gw.wallets.items()},
        "sessions": {sid: session_to_dict(s) for sid, s in gw.sessions.items()},
        "step_up_tokens": {token: list(minted) for token, minted in gw._step_up_tokens.items()},
        "pending_cards": {uid: card_to_dict(c) for uid, c in gw._pending_cards.items()},
    }


def restore_gateway_state(
    gw: gw_mod.Gateway, data: dict, forests: dict[str, bytes] | None = None
) -> None:
    """``forests``, when given, holds each DORS user's forest bytes by uid,
    for a dict written with ``with_forests=False``."""
    gw.master_secret = Key256.from_hex(data["master_secret"])
    gw.sim_minutes = data["sim_minutes"]
    gw.weights = FactorWeights(**data["weights"])
    gw.devices = {
        d: gw_mod.DeviceInfo(row["kind"], row["threshold"]) for d, row in data["devices"].items()
    }
    gw.internet_allowlist = {role: set(kinds) for role, kinds in data["internet_allowlist"].items()}
    gw.mht_registry = {uid: mht_gateway_from_dict(s) for uid, s in data["mht_registry"].items()}
    gw.dors_registry = {
        uid: dors_gateway_from_dict(s, None if forests is None else forests[uid])
        for uid, s in data["dors_registry"].items()
    }
    gw.dors_epochs = {uid: int(n) for uid, n in data["dors_epochs"].items()}
    gw.edge = edge_server_from_dict(data["edge"])
    gw.home = dhs_auth.HomeServerState(
        master_secret=gw.master_secret, registered=set(data["home_registered"])
    )
    gw.wallets = {uid: wallet_from_dict(w) for uid, w in data["wallets"].items()}
    gw.sessions = {sid: session_from_dict(s) for sid, s in data["sessions"].items()}
    gw._step_up_tokens = {t: (uid, minted) for t, (uid, minted) in data["step_up_tokens"].items()}
    gw._pending_cards = {uid: card_from_dict(c) for uid, c in data["pending_cards"].items()}


def dumps(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
