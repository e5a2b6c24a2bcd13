"""Outside-in tracing of one dp2guard experiment.

`Tracer.install()` replaces public callables of the dp2guard modules with
wrappers that record a span (id, name, parent, start, end, round) around
each call.  Every name is patched where the caller looks it up: `harness`
binds `substream`, `partition` and `encode_share_upload` by name, and
`servers` binds `detect` and `update_trust` by name, so patching only the
defining module would miss those calls.  The server's `detect` and the
fang oracle's `defense.detect` get distinct span names for that reason.

The round loop has no callable of its own, so a round span is opened when
`RunResult` is built (just before the first round) and closed when each
round's `RoundMetrics` is built; the span left open after the last round is
dropped.  Spans stay in memory until `write_jsonl`.

Nothing here is imported by an untraced run.
"""
from __future__ import annotations

import functools
import json
import time
from pathlib import Path

ROUND = "harness.round"

# Spans whose total time and call count are reported as per-layer metrics.
TIMED = (
    "client.local_gradient",
    "client.split_and_mask",
    "servers.encode_share_upload",
    "servers.channel_send",
    "servers.receive_share",
    "servers.center_shares",
    "servers.receive_centered_batch",
    "servers.publish",
    "servers.finalize",
    "numeric.substream",
    "defense.detect.server",
    "defense.detect.oracle",
    "defense.top_direction",
    "defense.median_cosines",
    "defense.cluster_and_select",
    "attacks.craft",
    "attacks.oracle",
    "baselines.krum_scores",
    "ledger.append",
    "ledger.read_round",
    "trust.update",
    "models.accuracy",
    "data.load",
    "data.partition",
)
COUNTED = (
    "client.local_gradient",
    "client.split_and_mask",
    "servers.channel_send",
    "numeric.substream",
    "defense.detect.oracle",
    "attacks.oracle",
)
# Channel edges by (source prefix, destination).
EDGES = {
    "client_to_s": ("client", ("S1", "S2")),
    "s1_to_s2": ("S1", ("S2",)),
    "ledger_to_s1": ("ledger", ("S1",)),
    "s1_to_clients": ("S1", ("clients",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent, start, end, round]
        self.stack: list[int] = []
        self.round_no: int | None = None
        self.edge_bytes = dict.fromkeys(EDGES, 0)
        self.oracle_accepts = 0
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, parent, time.perf_counter(), None, self.round_no])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} is open")

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    # --- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from dp2guard import attacks, baselines, client, defense, harness, ledger, models, servers

        plain = [
            (harness, "load_datasets", "data.load"),
            (harness, "partition", "data.partition"),
            (harness, "substream", "numeric.substream"),
            (harness, "encode_share_upload", "servers.encode_share_upload"),
            (client, "local_gradient", "client.local_gradient"),
            (client, "split_and_mask", "client.split_and_mask"),
            (servers.ServerS1, "receive_share", "servers.receive_share"),
            (servers.ServerS2, "receive_share", "servers.receive_share"),
            (servers.ServerS1, "center_shares", "servers.center_shares"),
            (servers.ServerS2, "receive_centered_batch", "servers.receive_centered_batch"),
            (servers.ServerS2, "publish", "servers.publish"),
            (servers.ServerS1, "finalize", "servers.finalize"),
            (servers, "detect", "defense.detect.server"),
            (servers, "update_trust", "trust.update"),
            (defense, "detect", "defense.detect.oracle"),
            (defense, "top_direction", "defense.top_direction"),
            (defense, "median_cosines", "defense.median_cosines"),
            (defense, "cluster_and_select", "defense.cluster_and_select"),
            (attacks, "minmax_attack", "attacks.craft"),
            (attacks, "minsum_attack", "attacks.craft"),
            (baselines, "krum_scores", "baselines.krum_scores"),
            (ledger.Ledger, "append", "ledger.append"),
            (ledger.Ledger, "read_round", "ledger.read_round"),
            (models.Model, "accuracy", "models.accuracy"),
        ]
        for owner, attr, name in plain:
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))

        header = len(servers.encode_message(servers.ProtocolMessage(1, 0, 0, b"")))
        send = self.wrap(servers.Channel.send, "servers.channel_send")

        def channel_send(channel, src, dst, msg):
            for edge, (prefix, dsts) in EDGES.items():
                if src.startswith(prefix) and dst in dsts:
                    self.edge_bytes[edge] += header + len(msg.payload)
            return send(channel, src, dst, msg)
        self._patch(servers.Channel, "send", channel_send)

        craft = self.wrap(attacks.fang_attack, "attacks.craft")

        def fang_attack(benign, spec, accept):
            timed_accept = self.wrap(accept, "attacks.oracle")

            def counted(candidate):
                ok = timed_accept(candidate)
                self.oracle_accepts += bool(ok)
                return ok
            return craft(benign, spec, counted)
        self._patch(attacks, "fang_attack", fang_attack)

        run_result, round_metrics = harness.RunResult, harness.RoundMetrics

        def start_rounds(*args, **kwargs):
            out = run_result(*args, **kwargs)
            self.round_no = 0
            self.open(ROUND)
            return out

        def end_round(*args, **kwargs):
            self.close(self.stack[-1])
            out = round_metrics(*args, **kwargs)
            self.round_no += 1
            self.open(ROUND)
            return out
        self._patch(harness, "RunResult", start_rounds)
        self._patch(harness, "RoundMetrics", end_round)

    def uninstall(self) -> None:
        """Restore every patched name and drop spans left open (the round
        span opened after the last round)."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        for sid in self.stack:
            self.spans[sid][4] = None
        self.stack.clear()
        self.spans = [s for s in self.spans if s[4] is not None]

    # --- output -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Total seconds and calls per span name, round self time, channel
        bytes per edge and the fang oracle's acceptance ratio."""
        total = dict.fromkeys(TIMED, 0.0)
        calls = dict.fromkeys(TIMED, 0)
        child_time: dict[int, float] = {}
        for sid, name, parent, start, end, _ in self.spans:
            if name in total:
                total[name] += end - start
                calls[name] += 1
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        self_s = sum(end - start - child_time.get(sid, 0.0)
                     for sid, name, _, start, end, _ in self.spans if name == ROUND)
        out: dict[str, float] = {f"{name}.s": total[name] for name in TIMED}
        out.update({f"{name}.calls": calls[name] for name in COUNTED})
        out["harness.round.self_s"] = self_s
        out["attacks.oracle.accept_ratio"] = (
            self.oracle_accepts / calls["attacks.oracle"] if calls["attacks.oracle"] else 0.0)
        out.update({f"servers.bytes.{edge}": n for edge, n in self.edge_bytes.items()})
        out["trace.spans"] = len(self.spans)
        return out

    def write_jsonl(self, path: Path) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, start, end, round_no in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent,
                                     "round": round_no, "start": start - origin,
                                     "end": end - origin}) + "\n")
