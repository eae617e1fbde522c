package campaign

import (
	"fmt"
	"net"
	"strings"

	"repro/internal/api"
	"repro/internal/sim"
)

// The distributed campaign protocol. A coordinator (Dispatcher) serves
// a job board over HTTP; workers attach to it and then *pull*: each
// worker leases one job at a time, heartbeats while simulating, and
// completes with the canonical metrics payload plus the job's cache
// key. The coordinator owns all campaign state — workers are stateless
// between jobs, so losing one costs at most its in-flight leases,
// which expire and are reassigned.
//
// Board endpoints (served by the coordinator, called by workers):
//
//	POST /lease     -> leaseResponse | 204 (nothing to hand out) | 410 (board over)
//	POST /heartbeat -> 200 (extended) | 410 (lease revoked or board over)
//	POST /complete  -> 200 | 410 (lease revoked; result discarded)
//
// Worker endpoints (served by mmmd -worker, called by coordinators):
//
//	POST /v1/attach -> attachResponse | 409 (incompatible build)
//	GET  /healthz
//
// protoVersion gates the wire format; protocolCheck() additionally
// folds in the simulator's SpecVersion and RNG stream digest so two
// *compatible wire formats* around *incompatible simulators* still
// refuse to mix — a silent mix would break the byte-identical
// determinism guarantee of sharded campaigns.
//
// v2: the wire bodies are the typed internal/api structs, wave jobs
// (Knobs.Wave/TrialOffset) exist on the wire, and the worker's attach
// endpoint is POST /v1/attach. A v1 peer would run wave jobs as plain
// batches — silently wrong trials — so mixed fleets are refused.
const protoVersion = 2

// protocolCheck is the compatibility token exchanged at attach and
// lease time.
func protocolCheck() string {
	return fmt.Sprintf("p%d.s%d.%s", protoVersion, SpecVersion, sim.StreamCheck())
}

// explainCheckMismatch names WHICH component of two protocolCheck
// tokens disagrees — the wire protoVersion, the campaign SpecVersion,
// or the RNG stream digest — so a refused attach/lease says what to
// upgrade instead of dumping two opaque tokens. Unparseable tokens
// (e.g. from a build predating the format) fall back to quoting both.
func explainCheckMismatch(ours, theirs string) string {
	op, os, od, ok1 := splitCheck(ours)
	tp, ts, td, ok2 := splitCheck(theirs)
	if !ok1 || !ok2 {
		return fmt.Sprintf("unrecognized check format: ours %q, theirs %q", ours, theirs)
	}
	switch {
	case op != tp:
		return fmt.Sprintf("wire protocol version mismatch: ours %s, theirs %s (checks %q vs %q)", op, tp, ours, theirs)
	case os != ts:
		return fmt.Sprintf("campaign SpecVersion mismatch: ours %s, theirs %s (checks %q vs %q)", os, ts, ours, theirs)
	case od != td:
		return fmt.Sprintf("RNG stream digest mismatch: ours %s, theirs %s — simulator builds differ", od, td)
	default:
		return fmt.Sprintf("checks match (%q); refusal is spurious", ours)
	}
}

// splitCheck parses "p<proto>.s<spec>.<digest>".
func splitCheck(c string) (proto, spec, digest string, ok bool) {
	parts := strings.SplitN(c, ".", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[0], "p") || !strings.HasPrefix(parts[1], "s") {
		return "", "", "", false
	}
	return parts[0][1:], parts[1][1:], parts[2], true
}

// The wire bodies are the exported internal/api types; the aliases
// keep the board/worker implementation reading naturally while the
// api package owns the single definition every process serializes.
type (
	attachRequest    = api.AttachRequest
	attachResponse   = api.AttachResponse
	leaseRequest     = api.LeaseRequest
	leaseResponse    = api.LeaseResponse
	heartbeatRequest = api.HeartbeatRequest
	completeRequest  = api.CompleteRequest
	boardStatus      = api.BoardStatus
)

// NormalizeWorkerURL turns a -workers flag element (host:port or a
// full URL) into a worker base URL.
func NormalizeWorkerURL(s string) string {
	s = strings.TrimRight(strings.TrimSpace(s), "/")
	if s == "" {
		return ""
	}
	if strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://") {
		return s
	}
	return "http://" + s
}

// CoordinatorAddr resolves a -coordinator flag into a job-board
// listen address. The board's advertised URL is derived from the
// bound listener, so the flag's host decides what workers are told to
// dial: "" keeps the loopback default (single-machine fleets), a bare
// host (including an IPv6 literal like "2001:db8::1") binds that
// interface with an ephemeral port — the right form for cross-host
// fleets, where concurrent campaigns each get their own port — and an
// explicit "host:port" / "[v6]:port" is used verbatim.
func CoordinatorAddr(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return "127.0.0.1:0"
	}
	if _, _, err := net.SplitHostPort(s); err == nil {
		return s
	}
	return net.JoinHostPort(s, "0")
}

// ParseWorkerList splits a comma-separated -workers flag into worker
// base URLs, dropping empty elements.
func ParseWorkerList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if u := NormalizeWorkerURL(part); u != "" {
			out = append(out, u)
		}
	}
	return out
}
