package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mode"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildPolicySystem constructs a system running a named mode policy.
func buildPolicySystem(t *testing.T, kind Kind, policy string, timeslice sim.Cycle) *Chip {
	t.Helper()
	wl, err := workload.ByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.TimesliceCycles = timeslice
	chip, err := NewSystem(Options{Cfg: cfg, Kind: kind, Workload: wl, Seed: 11, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// TestPolicyNameValidation: an unknown policy is rejected at system
// construction, not at the first decision.
func TestPolicyNameValidation(t *testing.T) {
	wl, _ := workload.ByName("apache")
	if _, err := NewSystem(Options{Kind: KindReunion, Workload: wl, Policy: "nope"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	chip, err := NewSystem(Options{Kind: KindReunion, Workload: wl, Policy: "duty-cycle:40000:50"})
	if err != nil {
		t.Fatal(err)
	}
	if chip.PolicyName() != "duty-cycle:40000:50" {
		t.Fatalf("PolicyName = %q", chip.PolicyName())
	}
}

// TestPolicyDecisionDuringTransitionDropped: a policy decision that
// arrives while a pair's mode transition is still in flight must not
// clobber the transition — the pair is skipped (keeping its previous
// target) and the in-flight state machine runs to completion. The
// duty-cycle boundaries here are shorter than an Enter-DMR transition,
// so decisions land mid-flight constantly.
func TestPolicyDecisionDuringTransitionDropped(t *testing.T) {
	chip := buildPolicySystem(t, KindReunion, "duty-cycle:3000:50", 60_000)
	dropped := 0
	var inflight [8]*transition
	for i := 0; i < 60_000; i++ {
		due := chip.polNextAt <= chip.Now
		copy(inflight[:], chip.trans)
		chip.Tick()
		if !due {
			continue
		}
		for pi, tr := range inflight {
			if tr == nil {
				continue
			}
			dropped++
			if chip.trans[pi] != tr && chip.trans[pi] != nil {
				t.Fatalf("cycle %d: pair %d's in-flight transition was replaced by a policy decision", i, pi)
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no decision landed during a transition; shrink the duty period so the edge is exercised")
	}
	// The chip must still be making progress afterwards.
	chip.ResetMeasurement()
	chip.Run(30_000)
	if m := chip.Collect(30_000); m.TotalThroughput() == 0 {
		t.Fatal("chip wedged after dropped decisions")
	}
}

// TestFaultEscalationRetriesDroppedDecision: an escalation event that
// lands while the pair's transition machinery is busy is dropped by
// the chip; the policy's retry timer must re-issue it until the pair
// actually couples.
func TestFaultEscalationRetriesDroppedDecision(t *testing.T) {
	chip := buildPolicySystem(t, KindMMMIPC, "fault-escalation", 5_000)
	// Tick until some pair is mid-transition (the 5k timeslice rotates
	// constantly and transitions cost thousands of cycles).
	pi := -1
	for i := 0; i < 50_000 && pi < 0; i++ {
		chip.Tick()
		for p, tr := range chip.trans {
			if tr != nil {
				pi = p
				break
			}
		}
	}
	if pi < 0 {
		t.Fatal("no transition ever started")
	}
	before := chip.curAsg[pi]
	chip.policyFault(mode.EvPABException, pi, chip.Now)
	if chip.curAsg[pi] != before {
		t.Fatalf("decision for a busy pair was applied immediately: %+v -> %+v", before, chip.curAsg[pi])
	}
	// Within the retry interval plus a transition's worth of cycles,
	// the re-issued decision must land: the pair's target assignment
	// carries the escalation override.
	coupled := false
	for i := 0; i < 60_000 && !coupled; i++ {
		chip.Tick()
		coupled = chip.curAsg[pi].Override == mode.OverrideCouple
	}
	if !coupled {
		t.Fatal("escalation dropped during a transition was never re-issued")
	}
}

// TestGroupSwitchRacesHookTransition: on a single-OS system the trap
// hooks start transitions from inside a core's Tick while the policy's
// timer decisions fire at duty boundaries — the two sources race on
// the same pairs, and the bulk-stepping Run must agree with per-cycle
// Tick exactly (the transDirty path). Fault-free variant of the
// equivalence test, with boundaries tight enough to interleave with
// per-trap switching.
func TestGroupSwitchRacesHookTransition(t *testing.T) {
	const warmup, measure = 20_000, 120_000
	build := func() *Chip {
		return buildPolicySystem(t, KindSingleOS, "duty-cycle:4000:50", 15_000)
	}
	fast := build()
	mFast := fast.Measure(warmup, measure)

	slow := build()
	for i := 0; i < warmup; i++ {
		slow.Tick()
	}
	slow.ResetMeasurement()
	start := slow.Now
	for i := 0; i < measure; i++ {
		slow.Tick()
	}
	mSlow := slow.Collect(slow.Now - start)

	if !reflect.DeepEqual(mFast, mSlow) {
		t.Errorf("hook/policy race diverged between Run and Tick:\nfast: %+v\nslow: %+v", mFast, mSlow)
	}
	if mFast.EnterN == 0 {
		t.Fatal("no transitions at all; the race was not exercised")
	}
}

// TestParseKindRoundTrip: every kind's String form parses back to the
// kind, case-insensitively, as do the CLI aliases; unknown names list
// the valid ones.
func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	aliases := map[string]Kind{
		"no-dmr-2x": KindNoDMR2X, "no-dmr": KindNoDMR, "reunion": KindReunion,
		"dmr-base": KindDMRBase, "mmm-ipc": KindMMMIPC, "MMM-TP": KindMMMTP,
		"single-os": KindSingleOS, "SingleOS": KindSingleOS,
	}
	for s, want := range aliases {
		if got, err := ParseKind(s); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestKindJSONRoundTrip: kinds marshal by name and unmarshal from the
// name only; the pre-v4 integer form is refused.
func TestKindJSONRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		data, err := k.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalJSON(data); err != nil || back != k {
			t.Errorf("round trip %v via %s: %v, %v", k, data, back, err)
		}
	}
	var legacy Kind
	if err := legacy.UnmarshalJSON([]byte("4")); err == nil ||
		!strings.Contains(err.Error(), "MMM-IPC") {
		t.Errorf("legacy integer form: err %v, want a refusal naming the valid kinds", err)
	}
	if err := legacy.UnmarshalJSON([]byte("99")); err == nil {
		t.Error("out-of-range integer accepted")
	}
	if _, err := Kind(99).MarshalJSON(); err == nil {
		t.Error("unknown kind marshaled")
	}
}
