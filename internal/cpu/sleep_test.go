package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/sim"
)

// fakeGate is a Check stage whose partner always matches: instruction
// seq may commit lat cycles after it executed. Like reunion.Pair it
// counts every poll of an executed instruction as one check and one
// fingerprint sent. It does not implement gateSleeper, so a core
// behind it polls every cycle.
type fakeGate struct {
	lat          sim.Cycle
	done         map[uint64]sim.Cycle
	checks, sent uint64
}

func newFakeGate(lat sim.Cycle) *fakeGate {
	return &fakeGate{lat: lat, done: make(map[uint64]sim.Cycle)}
}

func (g *fakeGate) Complete(side int, seq uint64, done sim.Cycle, fp uint64) { g.done[seq] = done }

func (g *fakeGate) CommitReady(side int, seq uint64, now sim.Cycle) (sim.Cycle, bool) {
	d, ok := g.done[seq]
	if !ok {
		return 0, false
	}
	g.checks++
	g.sent++
	return d + g.lat, true
}

// sleepyGate adds the gateSleeper extension to a fakeGate.
type sleepyGate struct{ *fakeGate }

func (g sleepyGate) CheckSleep(side int, seq uint64) (sim.Cycle, int) {
	d, ok := g.done[seq]
	if !ok {
		return 0, CheckNoSleep
	}
	return d + g.lat, CheckWaitRelease
}

func (g sleepyGate) CreditWait(n uint64) {
	g.checks += n
	g.sent += n
}

// TestCheckedStoreSleepsUntilWriteThrough: a DMR core whose head store
// has passed its check but waits on its SC write-through sleeps until
// the write completes, and the slept cycles replay exactly the
// counters — the core's and the gate's — of the per-cycle walk.
func TestCheckedStoreSleepsUntilWriteThrough(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 24; i++ {
		insts = append(insts,
			isa.Inst{Class: isa.Store, VA: 0x2000_0000 + uint64(i)*64},
			isa.Inst{Class: isa.ALU},
			isa.Inst{Class: isa.ALU})
	}
	const cycles = 6_000
	newCore := func(g Gate) *Core {
		cfg, h, sp := testRig(t, 2)
		c := New(0, cfg, h)
		c.SetSpace(sp)
		c.SetSource(script(insts...))
		c.SetGate(g, 0)
		return c
	}

	sleepy := newFakeGate(3)
	c := newCore(sleepyGate{sleepy})
	armed, toStore := 0, 0
	for now := sim.Cycle(0); now < cycles; now++ {
		asleep := now < c.sleepUntil
		c.Tick(now)
		if asleep || c.sleepFC == 0 || c.sleepUntil <= now {
			continue
		}
		e := &c.win[c.head]
		if e.inst.Class != isa.Store || !e.storeIssued {
			t.Fatalf("cycle %d: check-passed sleep armed on a %v head", now, e.inst.Class)
		}
		// Issue or fetch may bound the sleep earlier; nothing may
		// extend it past the write.
		if c.sleepUntil > e.storeDone {
			t.Fatalf("cycle %d: sleepUntil = %d, past the store's completion %d", now, c.sleepUntil, e.storeDone)
		}
		if c.sleepUntil == e.storeDone {
			toStore++
		}
		if c.sleepSS != 1 || c.sleepCW != 0 || !c.sleepCredit {
			t.Fatalf("cycle %d: slept deltas ss=%d cw=%d credit=%v, want 1/0/true", now, c.sleepSS, c.sleepCW, c.sleepCredit)
		}
		armed++
	}
	c.SettleCheckDebt()
	if toStore == 0 {
		t.Fatalf("none of %d check-passed sleeps ran to the store's completion", armed)
	}
	t.Logf("%d check-passed sleeps, %d to the store's completion", armed, toStore)

	walk := newFakeGate(3)
	ref := newCore(walk)
	run(ref, 0, cycles)
	if c.C.Stores == 0 {
		t.Fatal("no store committed")
	}
	if c.C != ref.C {
		t.Fatalf("slept counters differ from the per-cycle walk:\nslept: %+v\nwalk:  %+v", c.C, ref.C)
	}
	if sleepy.checks != walk.checks || sleepy.sent != walk.sent {
		t.Fatalf("gate counters: slept %d checks/%d sent, walk %d/%d", sleepy.checks, sleepy.sent, walk.checks, walk.sent)
	}
}
