package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
)

// fillBoth runs a fixed campaign (determinismJobs) and an adaptive one
// (adaptiveSpec) cold through cache and returns their rows and result
// sets.
func fillBoth(t *testing.T, cache Cache) (fixedRows, adaptiveRows []byte, fixed, adaptive *ResultSet) {
	t.Helper()
	eng := New(Options{Parallel: runtime.NumCPU(), Cache: cache})
	fixedRows, fixed = summarizeJSON(t, eng, determinismJobs(t))
	adaptiveRows, adaptive = runSpecRows(t, eng, adaptiveSpec())
	if fixed.Hits != 0 || adaptive.Hits != 0 {
		t.Fatalf("cold fill served hits: fixed %d, adaptive %d", fixed.Hits, adaptive.Hits)
	}
	return fixedRows, adaptiveRows, fixed, adaptive
}

// TestDiskCacheRestartServesFromDisk: results written by one DiskCache
// instance are served by a fresh instance on the same directory — the
// decode path a restarted mmmd takes — with every wave a hit and rows
// byte-identical to the cold run.
func TestDiskCacheRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	first := mustDiskCache(t, dir)
	fixedCold, adaptiveCold, fixed, adaptive := fillBoth(t, first)

	restarted := mustDiskCache(t, dir)
	eng := New(Options{Parallel: runtime.NumCPU(), Cache: restarted})
	fixedWarm, rsFixed := summarizeJSON(t, eng, determinismJobs(t))
	if rsFixed.Misses != 0 || rsFixed.Hits != fixed.Misses {
		t.Fatalf("fixed rerun after restart: hits=%d misses=%d, want %d/0", rsFixed.Hits, rsFixed.Misses, fixed.Misses)
	}
	adaptiveWarm, rsAdaptive := runSpecRows(t, eng, adaptiveSpec())
	if rsAdaptive.Misses != 0 || rsAdaptive.Hits != adaptive.Misses {
		t.Fatalf("adaptive rerun after restart: hits=%d misses=%d, want %d/0 waves",
			rsAdaptive.Hits, rsAdaptive.Misses, adaptive.Misses)
	}
	if !bytes.Equal(fixedCold, fixedWarm) {
		t.Fatalf("fixed rows differ after restart:\ncold: %s\nwarm: %s", fixedCold, fixedWarm)
	}
	if !bytes.Equal(adaptiveCold, adaptiveWarm) {
		t.Fatalf("adaptive rows differ after restart:\ncold: %s\nwarm: %s", adaptiveCold, adaptiveWarm)
	}
	// Every hit was decoded from disk exactly once into the new tier.
	if got, want := len(restarted.tier), fixed.Misses+adaptive.Misses; got != want {
		t.Fatalf("restarted tier holds %d entries, want the %d decoded from disk", got, want)
	}
}

// recordingCache remembers the value each Get served.
type recordingCache struct {
	Cache
	mu     sync.Mutex
	served map[string]core.Metrics
}

func (c *recordingCache) Get(key string) (core.Metrics, bool) {
	m, ok := c.Cache.Get(key)
	if ok {
		c.mu.Lock()
		c.served[key] = m
		c.mu.Unlock()
	}
	return m, ok
}

// TestDiskCacheTierMatchesDisk: a value served from the in-process tier
// (put there by the cold run) is indistinguishable from what a fresh
// instance decodes from the entry file.
func TestDiskCacheTierMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	dc := mustDiskCache(t, dir)
	_, _, fixed, adaptive := fillBoth(t, dc)

	rec := &recordingCache{Cache: dc, served: make(map[string]core.Metrics)}
	eng := New(Options{Parallel: runtime.NumCPU(), Cache: rec})
	if rs, err := eng.Run(context.Background(), microScale(), determinismJobs(t)); err != nil || rs.Misses != 0 {
		t.Fatalf("fixed warm rerun: err=%v misses=%d", err, rs.Misses)
	}
	if rs, err := eng.RunSpec(context.Background(), microScale(), adaptiveSpec()); err != nil || rs.Misses != 0 {
		t.Fatalf("adaptive warm rerun: err=%v misses=%d", err, rs.Misses)
	}
	if got, want := len(rec.served), fixed.Misses+adaptive.Misses; got != want {
		t.Fatalf("warm reruns served %d keys, want %d", got, want)
	}

	fresh := mustDiskCache(t, dir)
	for key, served := range rec.served {
		if _, ok := dc.tier[key]; !ok {
			t.Fatalf("%s was not served from the tier", key)
		}
		decoded, ok := fresh.Get(key)
		if !ok {
			t.Fatalf("%s: fresh instance misses", key)
		}
		if !reflect.DeepEqual(served, decoded) {
			t.Fatalf("%s: tier value differs from disk decode:\ntier: %+v %+v\ndisk: %+v %+v", key, served, served.Relia, decoded, decoded.Relia)
		}
	}
}

// TestDiskCacheTierClearsWhenFull: inserting past the cap clears the
// tier, and every entry stays readable from disk.
func TestDiskCacheTierClearsWhenFull(t *testing.T) {
	dc := mustDiskCache(t, t.TempDir())
	dc.tierMax = 2
	for i, key := range []string{"aa01", "bb02", "cc03"} {
		if err := dc.Put(key, core.Metrics{Cycles: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(dc.tier) != 1 {
		t.Fatalf("tier holds %d entries after overflowing a cap of 2, want 1", len(dc.tier))
	}
	// Re-putting a resident key never clears.
	if err := dc.Put("cc03", core.Metrics{Cycles: 3}); err != nil {
		t.Fatal(err)
	}
	if len(dc.tier) != 1 {
		t.Fatalf("re-putting a resident key changed the tier to %d entries", len(dc.tier))
	}
	for i, key := range []string{"aa01", "bb02", "cc03"} {
		m, ok := dc.Get(key)
		if !ok || m.Cycles != uint64(i+1) {
			t.Fatalf("%s after clear: ok=%v cycles=%d, want %d", key, ok, m.Cycles, i+1)
		}
	}
}

// TestDiskCacheConcurrent hammers one instance with Gets and Puts from
// many goroutines at a tiny tier cap, so the clear-on-full path races
// with readers and writers. Every hit must be the value stored for its
// key.
func TestDiskCacheConcurrent(t *testing.T) {
	dir := t.TempDir()
	dc := mustDiskCache(t, dir)
	dc.tierMax = 4
	// Puts are slow on some filesystems (milliseconds each under
	// contention), so most ops are Gets.
	const keys, goroutines, ops = 16, 8, 48
	key := func(i int) string { return fmt.Sprintf("%02x-key-%d", i, i) }
	val := func(i int) core.Metrics {
		return core.Metrics{Workload: "apache", Cycles: uint64(i + 1), GuestUser: map[string]uint64{"perf": uint64(i)}}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				// Goroutine g puts keys g and g+8, so every key is
				// stored, and reads the others as they appear.
				i := (g + n) % keys
				if n%8 == 0 {
					if err := dc.Put(key(i), val(i)); err != nil {
						t.Errorf("put %s: %v", key(i), err)
					}
					continue
				}
				if m, ok := dc.Get(key(i)); ok && (m.Cycles != uint64(i+1) || m.GuestUser["perf"] != uint64(i)) {
					t.Errorf("get %s served %+v", key(i), m)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(dc.tier) > dc.tierMax {
		t.Fatalf("tier grew to %d entries past its cap of %d", len(dc.tier), dc.tierMax)
	}
	fresh := mustDiskCache(t, dir)
	for i := 0; i < keys; i++ {
		if m, ok := fresh.Get(key(i)); !ok || !reflect.DeepEqual(m, val(i)) {
			t.Fatalf("%s on disk: ok=%v %+v", key(i), ok, m)
		}
	}
}

// FuzzDiskCacheGet writes arbitrary bytes as a cache entry. A fresh
// instance's Get must not panic; a hit must be exactly what the bytes
// decode to; a miss must leave the tier untouched and be overwritten
// by a later Put.
func FuzzDiskCacheGet(f *testing.F) {
	// One directory per fuzzing process: each input overwrites the same
	// entry, and a fresh instance has an empty tier.
	dir := f.TempDir()
	const key = "fz-entry"
	p := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		dc := mustDiskCache(t, dir)
		got, ok := dc.Get(key)
		if _, inTier := dc.tier[key]; inTier != ok {
			t.Fatalf("hit=%v but in tier=%v", ok, inTier)
		}
		if ok {
			var want core.Metrics
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("hit on an entry that does not decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("hit %+v, entry decodes to %+v", got, want)
			}
			return
		}
		want := core.Metrics{Kind: core.KindReunion, Workload: "apache", Cycles: 42,
			GuestUser: map[string]uint64{"reliable": 7}}
		if err := dc.Put(key, want); err != nil {
			t.Fatal(err)
		}
		for _, c := range []*DiskCache{dc, mustDiskCache(t, dir)} {
			if m, ok := c.Get(key); !ok || !reflect.DeepEqual(m, want) {
				t.Fatalf("after Put over a corrupt entry: ok=%v %+v", ok, m)
			}
		}
	})
}

func mustDiskCache(t *testing.T, dir string) *DiskCache {
	t.Helper()
	dc, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}
