package flow

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/guardband"
)

// implementCached runs Implement with a cache attached.
func implementCached(t *testing.T, name string, scale float64, c *Cache) *Implementation {
	t.Helper()
	d, _ := devices(t)
	prof, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(scale), bench.SeedFor(name))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(name)
	opts.Cache = c
	im, err := Implement(nl, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// requireSameGuardband runs Algorithm 1 on both implementations and demands
// identical results — the cache must be invisible to every downstream
// number.
func requireSameGuardband(t *testing.T, a, b *Implementation) {
	t.Helper()
	ra, err := a.Guardband(guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Guardband(guardband.DefaultOptions(25))
	if err != nil {
		t.Fatal(err)
	}
	if ra.FmaxMHz != rb.FmaxMHz || ra.BaselineMHz != rb.BaselineMHz || ra.Iterations != rb.Iterations {
		t.Fatalf("cached implementation diverges: %g/%g/%d vs %g/%g/%d",
			ra.FmaxMHz, ra.BaselineMHz, ra.Iterations, rb.FmaxMHz, rb.BaselineMHz, rb.Iterations)
	}
}

func TestFlowCacheMemoryHit(t *testing.T) {
	c := NewCache("")
	fresh := implementCached(t, "sha", 1.0/64, c)
	if fresh.Routed.Graph == nil {
		t.Fatal("first build must be a miss (fresh RRG)")
	}
	hit := implementCached(t, "sha", 1.0/64, c)
	if hit.Routed.Graph != nil {
		t.Fatal("second build must be served from the cache (nil Graph)")
	}
	if hit.Placed.Cost != fresh.Placed.Cost {
		t.Fatalf("cached cost %g != fresh %g", hit.Placed.Cost, fresh.Placed.Cost)
	}
	for i := range fresh.Placed.TileOf {
		if hit.Placed.TileOf[i] != fresh.Placed.TileOf[i] {
			t.Fatalf("cached TileOf diverges at block %d", i)
		}
	}
	requireSameGuardband(t, fresh, hit)
}

func TestFlowCacheKeyDiscriminates(t *testing.T) {
	c := NewCache("")
	implementCached(t, "sha", 1.0/64, c)

	// A different seed must miss.
	d, _ := devices(t)
	prof, err := bench.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(1.0/64), bench.SeedFor("sha"))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions("sha")
	opts.Cache = c
	opts.Seed++
	im, err := Implement(nl, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if im.Routed.Graph == nil {
		t.Fatal("different seed must not hit the cache")
	}

	// A different benchmark must miss.
	other := implementCached(t, "raygentop", 1.0/64, c)
	if other.Routed.Graph == nil {
		t.Fatal("different netlist must not hit the cache")
	}
}

func TestFlowCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fresh := implementCached(t, "sha", 1.0/64, NewCache(dir))

	files, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected exactly one cache file, got %v (%v)", files, err)
	}

	// A brand-new Cache over the same directory must hit from disk.
	hit := implementCached(t, "sha", 1.0/64, NewCache(dir))
	if hit.Routed.Graph != nil {
		t.Fatal("fresh process over the same directory must hit the on-disk entry")
	}
	requireSameGuardband(t, fresh, hit)
}

// TestFlowCacheCorruptEntryFallsBack writes garbage over the on-disk entry:
// the next lookup must silently miss and rebuild, not error out.
func TestFlowCacheCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	fresh := implementCached(t, "sha", 1.0/64, NewCache(dir))

	files, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected exactly one cache file, got %v (%v)", files, err)
	}
	if err := os.WriteFile(files[0], []byte("not a gob payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	rebuilt := implementCached(t, "sha", 1.0/64, NewCache(dir))
	if rebuilt.Routed.Graph == nil {
		t.Fatal("corrupt entry must fall back to a fresh build")
	}
	requireSameGuardband(t, fresh, rebuilt)

	// Truncated-but-valid-prefix corruption: decode succeeds or fails, but
	// either way the flow must still produce a correct implementation.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	again := implementCached(t, "sha", 1.0/64, NewCache(dir))
	requireSameGuardband(t, fresh, again)
}

// TestFlowCacheCorruptEntrySelfHeals: a gob decode failure must not just
// miss — it must delete the corrupt file so the key is not poisoned, and
// the rebuild's store must re-create a decodable entry.
func TestFlowCacheCorruptEntrySelfHeals(t *testing.T) {
	dir := t.TempDir()
	fresh := implementCached(t, "sha", 1.0/64, NewCache(dir))

	files, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected exactly one cache file, got %v (%v)", files, err)
	}
	good, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: a truncated prefix that cannot gob-decode.
	if err := os.WriteFile(files[0], good[:1], 0o644); err != nil {
		t.Fatal(err)
	}

	// The lookup must treat the entry as a miss AND remove the corrupt file.
	c := NewCache(dir)
	if _, ok := c.lookup(strings.TrimSuffix(filepath.Base(files[0]), ".gob")); ok {
		t.Fatal("corrupt entry must be a miss")
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry must be removed, stat err = %v", err)
	}

	// The rebuild heals the slot: a fresh process over the directory first
	// rebuilds (miss), then hits the re-stored entry.
	rebuilt := implementCached(t, "sha", 1.0/64, NewCache(dir))
	if rebuilt.Routed.Graph == nil {
		t.Fatal("after corruption the first build must be a miss")
	}
	requireSameGuardband(t, fresh, rebuilt)
	healed := implementCached(t, "sha", 1.0/64, NewCache(dir))
	if healed.Routed.Graph != nil {
		t.Fatal("the healed on-disk entry must serve the next process")
	}
}

// TestFlowCancelBetweenStages: a cancelled context stops Implement between
// pipeline stages with a context error.
func TestFlowCancelBetweenStages(t *testing.T) {
	d, _ := devices(t)
	prof, err := bench.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(1.0/64), bench.SeedFor("sha"))
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := testOptions("sha")
	opts.Ctx = cctx
	if _, err := Implement(nl, d, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
