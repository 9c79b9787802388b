package flow

import (
	"testing"

	"tafpga/internal/bench"
	"tafpga/internal/coffe"
)

// TestCacheKeyIgnoresRouteWorkers: Router.Workers is a deprecated, ignored
// field, so two options differing only in it must share one cache entry
// (callers that still set it must not split the cache or orphan old disk
// entries).
func TestCacheKeyIgnoresRouteWorkers(t *testing.T) {
	prof, err := bench.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(1.0/128), bench.SeedFor("sha"))
	if err != nil {
		t.Fatal(err)
	}
	params := coffe.DefaultParams()
	d, _ := devices(t)

	opts := testOptions("sha")
	base, err := cacheKey(nl, d, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		o := opts
		o.Router.Workers = w
		k, err := cacheKey(nl, d, params, o)
		if err != nil {
			t.Fatal(err)
		}
		if k != base {
			t.Fatalf("workers=%d changes the cache key", w)
		}
	}

	// The schedule knobs must still discriminate.
	o := opts
	o.Router.BBoxMargin++
	k, err := cacheKey(nl, d, params, o)
	if err != nil {
		t.Fatal(err)
	}
	if k == base {
		t.Fatal("BBoxMargin change did not change the cache key")
	}
}

// TestCacheKeyRouterByteFormat pins the hashed router rendering: the
// algorithm token, then route.Options' four schedule fields in their
// historical %+v form. Changing these bytes abandons every cached entry, so
// a change here must be a deliberate router-version bump.
func TestCacheKeyRouterByteFormat(t *testing.T) {
	got := routerKey(testOptions("sha").Router)
	want := "incremental/1{MaxIters:45 PresFacFirst:0.5 PresFacMult:1.3 BBoxMargin:3}"
	if got != want {
		t.Fatalf("router key renders %q, want %q", got, want)
	}
}

// TestCacheKeyRouterVersionBump: entries routed by the all-nets-every-round
// router must miss. The fixture's key from before the algorithm token was
// added must not come back.
func TestCacheKeyRouterVersionBump(t *testing.T) {
	const preBump = "f540899260239f42fff4ea0d7e545ceffc361014b08041abc40bb2b6d0c59503"
	prof, err := bench.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := bench.Generate(prof.Scaled(1.0/128), bench.SeedFor("sha"))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := devices(t)
	k, err := cacheKey(nl, d, coffe.DefaultParams(), testOptions("sha"))
	if err != nil {
		t.Fatal(err)
	}
	if k == preBump {
		t.Fatal("cache key still equals the pre-bump key: old routes would be served")
	}
}
