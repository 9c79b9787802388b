package flow

import (
	"fmt"
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

// TestCacheKeyRouterByteFormat pins the hashed router rendering to the
// pre-Workers byte format: existing on-disk entries were keyed with
// route.Options' old four-field %+v, and routerSchedule must reproduce it
// exactly or every deployed cache silently goes cold.
func TestCacheKeyRouterByteFormat(t *testing.T) {
	opts := testOptions("sha")
	sched := routerSchedule{
		MaxIters:     opts.Router.MaxIters,
		PresFacFirst: opts.Router.PresFacFirst,
		PresFacMult:  opts.Router.PresFacMult,
		BBoxMargin:   opts.Router.BBoxMargin,
	}
	got := fmt.Sprintf("%+v", sched)
	want := fmt.Sprintf("{MaxIters:%d PresFacFirst:%v PresFacMult:%v BBoxMargin:%d}",
		opts.Router.MaxIters, opts.Router.PresFacFirst, opts.Router.PresFacMult, opts.Router.BBoxMargin)
	if got != want {
		t.Fatalf("routerSchedule renders %q, legacy keys hashed %q", got, want)
	}
}
