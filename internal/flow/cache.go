package flow

// cache.go is the flow-level implementation cache: place-and-route is fully
// deterministic in (netlist content, architecture parameters, seed, effort,
// router options), so its result can be memoized under a content key and
// replayed across sweeps and CLI invocations. Entries live in memory and,
// when a directory is configured, on disk as gob files named by the key.
// The cache is strictly best-effort: any I/O failure, decode failure, or
// shape mismatch (a corrupt or stale entry) is treated as a miss and the
// flow falls back to a fresh build.

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tafpga/internal/arch"
	"tafpga/internal/coffe"
	"tafpga/internal/netlist"
	"tafpga/internal/pack"
	"tafpga/internal/place"
	"tafpga/internal/route"
)

// Cache memoizes placement and routing results by content key. A nil
// *Cache is valid and disables caching. Safe for concurrent use.
type Cache struct {
	mu  sync.Mutex
	mem map[string]*cachePayload
	dir string
}

// NewCache returns an implementation cache. dir is the optional on-disk
// spill directory (created on first store); empty keeps the cache
// memory-only.
func NewCache(dir string) *Cache {
	return &Cache{mem: map[string]*cachePayload{}, dir: dir}
}

// cachedPath is one sink's hop list inside a cached net.
type cachedPath struct {
	Sink int
	Hops []route.Hop
}

// cachedNet is one routed net, with paths sorted by sink for a canonical
// encoding.
type cachedNet struct {
	Driver       int
	WireLenTiles int
	Paths        []cachedPath
}

// cachePayload is the durable part of one implementation: everything the
// downstream models (STA, power, thermal) read from placement and routing.
type cachePayload struct {
	TileOf []int
	Cost   float64
	Iters  int
	MaxOcc int
	Nets   []cachedNet
}

// cacheKey hashes what place-and-route actually depends on: the netlist
// content (its BLIF serialization), the architecture parameters after any
// ChannelTracks override, the placement seed and effort, and the router
// schedule. The thermally-oblivious flow reads neither the primary-input
// density (PIDensity) nor the device's corner to choose tiles and wires, so
// both stay out of its key and activity is recomputed on a hit. Thermal-aware
// placement reads both: thermalest.BlockPowerUW prices each block from the
// activity PIDensity sets and from the device's rails and CEff table, which
// move with the sizing corner and with Kit.AtVdd. With the thermal term
// enabled, PIDensity and that power signature join the key — without them,
// a build could be served a stale placement annealed against another
// activity's or another corner's power distribution.
func cacheKey(nl *netlist.Netlist, dev *coffe.Device, params coffe.Params, opts Options) (string, error) {
	h := sha256.New()
	if err := nl.WriteBLIF(h); err != nil {
		return "", err
	}
	fmt.Fprintf(h, "|arch:%+v|seed:%d|effort:%g|router:%s",
		params, opts.Seed, opts.PlaceEffort, routerKey(opts.Router))
	// Thermal-aware placement changes the produced bytes, so its knobs are
	// result-determining and must split the key — but only when enabled:
	// the weight-0 flow is byte-identical to the historical one, and its
	// key must stay byte-identical too so existing disk entries survive.
	// The radius is keyed at its resolved value, so 0 and DefaultRadius
	// share the entry they share the bytes of.
	if opts.ThermalPlace.enabled() {
		fmt.Fprintf(h, "|thermal:w=%g,r=%d",
			opts.ThermalPlace.Weight, opts.ThermalPlace.effectiveRadius())
		// The power-relevant inputs: exactly what BlockPowerUW folds into
		// the per-block power proxy the annealer optimizes against — the
		// activity's primary-input density and the device-corner signature.
		// Keyed only inside the enabled branch so weight-0 and legacy keys
		// stay byte-identical.
		fmt.Fprintf(h, "|pi:%g|corner:vdd=%g,vddl=%g,ceff=",
			opts.PIDensity, dev.Kit.Buf.Vdd, dev.Kit.SRAM.Vdd)
		for _, k := range coffe.Kinds() {
			fmt.Fprintf(h, "%g,", dev.CEff(k))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// routerAlgorithm names the negotiation that produced a cached route. Bump
// it whenever route.Route can route the same inputs differently: entries
// keyed under the old token then miss once and are rebuilt. "incremental/1"
// is the PathFinder that reroutes only overused nets after round 1; keys
// without a token came from the router that rerouted every net every round.
const routerAlgorithm = "incremental/1"

// routerKey renders the router's part of the cache key: the algorithm token
// followed by the result-determining schedule fields of route.Options. The
// worker count stays out: it picks how the identical result is computed,
// not what it is, so including it would split the cache by machine.
func routerKey(o route.Options) string {
	return fmt.Sprintf("%s{MaxIters:%d PresFacFirst:%v PresFacMult:%v BBoxMargin:%d}",
		routerAlgorithm, o.MaxIters, o.PresFacFirst, o.PresFacMult, o.BBoxMargin)
}

// snapshot captures a freshly built placement and routing as a payload.
func snapshot(placed *place.Placement, routed *route.Result) *cachePayload {
	p := &cachePayload{
		TileOf: placed.TileOf,
		Cost:   placed.Cost,
		Iters:  routed.Iters,
		MaxOcc: routed.MaxOcc,
	}
	drivers := make([]int, 0, len(routed.Nets))
	for d := range routed.Nets {
		drivers = append(drivers, d)
	}
	sort.Ints(drivers)
	for _, d := range drivers {
		nr := routed.Nets[d]
		cn := cachedNet{Driver: d, WireLenTiles: nr.WireLenTiles}
		sinks := make([]int, 0, len(nr.Paths))
		for s := range nr.Paths {
			sinks = append(sinks, s)
		}
		sort.Ints(sinks)
		for _, s := range sinks {
			cn.Paths = append(cn.Paths, cachedPath{Sink: s, Hops: nr.Paths[s]})
		}
		p.Nets = append(p.Nets, cn)
	}
	return p
}

// restore rebuilds Placement and route.Result views over the payload for
// the current netlist/grid/packing. It reports false when the payload does
// not fit the design (a corrupt or stale entry: an out-of-range block,
// tile or hop resource kind), in which case the caller rebuilds from
// scratch. Every block is placed — the packer puts each one in a cluster,
// a macro site or a pad — so a negative tile is out of range too. The
// restored route.Result carries a nil Graph: the downstream models never
// read it, and skipping RRG construction is a large part of the cache's
// win.
func (p *cachePayload) restore(nl *netlist.Netlist, grid *arch.Grid, packed *pack.Result) (*place.Placement, *route.Result, bool) {
	if len(p.TileOf) != len(nl.Blocks) {
		return nil, nil, false
	}
	for _, t := range p.TileOf {
		if t < 0 || t >= grid.NumTiles() {
			return nil, nil, false
		}
	}
	numKinds := coffe.ResourceKind(len(coffe.Kinds()))
	placed := &place.Placement{Grid: grid, Packed: packed, TileOf: p.TileOf, Cost: p.Cost}
	routed := &route.Result{Place: placed, Nets: map[int]*route.NetRoute{}, Iters: p.Iters, MaxOcc: p.MaxOcc}
	for _, cn := range p.Nets {
		if cn.Driver < 0 || cn.Driver >= len(nl.Blocks) {
			return nil, nil, false
		}
		nr := &route.NetRoute{Driver: cn.Driver, Paths: map[int][]route.Hop{}, WireLenTiles: cn.WireLenTiles}
		for _, cp := range cn.Paths {
			if cp.Sink < 0 || cp.Sink >= len(nl.Blocks) {
				return nil, nil, false
			}
			for _, hop := range cp.Hops {
				if hop.Tile < 0 || hop.Tile >= grid.NumTiles() || hop.Kind < 0 || hop.Kind >= numKinds {
					return nil, nil, false
				}
			}
			nr.Paths[cp.Sink] = cp.Hops
		}
		routed.Nets[cn.Driver] = nr
	}
	return placed, routed, true
}

// lookup returns the cached payload for a key, consulting memory first,
// then the spill directory. Disk entries that fail to decode are a miss.
func (c *Cache) lookup(key string) (*cachePayload, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	p, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		return p, true
	}
	if c.dir == "" {
		return nil, false
	}
	// Shared advisory lock: a concurrent process's store (temp + rename
	// under the exclusive lock) cannot interleave with this read, so the
	// decode below sees a complete entry or none. Lock failure degrades to
	// the old unlocked best-effort behavior.
	release, locked := acquireFileLock(c.dir, false)
	path := filepath.Join(c.dir, key+".gob")
	f, err := os.Open(path)
	if err != nil {
		if locked {
			release()
		}
		return nil, false
	}
	p = &cachePayload{}
	decodeErr := gob.NewDecoder(f).Decode(p)
	f.Close()
	if locked {
		release()
	}
	if decodeErr != nil {
		// A corrupt entry (e.g. a write truncated by a crash) would
		// otherwise miss on every future lookup of this key: delete it so
		// the rebuild's store can heal the slot. Deletion is a write, so it
		// takes the exclusive lock — never yanking an entry mid-read from
		// under another process.
		if release, locked := acquireFileLock(c.dir, true); locked {
			os.Remove(path)
			release()
		} else {
			os.Remove(path)
		}
		return nil, false
	}
	c.mu.Lock()
	c.mem[key] = p
	c.mu.Unlock()
	return p, true
}

// store records a payload in memory and, when configured, on disk. Disk
// writes go through a temp file + rename under the directory's exclusive
// advisory lock, so two processes storing the same key serialize instead of
// racing and a reader holding the shared lock never observes the sequence
// mid-flight; failures are silently dropped (the cache stays best-effort).
func (c *Cache) store(key string, p *cachePayload) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.mem[key] = p
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	release, locked := acquireFileLock(c.dir, true)
	if locked {
		defer release()
	}
	c.removeStaleTemps()
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return
	}
	if err := gob.NewEncoder(tmp).Encode(p); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, key+".gob")); err != nil {
		os.Remove(tmp.Name())
	}
}

// staleTempAge is how old an orphaned temp file must be before a store
// sweeps it: long enough that no live writer (whose encode takes seconds at
// most) can still own it.
const staleTempAge = time.Hour

// removeStaleTemps deletes temp files orphaned by a crash between
// CreateTemp and rename — a SIGKILL mid-store leaves the temp behind
// forever, and nothing else ever touches it. Called under the exclusive
// lock from store, so a sweeping process cannot delete a temp an in-flight
// (locked) writer still owns; the age floor protects against unlocked
// writers on filesystems without flock.
func (c *Cache) removeStaleTemps() {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		os.Remove(filepath.Join(c.dir, e.Name()))
	}
}
