// Package cli is what the tafpga, taexp and tafpgad commands share: the
// flags that configure a run, each defined once with one default and one
// help string, and the lifecycle of a batch run (signals, -timeout and the
// profiles).
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"tafpga/internal/bench"
	"tafpga/internal/jobs"
)

// RunFlags defines the run-configuration flags on the default flag set
// and returns the config flag.Parse fills: -scale, -w, -effort, -parallel
// and -flowcache, and -bench when withBench is set.
func RunFlags(withBench bool) *jobs.RunnerConfig {
	cfg := &jobs.RunnerConfig{}
	flag.Float64Var(&cfg.Scale, "scale", bench.DefaultScale, "benchmark scale relative to the published sizes")
	flag.IntVar(&cfg.ChannelTracks, "w", 0, "router channel-width override (0 = Table I's 320)")
	flag.Float64Var(&cfg.PlaceEffort, "effort", 1.0, "placement effort")
	flag.IntVar(&cfg.BenchWorkers, "parallel", 0, "workers over a suite's benchmarks or a sweep's ambients, sweep jobs included (0 = GOMAXPROCS, 1 = serial)")
	flag.StringVar(&cfg.FlowCacheDir, "flowcache", "", "directory for the on-disk place-and-route cache (reused across runs)")
	if withBench {
		flag.Func("bench", "comma-separated benchmark subset for the suite experiments", func(s string) error {
			cfg.Benchmarks = nil
			if s != "" {
				cfg.Benchmarks = strings.Split(s, ",")
			}
			return nil
		})
	}
	return cfg
}

// Process is the lifecycle of a batch run: -timeout, -cpuprofile and
// -memprofile.
type Process struct {
	name     string
	timeout  time.Duration
	cpu, mem string
}

// ProcessFlags defines the lifecycle flags on the default flag set for the
// command name, which prefixes its error lines.
func ProcessFlags(name string) *Process {
	p := &Process{name: name}
	flag.DurationVar(&p.timeout, "timeout", 0, "abort after this duration (0 = none)")
	flag.StringVar(&p.cpu, "cpuprofile", "", "write CPU profile to file")
	flag.StringVar(&p.mem, "memprofile", "", "write heap profile to file at exit")
	return p
}

// Start begins the run after flag.Parse. It returns a context that SIGINT,
// SIGTERM and -timeout cancel, with the -cpuprofile profile running; a
// profile file that cannot be made ends the process with status 1. The
// returned stop writes the -memprofile heap profile, ends the CPU profile
// and releases the context, so a command defers it.
func (p *Process) Start() (context.Context, func()) {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	cancel := context.CancelFunc(func() {})
	if p.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
	}
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.name, err)
			os.Exit(1)
		}
	}
	return ctx, func() {
		if p.mem != "" {
			if err := writeHeapProfile(p.mem); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", p.name, err)
			}
		}
		pprof.StopCPUProfile() // a no-op without -cpuprofile
		cancel()
		stopSignals()
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
