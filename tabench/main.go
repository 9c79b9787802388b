// Command tabench is the repository's end-to-end benchmark. It runs one
// seeded workload for a fixed time, checks every output, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	tabench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--bin dir] [--workdir dir]
//
// Workloads (README.md gives why each was chosen and what it measures):
//
//	implement-cold  one tafpga invocation per op: size, generate, pack, place,
//	                route and one guardband objective, no cache
//	guardband-warm  Algorithm 1 on prebuilt implementations with warm VddLabs
//	serve-warm      a tafpgad daemon with a full flow cache, driven by two
//	                closed-loop clients
//
// With --trace 0 the run is timed with tracing off and reports the
// end-to-end metrics. With --trace 1 it replays a fixed prefix of the same
// op stream twice in process, once through the public entry points and once
// rebuilt from the layers' public functions with a span around each call,
// asserts both give byte-identical outputs, and reports the per-layer
// metrics and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// processStart approximates the process start time: setup_s runs from here
// to the first timed op.
var processStart = time.Now()

// config is what every workload receives from the command line.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	binDir  string
	workDir string
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	// correct is false when any output check or identity assertion failed.
	correct bool
	metrics []metric
	// notes are extra report lines printed before the metrics: tail
	// percentile, digest, identity checks.
	notes []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*report, error){
	"implement-cold": runImplementCold,
	"guardband-warm": runGuardbandWarm,
	"serve-warm":     runServeWarm,
}

func main() {
	workload := flag.String("workload", "", "workload name: implement-cold, guardband-warm or serve-warm")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same op stream")
	seconds := flag.Float64("seconds", 10, "measured run time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the built tafpga and tafpgad binaries")
	workDir := flag.String("workdir", ".bench_build/run", "scratch directory for daemon state")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for k := range workloads {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "tabench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "tabench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, binDir: *binDir, workDir: *workDir}

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tabench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, *workload, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "tabench:", err)
		os.Exit(1)
	}
}

// emit prints the machine record, the notes and every metric, then the
// result object as the last line.
func emit(w io.Writer, workload string, cfg config, rep *report) error {
	m := machineRecord()
	mj, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "machine %s\n", mj)
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g %s\n", "error_rate", errRate, "ratio")
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.correct && rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, mt := range rep.metrics {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", mt.name, mt.value, mt.unit)
		out.Metrics[mt.name] = value{mt.value, mt.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// finishTimed adds the end-to-end metrics every timed run reports.
func finishTimed(rep *report, workload string, setup, elapsed time.Duration, lat []float64, maxTailPct float64,
	dg *digest, peakMB float64, gains, savings []float64) (*report, error) {
	if len(lat) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded", workload)
	}
	tl, ok := tailLatency(lat, 10, maxTailPct)
	if !ok {
		return nil, fmt.Errorf("%s: %d samples cannot give a tail with ten samples beyond it", workload, len(lat))
	}
	rep.note("ops %d completed in %.3f s; latency tail is p%g with %d samples beyond it", len(lat), elapsed.Seconds(), tl.Pct, tl.Beyond)
	rep.note("digest %s", dg)
	if len(savings) > 0 {
		rep.note("energy_saving_pct %.4f %% over %d min-energy results", mean(savings), len(savings))
	}
	rep.add("setup_s", "s", setup.Seconds())
	rep.add("throughput", "ops/s", float64(len(lat))/elapsed.Seconds())
	rep.add("latency_p50_s", "s", median(lat))
	rep.add("latency_tail_s", "s", tl.Value)
	rep.add("peak_rss_mb", "MB", peakMB)
	rep.add("gain_pct", "%", mean(gains))
	return rep, nil
}
