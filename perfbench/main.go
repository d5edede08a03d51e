// Command perfbench is the repository's benchmark. It measures both
// faces of the system: the paper's skewed jobs on the simulated cluster
// (median-sponge, spamq-disk) and real spills through child sponge
// daemons (wire-remote, wire-local).
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics and writes a Chrome trace-event
// file. Every run checks its outputs against a reference computed from
// the same seed outside the timed region and exits non-zero on any
// mismatch. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// `perfbench serve ...` is the sponge daemon the wire workloads spawn as
// their child (scenario.ServeCmd); `perfbench job ...` runs one simulated
// job in its own process (jobMain), and `perfbench setup ...` times its
// assembly in one (setupMain).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"spongefiles/internal/scenario"
)

// runOpts is one invocation's settings.
type runOpts struct {
	workload string
	// seed is the workload seed; negative keeps the generators' own
	// defaults (the seeds the paper goldens use).
	seed   int64
	window time.Duration
	traced bool
	outDir string  // trace files and daemon scratch space
	scale  float64 // dataset size relative to the workload's (tests shrink it)
}

// outDir holds trace files and daemon scratch space. It is relative to
// the working directory, which child processes share, so the daemon's
// unix socket path stays within the kernel's ~100-byte limit.
const outDir = ".bench_build/perfbench"

// result is what one run reports.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the JSON
}

func main() {
	if subcommand(os.Args) {
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+workloadList())
	seed := fs.Int64("seed", -1, "workload seed (negative = the generators' default seeds)")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n", workloadList())
		os.Exit(2)
	}
	o := runOpts{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		outDir:   outDir,
		scale:    1,
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := workloads[o.workload](o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// subcommand runs the child-process subcommands — the daemon the wire
// workloads spawn, and the one-job and set-up processes of the simulated
// workloads — and reports whether args named one.
func subcommand(args []string) bool {
	if len(args) < 2 {
		return false
	}
	switch args[1] {
	case "serve":
		scenario.ServeCmd(args[2:])
	case "job", "setup":
		run := jobMain
		if args[1] == "setup" {
			run = setupMain
		}
		if err := run(args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	default:
		return false
	}
	return true
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOpts) (result, error){
	"median-sponge": func(o runOpts) (result, error) { return runSim(simMedian, o) },
	"spamq-disk":    func(o runOpts) (result, error) { return runSim(simSpam, o) },
	"wire-remote":   func(o runOpts) (result, error) { return runWire(wireRemote, o) },
	"wire-local":    func(o runOpts) (result, error) { return runWire(wireLocal, o) },
}

func workloadList() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// report prints the notes, one line per metric, and the JSON result
// line. A run with failed operations prints no result and fails.
func report(w io.Writer, o runOpts, res result) error {
	cat := endToEnd
	if o.traced {
		cat = perLayer
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	if res.attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", o.workload)
	}
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed their output check", o.workload, res.failed, res.attempted)
	}
	if !o.traced {
		// error_rate is printed here and carried by the result's
		// attempted/failed keys: it is 0 on every passing run, and an
		// end-to-end metric must never be 0.
		fmt.Fprintf(w, "%-34s %14.6g %s\n", "error_rate", 0.0, "ratio")
	}
	metrics := make(map[string]map[string]any, len(cat))
	for _, m := range cat {
		v, ok := res.metrics[m.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, m.name)
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", m.name, v, m.unit)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
