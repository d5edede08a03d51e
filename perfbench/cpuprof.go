package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// profile is a running CPU profile of this process.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile.
func (p *profile) stop() { pprof.StopCPUProfile() }

// layers saves the stopped profile as path and returns its CPU seconds by
// layer, as the cpu.* per-layer metrics plus cpu.total_s. The samples are
// read with the Go toolchain's pprof (`go tool pprof -traces`).
func (p *profile) layers(path string) (map[string]float64, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return attributeTraces(string(out))
}

// profilePath is where a traced run of the workload saves its CPU profile.
func profilePath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("cpu-%s-seed%s.pb.gz", workload, seedLabel(seed)))
}

// Layers of the repository, keyed by package path below the module.
// Each CPU sample goes to the innermost repository package on its stack.
var repoLayers = map[string]string{
	"internal/workload":    "cpu.workload_s",
	"internal/pig":         "cpu.pig_s",
	"internal/mapreduce":   "cpu.mapreduce_s",
	"internal/spill":       "cpu.spill_s",
	"internal/sponge":      "cpu.sponge_s",
	"internal/sponge/wire": "cpu.wire_s",
	"internal/media":       "cpu.media_s",
	"internal/simtime":     "cpu.simtime_s",
}

// gcFrames mark garbage-collector work, wherever on the stack they are.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.gcDrain",
}

// schedFrames mark Go scheduler stacks — the simulator's proc handoff
// parks and readies goroutines through these.
var schedFrames = []string{
	"runtime.mcall", "runtime.schedule", "runtime.findRunnable",
	"runtime.park_m", "runtime.goexit0", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.stopm", "runtime.startm", "runtime.wakep",
}

// traceFrames prefix the benchmark's own tracing code; the rest of the
// benchmark (the median job's map and reduce, the output tee, the wire
// load generator and its verification) counts as cpu.bench_s.
var traceFrames = []string{"main.(*tracer)", "main.(*meteredFile)", "main.(*meteredTarget)", "main.(*spillMeter)"}

// classify returns the cpu.* metric a sample's stack (innermost frame
// first) belongs to.
func classify(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if f == g {
				return "cpu.gc_s"
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			for _, t := range traceFrames {
				if strings.HasPrefix(f, t) {
					return "cpu.trace_s"
				}
			}
			return "cpu.bench_s"
		}
		if rest, ok := strings.CutPrefix(f, "spongefiles/"); ok {
			pkg := rest
			// The package path ends at the last '/' before the first '.'.
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			if l, ok := repoLayers[pkg]; ok {
				return l
			}
			return "cpu.other_s"
		}
	}
	for _, f := range frames {
		for _, s := range schedFrames {
			if f == s {
				return "cpu.sched_s"
			}
		}
	}
	return "cpu.other_s"
}

// traceSeparator opens each sample in `go tool pprof -traces` output. A
// sample is its value followed by its first frame on one line, then one
// frame a line, innermost first.
const traceSeparator = "-----------+"

// attributeTraces sums the samples of `go tool pprof -traces` output by
// layer.
func attributeTraces(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, l := range repoLayers {
		out[l] = 0
	}
	for _, k := range []string{"cpu.sched_s", "cpu.gc_s", "cpu.trace_s", "cpu.bench_s", "cpu.other_s", "cpu.total_s"} {
		out[k] = 0
	}
	blocks := strings.Split(text, traceSeparator)
	if len(blocks) < 2 {
		return nil, fmt.Errorf("go tool pprof -traces: no sample separator in %q", firstLine(text))
	}
	for _, b := range blocks[1:] {
		lines := strings.Split(b, "\n")[1:] // the rest of the separator line
		if len(lines) == 0 || strings.TrimSpace(lines[0]) == "" {
			continue
		}
		head := strings.Fields(lines[0])
		if len(head) < 2 {
			return nil, fmt.Errorf("go tool pprof -traces: bad sample line %q", lines[0])
		}
		sec, err := parseSampleValue(head[0])
		if err != nil {
			return nil, err
		}
		frames := []string{head[1]}
		for _, l := range lines[1:] {
			if f := strings.Fields(l); len(f) == 1 {
				frames = append(frames, f[0])
			}
		}
		out[classify(frames)] += sec
		out["cpu.total_s"] += sec
	}
	return out, nil
}

// parseSampleValue reads a pprof-scaled CPU time such as "10ms" or
// "1.20s".
func parseSampleValue(s string) (float64, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("go tool pprof -traces: bad value %q", s)
	}
	return d.Seconds(), nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
